//! The compiled telemetry epilogue must be observationally identical to
//! hook-pipeline recording: driving the same call trace through a
//! compiled wrapper (latency + flight recorded in the fast-path
//! epilogue) and through a dynamic pipeline recording via hooks must
//! produce byte-identical `<latency>` and `<flight-recorder>` XML.

use std::sync::Arc;

use cdecl::{parse_prototype, TypedefTable};
use guardian::{CanaryRegistry, GuardOracle};
use profiler::{render_document, DocSections, Stats, WrapperJournal};
use simproc::{CVal, Fault, Proc};
use typelattice::SafePred;
use wrappergen::hooks::{ArgCheckHook, FlightRecorderHook};
use wrappergen::{CallCx, Hook, PolicyEngine, WrappedFn};

/// Hook-pipeline "call"-stage latency recording: the dynamic-path
/// reference the compiled epilogue must reproduce. (First in the
/// pipeline, so its `after` runs last and sees the settled cycles.)
struct CallLatencyHook {
    stats: Arc<Stats>,
}

impl Hook for CallLatencyHook {
    fn name(&self) -> &'static str {
        "call latency"
    }
    fn after(&self, cx: &mut CallCx<'_>, _result: &mut Result<CVal, Fault>) {
        let cycles = cx.proc.cycles().saturating_sub(cx.entry_cycles);
        self.stats.record_latency(cx.func, "call", cycles);
    }
}

struct Instrumented {
    strlen: WrappedFn,
    exit: WrappedFn,
    stats: Arc<Stats>,
    flight: Arc<WrapperJournal>,
}

/// The compiled variant: plain check pipeline, telemetry in the
/// epilogue.
fn compiled() -> Instrumented {
    let t = TypedefTable::with_builtins();
    let stats = Arc::new(Stats::new());
    let flight = Arc::new(WrapperJournal::new().with_ring(16));
    let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
    let strlen_proto = parse_prototype("size_t strlen(const char *s);", &t).unwrap();
    let strlen = WrappedFn::new_with_telemetry(
        strlen_proto.clone(),
        simlibc::find_symbol("strlen").unwrap().imp,
        vec![Arc::new(ArgCheckHook::new(
            vec![SafePred::CStr],
            strlen_proto.ret.clone(),
            oracle,
            PolicyEngine::containment(),
        ))],
        Some(Arc::clone(&stats)),
        Some(Arc::clone(&flight)),
    );
    let exit = WrappedFn::new_with_telemetry(
        parse_prototype("void exit(int status);", &t).unwrap(),
        simlibc::find_symbol("exit").unwrap().imp,
        vec![],
        Some(Arc::clone(&stats)),
        Some(Arc::clone(&flight)),
    );
    assert!(strlen.has_plan() && exit.has_plan(), "epilogues must not cost the fast path");
    Instrumented { strlen, exit, stats, flight }
}

/// The reference variant: identical checks, but recording rides the
/// dynamic hook pipeline (recorder hooks first, so their `after`s run
/// last — the legacy arrangement).
fn dynamic_reference() -> Instrumented {
    let t = TypedefTable::with_builtins();
    let stats = Arc::new(Stats::new());
    let flight = Arc::new(WrapperJournal::new().with_ring(16));
    let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
    let strlen_proto = parse_prototype("size_t strlen(const char *s);", &t).unwrap();
    let strlen = WrappedFn::new(
        strlen_proto.clone(),
        simlibc::find_symbol("strlen").unwrap().imp,
        vec![
            Arc::new(FlightRecorderHook::new(Arc::clone(&flight))),
            Arc::new(CallLatencyHook { stats: Arc::clone(&stats) }),
            Arc::new(ArgCheckHook::new(
                vec![SafePred::CStr],
                strlen_proto.ret.clone(),
                oracle,
                PolicyEngine::containment(),
            )),
        ],
    );
    let exit = WrappedFn::new(
        parse_prototype("void exit(int status);", &t).unwrap(),
        simlibc::find_symbol("exit").unwrap().imp,
        vec![
            Arc::new(FlightRecorderHook::new(Arc::clone(&flight))),
            Arc::new(CallLatencyHook { stats: Arc::clone(&stats) }),
        ],
    );
    assert!(!strlen.has_plan() && !exit.has_plan(), "the reference must stay dynamic");
    Instrumented { strlen, exit, stats, flight }
}

/// The shared trace: accepted calls, a contained rejection, and a
/// process-exit fault — every verdict class the recorder renders.
fn drive(lib: &Instrumented) -> (Proc, String) {
    let mut p = simlibc::testutil::libc_proc();
    let hello = p.alloc_cstr("hello");
    let longer = p.alloc_cstr("a somewhat longer string");
    lib.strlen.call(&mut p, &[CVal::Ptr(hello)]).unwrap();
    lib.strlen.call(&mut p, &[CVal::NULL]).unwrap(); // contained
    lib.strlen.call(&mut p, &[CVal::Ptr(longer)]).unwrap();
    lib.strlen.call(&mut p, &[CVal::Ptr(hello)]).unwrap(); // memo hit
    let err = lib.exit.call(&mut p, &[CVal::Int(3)]).unwrap_err();
    assert_eq!(err, Fault::Exit(3));
    let doc = render_document(
        "parity-app",
        "robustness",
        &lib.stats.snapshot(),
        &DocSections { flight: &lib.flight.tail(), ..DocSections::default() },
    );
    (p, doc)
}

#[test]
fn compiled_epilogue_xml_is_byte_identical_to_hook_recording() {
    let (_, fast_doc) = drive(&compiled());
    let (_, dyn_doc) = drive(&dynamic_reference());
    // Non-vacuous: both sections must actually be present.
    assert!(fast_doc.contains("<latency stage=\"call\""), "{fast_doc}");
    assert!(fast_doc.contains("<flight-recorder entries=\"5\""), "{fast_doc}");
    assert!(
        fast_doc.contains("process exited with status 3"),
        "fault verdicts recorded: {fast_doc}"
    );
    assert_eq!(fast_doc, dyn_doc, "compiled epilogue diverged from hook recording");
}
