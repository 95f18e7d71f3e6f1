//! Every generated wrapper kind, driven through one fixed call script,
//! pinned call by call.
//!
//! The script covers each way a call can leave a wrapper: accepted,
//! violating a robust type, called with the wrong arity, faulting inside
//! the original (propagated, healed, retried or absorbed obliviously), a
//! double free, a smashed heap canary and `exit`. For every call the
//! transcript records the result (or the rendered fault), errno and the
//! cycle counter; after the script it records which functions compiled
//! a call plan, the journal, the statistics, the flight ring, a digest of
//! the generated C and a digest of the shipped exit document. The whole
//! transcript is compared with `tests/wrapper_dispatch.golden`.

use std::fmt::Write as _;

use healers::analyzer::analyze_substitutions;
use healers::cdecl::{parse_prototype, TypedefTable};
use healers::profiler::{FleetConfig, FleetService};
use healers::simlibc::testutil::libc_proc;
use healers::simproc::{CVal, Fault, Proc, VirtAddr};
use healers::typelattice::RobustFunction;
use healers::wrappergen::{build_wrapper, WrapperLibrary};
use healers::{Policy, PolicyEngine, RobustApi, SafePred, WrapperConfig, WrapperKind};

const GOLDEN: &str = include_str!("wrapper_dispatch.golden");

fn api() -> RobustApi {
    let t = TypedefTable::with_builtins();
    let f = |proto: &str, preds: Vec<SafePred>| {
        RobustFunction::new(parse_prototype(proto, &t).unwrap(), preds, true)
    };
    RobustApi {
        library: "libsimc.so.1".into(),
        functions: vec![
            f("size_t strlen(const char *s);", vec![SafePred::CStr]),
            f(
                "char *strcpy(char *dest, const char *src);",
                vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr],
            ),
            f(
                "void *memcpy(void *dest, const void *src, size_t n);",
                vec![
                    SafePred::WritableAtLeastArg { size: 2, elem: 1 },
                    SafePred::ReadableAtLeastArg { size: 2, elem: 1 },
                    SafePred::Always,
                ],
            ),
            // A contract weaker than the function: a wild pointer passes
            // the check and faults inside the original.
            f("int atoi(const char *nptr);", vec![SafePred::NonNull]),
            f("int fclose(FILE *stream);", vec![SafePred::ValidFilePtr]),
            f("void *malloc(size_t size);", vec![SafePred::Always]),
            f("void free(void *ptr);", vec![SafePred::HeapChunkOrNull]),
            f(
                "void *realloc(void *ptr, size_t size);",
                vec![SafePred::HeapChunkOrNull, SafePred::Always],
            ),
            f("void exit(int status);", vec![SafePred::Always]),
        ],
    }
}

/// FNV-1a, 64 bit: a stable digest for the long texts.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn render_args(args: &[CVal]) -> String {
    args.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ")
}

/// Runs the script against `lib` (functions it does not interpose run
/// bare), appending one line per call to `out`.
fn run_script(lib: &WrapperLibrary, out: &mut String) {
    let mut p = libc_proc();
    let mut call = |p: &mut Proc, name: &str, args: &[CVal]| -> Result<CVal, Fault> {
        let r = match lib.get(name) {
            Some(f) => f.call(p, args),
            None => (healers::simlibc::find_impl(name).unwrap())(p, args),
        };
        let shown = match &r {
            Ok(v) => format!("= {v}"),
            Err(f) => format!("! {f}"),
        };
        let _ = writeln!(
            out,
            "  {name}({}) {shown} errno={} cycles={}",
            render_args(args),
            p.errno(),
            p.cycles()
        );
        r
    };

    let hello = CVal::Ptr(p.alloc_cstr("hello"));
    let long = CVal::Ptr(p.alloc_cstr(&"L".repeat(40)));
    let wild = CVal::Ptr(VirtAddr::new(0x40));
    let bogus = CVal::Ptr(p.alloc_data_zeroed(16));

    // Accepted, twice (the second may replay a memoized verdict),
    // violating, and with one argument too many.
    let _ = call(&mut p, "strlen", &[hello]);
    let _ = call(&mut p, "strlen", &[hello]);
    let _ = call(&mut p, "strlen", &[CVal::NULL]);
    let _ = call(&mut p, "strlen", &[hello, CVal::Int(7)]);

    // The copy target is followed by a chunk nothing touches again, so
    // the overflows the unchecking kinds let through land there instead
    // of in the allocator's top chunk.
    let buf = call(&mut p, "malloc", &[CVal::Int(16)]).unwrap_or(CVal::NULL);
    let _ = call(&mut p, "malloc", &[CVal::Int(64)]);
    let _ = call(&mut p, "strcpy", &[buf, hello]);
    let _ = call(&mut p, "strcpy", &[buf, long]);
    let _ = call(&mut p, "strcpy", &[buf, hello, CVal::Int(0)]);
    let _ = call(&mut p, "memcpy", &[buf, hello, CVal::Int(6)]);
    let _ = call(&mut p, "memcpy", &[buf, hello, CVal::Int(64)]);
    let _ = call(&mut p, "memcpy", &[CVal::NULL, hello, CVal::Int(4)]);

    // The check passes, the original faults.
    let _ = call(&mut p, "atoi", &[wild]);
    let _ = call(&mut p, "atoi", &[hello]);
    let _ = call(&mut p, "fclose", &[bogus]);

    // Allocator traffic: allocate, grow, free.
    let victim = call(&mut p, "malloc", &[CVal::Int(8)]).unwrap_or(CVal::NULL);
    let small = call(&mut p, "malloc", &[CVal::Int(8)]).unwrap_or(CVal::NULL);
    let grown = call(&mut p, "realloc", &[small, CVal::Int(32)]).unwrap_or(CVal::NULL);
    let _ = call(&mut p, "free", &[grown]);
    let _ = call(&mut p, "free", &[CVal::NULL, CVal::Int(1)]);
    let _ = call(&mut p, "realloc", &[wild, CVal::Int(8)]);
    let _ = call(&mut p, "free", &[wild]);

    // A heap smash, one byte past the requested size, then a double
    // free: nothing allocates after these.
    if !victim.is_null() {
        let _ = p.mem.write_bytes(victim.as_ptr(), &[0x41; 9]);
    }
    let _ = call(&mut p, "free", &[victim]);
    let _ = call(&mut p, "free", &[grown]);

    let _ = call(&mut p, "exit", &[CVal::Int(0)]);
}

/// Everything the wrapper recorded besides the per-call lines.
fn render_state(lib: &WrapperLibrary, out: &mut String) {
    for (name, f) in lib.iter() {
        let _ = writeln!(out, "  plan {name}: {}", f.has_plan());
    }
    for event in lib.journal.snapshot() {
        let _ = writeln!(out, "  journal {event:?}");
    }
    let _ = writeln!(out, "  oblivious {:?}", lib.journal.oblivious());
    for record in lib.journal.tail() {
        let _ = writeln!(out, "  flight {record:?}");
    }
    let snap = lib.stats.snapshot();
    for (name, row) in &snap.per_func {
        let _ = writeln!(out, "  stats {name}: {row:?}");
    }
    let _ = writeln!(
        out,
        "  stats global: errnos={:?} cycles={}",
        snap.global_errnos, snap.total_cycles
    );
    let _ = writeln!(out, "  registry live: {}", lib.registry.len());
    let _ = writeln!(out, "  log {:?}", &*lib.log.lock());
    let _ = writeln!(out, "  source {:016x}", digest(&lib.source));
    let doc = lib.shipped_document().map(|d| format!("{:016x}", digest(&d)));
    let _ = writeln!(out, "  exit document {}", doc.as_deref().unwrap_or("none"));
}

fn transcript() -> String {
    let api = api();
    // The substitute wrapper interposes what the analyzer proves from the
    // security wrapper's call models.
    let security = build_wrapper(WrapperKind::Security, &api, &WrapperConfig::default());
    let substitutions = analyze_substitutions(&security, None).plans;
    let kinds: Vec<(&str, WrapperKind, Option<PolicyEngine>)> = vec![
        ("robustness", WrapperKind::Robustness, None),
        ("security", WrapperKind::Security, None),
        ("profiling", WrapperKind::Profiling, None),
        ("tracing", WrapperKind::Tracing, None),
        ("healing", WrapperKind::Healing, None),
        (
            "healing/oblivious",
            WrapperKind::Healing,
            Some(PolicyEngine::new(Policy::Oblivious)),
        ),
        (
            "healing/per-function",
            WrapperKind::Healing,
            Some(
                PolicyEngine::healing()
                    .with_func("atoi", Policy::Heal)
                    .with_func("fclose", Policy::Observe),
            ),
        ),
        ("substitute", WrapperKind::Substitute, None),
    ];
    let mut out = String::new();
    for telemetry in [true, false] {
        for (label, kind, policy) in &kinds {
            let service = FleetService::start(FleetConfig::central());
            let config = WrapperConfig {
                app_name: "dispatch".into(),
                fleet: Some(service.collector()),
                policy: policy.clone(),
                latency_histograms: telemetry,
                flight_recorder: telemetry.then_some(64),
                substitutions: substitutions.clone(),
                ..WrapperConfig::default()
            };
            let lib = build_wrapper(*kind, &api, &config);
            let _ = writeln!(out, "{label} (telemetry {telemetry}):");
            run_script(&lib, &mut out);
            render_state(&lib, &mut out);
            let _ = writeln!(
                out,
                "  documents accepted: {}",
                service.shutdown().accounting.accepted()
            );
        }
    }
    out
}

#[test]
fn every_wrapper_kind_follows_the_pinned_script() {
    let got = transcript();
    for (i, (g, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, want, "transcript line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "transcript length differs");
}
