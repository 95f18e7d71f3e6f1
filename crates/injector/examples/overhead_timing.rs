//! Per-call wrapper overhead: the paper's Figure 5 analogue.
//!
//! Times `strlen("hello")` three ways inside the simulated process —
//! raw (direct host-fn call), through the robustness wrapper's compiled
//! fast path, and through a tracing wrapper that must run the dynamic
//! hook pipeline — plus the memory-oracle micro-operations underneath
//! them, and reports the per-call cost the wrapper adds.
//!
//! Modes:
//! * (no args)        — human-readable report;
//! * `--json-wrapper` — machine-readable record (`BENCH_wrapper.json`
//!   baseline is a snapshot of this);
//! * `--json-mem`     — memory-oracle micro-bench record
//!   (`BENCH_mem.json` baseline is a snapshot of this);
//! * `--json-oblivious` — failure-oblivious healing-wrapper record
//!   (`BENCH_oblivious.json` baseline is a snapshot of this): the
//!   accept path (valid call through the audited dynamic pipeline) and
//!   the absorb path (every call a manufactured read + journal entry).

use std::hint::black_box;
use std::time::Instant;

use cdecl::{parse_prototype, TypedefTable};
use simproc::{Access, CVal, Proc, VirtAddr};
use typelattice::{RobustApi, RobustFunction, SafePred};
use wrappergen::{build_wrapper, Policy, PolicyEngine, WrapperConfig, WrapperKind};

const WRAPPER_ITERS: u32 = 200_000;
const MEM_ITERS: u32 = 1_000_000;

/// A process with the libc image plus a short C string to scan.
fn proc_with_hello() -> (Proc, VirtAddr) {
    let mut p = simlibc::testutil::libc_proc();
    let s = p.alloc_data_zeroed(16);
    assert!(p.mem.poke_bytes(s, b"hello\0"));
    (p, s)
}

/// Nanoseconds per call of `f`, amortised over [`WRAPPER_ITERS`] calls.
fn ns_per_call(
    p: &mut Proc,
    args: &[CVal],
    mut f: impl FnMut(&mut Proc, &[CVal]) -> CVal,
) -> f64 {
    // Warm-up: touch the MRU cache, branch predictors and any lazy init.
    for _ in 0..1000 {
        black_box(f(p, args));
    }
    let start = Instant::now();
    for _ in 0..WRAPPER_ITERS {
        black_box(f(p, black_box(args)));
    }
    start.elapsed().as_nanos() as f64 / f64::from(WRAPPER_ITERS)
}

struct WrapperReport {
    raw_ns: f64,
    fast_ns: f64,
    dynamic_ns: f64,
    plan_active: bool,
}

/// One suite entry: the same three-way timing for one libc shape.
struct SuiteEntry {
    function: &'static str,
    raw_ns: f64,
    fast_ns: f64,
    dynamic_ns: f64,
}

impl SuiteEntry {
    fn overhead_pct(&self) -> f64 {
        (self.fast_ns / self.raw_ns - 1.0) * 100.0
    }
}

/// The benched robust API: three check-kernel shapes — `strlen` (single
/// `CStr`, memo-hittable: the string is never written, so the address-
/// space epoch holds still), `memcpy` (relational extent checks, honest
/// memo misses: every call writes memory and moves the epoch) and `free`
/// (`HeapChunkOrNull`, benched on the `NULL` short-circuit).
fn bench_api() -> RobustApi {
    let t = TypedefTable::with_builtins();
    RobustApi {
        library: "libsimc.so.1".into(),
        functions: vec![
            RobustFunction::new(
                parse_prototype("size_t strlen(const char *s);", &t).unwrap(),
                vec![SafePred::CStr],
                true,
            ),
            RobustFunction::new(
                parse_prototype("void *memcpy(void *dest, const void *src, size_t n);", &t)
                    .unwrap(),
                vec![
                    SafePred::WritableAtLeastArg { size: 2, elem: 1 },
                    SafePred::ReadableAtLeastArg { size: 2, elem: 1 },
                    SafePred::SizeBelow(1 << 20),
                ],
                true,
            ),
            RobustFunction::new(
                parse_prototype("void free(void *ptr);", &t).unwrap(),
                vec![SafePred::HeapChunkOrNull],
                true,
            ),
        ],
    }
}

/// A raw (unwrapped) reference implementation for one suite case.
type RawCall = fn(&mut Proc, &[CVal]) -> CVal;

fn bench_wrapper() -> (WrapperReport, Vec<SuiteEntry>) {
    let api = bench_api();
    let robust = build_wrapper(WrapperKind::Robustness, &api, &WrapperConfig::default());
    let tracing = build_wrapper(WrapperKind::Tracing, &api, &WrapperConfig::default());

    let (mut p, s) = proc_with_hello();
    let dst = p.alloc_data_zeroed(64);
    let mut suite = Vec::new();
    let cases: [(&'static str, Vec<CVal>, RawCall); 3] = [
        ("strlen", vec![CVal::Ptr(s)], |p, a| simlibc::string::strlen(p, a).unwrap()),
        ("memcpy", vec![CVal::Ptr(dst), CVal::Ptr(s), CVal::Int(6)], |p, a| {
            simlibc::mem::memcpy(p, a).unwrap()
        }),
        ("free", vec![CVal::NULL], |p, a| {
            simlibc::heap::free(p, a[0].as_ptr()).unwrap();
            CVal::Void
        }),
    ];
    for (name, args, raw) in cases {
        let fast = robust.get(name).unwrap();
        let dynamic = tracing.get(name).unwrap();
        assert!(fast.has_plan(), "robustness {name} must compile to a plan");
        assert!(!dynamic.has_plan(), "tracing {name} must stay dynamic");
        suite.push(SuiteEntry {
            function: name,
            raw_ns: ns_per_call(&mut p, &args, raw),
            fast_ns: ns_per_call(&mut p, &args, |p, a| fast.call(p, a).unwrap()),
            dynamic_ns: ns_per_call(&mut p, &args, |p, a| dynamic.call(p, a).unwrap()),
        });
    }
    // The tracing wrapper accumulates one log entry per call; drop them.
    tracing.log.lock().clear();
    let strlen = &suite[0];
    let report = WrapperReport {
        raw_ns: strlen.raw_ns,
        fast_ns: strlen.fast_ns,
        dynamic_ns: strlen.dynamic_ns,
        plan_active: true,
    };
    (report, suite)
}

/// Per-call cost of the compiled telemetry epilogue: the same robustness
/// `strlen`, with latency histograms and a flight recorder configured.
/// The plan must survive — this is the configuration that used to force
/// every call through `call_dynamic`.
fn bench_telemetry_fast() -> f64 {
    let api = bench_api();
    let config = WrapperConfig {
        latency_histograms: true,
        flight_recorder: Some(64),
        ..WrapperConfig::default()
    };
    let lib = build_wrapper(WrapperKind::Robustness, &api, &config);
    let f = lib.get("strlen").unwrap();
    assert!(f.has_plan(), "telemetry must not force the dynamic pipeline");
    let (mut p, s) = proc_with_hello();
    ns_per_call(&mut p, &[CVal::Ptr(s)], |p, a| f.call(p, a).unwrap())
}

struct ObliviousReport {
    accept_ns: f64,
    absorb_ns: f64,
}

/// The availability mode's per-call price: a healing wrapper whose
/// uniform policy is `Oblivious` tracks taint, so every call runs the
/// dynamic pipeline. `accept` is the common case (valid arguments,
/// checks pass); `absorb` is the worst case (every call a violation:
/// manufactured read + journal entry).
fn bench_oblivious() -> ObliviousReport {
    let t = TypedefTable::with_builtins();
    let api = RobustApi {
        library: "libsimc.so.1".into(),
        functions: vec![RobustFunction::new(
            parse_prototype("size_t strlen(const char *s);", &t).unwrap(),
            vec![SafePred::CStr],
            true,
        )],
    };
    let config = WrapperConfig {
        policy: Some(PolicyEngine::new(Policy::Oblivious)),
        ..WrapperConfig::default()
    };
    let lib = build_wrapper(WrapperKind::Healing, &api, &config);
    let f = lib.get("strlen").unwrap();
    assert!(!f.has_plan(), "the audited oblivious pipeline must stay dynamic");

    let (mut p, s) = proc_with_hello();
    let accept_ns = ns_per_call(&mut p, &[CVal::Ptr(s)], |p, a| f.call(p, a).unwrap());
    let absorb_ns = ns_per_call(&mut p, &[CVal::NULL], |p, a| f.call(p, a).unwrap());
    // The absorb path journals every call; drop the events, like the
    // tracing log above.
    lib.journal.clear();
    ObliviousReport { accept_ns, absorb_ns }
}

struct MemReport {
    seq_read_u8_ns: f64,
    rand_read_u8_ns: f64,
    extent_ns: f64,
    cstr_scan_ns: f64,
}

fn bench_mem() -> MemReport {
    let (mut p, s) = proc_with_hello();

    // Sequential byte reads inside one region: the MRU-cache hit path
    // every per-byte simlibc loop takes.
    let base = p.alloc_data_zeroed(4096);
    let mut byte = [0u8; 1];
    let start = Instant::now();
    for i in 0..MEM_ITERS {
        black_box(p.mem.peek_into(base.add(u64::from(i) % 4096), &mut byte));
    }
    let seq_read_u8_ns = start.elapsed().as_nanos() as f64 / f64::from(MEM_ITERS);

    // Alternating reads across distant segments: defeats the MRU cache,
    // so every lookup pays the binary search.
    let far = simproc::layout::STACK_TOP.sub(64);
    let start = Instant::now();
    for i in 0..MEM_ITERS {
        let a = if i % 2 == 0 { base } else { far };
        black_box(p.mem.peek_into(a, &mut byte));
    }
    let rand_read_u8_ns = start.elapsed().as_nanos() as f64 / f64::from(MEM_ITERS);

    // The extent-oracle query security wrappers issue per checked call.
    let start = Instant::now();
    for _ in 0..MEM_ITERS {
        black_box(p.mem.accessible_extent(black_box(base), Access::Write));
    }
    let extent_ns = start.elapsed().as_nanos() as f64 / f64::from(MEM_ITERS);

    // The zero-copy C-string scan under `SafePred::CStr`.
    let start = Instant::now();
    for _ in 0..MEM_ITERS {
        black_box(p.mem.peek_slice(black_box(s)));
    }
    let cstr_scan_ns = start.elapsed().as_nanos() as f64 / f64::from(MEM_ITERS);

    MemReport { seq_read_u8_ns, rand_read_u8_ns, extent_ns, cstr_scan_ns }
}

fn main() {
    let mode = std::env::args().nth(1);
    match mode.as_deref() {
        Some("--json-wrapper") => {
            let (w, suite) = bench_wrapper();
            let telemetry_ns = bench_telemetry_fast();
            // The legacy strlen keys stay first and unrenamed (the CI
            // gate greps the first match); the suite rides behind them.
            println!(
                "{{\n  \"function\": \"strlen\",\n  \"iters\": {},\n  \"raw_ns_per_call\": {:.1},\n  \"fast_ns_per_call\": {:.1},\n  \"dynamic_ns_per_call\": {:.1},\n  \"fast_overhead_ns\": {:.1},\n  \"fast_overhead_pct\": {:.1},\n  \"dynamic_overhead_pct\": {:.1},\n  \"plan_active\": {},\n  \"telemetry_fast_ns_per_call\": {:.1},\n  \"suite\": [",
                WRAPPER_ITERS,
                w.raw_ns,
                w.fast_ns,
                w.dynamic_ns,
                w.fast_ns - w.raw_ns,
                (w.fast_ns / w.raw_ns - 1.0) * 100.0,
                (w.dynamic_ns / w.raw_ns - 1.0) * 100.0,
                w.plan_active,
                telemetry_ns
            );
            for (i, e) in suite.iter().enumerate() {
                let sep = if i + 1 < suite.len() { "," } else { "" };
                println!(
                    "    {{\"function\": \"{}\", \"raw_ns\": {:.1}, \"fast_ns\": {:.1}, \"dynamic_ns\": {:.1}, \"overhead_pct\": {:.1}}}{sep}",
                    e.function,
                    e.raw_ns,
                    e.fast_ns,
                    e.dynamic_ns,
                    e.overhead_pct()
                );
            }
            println!("  ]\n}}");
        }
        Some("--json-oblivious") => {
            let o = bench_oblivious();
            println!(
                "{{\n  \"function\": \"strlen\",\n  \"iters\": {},\n  \"accept_ns_per_call\": {:.1},\n  \"absorb_ns_per_call\": {:.1},\n  \"plan_active\": false\n}}",
                WRAPPER_ITERS, o.accept_ns, o.absorb_ns
            );
        }
        Some("--json-mem") => {
            let m = bench_mem();
            println!(
                "{{\n  \"iters\": {},\n  \"seq_read_u8_ns\": {:.1},\n  \"rand_read_u8_ns\": {:.1},\n  \"extent_ns\": {:.1},\n  \"cstr_scan_ns\": {:.1}\n}}",
                MEM_ITERS, m.seq_read_u8_ns, m.rand_read_u8_ns, m.extent_ns, m.cstr_scan_ns
            );
        }
        _ => {
            let (w, suite) = bench_wrapper();
            let m = bench_mem();
            println!("per-call wrapper overhead, strlen(\"hello\") x {WRAPPER_ITERS}:");
            println!("  raw host call      {:8.1} ns/call", w.raw_ns);
            println!(
                "  compiled fast path {:8.1} ns/call  (+{:.1} ns, {:+.1}%)",
                w.fast_ns,
                w.fast_ns - w.raw_ns,
                (w.fast_ns / w.raw_ns - 1.0) * 100.0
            );
            println!(
                "  dynamic pipeline   {:8.1} ns/call  (+{:.1} ns, {:+.1}%)",
                w.dynamic_ns,
                w.dynamic_ns - w.raw_ns,
                (w.dynamic_ns / w.raw_ns - 1.0) * 100.0
            );
            let telemetry_ns = bench_telemetry_fast();
            println!(
                "  fast + telemetry   {:8.1} ns/call  (+{:.1} ns vs fast)",
                telemetry_ns,
                telemetry_ns - w.fast_ns
            );
            println!("check-kernel suite (raw / fast / dynamic, ns per call):");
            for e in &suite {
                println!(
                    "  {:8} {:8.1} {:8.1} {:8.1}  (fast {:+.1}%)",
                    e.function,
                    e.raw_ns,
                    e.fast_ns,
                    e.dynamic_ns,
                    e.overhead_pct()
                );
            }
            let o = bench_oblivious();
            println!(
                "  oblivious accept   {:8.1} ns/call  (+{:.1} ns, {:+.1}%)",
                o.accept_ns,
                o.accept_ns - w.raw_ns,
                (o.accept_ns / w.raw_ns - 1.0) * 100.0
            );
            println!("  oblivious absorb   {:8.1} ns/call", o.absorb_ns);
            println!("memory oracle micro-ops x {MEM_ITERS}:");
            println!("  sequential peek (MRU hit)    {:8.1} ns/op", m.seq_read_u8_ns);
            println!("  alternating peek (bin search){:8.1} ns/op", m.rand_read_u8_ns);
            println!("  accessible_extent            {:8.1} ns/op", m.extent_ns);
            println!("  peek_slice C-string scan     {:8.1} ns/op", m.cstr_scan_ns);
        }
    }
}
