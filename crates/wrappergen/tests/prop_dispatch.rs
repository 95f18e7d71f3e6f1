//! Differential property test for hook fusion.
//!
//! A hook whose accept path is exactly its `Check` ops is fused: its
//! checks run in the wrapper's check kernel (memoized where sound) and
//! its `before` runs only when one of them fails. The reference for that
//! is the hook itself, run on every call: each hook of a random pipeline
//! is wrapped in an adapter that forwards `name`, `before`, `after` and
//! `on_fault` but declares the default `Opaque` op, so nothing fuses.
//! Both pipelines are driven through the same random calls — valid,
//! NULL, freed, short and wild arguments, some with an extra argument —
//! and must agree after every call on the result, errno, the cycle
//! counter, the memory image, the journal, the statistics, the flight
//! ring, the call log and the canary registry.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use guardian::{CanaryRegistry, GuardOracle};
use parking_lot::Mutex;
use profiler::{Stats, WrapperJournal};
use proptest::prelude::*;
use simproc::{CVal, Fault, Proc, VirtAddr};
use typelattice::SafePred;
use wrappergen::hooks::{
    ArgCheckHook, CallCounterHook, CanaryHook, CollectErrorsHook, ExectimeHook,
    FuncErrorsHook, LogCallHook,
};
use wrappergen::{
    CallCx, CallLog, FaultDecision, Hook, HookAction, HookOp, Policy, PolicyEngine,
    WrappedFn,
};

/// The wrapped functions, in the order the case specs index them.
const FUNCS: [&str; 7] =
    ["strlen", "strcpy", "memcpy", "malloc", "free", "realloc", "fclose"];

/// The full robust contract of each function in [`FUNCS`].
fn contract(func: usize) -> Vec<SafePred> {
    match FUNCS[func] {
        "strlen" => vec![SafePred::CStr],
        "strcpy" => vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr],
        "memcpy" => vec![
            SafePred::WritableAtLeastArg { size: 2, elem: 1 },
            SafePred::ReadableAtLeastArg { size: 2, elem: 1 },
            SafePred::Always,
        ],
        "malloc" => vec![SafePred::SizeBelow(1 << 20)],
        "free" => vec![SafePred::HeapChunkOrNull],
        "realloc" => vec![SafePred::HeapChunkOrNull, SafePred::SizeBelow(1 << 20)],
        _ => vec![SafePred::ValidFilePtr],
    }
}

/// A weaker contract per function, with other (memoizable, scalar)
/// predicate shapes.
fn weak_contract(func: usize) -> Vec<SafePred> {
    match FUNCS[func] {
        "strlen" => vec![SafePred::Readable(1)],
        "strcpy" => vec![SafePred::Writable(8), SafePred::CStr],
        "memcpy" => vec![
            SafePred::NonNull,
            SafePred::Readable(4),
            SafePred::IntInRange { min: 0, max: 64 },
        ],
        "malloc" => vec![SafePred::IntInRange { min: 0, max: 4096 }],
        "free" => vec![SafePred::NullOr(Box::new(SafePred::Writable(8)))],
        "realloc" => {
            vec![SafePred::NullOr(Box::new(SafePred::Readable(8))), SafePred::Always]
        }
        _ => vec![SafePred::NonNull],
    }
}

/// One hook of a generated pipeline.
#[derive(Debug, Clone)]
enum HookSpec {
    /// An `ArgCheckHook`: engine 0 contains, 1 terminates, 2 heals, 3
    /// is oblivious; `keep` bit `i` keeps predicate `i` (the rest become
    /// `Always`); `weak` picks [`weak_contract`].
    Check {
        engine: u8,
        journal: bool,
        keep: u8,
        weak: bool,
    },
    Canary,
    Log,
    /// 0 call counter, 1 exectime, 2 func errors, 3 collect errors.
    Stats(u8),
}

/// One function's pipeline: the generated hooks plus a full-contract
/// check at `guard_at`, so no call reaches the original with arguments
/// that would corrupt the simulated heap.
#[derive(Debug, Clone)]
struct PipelineSpec {
    hooks: Vec<HookSpec>,
    guard_at: usize,
    guard_engine: u8,
    guard_journal: bool,
}

/// One call: the function, three argument choices and whether it gets
/// one argument too many.
#[derive(Debug, Clone, Copy)]
struct CallSpec {
    func: usize,
    picks: (u8, u8, u8),
    extra: bool,
}

fn hook_spec() -> impl Strategy<Value = HookSpec> {
    prop_oneof![
        3 => (0u8..4, any::<bool>(), any::<u8>(), any::<bool>())
            .prop_map(|(engine, journal, keep, weak)| HookSpec::Check { engine, journal, keep, weak }),
        1 => Just(HookSpec::Canary),
        1 => Just(HookSpec::Log),
        2 => (0u8..4).prop_map(HookSpec::Stats),
    ]
}

fn pipeline_spec() -> impl Strategy<Value = PipelineSpec> {
    (proptest::collection::vec(hook_spec(), 0..4), 0usize..4, 0u8..4, any::<bool>())
        .prop_map(|(hooks, guard_at, guard_engine, guard_journal)| PipelineSpec {
            guard_at: guard_at.min(hooks.len()),
            hooks,
            guard_engine,
            guard_journal,
        })
}

fn call_spec() -> impl Strategy<Value = CallSpec> {
    (0usize..FUNCS.len(), 0u8..16, 0u8..16, 0u8..16, 0u8..6)
        .prop_map(|(func, a, b, c, x)| CallSpec { func, picks: (a, b, c), extra: x == 0 })
}

/// Forwards everything that runs per call, declares nothing: the hook
/// never fuses, so its `before` runs on every call.
struct Unfused(Arc<dyn Hook>);

impl Hook for Unfused {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        self.0.before(cx)
    }
    fn after(&self, cx: &mut CallCx<'_>, result: &mut Result<CVal, Fault>) {
        self.0.after(cx, result)
    }
    fn on_fault(&self, cx: &mut CallCx<'_>, fault: &Fault, attempt: u32) -> FaultDecision {
        self.0.on_fault(cx, fault, attempt)
    }
}

fn engine(code: u8) -> PolicyEngine {
    match code {
        0 => PolicyEngine::containment(),
        1 => PolicyEngine::terminating(),
        2 => PolicyEngine::healing(),
        _ => PolicyEngine::new(Policy::Oblivious),
    }
}

/// One side of the comparison: wrapped functions, the process and every
/// sink the hooks record into.
struct World {
    fns: Vec<WrappedFn>,
    proc: Proc,
    journal: Arc<WrapperJournal>,
    stats: Arc<Stats>,
    registry: Arc<CanaryRegistry>,
    log: CallLog,
}

impl World {
    fn new(pipelines: &[PipelineSpec], telemetry: bool, reference: bool) -> World {
        let journal =
            Arc::new(WrapperJournal::new().with_ring(if telemetry { 32 } else { 0 }));
        let stats = Arc::new(Stats::new());
        let registry = Arc::new(CanaryRegistry::new());
        let log: CallLog = Arc::new(Mutex::new(Vec::new()));
        let oracle = GuardOracle::new(Arc::clone(&registry));
        let protos = simlibc::prototypes();
        let mut fns = Vec::new();
        for (func, spec) in pipelines.iter().enumerate() {
            let proto = protos.iter().find(|p| p.name == FUNCS[func]).unwrap().clone();
            let check = |engine_code: u8, with_journal: bool, preds: Vec<SafePred>| {
                let engine = engine(engine_code);
                let hook = if with_journal {
                    ArgCheckHook::with_journal(
                        preds,
                        proto.ret.clone(),
                        oracle.clone(),
                        engine,
                        Arc::clone(&journal),
                    )
                } else {
                    ArgCheckHook::new(preds, proto.ret.clone(), oracle.clone(), engine)
                };
                Arc::new(hook) as Arc<dyn Hook>
            };
            let mut hooks: Vec<Arc<dyn Hook>> = spec
                .hooks
                .iter()
                .map(|h| match h {
                    HookSpec::Check { engine, journal, keep, weak } => {
                        let preds =
                            if *weak { weak_contract(func) } else { contract(func) };
                        let preds =
                            preds
                                .into_iter()
                                .enumerate()
                                .map(|(i, p)| {
                                    if keep & (1 << i) != 0 {
                                        p
                                    } else {
                                        SafePred::Always
                                    }
                                })
                                .collect();
                        check(*engine, *journal, preds)
                    }
                    HookSpec::Canary => Arc::new(CanaryHook::new(Arc::clone(&registry))),
                    HookSpec::Log => Arc::new(LogCallHook::new(Arc::clone(&log))),
                    HookSpec::Stats(0) => {
                        Arc::new(CallCounterHook::new(Arc::clone(&stats)))
                    }
                    HookSpec::Stats(1) => Arc::new(ExectimeHook::new(Arc::clone(&stats))),
                    HookSpec::Stats(2) => Arc::new(FuncErrorsHook::new(Arc::clone(&stats))),
                    HookSpec::Stats(_) => {
                        Arc::new(CollectErrorsHook::new(Arc::clone(&stats)))
                    }
                })
                .collect();
            hooks.insert(
                spec.guard_at,
                check(spec.guard_engine, spec.guard_journal, contract(func)),
            );
            if reference {
                hooks = hooks
                    .into_iter()
                    .map(|h| Arc::new(Unfused(h)) as Arc<dyn Hook>)
                    .collect();
            }
            let imp = simlibc::find_impl(FUNCS[func]).unwrap();
            let latency = telemetry.then(|| Arc::clone(&stats));
            let flight = telemetry.then(|| Arc::clone(&journal));
            fns.push(WrappedFn::new_with_telemetry(proto, imp, hooks, latency, flight));
        }
        World { fns, proc: simlibc::testutil::libc_proc(), journal, stats, registry, log }
    }

    /// Everything observable besides the call's own result, rendered.
    fn state(&self) -> String {
        format!(
            "errno={} cycles={} epoch={}\njournal={:?}\noblivious={:?}\nflight={:?}\nstats={:?}\nlog={:?}\nregistry={}",
            self.proc.errno(),
            self.proc.cycles(),
            self.proc.mem.epoch(),
            self.journal.snapshot(),
            self.journal.oblivious(),
            self.journal.tail(),
            self.stats.snapshot(),
            &*self.log.lock(),
            self.registry.len(),
        )
    }

    /// The memory image: every region's placement, protection and bytes.
    fn same_memory(&self, other: &World) -> bool {
        let (a, b) = (self.proc.mem.regions(), other.proc.mem.regions());
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.base() == y.base()
                    && x.len() == y.len()
                    && x.prot() == y.prot()
                    && self.proc.mem.peek_slice(x.base())
                        == other.proc.mem.peek_slice(y.base())
            })
    }
}

/// The argument values a call picks from: fixed ones first, then the
/// pointers earlier calls returned (live or since freed).
struct Pool {
    fixed: Vec<CVal>,
    recent: VecDeque<CVal>,
}

impl Pool {
    /// Builds the fixed values in `p` with bare library calls; both
    /// worlds run the same setup, so the values are the same in both.
    fn setup(p: &mut Proc) -> Vec<CVal> {
        let hello = CVal::Ptr(p.alloc_cstr("hello"));
        let long = CVal::Ptr(p.alloc_cstr(&"L".repeat(40)));
        let data = CVal::Ptr(p.alloc_data_zeroed(64));
        let short = CVal::Ptr(simlibc::heap::malloc(p, 4).unwrap());
        let freed = CVal::Ptr(simlibc::heap::malloc(p, 24).unwrap());
        simlibc::heap::free(p, freed.as_ptr()).unwrap();
        let fopen = simlibc::find_impl("fopen").unwrap();
        let mode = CVal::Ptr(p.alloc_cstr("w"));
        let path = CVal::Ptr(p.alloc_cstr("out.txt"));
        let file = fopen(p, &[path, mode]).unwrap();
        let wild = CVal::Ptr(VirtAddr::new(0x40));
        vec![hello, long, data, short, freed, file, wild, CVal::NULL]
    }

    fn pointer(&self, pick: u8) -> CVal {
        let pick = usize::from(pick);
        match pick.checked_sub(self.fixed.len()) {
            None => self.fixed[pick],
            Some(k) => self.recent.get(k).copied().unwrap_or(CVal::NULL),
        }
    }

    fn size(pick: u8) -> CVal {
        const SIZES: [i64; 8] = [0, 4, 6, 16, 64, 100, 1 << 40, -1];
        CVal::Int(SIZES[usize::from(pick) % SIZES.len()])
    }

    fn args(&self, call: &CallSpec) -> Vec<CVal> {
        let (a, b, c) = call.picks;
        let mut args = match FUNCS[call.func] {
            "strlen" | "free" | "fclose" => vec![self.pointer(a)],
            "strcpy" => vec![self.pointer(a), self.pointer(b)],
            "memcpy" => vec![self.pointer(a), self.pointer(b), Self::size(c)],
            "malloc" => vec![Self::size(a)],
            _ => vec![self.pointer(a), Self::size(b)],
        };
        if call.extra {
            args.push(CVal::Int(i64::from(c)));
        }
        args
    }

    fn remember(&mut self, result: &Result<CVal, Fault>) {
        if let Ok(CVal::Ptr(ptr)) = result {
            if !ptr.is_null() {
                self.recent.push_front(CVal::Ptr(*ptr));
                self.recent.truncate(8);
            }
        }
    }
}

/// A call's outcome, a panic included (the simulated heap checks its
/// own invariants in debug builds).
fn outcome(f: &WrappedFn, p: &mut Proc, args: &[CVal]) -> Result<Result<CVal, Fault>, ()> {
    catch_unwind(AssertUnwindSafe(|| f.call(p, args))).map_err(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn fused_pipelines_match_their_unfused_reference(
        pipelines in proptest::collection::vec(pipeline_spec(), FUNCS.len()),
        calls in proptest::collection::vec(call_spec(), 1..24),
        telemetry in any::<bool>(),
    ) {
        let mut fused = World::new(&pipelines, telemetry, false);
        let mut reference = World::new(&pipelines, telemetry, true);
        let fixed = Pool::setup(&mut fused.proc);
        prop_assert_eq!(&fixed, &Pool::setup(&mut reference.proc));
        let mut pool = Pool { fixed, recent: VecDeque::new() };
        for (i, call) in calls.iter().enumerate() {
            let args = pool.args(call);
            let f = &fused.fns[call.func];
            let got = outcome(f, &mut fused.proc, &args);
            let want = outcome(&reference.fns[call.func], &mut reference.proc, &args);
            let context = format!("call {i}: {:?}{args:?} through {f:?}\npipelines {pipelines:?}", FUNCS[call.func]);
            prop_assert_eq!(&got, &want, "{}", context);
            let Ok(result) = got else { break };
            prop_assert_eq!(fused.state(), reference.state(), "{}", context);
            prop_assert!(fused.same_memory(&reference), "memory diverged after {}", context);
            pool.remember(&result);
        }
    }
}

/// An opaque hook between two fused check hooks.
struct Opaque;

impl Hook for Opaque {
    fn name(&self) -> &'static str {
        "opaque"
    }
}

#[test]
fn relational_checks_suppress_memo_keys_across_a_split_pipeline() {
    // memset(s, c, n): the first check hook proves `s` writable, the
    // second relates `n` to `s`'s writable extent. An opaque hook splits
    // them into two kernels; the memo suppression must still span both.
    let proto = simlibc::prototypes().into_iter().find(|p| p.name == "memset").unwrap();
    let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
    let hook = |preds: Vec<SafePred>| -> Arc<dyn Hook> {
        Arc::new(ArgCheckHook::new(
            preds,
            proto.ret.clone(),
            oracle.clone(),
            PolicyEngine::containment(),
        ))
    };
    let writable = || hook(vec![SafePred::Writable(1), SafePred::Always, SafePred::Always]);
    let relational = hook(vec![
        SafePred::Always,
        SafePred::Always,
        SafePred::SizeFitsWritable { ptr: 0, elem: 1 },
    ]);
    let imp = simlibc::find_impl("memset").unwrap();
    let memoized_arg0 = |hooks: Vec<Arc<dyn Hook>>| {
        let f = WrappedFn::new(proto.clone(), imp, hooks);
        assert!(!f.has_plan(), "the opaque hook stays unfused");
        f.call_model()
            .ops
            .iter()
            .find_map(|m| match &m.op {
                HookOp::Check { arg: 0, memoized, .. } => Some(*memoized),
                _ => None,
            })
            .unwrap()
    };
    // Without the relational check, the first kernel memoizes `s`.
    assert!(memoized_arg0(vec![writable(), Arc::new(Opaque)]));
    assert!(
        !memoized_arg0(vec![writable(), Arc::new(Opaque), relational]),
        "a relational check in another kernel must suppress the memo on `s`"
    );
}

/// A fused hook that records when its `before` runs: its accept path is
/// its one `NonNull` check, and `before` re-runs that check.
struct FusedNonNull {
    log: CallLog,
}

impl Hook for FusedNonNull {
    fn name(&self) -> &'static str {
        "fused non-null"
    }
    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Check {
            arg: 0,
            pred: Some(SafePred::NonNull),
            label: "non-null".into(),
            null_guarded: true,
            memoized: false,
        }]
    }
    fn fusion(&self) -> Option<wrappergen::ArcOracle> {
        Some(Arc::new(simproc::RegionOracle::new()))
    }
    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        self.log.lock().push("fused:before".into());
        if cx.args[0].is_null() {
            wrappergen::reject(cx.proc, &cdecl::CType::INT)
        } else {
            HookAction::Continue
        }
    }
}

/// An unfused hook that records its `before` and `after`.
struct Tracer {
    log: CallLog,
    tag: &'static str,
}

impl Hook for Tracer {
    fn name(&self) -> &'static str {
        "tracer"
    }
    fn before(&self, _cx: &mut CallCx<'_>) -> HookAction {
        self.log.lock().push(format!("{}:before", self.tag));
        HookAction::Continue
    }
    fn after(&self, _cx: &mut CallCx<'_>, _result: &mut Result<CVal, Fault>) {
        self.log.lock().push(format!("{}:after", self.tag));
    }
}

fn strlen(hooks: Vec<Arc<dyn Hook>>) -> WrappedFn {
    let proto = simlibc::prototypes().into_iter().find(|p| p.name == "strlen").unwrap();
    WrappedFn::new(proto, simlibc::find_impl("strlen").unwrap(), hooks)
}

#[test]
fn a_fused_hook_runs_its_before_only_where_its_check_fails() {
    let log: CallLog = Arc::new(Mutex::new(Vec::new()));
    let f = strlen(vec![
        Arc::new(Tracer { log: Arc::clone(&log), tag: "a" }),
        Arc::new(FusedNonNull { log: Arc::clone(&log) }),
        Arc::new(Tracer { log: Arc::clone(&log), tag: "b" }),
    ]);
    assert!(!f.has_plan(), "the tracers stay unfused");
    let mut p = simlibc::testutil::libc_proc();
    let s = CVal::Ptr(p.alloc_cstr("xyz"));
    let mut run = |args: &[CVal]| {
        let r = f.call(&mut p, args);
        (r, std::mem::take(&mut *log.lock()))
    };
    // An accepted call runs the check in the kernel, not the hook.
    let (r, trace) = run(&[s]);
    assert_eq!(r, Ok(CVal::Int(3)));
    assert_eq!(trace, ["a:before", "b:before", "b:after", "a:after"]);
    // The failing check runs the hook's `before` at its position, which
    // contains the call before `b` runs.
    let (r, trace) = run(&[CVal::NULL]);
    assert_eq!(r, Ok(CVal::Int(-1)));
    assert_eq!(trace, ["a:before", "fused:before", "a:after"]);
    // A call of another arity cannot run the kernel: every hook runs,
    // however many arguments it has.
    for extra in [1, 10] {
        let mut args = vec![CVal::Int(0); 1 + extra];
        args[0] = s;
        let (r, trace) = run(&args);
        assert_eq!(r, Ok(CVal::Int(3)));
        assert_eq!(trace, ["a:before", "fused:before", "b:before", "b:after", "a:after"]);
    }
}

#[test]
fn two_fused_checks_on_one_argument_memoize_apart() {
    // Two check hooks test one argument with different memoizable
    // predicates. A passing `Readable(8)` verdict must not answer for
    // the `CStr` check: each check has its own memo slot.
    let proto = simlibc::prototypes().into_iter().find(|p| p.name == "strlen").unwrap();
    let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
    let check = |pred: SafePred| -> Arc<dyn Hook> {
        Arc::new(ArgCheckHook::new(
            vec![pred],
            proto.ret.clone(),
            oracle.clone(),
            PolicyEngine::containment(),
        ))
    };
    let seven = |_: &mut Proc, _: &[CVal]| -> Result<CVal, Fault> { Ok(CVal::Int(7)) };
    let f = WrappedFn::new(
        proto.clone(),
        seven,
        vec![check(SafePred::Readable(8)), check(SafePred::CStr)],
    );
    assert!(f.has_plan());
    assert!(f
        .call_model()
        .ops
        .iter()
        .all(|m| matches!(m.op, HookOp::Check { memoized: true, .. })));
    let mut p = simlibc::testutil::libc_proc();
    // Eight readable bytes, no terminator before the mapping ends.
    let page = VirtAddr::new(0x7000_0000);
    p.mem.map(page, 0x1000, simproc::Prot::RW, "unterminated").unwrap();
    p.mem.write_bytes(page, &[0x41; 0x1000]).unwrap();
    let tail = [CVal::Ptr(page.add(0x1000 - 8))];
    for _ in 0..2 {
        assert_eq!(f.call(&mut p, &tail), Ok(CVal::Int(-1)), "the CStr check must fail");
    }
}
