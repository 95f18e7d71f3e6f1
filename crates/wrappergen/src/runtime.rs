//! The micro-generator runtime: a [`Hook`] declares what it does per call
//! as one op list ([`Hook::ops`]), executes it in the simulation
//! (`before`/`after`/`on_fault`) and renders the same behaviour as its C
//! fragment. A wrapped function runs its hooks' `before` parts in
//! micro-generator order, calls the original (unless a hook contained the
//! call), then runs `after` parts in reverse order — the same prefix/
//! postfix discipline as Figure 3. Where every hook's accept path is
//! exactly its `Check` ops, those ops fuse into one check kernel.

use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use cdecl::{CType, Prototype};
use parking_lot::Mutex;
use profiler::{Stats, WrapperJournal};
use simproc::{errno, CVal, ExtentOracle, Fault, HostFn, Proc};
use typelattice::{classify, peek_cstr_len, trunc_int, ArgClass, SafePred};

use crate::codegen::{CodegenCx, Fragment};

/// What a hook's `before` decides.
#[derive(Debug, Clone, PartialEq)]
pub enum HookAction {
    /// Proceed to the next hook / the original function.
    Continue,
    /// Do not call the original; produce this value instead (fault
    /// containment — the robustness wrapper's response).
    ShortCircuit(CVal),
    /// Do not call the original; fail with this fault (the security
    /// wrapper terminating the process).
    Deny(Fault),
}

/// What a hook decides about a fault raised by the original function —
/// the healing wrapper's last line of defence. Polled in hook order; the
/// first non-[`FaultDecision::Propagate`] answer wins.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultDecision {
    /// Let the fault propagate to the caller (every non-healing wrapper).
    Propagate,
    /// Re-invoke the original with the (possibly re-sanitized) arguments
    /// in `CallCx::args`.
    Retry,
    /// Swallow the fault and return this value instead.
    Substitute(CVal),
}

/// Per-call context shared by the hooks.
#[derive(Debug)]
pub struct CallCx<'a> {
    /// The wrapped function's name.
    pub func: &'a str,
    /// The simulated process.
    pub proc: &'a mut Proc,
    /// Arguments — hooks may rewrite them (the canary hook grows
    /// allocation sizes).
    pub args: Vec<CVal>,
    /// errno at entry.
    pub errno_before: i32,
    /// Cycle counter at entry (the `rdtsc(exectime_start)` sample).
    pub entry_cycles: u64,
    /// Hook-private scratch values pushed in `before`, popped in `after`.
    pub scratch: Vec<u64>,
}

/// What the compiled fast path does when a fused check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Re-run the call through the full dynamic hook pipeline (which will
    /// re-discover the violation and apply policy, journaling, healing).
    Fallback,
    /// Reject directly: `errno = EINVAL`, containment value returned —
    /// only when the owning hook proved this is *exactly* what its
    /// dynamic path would do (uniform containment policy, no journal).
    Reject,
}

/// Shared handle to the extent oracle a kernel check consults.
pub type ArcOracle = Arc<dyn ExtentOracle + Send + Sync>;

/// One directly-dispatched check inside a [`CheckKernel::Seq`]: a hook's
/// `Check` op plus the oracle and failure action its hook answered with,
/// and its memoization key when the predicate's answer is a pure
/// function of (pointer, memory epoch, oracle epoch).
struct KernelCheck {
    /// Argument index the predicate guards (always `< nargs`).
    arg: usize,
    /// The predicate itself.
    pred: SafePred,
    /// Extent oracle for the relational/extent predicates.
    oracle: ArcOracle,
    /// Response on failure.
    on_fail: FailAction,
    /// `Some(key)` when a passing validation of a non-null pointer may be
    /// cached in [`Proc::validation_store`] and replayed while both the
    /// address-space epoch and the oracle's auxiliary epoch hold still.
    memo_key: Option<u64>,
}

impl fmt::Debug for KernelCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KernelCheck(arg{}: {})", self.arg + 1, self.pred)
    }
}

/// The specialized check kernel a [`CallPlan`]'s check sequence fuses
/// into at wrap time: one `match` dispatches the whole sequence. The
/// common libc shapes get monomorphized bodies; everything else runs as
/// a direct predicate sequence.
enum CheckKernel {
    /// No checks at all (profiled-robust functions, `NonNull`-free
    /// signatures).
    NoChecks,
    /// Exactly one `CStr` check — the `strlen`/`atoi` shape. Scans with
    /// [`peek_cstr_len`] directly and memoizes the validated pointer.
    CStrOnly {
        /// Argument holding the string.
        arg: usize,
        /// Memo key for the validated pointer.
        memo_key: u64,
        /// Response on failure.
        on_fail: FailAction,
    },
    /// The fused `strcpy` shape: `HoldsCStrOf { src }` on `dst` plus
    /// `CStr` on `src`, sharing one source scan — the interpreter walked
    /// the source string twice.
    BufLenPair {
        /// Destination-buffer argument.
        dst: usize,
        /// Source-string argument.
        src: usize,
        /// Oracle answering the destination's exact right extent.
        oracle: ArcOracle,
        /// Response on failure (identical for both fused checks).
        on_fail: FailAction,
    },
    /// General shape: direct predicate dispatch in pipeline order,
    /// memoized where sound.
    Seq(Vec<KernelCheck>),
}

impl fmt::Debug for CheckKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckKernel::NoChecks => write!(f, "NoChecks"),
            CheckKernel::CStrOnly { arg, .. } => write!(f, "CStrOnly(arg{})", arg + 1),
            CheckKernel::BufLenPair { dst, src, .. } => {
                write!(f, "BufLenPair(dst=arg{}, src=arg{})", dst + 1, src + 1)
            }
            CheckKernel::Seq(seq) => f.debug_tuple("Seq").field(seq).finish(),
        }
    }
}

impl CheckKernel {
    /// Whether each fused check, in evaluation (= op) order, memoizes
    /// its passing verdict — the one fact about a check that only the
    /// plan compiler knows.
    fn memoized(&self) -> Vec<bool> {
        match self {
            CheckKernel::NoChecks => Vec::new(),
            CheckKernel::CStrOnly { .. } => vec![true],
            CheckKernel::BufLenPair { .. } => vec![false, false],
            CheckKernel::Seq(seq) => seq.iter().map(|kc| kc.memo_key.is_some()).collect(),
        }
    }
}

/// Whether a passing check of `pred` on a non-null pointer may be
/// memoized: the answer must be a pure function of the pointer value,
/// the process image (covered by `AddressSpace::epoch`) and the oracle's
/// auxiliary state (covered by `ExtentOracle::validation_epoch`).
/// Excluded: relational predicates (they read *other* arguments the memo
/// key does not cover), `ValidFuncPtr` (the host function table has no
/// epoch) and the value-only predicates (cheaper than the probe).
fn memoizable(pred: &SafePred) -> bool {
    match pred {
        SafePred::CStr
        | SafePred::Readable(_)
        | SafePred::Writable(_)
        | SafePred::ValidFilePtr
        | SafePred::HeapChunkOrNull
        | SafePred::PtrToCStrOrNull => true,
        SafePred::NullOr(inner) => memoizable(inner),
        _ => false,
    }
}

/// Whether the plan compiler can fuse `op` into the kernel of a
/// signature with `nargs` parameters: only predicate checks fuse, and a
/// check on an argument the signature does not have can only be answered
/// by the hook's dynamic path.
fn fusable(op: &HookOp, nargs: usize) -> bool {
    matches!(op, HookOp::Check { arg, pred: Some(_), .. } if *arg < nargs)
}

/// Builds the memoization key for argument `arg_slot` of the wrapper
/// numbered `wrapper_id`. Keys must be *globally disjoint* across
/// wrappers: the memo table in [`Proc`] is shared by every wrapper that
/// calls into a process, so two distinct `(wrapper, argument)` pairs
/// mapping to one key would let one wrapper's positive verdict answer for
/// another wrapper's argument — under a different predicate. The id and
/// the slot therefore occupy disjoint 32-bit halves of the `u64`. (An
/// earlier `id << 3 | arg` packing collided as soon as a slot index
/// reached 8: wrapper 1 / slot 8 and wrapper 2 / slot 0 both encoded 16.)
pub(crate) fn validation_memo_key(wrapper_id: u32, arg_slot: usize) -> u64 {
    // Strictly below `u32::MAX`, not `<=`: keeps every legal key distinct
    // from the memo table's `u64::MAX` empty-slot sentinel even for
    // `wrapper_id == u32::MAX`.
    debug_assert!(
        arg_slot < u32::MAX as usize,
        "arg slot {arg_slot} out of memo-key range"
    );
    (u64::from(wrapper_id) << 32) | arg_slot as u64
}

/// Fuses the pipeline's check sequence into the tightest [`CheckKernel`]
/// shape it fits. Every check's `arg` is `< nargs` (the plan compiler
/// refuses plans that guard missing arguments) and no `memo_key` is set
/// yet. `wrapper_id` seeds the memo keys — see [`validation_memo_key`]
/// for the disjoint encoding.
fn fuse_kernel(checks: Vec<KernelCheck>, wrapper_id: u32) -> CheckKernel {
    if checks.is_empty() {
        return CheckKernel::NoChecks;
    }
    let memo_key = |arg: usize| validation_memo_key(wrapper_id, arg);
    // strlen shape: a single CStr check.
    if let [c] = checks.as_slice() {
        if c.pred == SafePred::CStr {
            return CheckKernel::CStrOnly {
                arg: c.arg,
                memo_key: memo_key(c.arg),
                on_fail: c.on_fail,
            };
        }
    }
    // strcpy shape: HoldsCStrOf{src} on dst, then CStr on src itself,
    // with one failure policy — fusable into a single source scan.
    if let [dst, src_check] = checks.as_slice() {
        if let (SafePred::HoldsCStrOf { src }, SafePred::CStr) =
            (&dst.pred, &src_check.pred)
        {
            if dst.on_fail == src_check.on_fail && src_check.arg == *src {
                return CheckKernel::BufLenPair {
                    dst: dst.arg,
                    src: *src,
                    oracle: Arc::clone(&dst.oracle),
                    on_fail: dst.on_fail,
                };
            }
        }
    }
    // Memoization must also stay consistent with the sequence's own
    // relational facts: a cached per-pointer verdict about an argument
    // that a relational check (in the same sequence) relates to other
    // arguments would let the memo answer for state the relational
    // check re-derives each call — the disagreement the lint's
    // memoized-relational rule flags. Suppress memo keys for every
    // argument a relational predicate is the subject of or references.
    let mut relational_args = std::collections::BTreeSet::new();
    for c in &checks {
        if c.pred.is_relational() {
            relational_args.insert(c.arg);
            relational_args.extend(c.pred.referenced_args());
        }
    }
    CheckKernel::Seq(
        checks
            .into_iter()
            .map(|c| KernelCheck {
                memo_key: (memoizable(&c.pred) && !relational_args.contains(&c.arg))
                    .then(|| memo_key(c.arg)),
                ..c
            })
            .collect(),
    )
}

/// One operation in a hook's per-call behaviour, declared by
/// [`Hook::ops`]. The op list is the single description of a hook that
/// the plan compiler fuses its check kernel from, the wrapper-soundness
/// lint and the substitution prover reason about, and the hook's C
/// fragment renders its check lines from. It deliberately says less than
/// the code: an op only appears here when the hook can vouch for it.
#[derive(Debug, Clone, PartialEq)]
pub enum HookOp {
    /// The hook evaluates an accept/deny predicate over `arg` (and, for
    /// relational predicates, the arguments the predicate references).
    Check {
        /// Argument index the predicate guards.
        arg: usize,
        /// The symbolic predicate, when the hook evaluates exactly a
        /// [`SafePred`]; `None` for bespoke checks (canary verification).
        pred: Option<SafePred>,
        /// Human-readable label for lint findings and generated C.
        label: String,
        /// Whether any memory scan the check performs is dominated by a
        /// null test — `true` for every built-in [`SafePred`], whose
        /// evaluators bail out on NULL before dereferencing.
        null_guarded: bool,
        /// Whether a passing verdict is cached per pointer and replayed
        /// across calls while the validation epochs hold still. Hooks
        /// declare `false`; [`WrappedFn::call_model`] sets it from the
        /// fused kernel's memo keys.
        memoized: bool,
    },
    /// The hook rewrites argument `arg` before the original runs (the
    /// canary hook growing an allocation size).
    Mutate {
        /// Argument index rewritten.
        arg: usize,
        /// Human-readable label for lint findings.
        label: String,
    },
    /// The hook observes the call (profiling counters, call logs,
    /// terminal heap sweeps) without rewriting any argument.
    Observe,
    /// The hook declined to describe itself; the lint must treat it as
    /// potentially anything. This is the [`Hook::ops`] default.
    Opaque,
}

/// A [`HookOp`] attributed to the hook that declared it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOp {
    /// [`Hook::name`] of the declaring hook.
    pub hook: &'static str,
    /// [`Hook::provenance`] of the declaring hook (`"campaign"`,
    /// `"contract"`, `"builtin"`).
    pub provenance: String,
    /// The declared operation.
    pub op: HookOp,
}

/// The symbolic per-call model of a [`WrappedFn`]: ABI truncations the
/// runtime applies before any hook runs, then every hook's declared ops
/// in pipeline order. Input to the analyzer's wrapper-soundness lint.
#[derive(Debug, Clone)]
pub struct CallModel {
    /// The wrapped function's name.
    pub func: String,
    /// `(index, bit width)` ABI truncation ops applied to narrow integer
    /// arguments before the first hook sees them.
    pub truncations: Vec<(usize, u64)>,
    /// Declared hook operations, in execution (pipeline) order.
    pub ops: Vec<ModelOp>,
}

/// A runtime micro-generator.
pub trait Hook: Send + Sync {
    /// Name, as it appears in call models and lint findings.
    fn name(&self) -> &'static str;

    /// What the hook does per call, in execution order: the one
    /// declaration the check kernel, the call model and the generated C
    /// derive from. Default: a single [`HookOp::Opaque`], which is always
    /// sound (the lint assumes the worst, the pipeline stays dynamic). An
    /// empty list promises the hook does nothing per call.
    fn ops(&self, proto: &Prototype) -> Vec<HookOp> {
        let _ = proto;
        vec![HookOp::Opaque]
    }

    /// Asked only of hooks whose [`Hook::ops`] are all `Check` ops with a
    /// predicate: whether the accept path is exactly those checks
    /// passing — `before` returns [`HookAction::Continue`] without side
    /// effects, `after` is a no-op, nothing is pushed onto the scratch
    /// stack — and if so, what a failing check does and which oracle the
    /// checks consult. `on_fault` may still do real work: the fast path
    /// polls it when the original faults. Default: `None` (dynamic).
    fn fusion(&self) -> Option<(FailAction, ArcOracle)> {
        None
    }

    /// Where this hook's checks came from: `"campaign"` for checks
    /// derived by fault injection, `"contract"` for checks seeded by
    /// static contract inference, `"builtin"` otherwise.
    fn provenance(&self) -> &str {
        "builtin"
    }

    /// The hook's Figure-3 fragments for the generated C wrapper, in
    /// pipeline position. Default: none.
    fn fragments(&self, cx: &CodegenCx<'_>) -> Vec<Fragment> {
        let _ = cx;
        Vec::new()
    }

    /// Prefix behaviour. Default: continue.
    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        let _ = cx;
        HookAction::Continue
    }

    /// Postfix behaviour; sees (and may rewrite) the result.
    fn after(&self, cx: &mut CallCx<'_>, result: &mut Result<CVal, Fault>) {
        let _ = (cx, result);
    }

    /// Consulted when the original function faults (except [`Fault::Exit`],
    /// which is the process-termination contract and always propagates).
    /// `attempt` counts prior retries of this call. Default: propagate.
    fn on_fault(&self, cx: &mut CallCx<'_>, fault: &Fault, attempt: u32) -> FaultDecision {
        let _ = (cx, fault, attempt);
        FaultDecision::Propagate
    }
}

/// A function wrapped with an ordered hook pipeline. Cheap to clone.
#[derive(Clone)]
pub struct WrappedFn {
    inner: Arc<WrappedInner>,
}

/// Maximum arity served by the compiled fast path (arguments live in a
/// stack array of this size; longer signatures run dynamically).
const MAX_FAST_ARGS: usize = 8;

/// Retained capacity of the per-thread [`CallCx`] buffer pool.
const CX_POOL_MAX: usize = 8;

thread_local! {
    /// Recycled `(args, scratch)` vector pairs for the dynamic path, so
    /// steady-state `call_dynamic` traffic stops allocating per call
    /// (the same recycling discipline as the address space's region
    /// buffers). Popped on entry so re-entrant wrapped calls from inside
    /// hooks get fresh buffers, returned cleared on exit.
    static CX_POOL: RefCell<Vec<(Vec<CVal>, Vec<u64>)>> = const { RefCell::new(Vec::new()) };

    /// Recycled render buffer for the compiled flight-recorder epilogue.
    static ARGS_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Takes a recycled `(args, scratch)` pair, or fresh empty vectors.
fn take_cx_bufs() -> (Vec<CVal>, Vec<u64>) {
    CX_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

/// Returns a `(args, scratch)` pair to the pool, cleared.
fn put_cx_bufs(mut args: Vec<CVal>, mut scratch: Vec<u64>) {
    args.clear();
    scratch.clear();
    CX_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < CX_POOL_MAX {
            pool.push((args, scratch));
        }
    });
}

/// The flat, precomputed per-call program: truncation ops, check ops and
/// the containment value, fused from the hooks' ops at wrap time so
/// the accept path is a branch-predictable array walk with no per-call
/// heap allocation.
struct CallPlan {
    /// Exact arity the plan was compiled for; other arities (varargs,
    /// miscalls) take the dynamic path.
    nargs: usize,
    /// `(index, bit width)` truncation ops for narrow integer params.
    int_ops: Vec<(usize, u64)>,
    /// All hooks' checks, fused into one specialized kernel.
    kernel: CheckKernel,
    /// Precomputed `containment_value(&proto.ret)`.
    containment: CVal,
}

/// Telemetry recording compiled into the wrapper's epilogue, so the
/// latency-histogram and flight-recorder configurations no longer force
/// every call through the dynamic hook pipeline. Recording happens
/// exactly once per call, at the point the dynamic pipeline's
/// (first-positioned, hence last-run) recorder hooks fired, with the
/// same cycle arithmetic and argument rendering — byte-identical XML.
struct Telemetry {
    /// Per-function "call" latency histogram sink.
    latency: Option<Arc<Stats>>,
    /// Journal whose call ring records every call.
    flight: Option<Arc<WrapperJournal>>,
}

struct WrappedInner {
    name: String,
    proto: Prototype,
    original: HostFn,
    hooks: Vec<Arc<dyn Hook>>,
    /// ABI widths of integer parameters, for faithful truncation.
    int_widths: Vec<Option<u64>>,
    /// Compiled fast path; `None` when any hook requires dynamic dispatch.
    plan: Option<CallPlan>,
    /// Compiled telemetry epilogue; `None` when nothing records.
    telemetry: Option<Telemetry>,
}

/// Process-wide wrapper identity counter, seeding validation-memo keys.
static NEXT_WRAPPER_ID: AtomicU32 = AtomicU32::new(0);

impl fmt::Debug for WrappedFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WrappedFn({}, hooks=[{}])",
            self.inner.name,
            self.inner.hooks.iter().map(|h| h.name()).collect::<Vec<_>>().join(", ")
        )
    }
}

impl WrappedFn {
    /// Wraps `original` with `hooks` (micro-generator order). The hooks'
    /// `Check` ops are fused into a compiled `CallPlan` here, once, when
    /// every hook's accept path is exactly its checks.
    pub fn new(proto: Prototype, original: HostFn, hooks: Vec<Arc<dyn Hook>>) -> Self {
        Self::new_with_telemetry(proto, original, hooks, None, None)
    }

    /// Like [`WrappedFn::new`], with telemetry sinks compiled into the
    /// call epilogue: the per-function `"call"` latency histogram and the
    /// journal's call ring record on *every* path (fast or dynamic), exactly
    /// once per call, without forcing dynamic dispatch.
    pub fn new_with_telemetry(
        proto: Prototype,
        original: HostFn,
        hooks: Vec<Arc<dyn Hook>>,
        latency: Option<Arc<Stats>>,
        flight: Option<Arc<WrapperJournal>>,
    ) -> Self {
        let int_widths: Vec<Option<u64>> = proto
            .params
            .iter()
            .map(|p| match classify(&p.ty) {
                ArgClass::Int(b) if b < 8 => Some(b),
                _ => None,
            })
            .collect();
        let id = NEXT_WRAPPER_ID.fetch_add(1, Ordering::Relaxed);
        let plan = Self::compile(&proto, &hooks, &int_widths, id);
        let telemetry = if latency.is_some() || flight.is_some() {
            Some(Telemetry { latency, flight })
        } else {
            None
        };
        WrappedFn {
            inner: Arc::new(WrappedInner {
                name: proto.name.clone(),
                proto,
                original,
                hooks,
                int_widths,
                plan,
                telemetry,
            }),
        }
    }

    /// Fuses the pipeline's `Check` ops into a [`CallPlan`], or `None` if
    /// any hook must stay dynamic (or the arity exceeds the fast-path
    /// array).
    fn compile(
        proto: &Prototype,
        hooks: &[Arc<dyn Hook>],
        int_widths: &[Option<u64>],
        wrapper_id: u32,
    ) -> Option<CallPlan> {
        let nargs = proto.params.len();
        if nargs > MAX_FAST_ARGS {
            return None;
        }
        let mut checks = Vec::new();
        for hook in hooks {
            let ops = hook.ops(proto);
            if !ops.iter().all(|op| fusable(op, nargs)) {
                return None;
            }
            let (on_fail, oracle) = hook.fusion()?;
            for op in ops {
                if let HookOp::Check { arg, pred: Some(pred), .. } = op {
                    let oracle = Arc::clone(&oracle);
                    checks.push(KernelCheck { arg, pred, oracle, on_fail, memo_key: None });
                }
            }
        }
        let int_ops =
            int_widths.iter().enumerate().filter_map(|(i, w)| w.map(|b| (i, b))).collect();
        Some(CallPlan {
            nargs,
            int_ops,
            kernel: fuse_kernel(checks, wrapper_id),
            containment: containment_value(&proto.ret),
        })
    }

    /// Whether calls go through the compiled fast path (diagnostics).
    pub fn has_plan(&self) -> bool {
        self.inner.plan.is_some()
    }

    /// The wrapped function's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The wrapped function's prototype.
    pub fn proto(&self) -> &Prototype {
        &self.inner.proto
    }

    /// Hook names, in order (diagnostics).
    pub fn hook_names(&self) -> Vec<&'static str> {
        self.inner.hooks.iter().map(|h| h.name()).collect()
    }

    /// Builds the symbolic [`CallModel`] the wrapper-soundness lint and
    /// the substitution prover walk: every hook's [`Hook::ops`] in
    /// pipeline order. When the pipeline fused into a check kernel, each
    /// `Check` op also carries the memoization the fast path applies to
    /// it, which no hook can know.
    pub fn call_model(&self) -> CallModel {
        let proto = &self.inner.proto;
        let truncations = self
            .inner
            .int_widths
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.map(|b| (i, b)))
            .collect();
        let mut memo = self.inner.plan.as_ref().map(|p| p.kernel.memoized().into_iter());
        let ops = self
            .inner
            .hooks
            .iter()
            .flat_map(|hook| {
                hook.ops(proto).into_iter().map(|op| ModelOp {
                    hook: hook.name(),
                    provenance: hook.provenance().to_string(),
                    op,
                })
            })
            .map(|mut m| {
                if let (HookOp::Check { memoized, .. }, Some(memo)) = (&mut m.op, &mut memo)
                {
                    *memoized = memo.next().unwrap_or(false);
                }
                m
            })
            .collect();
        CallModel { func: self.inner.name.clone(), truncations, ops }
    }

    /// Invokes the wrapper: prefix hooks in order, the original (unless
    /// contained), postfix hooks in reverse order.
    ///
    /// When a compiled call plan exists and the arity matches, the
    /// accept path runs it instead: truncation masks and check ops from
    /// flat arrays, arguments in a stack buffer, zero heap allocation.
    /// Check failures and faults fall back to the dynamic pipeline (or a
    /// precomputed rejection where the plan proved it equivalent).
    ///
    /// # Errors
    ///
    /// Faults from the original, or a [`Fault::SecurityViolation`] from a
    /// denying hook.
    pub fn call(&self, proc: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
        match &self.inner.plan {
            Some(plan) if args.len() == plan.nargs => self.call_fast(plan, proc, args),
            _ => self.call_dynamic(proc, args),
        }
    }

    /// The compiled fast path. Alloc-free until something goes wrong.
    fn call_fast(
        &self,
        plan: &CallPlan,
        proc: &mut Proc,
        args: &[CVal],
    ) -> Result<CVal, Fault> {
        let errno_before = proc.errno();
        let entry_cycles = proc.cycles();
        // Stack-buffer copy only when a truncation op actually rewrites
        // an argument; untruncated signatures use the caller's slice.
        let mut buf = [CVal::Void; MAX_FAST_ARGS];
        let norm: &[CVal] = if plan.int_ops.is_empty() {
            args
        } else {
            let n = args.len();
            buf[..n].copy_from_slice(args);
            for &(i, bits) in &plan.int_ops {
                buf[i] = CVal::Int(trunc_int(buf[i].as_int(), bits));
            }
            &buf[..n]
        };
        if let Some(on_fail) = self.run_kernel(plan, proc, norm) {
            return match on_fail {
                // The dynamic pipeline re-discovers the violation and
                // applies policy/journaling; fused hooks had no side
                // effects to replay, so re-entering from the top is
                // exact. It also records telemetry — do not record here.
                FailAction::Fallback => self.call_dynamic(proc, args),
                FailAction::Reject => {
                    proc.set_errno(errno::EINVAL);
                    let result = Ok(plan.containment);
                    self.record_telemetry(proc, norm, entry_cycles, &result);
                    result
                }
            };
        }
        match (self.inner.original)(proc, norm) {
            Ok(v) => {
                let result = Ok(v);
                self.record_telemetry(proc, norm, entry_cycles, &result);
                result
            }
            // Exit is the termination contract, not a fault to heal.
            Err(f @ Fault::Exit(_)) => {
                let result = Err(f);
                self.record_telemetry(proc, norm, entry_cycles, &result);
                result
            }
            Err(f) => self.heal_after_fast_fault(proc, norm, errno_before, entry_cycles, f),
        }
    }

    /// Runs the plan's fused check kernel over the normalized arguments.
    /// `None` means every check passed; `Some(action)` is the first
    /// failing check's response — the same answer, in the same order,
    /// as the interpreted walk the kernel was fused from.
    fn run_kernel(
        &self,
        plan: &CallPlan,
        proc: &mut Proc,
        norm: &[CVal],
    ) -> Option<FailAction> {
        match &plan.kernel {
            CheckKernel::NoChecks => None,
            CheckKernel::CStrOnly { arg, memo_key, on_fail, .. } => {
                let v = norm[*arg];
                let ptr = v.as_ptr();
                // CStr consults only process memory: auxiliary epoch 0.
                if !v.is_null() && proc.validation_hit(*memo_key, ptr, 0) {
                    return None;
                }
                if peek_cstr_len(proc, ptr).is_some() {
                    proc.validation_store(*memo_key, ptr, 0);
                    None
                } else {
                    Some(*on_fail)
                }
            }
            CheckKernel::BufLenPair { dst, src, oracle, on_fail, .. } => {
                // One source scan serves both fused checks: the
                // interpreter scanned `src` for `HoldsCStrOf` on `dst`,
                // then scanned it again for `CStr` on `src` itself. The
                // destination bound is the exact `extent_right` edge of
                // the containing object, so an accepted copy can never
                // reach the canary — the overflow is prevented, not
                // detected after the fact.
                match peek_cstr_len(proc, norm[*src].as_ptr()) {
                    Some(len)
                        if oracle.extent_right(proc, norm[*dst].as_ptr()).unwrap_or(0)
                            > len =>
                    {
                        None
                    }
                    _ => Some(*on_fail),
                }
            }
            CheckKernel::Seq(seq) => {
                for kc in seq {
                    let v = norm[kc.arg];
                    if let Some(key) = kc.memo_key {
                        if !v.is_null()
                            && proc.validation_hit(
                                key,
                                v.as_ptr(),
                                kc.oracle.validation_epoch(),
                            )
                        {
                            continue;
                        }
                    }
                    // Branch-free lowering for the scalar predicates; the
                    // rest dispatch on the predicate directly.
                    let ok = match &kc.pred {
                        SafePred::NonNull => !v.is_null(),
                        SafePred::IntNonZero => v.as_int() != 0,
                        SafePred::IntInRange { min, max } => {
                            let x = v.as_int();
                            (x >= *min) & (x <= *max)
                        }
                        SafePred::SizeBelow(n) => v.as_usize() < *n,
                        SafePred::CStr => peek_cstr_len(proc, v.as_ptr()).is_some(),
                        pred => pred.check(proc, kc.oracle.as_ref(), norm, kc.arg),
                    };
                    if !ok {
                        return Some(kc.on_fail);
                    }
                    if let Some(key) = kc.memo_key {
                        if !v.is_null() {
                            proc.validation_store(
                                key,
                                v.as_ptr(),
                                kc.oracle.validation_epoch(),
                            );
                        }
                    }
                }
                None
            }
        }
    }

    /// Records the compiled telemetry epilogue, if any: the `"call"`
    /// latency histogram sample and the flight-recorder entry, with the
    /// exact cycle arithmetic and argument rendering of the dynamic
    /// recorder hooks (their XML must stay byte-identical).
    fn record_telemetry(
        &self,
        proc: &Proc,
        args: &[CVal],
        entry_cycles: u64,
        result: &Result<CVal, Fault>,
    ) {
        let Some(t) = &self.inner.telemetry else { return };
        let cycles = proc.cycles().saturating_sub(entry_cycles);
        if let Some(stats) = &t.latency {
            stats.record_latency(&self.inner.name, "call", cycles);
        }
        if let Some(journal) = &t.flight {
            // Render into a recycled thread-local buffer: the epilogue
            // itself stays allocation-free (the journal's call ring
            // copies out of it under its lock).
            ARGS_BUF.with(|b| {
                let mut s = b.borrow_mut();
                s.clear();
                s.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "{a}");
                }
                s.push(')');
                match result {
                    Ok(_) => journal.record_call(&self.inner.name, &s, "ok", cycles),
                    Err(f) => {
                        journal.record_call(&self.inner.name, &s, &f.to_string(), cycles)
                    }
                }
            });
        }
    }

    /// Cold path: the original faulted after the compiled checks passed.
    /// Reconstructs the dynamic pipeline's fault handling — every hook
    /// logically "ran" (their fused checks passed, side-effect-free) —
    /// so healing/retry/substitution decisions are identical.
    fn heal_after_fast_fault(
        &self,
        proc: &mut Proc,
        norm: &[CVal],
        errno_before: i32,
        entry_cycles: u64,
        first_fault: Fault,
    ) -> Result<CVal, Fault> {
        let (mut cx_args, cx_scratch) = take_cx_bufs();
        cx_args.extend_from_slice(norm);
        let mut cx = CallCx {
            func: &self.inner.name,
            proc,
            args: cx_args,
            errno_before,
            entry_cycles,
            scratch: cx_scratch,
        };
        let result = self.resolve_fault(&mut cx, &self.inner.hooks, first_fault);
        self.record_telemetry(cx.proc, &cx.args, entry_cycles, &result);
        let CallCx { args, scratch, .. } = cx;
        put_cx_bufs(args, scratch);
        result
    }

    /// Resolves a fault of the original: polls `hooks` in order for the
    /// first decision that is not `Propagate`, re-runs the original on
    /// `Retry` (each hook bounds its own retries by `attempt`), and
    /// stops on `Propagate`, `Substitute` or an `Exit`. Entered only
    /// after the original has faulted, so no accept path reaches it.
    fn resolve_fault(
        &self,
        cx: &mut CallCx<'_>,
        hooks: &[Arc<dyn Hook>],
        mut fault: Fault,
    ) -> Result<CVal, Fault> {
        let mut attempt: u32 = 0;
        loop {
            let decision = hooks
                .iter()
                .map(|hook| hook.on_fault(cx, &fault, attempt))
                .find(|d| !matches!(d, FaultDecision::Propagate))
                .unwrap_or(FaultDecision::Propagate);
            match decision {
                FaultDecision::Propagate => return Err(fault),
                FaultDecision::Substitute(v) => return Ok(v),
                FaultDecision::Retry => {
                    attempt += 1;
                    match (self.inner.original)(cx.proc, &cx.args) {
                        Ok(v) => return Ok(v),
                        // Exit is the termination contract, not a fault
                        // to heal — the exit-report hook depends on
                        // seeing it.
                        Err(f @ Fault::Exit(_)) => return Err(f),
                        Err(f) => fault = f,
                    }
                }
            }
        }
    }

    /// The fully dynamic pipeline (any hook with per-call side effects).
    fn call_dynamic(&self, proc: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
        // ABI-faithful width truncation of integer arguments, into a
        // recycled buffer.
        let (mut norm, cx_scratch) = take_cx_bufs();
        norm.extend_from_slice(args);
        for (i, width) in self.inner.int_widths.iter().enumerate() {
            if let (Some(b), Some(v)) = (width, norm.get(i).copied()) {
                norm[i] = CVal::Int(trunc_int(v.as_int(), *b));
            }
        }
        let errno_before = proc.errno();
        let entry_cycles = proc.cycles();
        let mut cx = CallCx {
            func: &self.inner.name,
            proc,
            args: norm,
            errno_before,
            entry_cycles,
            scratch: cx_scratch,
        };
        let mut ran = self.inner.hooks.len();
        let mut early: Option<Result<CVal, Fault>> = None;
        for (i, hook) in self.inner.hooks.iter().enumerate() {
            match hook.before(&mut cx) {
                HookAction::Continue => {}
                HookAction::ShortCircuit(v) => {
                    ran = i + 1;
                    early = Some(Ok(v));
                    break;
                }
                HookAction::Deny(f) => {
                    ran = i + 1;
                    early = Some(Err(f));
                    break;
                }
            }
        }
        let mut result = match early {
            Some(r) => r,
            // Call the original; on a fault, poll the hooks that ran for
            // a healing decision.
            None => match (self.inner.original)(cx.proc, &cx.args) {
                Ok(v) => Ok(v),
                // Exit is the termination contract, not a fault to heal.
                Err(f @ Fault::Exit(_)) => Err(f),
                Err(f) => self.resolve_fault(&mut cx, &self.inner.hooks[..ran], f),
            },
        };
        for hook in self.inner.hooks[..ran].iter().rev() {
            hook.after(&mut cx, &mut result);
        }
        // Compiled telemetry records after every after-hook ran — the
        // position the (first-inserted, hence last-run) dynamic recorder
        // hooks occupied.
        self.record_telemetry(cx.proc, &cx.args, entry_cycles, &result);
        let CallCx { args: pooled_args, scratch: pooled_scratch, .. } = cx;
        put_cx_bufs(pooled_args, pooled_scratch);
        result
    }
}

/// The value a containing wrapper returns for a rejected call, by return
/// type (`NULL`, `-1`, `0.0`, or nothing).
pub fn containment_value(ret: &CType) -> CVal {
    match ret {
        CType::Void => CVal::Void,
        CType::Ptr { .. } | CType::FuncPtr { .. } | CType::Array { .. } => CVal::NULL,
        CType::Float | CType::Double => CVal::F64(0.0),
        _ => CVal::Int(-1),
    }
}

/// A shared, in-memory call log (the `log call` micro-generator's sink).
pub type CallLog = Arc<Mutex<Vec<String>>>;

/// Sets `errno = EINVAL` and short-circuits with the containment value —
/// the robustness wrapper's standard rejection.
pub fn reject(proc: &mut Proc, ret: &CType) -> HookAction {
    proc.set_errno(errno::EINVAL);
    HookAction::ShortCircuit(containment_value(ret))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdecl::{parse_prototype, TypedefTable};
    use simlibc::testutil::libc_proc;

    fn strlen_proto() -> Prototype {
        parse_prototype("size_t strlen(const char *s);", &TypedefTable::with_builtins())
            .unwrap()
    }

    struct Tracer {
        log: CallLog,
        tag: &'static str,
        action: HookAction,
    }

    impl Hook for Tracer {
        fn name(&self) -> &'static str {
            "tracer"
        }
        fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
            self.log.lock().push(format!("{}:before:{}", self.tag, cx.func));
            self.action.clone()
        }
        fn after(&self, cx: &mut CallCx<'_>, _result: &mut Result<CVal, Fault>) {
            self.log.lock().push(format!("{}:after:{}", self.tag, cx.func));
        }
    }

    fn tracer(log: &CallLog, tag: &'static str, action: HookAction) -> Arc<dyn Hook> {
        Arc::new(Tracer { log: Arc::clone(log), tag, action })
    }

    #[test]
    fn hooks_run_prefix_order_postfix_reversed() {
        let log: CallLog = Arc::new(Mutex::new(Vec::new()));
        let f = WrappedFn::new(
            strlen_proto(),
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![
                tracer(&log, "a", HookAction::Continue),
                tracer(&log, "b", HookAction::Continue),
            ],
        );
        let mut p = libc_proc();
        let s = p.alloc_cstr("xyz");
        let r = f.call(&mut p, &[CVal::Ptr(s)]).unwrap();
        assert_eq!(r, CVal::Int(3));
        assert_eq!(
            *log.lock(),
            vec!["a:before:strlen", "b:before:strlen", "b:after:strlen", "a:after:strlen"]
        );
    }

    #[test]
    fn short_circuit_skips_original_and_later_hooks() {
        let log: CallLog = Arc::new(Mutex::new(Vec::new()));
        let f = WrappedFn::new(
            strlen_proto(),
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![
                tracer(&log, "a", HookAction::Continue),
                tracer(&log, "b", HookAction::ShortCircuit(CVal::Int(-1))),
                tracer(&log, "c", HookAction::Continue),
            ],
        );
        let mut p = libc_proc();
        // NULL would crash the original — the short circuit saves it.
        let r = f.call(&mut p, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(-1));
        let entries = log.lock().clone();
        assert!(!entries.iter().any(|e| e.starts_with("c:")), "{entries:?}");
        // After hooks of the hooks that ran still fire (a and b).
        assert_eq!(entries.last().unwrap(), "a:after:strlen");
    }

    #[test]
    fn deny_returns_the_fault() {
        let log: CallLog = Arc::new(Mutex::new(Vec::new()));
        let f = WrappedFn::new(
            strlen_proto(),
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![tracer(&log, "sec", HookAction::Deny(Fault::security("test")))],
        );
        let mut p = libc_proc();
        let err = f.call(&mut p, &[CVal::NULL]).unwrap_err();
        assert!(matches!(err, Fault::SecurityViolation { .. }));
    }

    #[test]
    fn integer_args_are_truncated_to_abi_width() {
        struct Probe;
        impl Hook for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
                // int c: (1<<40) + 65 truncates to 65.
                assert_eq!(cx.args[0], CVal::Int(65));
                HookAction::Continue
            }
        }
        let proto =
            parse_prototype("int isalpha(int c);", &TypedefTable::with_builtins()).unwrap();
        let f = WrappedFn::new(
            proto,
            simlibc::find_symbol("isalpha").unwrap().imp,
            vec![Arc::new(Probe)],
        );
        let mut p = libc_proc();
        let r = f.call(&mut p, &[CVal::Int((1i64 << 40) + 65)]).unwrap();
        assert_eq!(r, CVal::Int(1), "'A' is alphabetic");
    }

    #[test]
    fn fault_hooks_can_substitute_and_retry() {
        struct Healer {
            fix: simproc::VirtAddr,
        }
        impl Hook for Healer {
            fn name(&self) -> &'static str {
                "healer"
            }
            fn on_fault(
                &self,
                cx: &mut CallCx<'_>,
                _fault: &Fault,
                attempt: u32,
            ) -> FaultDecision {
                if attempt == 0 {
                    cx.args[0] = CVal::Ptr(self.fix);
                    FaultDecision::Retry
                } else {
                    FaultDecision::Substitute(CVal::Int(-7))
                }
            }
        }
        let mut p = libc_proc();
        let good = p.alloc_cstr("heal");
        let f = WrappedFn::new(
            strlen_proto(),
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![Arc::new(Healer { fix: good })],
        );
        // NULL faults once, the hook swaps in a valid string, the retry
        // succeeds with the repaired argument.
        let r = f.call(&mut p, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(4));
    }

    #[test]
    fn exit_fault_is_never_healed() {
        struct Swallow;
        impl Hook for Swallow {
            fn name(&self) -> &'static str {
                "swallow"
            }
            fn on_fault(&self, _cx: &mut CallCx<'_>, _f: &Fault, _a: u32) -> FaultDecision {
                FaultDecision::Substitute(CVal::Void)
            }
        }
        let proto =
            parse_prototype("void exit(int status);", &TypedefTable::with_builtins())
                .unwrap();
        let f = WrappedFn::new(
            proto,
            simlibc::find_symbol("exit").unwrap().imp,
            vec![Arc::new(Swallow)],
        );
        let mut p = libc_proc();
        let err = f.call(&mut p, &[CVal::Int(3)]).unwrap_err();
        assert_eq!(err, Fault::Exit(3), "exit is a contract, not a fault");
    }

    #[test]
    fn containment_values_by_return_type() {
        let t = TypedefTable::with_builtins();
        let cases = [
            ("char *f(void);", CVal::NULL),
            ("int f(void);", CVal::Int(-1)),
            ("void f(void);", CVal::Void),
            ("double f(void);", CVal::F64(0.0)),
            ("size_t f(void);", CVal::Int(-1)),
        ];
        for (proto, expect) in cases {
            let p = parse_prototype(proto, &t).unwrap();
            assert_eq!(containment_value(&p.ret), expect, "{proto}");
        }
    }

    /// Declares pure `Check` ops and answers the fusion question — the
    /// shape the plan compiler fuses into a [`CheckKernel`].
    struct PureChecks {
        preds: Vec<(usize, SafePred)>,
    }

    impl Hook for PureChecks {
        fn name(&self) -> &'static str {
            "pure checks"
        }
        fn provenance(&self) -> &str {
            "campaign"
        }
        fn ops(&self, _proto: &Prototype) -> Vec<HookOp> {
            self.preds
                .iter()
                .map(|(arg, pred)| HookOp::Check {
                    arg: *arg,
                    pred: Some(pred.clone()),
                    label: pred.to_string(),
                    null_guarded: true,
                    memoized: false,
                })
                .collect()
        }
        fn fusion(&self) -> Option<(FailAction, ArcOracle)> {
            Some((FailAction::Fallback, Arc::new(simproc::RegionOracle::new())))
        }
    }

    #[test]
    fn call_model_sees_through_the_fused_cstr_kernel() {
        // The fast path memoizes the CStrOnly verdict per pointer. The
        // hook declares `memoized: false` because it cannot know what the
        // plan compiler fused; the call model must carry the kernel's
        // memo key instead.
        let f = WrappedFn::new(
            strlen_proto(),
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![Arc::new(PureChecks { preds: vec![(0, SafePred::CStr)] })],
        );
        assert!(f.has_plan(), "single CStr check must compile to CStrOnly");
        let model = f.call_model();
        assert_eq!(model.ops.len(), 1, "{model:?}");
        assert_eq!(model.ops[0].hook, "pure checks");
        assert_eq!(model.ops[0].provenance, "campaign");
        match &model.ops[0].op {
            HookOp::Check { arg, pred, null_guarded, memoized, .. } => {
                assert_eq!(*arg, 0);
                assert_eq!(pred.as_ref(), Some(&SafePred::CStr));
                assert!(*null_guarded);
                assert!(
                    *memoized,
                    "the fused CStrOnly kernel memoizes its verdict; the model must say so"
                );
            }
            other => panic!("expected a Check op, got {other:?}"),
        }
    }

    #[test]
    fn call_model_sees_through_the_fused_buflen_pair() {
        let proto = parse_prototype(
            "char *strcpy(char *dst, const char *src);",
            &TypedefTable::with_builtins(),
        )
        .unwrap();
        let f = WrappedFn::new(
            proto,
            simlibc::find_symbol("strcpy").unwrap().imp,
            vec![Arc::new(PureChecks {
                preds: vec![(0, SafePred::HoldsCStrOf { src: 1 }), (1, SafePred::CStr)],
            })],
        );
        assert!(f.has_plan());
        let model = f.call_model();
        // Both fused checks stay visible and unmemoized (the pair shares
        // one source scan but caches nothing across calls).
        let got: Vec<_> = model
            .ops
            .iter()
            .map(|op| match &op.op {
                HookOp::Check { arg, pred, memoized, .. } => {
                    (*arg, pred.clone(), *memoized)
                }
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (0, Some(SafePred::HoldsCStrOf { src: 1 }), false),
                (1, Some(SafePred::CStr), false),
            ],
            "{model:?}"
        );
    }

    #[test]
    fn checks_on_missing_arguments_keep_the_pipeline_dynamic() {
        // `strlen` has one parameter; a check on a second one
        // cannot run in the fused kernel's argument buffer.
        let f = WrappedFn::new(
            strlen_proto(),
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![Arc::new(PureChecks { preds: vec![(1, SafePred::CStr)] })],
        );
        assert!(!f.has_plan());
        let mut p = libc_proc();
        let s = p.alloc_cstr("abc");
        assert_eq!(f.call(&mut p, &[CVal::Ptr(s)]), Ok(CVal::Int(3)));
    }

    #[test]
    fn relational_sequences_suppress_memo_keys() {
        // A memoizable Writable verdict on an argument that a relational
        // check in the same sequence references must not be memoized —
        // the model (and hence the memoized-relational lint rule) would
        // flag the disagreement otherwise.
        let proto = parse_prototype(
            "void *memset(void *s, int c, size_t n);",
            &TypedefTable::with_builtins(),
        )
        .unwrap();
        let f = WrappedFn::new(
            proto,
            simlibc::find_symbol("memset").unwrap().imp,
            vec![Arc::new(PureChecks {
                preds: vec![
                    (0, SafePred::Writable(1)),
                    (2, SafePred::SizeFitsWritable { ptr: 0, elem: 1 }),
                ],
            })],
        );
        assert!(f.has_plan());
        for op in &f.call_model().ops {
            if let HookOp::Check { memoized, .. } = &op.op {
                assert!(!memoized, "relational sequence must not memoize: {op:?}");
            }
        }
    }

    #[test]
    fn memo_keys_are_disjoint_across_wrappers_and_slots() {
        // The regression pair: under the pre-fix `(id << 3) | arg` packing
        // both of these encoded 16, so wrapper 1's cached verdict about
        // its argument slot 8 answered for wrapper 2's argument slot 0.
        assert_ne!(validation_memo_key(1, 8), validation_memo_key(2, 0));
        // Disjointness over a grid much wider than MAX_FAST_ARGS — the
        // encoding must stay collision-free even if the fast path ever
        // admits wider signatures.
        let mut seen = std::collections::HashSet::new();
        for id in 0..64u32 {
            for slot in 0..64usize {
                assert!(
                    seen.insert(validation_memo_key(id, slot)),
                    "memo key collision at wrapper {id}, slot {slot}"
                );
            }
        }
        // No legal key may alias the memo table's empty-slot sentinel.
        assert!(!seen.contains(&u64::MAX));
        assert_ne!(validation_memo_key(u32::MAX, 0), u64::MAX);
    }

    #[test]
    fn wrapped_fn_debug_lists_hooks() {
        let log: CallLog = Arc::new(Mutex::new(Vec::new()));
        let f = WrappedFn::new(
            strlen_proto(),
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![tracer(&log, "a", HookAction::Continue)],
        );
        assert!(format!("{f:?}").contains("tracer"));
        assert_eq!(f.name(), "strlen");
        assert_eq!(f.hook_names(), vec!["tracer"]);
    }
}
