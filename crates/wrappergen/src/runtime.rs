//! The micro-generator runtime: a [`Hook`] declares what it does per call
//! as one op list ([`Hook::ops`]), executes it in the simulation
//! (`before`/`after`/`on_fault`) and renders the same behaviour as its C
//! fragment. A wrapped function runs its hooks' `before` parts in
//! micro-generator order, calls the original (unless a hook contained the
//! call), then runs `after` parts in reverse order — the same prefix/
//! postfix discipline as Figure 3, walked as nested calls: each hook's
//! step calls the rest of the pipeline between its `before` and its
//! `after`, and keeps the word its `before` saved in its own frame. A
//! call's whole state lives on the stack: one truncated copy of its
//! arguments that every hook, kernel and the original read, and one
//! saved word per hook. A hook whose accept path is exactly its `Check`
//! ops is fused: its checks run in a check kernel shared with the fused
//! hooks next to it, and its `before` runs only when one of them fails.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;
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

impl HookAction {
    /// The call's result when the action contains the call; `None` to
    /// proceed.
    fn contained(self) -> Option<Result<CVal, Fault>> {
        match self {
            HookAction::Continue => None,
            HookAction::ShortCircuit(v) => Some(Ok(v)),
            HookAction::Deny(f) => Some(Err(f)),
        }
    }
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

/// Per-call context shared by the hooks. It lives in
/// [`WrappedFn::call`]'s stack frame and owns nothing on the heap.
#[derive(Debug)]
pub struct CallCx<'a> {
    /// The wrapped function's name.
    pub func: &'a str,
    /// The simulated process.
    pub proc: &'a mut Proc,
    /// Arguments, each narrow integer truncated to its ABI width: the one
    /// copy that kernels, hooks, the original and the telemetry epilogue
    /// read. Hooks may rewrite them in place (the canary hook grows
    /// allocation sizes) but never change their count.
    pub args: &'a mut [CVal],
    /// Cycle counter at entry (the `rdtsc(exectime_start)` sample).
    pub entry_cycles: u64,
    /// The running hook's saved word: 0 when its `before` starts, and
    /// whatever that `before` left here when its `after` starts (the
    /// canary's requested size, the exectime start cycles, the errno
    /// hooks' entry errno). Each hook step keeps its own.
    pub saved: u64,
}

/// Shared handle to the extent oracle a kernel check consults.
pub type ArcOracle = Arc<dyn ExtentOracle + Send + Sync>;

/// One directly-dispatched check inside a [`CheckKernel::Seq`]: a fused
/// hook's `Check` op plus the oracle its hook answered with, and its
/// memoization key when the predicate's answer is a pure function of
/// (pointer, memory epoch, oracle epoch).
struct KernelCheck {
    /// Pipeline index of the hook that declared the check.
    hook: usize,
    /// Argument index the predicate guards (always `< nargs`).
    arg: usize,
    /// The predicate itself.
    pred: SafePred,
    /// Extent oracle for the relational/extent predicates.
    oracle: ArcOracle,
    /// `Some(key)` when a passing validation of a non-null pointer may be
    /// cached in [`Proc::validation_store`] and replayed while both the
    /// address-space epoch and the oracle's auxiliary epoch hold still.
    memo_key: Option<u64>,
}

impl KernelCheck {
    /// Whether the check passes on `args`, replaying a memoized verdict
    /// where one is live and memoizing a fresh pass where allowed.
    fn passes(&self, proc: &mut Proc, args: &[CVal]) -> bool {
        let v = args[self.arg];
        let Some(key) = self.memo_key.filter(|_| !v.is_null()) else {
            return self.eval(proc, args, v);
        };
        // A C string's verdict consults only process memory, never the
        // oracle: auxiliary epoch 0.
        let aux = match self.pred {
            SafePred::CStr => 0,
            _ => self.oracle.validation_epoch(),
        };
        if proc.validation_hit(key, v.as_ptr(), aux) {
            return true;
        }
        let ok = self.eval(proc, args, v);
        if ok {
            proc.validation_store(key, v.as_ptr(), aux);
        }
        ok
    }

    /// Evaluates the predicate on `v` (= `args[self.arg]`): branch-free
    /// lowering for the scalar predicates, direct dispatch for the rest.
    fn eval(&self, proc: &Proc, args: &[CVal], v: CVal) -> bool {
        match &self.pred {
            SafePred::NonNull => !v.is_null(),
            SafePred::IntNonZero => v.as_int() != 0,
            SafePred::IntInRange { min, max } => {
                let x = v.as_int();
                (x >= *min) & (x <= *max)
            }
            SafePred::SizeBelow(n) => v.as_usize() < *n,
            SafePred::CStr => peek_cstr_len(proc, v.as_ptr()).is_some(),
            pred => pred.check(proc, self.oracle.as_ref(), args, self.arg),
        }
    }
}

/// The specialized check kernel a run of consecutive fused hooks fuses
/// into at wrap time.
enum CheckKernel {
    /// The fused `strcpy` shape: one hook's `HoldsCStrOf { src }` on
    /// `dst` plus `CStr` on `src`, sharing one source scan — the
    /// predicates walk the source string twice.
    BufLenPair {
        /// Pipeline index of the hook that declared both checks.
        hook: usize,
        /// Destination-buffer argument.
        dst: usize,
        /// Source-string argument.
        src: usize,
        /// Oracle answering the destination's exact right extent.
        oracle: ArcOracle,
    },
    /// General shape: direct predicate dispatch in pipeline order,
    /// memoized where sound.
    Seq(Vec<KernelCheck>),
}

impl CheckKernel {
    /// Fuses one run of fused hooks' checks into the tightest shape it
    /// fits.
    fn fuse(checks: Vec<KernelCheck>) -> CheckKernel {
        if let [dst, src_check] = checks.as_slice() {
            if let (SafePred::HoldsCStrOf { src }, SafePred::CStr) =
                (&dst.pred, &src_check.pred)
            {
                if dst.hook == src_check.hook && src_check.arg == *src {
                    return CheckKernel::BufLenPair {
                        hook: dst.hook,
                        dst: dst.arg,
                        src: *src,
                        oracle: Arc::clone(&dst.oracle),
                    };
                }
            }
        }
        CheckKernel::Seq(checks)
    }

    /// `(owning hook, memoized)` for each fused check, in evaluation (=
    /// op) order — the one fact about a check that only the plan
    /// compiler knows.
    fn memoized(&self) -> Vec<(usize, bool)> {
        match self {
            CheckKernel::BufLenPair { hook, .. } => vec![(*hook, false), (*hook, false)],
            CheckKernel::Seq(seq) => {
                seq.iter().map(|kc| (kc.hook, kc.memo_key.is_some())).collect()
            }
        }
    }

    /// Runs the checks of the hooks numbered `from` and later. `None`
    /// means they all passed; `Some(hook)` names the hook owning the
    /// first failing check — the same answer, in the same order, as the
    /// hooks' own `before` would reach.
    fn first_failure(&self, proc: &mut Proc, args: &[CVal], from: usize) -> Option<usize> {
        match self {
            CheckKernel::BufLenPair { hook, dst, src, oracle } => {
                // One source scan serves both checks. The destination
                // bound is the exact `extent_right` edge of the
                // containing object, so an accepted copy can never reach
                // the canary — the overflow is prevented, not detected
                // after the fact.
                if *hook < from {
                    return None;
                }
                match peek_cstr_len(proc, args[*src].as_ptr()) {
                    Some(len)
                        if oracle.extent_right(proc, args[*dst].as_ptr()).unwrap_or(0)
                            > len =>
                    {
                        None
                    }
                    _ => Some(*hook),
                }
            }
            CheckKernel::Seq(seq) => seq
                .iter()
                .find(|kc| kc.hook >= from && !kc.passes(proc, args))
                .map(|kc| kc.hook),
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
/// by the hook's own `before`.
fn fusable(op: &HookOp, nargs: usize) -> bool {
    matches!(op, HookOp::Check { arg, pred: Some(_), .. } if *arg < nargs)
}

/// Builds the memoization key for fused check number `slot` of the
/// wrapper numbered `wrapper_id`. Keys must be *globally disjoint*: the
/// memo table in [`Proc`] is shared by every wrapper that calls into a
/// process, and by every check of one wrapper, so two distinct
/// `(wrapper, check)` pairs mapping to one key would let one check's
/// positive verdict answer for another — under a different predicate.
/// The id and the slot therefore occupy disjoint 32-bit halves of the
/// `u64`, and the slot numbers checks rather than arguments (two hooks
/// may check one argument). (An earlier `id << 3 | arg` packing collided
/// as soon as a slot index reached 8: wrapper 1 / slot 8 and wrapper 2 /
/// slot 0 both encoded 16.)
pub(crate) fn validation_memo_key(wrapper_id: u32, slot: usize) -> u64 {
    // Strictly below `u32::MAX`, not `<=`: keeps every legal key distinct
    // from the memo table's `u64::MAX` empty-slot sentinel even for
    // `wrapper_id == u32::MAX`.
    debug_assert!(slot < u32::MAX as usize, "memo slot {slot} out of memo-key range");
    (u64::from(wrapper_id) << 32) | slot as u64
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
        /// fused kernels' memo keys.
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
    /// sound (the lint assumes the worst, the hook runs its `before` on
    /// every call). An empty list promises the hook does nothing per
    /// call.
    fn ops(&self, proto: &Prototype) -> Vec<HookOp> {
        let _ = proto;
        vec![HookOp::Opaque]
    }

    /// Asked only of hooks whose [`Hook::ops`] are all `Check` ops with a
    /// predicate: whether the accept path is exactly those checks
    /// passing — `before` returns [`HookAction::Continue`] without side
    /// effects and `after` is a no-op, so there is no word to save — and
    /// if so, which oracle the checks consult. The hook is then fused:
    /// its checks run in the check kernel, and its `before` runs only
    /// when one of them fails (or the call's arity keeps the kernel from
    /// running), at the hook's own pipeline position; its `after` is
    /// never called. `on_fault` is polled as for any hook. Default:
    /// `None` (the hook runs its `before` on every call).
    fn fusion(&self) -> Option<ArcOracle> {
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

thread_local! {
    /// Recycled render buffer for the compiled flight-recorder epilogue.
    static ARGS_BUF: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Arguments a call copies onto its stack; a variadic call with more
/// copies them into a local vector instead.
const INLINE_ARGS: usize = 8;

/// Copies `v` one 8-byte field at a time. The caller has usually just
/// stored the argument as two words, and a whole 16-byte copy loads
/// across both stores, which the CPU cannot forward from its store
/// buffer: on a 2-core Xeon that stall cost a fused `strcpy` ~15 ns.
fn copy_arg(v: &CVal) -> CVal {
    match *v {
        CVal::Int(x) => CVal::Int(x),
        CVal::Ptr(p) => CVal::Ptr(p),
        CVal::F64(f) => CVal::F64(f),
        _ => CVal::Void,
    }
}

/// One step of the compiled per-call program: either one unfused hook,
/// whose `before` runs on every call, or a run of consecutive fused
/// hooks whose checks run in one kernel.
struct Step {
    /// Pipeline indices of the step's hooks.
    hooks: Range<usize>,
    /// The fused hooks' checks; `None` for an unfused hook.
    kernel: Option<CheckKernel>,
}

/// Telemetry recording compiled into the wrapper's epilogue, so the
/// latency-histogram and flight-recorder configurations need no recorder
/// hooks. Recording happens exactly once per call, at the point a
/// first-positioned (hence last-run) recorder hook's `after` would fire,
/// with the same cycle arithmetic and argument rendering — byte-identical
/// XML.
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
    /// The pipeline compiled into steps, in pipeline order.
    steps: Vec<Step>,
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
    /// Wraps `original` with `hooks` (micro-generator order). The
    /// pipeline is compiled into steps here, once: the `Check` ops of
    /// every hook whose accept path is exactly its checks fuse into
    /// check kernels.
    pub fn new(proto: Prototype, original: HostFn, hooks: Vec<Arc<dyn Hook>>) -> Self {
        Self::new_with_telemetry(proto, original, hooks, None, None)
    }

    /// Like [`WrappedFn::new`], with telemetry sinks compiled into the
    /// call epilogue: the per-function `"call"` latency histogram and the
    /// journal's call ring record on *every* call, exactly once, without
    /// a recorder hook.
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
        let steps = Self::compile(&proto, &hooks, id);
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
                steps,
                telemetry,
            }),
        }
    }

    /// Compiles the pipeline into [`Step`]s: each hook whose ops are all
    /// fusable checks and that answers [`Hook::fusion`] contributes its
    /// checks to the kernel of the run of fused hooks it belongs to;
    /// every other hook is a step of its own.
    fn compile(proto: &Prototype, hooks: &[Arc<dyn Hook>], wrapper_id: u32) -> Vec<Step> {
        let nargs = proto.params.len();
        let ops: Vec<Vec<HookOp>> = hooks.iter().map(|h| h.ops(proto)).collect();
        // Memoization must stay consistent with the pipeline's relational
        // facts: a cached per-pointer verdict about an argument that a
        // relational check anywhere in the pipeline relates to other
        // arguments would let the memo answer for state the relational
        // check re-derives each call — the disagreement the lint's
        // memoized-relational rule flags. Suppress memo keys for every
        // argument a relational predicate is the subject of or references.
        let mut relational_args = BTreeSet::new();
        for op in ops.iter().flatten() {
            if let HookOp::Check { arg, pred: Some(pred), .. } = op {
                if pred.is_relational() {
                    relational_args.insert(*arg);
                    relational_args.extend(pred.referenced_args());
                }
            }
        }
        let mut slot = 0;
        let mut runs: Vec<(Range<usize>, Option<Vec<KernelCheck>>)> = Vec::new();
        for (h, (hook, ops)) in hooks.iter().zip(ops).enumerate() {
            let oracle =
                if ops.iter().all(|op| fusable(op, nargs)) { hook.fusion() } else { None };
            let Some(oracle) = oracle else {
                runs.push((h..h + 1, None));
                continue;
            };
            let checks = ops.into_iter().filter_map(|op| match op {
                HookOp::Check { arg, pred: Some(pred), .. } => {
                    let memo = memoizable(&pred) && !relational_args.contains(&arg);
                    let memo_key = memo.then(|| validation_memo_key(wrapper_id, slot));
                    slot += 1;
                    let oracle = Arc::clone(&oracle);
                    Some(KernelCheck { hook: h, arg, pred, oracle, memo_key })
                }
                _ => None,
            });
            match runs.last_mut() {
                Some((hooks, Some(run))) => {
                    hooks.end = h + 1;
                    run.extend(checks);
                }
                _ => runs.push((h..h + 1, Some(checks.collect()))),
            }
        }
        runs.into_iter()
            .map(|(hooks, checks)| Step { hooks, kernel: checks.map(CheckKernel::fuse) })
            .collect()
    }

    /// Whether every hook fused, so that an accepted call of the
    /// prototype's arity runs no hook's `before` (diagnostics).
    pub fn has_plan(&self) -> bool {
        self.inner.steps.iter().all(|s| s.kernel.is_some())
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
    /// pipeline order. Each fused `Check` op also carries the
    /// memoization its kernel applies to it, which no hook can know.
    pub fn call_model(&self) -> CallModel {
        let proto = &self.inner.proto;
        let truncations = self
            .inner
            .int_widths
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.map(|b| (i, b)))
            .collect();
        let mut memo = self
            .inner
            .steps
            .iter()
            .filter_map(|s| s.kernel.as_ref())
            .flat_map(CheckKernel::memoized)
            .peekable();
        let mut ops = Vec::new();
        for (h, hook) in self.inner.hooks.iter().enumerate() {
            for mut op in hook.ops(proto) {
                if let HookOp::Check { memoized, .. } = &mut op {
                    if let Some((_, m)) = memo.next_if(|(owner, _)| *owner == h) {
                        *memoized = m;
                    }
                }
                let provenance = hook.provenance().to_string();
                ops.push(ModelOp { hook: hook.name(), provenance, op });
            }
        }
        CallModel { func: self.inner.name.clone(), truncations, ops }
    }

    /// Invokes the wrapper: prefix hooks in order, the original (unless
    /// contained), postfix hooks in reverse order, then the telemetry
    /// epilogue.
    ///
    /// A fused hook's `before` is replaced by its checks in the step's
    /// kernel; it runs, at its own position, only when one of its checks
    /// fails or the call's arity differs from the prototype's. Its
    /// accept path is pure, so the result is the one running every
    /// `before` would give. The call's state — the truncated argument
    /// copy and each hook's saved word — lives on the stack, so the call
    /// itself allocates nothing unless it passes more than
    /// `INLINE_ARGS` arguments.
    ///
    /// # Errors
    ///
    /// Faults from the original, or a [`Fault::SecurityViolation`] from a
    /// denying hook.
    pub fn call(&self, proc: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
        let inner = &*self.inner;
        let mut inline = [CVal::Void; INLINE_ARGS];
        let mut spilled;
        let copy = match inline.get_mut(..args.len()) {
            Some(slots) => {
                for (slot, v) in slots.iter_mut().zip(args) {
                    *slot = copy_arg(v);
                }
                slots
            }
            None => {
                spilled = args.to_vec();
                spilled.as_mut_slice()
            }
        };
        for (v, width) in copy.iter_mut().zip(&inner.int_widths) {
            if let Some(b) = width {
                *v = CVal::Int(trunc_int(v.as_int(), *b));
            }
        }
        let entry_cycles = proc.cycles();
        let mut cx = CallCx { func: &inner.name, proc, args: copy, entry_cycles, saved: 0 };
        let result = self.run(&inner.steps, &mut cx);
        self.record_telemetry(&cx, &result);
        result
    }

    /// Runs `steps` and then the original. A kernel step runs in line; a
    /// hook step nests the rest of the call between its hook's `before`
    /// and `after`, holding the hook's saved word in this frame. A fused
    /// hook's `after` is a no-op and is not called.
    fn run(&self, steps: &[Step], cx: &mut CallCx<'_>) -> Result<CVal, Fault> {
        let inner = &*self.inner;
        for (i, step) in steps.iter().enumerate() {
            let Some(kernel) = &step.kernel else {
                let hook = &inner.hooks[step.hooks.start];
                cx.saved = 0;
                let contained = hook.before(cx).contained();
                let saved = cx.saved;
                let mut result = contained.unwrap_or_else(|| self.run(&steps[i + 1..], cx));
                cx.saved = saved;
                hook.after(cx, &mut result);
                return result;
            };
            let mut from = step.hooks.start;
            while from < step.hooks.end {
                let h = if cx.args.len() == inner.proto.params.len() {
                    match kernel.first_failure(cx.proc, cx.args, from) {
                        Some(h) => h,
                        None => break,
                    }
                } else {
                    from
                };
                if let Some(contained) = inner.hooks[h].before(cx).contained() {
                    return contained;
                }
                from = h + 1;
            }
        }
        self.call_original(cx)
    }

    /// Calls the original. On a fault, polls the hooks in order for the
    /// first decision that is not `Propagate`, re-runs the original on
    /// `Retry` (each hook bounds its own retries by `attempt`), and stops
    /// on `Propagate`, `Substitute` or an `Exit`.
    fn call_original(&self, cx: &mut CallCx<'_>) -> Result<CVal, Fault> {
        let mut attempt: u32 = 0;
        loop {
            let fault = match (self.inner.original)(cx.proc, cx.args) {
                // Exit is the termination contract, not a fault to heal —
                // the exit-report hook depends on seeing it.
                r @ (Ok(_) | Err(Fault::Exit(_))) => return r,
                Err(f) => f,
            };
            let decision = self
                .inner
                .hooks
                .iter()
                .map(|hook| hook.on_fault(cx, &fault, attempt))
                .find(|d| !matches!(d, FaultDecision::Propagate))
                .unwrap_or(FaultDecision::Propagate);
            match decision {
                FaultDecision::Propagate => return Err(fault),
                FaultDecision::Substitute(v) => return Ok(v),
                FaultDecision::Retry => attempt += 1,
            }
        }
    }

    /// Records the compiled telemetry epilogue, if any: the `"call"`
    /// latency histogram sample and the flight-recorder entry, with the
    /// exact cycle arithmetic and argument rendering of the recorder
    /// hooks (their XML must stay byte-identical).
    fn record_telemetry(&self, cx: &CallCx<'_>, result: &Result<CVal, Fault>) {
        let Some(t) = &self.inner.telemetry else { return };
        let cycles = cx.proc.cycles().saturating_sub(cx.entry_cycles);
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
                for (i, a) in cx.args.iter().enumerate() {
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
        fn fusion(&self) -> Option<ArcOracle> {
            Some(Arc::new(simproc::RegionOracle::new()))
        }
    }

    #[test]
    fn call_model_sees_through_the_fused_cstr_kernel() {
        // The kernel memoizes a CStr verdict per pointer. The hook
        // declares `memoized: false` because it cannot know what the
        // plan compiler fused; the call model must carry the kernel's
        // memo key instead.
        let f = WrappedFn::new(
            strlen_proto(),
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![Arc::new(PureChecks { preds: vec![(0, SafePred::CStr)] })],
        );
        assert!(f.has_plan(), "a single CStr check must fuse");
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
                    "the fused CStr check memoizes its verdict; the model must say so"
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
    fn checks_on_missing_arguments_keep_the_hook_unfused() {
        // `strlen` has one parameter; a check on a second one cannot
        // run in the kernel, only in the hook's own `before`.
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
        // Disjointness over a grid much wider than any pipeline's fused
        // check count.
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
