//! The concrete runtime hooks: one per micro-generator family.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use cdecl::CType;
use guardian::{CanaryRegistry, GuardOracle, CANARY_LEN};
use parking_lot::Mutex;
use profiler::{
    render_document, Absorption, DocSections, FleetCollector, FleetMeta, HealAction,
    HealEvent, ManufacturedRead, Stats, WrapperJournal,
};
use simproc::{errno, CVal, Fault, VirtAddr};
use typelattice::SafePred;

use crate::builders::WrapperKind;
use crate::codegen::{CodegenCx, Fragment};
use crate::oblivious::{oblivious_fault_value, oblivious_outcome, ObliviousCx};
use crate::policy::{apply_repair, Policy, PolicyEngine, ViolationClass};
use crate::runtime::{
    containment_value, reject, ArcOracle, CallCx, CallLog, FaultDecision, Hook, HookAction,
    HookOp,
};

/// `arg check` / `heal args`: evaluates the robust argument types derived
/// by the fault injector before every call and responds to violations
/// according to the wrapper's [`PolicyEngine`] — contain, terminate,
/// repair in place, or skip the call obliviously. Every decision is
/// recorded in the attached [`WrapperJournal`].
pub struct ArgCheckHook {
    preds: Vec<SafePred>,
    ret: CType,
    oracle: GuardOracle,
    engine: PolicyEngine,
    journal: Option<Arc<WrapperJournal>>,
    /// When set, the hook records `check` / `heal` stage latency
    /// histograms. Keeps the hook unfused (its `before` runs on every
    /// call) — only wire it into healing wrappers, never robustness.
    stats: Option<Arc<Stats>>,
    /// Where the predicates came from (`"campaign"` unless overridden
    /// with [`ArgCheckHook::with_provenance`]).
    provenance: &'static str,
    /// When set, every call's pointer arguments are matched against the
    /// values oblivious absorptions manufactured, and each match is
    /// journaled as a tainted use. Keeps the hook unfused: taint
    /// tracking is a per-call side effect.
    taint: bool,
    /// Functions whose static contract marks violated string inputs as
    /// NULL-tolerant — the oblivious engine manufactures a real empty
    /// string for their pointer returns instead of NULL.
    contract_defaults: Arc<BTreeSet<String>>,
}

impl std::fmt::Debug for ArgCheckHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArgCheckHook({:?})", self.engine)
    }
}

impl ArgCheckHook {
    /// Builds the hook for one function.
    pub fn new(
        preds: Vec<SafePred>,
        ret: CType,
        oracle: GuardOracle,
        engine: PolicyEngine,
    ) -> Self {
        ArgCheckHook {
            preds,
            ret,
            oracle,
            engine,
            journal: None,
            stats: None,
            provenance: "campaign",
            taint: false,
            contract_defaults: Arc::default(),
        }
    }

    /// Builds the hook with the wrapper journal attached.
    pub fn with_journal(
        preds: Vec<SafePred>,
        ret: CType,
        oracle: GuardOracle,
        engine: PolicyEngine,
        journal: Arc<WrapperJournal>,
    ) -> Self {
        ArgCheckHook { journal: Some(journal), ..Self::new(preds, ret, oracle, engine) }
    }

    /// Switches taint tracking on: every call whose pointer argument is
    /// a value an oblivious absorption manufactured is journaled as a
    /// downstream use of it. Keeps the hook unfused (taint tracking
    /// observes every call).
    #[must_use]
    pub fn with_oblivious(mut self) -> Self {
        self.taint = true;
        self
    }

    /// Names the functions whose static contract tolerates NULL string
    /// inputs — for these, the oblivious engine's pointer returns are
    /// manufactured empty strings rather than NULL.
    #[must_use]
    pub fn with_contract_defaults(mut self, names: Arc<BTreeSet<String>>) -> Self {
        self.contract_defaults = names;
        self
    }

    /// Attaches a statistics table: the hook then records `check` (the
    /// whole before-call validation) and `heal` (each repair) stage
    /// latencies into per-function log2 histograms. This keeps the hook
    /// unfused: its `before` then runs on every call.
    #[must_use]
    pub fn with_stats(mut self, stats: Arc<Stats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Tags the hook's checks with where they came from — `"contract"`
    /// for checks seeded by static contract inference rather than a
    /// fault-injection campaign. The tag surfaces in [`crate::CallModel`]
    /// ops and lint findings.
    #[must_use]
    pub fn with_provenance(mut self, tag: &'static str) -> Self {
        self.provenance = tag;
        self
    }

    fn journal(
        &self,
        func: &str,
        arg: Option<usize>,
        pred: Option<&SafePred>,
        class: Option<ViolationClass>,
        action: HealAction,
        detail: impl Into<String>,
    ) {
        if let Some(j) = &self.journal {
            j.record(decision(func, arg, pred, class, action, detail.into()));
        }
    }

    /// One healing pass: repairs every currently-violated healable
    /// predicate once. Returns the number of repairs applied, or `None`
    /// when a violation had no safe repair.
    fn heal_pass(&self, cx: &mut CallCx<'_>) -> Option<usize> {
        let mut repaired = 0;
        for (i, pred) in self.preds.iter().enumerate() {
            if *pred == SafePred::Always {
                continue;
            }
            if pred.check(cx.proc, &self.oracle, cx.args, i) {
                continue;
            }
            let class = violation_class(pred, cx.args, i);
            match apply_repair(cx.proc, &self.oracle, cx.args, pred, i) {
                Some(desc) => {
                    self.journal(
                        cx.func,
                        Some(i),
                        Some(pred),
                        Some(class),
                        HealAction::Repaired,
                        desc,
                    );
                    repaired += 1;
                }
                None => return None,
            }
        }
        Some(repaired)
    }

    /// The full before-call validation loop; see [`Hook::before`] for
    /// why it re-checks from the top after every repair.
    fn check_and_heal(&self, cx: &mut CallCx<'_>) -> HookAction {
        // Propagation audit: a pointer argument equal to a value the
        // oblivious engine manufactured marks this call as a downstream
        // consumer of tainted data.
        if let (true, Some(j)) = (self.taint, &self.journal) {
            j.record_tainted_uses(cx.func, cx.args);
        }
        // Repairs can shift which predicate is violated (a substituted
        // destination makes the copy fit; a clamped count makes the
        // buffer large enough), so healing re-checks from the top after
        // every repair. The pass budget guarantees convergence: each
        // pass either repairs at least one argument or exits.
        let budget = 2 * self.preds.len() + 4;
        let mut passes = 0;
        'recheck: loop {
            for (i, pred) in self.preds.iter().enumerate() {
                if *pred == SafePred::Always {
                    continue;
                }
                if pred.check(cx.proc, &self.oracle, cx.args, i) {
                    continue;
                }
                let class = violation_class(pred, cx.args, i);
                match self.engine.resolve(cx.func, class) {
                    Policy::Observe => {
                        self.journal(
                            cx.func,
                            Some(i),
                            Some(pred),
                            Some(class),
                            HealAction::Observed,
                            "violation observed, call passed through",
                        );
                        continue;
                    }
                    Policy::Contain => {
                        self.journal(
                            cx.func,
                            Some(i),
                            Some(pred),
                            Some(class),
                            HealAction::Contained,
                            "rejected with EINVAL",
                        );
                        return reject(cx.proc, &self.ret);
                    }
                    Policy::Terminate => {
                        self.journal(
                            cx.func,
                            Some(i),
                            Some(pred),
                            Some(class),
                            HealAction::Terminated,
                            "process terminated",
                        );
                        return HookAction::Deny(Fault::security(format!(
                            "{}: argument {} violates robust type `{pred}`",
                            cx.func,
                            i + 1
                        )));
                    }
                    Policy::Oblivious => {
                        let ocx = ObliviousCx {
                            func: cx.func,
                            arg: i,
                            pred,
                            class,
                            ret: &self.ret,
                            null_defaults: &self.contract_defaults,
                        };
                        let out = oblivious_outcome(&ocx, cx.proc, &self.oracle, cx.args);
                        if let Some(j) = &self.journal {
                            let absorbed = match out.write {
                                Some(w) => Absorption::Write(w),
                                None => Absorption::Read(ManufacturedRead {
                                    class: class.tag().to_string(),
                                    role: out.role.to_string(),
                                    value: out.ret.to_string(),
                                }),
                            };
                            let event = decision(
                                cx.func,
                                Some(i),
                                Some(pred),
                                Some(class),
                                HealAction::Obliviated,
                                out.detail,
                            );
                            let event = HealEvent { absorbed: Some(absorbed), ..event };
                            j.record_oblivious(event, out.taint);
                        }
                        return HookAction::ShortCircuit(out.ret);
                    }
                    Policy::Heal | Policy::Retry { .. } => {
                        passes += 1;
                        if passes > budget {
                            self.journal(
                                cx.func,
                                Some(i),
                                Some(pred),
                                Some(class),
                                HealAction::Contained,
                                "healing did not converge",
                            );
                            return reject(cx.proc, &self.ret);
                        }
                        let heal_start = cx.proc.cycles();
                        match apply_repair(cx.proc, &self.oracle, cx.args, pred, i) {
                            Some(desc) => {
                                if let Some(stats) = &self.stats {
                                    stats.record_latency(
                                        cx.func,
                                        "heal",
                                        cx.proc.cycles().saturating_sub(heal_start),
                                    );
                                }
                                self.journal(
                                    cx.func,
                                    Some(i),
                                    Some(pred),
                                    Some(class),
                                    HealAction::Repaired,
                                    desc,
                                );
                                continue 'recheck;
                            }
                            None => {
                                self.journal(
                                    cx.func,
                                    Some(i),
                                    Some(pred),
                                    Some(class),
                                    HealAction::Contained,
                                    "no safe repair exists",
                                );
                                return reject(cx.proc, &self.ret);
                            }
                        }
                    }
                }
            }
            return HookAction::Continue;
        }
    }
}

impl Hook for ArgCheckHook {
    fn name(&self) -> &'static str {
        "arg check"
    }

    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        // Every `SafePred::check` evaluator tests for NULL before any
        // memory scan (`peek_cstr_len` returns `None` on NULL), so the
        // checks are null-guarded by construction.
        self.preds
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != SafePred::Always)
            .map(|(i, p)| HookOp::Check {
                arg: i,
                pred: Some(p.clone()),
                label: p.to_string(),
                null_guarded: true,
                memoized: false,
            })
            .collect()
    }

    fn fusion(&self) -> Option<ArcOracle> {
        // The accept path of `before` — every non-`Always` predicate
        // passes — is pure: no journal entry, no argument rewrite, no
        // saved word, regardless of policy. So it fuses for *every* engine:
        // a failing check runs `before`, which applies the policy.
        // Stage-latency recording and taint tracking are per-call side
        // effects `before` must perform on every call, accept path
        // included — they keep the hook unfused.
        if self.stats.is_some() || self.taint {
            return None;
        }
        Some(Arc::new(self.oracle.clone()))
    }

    fn fragments(&self, cx: &CodegenCx<'_>) -> Vec<Fragment> {
        let policy = self.engine.uniform();
        let reject = format!("{{ errno = EINVAL; {} }}", cx.error_return());
        // One `healers_check` line per declared `Check` op, then what a
        // violation does.
        let mut checks = String::new();
        for op in self.ops(cx.proto) {
            let HookOp::Check { arg, label, .. } = op else { continue };
            let name = cx.param(arg);
            let _ = write!(checks, "  if (!healers_check({name}, \"{label}\"))");
            let _ = match policy {
                // The security wrapper: a violation terminates the process.
                Some(Policy::Terminate) => {
                    writeln!(checks, " healers_terminate(\"buffer overflow prevented\");")
                }
                // The robustness wrapper: an error value with
                // `errno = EINVAL` instead of calling the C library.
                Some(Policy::Contain) => writeln!(checks, " {reject}"),
                // The healing wrapper: `heal args` repairs the argument
                // in place, rejecting only when no safe repair exists.
                _ => writeln!(
                    checks,
                    "\n    if (!healers_heal(&{name}, \"{label}\")) {reject}"
                ),
            };
        }
        if matches!(policy, Some(Policy::Terminate | Policy::Contain)) {
            return vec![Fragment::new("arg check", checks, "")];
        }
        // `retry` re-sanitizes and re-invokes a faulting call a bounded
        // number of times before containing the fault.
        let ret = cx.containment_literal().map(|lit| format!("    ret = {lit};\n"));
        let backstop = [RETRY_BACKSTOP, ret.as_deref().unwrap_or(""), "  }\n"].concat();
        vec![
            Fragment::new("heal args", checks, ""),
            Fragment::new("retry", "  int healing_attempt = 0;\nretry_call:\n", backstop),
        ]
    }

    fn provenance(&self) -> &str {
        self.provenance
    }

    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        match &self.stats {
            None => self.check_and_heal(cx),
            Some(stats) => {
                let start = cx.proc.cycles();
                let action = self.check_and_heal(cx);
                stats.record_latency(
                    cx.func,
                    "check",
                    cx.proc.cycles().saturating_sub(start),
                );
                action
            }
        }
    }

    fn on_fault(&self, cx: &mut CallCx<'_>, fault: &Fault, attempt: u32) -> FaultDecision {
        match self.engine.fault_policy(cx.func) {
            // The classic wrappers let residual faults propagate — the
            // caller (or the fault injector's outcome scale) sees them.
            // Observe does too, by definition: the fleet's baseline
            // posture keeps crashes visible so the remediation director
            // has a signal to escalate on.
            Policy::Observe | Policy::Contain | Policy::Terminate => {
                FaultDecision::Propagate
            }
            Policy::Oblivious => {
                // The check passed but the original still faulted (a
                // check-evading violation): absorb it as a manufactured
                // as-if-empty completion, errno untouched. The decision
                // has no violation class; the read carries the fault's tag.
                let value = oblivious_fault_value(&self.ret);
                if let Some(j) = &self.journal {
                    let read = ManufacturedRead {
                        class: fault.tag().to_string(),
                        role: "fault-absorb".to_string(),
                        value: value.to_string(),
                    };
                    let detail = format!("fault absorbed obliviously: {fault}");
                    let event =
                        decision(cx.func, None, None, None, HealAction::Obliviated, detail);
                    let event =
                        HealEvent { absorbed: Some(Absorption::Read(read)), ..event };
                    j.record_oblivious(event, None);
                }
                FaultDecision::Substitute(value)
            }
            Policy::Heal => {
                self.journal(
                    cx.func,
                    None,
                    None,
                    None,
                    HealAction::Substituted,
                    format!("fault contained: {fault}"),
                );
                cx.proc.set_errno(errno::EINVAL);
                FaultDecision::Substitute(containment_value(&self.ret))
            }
            Policy::Retry { max_attempts } => {
                // A hang means the call's fuel is already spent; running
                // it again can only hang again.
                let retryable = !matches!(fault, Fault::Hang);
                if retryable && attempt < max_attempts {
                    if let Some(repaired) = self.heal_pass(cx) {
                        if repaired > 0 {
                            self.journal(
                                cx.func,
                                None,
                                None,
                                None,
                                HealAction::Retried,
                                format!("retry {} after {fault}", attempt + 1),
                            );
                            return FaultDecision::Retry;
                        }
                    }
                }
                self.journal(
                    cx.func,
                    None,
                    None,
                    None,
                    HealAction::Substituted,
                    format!("fault contained: {fault}"),
                );
                cx.proc.set_errno(errno::EINVAL);
                FaultDecision::Substitute(containment_value(&self.ret))
            }
        }
    }
}

/// The class of `pred`'s violation by argument `i`. A call with fewer
/// arguments than the hook has predicates violates the missing ones,
/// classified as the zero word the callee would read.
fn violation_class(pred: &SafePred, args: &[CVal], i: usize) -> ViolationClass {
    ViolationClass::of(pred, args.get(i).copied().unwrap_or(CVal::NULL))
}

/// One journal decision without an absorption payload. Fault-path
/// decisions have no argument, predicate or class: those render empty.
fn decision(
    func: &str,
    arg: Option<usize>,
    pred: Option<&SafePred>,
    class: Option<ViolationClass>,
    action: HealAction,
    detail: String,
) -> HealEvent {
    HealEvent {
        func: func.to_string(),
        arg,
        violation: pred.map(|p| p.to_string()).unwrap_or_default(),
        class: class.map(|c| c.tag().to_string()).unwrap_or_default(),
        action,
        detail,
        absorbed: None,
    }
}

/// The `retry` micro-generator's fault backstop, up to the assignment
/// of the containment value.
const RETRY_BACKSTOP: &str = concat!(
    "  if (healers_faulted()) {\n",
    "    if (healing_attempt++ < HEAL_MAX_RETRIES) {\n",
    "      healers_resanitize();\n",
    "      goto retry_call;\n",
    "    }\n",
    "    errno = EINVAL;\n",
);

/// `canary check` on the allocator family: over-allocate, write guard
/// words, verify before `free`/`realloc` touch metadata.
#[derive(Debug)]
pub struct CanaryHook {
    registry: Arc<CanaryRegistry>,
}

impl CanaryHook {
    /// Builds the hook over a shared registry.
    pub fn new(registry: Arc<CanaryRegistry>) -> Self {
        CanaryHook { registry }
    }

    fn verify_or_deny(&self, cx: &mut CallCx<'_>, ptr: VirtAddr) -> HookAction {
        match self.registry.verify(cx.proc, ptr) {
            Ok(_) => HookAction::Continue,
            Err(violation) => HookAction::Deny(violation.fault()),
        }
    }
}

impl Hook for CanaryHook {
    fn name(&self) -> &'static str {
        "canary check"
    }

    fn ops(&self, proto: &cdecl::Prototype) -> Vec<HookOp> {
        let mutate = |arg: usize| HookOp::Mutate {
            arg,
            label: "inflate allocation size by the guard word".to_string(),
        };
        let verify = |arg: usize| HookOp::Check {
            arg,
            pred: None,
            label: "verify heap canary".to_string(),
            null_guarded: true, // `before` tests the pointer for NULL first
            memoized: false,
        };
        match proto.name.as_str() {
            "malloc" => vec![mutate(0)],
            "calloc" => vec![mutate(0), mutate(1)],
            "free" => vec![verify(0)],
            "realloc" => vec![verify(0), mutate(1)],
            "exit" => vec![HookOp::Observe], // terminal heap sweep
            _ => Vec::new(),
        }
    }

    fn fusion(&self) -> Option<ArcOracle> {
        // Asked only outside the allocator family, where the op list is
        // empty: `before` and `after` both fall through.
        Some(Arc::new(GuardOracle::new(Arc::clone(&self.registry))))
    }

    fn fragments(&self, cx: &CodegenCx<'_>) -> Vec<Fragment> {
        let smashed = "healers_terminate(\"heap smashing detected\");";
        let reserve = "/* reserve guard word */";
        let write = |size: &str| {
            format!("  if (ret) healers_write_canary(ret, {size} - CANARY_LEN);\n")
        };
        let (prefix, postfix) = match cx.proto.name.as_str() {
            "malloc" => {
                let size = cx.param(0);
                (format!("  {size} += CANARY_LEN; {reserve}\n"), write(&size))
            }
            "calloc" => {
                let (nmemb, size) = (cx.param(0), cx.param(1));
                let grow = format!(
                    "  {size} = {nmemb} * {size} + CANARY_LEN; {nmemb} = 1; {reserve}\n"
                );
                (grow, write(&size))
            }
            "free" => (
                format!("  if (!healers_canary_ok({})) {smashed}\n", cx.param(0)),
                String::new(),
            ),
            "realloc" => {
                let prefix = format!(
                    concat!(
                        "  if (!healers_canary_ok({ptr})) {smashed}\n",
                        "  if ({size}) {size} += CANARY_LEN; {reserve}\n",
                    ),
                    ptr = cx.param(0),
                    size = cx.param(1),
                    smashed = smashed,
                    reserve = reserve
                );
                (prefix, write(&cx.param(1)))
            }
            "exit" => {
                (format!("  if (!healers_canary_sweep()) {smashed}\n"), String::new())
            }
            _ => return Vec::new(),
        };
        vec![Fragment::new("canary check", prefix, postfix)]
    }

    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        match cx.func {
            "malloc" => {
                // A request so large that adding the guard word wraps can
                // only fail anyway: leave it to the original (it returns
                // NULL) rather than shrink it into a bogus success. So is
                // a call without a size to inflate.
                cx.saved = u64::MAX;
                if let [size, ..] = &mut *cx.args {
                    let requested = size.as_usize();
                    if let Some(inflated) = requested.checked_add(CANARY_LEN) {
                        cx.saved = requested;
                        *size = CVal::Int(inflated as i64);
                    }
                }
                HookAction::Continue
            }
            "calloc" => {
                // The whole request moves into the size slot. An overflow
                // is left to the original (it returns NULL), as is a call
                // missing either count.
                cx.saved = u64::MAX;
                if let [nmemb, size, ..] = &mut *cx.args {
                    let total = nmemb.as_usize().checked_mul(size.as_usize());
                    if let Some(t) = total.filter(|t| t.checked_add(CANARY_LEN).is_some()) {
                        cx.saved = t;
                        *nmemb = CVal::Int(1);
                        *size = CVal::Int((t + CANARY_LEN) as i64);
                    }
                }
                HookAction::Continue
            }
            "free" => {
                let ptr = cx.args.first().copied().unwrap_or(CVal::NULL).as_ptr();
                if ptr.is_null() {
                    return HookAction::Continue;
                }
                let action = self.verify_or_deny(cx, ptr);
                if action == HookAction::Continue {
                    self.registry.release(ptr);
                }
                action
            }
            "realloc" => {
                let ptr = cx.args.first().copied().unwrap_or(CVal::NULL).as_ptr();
                let requested = cx.args.get(1).copied().unwrap_or(CVal::Int(0)).as_usize();
                if !ptr.is_null() {
                    let action = self.verify_or_deny(cx, ptr);
                    if action != HookAction::Continue {
                        return action;
                    }
                }
                match requested.checked_add(CANARY_LEN) {
                    Some(inflated) => {
                        cx.saved = requested;
                        if requested > 0 {
                            cx.args[1] = CVal::Int(inflated as i64);
                        }
                    }
                    None => cx.saved = u64::MAX, // let the original fail
                }
                HookAction::Continue
            }
            "exit" => {
                // Final sweep before atexit handlers run — the last
                // chance to catch a smashed heap before hijack.
                match self.registry.sweep(cx.proc) {
                    Ok(()) => HookAction::Continue,
                    Err(violation) => HookAction::Deny(violation.fault()),
                }
            }
            _ => HookAction::Continue,
        }
    }

    fn after(&self, cx: &mut CallCx<'_>, result: &mut Result<CVal, Fault>) {
        match cx.func {
            "malloc" | "calloc" => {
                let requested = cx.saved;
                if requested == u64::MAX {
                    return; // overflow case, nothing allocated
                }
                if let Ok(v) = result {
                    let ptr = v.as_ptr();
                    if !ptr.is_null() {
                        if let Err(f) = self.registry.protect(cx.proc, ptr, requested) {
                            *result = Err(f);
                        }
                    }
                }
            }
            "realloc" => {
                let requested = cx.saved;
                if requested == u64::MAX {
                    return; // overflow case, left to the original
                }
                let old = cx.args.first().copied().unwrap_or(CVal::NULL).as_ptr();
                if let Ok(v) = result {
                    let new_ptr = v.as_ptr();
                    if requested == 0 {
                        // realloc(p, 0) freed it.
                        self.registry.release(old);
                    } else if !new_ptr.is_null() {
                        self.registry.release(old);
                        if let Err(f) = self.registry.protect(cx.proc, new_ptr, requested) {
                            *result = Err(f);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// `call counter`.
#[derive(Debug)]
pub struct CallCounterHook {
    stats: Arc<Stats>,
}

impl CallCounterHook {
    /// Builds the hook over shared statistics.
    pub fn new(stats: Arc<Stats>) -> Self {
        CallCounterHook { stats }
    }
}

impl Hook for CallCounterHook {
    fn name(&self) -> &'static str {
        "call counter"
    }

    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Observe]
    }

    fn fragments(&self, cx: &CodegenCx<'_>) -> Vec<Fragment> {
        let prefix = format!("  ++call_counter_num_calls[{}];\n", cx.func_index);
        vec![Fragment::new("call counter", prefix, "")]
    }

    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        self.stats.record_count(cx.func);
        HookAction::Continue
    }
}

/// `function exectime`: the rdtsc pair, via the deterministic cycle
/// counter.
#[derive(Debug)]
pub struct ExectimeHook {
    stats: Arc<Stats>,
}

impl ExectimeHook {
    /// Builds the hook over shared statistics.
    pub fn new(stats: Arc<Stats>) -> Self {
        ExectimeHook { stats }
    }
}

impl Hook for ExectimeHook {
    fn name(&self) -> &'static str {
        "function exectime"
    }

    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Observe]
    }

    fn fragments(&self, cx: &CodegenCx<'_>) -> Vec<Fragment> {
        let prefix = concat!(
            "  unsigned long long exectime_start;\n",
            "  unsigned long long exectime_end;\n",
            "  rdtsc(exectime_start);\n",
        );
        let postfix = format!(
            "  rdtsc(exectime_end);\n  exectime[{}] += exectime_end - exectime_start;\n",
            cx.func_index
        );
        vec![Fragment::new("function exectime", prefix, postfix)]
    }

    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        cx.saved = cx.proc.cycles();
        HookAction::Continue
    }

    fn after(&self, cx: &mut CallCx<'_>, _result: &mut Result<CVal, Fault>) {
        let start = cx.saved;
        self.stats.record_cycles(cx.func, cx.proc.cycles().saturating_sub(start));
    }
}

/// `func errors`: per-function errno histogram.
#[derive(Debug)]
pub struct FuncErrorsHook {
    stats: Arc<Stats>,
}

impl FuncErrorsHook {
    /// Builds the hook over shared statistics.
    pub fn new(stats: Arc<Stats>) -> Self {
        FuncErrorsHook { stats }
    }
}

impl Hook for FuncErrorsHook {
    fn name(&self) -> &'static str {
        "func error"
    }

    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Observe]
    }

    fn fragments(&self, cx: &CodegenCx<'_>) -> Vec<Fragment> {
        let postfix = format!(
            concat!(
                "  if (func_error_err != errno)\n",
                "    if (errno < 0 || errno >= MAX_ERRNO)\n",
                "      ++func_error_cnter[{i}][MAX_ERRNO];\n",
                "    else\n",
                "      ++func_error_cnter[{i}][errno];\n",
            ),
            i = cx.func_index
        );
        vec![Fragment::new("func error", "  int func_error_err = errno;\n", postfix)]
    }

    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        cx.saved = cx.proc.errno() as u64;
        HookAction::Continue
    }

    fn after(&self, cx: &mut CallCx<'_>, _result: &mut Result<CVal, Fault>) {
        let before = cx.saved as i32;
        let now = cx.proc.errno();
        if now != before {
            self.stats.record_func_errno(cx.func, now);
        }
    }
}

/// `collect errors`: process-wide errno histogram.
#[derive(Debug)]
pub struct CollectErrorsHook {
    stats: Arc<Stats>,
}

impl CollectErrorsHook {
    /// Builds the hook over shared statistics.
    pub fn new(stats: Arc<Stats>) -> Self {
        CollectErrorsHook { stats }
    }
}

impl Hook for CollectErrorsHook {
    fn name(&self) -> &'static str {
        "collect errors"
    }

    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Observe]
    }

    fn fragments(&self, _cx: &CodegenCx<'_>) -> Vec<Fragment> {
        let postfix = concat!(
            "  if (collect_errors_err != errno)\n",
            "    if (errno < 0 || errno >= MAX_ERRNO)\n",
            "      ++collect_errors_cnter[MAX_ERRNO];\n",
            "    else\n",
            "      ++collect_errors_cnter[errno];\n",
        );
        vec![Fragment::new(
            "collect errors",
            "  int collect_errors_err = errno;\n",
            postfix,
        )]
    }

    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        cx.saved = cx.proc.errno() as u64;
        HookAction::Continue
    }

    fn after(&self, cx: &mut CallCx<'_>, _result: &mut Result<CVal, Fault>) {
        let before = cx.saved as i32;
        let now = cx.proc.errno();
        if now != before {
            self.stats.record_global_errno(now);
        }
    }
}

/// `log call`: appends `func(arg, ...)` to a shared log.
#[derive(Debug)]
pub struct LogCallHook {
    log: CallLog,
}

impl LogCallHook {
    /// Builds the hook over a shared log.
    pub fn new(log: CallLog) -> Self {
        LogCallHook { log }
    }
}

impl Hook for LogCallHook {
    fn name(&self) -> &'static str {
        "log call"
    }

    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Observe]
    }

    fn fragments(&self, cx: &CodegenCx<'_>) -> Vec<Fragment> {
        let prefix = format!("  healers_log(\"{}({})\");\n", cx.proto.name, cx.arg_list());
        vec![Fragment::new("log call", prefix, "")]
    }

    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        let args = cx.args.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ");
        self.log.lock().push(format!("{}({args})", cx.func));
        HookAction::Continue
    }
}

/// Flight recorder as a hook: appends every call — function, rendered
/// arguments, final verdict, cycles spent — to the call ring of a
/// journal. Installed *first* in the pipeline so its `after` runs last
/// and observes the final result, including faults raised and
/// substitutions made by every other hook. Per-call recording is a side
/// effect, so the hook never fuses; generated wrappers
/// record the same entries from their compiled epilogue instead
/// ([`crate::WrapperConfig::flight_recorder`]), and this hook is the
/// reference that epilogue is tested against.
#[derive(Debug)]
pub struct FlightRecorderHook {
    journal: Arc<WrapperJournal>,
}

impl FlightRecorderHook {
    /// Builds the hook over a journal with a call ring.
    pub fn new(journal: Arc<WrapperJournal>) -> Self {
        FlightRecorderHook { journal }
    }
}

impl Hook for FlightRecorderHook {
    fn name(&self) -> &'static str {
        "flight recorder"
    }

    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Observe]
    }

    fn after(&self, cx: &mut CallCx<'_>, result: &mut Result<CVal, Fault>) {
        let args = format!(
            "({})",
            cx.args.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ")
        );
        let verdict = match result {
            Ok(_) => "ok".to_string(),
            Err(f) => f.to_string(),
        };
        let cycles = cx.proc.cycles().saturating_sub(cx.entry_cycles);
        self.journal.record_call(cx.func, &args, &verdict, cycles);
    }
}

/// At-termination reporting: "Just before the application terminates,
/// the collection code is called to send the gathered information to a
/// central server" (§2.3). Hooked onto `exit`, it submits exactly one
/// document per `exit` to the collection service: the call statistics
/// plus the views of the wrapper's journal — its decisions for a
/// healing wrapper, the call ring and the oblivious absorptions when
/// there are any — stamped with the process's fleet identity when it
/// has one.
#[derive(Debug)]
pub struct ExitReportHook {
    stats: Arc<Stats>,
    journal: Arc<WrapperJournal>,
    app: String,
    kind: WrapperKind,
    sink: FleetCollector,
    /// The last document shipped, read back through
    /// [`crate::WrapperLibrary::shipped_document`].
    shipped: Mutex<Option<String>>,
}

impl ExitReportHook {
    /// Builds the hook shipping the statistics in `stats` and the views
    /// of `journal` to `sink`, as a document of wrapper type `kind`.
    pub fn new(
        stats: Arc<Stats>,
        journal: Arc<WrapperJournal>,
        app: impl Into<String>,
        kind: WrapperKind,
        sink: FleetCollector,
    ) -> Self {
        ExitReportHook {
            stats,
            journal,
            app: app.into(),
            kind,
            sink,
            shipped: Mutex::new(None),
        }
    }

    /// Renders the document as of now for a process with fleet identity
    /// `identity` (`(instance, window, seed)`, see
    /// [`simproc::Proc::fleet_identity`]). The fleet meta attributes are
    /// present exactly when the process has an identity.
    fn render(&self, identity: Option<(u64, u64, u64)>) -> String {
        let meta = identity.map(|(instance, window, _seed)| FleetMeta {
            instance,
            window,
            crashed_in: None,
            fault: None,
        });
        let snap = self.stats.snapshot();
        // A healing wrapper discloses its decisions even when it took
        // none; the other kinds take none to disclose.
        let events = (self.kind == WrapperKind::Healing).then(|| self.journal.snapshot());
        let tail = self.journal.tail();
        let oblivious = self.journal.oblivious();
        render_document(
            &self.app,
            self.kind.tag(),
            &snap,
            &DocSections {
                meta: meta.as_ref(),
                healing: events.as_deref(),
                healing_dropped: self.journal.dropped(),
                flight: &tail,
                oblivious: Some(&oblivious),
            },
        )
    }

    /// The document this hook last shipped, byte for byte, if any.
    pub(crate) fn shipped(&self) -> Option<String> {
        self.shipped.lock().clone()
    }
}

impl Hook for ExitReportHook {
    fn name(&self) -> &'static str {
        "collect"
    }

    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        vec![HookOp::Observe]
    }

    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        if cx.func == "exit" {
            let doc = self.render(cx.proc.fleet_identity());
            self.sink.submit_until_accepted(&doc);
            *self.shipped.lock() = Some(doc);
        }
        HookAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::WrappedFn;
    use cdecl::{parse_prototype, TypedefTable};
    use simlibc::testutil::libc_proc;
    use simproc::errno::EINVAL;

    fn proto(s: &str) -> cdecl::Prototype {
        parse_prototype(s, &TypedefTable::with_builtins()).unwrap()
    }

    fn oracle() -> GuardOracle {
        GuardOracle::new(Arc::new(CanaryRegistry::new()))
    }

    #[test]
    fn arg_check_contains_a_null_strlen() {
        let p = proto("size_t strlen(const char *s);");
        let hook = ArgCheckHook::new(
            vec![SafePred::CStr],
            p.ret.clone(),
            oracle(),
            PolicyEngine::containment(),
        );
        let f = WrappedFn::new(
            p,
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![Arc::new(hook)],
        );
        let mut proc = libc_proc();
        let r = f.call(&mut proc, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(-1));
        assert_eq!(proc.errno(), EINVAL);
        // Valid calls pass through untouched.
        let s = proc.alloc_cstr("ok");
        assert_eq!(f.call(&mut proc, &[CVal::Ptr(s)]).unwrap(), CVal::Int(2));
    }

    #[test]
    fn arg_check_terminate_mode_denies() {
        let p = proto("char *strcpy(char *dest, const char *src);");
        let hook = ArgCheckHook::new(
            vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr],
            p.ret.clone(),
            oracle(),
            PolicyEngine::terminating(),
        );
        let f = WrappedFn::new(
            p,
            simlibc::find_symbol("strcpy").unwrap().imp,
            vec![Arc::new(hook)],
        );
        let mut proc = libc_proc();
        let small = simlibc::heap::malloc(&mut proc, 4).unwrap();
        let big = proc.alloc_cstr(&"A".repeat(100));
        let err = f.call(&mut proc, &[CVal::Ptr(small), CVal::Ptr(big)]).unwrap_err();
        assert!(matches!(err, Fault::SecurityViolation { .. }), "{err}");
    }

    #[test]
    fn heal_policy_repairs_an_oversized_strcpy() {
        let p = proto("char *strcpy(char *dest, const char *src);");
        let journal = Arc::new(WrapperJournal::new());
        let o = oracle();
        let hook = ArgCheckHook::with_journal(
            vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr],
            p.ret.clone(),
            o.clone(),
            PolicyEngine::healing(),
            Arc::clone(&journal),
        );
        let f = WrappedFn::new(
            p,
            simlibc::find_symbol("strcpy").unwrap().imp,
            vec![Arc::new(hook)],
        );
        let mut proc = libc_proc();
        let small = simlibc::heap::malloc(&mut proc, 4).unwrap();
        use simproc::ExtentOracle as _;
        let ext = o.writable_extent(&proc, small).unwrap();
        let big = proc.alloc_cstr(&"A".repeat(100));
        // The overflow becomes a truncated, in-bounds copy.
        let r = f.call(&mut proc, &[CVal::Ptr(small), CVal::Ptr(big)]).unwrap();
        assert_eq!(r, CVal::Ptr(small));
        assert_eq!(proc.read_cstr_lossy(small), "A".repeat(ext as usize - 1));
        assert_eq!(
            journal.count(profiler::HealAction::Repaired),
            1,
            "{:?}",
            journal.snapshot()
        );
    }

    #[test]
    fn heal_policy_substitutes_for_a_null_strlen() {
        let p = proto("size_t strlen(const char *s);");
        let journal = Arc::new(WrapperJournal::new());
        let hook = ArgCheckHook::with_journal(
            vec![SafePred::CStr],
            p.ret.clone(),
            oracle(),
            PolicyEngine::healing(),
            Arc::clone(&journal),
        );
        let f = WrappedFn::new(
            p,
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![Arc::new(hook)],
        );
        let mut proc = libc_proc();
        // strlen(NULL) heals to strlen("") == 0 instead of crashing or
        // being rejected.
        let r = f.call(&mut proc, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(0));
        assert!(!journal.is_empty());
        let ev = &journal.snapshot()[0];
        assert_eq!(ev.class, "null-pointer");
        assert_eq!(ev.action, profiler::HealAction::Repaired);
    }

    #[test]
    fn a_call_missing_a_checked_argument_gets_its_policys_answer() {
        // `strlen()` with no argument: the missing `s` violates `CStr`
        // and has no slot to repair, so every engine answers as for a
        // violation without a safe repair — none may panic the host.
        let p = proto("size_t strlen(const char *s);");
        let cases = [
            (PolicyEngine::containment(), Ok(CVal::Int(-1)), HealAction::Contained),
            (PolicyEngine::healing(), Ok(CVal::Int(-1)), HealAction::Contained),
            (
                PolicyEngine::new(Policy::Oblivious),
                Ok(CVal::Int(0)),
                HealAction::Obliviated,
            ),
        ];
        for (engine, expect, action) in cases {
            let journal = Arc::new(WrapperJournal::new());
            let hook = ArgCheckHook::with_journal(
                vec![SafePred::CStr],
                p.ret.clone(),
                oracle(),
                engine.clone(),
                Arc::clone(&journal),
            );
            let f = WrappedFn::new(
                p.clone(),
                simlibc::find_symbol("strlen").unwrap().imp,
                vec![Arc::new(hook)],
            );
            let mut proc = libc_proc();
            assert_eq!(f.call(&mut proc, &[]), expect, "{engine:?}");
            let events = journal.snapshot();
            assert_eq!(events.len(), 1, "{engine:?}: {events:?}");
            assert_eq!((events[0].arg, events[0].action), (Some(0), action), "{engine:?}");
            assert_eq!(events[0].class, "null-pointer", "{engine:?}");
        }
        let hook = ArgCheckHook::new(
            vec![SafePred::CStr],
            p.ret.clone(),
            oracle(),
            PolicyEngine::terminating(),
        );
        let f = WrappedFn::new(
            p,
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![Arc::new(hook)],
        );
        let err = f.call(&mut libc_proc(), &[]).unwrap_err();
        assert!(matches!(err, Fault::SecurityViolation { .. }), "{err}");
    }

    #[test]
    fn oblivious_policy_skips_the_call_without_errno() {
        let p = proto("size_t strlen(const char *s);");
        let hook = ArgCheckHook::new(
            vec![SafePred::CStr],
            p.ret.clone(),
            oracle(),
            PolicyEngine::new(crate::policy::Policy::Oblivious),
        );
        let f = WrappedFn::new(
            p,
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![Arc::new(hook)],
        );
        let mut proc = libc_proc();
        let errno_before = proc.errno();
        let r = f.call(&mut proc, &[CVal::NULL]).unwrap();
        assert_eq!(r, CVal::Int(0), "NULL scans as a manufactured empty string");
        assert_eq!(proc.errno(), errno_before, "errno untouched");
    }

    #[test]
    fn oblivious_journal_records_reads_writes_and_tainted_uses() {
        let journal = Arc::new(WrapperJournal::new());
        let defaults: Arc<BTreeSet<String>> =
            Arc::new(["strstr".to_string()].into_iter().collect());
        let engine = PolicyEngine::new(crate::policy::Policy::Oblivious);
        let o = oracle();
        let mk = |sig: &str, name: &str, preds: Vec<SafePred>| {
            let p = proto(sig);
            let j = Arc::clone(&journal);
            let hook = ArgCheckHook::with_journal(
                preds,
                p.ret.clone(),
                o.clone(),
                engine.clone(),
                j,
            )
            .with_oblivious()
            .with_contract_defaults(Arc::clone(&defaults));
            let f = WrappedFn::new(
                p,
                simlibc::find_symbol(name).unwrap().imp,
                vec![Arc::new(hook)],
            );
            assert!(!f.has_plan(), "taint tracking must keep the hook unfused");
            f
        };
        let strcpy = mk(
            "char *strcpy(char *dest, const char *src);",
            "strcpy",
            vec![SafePred::HoldsCStrOf { src: 1 }, SafePred::CStr],
        );
        let strstr = mk(
            "char *strstr(const char *haystack, const char *needle);",
            "strstr",
            vec![SafePred::CStr, SafePred::CStr],
        );
        let strlen = mk("size_t strlen(const char *s);", "strlen", vec![SafePred::CStr]);

        let mut proc = libc_proc();
        // A suppressed overflow: the destination is untouched, the write
        // is measured and attributed.
        let dest = simlibc::heap::malloc(&mut proc, 8).unwrap();
        let big = proc.alloc_cstr(&"A".repeat(60));
        let r = strcpy.call(&mut proc, &[CVal::Ptr(dest), CVal::Ptr(big)]).unwrap();
        assert_eq!(r, CVal::Ptr(dest), "reports success");
        assert_eq!(proc.read_cstr_lossy(dest), "", "nothing was written");
        // One absorbed call, one decision: the write rides on it.
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.oblivious().absorbed, journal.snapshot());

        // A contract-derived manufactured pointer, then a downstream
        // consumer of it: the taint propagates into the audit.
        let needle = proc.alloc_cstr("x");
        let fabricated =
            strstr.call(&mut proc, &[CVal::NULL, CVal::Ptr(needle)]).unwrap().as_ptr();
        assert!(!fabricated.is_null());
        let n = strlen.call(&mut proc, &[CVal::Ptr(fabricated)]).unwrap();
        assert_eq!(n, CVal::Int(0), "the manufactured empty string scans clean");

        let snap = journal.oblivious();
        let writes: Vec<_> = snap.writes().collect();
        assert_eq!(writes.len(), 1, "{snap:?}");
        assert_eq!(writes[0].0.func, "strcpy");
        assert_eq!(writes[0].1.attempted, 61);
        assert!(writes[0].1.clipped > 0);
        assert!(
            snap.reads().any(|(e, r)| e.func == "strstr" && r.role == "contract-default"),
            "{snap:?}"
        );
        assert!(
            snap.uses.iter().any(|u| u.func == "strlen" && u.arg == 0),
            "downstream consumption must be journaled: {snap:?}"
        );
        assert_eq!(snap.dropped, 0);
        assert_eq!(journal.len(), 2, "two absorptions; the tainted use is no decision");
    }

    #[test]
    fn unfixable_violation_falls_back_to_containment() {
        let p = proto("int fclose(FILE *stream);");
        let journal = Arc::new(WrapperJournal::new());
        let hook = ArgCheckHook::with_journal(
            vec![SafePred::ValidFilePtr],
            p.ret.clone(),
            oracle(),
            PolicyEngine::healing(),
            Arc::clone(&journal),
        );
        let f = WrappedFn::new(
            p,
            simlibc::find_symbol("fclose").unwrap().imp,
            vec![Arc::new(hook)],
        );
        let mut proc = libc_proc();
        let bogus = proc.alloc_data_zeroed(16);
        let r = f.call(&mut proc, &[CVal::Ptr(bogus)]).unwrap();
        assert_eq!(r, CVal::Int(-1));
        assert_eq!(proc.errno(), EINVAL);
        assert_eq!(journal.count(profiler::HealAction::Contained), 1);
    }

    fn canary_wrapped(name: &str, registry: &Arc<CanaryRegistry>) -> WrappedFn {
        let sym = simlibc::find_symbol(name).unwrap();
        let p = simlibc::prototypes().into_iter().find(|p| p.name == name).unwrap();
        WrappedFn::new(p, sym.imp, vec![Arc::new(CanaryHook::new(Arc::clone(registry)))])
    }

    #[test]
    fn canary_hook_protects_malloc_and_checks_free() {
        let registry = Arc::new(CanaryRegistry::new());
        let malloc = canary_wrapped("malloc", &registry);
        let free = canary_wrapped("free", &registry);
        let mut p = libc_proc();
        let buf = malloc.call(&mut p, &[CVal::Int(16)]).unwrap().as_ptr();
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.extent_within(buf), Some(16));
        // Clean free passes and releases.
        free.call(&mut p, &[CVal::Ptr(buf)]).unwrap();
        assert!(registry.is_empty());

        // Overflow then free: denied.
        let buf = malloc.call(&mut p, &[CVal::Int(8)]).unwrap().as_ptr();
        p.mem.write_bytes(buf, &[0x41; 9]).unwrap(); // one byte too many
        let err = free.call(&mut p, &[CVal::Ptr(buf)]).unwrap_err();
        assert!(matches!(err, Fault::SecurityViolation { .. }));
    }

    #[test]
    fn canary_hook_calloc_and_realloc() {
        let registry = Arc::new(CanaryRegistry::new());
        let calloc = canary_wrapped("calloc", &registry);
        let realloc = canary_wrapped("realloc", &registry);
        let mut p = libc_proc();
        let buf = calloc.call(&mut p, &[CVal::Int(4), CVal::Int(8)]).unwrap().as_ptr();
        assert_eq!(registry.extent_within(buf), Some(32));
        assert_eq!(p.read_bytes(buf, 32).unwrap(), vec![0u8; 32]);

        let grown =
            realloc.call(&mut p, &[CVal::Ptr(buf), CVal::Int(64)]).unwrap().as_ptr();
        assert_eq!(registry.extent_within(grown), Some(64));
        assert_eq!(registry.len(), 1, "old registration released");

        // realloc of a corrupted block is denied.
        p.mem.write_u8(grown.add(64), 1).unwrap();
        let err = realloc.call(&mut p, &[CVal::Ptr(grown), CVal::Int(128)]).unwrap_err();
        assert!(matches!(err, Fault::SecurityViolation { .. }));
    }

    #[test]
    fn huge_allocation_requests_fail_cleanly_not_fatally() {
        // Inflating by the guard word must never wrap: malloc(huge)
        // returns NULL through the wrapper exactly as it does bare.
        let registry = Arc::new(CanaryRegistry::new());
        let malloc = canary_wrapped("malloc", &registry);
        let calloc = canary_wrapped("calloc", &registry);
        let realloc = canary_wrapped("realloc", &registry);
        let mut p = libc_proc();
        for huge in [u64::MAX, u64::MAX - 4] {
            let r = malloc.call(&mut p, &[CVal::Int(huge as i64)]).unwrap();
            assert!(r.is_null(), "malloc({huge:#x})");
        }
        let r = calloc.call(&mut p, &[CVal::Int(1), CVal::Int(-3)]).unwrap();
        assert!(r.is_null());
        let buf = malloc.call(&mut p, &[CVal::Int(16)]).unwrap();
        let r = realloc.call(&mut p, &[buf, CVal::Int(-2)]).unwrap();
        assert!(r.is_null(), "realloc to huge fails cleanly");
        // The original block survives the failed realloc, still guarded.
        assert!(registry.verify(&p, buf.as_ptr()).unwrap().is_some());
        assert_eq!(p.errno(), simproc::errno::ENOMEM);
    }

    #[test]
    fn exit_sweep_catches_smashed_heap() {
        let registry = Arc::new(CanaryRegistry::new());
        let malloc = canary_wrapped("malloc", &registry);
        let exit = canary_wrapped("exit", &registry);
        let mut p = libc_proc();
        let buf = malloc.call(&mut p, &[CVal::Int(8)]).unwrap().as_ptr();
        p.mem.write_u8(buf.add(8), 0x41).unwrap();
        let err = exit.call(&mut p, &[CVal::Int(0)]).unwrap_err();
        assert!(
            matches!(err, Fault::SecurityViolation { .. }),
            "sweep must fire before atexit handlers: {err}"
        );
    }

    #[test]
    fn profiling_hooks_fill_stats() {
        let stats = Arc::new(Stats::new());
        let p5 = proto("char *fgets(char *s, int size, FILE *stream);");
        let hooks: Vec<Arc<dyn Hook>> = vec![
            Arc::new(ExectimeHook::new(Arc::clone(&stats))),
            Arc::new(CollectErrorsHook::new(Arc::clone(&stats))),
            Arc::new(FuncErrorsHook::new(Arc::clone(&stats))),
            Arc::new(CallCounterHook::new(Arc::clone(&stats))),
        ];
        let f = WrappedFn::new(p5, simlibc::find_symbol("fgets").unwrap().imp, hooks);
        let mut proc = libc_proc();
        // A call that fails gracefully (bad FILE*).
        let fake = proc.alloc_data_zeroed(16);
        let buf = proc.alloc_data_zeroed(16);
        let r =
            f.call(&mut proc, &[CVal::Ptr(buf), CVal::Int(16), CVal::Ptr(fake)]).unwrap();
        assert!(r.is_null());
        let snap = stats.snapshot();
        assert_eq!(snap.per_func["fgets"].calls, 1);
        assert!(snap.per_func["fgets"].cycles > 0);
        assert_eq!(snap.per_func["fgets"].errnos[&simproc::errno::EBADF], 1, "{snap:?}");
        assert_eq!(snap.global_errnos[&simproc::errno::EBADF], 1);
    }

    #[test]
    fn log_hook_records_calls() {
        let log: CallLog = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let p = proto("int abs(int j);");
        let f = WrappedFn::new(
            p,
            simlibc::find_symbol("abs").unwrap().imp,
            vec![Arc::new(LogCallHook::new(Arc::clone(&log)))],
        );
        let mut proc = libc_proc();
        f.call(&mut proc, &[CVal::Int(-3)]).unwrap();
        assert_eq!(*log.lock(), vec!["abs(-3)"]);
    }

    #[test]
    fn flight_recorder_captures_calls_and_verdicts() {
        let journal = Arc::new(WrapperJournal::new().with_ring(3));
        let p = proto("size_t strlen(const char *s);");
        let check = ArgCheckHook::new(
            vec![SafePred::CStr],
            p.ret.clone(),
            oracle(),
            PolicyEngine::terminating(),
        );
        // Recorder first: its `after` runs last and sees the verdict of
        // every downstream hook, deny included.
        let hooks: Vec<Arc<dyn Hook>> =
            vec![Arc::new(FlightRecorderHook::new(Arc::clone(&journal))), Arc::new(check)];
        let f = WrappedFn::new(p, simlibc::find_symbol("strlen").unwrap().imp, hooks);
        let mut proc = libc_proc();
        let s = proc.alloc_cstr("hi");
        assert_eq!(f.call(&mut proc, &[CVal::Ptr(s)]).unwrap(), CVal::Int(2));
        let err = f.call(&mut proc, &[CVal::NULL]).unwrap_err();
        assert!(matches!(err, Fault::SecurityViolation { .. }));
        let tail = journal.tail();
        assert_eq!(tail.len(), 2, "{tail:?}");
        assert_eq!(tail[0].func, "strlen");
        assert_eq!(tail[0].verdict, "ok");
        assert_eq!(tail[1].verdict, err.to_string());
        assert!(tail[1].args.contains("NULL") || tail[1].args.contains("0x0"), "{tail:?}");
    }

    #[test]
    fn arg_check_with_stats_records_check_and_heal_stages() {
        let stats = Arc::new(Stats::new());
        let p = proto("size_t strlen(const char *s);");
        let hook = ArgCheckHook::with_journal(
            vec![SafePred::CStr],
            p.ret.clone(),
            oracle(),
            PolicyEngine::healing(),
            Arc::new(WrapperJournal::new()),
        )
        .with_stats(Arc::clone(&stats));
        let f = WrappedFn::new(
            p,
            simlibc::find_symbol("strlen").unwrap().imp,
            vec![Arc::new(hook)],
        );
        assert!(!f.has_plan(), "stage recording must keep the hook unfused");
        let mut proc = libc_proc();
        let s = proc.alloc_cstr("ok");
        f.call(&mut proc, &[CVal::Ptr(s)]).unwrap();
        f.call(&mut proc, &[CVal::NULL]).unwrap(); // heals NULL -> ""
        let snap = stats.snapshot();
        assert_eq!(snap.per_func["strlen"].latency["check"].count(), 2, "{snap:?}");
        assert_eq!(snap.per_func["strlen"].latency["heal"].count(), 1, "{snap:?}");
    }

    #[test]
    fn exit_report_submits_one_document_per_exit() {
        let service = profiler::FleetService::start(profiler::FleetConfig::central());
        let stats = Arc::new(Stats::new());
        stats.record_call("strlen", 10, None);
        let p = proto("void exit(int status);");
        let hook = Arc::new(ExitReportHook::new(
            Arc::clone(&stats),
            Arc::new(WrapperJournal::new()),
            "demo-app",
            WrapperKind::Profiling,
            service.collector(),
        ));
        let hooks: Vec<Arc<dyn Hook>> = vec![hook.clone()];
        let f = WrappedFn::new(p, simlibc::find_symbol("exit").unwrap().imp, hooks);
        let mut proc = libc_proc();
        let err = f.call(&mut proc, &[CVal::Int(0)]).unwrap_err();
        assert_eq!(err, Fault::Exit(0));
        let doc = hook.shipped().expect("exit shipped a document");
        assert!(!doc.contains("instance="), "standalone process, no fleet meta: {doc}");
        let out = service.shutdown();
        assert_eq!(out.accounting.accepted(), 1, "exactly one document per exit");
        assert!(out.accounting.balanced());
        assert_eq!(out.rollup.per_app["demo-app"].docs, 1);
        assert_eq!(out.rollup.per_func["strlen"].calls, 1);
    }

    #[test]
    fn exit_report_stamps_fleet_identity_when_present() {
        let service = profiler::FleetService::start(profiler::FleetConfig::central());
        let stats = Arc::new(Stats::new());
        let journal = Arc::new(WrapperJournal::new());
        let hook = ExitReportHook::new(
            stats,
            journal,
            "fleet-app",
            WrapperKind::Healing,
            service.collector(),
        );
        let f = WrappedFn::new(
            proto("void exit(int status);"),
            simlibc::find_symbol("exit").unwrap().imp,
            vec![Arc::new(hook)],
        );
        let mut proc = libc_proc();
        proc.set_fleet_identity(7, 3, 99);
        assert_eq!(f.call(&mut proc, &[CVal::Int(0)]), Err(Fault::Exit(0)));
        let out = service.shutdown();
        assert_eq!(out.accounting.accepted(), 1);
        assert_eq!(out.rollup.windows.keys().copied().collect::<Vec<_>>(), vec![3]);
    }
}
