//! `substitute`: the safer-variant micro-generator. Where the analyzer's
//! flow-sensitive substitution analysis proved the rewrite sound (a
//! [`SubstitutionPlan`] with its discharged proof), the fragile call is
//! rerouted to a bounded variant clipped to the oracle's *exact* extent
//! answer ([`guardian::GuardOracle`]'s `extent_right`):
//!
//! * `strcpy(dst, src)`  → bounded copy of `min(strlen(src), extent-1)`;
//! * `strcat(dst, src)`  → bounded append within the remaining extent;
//! * `sprintf(dst, ...)` → `snprintf(dst, extent, ...)`.
//!
//! The overflow is thereby *prevented*, not canary-detected: the process
//! keeps running with a clipped (journaled, [`HealAction::Prevented`])
//! write instead of being terminated after the fact. In-contract calls
//! are byte-for-byte identical to the unsubstituted library — `snprintf`
//! returns the full rendered length exactly as `sprintf` does, and a
//! source that fits is copied whole — which is what the same-seed
//! divergence gate in the injector's substitution trial checks.

use std::sync::Arc;

use cdecl::CType;
use guardian::GuardOracle;
use profiler::{HealAction, HealEvent, WrapperJournal};
use simproc::{CVal, ExtentOracle, VirtAddr};
use typelattice::{peek_cstr_len, SafePred, SubstFamily, SubstitutionPlan};

use crate::codegen::{CodegenCx, Fragment};
use crate::runtime::{reject, CallCx, Hook, HookAction, HookOp};

/// Runtime hook carrying one proven substitution plan. Never fused:
/// the rewrite consults the extent oracle and performs the bounded write
/// itself, short-circuiting the fragile original entirely.
#[derive(Debug)]
pub struct SubstituteHook {
    plan: SubstitutionPlan,
    oracle: GuardOracle,
    journal: Arc<WrapperJournal>,
    ret: CType,
}

impl SubstituteHook {
    /// Builds the hook from a proven plan.
    pub fn new(
        plan: SubstitutionPlan,
        oracle: GuardOracle,
        journal: Arc<WrapperJournal>,
        ret: CType,
    ) -> Self {
        SubstituteHook { plan, oracle, journal, ret }
    }

    /// The plan this hook enforces.
    pub fn plan(&self) -> &SubstitutionPlan {
        &self.plan
    }

    fn journal_prevented(&self, cx: &CallCx<'_>, detail: String) {
        self.journal.record(HealEvent {
            func: cx.func.to_string(),
            arg: Some(self.plan.dst_arg),
            violation: format!("write exceeds extent_right(arg{})", self.plan.dst_arg + 1),
            class: "overflow".into(),
            action: HealAction::Prevented,
            detail,
            absorbed: None,
        });
    }

    fn journal_contained(&self, cx: &CallCx<'_>, detail: &str) {
        self.journal.record(HealEvent {
            func: cx.func.to_string(),
            arg: Some(self.plan.dst_arg),
            violation: "substitution precondition unmeasurable".into(),
            class: "overflow".into(),
            action: HealAction::Contained,
            detail: detail.into(),
            absorbed: None,
        });
    }

    /// `strcpy`: copy `min(strlen(src), extent-1)` bytes plus NUL.
    fn strcpy(&self, cx: &mut CallCx<'_>) -> HookAction {
        let dst = cx.args[0].as_ptr();
        let src = cx.args[1].as_ptr();
        let Some(len) = peek_cstr_len(cx.proc, src) else {
            self.journal_contained(cx, "source is not a measurable C string");
            return reject(cx.proc, &self.ret);
        };
        let Some(ext) = self.oracle.extent_right(cx.proc, dst) else {
            self.journal_contained(cx, "destination has no writable extent");
            return reject(cx.proc, &self.ret);
        };
        let n = len.min(ext.saturating_sub(1));
        match self.bounded_copy(cx, src, dst, n) {
            Ok(()) => {}
            Err(detail) => {
                self.journal_contained(cx, &detail);
                return reject(cx.proc, &self.ret);
            }
        }
        if n < len {
            self.journal_prevented(
                cx,
                format!("strcpy clipped to {n} of {len} bytes (extent_right(dst) = {ext})"),
            );
        }
        HookAction::ShortCircuit(CVal::Ptr(dst))
    }

    /// `strcat`: append within `extent - strlen(dst) - 1`.
    fn strcat(&self, cx: &mut CallCx<'_>) -> HookAction {
        let dst = cx.args[0].as_ptr();
        let src = cx.args[1].as_ptr();
        let Some(len) = peek_cstr_len(cx.proc, src) else {
            self.journal_contained(cx, "source is not a measurable C string");
            return reject(cx.proc, &self.ret);
        };
        let Some(ext) = self.oracle.extent_right(cx.proc, dst) else {
            self.journal_contained(cx, "destination has no writable extent");
            return reject(cx.proc, &self.ret);
        };
        // The destination must itself terminate within its extent, or
        // the append has no legal anchor.
        let Some(dpos) = peek_cstr_len(cx.proc, dst).filter(|l| *l < ext) else {
            self.journal_contained(cx, "destination is not NUL-terminated in extent");
            return reject(cx.proc, &self.ret);
        };
        let avail = (ext - dpos).saturating_sub(1);
        let n = len.min(avail);
        match self.bounded_copy(cx, src, dst.add(dpos), n) {
            Ok(()) => {}
            Err(detail) => {
                self.journal_contained(cx, &detail);
                return reject(cx.proc, &self.ret);
            }
        }
        if n < len {
            self.journal_prevented(
                cx,
                format!(
                    "strcat clipped to {n} of {len} bytes \
                     (extent_right(dst) = {ext}, strlen(dst) = {dpos})"
                ),
            );
        }
        HookAction::ShortCircuit(CVal::Ptr(dst))
    }

    /// `sprintf`: delegate to the library's own `snprintf` with the
    /// oracle's exact extent as the bound. `snprintf` returns the full
    /// rendered length exactly as `sprintf` does, so the return value is
    /// identical even when the write is clipped.
    fn sprintf(&self, cx: &mut CallCx<'_>) -> HookAction {
        let dst = cx.args[0].as_ptr();
        let Some(ext) = self.oracle.extent_right(cx.proc, dst) else {
            self.journal_contained(cx, "destination has no writable extent");
            return reject(cx.proc, &self.ret);
        };
        let mut bounded = Vec::with_capacity(cx.args.len() + 1);
        bounded.push(cx.args[0]);
        bounded.push(CVal::Int(ext as i64));
        bounded.extend_from_slice(&cx.args[1..]);
        match simlibc::stdio::snprintf(cx.proc, &bounded) {
            Ok(ret) => {
                let rendered = ret.as_int().max(0) as u64;
                if rendered >= ext {
                    self.journal_prevented(
                        cx,
                        format!(
                            "sprintf rendered {rendered} bytes, clipped to \
                             {} (extent_right(dst) = {ext})",
                            ext.saturating_sub(1)
                        ),
                    );
                }
                HookAction::ShortCircuit(ret)
            }
            // A format-path fault (bad fmt pointer, wild vararg string)
            // propagates exactly as the fragile original would raise it.
            Err(fault) => HookAction::Deny(fault),
        }
    }

    fn bounded_copy(
        &self,
        cx: &mut CallCx<'_>,
        src: VirtAddr,
        dst: VirtAddr,
        n: u64,
    ) -> Result<(), String> {
        let bytes =
            cx.proc.read_bytes(src, n).map_err(|f| format!("source unreadable: {f}"))?;
        cx.proc
            .write_bytes(dst, &bytes)
            .and_then(|()| cx.proc.write_u8(dst.add(n), 0))
            .map_err(|f| format!("destination unwritable: {f}"))
    }
}

impl Hook for SubstituteHook {
    fn name(&self) -> &'static str {
        "substitute"
    }

    fn provenance(&self) -> &str {
        "analysis"
    }

    fn ops(&self, _proto: &cdecl::Prototype) -> Vec<HookOp> {
        let dst = self.plan.dst_arg;
        let src = self.plan.src_arg;
        vec![
            HookOp::Check {
                arg: src,
                pred: Some(SafePred::CStr),
                label: "measure source length".into(),
                null_guarded: true,
                memoized: false,
            },
            HookOp::Check {
                arg: dst,
                pred: Some(SafePred::Writable(1)),
                label: "extent_right(dst)".into(),
                null_guarded: true,
                memoized: false,
            },
            HookOp::Mutate { arg: dst, label: self.plan.family.variant().into() },
        ]
    }

    /// The C fragment a real deployment would compile in place of the
    /// fragile call.
    fn fragments(&self, cx: &CodegenCx<'_>) -> Vec<Fragment> {
        let dst = cx.param(self.plan.dst_arg);
        let call = match self.plan.family {
            SubstFamily::Strcpy => format!("healers_bounded_strcpy({dst}, src, __ext)"),
            SubstFamily::Strcat => format!("healers_bounded_strcat({dst}, src, __ext)"),
            SubstFamily::Sprintf => {
                format!("vsnprintf({dst}, __ext, format, __healers_va)")
            }
        };
        let (func, variant) = (&self.plan.func, self.plan.family.variant());
        let prefix = format!(
            "  /* proven substitution: {func} -> {variant} */\n  \
             size_t __ext = healers_extent_right({dst});\n  \
             return {call};\n"
        );
        vec![Fragment::new("substitute", prefix, "")]
    }

    fn before(&self, cx: &mut CallCx<'_>) -> HookAction {
        match self.plan.family {
            SubstFamily::Strcpy => self.strcpy(cx),
            SubstFamily::Strcat => self.strcat(cx),
            SubstFamily::Sprintf => self.sprintf(cx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardian::CanaryRegistry;
    use simlibc::heap;
    use simlibc::testutil::libc_proc;
    use typelattice::{ExtentClass, ProofStep};

    fn plan(family: SubstFamily) -> SubstitutionPlan {
        SubstitutionPlan {
            func: family.func().into(),
            family,
            dst_arg: 0,
            src_arg: 1,
            dst_extent: ExtentClass::ExactExtent,
            proof: vec![ProofStep {
                obligation: "test".into(),
                discharged_by: "fixture".into(),
            }],
        }
    }

    fn hook(family: SubstFamily) -> (SubstituteHook, Arc<WrapperJournal>) {
        let journal = Arc::new(WrapperJournal::new());
        let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
        let ret = simlibc::prototypes()
            .into_iter()
            .find(|pr| pr.name == family.func())
            .expect("family function is in simlibc")
            .ret;
        (SubstituteHook::new(plan(family), oracle, Arc::clone(&journal), ret), journal)
    }

    fn call(
        h: &SubstituteHook,
        p: &mut simproc::Proc,
        func: &str,
        mut args: Vec<CVal>,
    ) -> HookAction {
        let mut cx = CallCx { func, proc: p, args: &mut args, entry_cycles: 0, saved: 0 };
        h.before(&mut cx)
    }

    #[test]
    fn in_bounds_strcpy_is_byte_identical() {
        let (h, journal) = hook(SubstFamily::Strcpy);
        let mut p = libc_proc();
        let dst = heap::malloc(&mut p, 16).unwrap();
        let src = p.alloc_cstr("hello");
        let act = call(&h, &mut p, "strcpy", vec![CVal::Ptr(dst), CVal::Ptr(src)]);
        assert_eq!(act, HookAction::ShortCircuit(CVal::Ptr(dst)));
        assert_eq!(p.read_cstr_lossy(dst), "hello");
        assert!(journal.is_empty(), "in-bounds copies journal nothing");
    }

    #[test]
    fn overflowing_strcpy_is_clipped_and_journaled() {
        let (h, journal) = hook(SubstFamily::Strcpy);
        let mut p = libc_proc();
        let dst = heap::malloc(&mut p, 8).unwrap();
        let ext = h.oracle.extent_right(&p, dst).unwrap();
        let src = p.alloc_cstr(&"X".repeat(64));
        let act = call(&h, &mut p, "strcpy", vec![CVal::Ptr(dst), CVal::Ptr(src)]);
        assert_eq!(act, HookAction::ShortCircuit(CVal::Ptr(dst)));
        let copied = p.read_cstr_lossy(dst);
        assert_eq!(copied.len() as u64, ext - 1, "clipped to extent minus NUL");
        let events = journal.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].action, HealAction::Prevented);
        assert!(events[0].detail.contains("clipped"), "{:?}", events[0]);
    }

    #[test]
    fn strcat_appends_within_the_extent() {
        let (h, journal) = hook(SubstFamily::Strcat);
        let mut p = libc_proc();
        let dst = heap::malloc(&mut p, 8).unwrap();
        p.write_cstr(dst, b"ab").unwrap();
        let src = p.alloc_cstr("cd");
        let act = call(&h, &mut p, "strcat", vec![CVal::Ptr(dst), CVal::Ptr(src)]);
        assert_eq!(act, HookAction::ShortCircuit(CVal::Ptr(dst)));
        assert_eq!(p.read_cstr_lossy(dst), "abcd");
        assert!(journal.is_empty());
        // Overlong append clips at the extent and journals Prevented.
        let big = p.alloc_cstr(&"Y".repeat(64));
        call(&h, &mut p, "strcat", vec![CVal::Ptr(dst), CVal::Ptr(big)]);
        let ext = h.oracle.extent_right(&p, dst).unwrap();
        assert_eq!(p.read_cstr_lossy(dst).len() as u64, ext - 1);
        let events = journal.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].action, HealAction::Prevented);
    }

    #[test]
    fn sprintf_returns_the_full_rendered_length_even_when_clipped() {
        let (h, journal) = hook(SubstFamily::Sprintf);
        let mut p = libc_proc();
        let dst = heap::malloc(&mut p, 8).unwrap();
        let ext = h.oracle.extent_right(&p, dst).unwrap();
        let fmt = p.alloc_cstr("%s");
        let long = p.alloc_cstr(&"Z".repeat(40));
        let act = call(
            &h,
            &mut p,
            "sprintf",
            vec![CVal::Ptr(dst), CVal::Ptr(fmt), CVal::Ptr(long)],
        );
        // sprintf's contract: return the FULL rendered length.
        assert_eq!(act, HookAction::ShortCircuit(CVal::Int(40)));
        assert_eq!(p.read_cstr_lossy(dst).len() as u64, ext - 1, "write clipped");
        let events = journal.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].action, HealAction::Prevented);
    }

    #[test]
    fn unmeasurable_preconditions_reject_gracefully() {
        let (h, journal) = hook(SubstFamily::Strcpy);
        let mut p = libc_proc();
        let dst = heap::malloc(&mut p, 8).unwrap();
        // NULL source: no measurable string.
        let act = call(&h, &mut p, "strcpy", vec![CVal::Ptr(dst), CVal::NULL]);
        assert_eq!(act, HookAction::ShortCircuit(CVal::NULL));
        assert_eq!(p.errno(), simproc::errno::EINVAL);
        // Wild destination: no extent.
        let src = p.alloc_cstr("hi");
        let act = call(
            &h,
            &mut p,
            "strcpy",
            vec![CVal::Ptr(simproc::layout::WILD_ADDR), CVal::Ptr(src)],
        );
        assert_eq!(act, HookAction::ShortCircuit(CVal::NULL));
        let events = journal.snapshot();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.action == HealAction::Contained));
    }
}
