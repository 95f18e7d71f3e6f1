//! The graceful-degradation policy engine: *what* a wrapper does about a
//! contract violation, resolved per function and per violation class.
//!
//! The paper's wrappers know two responses — contain (robustness wrapper)
//! and terminate (security wrapper, §3.4). This module generalises that
//! binary choice into a policy lattice and adds the self-healing
//! responses on top: repair the offending argument in place before the
//! call ([`Policy::Heal`]), re-invoke the original after re-sanitizing
//! ([`Policy::Retry`]), or skip the call entirely and manufacture a
//! benign return ([`Policy::Oblivious`], the failure-oblivious response
//! of Rigger et al.).
//!
//! [`apply_repair`] is the executor for the [`typelattice::repair_hint`]
//! suggestions: it rewrites the argument vector using the guardian's
//! extent knowledge and reports a human-readable description of what it
//! did — the healing wrapper journals every such description.

use std::collections::BTreeMap;

use guardian::{nul_terminate_in_extent, truncate_cstr, GuardOracle};
use simproc::{CVal, ExtentOracle, Proc, VirtAddr};
use typelattice::{peek_cstr_len, repair_hint, RepairHint, SafePred};

/// How a wrapper responds to a violation (or, for the fault path, to a
/// fault escaping the original function).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Run the checks and journal violations, but let the call through
    /// unchanged — the fleet's baseline posture, where crashes stay
    /// visible so the remediation director has a signal to act on.
    Observe,
    /// Reject the call: `errno = EINVAL`, containment value returned.
    /// The classic robustness wrapper.
    Contain,
    /// Terminate the process. The security wrapper.
    Terminate,
    /// Repair the offending arguments in place before the call; fall
    /// back to containment when no safe repair exists.
    Heal,
    /// Heal, and additionally re-invoke the original (re-sanitizing
    /// in between) when it faults anyway — at most `max_attempts` times.
    Retry {
        /// Upper bound on re-invocations of the original.
        max_attempts: u32,
    },
    /// Failure-oblivious availability mode (Rigger et al., context-aware
    /// variant): violating *reads* are answered with a value manufactured
    /// per (function, argument role, violation class); violating *writes*
    /// are suppressed and the suppressed write is recorded. `errno`
    /// stays untouched and every absorption is journaled.
    Oblivious,
}

/// The class of contract violation, derived from the violated
/// [`SafePred`]. Policies can be keyed on this: terminate on buffer
/// overflows but heal unterminated strings, say.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationClass {
    /// A NULL pointer where an object is required.
    NullPointer,
    /// A pointer outside any known object.
    WildPointer,
    /// A string buffer with no terminator in reach.
    UnterminatedString,
    /// An operation that would write or read past its buffer's extent.
    BufferOverflow,
    /// An integer outside its safe domain.
    IntDomain,
    /// An invalid handle-like value (stream, function pointer,
    /// heap chunk, out-parameter cell).
    ResourceHandle,
}

impl ViolationClass {
    /// The class of a violation of `pred` by the value `val`.
    pub fn of(pred: &SafePred, val: CVal) -> ViolationClass {
        // NULL where any object is required is its own class, whatever
        // the predicate demanded of the object.
        let wants_object = !matches!(
            pred,
            SafePred::NullOr(_) | SafePred::HeapChunkOrNull | SafePred::PtrToCStrOrNull
        );
        if wants_object
            && !matches!(pred, SafePred::IntNonZero | SafePred::IntInRange { .. })
        {
            if let CVal::Ptr(p) = val {
                if p.is_null() {
                    return ViolationClass::NullPointer;
                }
            }
        }
        match pred {
            SafePred::Always => ViolationClass::WildPointer, // unreachable: never violated
            SafePred::NonNull => ViolationClass::NullPointer,
            SafePred::Readable(_) | SafePred::Writable(_) => ViolationClass::WildPointer,
            SafePred::CStr => ViolationClass::UnterminatedString,
            SafePred::HoldsCStrOf { .. }
            | SafePred::WritableAtLeastArg { .. }
            | SafePred::ReadableAtLeastArg { .. }
            | SafePred::WritableAtLeastProduct { .. }
            | SafePred::ReadableAtLeastProduct { .. }
            | SafePred::SizeFitsWritable { .. }
            | SafePred::SizeFitsReadable { .. }
            | SafePred::SizeBelow(_) => ViolationClass::BufferOverflow,
            SafePred::IntNonZero | SafePred::IntInRange { .. } => ViolationClass::IntDomain,
            SafePred::PtrToCStrOrNull
            | SafePred::ValidFuncPtr
            | SafePred::ValidFilePtr
            | SafePred::HeapChunkOrNull => ViolationClass::ResourceHandle,
            SafePred::NullOr(inner) => ViolationClass::of(inner, val),
        }
    }

    /// Stable tag used in journals and XML documents.
    pub fn tag(self) -> &'static str {
        match self {
            ViolationClass::NullPointer => "null-pointer",
            ViolationClass::WildPointer => "wild-pointer",
            ViolationClass::UnterminatedString => "unterminated-string",
            ViolationClass::BufferOverflow => "buffer-overflow",
            ViolationClass::IntDomain => "int-domain",
            ViolationClass::ResourceHandle => "resource-handle",
        }
    }
}

/// A shared, runtime-swappable table of per-function policy overrides —
/// the knob the fleet's remediation director turns. Wrappers holding a
/// clone consult it on every resolution, so a policy change applies to
/// the *next* call with no rebuild and no restart.
#[derive(Debug, Clone, Default)]
pub struct PolicyOverrides {
    table: std::sync::Arc<parking_lot::Mutex<BTreeMap<String, Policy>>>,
}

impl PolicyOverrides {
    /// An empty override table.
    pub fn new() -> Self {
        PolicyOverrides::default()
    }

    /// Sets (or replaces) the override for `func`.
    pub fn set(&self, func: impl Into<String>, policy: Policy) {
        self.table.lock().insert(func.into(), policy);
    }

    /// Removes the override for `func`, falling back to the engine's
    /// static resolution.
    pub fn clear(&self, func: &str) {
        self.table.lock().remove(func);
    }

    /// The current override for `func`, if any.
    pub fn get(&self, func: &str) -> Option<Policy> {
        self.table.lock().get(func).copied()
    }

    /// A sorted snapshot of the current overrides.
    pub fn snapshot(&self) -> BTreeMap<String, Policy> {
        self.table.lock().clone()
    }
}

/// Per-function, per-violation-class policy resolution.
///
/// Resolution order, most specific wins: runtime override for the
/// function, then function + class, then function, then class, then
/// the default.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    default: Policy,
    by_class: BTreeMap<ViolationClass, Policy>,
    by_func: BTreeMap<String, Policy>,
    by_func_class: BTreeMap<(String, ViolationClass), Policy>,
    overrides: Option<PolicyOverrides>,
}

impl PolicyEngine {
    /// An engine answering `default` for everything.
    pub fn new(default: Policy) -> Self {
        PolicyEngine {
            default,
            by_class: BTreeMap::new(),
            by_func: BTreeMap::new(),
            by_func_class: BTreeMap::new(),
            overrides: None,
        }
    }

    /// The classic robustness wrapper: contain everything.
    pub fn containment() -> Self {
        PolicyEngine::new(Policy::Contain)
    }

    /// The security wrapper: terminate on everything.
    pub fn terminating() -> Self {
        PolicyEngine::new(Policy::Terminate)
    }

    /// The healing wrapper's default: repair arguments before the call
    /// and retry the original (once re-sanitized) when it faults anyway.
    pub fn healing() -> Self {
        PolicyEngine::new(Policy::Retry { max_attempts: 2 })
    }

    /// Overrides the policy for one violation class.
    pub fn with_class(mut self, class: ViolationClass, policy: Policy) -> Self {
        self.by_class.insert(class, policy);
        self
    }

    /// Overrides the policy for one function.
    pub fn with_func(mut self, func: impl Into<String>, policy: Policy) -> Self {
        self.by_func.insert(func.into(), policy);
        self
    }

    /// Overrides the policy for one function and violation class.
    pub fn with_func_class(
        mut self,
        func: impl Into<String>,
        class: ViolationClass,
        policy: Policy,
    ) -> Self {
        self.by_func_class.insert((func.into(), class), policy);
        self
    }

    /// Attaches a shared runtime override table. Overrides win over
    /// every static rule, and attaching the table disables the
    /// compiled fast path ([`PolicyEngine::uniform`] returns `None`):
    /// a plan frozen at build time cannot honour a policy that may
    /// change between calls.
    pub fn with_overrides(mut self, overrides: PolicyOverrides) -> Self {
        self.overrides = Some(overrides);
        self
    }

    /// The policy for a violation of `class` inside `func`.
    pub fn resolve(&self, func: &str, class: ViolationClass) -> Policy {
        if let Some(ov) = &self.overrides {
            if let Some(p) = ov.get(func) {
                return p;
            }
        }
        if !self.by_func_class.is_empty() {
            if let Some(p) = self.by_func_class.get(&(func.to_string(), class)) {
                return *p;
            }
        }
        if let Some(p) = self.by_func.get(func) {
            return *p;
        }
        if let Some(p) = self.by_class.get(&class) {
            return *p;
        }
        self.default
    }

    /// `Some(policy)` when every resolution — any function, any class —
    /// yields the same policy (no overrides configured). This is what
    /// lets the call-plan compiler prove a check failure is equivalent
    /// to a plain rejection.
    pub fn uniform(&self) -> Option<Policy> {
        if self.overrides.is_some() {
            return None;
        }
        if self.by_class.is_empty()
            && self.by_func.is_empty()
            && self.by_func_class.is_empty()
        {
            Some(self.default)
        } else {
            None
        }
    }

    /// Whether any resolution of this engine can ever answer
    /// [`Policy::Oblivious`]: the default is Oblivious, some static rule
    /// maps to it, or a runtime override table is attached (the director
    /// may set Oblivious at any moment). Builders use this to decide
    /// whether a wrapper needs taint tracking at all.
    pub fn may_go_oblivious(&self) -> bool {
        self.overrides.is_some()
            || self.default == Policy::Oblivious
            || self.by_class.values().any(|p| *p == Policy::Oblivious)
            || self.by_func.values().any(|p| *p == Policy::Oblivious)
            || self.by_func_class.values().any(|p| *p == Policy::Oblivious)
    }

    /// The policy consulted when the original function faults despite
    /// the argument checks (no violation class to key on).
    pub fn fault_policy(&self, func: &str) -> Policy {
        if let Some(ov) = &self.overrides {
            if let Some(p) = ov.get(func) {
                return p;
            }
        }
        *self.by_func.get(func).unwrap_or(&self.default)
    }
}

/// Cap on the size of buffers the healer manufactures as substitutes —
/// large enough for every libc-shaped operation worth saving, small
/// enough that a hostile length argument cannot empty the heap.
pub const SUBSTITUTE_CAP: u64 = 64 * 1024;

fn fresh_buffer(proc: &mut Proc, size: u64) -> Option<VirtAddr> {
    let size = size.clamp(1, SUBSTITUTE_CAP);
    let ptr = simlibc::heap::malloc(proc, size).ok()?;
    if ptr.is_null() {
        return None;
    }
    proc.mem.write_bytes(ptr, &vec![0u8; size as usize]).ok()?;
    Some(ptr)
}

fn extent_of(proc: &Proc, oracle: &GuardOracle, addr: VirtAddr, writable: bool) -> u64 {
    let ext = if writable {
        oracle.writable_extent(proc, addr)
    } else {
        oracle.readable_extent(proc, addr)
    };
    ext.unwrap_or(0)
}

/// Executes the repair suggested for the violated `pred` on argument `i`
/// of `args`, using the guardian's extent knowledge. Returns a
/// description of the applied repair for the audit journal, or `None`
/// when no safe repair exists (the caller contains instead).
///
/// A repair is *one step* toward the contract: the caller re-checks all
/// predicates afterwards and re-invokes the executor while progress is
/// being made (a copy that is too long may need a substituted
/// destination first and a truncated source second).
pub fn apply_repair(
    proc: &mut Proc,
    oracle: &GuardOracle,
    args: &mut [CVal],
    pred: &SafePred,
    i: usize,
) -> Option<String> {
    match repair_hint(pred) {
        RepairHint::MakeCStr => {
            let addr = args[i].as_ptr();
            if !addr.is_null() {
                if let Some(at) = nul_terminate_in_extent(proc, oracle, addr) {
                    return Some(format!("NUL-terminated in place at offset {at}"));
                }
            }
            let empty = fresh_buffer(proc, 1)?;
            args[i] = CVal::Ptr(empty);
            Some("substituted empty string".into())
        }
        RepairHint::SubstituteBuffer { min } => {
            let buf = fresh_buffer(proc, min)?;
            args[i] = CVal::Ptr(buf);
            Some(format!("substituted fresh {}-byte buffer", min.clamp(1, SUBSTITUTE_CAP)))
        }
        RepairHint::FitDestToSrc { src } => {
            let src_ptr = args.get(src)?.as_ptr();
            let Some(len) = peek_cstr_len(proc, src_ptr) else {
                // The source is not a string at all: give the copy an
                // empty one and let the recheck sort the rest out.
                let empty = fresh_buffer(proc, 1)?;
                args[src] = CVal::Ptr(empty);
                return Some("substituted empty source string".into());
            };
            let dest = args[i].as_ptr();
            let w = extent_of(proc, oracle, dest, true);
            if w == 0 {
                let buf = fresh_buffer(proc, len + 1)?;
                args[i] = CVal::Ptr(buf);
                return Some(format!(
                    "substituted {}-byte destination",
                    (len + 1).clamp(1, SUBSTITUTE_CAP)
                ));
            }
            if len + 1 > w {
                if truncate_cstr(proc, src_ptr, w - 1) {
                    return Some(format!("truncated source to {} bytes", w - 1));
                }
                // Read-only source: copy a truncated prefix instead.
                let keep = (w - 1).min(SUBSTITUTE_CAP - 1);
                let prefix = proc.mem.peek_bytes(src_ptr, keep)?;
                let buf = fresh_buffer(proc, keep + 1)?;
                if !proc.mem.poke_bytes(buf, &prefix) {
                    return None;
                }
                args[src] = CVal::Ptr(buf);
                return Some(format!("substituted {keep}-byte truncated copy of source"));
            }
            // Extent suffices yet the check failed: the destination must
            // be unusable in some other way — replace it.
            let buf = fresh_buffer(proc, len + 1)?;
            args[i] = CVal::Ptr(buf);
            Some(format!(
                "substituted {}-byte destination",
                (len + 1).clamp(1, SUBSTITUTE_CAP)
            ))
        }
        RepairHint::ClampCountToExtent { count, elem, writable } => {
            let addr = args[i].as_ptr();
            let extent = extent_of(proc, oracle, addr, writable);
            if extent == 0 {
                let need = args
                    .get(count)?
                    .as_usize()
                    .saturating_mul(elem.max(1))
                    .clamp(1, SUBSTITUTE_CAP);
                let buf = fresh_buffer(proc, need)?;
                args[i] = CVal::Ptr(buf);
                return Some(format!("substituted {need}-byte buffer"));
            }
            let clamped = guardian::clamp_count(extent, elem);
            args[count] = CVal::Int(clamped as i64);
            Some(format!("clamped count (arg {}) to {clamped}", count + 1))
        }
        RepairHint::ClampProductToExtent { a, b, writable } => {
            let addr = args[i].as_ptr();
            let extent = extent_of(proc, oracle, addr, writable);
            if extent == 0 {
                let need = args
                    .get(a)?
                    .as_usize()
                    .saturating_mul(args.get(b)?.as_usize())
                    .clamp(1, SUBSTITUTE_CAP);
                let buf = fresh_buffer(proc, need)?;
                args[i] = CVal::Ptr(buf);
                return Some(format!("substituted {need}-byte buffer"));
            }
            let av = args.get(a)?.as_usize();
            let clamped = extent.checked_div(av).unwrap_or(0);
            args[b] = CVal::Int(clamped as i64);
            Some(format!("clamped factor (arg {}) to {clamped}", b + 1))
        }
        RepairHint::ClampSelfToExtentOf { ptr, elem, writable } => {
            let addr = args.get(ptr)?.as_ptr();
            let extent = extent_of(proc, oracle, addr, writable);
            let clamped = guardian::clamp_count(extent, elem);
            args[i] = CVal::Int(clamped as i64);
            Some(format!("clamped size to {clamped}"))
        }
        RepairHint::ClampSelfBelow(n) => {
            let v = n.saturating_sub(1);
            args[i] = CVal::Int(v as i64);
            Some(format!("clamped size below {n}"))
        }
        RepairHint::ClampSelfRange { min, max } => {
            let v = args[i].as_int().clamp(min, max);
            args[i] = CVal::Int(v);
            Some(format!("clamped into [{min}, {max}]"))
        }
        RepairHint::SubstituteInt(v) => {
            args[i] = CVal::Int(v);
            Some(format!("substituted {v}"))
        }
        RepairHint::MakePtrCell => {
            let cell = args[i].as_ptr();
            if !cell.is_null()
                && extent_of(proc, oracle, cell, true) >= 8
                && proc.mem.write_ptr(cell, VirtAddr::NULL).is_ok()
            {
                return Some("cleared out-parameter cell".into());
            }
            let buf = fresh_buffer(proc, 8)?;
            args[i] = CVal::Ptr(buf);
            Some("substituted fresh out-parameter cell".into())
        }
        RepairHint::SubstituteNull => {
            args[i] = CVal::NULL;
            Some("substituted NULL".into())
        }
        RepairHint::Unfixable => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardian::CanaryRegistry;
    use simlibc::testutil::libc_proc;
    use std::sync::Arc;

    fn oracle() -> GuardOracle {
        GuardOracle::new(Arc::new(CanaryRegistry::new()))
    }

    #[test]
    fn resolution_order_most_specific_wins() {
        let e = PolicyEngine::healing()
            .with_class(ViolationClass::BufferOverflow, Policy::Terminate)
            .with_func("free", Policy::Contain)
            .with_func_class("strcpy", ViolationClass::BufferOverflow, Policy::Oblivious);
        assert_eq!(
            e.resolve("strcpy", ViolationClass::BufferOverflow),
            Policy::Oblivious,
            "func+class beats class"
        );
        assert_eq!(
            e.resolve("memcpy", ViolationClass::BufferOverflow),
            Policy::Terminate,
            "class beats default"
        );
        assert_eq!(
            e.resolve("free", ViolationClass::NullPointer),
            Policy::Contain,
            "func beats class default"
        );
        assert_eq!(
            e.resolve("strlen", ViolationClass::NullPointer),
            Policy::Retry { max_attempts: 2 },
            "default"
        );
        assert_eq!(e.fault_policy("free"), Policy::Contain);
        assert_eq!(e.fault_policy("strlen"), Policy::Retry { max_attempts: 2 });
    }

    #[test]
    fn may_go_oblivious_names_every_route_to_the_policy() {
        assert!(!PolicyEngine::healing().may_go_oblivious());
        assert!(!PolicyEngine::containment().may_go_oblivious());
        assert!(PolicyEngine::new(Policy::Oblivious).may_go_oblivious());
        assert!(PolicyEngine::healing()
            .with_class(ViolationClass::BufferOverflow, Policy::Oblivious)
            .may_go_oblivious());
        assert!(PolicyEngine::healing()
            .with_func("strcpy", Policy::Oblivious)
            .may_go_oblivious());
        assert!(PolicyEngine::healing()
            .with_func_class("strcpy", ViolationClass::NullPointer, Policy::Oblivious)
            .may_go_oblivious());
        // A runtime override table can turn Oblivious on at any moment.
        assert!(PolicyEngine::healing()
            .with_overrides(PolicyOverrides::new())
            .may_go_oblivious());
    }

    #[test]
    fn violation_classes_follow_the_predicate() {
        assert_eq!(
            ViolationClass::of(&SafePred::CStr, CVal::NULL),
            ViolationClass::NullPointer,
            "NULL dominates the predicate's own class"
        );
        assert_eq!(
            ViolationClass::of(&SafePred::CStr, CVal::Ptr(VirtAddr::new(0x1000))),
            ViolationClass::UnterminatedString
        );
        assert_eq!(
            ViolationClass::of(
                &SafePred::HoldsCStrOf { src: 1 },
                CVal::Ptr(VirtAddr::new(8))
            ),
            ViolationClass::BufferOverflow
        );
        assert_eq!(
            ViolationClass::of(&SafePred::IntNonZero, CVal::Int(0)),
            ViolationClass::IntDomain
        );
        assert_eq!(
            ViolationClass::of(&SafePred::HeapChunkOrNull, CVal::Ptr(VirtAddr::new(64))),
            ViolationClass::ResourceHandle
        );
        assert_eq!(
            ViolationClass::of(
                &SafePred::NullOr(Box::new(SafePred::CStr)),
                CVal::Ptr(VirtAddr::new(0x1000))
            ),
            ViolationClass::UnterminatedString,
            "NullOr delegates to the inner predicate"
        );
        // Tags are stable identifiers.
        assert_eq!(ViolationClass::BufferOverflow.tag(), "buffer-overflow");
        assert_eq!(ViolationClass::ResourceHandle.tag(), "resource-handle");
    }

    #[test]
    fn repairs_reestablish_the_predicate() {
        let mut p = libc_proc();
        let o = oracle();

        // A run of non-NUL bytes at the very end of the data segment has no
        // terminator before unmapped memory — healing writes one in place at
        // the last writable byte.
        let buf = simproc::layout::DATA_BASE.add(simproc::layout::DATA_SIZE).sub(4);
        p.mem.poke_bytes(buf, &[1, 1, 1, 1]);
        let mut args = vec![CVal::Ptr(buf)];
        assert!(!SafePred::CStr.check(&p, &o, &args, 0));
        let desc = apply_repair(&mut p, &o, &mut args, &SafePred::CStr, 0).unwrap();
        assert!(desc.contains("in place"), "{desc}");
        assert!(SafePred::CStr.check(&p, &o, &args, 0));

        // NULL source gets a substituted empty string.
        let mut args = vec![CVal::NULL];
        apply_repair(&mut p, &o, &mut args, &SafePred::CStr, 0).unwrap();
        assert!(SafePred::CStr.check(&p, &o, &args, 0));
        assert_ne!(args[0], CVal::NULL);

        // A wild free() pointer becomes free(NULL).
        let mut args = vec![CVal::Ptr(VirtAddr::new(0x40))];
        assert!(!SafePred::HeapChunkOrNull.check(&p, &o, &args, 0));
        apply_repair(&mut p, &o, &mut args, &SafePred::HeapChunkOrNull, 0).unwrap();
        assert!(SafePred::HeapChunkOrNull.check(&p, &o, &args, 0));
        assert!(args[0].is_null());

        // An out-of-domain int is clamped into range.
        let mut args = vec![CVal::Int(999)];
        let pred = SafePred::IntInRange { min: 0, max: 255 };
        apply_repair(&mut p, &o, &mut args, &pred, 0).unwrap();
        assert_eq!(args[0], CVal::Int(255));
    }

    #[test]
    fn oversized_copy_is_truncated_to_the_destination() {
        let mut p = libc_proc();
        let o = oracle();
        let dest = simlibc::heap::malloc(&mut p, 4).unwrap();
        let dest_ext = o.writable_extent(&p, dest).unwrap();
        let src = p.alloc_cstr(&"A".repeat(200));
        let pred = SafePred::HoldsCStrOf { src: 1 };
        let mut args = vec![CVal::Ptr(dest), CVal::Ptr(src)];
        assert!(!pred.check(&p, &o, &args, 0));
        let desc = apply_repair(&mut p, &o, &mut args, &pred, 0).unwrap();
        assert!(desc.contains("truncated source"), "{desc}");
        assert!(pred.check(&p, &o, &args, 0), "copy now fits");
        let len = peek_cstr_len(&p, src).unwrap();
        assert_eq!(len, dest_ext - 1);
    }

    #[test]
    fn read_only_source_is_copied_not_written() {
        let mut p = libc_proc();
        let o = oracle();
        let dest = simlibc::heap::malloc(&mut p, 4).unwrap();
        let src = p.alloc_cstr_literal(&"B".repeat(200));
        let pred = SafePred::HoldsCStrOf { src: 1 };
        let mut args = vec![CVal::Ptr(dest), CVal::Ptr(src)];
        let desc = apply_repair(&mut p, &o, &mut args, &pred, 0).unwrap();
        assert!(desc.contains("copy of source"), "{desc}");
        assert!(pred.check(&p, &o, &args, 0));
        // The literal itself is untouched.
        assert_eq!(peek_cstr_len(&p, src), Some(200));
        assert_ne!(args[1].as_ptr(), src);
    }

    #[test]
    fn count_clamps_respect_the_extent() {
        let mut p = libc_proc();
        let o = oracle();
        let buf = simlibc::heap::malloc(&mut p, 16).unwrap();
        let ext = o.writable_extent(&p, buf).unwrap();
        let pred = SafePred::WritableAtLeastArg { size: 1, elem: 1 };
        let mut args = vec![CVal::Ptr(buf), CVal::Int(1 << 20)];
        assert!(!pred.check(&p, &o, &args, 0));
        apply_repair(&mut p, &o, &mut args, &pred, 0).unwrap();
        assert_eq!(args[1], CVal::Int(ext as i64));
        assert!(pred.check(&p, &o, &args, 0));
    }

    #[test]
    fn unfixable_predicates_yield_no_repair() {
        let mut p = libc_proc();
        let o = oracle();
        let mut args = vec![CVal::Ptr(VirtAddr::new(0x5000))];
        assert_eq!(apply_repair(&mut p, &o, &mut args, &SafePred::ValidFilePtr, 0), None);
        assert_eq!(apply_repair(&mut p, &o, &mut args, &SafePred::ValidFuncPtr, 0), None);
    }
}
