//! The context-aware failure-oblivious engine (the availability mode).
//!
//! Classic failure-oblivious computing discards invalid writes and
//! manufactures values for invalid reads. The stub version of
//! [`crate::Policy::Oblivious`] returned one containment value for every
//! violation — context-free, and indistinguishable from a graceful
//! error. This module replaces it with a *context-selected* response per
//! `(function, argument role, violation class)`:
//!
//! * **read-role violations** (C-string scans, bounded buffer reads)
//!   are answered as if the input were empty — `0` for counts, NULL (or
//!   a manufactured pointer to an empty string, when a static contract
//!   says the function tolerates NULL inputs) for pointers;
//! * **write-role violations** (string copies, bounded buffer writes,
//!   frees through bad chunks) suppress the call and report success,
//!   while the write that did *not* happen is measured and attributed to
//!   the precise object it would have corrupted via
//!   [`GuardOracle::object_region`] — the journaled shadow write;
//! * anything else falls back to the classic containment value, with
//!   `errno` left untouched (obliviousness never reports an error).
//!
//! Every decision is described by an [`ObliviousOutcome`] so the hook
//! layer can journal it, with what it manufactured or suppressed, in
//! the [`profiler::WrapperJournal`] — nothing this engine does is silent.

use std::collections::BTreeSet;

use cdecl::CType;
use guardian::GuardOracle;
use profiler::ShadowWrite;
use simproc::{CVal, Proc};
use typelattice::{peek_cstr_len, SafePred};

use crate::policy::ViolationClass;
use crate::runtime::containment_value;

/// Everything needed to select an oblivious response for one violated
/// predicate, minus the mutable process state.
#[derive(Debug)]
pub struct ObliviousCx<'a> {
    /// The wrapped function.
    pub func: &'a str,
    /// Zero-based index of the violated argument.
    pub arg: usize,
    /// The violated robust-type predicate.
    pub pred: &'a SafePred,
    /// The violation class the policy engine resolved.
    pub class: ViolationClass,
    /// The wrapped function's return type.
    pub ret: &'a CType,
    /// Functions whose static contract marks the violated input as
    /// NULL-tolerant — for these, a pointer-returning C-string scan
    /// manufactures an empty string instead of NULL.
    pub null_defaults: &'a BTreeSet<String>,
}

/// The engine's decision for one violation: what to return, how to tag
/// it, and what (if anything) the journal records as a suppressed write.
#[derive(Debug)]
pub struct ObliviousOutcome {
    /// The value the wrapper returns instead of calling the original.
    pub ret: CVal,
    /// The argument role that selected the value (`cstr-scan`,
    /// `buf-len-read`, `contract-default`, `oob-write`, ...).
    pub role: &'static str,
    /// Human-readable account of what was absorbed.
    pub detail: String,
    /// The suppressed write, when the violated predicate guarded a
    /// write destination.
    pub write: Option<ShadowWrite>,
    /// A manufactured non-zero value to track for downstream taint
    /// consumption (a manufactured pointer; zero values are never
    /// tracked).
    pub taint: Option<u64>,
}

/// Whether `pred` guards a *write* destination — the same partition the
/// security wrapper uses to pick enforceable contracts.
fn write_role(pred: &SafePred) -> bool {
    match pred {
        SafePred::Writable(_)
        | SafePred::HoldsCStrOf { .. }
        | SafePred::WritableAtLeastArg { .. }
        | SafePred::WritableAtLeastProduct { .. }
        | SafePred::SizeFitsWritable { .. }
        | SafePred::HeapChunkOrNull => true,
        SafePred::NullOr(inner) => write_role(inner),
        _ => false,
    }
}

/// Whether `pred` guards a *read* of caller memory.
fn read_role(pred: &SafePred) -> bool {
    match pred {
        SafePred::CStr
        | SafePred::PtrToCStrOrNull
        | SafePred::Readable(_)
        | SafePred::ReadableAtLeastArg { .. }
        | SafePred::ReadableAtLeastProduct { .. }
        | SafePred::SizeFitsReadable { .. } => true,
        SafePred::NullOr(inner) => read_role(inner),
        _ => false,
    }
}

/// Whether the read the predicate guards is a C-string scan (vs a
/// length-bounded buffer read).
fn cstr_role(pred: &SafePred) -> bool {
    match pred {
        SafePred::CStr | SafePred::PtrToCStrOrNull => true,
        SafePred::NullOr(inner) => cstr_role(inner),
        _ => false,
    }
}

/// `(destination argument index, bytes the call would have written)` for
/// a violated write-role predicate. The byte count is the *attempted*
/// extent, measured from the arguments the caller actually passed; `0`
/// when the predicate gives no way to measure it.
fn write_extent(pred: &SafePred, arg: usize, args: &[CVal], proc: &Proc) -> (usize, u64) {
    match pred {
        SafePred::HoldsCStrOf { src } => {
            let len = args
                .get(*src)
                .and_then(|v| peek_cstr_len(proc, v.as_ptr()))
                .map(|l| l + 1) // the copy includes the terminator
                .unwrap_or(0);
            (arg, len)
        }
        SafePred::Writable(n) => (arg, *n),
        SafePred::WritableAtLeastArg { size, elem } => {
            (arg, args.get(*size).map(|v| v.as_usize()).unwrap_or(0).saturating_mul(*elem))
        }
        SafePred::WritableAtLeastProduct { a, b } => {
            let a = args.get(*a).map(|v| v.as_usize()).unwrap_or(0);
            let b = args.get(*b).map(|v| v.as_usize()).unwrap_or(0);
            (arg, a.saturating_mul(b))
        }
        SafePred::SizeFitsWritable { ptr, elem } => {
            // The violated argument is the *size*; the destination is the
            // pointer argument the relation names.
            (*ptr, args.get(arg).map(|v| v.as_usize()).unwrap_or(0).saturating_mul(*elem))
        }
        SafePred::NullOr(inner) => write_extent(inner, arg, args, proc),
        // A write through a non-chunk (double free, stale pointer): the
        // write is metadata-sized and unmeasurable from the arguments.
        _ => (arg, 0),
    }
}

/// The as-if-empty value for a manufactured read: the result the
/// function would produce on an empty input.
fn empty_value(ret: &CType) -> CVal {
    match ret {
        CType::Void => CVal::Void,
        CType::Ptr { .. } | CType::FuncPtr { .. } | CType::Array { .. } => CVal::NULL,
        CType::Float | CType::Double => CVal::F64(0.0),
        _ => CVal::Int(0),
    }
}

/// The value an oblivious wrapper substitutes when the *original* (not a
/// check) faults mid-call: report the call complete with an as-if-empty
/// result, `errno` untouched.
pub fn oblivious_fault_value(ret: &CType) -> CVal {
    empty_value(ret)
}

/// Selects the context-aware oblivious response for one violated
/// predicate. Needs the process mutably only to manufacture storage for
/// contract-derived default values (an empty string a NULL-tolerant
/// C-string scan can safely consume).
pub fn oblivious_outcome(
    cx: &ObliviousCx<'_>,
    proc: &mut Proc,
    oracle: &GuardOracle,
    args: &[CVal],
) -> ObliviousOutcome {
    let pred = cx.pred;
    if write_role(pred) {
        let (dest_idx, attempted) = write_extent(pred, cx.arg, args, proc);
        let dest = args.get(dest_idx).copied().unwrap_or(CVal::NULL).as_ptr();
        let region = oracle.object_region(proc, dest);
        let (base, extent) = region.map(|(b, e)| (b.get(), e)).unwrap_or((0, 0));
        let addr = dest.get();
        let avail = if addr >= base && addr < base.saturating_add(extent) {
            base.saturating_add(extent) - addr
        } else {
            0
        };
        let clipped = attempted.saturating_sub(avail);
        let detail = format!(
            "oblivious write suppression: {attempted} byte(s) to {addr:#x} \
             discarded ({clipped} outside the {extent}-byte object at {base:#x})"
        );
        // Report success: a pointer-returning writer hands back the
        // caller's own destination, counts report zero bytes written.
        let ret = match cx.ret {
            CType::Ptr { .. } if !dest.is_null() => CVal::Ptr(dest),
            other => empty_value(other),
        };
        return ObliviousOutcome {
            ret,
            role: "oob-write",
            detail,
            write: Some(ShadowWrite {
                arg: Some(dest_idx),
                addr,
                object_base: base,
                object_extent: extent,
                attempted,
                clipped,
            }),
            taint: None,
        };
    }
    if read_role(pred) {
        if cstr_role(pred) {
            // NUL byte for C-string scans: the violated string reads as
            // empty. Pointer-returning scanners whose static contract
            // marks the input NULL-tolerant get a *manufactured* empty
            // string (a real NUL byte, so downstream scans of the result
            // stay in bounds) — and that pointer is tainted.
            if matches!(cx.ret, CType::Ptr { .. }) && cx.null_defaults.contains(cx.func) {
                let fabricated = proc.alloc_cstr("");
                return ObliviousOutcome {
                    ret: CVal::Ptr(fabricated),
                    role: "contract-default",
                    detail: format!(
                        "contract-derived default: manufactured empty string at {:#x} \
                         for a NULL-tolerant scan",
                        fabricated.get()
                    ),
                    write: None,
                    taint: Some(fabricated.get()),
                };
            }
            return ObliviousOutcome {
                ret: empty_value(cx.ret),
                role: "cstr-scan",
                detail: "oblivious read: unterminated/invalid string scanned as empty"
                    .to_string(),
                write: None,
                taint: None,
            };
        }
        return ObliviousOutcome {
            ret: empty_value(cx.ret),
            role: "buf-len-read",
            detail: "oblivious read: out-of-bounds buffer read answered as zero-length"
                .to_string(),
            write: None,
            taint: None,
        };
    }
    // No memory role (bad FILE*, integer domain, wild function pointer):
    // nothing to manufacture from context — classic containment value,
    // but errno stays untouched (oblivious never reports an error).
    ObliviousOutcome {
        ret: containment_value(cx.ret),
        role: "containment-fallback",
        detail: format!("no oblivious context for {} violation, contained", cx.class.tag()),
        write: None,
        taint: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdecl::{parse_prototype, TypedefTable};
    use guardian::CanaryRegistry;
    use simlibc::testutil::libc_proc;
    use std::sync::Arc;

    fn ret_of(proto: &str) -> CType {
        parse_prototype(proto, &TypedefTable::with_builtins()).unwrap().ret
    }

    fn oracle() -> GuardOracle {
        GuardOracle::new(Arc::new(CanaryRegistry::new()))
    }

    #[test]
    fn cstr_scan_reads_as_empty() {
        let mut p = libc_proc();
        let defaults = BTreeSet::new();
        let cx = ObliviousCx {
            func: "strlen",
            arg: 0,
            pred: &SafePred::CStr,
            class: ViolationClass::NullPointer,
            ret: &ret_of("size_t strlen(const char *s);"),
            null_defaults: &defaults,
        };
        let out = oblivious_outcome(&cx, &mut p, &oracle(), &[CVal::NULL]);
        assert_eq!(out.ret, CVal::Int(0), "strlen of a manufactured empty string");
        assert_eq!(out.role, "cstr-scan");
        assert!(out.write.is_none());
    }

    #[test]
    fn contract_default_manufactures_a_real_empty_string() {
        let mut p = libc_proc();
        let defaults: BTreeSet<String> = ["strstr".to_string()].into();
        let cx = ObliviousCx {
            func: "strstr",
            arg: 0,
            pred: &SafePred::CStr,
            class: ViolationClass::NullPointer,
            ret: &ret_of("char *strstr(const char *h, const char *n);"),
            null_defaults: &defaults,
        };
        let out = oblivious_outcome(&cx, &mut p, &oracle(), &[CVal::NULL, CVal::NULL]);
        let fabricated = out.ret.as_ptr();
        assert!(!fabricated.is_null(), "a real pointer, not NULL");
        assert_eq!(p.read_cstr_lossy(fabricated), "", "points at a NUL byte");
        assert_eq!(out.taint, Some(fabricated.get()), "manufactured pointers are tainted");
        assert_eq!(out.role, "contract-default");
    }

    #[test]
    fn oob_write_is_suppressed_measured_and_attributed() {
        let mut p = libc_proc();
        let dest = simlibc::heap::malloc(&mut p, 8).unwrap();
        let src = p.alloc_cstr(&"A".repeat(40));
        let defaults = BTreeSet::new();
        let pred = SafePred::HoldsCStrOf { src: 1 };
        let cx = ObliviousCx {
            func: "strcpy",
            arg: 0,
            pred: &pred,
            class: ViolationClass::BufferOverflow,
            ret: &ret_of("char *strcpy(char *dest, const char *src);"),
            null_defaults: &defaults,
        };
        let out =
            oblivious_outcome(&cx, &mut p, &oracle(), &[CVal::Ptr(dest), CVal::Ptr(src)]);
        assert_eq!(out.ret, CVal::Ptr(dest), "reports success with the caller's pointer");
        let w = out.write.expect("a shadow-write entry");
        assert_eq!(w.attempted, 41, "40 bytes + terminator");
        assert_eq!(w.addr, dest.get());
        assert!(w.object_extent >= 8, "attributed to the heap chunk");
        assert_eq!(w.clipped, 41 - w.object_extent, "bytes beyond the object");
        assert!(out.taint.is_none(), "the caller's own pointer is not tainted");
        // The destination was truly untouched.
        assert_eq!(p.read_cstr_lossy(dest), "");
    }

    #[test]
    fn null_dest_write_clips_everything() {
        let mut p = libc_proc();
        let src = p.alloc_cstr("xyz");
        let defaults = BTreeSet::new();
        let pred = SafePred::HoldsCStrOf { src: 1 };
        let cx = ObliviousCx {
            func: "strcpy",
            arg: 0,
            pred: &pred,
            class: ViolationClass::NullPointer,
            ret: &ret_of("char *strcpy(char *dest, const char *src);"),
            null_defaults: &defaults,
        };
        let out = oblivious_outcome(&cx, &mut p, &oracle(), &[CVal::NULL, CVal::Ptr(src)]);
        assert_eq!(out.ret, CVal::NULL, "no destination to hand back");
        let w = out.write.expect("shadow write");
        assert_eq!(w.object_extent, 0, "NULL resolves to no object");
        assert_eq!(w.clipped, w.attempted, "every byte would have corrupted");
    }

    #[test]
    fn non_memory_violations_fall_back_to_containment() {
        let mut p = libc_proc();
        let defaults = BTreeSet::new();
        let cx = ObliviousCx {
            func: "fclose",
            arg: 0,
            pred: &SafePred::ValidFilePtr,
            class: ViolationClass::ResourceHandle,
            ret: &ret_of("int fclose(FILE *stream);"),
            null_defaults: &defaults,
        };
        let out = oblivious_outcome(&cx, &mut p, &oracle(), &[CVal::NULL]);
        assert_eq!(out.ret, CVal::Int(-1));
        assert_eq!(out.role, "containment-fallback");
    }

    #[test]
    fn fault_values_are_as_if_empty() {
        assert_eq!(oblivious_fault_value(&ret_of("size_t f(void);")), CVal::Int(0));
        assert_eq!(oblivious_fault_value(&ret_of("char *f(void);")), CVal::NULL);
        assert_eq!(oblivious_fault_value(&ret_of("void f(void);")), CVal::Void);
    }
}
