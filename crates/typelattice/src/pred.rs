//! Runtime predicates: what it *means* for a value to belong to a
//! candidate argument type.
//!
//! Each predicate is used twice, which is the heart of HEALERS:
//!
//! 1. the **injector** generates values satisfying a predicate, probing
//!    whether the library survives every member of the type;
//! 2. the **robustness wrapper**'s `arg_check` micro-generator evaluates
//!    the same predicate before each call, rejecting arguments outside
//!    the weakest robust type the injector found.

use std::fmt;

use simlibc::state::FILE_MAGIC;
use simproc::{CVal, CallTarget, ExtentOracle, Proc, VirtAddr};

/// Scan cap for host-side C-string measurement.
pub const CSTR_SCAN_CAP: u64 = 1 << 20;

/// A checkable property of one argument (possibly relative to others).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafePred {
    /// Any value is acceptable.
    Always,
    /// Pointer must be non-null.
    NonNull,
    /// At least `n` bytes must be readable.
    Readable(u64),
    /// At least `n` bytes must be writable.
    Writable(u64),
    /// Must point at a NUL-terminated readable string (NUL within the
    /// scan cap).
    CStr,
    /// Writable region must hold the C string at argument `src`
    /// (including its NUL) — the `strcpy` contract.
    HoldsCStrOf {
        /// Index of the source-string argument.
        src: usize,
    },
    /// Writable region must be at least `arg[size] * elem` bytes.
    WritableAtLeastArg {
        /// Index of the size argument.
        size: usize,
        /// Element size multiplier.
        elem: u64,
    },
    /// Readable region must be at least `arg[size] * elem` bytes.
    ReadableAtLeastArg {
        /// Index of the size argument.
        size: usize,
        /// Element size multiplier.
        elem: u64,
    },
    /// Writable region must be at least `arg[a] * arg[b]` bytes
    /// (the `fread` shape).
    WritableAtLeastProduct {
        /// First factor argument index.
        a: usize,
        /// Second factor argument index.
        b: usize,
    },
    /// Readable region must be at least `arg[a] * arg[b]` bytes.
    ReadableAtLeastProduct {
        /// First factor argument index.
        a: usize,
        /// Second factor argument index.
        b: usize,
    },
    /// Size value must fit within the writable extent of the pointer at
    /// `ptr` (times `elem`).
    SizeFitsWritable {
        /// Index of the buffer argument.
        ptr: usize,
        /// Element size multiplier.
        elem: u64,
    },
    /// Size value must fit within the readable extent of the pointer at
    /// `ptr` (times `elem`).
    SizeFitsReadable {
        /// Index of the buffer argument.
        ptr: usize,
        /// Element size multiplier.
        elem: u64,
    },
    /// Size must be below a fixed sanity bound.
    SizeBelow(u64),
    /// Integer must be non-zero (the `div` divisor contract).
    IntNonZero,
    /// Integer must lie in an inclusive range.
    IntInRange {
        /// Lower bound.
        min: i64,
        /// Upper bound.
        max: i64,
    },
    /// Must be a pointer whose 8-byte cell is writable and whose current
    /// value is NULL or a readable C string (the `strsep` contract).
    PtrToCStrOrNull,
    /// Must resolve to a registered function entry point.
    ValidFuncPtr,
    /// Must point at a live `FILE` object (magic intact).
    ValidFilePtr,
    /// NULL is acceptable, otherwise the inner predicate must hold —
    /// for parameters with optional-NULL semantics (`time(NULL)`,
    /// `strtol`'s `endptr`).
    NullOr(Box<SafePred>),
    /// NULL, or a pointer into the heap arena whose chunk header is
    /// plausible — the contract of `free`/`realloc`, which no
    /// per-argument extent check can express.
    HeapChunkOrNull,
}

impl fmt::Display for SafePred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafePred::Always => write!(f, "any value"),
            SafePred::NonNull => write!(f, "non-null pointer"),
            SafePred::Readable(n) => write!(f, "pointer to >= {n} readable bytes"),
            SafePred::Writable(n) => write!(f, "pointer to >= {n} writable bytes"),
            SafePred::CStr => write!(f, "readable NUL-terminated string"),
            SafePred::HoldsCStrOf { src } => {
                write!(f, "writable buffer >= strlen(arg{})+1", src + 1)
            }
            SafePred::WritableAtLeastArg { size, elem } => {
                write!(f, "writable buffer >= arg{}*{elem}", size + 1)
            }
            SafePred::ReadableAtLeastArg { size, elem } => {
                write!(f, "readable buffer >= arg{}*{elem}", size + 1)
            }
            SafePred::WritableAtLeastProduct { a, b } => {
                write!(f, "writable buffer >= arg{}*arg{}", a + 1, b + 1)
            }
            SafePred::ReadableAtLeastProduct { a, b } => {
                write!(f, "readable buffer >= arg{}*arg{}", a + 1, b + 1)
            }
            SafePred::SizeFitsWritable { ptr, elem } => {
                write!(f, "size <= writable extent of arg{} / {elem}", ptr + 1)
            }
            SafePred::SizeFitsReadable { ptr, elem } => {
                write!(f, "size <= readable extent of arg{} / {elem}", ptr + 1)
            }
            SafePred::SizeBelow(n) => write!(f, "size < {n}"),
            SafePred::IntNonZero => write!(f, "non-zero integer"),
            SafePred::IntInRange { min, max } => write!(f, "int in [{min}, {max}]"),
            SafePred::PtrToCStrOrNull => write!(f, "pointer to (NULL or string) cell"),
            SafePred::ValidFuncPtr => write!(f, "valid function pointer"),
            SafePred::ValidFilePtr => write!(f, "valid FILE pointer"),
            SafePred::NullOr(inner) => write!(f, "NULL or {inner}"),
            SafePred::HeapChunkOrNull => write!(f, "NULL or live heap allocation"),
        }
    }
}

/// Host-side `strlen` via the debugger view: returns the string length if
/// a NUL appears within the cap, else `None`. Never faults.
pub fn peek_cstr_len(proc: &Proc, addr: VirtAddr) -> Option<u64> {
    if addr.is_null() {
        return None;
    }
    let mut len = 0u64;
    let mut cur = addr;
    // Zero-copy scan: each `peek_slice` yields the mapped bytes up to the
    // containing region's end; the loop continues into an adjacent region
    // when one is mapped there. At most `CSTR_SCAN_CAP + 1` bytes are ever
    // examined, so a NUL at position `CSTR_SCAN_CAP` is still found while
    // anything longer reports "unterminated".
    loop {
        // Ran off the end of the mapping without a terminator? `None`.
        let slice = proc.mem.peek_slice(cur)?;
        let budget = CSTR_SCAN_CAP + 1 - len;
        let take = (slice.len() as u64).min(budget) as usize;
        if let Some(pos) = slice[..take].iter().position(|b| *b == 0) {
            return Some(len + pos as u64);
        }
        len += take as u64;
        if len > CSTR_SCAN_CAP {
            return None;
        }
        cur = cur.add(take as u64);
    }
}

fn writable(oracle: &dyn ExtentOracle, proc: &Proc, v: CVal) -> u64 {
    oracle.writable_extent(proc, v.as_ptr()).unwrap_or(0)
}

fn readable(oracle: &dyn ExtentOracle, proc: &Proc, v: CVal) -> u64 {
    oracle.readable_extent(proc, v.as_ptr()).unwrap_or(0)
}

impl SafePred {
    /// Evaluates the predicate for argument `idx` of `args`. Host-side
    /// and fault-free: this is what the wrapper runs *instead of letting
    /// the library crash*.
    pub fn check(
        &self,
        proc: &Proc,
        oracle: &dyn ExtentOracle,
        args: &[CVal],
        idx: usize,
    ) -> bool {
        let own = match args.get(idx) {
            Some(v) => *v,
            None => return false,
        };
        let arg_u64 = |i: usize| args.get(i).map(|v| v.as_usize()).unwrap_or(0);
        match self {
            SafePred::Always => true,
            SafePred::NonNull => !own.is_null(),
            SafePred::Readable(n) => readable(oracle, proc, own) >= *n,
            SafePred::Writable(n) => writable(oracle, proc, own) >= *n,
            SafePred::CStr => peek_cstr_len(proc, own.as_ptr()).is_some(),
            SafePred::HoldsCStrOf { src } => {
                let Some(src_val) = args.get(*src) else { return false };
                let Some(len) = peek_cstr_len(proc, src_val.as_ptr()) else {
                    return false;
                };
                // Exact `size_right`-style bound: the copy lands inside
                // the containing object, not merely inside writable pages
                // — an overflow is *prevented* here, not canary-detected.
                oracle.extent_right(proc, own.as_ptr()).unwrap_or(0) > len
            }
            SafePred::WritableAtLeastArg { size, elem } => {
                let need = arg_u64(*size).saturating_mul(*elem);
                writable(oracle, proc, own) >= need
            }
            SafePred::ReadableAtLeastArg { size, elem } => {
                let need = arg_u64(*size).saturating_mul(*elem);
                readable(oracle, proc, own) >= need
            }
            SafePred::WritableAtLeastProduct { a, b } => {
                let need = arg_u64(*a).saturating_mul(arg_u64(*b));
                writable(oracle, proc, own) >= need
            }
            SafePred::ReadableAtLeastProduct { a, b } => {
                let need = arg_u64(*a).saturating_mul(arg_u64(*b));
                readable(oracle, proc, own) >= need
            }
            SafePred::SizeFitsWritable { ptr, elem } => {
                let Some(pv) = args.get(*ptr) else { return false };
                own.as_usize().saturating_mul(*elem) <= writable(oracle, proc, *pv)
            }
            SafePred::SizeFitsReadable { ptr, elem } => {
                let Some(pv) = args.get(*ptr) else { return false };
                own.as_usize().saturating_mul(*elem) <= readable(oracle, proc, *pv)
            }
            SafePred::SizeBelow(n) => own.as_usize() < *n,
            SafePred::IntNonZero => own.as_int() != 0,
            SafePred::IntInRange { min, max } => (*min..=*max).contains(&own.as_int()),
            SafePred::PtrToCStrOrNull => {
                if writable(oracle, proc, own) < 8 {
                    return false;
                }
                match proc.mem.read_ptr(own.as_ptr()) {
                    Ok(inner) if inner.is_null() => true,
                    Ok(inner) => peek_cstr_len(proc, inner).is_some(),
                    Err(_) => false,
                }
            }
            SafePred::ValidFuncPtr => {
                matches!(proc.resolve_call(own.as_ptr()), CallTarget::Function(_))
            }
            SafePred::ValidFilePtr => proc.mem.peek_u64(own.as_ptr()) == Some(FILE_MAGIC),
            SafePred::NullOr(inner) => {
                own.is_null() || inner.check(proc, oracle, args, idx)
            }
            SafePred::HeapChunkOrNull => {
                if own.is_null() {
                    return true;
                }
                // The pointer must be the payload of a *live* chunk:
                // rejects wild and interior pointers, the wilderness, and
                // — crucially — already-freed chunks (double free).
                // `live_payload` answers from the allocator's live-chunk
                // index plus an O(1) test of the headers `free` reads.
                simlibc::heap::live_payload(proc, own.as_ptr())
            }
        }
    }

    /// Indices of the *other* arguments this predicate reads when it is
    /// evaluated — the dataflow edges the wrapper-soundness lint walks to
    /// catch checks evaluated after one of their inputs was mutated.
    /// Empty for non-relational predicates.
    pub fn referenced_args(&self) -> Vec<usize> {
        match self {
            SafePred::HoldsCStrOf { src } => vec![*src],
            SafePred::WritableAtLeastArg { size, .. }
            | SafePred::ReadableAtLeastArg { size, .. } => vec![*size],
            SafePred::WritableAtLeastProduct { a, b }
            | SafePred::ReadableAtLeastProduct { a, b } => vec![*a, *b],
            SafePred::SizeFitsWritable { ptr, .. }
            | SafePred::SizeFitsReadable { ptr, .. } => vec![*ptr],
            SafePred::NullOr(inner) => inner.referenced_args(),
            _ => Vec::new(),
        }
    }

    /// `true` if this predicate references other arguments (a relational
    /// type derived in the validation pass).
    pub fn is_relational(&self) -> bool {
        if let SafePred::NullOr(inner) = self {
            return inner.is_relational();
        }
        matches!(
            self,
            SafePred::HoldsCStrOf { .. }
                | SafePred::WritableAtLeastArg { .. }
                | SafePred::ReadableAtLeastArg { .. }
                | SafePred::WritableAtLeastProduct { .. }
                | SafePred::ReadableAtLeastProduct { .. }
                | SafePred::SizeFitsWritable { .. }
                | SafePred::SizeFitsReadable { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlibc::testutil::libc_proc;
    use simproc::RegionOracle;

    #[test]
    fn basic_pointer_preds() {
        let mut p = libc_proc();
        let o = RegionOracle::new();
        let s = p.alloc_cstr("abc");
        let wild = CVal::Ptr(simproc::layout::WILD_ADDR);
        assert!(SafePred::Always.check(&p, &o, &[wild], 0));
        assert!(!SafePred::NonNull.check(&p, &o, &[CVal::NULL], 0));
        assert!(SafePred::NonNull.check(&p, &o, &[wild], 0));
        assert!(SafePred::CStr.check(&p, &o, &[CVal::Ptr(s)], 0));
        assert!(!SafePred::CStr.check(&p, &o, &[wild], 0));
        assert!(!SafePred::CStr.check(&p, &o, &[CVal::NULL], 0));
        assert!(SafePred::Readable(4).check(&p, &o, &[CVal::Ptr(s)], 0));
        assert!(SafePred::Writable(4).check(&p, &o, &[CVal::Ptr(s)], 0));
        let lit = p.alloc_cstr_literal("ro");
        assert!(SafePred::Readable(3).check(&p, &o, &[CVal::Ptr(lit)], 0));
        assert!(!SafePred::Writable(1).check(&p, &o, &[CVal::Ptr(lit)], 0));
    }

    #[test]
    fn unterminated_string_fails_cstr() {
        let mut p = libc_proc();
        let o = RegionOracle::new();
        // Fill heap start with non-NUL bytes over the scan cap? The cap
        // is 1 MiB; the heap is smaller, so the scan hits unmapped memory
        // and returns None.
        let buf = simlibc::heap::malloc(&mut p, 4096).unwrap();
        let junk = vec![b'x'; 4096];
        p.mem.write_bytes(buf, &junk).unwrap();
        // There are zero bytes after the allocation (fresh heap), so this
        // IS terminated. Instead check peek_cstr_len on rodata end.
        assert!(peek_cstr_len(&p, buf).is_some());
        let end = simproc::layout::DATA_BASE.add(simproc::layout::DATA_SIZE).sub(4);
        p.mem.poke_bytes(end, &[1, 1, 1, 1]);
        assert_eq!(peek_cstr_len(&p, end), None);
        assert!(!SafePred::CStr.check(&p, &o, &[CVal::Ptr(end)], 0));
    }

    #[test]
    fn terminated_string_at_mapping_end_is_measured() {
        // Regression: the chunked scan used to peek 256 bytes at a time and
        // gave up wholesale when the chunk crossed the end of the mapping,
        // misjudging strings that ARE terminated within the final bytes.
        let mut p = libc_proc();
        let o = RegionOracle::new();
        let end = simproc::layout::DATA_BASE.add(simproc::layout::DATA_SIZE).sub(4);
        p.mem.poke_bytes(end, &[b'a', b'b', b'c', 0]);
        assert_eq!(peek_cstr_len(&p, end), Some(3));
        assert!(SafePred::CStr.check(&p, &o, &[CVal::Ptr(end)], 0));
    }

    #[test]
    fn holds_cstr_of_models_strcpy() {
        let mut p = libc_proc();
        let o = RegionOracle::new();
        let src = p.alloc_cstr("123456789"); // strlen 9, needs 10
        let small = simlibc::heap::malloc(&mut p, 8).unwrap();
        let big = simlibc::heap::malloc(&mut p, 16).unwrap();
        let pred = SafePred::HoldsCStrOf { src: 1 };
        // Note: heap usable size >= request, so "small" may still hold 8..16.
        let small_extent = o.writable_extent(&p, small).unwrap();
        assert!(small_extent >= 8);
        assert!(pred.check(&p, &o, &[CVal::Ptr(big), CVal::Ptr(src)], 0));
        // A 1-byte stack buffer cannot hold it... build via frames.
        p.push_frame("f").unwrap();
        let tiny = p.stack_alloc(4).unwrap();
        // Stack extent includes slack up to ret slot; measure directly:
        let tiny_extent = o.writable_extent(&p, tiny).unwrap();
        if tiny_extent < 10 {
            assert!(!pred.check(&p, &o, &[CVal::Ptr(tiny), CVal::Ptr(src)], 0));
        }
        // Wild source fails the predicate (cannot measure the string).
        assert!(!pred.check(
            &p,
            &o,
            &[CVal::Ptr(big), CVal::Ptr(simproc::layout::WILD_ADDR)],
            0
        ));
    }

    #[test]
    fn size_relations() {
        let mut p = libc_proc();
        let o = RegionOracle::new();
        let buf = simlibc::heap::malloc(&mut p, 64).unwrap();
        let extent = o.writable_extent(&p, buf).unwrap();
        let fits = SafePred::SizeFitsWritable { ptr: 0, elem: 1 };
        assert!(fits.check(&p, &o, &[CVal::Ptr(buf), CVal::Int(extent as i64)], 1));
        assert!(!fits.check(&p, &o, &[CVal::Ptr(buf), CVal::Int(extent as i64 + 1)], 1));
        assert!(!fits.check(&p, &o, &[CVal::Ptr(buf), CVal::Int(-1)], 1));

        let watl = SafePred::WritableAtLeastArg { size: 1, elem: 8 };
        assert!(watl.check(&p, &o, &[CVal::Ptr(buf), CVal::Int(extent as i64 / 8)], 0));
        assert!(!watl.check(&p, &o, &[CVal::Ptr(buf), CVal::Int(extent as i64)], 0));

        let prod = SafePred::WritableAtLeastProduct { a: 1, b: 2 };
        assert!(prod.check(&p, &o, &[CVal::Ptr(buf), CVal::Int(8), CVal::Int(8)], 0));
        assert!(!prod.check(
            &p,
            &o,
            &[CVal::Ptr(buf), CVal::Int(1 << 20), CVal::Int(1 << 20)],
            0
        ));
    }

    #[test]
    fn scalar_preds() {
        let p = libc_proc();
        let o = RegionOracle::new();
        let r = SafePred::IntInRange { min: -1, max: 255 };
        assert!(r.check(&p, &o, &[CVal::Int(255)], 0));
        assert!(r.check(&p, &o, &[CVal::Int(-1)], 0));
        assert!(!r.check(&p, &o, &[CVal::Int(256)], 0));
        assert!(!r.check(&p, &o, &[CVal::Int(-2)], 0));
        assert!(SafePred::SizeBelow(10).check(&p, &o, &[CVal::Int(9)], 0));
        assert!(!SafePred::SizeBelow(10).check(&p, &o, &[CVal::Int(-1)], 0));
    }

    #[test]
    fn func_and_file_preds() {
        let mut p = libc_proc();
        let o = RegionOracle::new();
        fn cb(_p: &mut Proc, _a: &[CVal]) -> Result<CVal, simproc::Fault> {
            Ok(CVal::Int(0))
        }
        let f = p.register_host_fn("cb", cb);
        assert!(SafePred::ValidFuncPtr.check(&p, &o, &[CVal::Ptr(f)], 0));
        assert!(!SafePred::ValidFuncPtr.check(&p, &o, &[CVal::Int(0x999)], 0));

        // A real FILE via fopen.
        p.kernel.install_file("data", b"x".to_vec());
        let path = p.alloc_cstr("data");
        let mode = p.alloc_cstr("r");
        let file =
            simlibc::stdio::fopen(&mut p, &[CVal::Ptr(path), CVal::Ptr(mode)]).unwrap();
        assert!(SafePred::ValidFilePtr.check(&p, &o, &[file], 0));
        let fake = p.alloc_data_zeroed(16);
        assert!(!SafePred::ValidFilePtr.check(&p, &o, &[CVal::Ptr(fake)], 0));
        assert!(!SafePred::ValidFilePtr.check(&p, &o, &[CVal::NULL], 0));
    }

    #[test]
    fn ptr_to_cstr_or_null() {
        let mut p = libc_proc();
        let o = RegionOracle::new();
        let pred = SafePred::PtrToCStrOrNull;
        let cell = p.alloc_data_zeroed(8);
        assert!(pred.check(&p, &o, &[CVal::Ptr(cell)], 0), "NULL inner ok");
        let s = p.alloc_cstr("str");
        p.mem.write_ptr(cell, s).unwrap();
        assert!(pred.check(&p, &o, &[CVal::Ptr(cell)], 0));
        p.mem.write_u64(cell, simproc::layout::WILD_ADDR.get()).unwrap();
        assert!(!pred.check(&p, &o, &[CVal::Ptr(cell)], 0));
        assert!(!pred.check(&p, &o, &[CVal::NULL], 0));
    }

    #[test]
    fn relational_flag() {
        assert!(SafePred::HoldsCStrOf { src: 0 }.is_relational());
        assert!(SafePred::SizeFitsWritable { ptr: 0, elem: 1 }.is_relational());
        assert!(!SafePred::CStr.is_relational());
        assert!(!SafePred::Always.is_relational());
    }

    #[test]
    fn referenced_args_names_dataflow_edges() {
        assert_eq!(SafePred::HoldsCStrOf { src: 1 }.referenced_args(), vec![1]);
        assert_eq!(
            SafePred::WritableAtLeastProduct { a: 1, b: 2 }.referenced_args(),
            vec![1, 2]
        );
        assert_eq!(
            SafePred::NullOr(Box::new(SafePred::SizeFitsWritable { ptr: 0, elem: 8 }))
                .referenced_args(),
            vec![0]
        );
        assert!(SafePred::CStr.referenced_args().is_empty());
        assert!(SafePred::IntNonZero.referenced_args().is_empty());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(SafePred::CStr.to_string(), "readable NUL-terminated string");
        assert_eq!(
            SafePred::HoldsCStrOf { src: 1 }.to_string(),
            "writable buffer >= strlen(arg2)+1"
        );
    }
}
