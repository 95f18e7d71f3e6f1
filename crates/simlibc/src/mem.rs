//! `<string.h>` memory functions (`mem*`, plus the BSD legacy pair).

use simproc::{CVal, Fault, Proc};

use crate::util::{arg, enter, ok_int, ok_ptr};

/// `void *memcpy(void *dest, const void *src, size_t n);` — copies
/// forward, so overlapping ranges corrupt, exactly like the classic.
pub fn memcpy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    p.copy_forward(dest, src, n)?;
    ok_ptr(dest)
}

/// `void *mempcpy(void *dest, const void *src, size_t n);`
pub fn mempcpy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    let dest = arg(args, 0).as_ptr();
    let n = arg(args, 2).as_usize();
    memcpy(p, args)?;
    ok_ptr(dest.add(n))
}

/// `void *memmove(void *dest, const void *src, size_t n);` — handles
/// overlap correctly (memmove always did).
pub fn memmove(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    if dest <= src || src.add(n) <= dest {
        p.copy_forward(dest, src, n)?;
    } else {
        p.copy_backward(dest, src, n)?;
    }
    ok_ptr(dest)
}

/// `void *memset(void *s, int c, size_t n);`
pub fn memset(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let c = arg(args, 1).as_int() as u8;
    let n = arg(args, 2).as_usize();
    p.fill(s, n, c)?;
    ok_ptr(s)
}

/// `int memcmp(const void *s1, const void *s2, size_t n);`
pub fn memcmp(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s1 = arg(args, 0).as_ptr();
    let s2 = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    let mut i = 0u64;
    while i < n {
        let a = p.read_u8(s1.add(i))?;
        let b = p.read_u8(s2.add(i))?;
        if a != b {
            return ok_int(a as i64 - b as i64);
        }
        i += 1;
    }
    ok_int(0)
}

/// `void *memchr(const void *s, int c, size_t n);`
pub fn memchr(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let c = arg(args, 1).as_int() as u8;
    let n = arg(args, 2).as_usize();
    match p.scan(s, c, n)? {
        Some(i) => ok_ptr(s.add(i)),
        None => Ok(CVal::NULL),
    }
}

/// `void bzero(void *s, size_t n);` (legacy BSD)
pub fn bzero(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    memset(p, &[arg(args, 0), CVal::Int(0), arg(args, 1)])?;
    Ok(CVal::Void)
}

/// `void bcopy(const void *src, void *dest, size_t n);` (legacy BSD —
/// note the swapped argument order)
pub fn bcopy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    memmove(p, &[arg(args, 1), arg(args, 0), arg(args, 2)])?;
    Ok(CVal::Void)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::libc_proc;
    use simproc::layout::WILD_ADDR;

    #[test]
    fn memcpy_roundtrip() {
        let mut p = libc_proc();
        let src = p.alloc_data(b"12345678");
        let dst = p.alloc_data_zeroed(8);
        let r = memcpy(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src), CVal::Int(8)]).unwrap();
        assert_eq!(r.as_ptr(), dst);
        assert_eq!(p.read_bytes(dst, 8).unwrap(), b"12345678");
    }

    #[test]
    fn mempcpy_returns_end() {
        let mut p = libc_proc();
        let src = p.alloc_data(b"abc");
        let dst = p.alloc_data_zeroed(3);
        let r = mempcpy(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src), CVal::Int(3)]).unwrap();
        assert_eq!(r.as_ptr(), dst.add(3));
    }

    #[test]
    fn memmove_handles_overlap_both_directions() {
        let mut p = libc_proc();
        let buf = p.alloc_data(b"abcdef\0\0");
        // Shift right by 2 within the same buffer.
        memmove(&mut p, &[CVal::Ptr(buf.add(2)), CVal::Ptr(buf), CVal::Int(6)]).unwrap();
        assert_eq!(p.read_bytes(buf, 8).unwrap(), b"ababcdef");
        // Shift left by 2.
        memmove(&mut p, &[CVal::Ptr(buf), CVal::Ptr(buf.add(2)), CVal::Int(6)]).unwrap();
        assert_eq!(p.read_bytes(buf, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn memcpy_with_overlap_corrupts_like_the_classic() {
        let mut p = libc_proc();
        let buf = p.alloc_data(b"abcdef\0\0");
        memcpy(&mut p, &[CVal::Ptr(buf.add(2)), CVal::Ptr(buf), CVal::Int(6)]).unwrap();
        // Forward copy propagates the first two bytes over everything.
        assert_eq!(p.read_bytes(buf, 8).unwrap(), b"abababab".as_slice());
    }

    #[test]
    fn memset_and_memcmp_and_memchr() {
        let mut p = libc_proc();
        let a = p.alloc_data_zeroed(8);
        memset(&mut p, &[CVal::Ptr(a), CVal::Int(0x2A), CVal::Int(8)]).unwrap();
        assert_eq!(p.read_bytes(a, 8).unwrap(), vec![0x2A; 8]);
        let b = p.alloc_data(&[0x2A; 8]);
        assert_eq!(
            memcmp(&mut p, &[CVal::Ptr(a), CVal::Ptr(b), CVal::Int(8)]).unwrap(),
            CVal::Int(0)
        );
        p.write_u8(b.add(4), 0x2B).unwrap();
        assert!(
            memcmp(&mut p, &[CVal::Ptr(a), CVal::Ptr(b), CVal::Int(8)]).unwrap().as_int()
                < 0
        );
        let hit = memchr(&mut p, &[CVal::Ptr(b), CVal::Int(0x2B), CVal::Int(8)]).unwrap();
        assert_eq!(hit.as_ptr(), b.add(4));
        let miss = memchr(&mut p, &[CVal::Ptr(b), CVal::Int(0x77), CVal::Int(8)]).unwrap();
        assert!(miss.is_null());
    }

    #[test]
    fn legacy_bzero_bcopy() {
        let mut p = libc_proc();
        let a = p.alloc_data(&[1u8; 8]);
        bzero(&mut p, &[CVal::Ptr(a), CVal::Int(8)]).unwrap();
        assert_eq!(p.read_bytes(a, 8).unwrap(), vec![0u8; 8]);
        let src = p.alloc_data(b"xy");
        bcopy(&mut p, &[CVal::Ptr(src), CVal::Ptr(a), CVal::Int(2)]).unwrap();
        assert_eq!(p.read_bytes(a, 2).unwrap(), b"xy");
    }

    #[test]
    fn huge_size_argument_faults() {
        // memcpy(dst, src, (size_t)-1) — a Ballista classic.
        let mut p = libc_proc();
        let src = p.alloc_data(b"x");
        let dst = p.alloc_data_zeroed(1);
        p.set_fuel_limit(Some(p.cycles() + 100_000_000));
        let err =
            memcpy(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src), CVal::Int(-1)]).unwrap_err();
        assert!(matches!(err, Fault::Segv { .. } | Fault::Hang), "{err}");
    }

    #[test]
    fn wild_pointers_fault() {
        let mut p = libc_proc();
        let ok = p.alloc_data_zeroed(4);
        for f in [memcpy, memmove, memcmp] {
            let err = f(&mut p, &[CVal::Ptr(ok), CVal::Ptr(WILD_ADDR), CVal::Int(4)])
                .unwrap_err();
            assert!(matches!(err, Fault::Segv { .. }));
        }
    }
}
