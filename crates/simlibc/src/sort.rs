//! `qsort` and `bsearch` — the functions that exercise function-pointer
//! parameters (the comparator is called through the simulated call table,
//! so a corrupted comparator pointer hijacks control flow).

use simproc::{CVal, Fault, Proc};

use crate::util::{arg, enter, ok_ptr};

/// `void qsort(void *base, size_t nmemb, size_t size,
///             int (*compar)(const void *, const void *));`
///
/// Sorts in place in simulated memory (insertion sort — quadratic, which
/// under a fuel budget faithfully turns absurd `nmemb` values into
/// hangs). The comparator is invoked with *addresses of the elements*,
/// like the real API.
pub fn qsort(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let base = arg(args, 0).as_ptr();
    let nmemb = arg(args, 1).as_usize();
    let size = arg(args, 2).as_usize();
    let compar = arg(args, 3).as_ptr();
    if nmemb <= 1 {
        if nmemb == 1 {
            // Still touches the element, like many implementations.
            p.read_bytes(base, size)?;
        }
        return Ok(CVal::Void);
    }
    // size == 0: the real qsort loops uselessly; do one comparator call
    // per pair so fuel accounts for it, then return.
    for i in 1..nmemb {
        let mut j = i;
        while j > 0 {
            let a = base.add((j - 1) * size);
            let b = base.add(j * size);
            let cmp = p.call_function(compar, &[CVal::Ptr(a), CVal::Ptr(b)])?;
            if cmp.as_int() <= 0 {
                break;
            }
            // `b` is `a + size`: swap the neighbours.
            p.swap_adjacent(a, size)?;
            j -= 1;
        }
    }
    Ok(CVal::Void)
}

/// `void *bsearch(const void *key, const void *base, size_t nmemb,
///                size_t size, int (*compar)(const void *, const void *));`
pub fn bsearch(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let key = arg(args, 0).as_ptr();
    let base = arg(args, 1).as_ptr();
    let nmemb = arg(args, 2).as_usize();
    let size = arg(args, 3).as_usize();
    let compar = arg(args, 4).as_ptr();
    let mut lo = 0u64;
    let mut hi = nmemb;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let elem = base.add(mid * size);
        let cmp = p.call_function(compar, &[CVal::Ptr(key), CVal::Ptr(elem)])?.as_int();
        if cmp == 0 {
            return ok_ptr(elem);
        }
        if cmp < 0 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(CVal::NULL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::libc_proc;
    use simproc::VirtAddr;

    /// `int cmp_i32(const void *a, const void *b)` registered as an
    /// in-process function, like a compiled comparator in the app's text.
    fn cmp_i32(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
        let a = p.read_u32(args[0].as_ptr())? as i32;
        let b = p.read_u32(args[1].as_ptr())? as i32;
        Ok(CVal::Int((a - b) as i64))
    }

    fn setup(values: &[i32]) -> (Proc, VirtAddr, VirtAddr) {
        let mut p = libc_proc();
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let base = p.alloc_data(&bytes);
        let cmp = p.register_host_fn("cmp_i32", cmp_i32);
        (p, base, cmp)
    }

    fn read_values(p: &mut Proc, base: VirtAddr, n: usize) -> Vec<i32> {
        (0..n).map(|i| p.read_u32(base.add(i as u64 * 4)).unwrap() as i32).collect()
    }

    #[test]
    fn qsort_sorts() {
        let (mut p, base, cmp) = setup(&[5, -1, 3, 3, 0, 42, 7]);
        qsort(&mut p, &[CVal::Ptr(base), CVal::Int(7), CVal::Int(4), CVal::Ptr(cmp)])
            .unwrap();
        assert_eq!(read_values(&mut p, base, 7), vec![-1, 0, 3, 3, 5, 7, 42]);
    }

    #[test]
    fn qsort_empty_and_single() {
        let (mut p, base, cmp) = setup(&[9]);
        qsort(&mut p, &[CVal::Ptr(base), CVal::Int(0), CVal::Int(4), CVal::Ptr(cmp)])
            .unwrap();
        qsort(&mut p, &[CVal::Ptr(base), CVal::Int(1), CVal::Int(4), CVal::Ptr(cmp)])
            .unwrap();
        assert_eq!(read_values(&mut p, base, 1), vec![9]);
    }

    #[test]
    fn qsort_wild_comparator_is_a_wild_jump() {
        let (mut p, base, _) = setup(&[2, 1]);
        let err = qsort(
            &mut p,
            &[
                CVal::Ptr(base),
                CVal::Int(2),
                CVal::Int(4),
                CVal::Ptr(VirtAddr::new(0x1234)),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, Fault::WildJump { .. }));
    }

    #[test]
    fn qsort_huge_nmemb_crashes_or_hangs() {
        let (mut p, base, cmp) = setup(&[1, 2]);
        p.set_fuel_limit(Some(p.cycles() + 200_000));
        let err =
            qsort(&mut p, &[CVal::Ptr(base), CVal::Int(-1), CVal::Int(4), CVal::Ptr(cmp)])
                .unwrap_err();
        assert!(matches!(err, Fault::Segv { .. } | Fault::Hang), "{err}");
    }

    #[test]
    fn bsearch_finds_and_misses() {
        let (mut p, base, cmp) = setup(&[2, 4, 6, 8, 10]);
        let key = p.alloc_data(&6i32.to_le_bytes());
        let hit = bsearch(
            &mut p,
            &[CVal::Ptr(key), CVal::Ptr(base), CVal::Int(5), CVal::Int(4), CVal::Ptr(cmp)],
        )
        .unwrap();
        assert_eq!(hit.as_ptr(), base.add(8));
        let missing = p.alloc_data(&5i32.to_le_bytes());
        let none = bsearch(
            &mut p,
            &[
                CVal::Ptr(missing),
                CVal::Ptr(base),
                CVal::Int(5),
                CVal::Int(4),
                CVal::Ptr(cmp),
            ],
        )
        .unwrap();
        assert!(none.is_null());
    }
}
