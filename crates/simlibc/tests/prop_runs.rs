//! Differential tests of the run primitives (`Proc::fill`,
//! `copy_forward`, `copy_cstr`, `copy_backward`, `scan`, `read_cstr`) and
//! of the simlibc functions built on them, each against the byte loop of
//! `read_u8`/`write_u8` it replaced. The byte loops live here, as the
//! reference. `Proc::swap_adjacent` and `qsort` are checked the same way
//! against the four calls a swap used to be: two `read_bytes`, then two
//! `write_bytes`.
//!
//! Every case lays out adjacent regions with mixed protections and
//! unmapped gaps, fills them with bytes of varying NUL density, and picks
//! a source and destination that are equal, overlap either way, or lie in
//! different regions, under a fuel limit that may run out on any byte
//! step. Two identically built processes then run the reference and the
//! implementation, which must agree on the result (the fault value
//! included), the whole memory image, `cycles()`, and whether the
//! validation epoch moved, which it does exactly when a byte was written.

use proptest::prelude::*;

use simlibc::testutil::libc_proc;
use simproc::{layout, splitmix64, CVal, Fault, HostFn, Proc, Prot, VirtAddr};

/// Where the random layout starts: unmapped space between the data
/// segment and the heap.
const BASE: u64 = 0x0100_0000;
const PROTS: [Prot; 5] = [Prot::RW, Prot::RW, Prot::RW, Prot::R, Prot::NONE];

/// One generated case.
#[derive(Debug, Clone)]
struct Case {
    /// Consecutive segments: (unmapped gap before it, length, index into
    /// [`PROTS`]).
    layout: Vec<(u64, u64, usize)>,
    /// Seeds the region contents.
    seed: u64,
    /// One byte in `nul_every` is a NUL (0: none).
    nul_every: u64,
    src: u64,
    dst: u64,
    n: u64,
    /// The needle or fill byte.
    c: u8,
    /// Fuel beyond the cycles at the call, if limited.
    fuel: Option<u64>,
}

fn case() -> impl Strategy<Value = Case> {
    let segment = (prop_oneof![3 => Just(0u64), 1 => 1u64..24], 1u64..48, 0..PROTS.len());
    let layout = prop::collection::vec(segment, 1..6);
    let contents = (any::<u64>(), prop_oneof![Just(0u64), Just(3), Just(16), Just(64)]);
    // Source offset, then how the destination relates to it: equal,
    // above or below by a small distance (overlap), or anywhere. Offsets
    // fall within the layout, give or take 4 bytes.
    let addrs = (any::<u64>(), 0u8..4, 1u64..24, any::<u64>());
    let n = prop_oneof![4 => 0u64..64, 2 => 0u64..300, 1 => Just(u64::MAX)];
    // Even and odd budgets land a copy's hang on its read or write step.
    let fuel = prop_oneof![1 => Just(None), 3 => (0u64..120).prop_map(Some)];
    (layout, contents, addrs, n, prop_oneof![Just(0u8), any::<u8>()], fuel).prop_map(
        |(layout, (seed, nul_every), (src, rel, delta, other), n, c, fuel)| {
            let span = layout.iter().map(|&(gap, len, _)| gap + len).sum::<u64>() + 8;
            let src = BASE - 4 + src % span;
            let dst = match rel {
                0 => src,
                1 => src + delta,
                2 => src - delta,
                _ => BASE - 4 + other % span,
            };
            Case { layout, seed, nul_every, src, dst, n, c, fuel }
        },
    )
}

/// A libc process with the case's regions mapped and filled. Text,
/// rodata and the stack are unmapped: no function under test reads them,
/// and every run copies and compares the whole image.
fn build(case: &Case) -> Proc {
    let mut p = libc_proc();
    for segment in [layout::TEXT_BASE, layout::RODATA_BASE, layout::STACK_BASE] {
        assert!(p.mem.unmap(segment));
    }
    let mut at = BASE;
    for (i, &(gap, len, prot)) in case.layout.iter().enumerate() {
        at += gap;
        let base = VirtAddr::new(at);
        p.mem.map(base, len, PROTS[prot], format!("seg{i}")).unwrap();
        let bytes: Vec<u8> = (0..len)
            .map(|k| {
                let r = splitmix64(case.seed ^ (at + k));
                if case.nul_every != 0 && r.is_multiple_of(case.nul_every) {
                    0
                } else {
                    (r >> 32) as u8 | 1
                }
            })
            .collect();
        assert!(p.mem.poke_bytes(base, &bytes));
        at += len;
    }
    p
}

/// What one run of a function leaves observable.
struct Outcome {
    result: Result<CVal, Fault>,
    proc: Proc,
    cycles: u64,
    epoch_moved: bool,
}

/// Runs `f` on a copy of `base` under the case's fuel limit.
fn run(
    base: &Proc,
    case: &Case,
    f: impl FnOnce(&mut Proc) -> Result<CVal, Fault>,
) -> Outcome {
    let mut p = base.clone();
    p.set_fuel_limit(case.fuel.map(|b| p.cycles() + b));
    let epoch = p.mem.epoch();
    let result = f(&mut p);
    let cycles = p.cycles();
    let epoch_moved = p.mem.epoch() != epoch;
    Outcome { result, proc: p, cycles, epoch_moved }
}

/// The first region whose bytes (or mapping) differ between two images.
fn image_diff(a: &Proc, b: &Proc) -> Option<String> {
    let (ra, rb) = (a.mem.regions(), b.mem.regions());
    if ra.len() != rb.len() {
        return Some(format!("{} regions vs {}", ra.len(), rb.len()));
    }
    for (x, y) in ra.iter().zip(rb) {
        if (x.base(), x.len(), x.prot()) != (y.base(), y.len(), y.prot()) {
            return Some(format!("region {} differs in mapping", x.name()));
        }
        let (bx, by) =
            (a.mem.peek_slice(x.base()).unwrap(), b.mem.peek_slice(y.base()).unwrap());
        if bx == by {
            continue;
        }
        if let Some(i) = bx.iter().zip(by).position(|(u, v)| u != v) {
            return Some(format!(
                "region {} differs at {}: {:#04x} vs {:#04x}",
                x.name(),
                x.base().add(i as u64),
                bx[i],
                by[i]
            ));
        }
    }
    None
}

fn agree(
    what: &str,
    case: &Case,
    want: Outcome,
    got: Outcome,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.result, &want.result, "{}: result, {:?}", what, case);
    if let Some(d) = image_diff(&want.proc, &got.proc) {
        prop_assert!(false, "{}: memory image, {}, {:?}", what, d, case);
    }
    prop_assert_eq!(got.cycles, want.cycles, "{}: cycles, {:?}", what, case);
    prop_assert_eq!(got.epoch_moved, want.epoch_moved, "{}: epoch, {:?}", what, case);
    Ok(())
}

fn check(
    what: &str,
    base: &Proc,
    case: &Case,
    reference: impl FnOnce(&mut Proc) -> Result<CVal, Fault>,
    fast: impl FnOnce(&mut Proc) -> Result<CVal, Fault>,
) -> Result<(), TestCaseError> {
    agree(what, case, run(base, case, reference), run(base, case, fast))
}

// ----- byte-loop references of the primitives --------------------------

fn ref_fill(p: &mut Proc, addr: VirtAddr, n: u64, v: u8) -> Result<(), Fault> {
    for i in 0..n {
        p.write_u8(addr.add(i), v)?;
    }
    Ok(())
}

fn ref_copy_forward(
    p: &mut Proc,
    dst: VirtAddr,
    src: VirtAddr,
    n: u64,
    stop_after_nul: bool,
) -> Result<u64, Fault> {
    let mut i = 0u64;
    while i < n {
        let b = p.read_u8(src.add(i))?;
        p.write_u8(dst.add(i), b)?;
        i += 1;
        if stop_after_nul && b == 0 {
            break;
        }
    }
    Ok(i)
}

fn ref_copy_backward(
    p: &mut Proc,
    dst: VirtAddr,
    src: VirtAddr,
    n: u64,
) -> Result<(), Fault> {
    let mut i = n;
    while i > 0 {
        i -= 1;
        let b = p.read_u8(src.add(i))?;
        p.write_u8(dst.add(i), b)?;
    }
    Ok(())
}

fn ref_scan(
    p: &mut Proc,
    addr: VirtAddr,
    needle: u8,
    max: u64,
) -> Result<Option<u64>, Fault> {
    let mut i = 0u64;
    while i < max {
        if p.read_u8(addr.add(i))? == needle {
            return Ok(Some(i));
        }
        i += 1;
    }
    Ok(None)
}

fn ref_read_cstr(p: &mut Proc, addr: VirtAddr) -> Result<Vec<u8>, Fault> {
    let mut out = Vec::new();
    let mut cur = addr;
    loop {
        let b = p.read_u8(cur)?;
        if b == 0 {
            return Ok(out);
        }
        out.push(b);
        cur = cur.add(1);
    }
}

// ----- byte-loop references of the simlibc functions --------------------

fn arg(args: &[CVal], i: usize) -> CVal {
    args.get(i).copied().unwrap_or(CVal::Int(0))
}

fn enter(p: &mut Proc) -> Result<(), Fault> {
    p.consume_fuel(5)
}

fn ref_strlen(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let mut n = 0i64;
    while p.read_u8(s.add(n as u64))? != 0 {
        n += 1;
    }
    Ok(CVal::Int(n))
}

fn ref_strnlen(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let maxlen = arg(args, 1).as_usize();
    let mut n = 0u64;
    while n < maxlen && p.read_u8(s.add(n))? != 0 {
        n += 1;
    }
    Ok(CVal::Int(n as i64))
}

fn ref_strcpy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    ref_copy_forward(p, dest, arg(args, 1).as_ptr(), u64::MAX, true)?;
    Ok(CVal::Ptr(dest))
}

fn ref_strncpy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    let mut i = 0u64;
    while i < n {
        let b = p.read_u8(src.add(i))?;
        p.write_u8(dest.add(i), b)?;
        i += 1;
        if b == 0 {
            break;
        }
    }
    while i < n {
        p.write_u8(dest.add(i), 0)?;
        i += 1;
    }
    Ok(CVal::Ptr(dest))
}

fn ref_strcat(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let mut d = dest;
    while p.read_u8(d)? != 0 {
        d = d.add(1);
    }
    let mut i = 0u64;
    loop {
        let b = p.read_u8(src.add(i))?;
        p.write_u8(d.add(i), b)?;
        if b == 0 {
            return Ok(CVal::Ptr(dest));
        }
        i += 1;
    }
}

fn ref_strncat(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    let mut d = dest;
    while p.read_u8(d)? != 0 {
        d = d.add(1);
    }
    let mut i = 0u64;
    while i < n {
        let b = p.read_u8(src.add(i))?;
        if b == 0 {
            break;
        }
        p.write_u8(d.add(i), b)?;
        i += 1;
    }
    p.write_u8(d.add(i), 0)?;
    Ok(CVal::Ptr(dest))
}

fn ref_strlcat(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dst = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let size = arg(args, 2).as_usize();
    let mut dlen = 0u64;
    while dlen < size && p.read_u8(dst.add(dlen))? != 0 {
        dlen += 1;
    }
    let mut slen = 0u64;
    loop {
        let b = p.read_u8(src.add(slen))?;
        if b == 0 {
            break;
        }
        if dlen + slen + 1 < size {
            p.write_u8(dst.add(dlen + slen), b)?;
        }
        slen += 1;
    }
    if dlen < size {
        p.write_u8(dst.add((dlen + slen).min(size - 1)), 0)?;
    }
    Ok(CVal::Int((dlen + slen) as i64))
}

fn ref_strdup(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let bytes = ref_read_cstr(p, arg(args, 0).as_ptr())?;
    let dst = simlibc::heap::malloc(p, bytes.len() as u64 + 1)?;
    if dst.is_null() {
        return Ok(CVal::NULL);
    }
    p.write_cstr(dst, &bytes)?;
    Ok(CVal::Ptr(dst))
}

fn ref_strndup(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let n = arg(args, 1).as_usize();
    let mut bytes = Vec::new();
    while (bytes.len() as u64) < n {
        let b = p.read_u8(s.add(bytes.len() as u64))?;
        if b == 0 {
            break;
        }
        bytes.push(b);
    }
    let dst = simlibc::heap::malloc(p, bytes.len() as u64 + 1)?;
    if dst.is_null() {
        return Ok(CVal::NULL);
    }
    p.write_cstr(dst, &bytes)?;
    Ok(CVal::Ptr(dst))
}

fn ref_memcpy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    ref_copy_forward(p, dest, arg(args, 1).as_ptr(), arg(args, 2).as_usize(), false)?;
    Ok(CVal::Ptr(dest))
}

fn ref_mempcpy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    ref_memcpy(p, args)?;
    Ok(CVal::Ptr(arg(args, 0).as_ptr().add(arg(args, 2).as_usize())))
}

fn ref_memmove(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    if dest <= src || src.add(n) <= dest {
        ref_copy_forward(p, dest, src, n, false)?;
    } else {
        ref_copy_backward(p, dest, src, n)?;
    }
    Ok(CVal::Ptr(dest))
}

fn ref_memset(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    ref_fill(p, s, arg(args, 2).as_usize(), arg(args, 1).as_int() as u8)?;
    Ok(CVal::Ptr(s))
}

fn ref_bzero(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    ref_memset(p, &[arg(args, 0), CVal::Int(0), arg(args, 1)])?;
    Ok(CVal::Void)
}

fn ref_bcopy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    ref_memmove(p, &[arg(args, 1), arg(args, 0), arg(args, 2)])?;
    Ok(CVal::Void)
}

fn ref_memchr(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let c = arg(args, 1).as_int() as u8;
    Ok(match ref_scan(p, s, c, arg(args, 2).as_usize())? {
        Some(i) => CVal::Ptr(s.add(i)),
        None => CVal::NULL,
    })
}

/// The swap `Proc::swap_adjacent` stands for: both elements read, then
/// each written into the other's place.
fn ref_swap(p: &mut Proc, a: VirtAddr, size: u64) -> Result<(), Fault> {
    let va = p.read_bytes(a, size)?;
    let vb = p.read_bytes(a.add(size), size)?;
    p.write_bytes(a, &vb)?;
    p.write_bytes(a.add(size), &va)
}

/// `qsort`'s insertion sort with [`ref_swap`] for its swaps.
fn ref_qsort(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let base = arg(args, 0).as_ptr();
    let nmemb = arg(args, 1).as_usize();
    let size = arg(args, 2).as_usize();
    let compar = arg(args, 3).as_ptr();
    if nmemb <= 1 {
        if nmemb == 1 {
            p.read_bytes(base, size)?;
        }
        return Ok(CVal::Void);
    }
    for i in 1..nmemb {
        let mut j = i;
        while j > 0 {
            let a = base.add((j - 1).wrapping_mul(size));
            let b = base.add(j.wrapping_mul(size));
            let cmp = p.call_function(compar, &[CVal::Ptr(a), CVal::Ptr(b)])?;
            if cmp.as_int() <= 0 {
                break;
            }
            ref_swap(p, a, size)?;
            j -= 1;
        }
    }
    Ok(CVal::Void)
}

/// Comparator on the elements' first bytes.
fn cmp_byte(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    let a = p.read_u8(args[0].as_ptr())?;
    let b = p.read_u8(args[1].as_ptr())?;
    Ok(CVal::Int(i64::from(a) - i64::from(b)))
}

/// Comparator that reads nothing and asks for a swap every time.
fn cmp_always_after(_: &mut Proc, _: &[CVal]) -> Result<CVal, Fault> {
    Ok(CVal::Int(1))
}

/// Element sizes for swaps: most fit a small region twice, some do not,
/// and some are large enough that `2 × size` overflows. The fuel of one
/// of a swap's four charges, `1 + size / 8`, is at most 2^61, so the four
/// together never overflow.
fn swap_size() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 0u64..24,
        2 => 0u64..300,
        1 => (0usize..6).prop_map(|i| {
            [u64::MAX, u64::MAX - 7, 1 << 63, (1 << 63) - 1, (1 << 63) + 9, 1 << 62][i]
        }),
    ]
}

/// Fuel limits that land before, on and after each of a swap's four
/// charges of `each` fuel, and no limit.
fn swap_budgets(each: u64) -> Vec<Option<u64>> {
    let mut out = vec![None];
    if each <= 16 {
        out.extend((0..=4 * each + 1).map(Some));
    } else {
        for k in 0..=4 {
            out.extend([k * each - u64::from(k > 0), k * each, k * each + 1].map(Some));
        }
    }
    out
}

/// Each converted function, its reference, and its arguments built from
/// a case's destination, source, length and byte.
type ArgsOf = fn(CVal, CVal, CVal, CVal) -> Vec<CVal>;
const FUNCTIONS: &[(&str, HostFn, ArgsOf)] = &[
    ("strlen", ref_strlen, |_, s, _, _| vec![s]),
    ("strnlen", ref_strnlen, |_, s, n, _| vec![s, n]),
    ("strcpy", ref_strcpy, |d, s, _, _| vec![d, s]),
    ("strncpy", ref_strncpy, |d, s, n, _| vec![d, s, n]),
    ("strcat", ref_strcat, |d, s, _, _| vec![d, s]),
    ("strncat", ref_strncat, |d, s, n, _| vec![d, s, n]),
    ("strlcat", ref_strlcat, |d, s, n, _| vec![d, s, n]),
    ("strdup", ref_strdup, |_, s, _, _| vec![s]),
    ("strndup", ref_strndup, |_, s, n, _| vec![s, n]),
    ("memcpy", ref_memcpy, |d, s, n, _| vec![d, s, n]),
    ("mempcpy", ref_mempcpy, |d, s, n, _| vec![d, s, n]),
    ("memmove", ref_memmove, |d, s, n, _| vec![d, s, n]),
    ("memset", ref_memset, |d, _, n, c| vec![d, c, n]),
    ("bzero", ref_bzero, |d, _, n, _| vec![d, n]),
    ("bcopy", ref_bcopy, |d, s, n, _| vec![s, d, n]),
    ("memchr", ref_memchr, |_, s, n, c| vec![s, c, n]),
];

fn addrs(case: &Case) -> (VirtAddr, VirtAddr) {
    (VirtAddr::new(case.dst), VirtAddr::new(case.src))
}

fn int_result(r: Result<u64, Fault>) -> Result<CVal, Fault> {
    r.map(|v| CVal::Int(v as i64))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn fill_matches_byte_loop(case in case()) {
        let (d, _) = addrs(&case);
        check(
            "fill",
            &build(&case),
            &case,
            |p| ref_fill(p, d, case.n, case.c).map(|_| CVal::Void),
            |p| p.fill(d, case.n, case.c).map(|_| CVal::Void),
        )?;
    }

    #[test]
    fn copy_forward_matches_byte_loop(case in case()) {
        let (d, s) = addrs(&case);
        check(
            "copy_forward",
            &build(&case),
            &case,
            |p| ref_copy_forward(p, d, s, case.n, false).map(|_| CVal::Void),
            |p| p.copy_forward(d, s, case.n).map(|_| CVal::Void),
        )?;
    }

    #[test]
    fn copy_cstr_matches_byte_loop(case in case()) {
        let (d, s) = addrs(&case);
        check(
            "copy_cstr",
            &build(&case),
            &case,
            |p| int_result(ref_copy_forward(p, d, s, case.n, true)),
            |p| int_result(p.copy_cstr(d, s, case.n)),
        )?;
    }

    #[test]
    fn copy_backward_matches_byte_loop(case in case()) {
        let (d, s) = addrs(&case);
        check(
            "copy_backward",
            &build(&case),
            &case,
            |p| ref_copy_backward(p, d, s, case.n).map(|_| CVal::Void),
            |p| p.copy_backward(d, s, case.n).map(|_| CVal::Void),
        )?;
    }

    #[test]
    fn scan_matches_byte_loop(case in case()) {
        let (_, s) = addrs(&case);
        let found = |r: Option<u64>| CVal::Int(r.map_or(-1, |i| i as i64));
        check(
            "scan",
            &build(&case),
            &case,
            |p| ref_scan(p, s, case.c, case.n).map(found),
            |p| p.scan(s, case.c, case.n).map(found),
        )?;
    }

    #[test]
    fn read_cstr_matches_byte_loop(case in case()) {
        let (_, s) = addrs(&case);
        let base = build(&case);
        let want = run(&base, &case, |p| ref_read_cstr(p, s).map(|b| CVal::Int(b.len() as i64)));
        let mut bytes = Vec::new();
        let got = run(&base, &case, |p| {
            p.read_cstr(s).map(|b| {
                bytes = b;
                CVal::Int(bytes.len() as i64)
            })
        });
        if got.result.is_ok() {
            let mut probe = base.clone();
            prop_assert_eq!(ref_read_cstr(&mut probe, s).unwrap(), bytes.clone());
            prop_assert_eq!(bytes.capacity(), bytes.len(), "exact-size host buffer");
        }
        agree("read_cstr", &case, want, got)?;
    }

    #[test]
    fn simlibc_functions_match_byte_loops(case in case()) {
        let (d, s) = (CVal::Ptr(VirtAddr::new(case.dst)), CVal::Ptr(VirtAddr::new(case.src)));
        let (n, c) = (CVal::Int(case.n as i64), CVal::Int(i64::from(case.c)));
        let base = build(&case);
        for &(name, reference, args_of) in FUNCTIONS {
            let args = args_of(d, s, n, c);
            let imp = simlibc::find_impl(name).expect("symbol");
            check(name, &base, &case, |p| reference(p, &args), |p| imp(p, &args))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn swap_adjacent_matches_four_calls(case in case(), size in swap_size()) {
        let a = VirtAddr::new(case.src);
        let base = build(&case);
        for fuel in swap_budgets(1 + size / 8) {
            let case = Case { n: size, fuel, ..case.clone() };
            check(
                "swap_adjacent",
                &base,
                &case,
                |p| ref_swap(p, a, size).map(|_| CVal::Void),
                |p| p.swap_adjacent(a, size).map(|_| CVal::Void),
            )?;
        }
    }

    #[test]
    fn qsort_matches_four_call_swaps(
        case in case(),
        nmemb in prop_oneof![3 => 0u64..6, 1 => Just(u64::MAX)],
        size in swap_size(),
        by_byte in any::<bool>(),
    ) {
        let mut base = build(&case);
        let compar = if by_byte {
            base.register_host_fn("cmp_byte", cmp_byte)
        } else {
            base.register_host_fn("cmp_always_after", cmp_always_after)
        };
        // Without a limit, an all-swapping sort of `SIZE_MAX` elements
        // would not end.
        let case = Case { fuel: Some(case.fuel.unwrap_or(400)), ..case };
        let args = [CVal::Ptr(VirtAddr::new(case.src)), CVal::Int(nmemb as i64),
            CVal::Int(size as i64), CVal::Ptr(compar)];
        let imp = simlibc::find_impl("qsort").expect("symbol");
        check("qsort", &base, &case, |p| ref_qsort(p, &args), |p| imp(p, &args))?;
    }
}

/// The swap cases must reach every path: the in-place swap, a hang on
/// each of the four charges, a read fault on either element, a write
/// fault on either element, and swaps across a region edge.
#[test]
fn generated_swaps_cover_the_edges() {
    let mut rng = proptest::test_runner::TestRng::from_name("prop_runs swap coverage");
    let mut hang_on = [0; 4];
    let [mut in_place, mut crossing, mut overflowing] = [0; 3];
    let [mut segv_read_a, mut segv_read_b, mut segv_write_a, mut segv_write_b] = [0; 4];
    for _ in 0..2048 {
        let (case, size) = (case(), swap_size()).generate(&mut rng);
        let a = VirtAddr::new(case.src);
        let each = 1 + size / 8;
        overflowing += u64::from(size.checked_mul(2).is_none());
        let base = build(&case);
        if base.clone().mem.swap_adjacent(a, size) && size > 0 {
            in_place += 1;
        }
        for fuel in swap_budgets(each) {
            let out = run(&base, &Case { fuel, ..case.clone() }, |p| {
                p.swap_adjacent(a, size).map(|_| CVal::Void)
            });
            let charges = (out.cycles - base.cycles()) / each;
            match out.result {
                Ok(_) if size > 0 => {
                    let (ra, rb) = (base.mem.region_at(a), base.mem.region_at(a.add(size)));
                    if ra.map(|r| r.base()) != rb.map(|r| r.base()) {
                        crossing += 1;
                    }
                }
                Ok(_) => {}
                Err(Fault::Hang) => hang_on[charges as usize - 1] += 1,
                Err(Fault::Segv { addr, access, .. }) => {
                    let in_b = addr >= a.add(size) && addr.diff(a.add(size)) < size;
                    match (access, in_b) {
                        (simproc::Access::Read, false) => segv_read_a += 1,
                        (simproc::Access::Read, true) => segv_read_b += 1,
                        (_, false) => segv_write_a += 1,
                        (_, true) => segv_write_b += 1,
                    }
                }
                Err(other) => panic!("unexpected fault {other}"),
            }
        }
    }
    for (what, count) in [
        ("in-place swaps", in_place),
        ("swaps across a region edge", crossing),
        ("sizes whose double overflows", overflowing),
        ("hangs on the first read", hang_on[0]),
        ("hangs on the second read", hang_on[1]),
        ("hangs on the first write", hang_on[2]),
        ("hangs on the second write", hang_on[3]),
        ("read faults on the first element", segv_read_a),
        ("read faults on the second element", segv_read_b),
        ("write faults on the first element", segv_write_a),
        ("write faults on the second element", segv_write_b),
    ] {
        assert!(count >= 16, "only {count} cases of {what}");
    }
}

/// The cases above must reach the paths they claim to: faults of both
/// kinds on both sides of a copy, hangs on a byte's read step and on its
/// write step, overlap either way, and copies that write on from one
/// region into the next.
#[test]
fn generated_cases_cover_the_edges() {
    let mut rng = proptest::test_runner::TestRng::from_name("prop_runs coverage");
    let [mut hang_on_read, mut hang_on_write, mut segv_read, mut segv_write] = [0; 4];
    let [mut ok, mut crossing, mut up, mut down] = [0; 4];
    for _ in 0..1024 {
        let case = case().generate(&mut rng);
        let (d, s) = addrs(&case);
        if d > s && d.diff(s) < case.n {
            up += 1;
        }
        if d < s && s.diff(d) < case.n {
            down += 1;
        }
        let base = build(&case);
        let out = run(&base, &case, |p| p.copy_forward(d, s, case.n).map(|_| CVal::Void));
        let changed = |r: &&simproc::Region| {
            base.mem.peek_slice(r.base()) != out.proc.mem.peek_slice(r.base())
        };
        if base.mem.regions().iter().filter(changed).count() >= 2 {
            crossing += 1;
        }
        match out.result {
            Ok(_) => ok += 1,
            // A copy charges 2 fuel per byte, read first: an even budget
            // runs out on a read, an odd one on a write.
            Err(Fault::Hang) if case.fuel.is_some_and(|f| f % 2 == 0) => hang_on_read += 1,
            Err(Fault::Hang) => hang_on_write += 1,
            Err(Fault::Segv { access: simproc::Access::Read, .. }) => segv_read += 1,
            Err(Fault::Segv { .. }) => segv_write += 1,
            Err(other) => panic!("unexpected fault {other}"),
        }
    }
    for (what, count) in [
        ("hang on a read step", hang_on_read),
        ("hang on a write step", hang_on_write),
        ("read segv", segv_read),
        ("write segv", segv_write),
        ("success", ok),
        ("writes landing in two regions", crossing),
        ("dst above src overlap", up),
        ("dst below src overlap", down),
    ] {
        assert!(count >= 16, "only {count} cases of {what}");
    }
}
