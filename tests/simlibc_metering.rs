//! Pins the observable metering of simlibc's string and memory functions.
//!
//! A fixed script of `strlen`, `strcpy`, `memcpy`, `memmove`, `memset`
//! and their relatives runs in one process against a layout of adjacent
//! regions with mixed protections. After each call the transcript records
//! the return value (or the fault, rendered as a campaign report renders
//! it), the process's `cycles()` and a digest of every byte the script can
//! touch. The script covers plain success, a segmentation fault at a
//! region edge after partial writes, a hang at a fuel limit on either byte
//! step of a copy, and overlapping `memmove`/`strcpy`. Its `qsort` rows
//! swap elements inside one region and across a region edge, fault on a
//! second element that is read-only or runs into unmapped memory, run out
//! of fuel on each of a swap's four charges, and sort elements of size 0
//! and of sizes near `SIZE_MAX`.
//!
//! Fuel is the fault injector's hang detector and the profiler's cycle
//! counter, so however these functions are implemented, every line of the
//! transcript must stay exactly as pinned here.

use healers::simlibc;
use healers::simproc::{layout, CVal, Fault, Proc, Prot, VirtAddr};

/// Two contiguous writable regions, then a contiguous read-only one
/// followed by an unmapped gap, then a no-access guard region, then a
/// small writable region followed by unmapped memory.
const A: u64 = 0x0100_0000;
const B: u64 = A + 0x40;
const R: u64 = B + 0x40;
const R_END: u64 = R + 0x40;
const GUARD: u64 = R_END + 0x40;
const W: u64 = GUARD + 0x40;

/// FNV-1a over a byte slice, chained from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of the scratch regions, the fixture strings and the start of
/// the heap: every byte the script can write.
fn digest(p: &Proc) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (base, len) in [
        (A, R_END - A),
        (layout::DATA_CURSOR_START.get(), 0x100),
        (layout::HEAP_BASE.get(), 0x200),
    ] {
        h = fnv(h, &p.mem.peek_bytes(VirtAddr::new(base), len).expect("mapped"));
    }
    h
}

fn render(r: &Result<CVal, Fault>) -> String {
    match r {
        Ok(CVal::Int(v)) => format!("int {v}"),
        Ok(CVal::Ptr(a)) => format!("ptr {a}"),
        Ok(CVal::Void) => "void".to_string(),
        Ok(other) => format!("{other:?}"),
        Err(f) => format!("fault: {f}"),
    }
}

fn ptr(a: u64) -> CVal {
    CVal::Ptr(VirtAddr::new(a))
}

fn int(v: i64) -> CVal {
    CVal::Int(v)
}

/// `qsort` comparator: the first bytes of the two elements, compared.
fn cmp_byte(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    let a = p.read_u8(args[0].as_ptr())?;
    let b = p.read_u8(args[1].as_ptr())?;
    Ok(CVal::Int(i64::from(a) - i64::from(b)))
}

/// `qsort` comparator that reads nothing and orders every pair the wrong
/// way round, so each comparison is followed by a swap.
fn cmp_always_after(_: &mut Proc, _: &[CVal]) -> Result<CVal, Fault> {
    Ok(CVal::Int(1))
}

fn transcript() -> String {
    let mut p = simlibc::testutil::libc_proc();
    p.mem.map(VirtAddr::new(A), 0x40, Prot::RW, "a").unwrap();
    p.mem.map(VirtAddr::new(B), 0x40, Prot::RW, "b").unwrap();
    p.mem.map(VirtAddr::new(R), 0x40, Prot::R, "ro").unwrap();
    p.mem.map(VirtAddr::new(GUARD), 0x20, Prot::NONE, "guard").unwrap();
    p.mem.map(VirtAddr::new(W), 0x20, Prot::RW, "w").unwrap();
    // Unterminated read-only bytes up to the gap.
    assert!(p.mem.poke_bytes(VirtAddr::new(R), &[b'r'; 0x40]));
    assert!(p.mem.poke_bytes(VirtAddr::new(A), b"abcdefgh\0"));
    let msg = p.alloc_cstr("metered string, 29 bytes long").get();
    let short = p.alloc_cstr("ab").get();
    let heap = simlibc::heap::malloc(&mut p, 64).unwrap().get();
    let by_byte = ptr(p.register_host_fn("cmp_byte", cmp_byte).get());
    let always = ptr(p.register_host_fn("cmp_always_after", cmp_always_after).get());
    // Two 8-byte elements whose first bytes ('r', ' ') are out of order
    // once `a` holds `msg`.
    let swap_a10 = vec![ptr(A + 10), int(2), int(8), by_byte];

    // (label, function, arguments, fuel budget beyond the current cycles)
    let script: Vec<(&str, &str, Vec<CVal>, Option<u64>)> = vec![
        ("strlen msg", "strlen", vec![ptr(msg)], None),
        ("strnlen msg 7", "strnlen", vec![ptr(msg), int(7)], None),
        ("strnlen msg 1000", "strnlen", vec![ptr(msg), int(1000)], None),
        ("strcpy heap<-msg", "strcpy", vec![ptr(heap), ptr(msg)], None),
        ("strcpy a|b", "strcpy", vec![ptr(A + 0x30), ptr(msg)], None),
        ("strcpy b|ro", "strcpy", vec![ptr(B + 0x30), ptr(msg)], None),
        ("memset a|b|ro", "memset", vec![ptr(A + 0x38), int(0x5a), int(0x60)], None),
        ("memcpy heap<-ro|gap", "memcpy", vec![ptr(heap), ptr(R + 0x20), int(0x30)], None),
        ("memcpy hang on write", "memcpy", vec![ptr(A), ptr(msg), int(29)], Some(26)),
        ("memcpy hang on read", "memcpy", vec![ptr(A), ptr(msg), int(29)], Some(25)),
        ("memcpy a|b<-msg", "memcpy", vec![ptr(A + 0x30), ptr(msg), int(29)], None),
        ("memmove up overlap", "memmove", vec![ptr(A + 3), ptr(A), int(20)], None),
        ("memmove down overlap", "memmove", vec![ptr(A), ptr(A + 5), int(20)], None),
        (
            "memmove up hang a|b",
            "memmove",
            vec![ptr(A + 0x34), ptr(A + 0x30), int(20)],
            Some(20),
        ),
        ("memmove up gap", "memmove", vec![ptr(A + 4), ptr(A - 4), int(16)], None),
        ("memmove into ro", "memmove", vec![ptr(R - 8), ptr(R - 16), int(16)], None),
        ("reset a", "memcpy", vec![ptr(A), ptr(msg), int(30)], None),
        ("strcpy smear to ro", "strcpy", vec![ptr(A + 3), ptr(A)], None),
        ("reset a", "memcpy", vec![ptr(A), ptr(msg), int(30)], None),
        ("strcpy smear hang", "strcpy", vec![ptr(A + 2), ptr(A)], Some(105)),
        ("strcpy down overlap", "strcpy", vec![ptr(A), ptr(A + 0x30)], None),
        ("strncpy heap pad", "strncpy", vec![ptr(heap), ptr(short), int(16)], None),
        ("strncpy truncate", "strncpy", vec![ptr(A), ptr(msg), int(5)], None),
        ("strncpy pad into ro", "strncpy", vec![ptr(B + 0x3a), ptr(short), int(16)], None),
        ("strncpy hang in pad", "strncpy", vec![ptr(A), ptr(short), int(40)], Some(20)),
        ("strcat heap+msg", "strcat", vec![ptr(heap), ptr(msg)], None),
        ("strcat b|ro", "strcat", vec![ptr(B + 0x20), ptr(msg)], None),
        ("mempcpy", "mempcpy", vec![ptr(A), ptr(msg), int(8)], None),
        ("bzero", "bzero", vec![ptr(A + 0x10), int(8)], None),
        ("bcopy overlap", "bcopy", vec![ptr(A), ptr(A + 2), int(10)], None),
        ("memchr found", "memchr", vec![ptr(msg), int(b'g' as i64), int(40)], None),
        ("memchr missing", "memchr", vec![ptr(msg), int(b'Q' as i64), int(29)], None),
        ("memchr off ro", "memchr", vec![ptr(R), int(0), int(0x80)], None),
        ("memchr hang", "memchr", vec![ptr(R), int(0), int(0x40)], Some(30)),
        ("strlen off ro", "strlen", vec![ptr(R)], None),
        ("strlen hang", "strlen", vec![ptr(R)], Some(25)),
        ("strnlen hang", "strnlen", vec![ptr(R), int(0x30)], Some(24)),
        ("strlen guard", "strlen", vec![ptr(GUARD)], None),
        ("memset guard", "memset", vec![ptr(GUARD), int(1), int(4)], None),
        ("memset zero len", "memset", vec![ptr(GUARD), int(1), int(0)], None),
        ("memcpy zero len", "memcpy", vec![ptr(GUARD), ptr(GUARD), int(0)], None),
        ("memset hang", "memset", vec![ptr(B), int(0x33), int(0x40)], Some(40)),
        ("strdup msg", "strdup", vec![ptr(msg)], None),
        ("strdup off ro", "strdup", vec![ptr(R)], None),
        ("strndup msg 6", "strndup", vec![ptr(msg), int(6)], None),
        ("strndup ro 16", "strndup", vec![ptr(R), int(16)], None),
        ("strndup off ro", "strndup", vec![ptr(R), int(0x100)], None),
        ("reset a", "memcpy", vec![ptr(A), ptr(msg), int(30)], None),
        ("qsort a bytes", "qsort", vec![ptr(A), int(12), int(1), by_byte], None),
        ("qsort a words", "qsort", vec![ptr(A + 0x10), int(4), int(8), by_byte], None),
        ("qsort a|b words", "qsort", vec![ptr(A + 0x28), int(4), int(8), by_byte], None),
        ("memset b tail", "memset", vec![ptr(B + 0x30), int(0x7f), int(0x10)], None),
        ("qsort b|ro", "qsort", vec![ptr(B + 0x30), int(2), int(0x10), by_byte], None),
        ("memset b last", "memset", vec![ptr(B + 0x38), int(0x7f), int(8)], None),
        (
            "qsort b|ro straddle",
            "qsort",
            vec![ptr(B + 0x38), int(2), int(0x10), by_byte],
            None,
        ),
        ("memset w", "memset", vec![ptr(W + 8), int(0x7f), int(1)], None),
        ("qsort w|gap", "qsort", vec![ptr(W + 8), int(2), int(0x10), by_byte], None),
        ("reset a", "memcpy", vec![ptr(A), ptr(msg), int(30)], None),
        // One swap of two 8-byte elements after 17 cycles of entry and
        // comparison: 2 fuel for each of its two reads and two writes.
        ("qsort hang on read a", "qsort", swap_a10.clone(), Some(18)),
        ("qsort hang on read b", "qsort", swap_a10.clone(), Some(20)),
        ("qsort hang on write a", "qsort", swap_a10.clone(), Some(22)),
        ("qsort hang on write b", "qsort", swap_a10.clone(), Some(24)),
        ("reset a", "memcpy", vec![ptr(A), ptr(msg), int(30)], None),
        ("qsort one swap", "qsort", swap_a10, Some(25)),
        ("qsort size 0", "qsort", vec![ptr(A), int(4), int(0), always], None),
        ("qsort size 0 hang", "qsort", vec![ptr(GUARD), int(2), int(0), always], Some(17)),
        ("qsort size max", "qsort", vec![ptr(A), int(2), int(-1), always], None),
        ("qsort size 2^63", "qsort", vec![ptr(B), int(2), int(i64::MIN), always], None),
        ("qsort size max hang", "qsort", vec![ptr(A), int(2), int(-8), always], Some(100)),
    ];

    let mut out = String::new();
    for (i, (label, name, args, budget)) in script.into_iter().enumerate() {
        p.set_fuel_limit(budget.map(|b| p.cycles() + b));
        let imp = simlibc::find_impl(name).expect("symbol");
        let r = imp(&mut p, &args);
        p.set_fuel_limit(None);
        out += &format!(
            "{i:02} {label}: {} | cycles {} | digest {:016x}\n",
            render(&r),
            p.cycles(),
            digest(&p)
        );
    }
    out
}

const EXPECTED: &str = "\
00 strlen msg: int 29 | cycles 42 | digest 4d8532f9b83be8a3
01 strnlen msg 7: int 7 | cycles 54 | digest 4d8532f9b83be8a3
02 strnlen msg 1000: int 29 | cycles 89 | digest 4d8532f9b83be8a3
03 strcpy heap<-msg: ptr 0x000008000010 | cycles 154 | digest 224b238ef8a4a56e
04 strcpy a|b: ptr 0x000001000030 | cycles 219 | digest 7e4f9e7cb26f9cef
05 strcpy b|ro: fault: segmentation fault: write at 0x000001000080 in memory access | cycles 258 | digest a2bb3089187a4c96
06 memset a|b|ro: fault: segmentation fault: write at 0x000001000080 in memory access | cycles 336 | digest 62e1521b2383b4ea
07 memcpy heap<-ro|gap: fault: segmentation fault: read at 0x0000010000c0 in memory access | cycles 406 | digest f4e1f32dc6906f5f
08 memcpy hang on write: fault: hang: execution budget exhausted | cycles 433 | digest 40900cb2b11af06c
09 memcpy hang on read: fault: hang: execution budget exhausted | cycles 459 | digest 40900cb2b11af06c
10 memcpy a|b<-msg: ptr 0x000001000030 | cycles 522 | digest a543afae92a87d27
11 memmove up overlap: ptr 0x000001000003 | cycles 567 | digest 88ff23cd3320c3d7
12 memmove down overlap: ptr 0x000001000000 | cycles 612 | digest 9c3c8bd537b2ad99
13 memmove up hang a|b: fault: hang: execution budget exhausted | cycles 633 | digest 74c9c6d0870f8c9f
14 memmove up gap: fault: segmentation fault: read at 0x000000ffffff in memory access | cycles 663 | digest cedc06224a5345da
15 memmove into ro: fault: segmentation fault: write at 0x000001000087 in memory access | cycles 670 | digest cedc06224a5345da
16 reset a: ptr 0x000001000000 | cycles 735 | digest 37cc8eba95719fa3
17 strcpy smear to ro: fault: segmentation fault: write at 0x000001000080 in memory access | cycles 992 | digest 28a6f51abc07f7d9
18 reset a: ptr 0x000001000000 | cycles 1057 | digest d8b05b77f5038ba0
19 strcpy smear hang: fault: hang: execution budget exhausted | cycles 1163 | digest 433351bd371df1c0
20 strcpy down overlap: fault: segmentation fault: write at 0x000001000080 in memory access | cycles 1426 | digest 781741c9528a0070
21 strncpy heap pad: ptr 0x000008000010 | cycles 1450 | digest 5ef59013676c950b
22 strncpy truncate: ptr 0x000001000000 | cycles 1465 | digest 19ff2c17cb4cfe4d
23 strncpy pad into ro: fault: segmentation fault: write at 0x000001000080 in memory access | cycles 1480 | digest 4c6f7710ac605b96
24 strncpy hang in pad: fault: hang: execution budget exhausted | cycles 1501 | digest 94176bf34e22a606
25 strcat heap+msg: ptr 0x000008000010 | cycles 1569 | digest 81bc8a1c4c7bc95f
26 strcat b|ro: fault: segmentation fault: write at 0x000001000080 in memory access | cycles 1613 | digest e30829709ae9d96e
27 mempcpy: ptr 0x000001000008 | cycles 1634 | digest 61fd703ca548a949
28 bzero: void | cycles 1647 | digest 512dc99b22a05074
29 bcopy overlap: void | cycles 1672 | digest 8521819ee0eb55c2
30 memchr found: ptr 0x00000080100d | cycles 1691 | digest 8521819ee0eb55c2
31 memchr missing: ptr 0x000000000000 | cycles 1725 | digest 8521819ee0eb55c2
32 memchr off ro: fault: segmentation fault: read at 0x0000010000c0 in memory access | cycles 1795 | digest 8521819ee0eb55c2
33 memchr hang: fault: hang: execution budget exhausted | cycles 1826 | digest 8521819ee0eb55c2
34 strlen off ro: fault: segmentation fault: read at 0x0000010000c0 in memory access | cycles 1896 | digest 8521819ee0eb55c2
35 strlen hang: fault: hang: execution budget exhausted | cycles 1922 | digest 8521819ee0eb55c2
36 strnlen hang: fault: hang: execution budget exhausted | cycles 1947 | digest 8521819ee0eb55c2
37 strlen guard: fault: segmentation fault: read at 0x000001000100 in memory access | cycles 1953 | digest 8521819ee0eb55c2
38 memset guard: fault: segmentation fault: write at 0x000001000100 in memory access | cycles 1959 | digest 8521819ee0eb55c2
39 memset zero len: ptr 0x000001000100 | cycles 1964 | digest 8521819ee0eb55c2
40 memcpy zero len: ptr 0x000001000100 | cycles 1969 | digest 8521819ee0eb55c2
41 memset hang: fault: hang: execution budget exhausted | cycles 2010 | digest 4d056ed776acc21e
42 strdup msg: ptr 0x000008000060 | cycles 2057 | digest 61d30c0da676515a
43 strdup off ro: fault: segmentation fault: read at 0x0000010000c0 in memory access | cycles 2127 | digest 61d30c0da676515a
44 strndup msg 6: ptr 0x000008000090 | cycles 2147 | digest 12f5d5301c67118b
45 strndup ro 16: ptr 0x0000080000b0 | cycles 2179 | digest 7e0c29c1caf3e2da
46 strndup off ro: fault: segmentation fault: read at 0x0000010000c0 in memory access | cycles 2249 | digest 7e0c29c1caf3e2da
47 reset a: ptr 0x000001000000 | cycles 2314 | digest a6e76c29c4c5618c
48 qsort a bytes: void | cycles 2895 | digest ce6059e3659d178e
49 qsort a words: void | cycles 2964 | digest d488d9ed57ce67ce
50 qsort a|b words: void | cycles 3061 | digest c4cbe5ea4a7632d2
51 memset b tail: ptr 0x000001000070 | cycles 3082 | digest 2407bd6175aceac0
52 qsort b|ro: fault: segmentation fault: write at 0x000001000080 in memory access | cycles 3111 | digest 4777a6cd77aedd10
53 memset b last: ptr 0x000001000078 | cycles 3124 | digest 591ae550abd75348
54 qsort b|ro straddle: fault: segmentation fault: write at 0x000001000080 in memory access | cycles 3150 | digest 591ae550abd75348
55 memset w: ptr 0x000001000148 | cycles 3156 | digest 591ae550abd75348
56 qsort w|gap: fault: segmentation fault: read at 0x000001000160 in memory access | cycles 3179 | digest 591ae550abd75348
57 reset a: ptr 0x000001000000 | cycles 3244 | digest a3dcef3b46f78d28
58 qsort hang on read a: fault: hang: execution budget exhausted | cycles 3263 | digest a3dcef3b46f78d28
59 qsort hang on read b: fault: hang: execution budget exhausted | cycles 3284 | digest a3dcef3b46f78d28
60 qsort hang on write a: fault: hang: execution budget exhausted | cycles 3307 | digest a3dcef3b46f78d28
61 qsort hang on write b: fault: hang: execution budget exhausted | cycles 3332 | digest cd2871d7a5d10b78
62 reset a: ptr 0x000001000000 | cycles 3397 | digest a3dcef3b46f78d28
63 qsort one swap: void | cycles 3422 | digest 9cb61e03b81fac5c
64 qsort size 0: void | cycles 3511 | digest 9cb61e03b81fac5c
65 qsort size 0 hang: fault: hang: execution budget exhausted | cycles 3529 | digest 9cb61e03b81fac5c
66 qsort size max: fault: segmentation fault: read at 0x0000010000c0 in memory access | cycles 2305843009213697496 | digest 9cb61e03b81fac5c
67 qsort size 2^63: fault: segmentation fault: read at 0x0000010000c0 in memory access | cycles 3458764513820544488 | digest 9cb61e03b81fac5c
68 qsort size max hang: fault: hang: execution budget exhausted | cycles 5764607523034238455 | digest 9cb61e03b81fac5c
";

#[test]
fn string_and_memory_metering_is_pinned() {
    let got = transcript();
    if got != EXPECTED {
        for (g, w) in got.lines().zip(EXPECTED.lines()) {
            if g != w {
                eprintln!("first divergence:\n  got:  {g}\n  want: {w}");
                break;
            }
        }
    }
    assert_eq!(got, EXPECTED, "full transcript:\n{got}");
}
