//! Pins the observable metering of simlibc's string and memory functions.
//!
//! A fixed script of `strlen`, `strcpy`, `memcpy`, `memmove`, `memset`
//! and their relatives runs in one process against a layout of adjacent
//! regions with mixed protections. After each call the transcript records
//! the return value (or the fault, rendered as a campaign report renders
//! it), the process's `cycles()` and a digest of every byte the script can
//! touch. The script covers plain success, a segmentation fault at a
//! region edge after partial writes, a hang at a fuel limit on either byte
//! step of a copy, and overlapping `memmove`/`strcpy`.
//!
//! Fuel is the fault injector's hang detector and the profiler's cycle
//! counter, so however these functions are implemented, every line of the
//! transcript must stay exactly as pinned here.

use healers::simlibc;
use healers::simproc::{layout, CVal, Fault, Proc, Prot, VirtAddr};

/// Two contiguous writable regions, then a contiguous read-only one
/// followed by an unmapped gap, then a no-access guard region.
const A: u64 = 0x0100_0000;
const B: u64 = A + 0x40;
const R: u64 = B + 0x40;
const R_END: u64 = R + 0x40;
const GUARD: u64 = R_END + 0x40;

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

fn transcript() -> String {
    let mut p = simlibc::testutil::libc_proc();
    p.mem.map(VirtAddr::new(A), 0x40, Prot::RW, "a").unwrap();
    p.mem.map(VirtAddr::new(B), 0x40, Prot::RW, "b").unwrap();
    p.mem.map(VirtAddr::new(R), 0x40, Prot::R, "ro").unwrap();
    p.mem.map(VirtAddr::new(GUARD), 0x20, Prot::NONE, "guard").unwrap();
    // Unterminated read-only bytes up to the gap.
    assert!(p.mem.poke_bytes(VirtAddr::new(R), &[b'r'; 0x40]));
    assert!(p.mem.poke_bytes(VirtAddr::new(A), b"abcdefgh\0"));
    let msg = p.alloc_cstr("metered string, 29 bytes long").get();
    let short = p.alloc_cstr("ab").get();
    let heap = simlibc::heap::malloc(&mut p, 64).unwrap().get();

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
