//! `<string.h>` — implemented with the fragility profile of a 2003 libc.
//!
//! No function here validates its pointers: `strcpy` happily writes past
//! the end of any destination, `strlen` scans until it faults, `strcat`
//! of a wild pointer dereferences it. That is the point — these are the
//! behaviours the fault injector discovers and the generated wrappers
//! contain.

use simproc::{errno, CVal, Fault, Proc, VirtAddr};

use crate::heap;
use crate::state::{STRERROR_BUF, STRTOK_SAVE};
use crate::util::{arg, enter, lower, ok_int, ok_ptr};

/// `size_t strlen(const char *s);`
pub fn strlen(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    ok_int(p.cstr_len(s)? as i64)
}

/// `size_t strnlen(const char *s, size_t maxlen);`
pub fn strnlen(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let maxlen = arg(args, 1).as_usize();
    ok_int(p.scan(s, 0, maxlen)?.unwrap_or(maxlen) as i64)
}

/// `char *strcpy(char *dest, const char *src);` — the unbounded classic.
pub fn strcpy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    p.copy_cstr(dest, src, u64::MAX)?;
    ok_ptr(dest)
}

/// `char *strncpy(char *dest, const char *src, size_t n);` — pads with
/// NULs, may leave the destination unterminated (faithfully).
pub fn strncpy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    let copied = p.copy_cstr(dest, src, n)?;
    p.fill(dest.add(copied), n - copied, 0)?;
    ok_ptr(dest)
}

/// `char *strcat(char *dest, const char *src);`
pub fn strcat(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let end = dest.add(p.cstr_len(dest)?);
    p.copy_cstr(end, src, u64::MAX)?;
    ok_ptr(dest)
}

/// `char *strncat(char *dest, const char *src, size_t n);`
pub fn strncat(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dest = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    let d = dest.add(p.cstr_len(dest)?);
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
    ok_ptr(dest)
}

fn cmp_bytes(a: u8, b: u8) -> i64 {
    (a as i64) - (b as i64)
}

/// `int strcmp(const char *s1, const char *s2);`
pub fn strcmp(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s1 = arg(args, 0).as_ptr();
    let s2 = arg(args, 1).as_ptr();
    let mut i = 0u64;
    loop {
        let a = p.read_u8(s1.add(i))?;
        let b = p.read_u8(s2.add(i))?;
        if a != b || a == 0 {
            return ok_int(cmp_bytes(a, b));
        }
        i += 1;
    }
}

/// `int strncmp(const char *s1, const char *s2, size_t n);`
pub fn strncmp(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s1 = arg(args, 0).as_ptr();
    let s2 = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    let mut i = 0u64;
    while i < n {
        let a = p.read_u8(s1.add(i))?;
        let b = p.read_u8(s2.add(i))?;
        if a != b || a == 0 {
            return ok_int(cmp_bytes(a, b));
        }
        i += 1;
    }
    ok_int(0)
}

/// `int strcasecmp(const char *s1, const char *s2);`
pub fn strcasecmp(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s1 = arg(args, 0).as_ptr();
    let s2 = arg(args, 1).as_ptr();
    let mut i = 0u64;
    loop {
        let a = lower(p.read_u8(s1.add(i))?);
        let b = lower(p.read_u8(s2.add(i))?);
        if a != b || a == 0 {
            return ok_int(cmp_bytes(a, b));
        }
        i += 1;
    }
}

/// `int strncasecmp(const char *s1, const char *s2, size_t n);`
pub fn strncasecmp(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s1 = arg(args, 0).as_ptr();
    let s2 = arg(args, 1).as_ptr();
    let n = arg(args, 2).as_usize();
    let mut i = 0u64;
    while i < n {
        let a = lower(p.read_u8(s1.add(i))?);
        let b = lower(p.read_u8(s2.add(i))?);
        if a != b || a == 0 {
            return ok_int(cmp_bytes(a, b));
        }
        i += 1;
    }
    ok_int(0)
}

/// `char *strchr(const char *s, int c);`
pub fn strchr(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let c = arg(args, 1).as_int() as u8;
    let mut cur = s;
    loop {
        let b = p.read_u8(cur)?;
        if b == c {
            return ok_ptr(cur);
        }
        if b == 0 {
            return Ok(CVal::NULL);
        }
        cur = cur.add(1);
    }
}

/// `char *strrchr(const char *s, int c);`
pub fn strrchr(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let c = arg(args, 1).as_int() as u8;
    let mut cur = s;
    let mut found = VirtAddr::NULL;
    loop {
        let b = p.read_u8(cur)?;
        if b == c {
            found = cur;
        }
        if b == 0 {
            return ok_ptr(found);
        }
        cur = cur.add(1);
    }
}

/// `char *strstr(const char *haystack, const char *needle);`
pub fn strstr(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let hay = arg(args, 0).as_ptr();
    let needle = arg(args, 1).as_ptr();
    let first = p.read_u8(needle)?;
    if first == 0 {
        return ok_ptr(hay);
    }
    let mut base = hay;
    loop {
        let hb = p.read_u8(base)?;
        if hb == 0 {
            return Ok(CVal::NULL);
        }
        if hb == first {
            let mut i = 1u64;
            loop {
                let nb = p.read_u8(needle.add(i))?;
                if nb == 0 {
                    return ok_ptr(base);
                }
                if p.read_u8(base.add(i))? != nb {
                    break;
                }
                i += 1;
            }
        }
        base = base.add(1);
    }
}

/// Reads the delimiter set into a host bitmap (256 bits).
fn delim_set(p: &mut Proc, delim: VirtAddr) -> Result<[bool; 256], Fault> {
    let mut set = [false; 256];
    let mut cur = delim;
    loop {
        let b = p.read_u8(cur)?;
        if b == 0 {
            return Ok(set);
        }
        set[b as usize] = true;
        cur = cur.add(1);
    }
}

/// `size_t strspn(const char *s, const char *accept);`
pub fn strspn(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let accept = delim_set(p, arg(args, 1).as_ptr())?;
    let mut n = 0i64;
    let mut cur = s;
    loop {
        let b = p.read_u8(cur)?;
        if b == 0 || !accept[b as usize] {
            return ok_int(n);
        }
        n += 1;
        cur = cur.add(1);
    }
}

/// `size_t strcspn(const char *s, const char *reject);`
pub fn strcspn(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let reject = delim_set(p, arg(args, 1).as_ptr())?;
    let mut n = 0i64;
    let mut cur = s;
    loop {
        let b = p.read_u8(cur)?;
        if b == 0 || reject[b as usize] {
            return ok_int(n);
        }
        n += 1;
        cur = cur.add(1);
    }
}

/// `char *strpbrk(const char *s, const char *accept);`
pub fn strpbrk(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let accept = delim_set(p, arg(args, 1).as_ptr())?;
    let mut cur = s;
    loop {
        let b = p.read_u8(cur)?;
        if b == 0 {
            return Ok(CVal::NULL);
        }
        if accept[b as usize] {
            return ok_ptr(cur);
        }
        cur = cur.add(1);
    }
}

/// Common tokeniser behind `strtok`/`strtok_r`.
fn tok(p: &mut Proc, s: CVal, delim: VirtAddr, save: VirtAddr) -> Result<CVal, Fault> {
    let set = delim_set(p, delim)?;
    let mut cur = if s.is_null() {
        let saved = p.read_ptr(save)?;
        if saved.is_null() {
            return Ok(CVal::NULL);
        }
        saved
    } else {
        s.as_ptr()
    };
    // Skip leading delimiters.
    loop {
        let b = p.read_u8(cur)?;
        if b == 0 {
            p.write_ptr(save, VirtAddr::NULL)?;
            return Ok(CVal::NULL);
        }
        if !set[b as usize] {
            break;
        }
        cur = cur.add(1);
    }
    let token = cur;
    // Find token end.
    loop {
        let b = p.read_u8(cur)?;
        if b == 0 {
            p.write_ptr(save, VirtAddr::NULL)?;
            return ok_ptr(token);
        }
        if set[b as usize] {
            p.write_u8(cur, 0)?; // strtok mutates its input
            p.write_ptr(save, cur.add(1))?;
            return ok_ptr(token);
        }
        cur = cur.add(1);
    }
}

/// `char *strtok(char *s, const char *delim);` — hidden global state,
/// like the original.
pub fn strtok(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    tok(p, arg(args, 0), arg(args, 1).as_ptr(), STRTOK_SAVE)
}

/// `char *strtok_r(char *s, const char *delim, char **saveptr);`
pub fn strtok_r(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let save = arg(args, 2).as_ptr();
    // Touch the save pointer first: a wild saveptr faults immediately.
    tok(p, arg(args, 0), arg(args, 1).as_ptr(), save)
}

/// `char *strsep(char **stringp, const char *delim);`
pub fn strsep(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let stringp = arg(args, 0).as_ptr();
    let delim = arg(args, 1).as_ptr();
    let s = p.read_ptr(stringp)?;
    if s.is_null() {
        return Ok(CVal::NULL);
    }
    let set = delim_set(p, delim)?;
    let mut cur = s;
    loop {
        let b = p.read_u8(cur)?;
        if b == 0 {
            p.write_ptr(stringp, VirtAddr::NULL)?;
            return ok_ptr(s);
        }
        if set[b as usize] {
            p.write_u8(cur, 0)?;
            p.write_ptr(stringp, cur.add(1))?;
            return ok_ptr(s);
        }
        cur = cur.add(1);
    }
}

/// `char *strdup(const char *s);`
pub fn strdup(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let bytes = p.read_cstr(s)?;
    let dst = heap::malloc(p, bytes.len() as u64 + 1)?;
    if dst.is_null() {
        return Ok(CVal::NULL);
    }
    p.write_cstr(dst, &bytes)?;
    ok_ptr(dst)
}

/// `char *strndup(const char *s, size_t n);`
pub fn strndup(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let s = arg(args, 0).as_ptr();
    let n = arg(args, 1).as_usize();
    // Scan first: the host buffer is exactly the copy's size, and a scan
    // that faults allocates nothing.
    let len = p.scan(s, 0, n)?.unwrap_or(n);
    let bytes = p.mem.read_bytes(s, len).expect("scanned readable");
    let dst = heap::malloc(p, bytes.len() as u64 + 1)?;
    if dst.is_null() {
        return Ok(CVal::NULL);
    }
    p.write_cstr(dst, &bytes)?;
    ok_ptr(dst)
}

/// `size_t strlcpy(char *dst, const char *src, size_t size);` — the BSD
/// "safe" copy: always NUL-terminates within `size`, returns
/// `strlen(src)`. Robust by design — the fault injector should derive a
/// much weaker contract for it than for `strcpy`.
pub fn strlcpy(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dst = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let size = arg(args, 2).as_usize();
    let mut i = 0u64;
    loop {
        let b = p.read_u8(src.add(i))?;
        if i + 1 < size {
            p.write_u8(dst.add(i), b)?;
        }
        if b == 0 {
            break;
        }
        i += 1;
    }
    if size > 0 && i + 1 >= size {
        p.write_u8(dst.add(size - 1), 0)?;
    }
    ok_int(i as i64) // strlen(src)
}

/// `size_t strlcat(char *dst, const char *src, size_t size);`
pub fn strlcat(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let dst = arg(args, 0).as_ptr();
    let src = arg(args, 1).as_ptr();
    let size = arg(args, 2).as_usize();
    // Length of dst, but never scanning past `size`.
    let dlen = p.scan(dst, 0, size)?.unwrap_or(size);
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
    ok_int((dlen + slen) as i64)
}

/// `char *strerror(int errnum);` — returns the classic static buffer.
pub fn strerror(p: &mut Proc, args: &[CVal]) -> Result<CVal, Fault> {
    enter(p)?;
    let e = arg(args, 0).as_int() as i32;
    let msg = errno::strerror_text(e);
    let bytes = msg.as_bytes();
    let n = bytes.len().min(crate::state::STRERROR_BUF_LEN as usize - 1);
    p.write_bytes(STRERROR_BUF, &bytes[..n])?;
    p.write_u8(STRERROR_BUF.add(n as u64), 0)?;
    ok_ptr(STRERROR_BUF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::libc_proc;
    use simproc::layout::WILD_ADDR;

    #[test]
    fn strlen_counts() {
        let mut p = libc_proc();
        let s = p.alloc_cstr("hello");
        assert_eq!(strlen(&mut p, &[CVal::Ptr(s)]).unwrap(), CVal::Int(5));
        let empty = p.alloc_cstr("");
        assert_eq!(strlen(&mut p, &[CVal::Ptr(empty)]).unwrap(), CVal::Int(0));
    }

    #[test]
    fn strlen_crashes_on_null_and_wild() {
        let mut p = libc_proc();
        assert!(matches!(strlen(&mut p, &[CVal::NULL]).unwrap_err(), Fault::Segv { .. }));
        assert!(matches!(
            strlen(&mut p, &[CVal::Ptr(WILD_ADDR)]).unwrap_err(),
            Fault::Segv { .. }
        ));
    }

    #[test]
    fn strcpy_copies_and_returns_dest() {
        let mut p = libc_proc();
        let src = p.alloc_cstr("data");
        let dst = p.alloc_data_zeroed(16);
        let r = strcpy(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src)]).unwrap();
        assert_eq!(r, CVal::Ptr(dst));
        assert_eq!(p.read_cstr_lossy(dst), "data");
    }

    #[test]
    fn strcpy_overflows_silently_within_mapped_memory() {
        // The defining fragility: a too-small destination is clobbered
        // without complaint as long as memory stays mapped.
        let mut p = libc_proc();
        let src = p.alloc_cstr("AAAAAAAAAAAAAAAA");
        let dst = p.alloc_data_zeroed(4);
        let marker = p.alloc_data(b"MARK");
        strcpy(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src)]).unwrap();
        let after = p.read_bytes(marker, 4).unwrap();
        assert_eq!(after, b"AAAA", "neighbouring data was overwritten");
    }

    #[test]
    fn strncpy_pads_and_truncates() {
        let mut p = libc_proc();
        let src = p.alloc_cstr("ab");
        let dst = p.alloc_data(&[0xFFu8; 8]);
        strncpy(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src), CVal::Int(6)]).unwrap();
        assert_eq!(p.read_bytes(dst, 8).unwrap(), b"ab\0\0\0\0\xFF\xFF");
        // Truncation leaves no terminator.
        let long = p.alloc_cstr("abcdef");
        let small = p.alloc_data(&[0xFFu8; 4]);
        strncpy(&mut p, &[CVal::Ptr(small), CVal::Ptr(long), CVal::Int(3)]).unwrap();
        assert_eq!(p.read_bytes(small, 4).unwrap(), b"abc\xFF");
    }

    #[test]
    fn strcat_appends() {
        let mut p = libc_proc();
        let dst = p.alloc_data_zeroed(16);
        p.write_cstr(dst, b"foo").unwrap();
        let src = p.alloc_cstr("bar");
        strcat(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src)]).unwrap();
        assert_eq!(p.read_cstr_lossy(dst), "foobar");
    }

    #[test]
    fn strncat_always_terminates() {
        let mut p = libc_proc();
        let dst = p.alloc_data_zeroed(16);
        p.write_cstr(dst, b"foo").unwrap();
        let src = p.alloc_cstr("barbaz");
        strncat(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src), CVal::Int(3)]).unwrap();
        assert_eq!(p.read_cstr_lossy(dst), "foobar");
    }

    #[test]
    fn strcmp_orders() {
        let mut p = libc_proc();
        let a = p.alloc_cstr("apple");
        let b = p.alloc_cstr("apricot");
        let eq = strcmp(&mut p, &[CVal::Ptr(a), CVal::Ptr(a)]).unwrap();
        assert_eq!(eq, CVal::Int(0));
        assert!(strcmp(&mut p, &[CVal::Ptr(a), CVal::Ptr(b)]).unwrap().as_int() < 0);
        assert!(strcmp(&mut p, &[CVal::Ptr(b), CVal::Ptr(a)]).unwrap().as_int() > 0);
    }

    #[test]
    fn strncmp_bounded() {
        let mut p = libc_proc();
        let a = p.alloc_cstr("abcX");
        let b = p.alloc_cstr("abcY");
        assert_eq!(
            strncmp(&mut p, &[CVal::Ptr(a), CVal::Ptr(b), CVal::Int(3)]).unwrap(),
            CVal::Int(0)
        );
        assert!(
            strncmp(&mut p, &[CVal::Ptr(a), CVal::Ptr(b), CVal::Int(4)]).unwrap().as_int()
                < 0
        );
    }

    #[test]
    fn strcasecmp_ignores_case() {
        let mut p = libc_proc();
        let a = p.alloc_cstr("HeLLo");
        let b = p.alloc_cstr("hello");
        assert_eq!(
            strcasecmp(&mut p, &[CVal::Ptr(a), CVal::Ptr(b)]).unwrap(),
            CVal::Int(0)
        );
        let c = p.alloc_cstr("HELLOZ");
        assert_eq!(
            strncasecmp(&mut p, &[CVal::Ptr(b), CVal::Ptr(c), CVal::Int(5)]).unwrap(),
            CVal::Int(0)
        );
    }

    #[test]
    fn strchr_and_strrchr() {
        let mut p = libc_proc();
        let s = p.alloc_cstr("banana");
        let first = strchr(&mut p, &[CVal::Ptr(s), CVal::Int(b'a' as i64)]).unwrap();
        assert_eq!(first.as_ptr(), s.add(1));
        let last = strrchr(&mut p, &[CVal::Ptr(s), CVal::Int(b'a' as i64)]).unwrap();
        assert_eq!(last.as_ptr(), s.add(5));
        let none = strchr(&mut p, &[CVal::Ptr(s), CVal::Int(b'z' as i64)]).unwrap();
        assert!(none.is_null());
        // strchr(s, 0) finds the terminator.
        let term = strchr(&mut p, &[CVal::Ptr(s), CVal::Int(0)]).unwrap();
        assert_eq!(term.as_ptr(), s.add(6));
    }

    #[test]
    fn strstr_finds_substrings() {
        let mut p = libc_proc();
        let hay = p.alloc_cstr("the quick brown fox");
        let needle = p.alloc_cstr("brown");
        let hit = strstr(&mut p, &[CVal::Ptr(hay), CVal::Ptr(needle)]).unwrap();
        assert_eq!(hit.as_ptr(), hay.add(10));
        let missing = p.alloc_cstr("purple");
        assert!(strstr(&mut p, &[CVal::Ptr(hay), CVal::Ptr(missing)]).unwrap().is_null());
        let empty = p.alloc_cstr("");
        let all = strstr(&mut p, &[CVal::Ptr(hay), CVal::Ptr(empty)]).unwrap();
        assert_eq!(all.as_ptr(), hay);
    }

    #[test]
    fn spn_cspn_pbrk() {
        let mut p = libc_proc();
        let s = p.alloc_cstr("123abc");
        let digits = p.alloc_cstr("0123456789");
        assert_eq!(
            strspn(&mut p, &[CVal::Ptr(s), CVal::Ptr(digits)]).unwrap(),
            CVal::Int(3)
        );
        assert_eq!(
            strcspn(&mut p, &[CVal::Ptr(s), CVal::Ptr(digits)]).unwrap(),
            CVal::Int(0)
        );
        let letters = p.alloc_cstr("abc");
        let hit = strpbrk(&mut p, &[CVal::Ptr(s), CVal::Ptr(letters)]).unwrap();
        assert_eq!(hit.as_ptr(), s.add(3));
        let none = p.alloc_cstr("xyz");
        assert!(strpbrk(&mut p, &[CVal::Ptr(s), CVal::Ptr(none)]).unwrap().is_null());
    }

    #[test]
    fn strtok_walks_tokens() {
        let mut p = libc_proc();
        let s = p.alloc_data(b"a,b;;c\0");
        let delim = p.alloc_cstr(",;");
        let t1 = strtok(&mut p, &[CVal::Ptr(s), CVal::Ptr(delim)]).unwrap();
        assert_eq!(p.read_cstr_lossy(t1.as_ptr()), "a");
        let t2 = strtok(&mut p, &[CVal::NULL, CVal::Ptr(delim)]).unwrap();
        assert_eq!(p.read_cstr_lossy(t2.as_ptr()), "b");
        let t3 = strtok(&mut p, &[CVal::NULL, CVal::Ptr(delim)]).unwrap();
        assert_eq!(p.read_cstr_lossy(t3.as_ptr()), "c");
        let done = strtok(&mut p, &[CVal::NULL, CVal::Ptr(delim)]).unwrap();
        assert!(done.is_null());
    }

    #[test]
    fn strtok_r_uses_caller_state() {
        let mut p = libc_proc();
        let s = p.alloc_data(b"x y\0");
        let delim = p.alloc_cstr(" ");
        let save = p.alloc_data_zeroed(8);
        let t1 =
            strtok_r(&mut p, &[CVal::Ptr(s), CVal::Ptr(delim), CVal::Ptr(save)]).unwrap();
        assert_eq!(p.read_cstr_lossy(t1.as_ptr()), "x");
        let t2 =
            strtok_r(&mut p, &[CVal::NULL, CVal::Ptr(delim), CVal::Ptr(save)]).unwrap();
        assert_eq!(p.read_cstr_lossy(t2.as_ptr()), "y");
    }

    #[test]
    fn strsep_consumes() {
        let mut p = libc_proc();
        let s = p.alloc_data(b"k=v\0");
        let sp = p.alloc_data_zeroed(8);
        p.write_ptr(sp, s).unwrap();
        let eq = p.alloc_cstr("=");
        let k = strsep(&mut p, &[CVal::Ptr(sp), CVal::Ptr(eq)]).unwrap();
        assert_eq!(p.read_cstr_lossy(k.as_ptr()), "k");
        let v = strsep(&mut p, &[CVal::Ptr(sp), CVal::Ptr(eq)]).unwrap();
        assert_eq!(p.read_cstr_lossy(v.as_ptr()), "v");
        let done = strsep(&mut p, &[CVal::Ptr(sp), CVal::Ptr(eq)]).unwrap();
        assert!(done.is_null());
    }

    #[test]
    fn strdup_allocates_copy() {
        let mut p = libc_proc();
        let s = p.alloc_cstr("dup me");
        let d = strdup(&mut p, &[CVal::Ptr(s)]).unwrap();
        assert_ne!(d.as_ptr(), s);
        assert_eq!(p.read_cstr_lossy(d.as_ptr()), "dup me");
        let nd = strndup(&mut p, &[CVal::Ptr(s), CVal::Int(3)]).unwrap();
        assert_eq!(p.read_cstr_lossy(nd.as_ptr()), "dup");
    }

    #[test]
    fn strerror_returns_static_buffer() {
        let mut p = libc_proc();
        let m = strerror(&mut p, &[CVal::Int(errno::ENOENT as i64)]).unwrap();
        assert_eq!(m.as_ptr(), STRERROR_BUF);
        assert_eq!(p.read_cstr_lossy(m.as_ptr()), "No such file or directory");
    }

    #[test]
    fn unterminated_scan_hangs_under_fuel_budget() {
        let mut p = libc_proc();
        // A huge unterminated heap buffer: strlen keeps walking.
        let buf = heap::malloc(&mut p, 0x10000).unwrap();
        let junk = vec![b'x'; 0x10000];
        p.mem.write_bytes(buf, &junk).unwrap();
        p.set_fuel_limit(Some(p.cycles() + 1000));
        let err = strlen(&mut p, &[CVal::Ptr(buf)]).unwrap_err();
        assert_eq!(err, Fault::Hang);
    }
}

#[cfg(test)]
mod strl_tests {
    use super::*;
    use crate::testutil::libc_proc;

    #[test]
    fn strlcpy_truncates_and_terminates() {
        let mut p = libc_proc();
        let src = p.alloc_cstr("0123456789");
        let dst = p.alloc_data(&[0xFFu8; 8]);
        let r = strlcpy(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src), CVal::Int(5)]).unwrap();
        assert_eq!(r, CVal::Int(10), "returns strlen(src)");
        assert_eq!(p.read_cstr_lossy(dst), "0123");
        // Fits entirely.
        let short = p.alloc_cstr("ab");
        strlcpy(&mut p, &[CVal::Ptr(dst), CVal::Ptr(short), CVal::Int(8)]).unwrap();
        assert_eq!(p.read_cstr_lossy(dst), "ab");
        // size == 0 writes nothing.
        let marker = p.alloc_data(&[0x77u8; 4]);
        strlcpy(&mut p, &[CVal::Ptr(marker), CVal::Ptr(short), CVal::Int(0)]).unwrap();
        assert_eq!(p.read_bytes(marker, 4).unwrap(), vec![0x77; 4]);
    }

    #[test]
    fn strlcat_appends_within_bound() {
        let mut p = libc_proc();
        let dst = p.alloc_data_zeroed(8);
        p.write_cstr(dst, b"ab").unwrap();
        let src = p.alloc_cstr("cdefgh");
        let r = strlcat(&mut p, &[CVal::Ptr(dst), CVal::Ptr(src), CVal::Int(8)]).unwrap();
        assert_eq!(r, CVal::Int(8), "total length it tried to create");
        assert_eq!(p.read_cstr_lossy(dst), "abcdefg", "truncated to size-1");
    }

    #[test]
    fn strl_functions_never_write_past_size() {
        // The property that distinguishes them from strcpy/strcat: a
        // guard byte right after `size` survives any source length.
        let mut p = libc_proc();
        let dst = p.alloc_data_zeroed(16);
        let guard = p.alloc_data(&[0xAB]);
        assert_eq!(guard, dst.add(16));
        let long = p.alloc_cstr(&"x".repeat(300));
        strlcpy(&mut p, &[CVal::Ptr(dst), CVal::Ptr(long), CVal::Int(16)]).unwrap();
        assert_eq!(p.read_u8(guard).unwrap(), 0xAB);
        strlcat(&mut p, &[CVal::Ptr(dst), CVal::Ptr(long), CVal::Int(16)]).unwrap();
        assert_eq!(p.read_u8(guard).unwrap(), 0xAB);
    }
}
