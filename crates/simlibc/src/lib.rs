//! # simlibc — the simulated C library HEALERS hardens
//!
//! Roughly one hundred C library functions implemented over the
//! [`simproc`] substrate with the *fragility profile of a 2003 libc*:
//! `strcpy` overflows, `atoi(NULL)` segfaults, `isalpha(100000)` indexes
//! off its table, `free` runs the unchecked boundary-tag `unlink` that
//! heap-smashing exploits abuse, and `printf` honours `%n`. The HEALERS
//! pipeline (crates `injector`, `wrappergen`, `guardian`) discovers these
//! behaviours by fault injection and generates wrappers that contain
//! them.
//!
//! The crate exposes:
//!
//! * the function implementations, grouped by header ([`string`],
//!   [`mem`], [`ctype`], [`wctype`], [`conv`], [`alloc`], `env`,
//!   [`sort`], [`misc`], [`stdio`], [`fmt`]);
//! * the allocator itself ([`heap`]), with host-side invariant checking;
//! * the library's symbol table with C prototypes ([`symbols`],
//!   [`prototypes`], [`header_text`]);
//! * a second small library ([`math`]) so multi-library demos work;
//! * process bring-up ([`setup::init_process`]).
//!
//! ```
//! use simlibc::{setup::init_process, symbols};
//! use simproc::CVal;
//!
//! let mut p = init_process();
//! let strlen = symbols().into_iter().find(|s| s.name == "strlen").unwrap();
//! let s = p.alloc_cstr("healers");
//! let len = (strlen.imp)(&mut p, &[CVal::Ptr(s)]).unwrap();
//! assert_eq!(len, CVal::Int(7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod conv;
pub mod ctype;
pub mod env;
pub mod fmt;
pub mod heap;
pub mod math;
pub mod mem;
pub mod misc;
pub mod scan;
pub mod setup;
pub mod sort;
pub mod state;
pub mod stdio;
pub mod string;
#[doc(hidden)]
pub mod testutil;
mod util;
pub mod wctype;

use cdecl::{parse_prototype, Prototype, TypedefTable};
use simproc::HostFn;

/// Name of the simulated C library.
pub const LIB_NAME: &str = "libsimc.so.1";

/// One exported symbol: name, C prototype, host implementation.
#[derive(Debug, Clone, Copy)]
pub struct SymbolDef {
    /// Symbol name.
    pub name: &'static str,
    /// The C prototype as it would appear in the header / man page.
    pub proto: &'static str,
    /// Host implementation.
    pub imp: HostFn,
}

macro_rules! sym {
    ($name:ident, $module:ident, $proto:expr) => {
        SymbolDef { name: stringify!($name), proto: $proto, imp: $module::$name }
    };
}

/// The full symbol table of `libsimc.so.1`.
pub fn symbols() -> Vec<SymbolDef> {
    vec![
        // --- string.h: strings -------------------------------------------
        sym!(strlen, string, "size_t strlen(const char *s);"),
        sym!(strnlen, string, "size_t strnlen(const char *s, size_t maxlen);"),
        sym!(strcpy, string, "char *strcpy(char *dest, const char *src);"),
        sym!(strncpy, string, "char *strncpy(char *dest, const char *src, size_t n);"),
        sym!(strcat, string, "char *strcat(char *dest, const char *src);"),
        sym!(strncat, string, "char *strncat(char *dest, const char *src, size_t n);"),
        sym!(strcmp, string, "int strcmp(const char *s1, const char *s2);"),
        sym!(strncmp, string, "int strncmp(const char *s1, const char *s2, size_t n);"),
        sym!(strcasecmp, string, "int strcasecmp(const char *s1, const char *s2);"),
        sym!(strncasecmp, string, "int strncasecmp(const char *s1, const char *s2, size_t n);"),
        sym!(strchr, string, "char *strchr(const char *s, int c);"),
        sym!(strrchr, string, "char *strrchr(const char *s, int c);"),
        sym!(strstr, string, "char *strstr(const char *haystack, const char *needle);"),
        sym!(strspn, string, "size_t strspn(const char *s, const char *accept);"),
        sym!(strcspn, string, "size_t strcspn(const char *s, const char *reject);"),
        sym!(strpbrk, string, "char *strpbrk(const char *s, const char *accept);"),
        sym!(strtok, string, "char *strtok(char *str, const char *delim);"),
        sym!(strtok_r, string, "char *strtok_r(char *str, const char *delim, char **saveptr);"),
        sym!(strsep, string, "char *strsep(char **stringp, const char *delim);"),
        sym!(strlcpy, string, "size_t strlcpy(char *dst, const char *src, size_t size);"),
        sym!(strlcat, string, "size_t strlcat(char *dst, const char *src, size_t size);"),
        sym!(strdup, string, "char *strdup(const char *s);"),
        sym!(strndup, string, "char *strndup(const char *s, size_t n);"),
        sym!(strerror, string, "char *strerror(int errnum);"),
        // --- string.h: memory --------------------------------------------
        sym!(memcpy, mem, "void *memcpy(void *dest, const void *src, size_t n);"),
        sym!(mempcpy, mem, "void *mempcpy(void *dest, const void *src, size_t n);"),
        sym!(memmove, mem, "void *memmove(void *dest, const void *src, size_t n);"),
        sym!(memset, mem, "void *memset(void *s, int c, size_t n);"),
        sym!(memcmp, mem, "int memcmp(const void *s1, const void *s2, size_t n);"),
        sym!(memchr, mem, "void *memchr(const void *s, int c, size_t n);"),
        sym!(bzero, mem, "void bzero(void *s, size_t n);"),
        sym!(bcopy, mem, "void bcopy(const void *src, void *dest, size_t n);"),
        // --- ctype.h -------------------------------------------------------
        sym!(isalnum, ctype, "int isalnum(int c);"),
        sym!(isalpha, ctype, "int isalpha(int c);"),
        sym!(isascii, ctype, "int isascii(int c);"),
        sym!(isblank, ctype, "int isblank(int c);"),
        sym!(iscntrl, ctype, "int iscntrl(int c);"),
        sym!(isdigit, ctype, "int isdigit(int c);"),
        sym!(isgraph, ctype, "int isgraph(int c);"),
        sym!(islower, ctype, "int islower(int c);"),
        sym!(isprint, ctype, "int isprint(int c);"),
        sym!(ispunct, ctype, "int ispunct(int c);"),
        sym!(isspace, ctype, "int isspace(int c);"),
        sym!(isupper, ctype, "int isupper(int c);"),
        sym!(isxdigit, ctype, "int isxdigit(int c);"),
        sym!(tolower, ctype, "int tolower(int c);"),
        sym!(toupper, ctype, "int toupper(int c);"),
        // --- wctype.h ------------------------------------------------------
        sym!(wctrans, wctype, "wctrans_t wctrans(const char *name);"),
        sym!(towctrans, wctype, "wint_t towctrans(wint_t wc, wctrans_t desc);"),
        sym!(wctype, wctype, "wctype_t wctype(const char *name);"),
        sym!(iswctype, wctype, "int iswctype(wint_t wc, wctype_t desc);"),
        sym!(towlower, wctype, "wint_t towlower(wint_t wc);"),
        sym!(towupper, wctype, "wint_t towupper(wint_t wc);"),
        // --- stdlib.h: conversions ----------------------------------------
        sym!(atoi, conv, "int atoi(const char *nptr);"),
        sym!(atol, conv, "long atol(const char *nptr);"),
        sym!(atoll, conv, "long long atoll(const char *nptr);"),
        sym!(atof, conv, "double atof(const char *nptr);"),
        sym!(strtol, conv, "long strtol(const char *nptr, char **endptr, int base);"),
        sym!(strtoul, conv, "unsigned long strtoul(const char *nptr, char **endptr, int base);"),
        sym!(strtod, conv, "double strtod(const char *nptr, char **endptr);"),
        sym!(abs, conv, "int abs(int j);"),
        sym!(labs, conv, "long labs(long j);"),
        sym!(llabs, conv, "long long llabs(long long j);"),
        sym!(div, conv, "div_t div(int numerator, int denominator);"),
        sym!(ldiv, conv, "ldiv_t ldiv(long numerator, long denominator);"),
        // --- stdlib.h: memory ---------------------------------------------
        sym!(malloc, alloc, "void *malloc(size_t size);"),
        sym!(free, alloc, "void free(void *ptr);"),
        sym!(calloc, alloc, "void *calloc(size_t nmemb, size_t size);"),
        sym!(realloc, alloc, "void *realloc(void *ptr, size_t size);"),
        // --- stdlib.h: environment ----------------------------------------
        sym!(getenv, env, "char *getenv(const char *name);"),
        sym!(setenv, env, "int setenv(const char *name, const char *value, int overwrite);"),
        sym!(unsetenv, env, "int unsetenv(const char *name);"),
        sym!(putenv, env, "int putenv(char *string);"),
        // --- stdlib.h: sorting --------------------------------------------
        sym!(
            qsort,
            sort,
            "void qsort(void *base, size_t nmemb, size_t size, int (*compar)(const void *, const void *));"
        ),
        sym!(
            bsearch,
            sort,
            "void *bsearch(const void *key, const void *base, size_t nmemb, size_t size, int (*compar)(const void *, const void *));"
        ),
        // --- stdlib.h / unistd.h: process ---------------------------------
        sym!(rand, misc, "int rand(void);"),
        sym!(srand, misc, "void srand(unsigned int seed);"),
        sym!(rand_r, misc, "int rand_r(unsigned int *seedp);"),
        sym!(atexit, misc, "int atexit(void (*function)(void));"),
        sym!(exit, misc, "void exit(int status);"),
        sym!(abort, misc, "void abort(void);"),
        sym!(system, misc, "int system(const char *command);"),
        sym!(time, misc, "time_t time(time_t *tloc);"),
        sym!(getpid, misc, "int getpid(void);"),
        sym!(sleep, misc, "unsigned int sleep(unsigned int seconds);"),
        // --- stdio.h ---------------------------------------------------------
        sym!(fopen, stdio, "FILE *fopen(const char *path, const char *mode);"),
        sym!(fclose, stdio, "int fclose(FILE *stream);"),
        sym!(fgetc, stdio, "int fgetc(FILE *stream);"),
        sym!(fgets, stdio, "char *fgets(char *s, int size, FILE *stream);"),
        sym!(fputc, stdio, "int fputc(int c, FILE *stream);"),
        sym!(fputs, stdio, "int fputs(const char *s, FILE *stream);"),
        sym!(fread, stdio, "size_t fread(void *ptr, size_t size, size_t nmemb, FILE *stream);"),
        sym!(fwrite, stdio, "size_t fwrite(const void *ptr, size_t size, size_t nmemb, FILE *stream);"),
        sym!(feof, stdio, "int feof(FILE *stream);"),
        sym!(fflush, stdio, "int fflush(FILE *stream);"),
        sym!(puts, stdio, "int puts(const char *s);"),
        sym!(putchar, stdio, "int putchar(int c);"),
        sym!(printf, stdio, "int printf(const char *format, ...);"),
        sym!(fprintf, stdio, "int fprintf(FILE *stream, const char *format, ...);"),
        sym!(sprintf, stdio, "int sprintf(char *str, const char *format, ...);"),
        sym!(snprintf, stdio, "int snprintf(char *str, size_t size, const char *format, ...);"),
        sym!(sscanf, scan, "int sscanf(const char *str, const char *format, ...);"),
    ]
}

/// Parsed prototypes for every libc symbol, in table order.
///
/// # Panics
///
/// Panics if a table entry's prototype fails to parse — a unit test
/// guards this invariant.
pub fn prototypes() -> Vec<Prototype> {
    let table = TypedefTable::with_builtins();
    symbols()
        .iter()
        .map(|s| {
            parse_prototype(s.proto, &table)
                .unwrap_or_else(|e| panic!("prototype of {}: {e}", s.name))
        })
        .collect()
}

/// Looks up a `libsimc.so.1` symbol by name.
pub fn find_symbol(name: &str) -> Option<SymbolDef> {
    setup::resolve(name).filter(|&(_, libc)| libc).map(|(sym, _)| sym)
}

/// The implementation a simulated system library binds to `name`:
/// `libsimc.so.1` first, then `libsimm.so.1`.
pub fn find_impl(name: &str) -> Option<HostFn> {
    setup::resolve(name).map(|(sym, _)| sym.imp)
}

/// A synthetic header file for the whole library — what the HEALERS
/// prototype-extraction stage parses in the §3.1 demo.
pub fn header_text() -> String {
    let mut out = String::from(
        "#ifndef _SIMLIBC_H\n#define _SIMLIBC_H 1\n\n/* libsimc.so.1 — simulated C library */\n\n",
    );
    for s in symbols() {
        out.push_str(s.proto);
        out.push('\n');
    }
    out.push_str("\n#endif /* _SIMLIBC_H */\n");
    out
}

/// The DESCRIPTION prose of a function's man page. Functions whose
/// argument contracts the real man pages document carry the documenting
/// phrases ("must not be NULL", "null-terminated", "may be NULL",
/// "format string") — the raw material the analyzer's contract-inference
/// pass mines. Everything else gets a generic line.
pub fn man_description(name: &str) -> &'static str {
    match name {
        "strlen" => {
            "The s argument must point to a null-terminated string and must not be NULL."
        }
        "strcmp" | "strncmp" => {
            "The s1 argument must point to a null-terminated string and must not be \
             NULL. The s2 argument must point to a null-terminated string and must \
             not be NULL."
        }
        "strcpy" | "strcat" => {
            "The src argument must point to a null-terminated string and must not be NULL."
        }
        "strchr" => {
            "The s argument must point to a null-terminated string and must not be NULL."
        }
        "atoi" | "atol" => {
            "The nptr argument must point to a null-terminated string and must not \
             be NULL."
        }
        "puts" => {
            "The s argument must point to a null-terminated string and must not be NULL."
        }
        "printf" => {
            "The format argument is a printf-style format string; it must point to a \
             null-terminated string and must not be NULL."
        }
        "free" => "The ptr argument may be NULL, in which case no operation is performed.",
        "time" => "The tloc argument may be NULL.",
        "strtol" => {
            "The nptr argument must point to a null-terminated string and must not \
             be NULL. The endptr argument may be NULL."
        }
        _ => "See the HEALERS paper.",
    }
}

/// A synthetic man page for one function (SYNOPSIS plus a DESCRIPTION
/// carrying any documented argument contracts) — the other prototype
/// source of Figure 2, and the phrase source for contract inference.
pub fn man_page(name: &str) -> Option<String> {
    let sym = find_symbol(name)?;
    Some(format!(
        "{upper}(3)                Simulated Programmer's Manual                {upper}(3)\n\n\
         NAME\n       {name} - simulated C library function\n\n\
         SYNOPSIS\n       #include <simlibc.h>\n\n       {proto}\n\n\
         DESCRIPTION\n       {desc}\n",
        upper = name.to_uppercase(),
        proto = sym.proto,
        desc = man_description(name),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_prototypes_parse_and_match_names() {
        let protos = prototypes();
        let syms = symbols();
        assert_eq!(protos.len(), syms.len());
        for (p, s) in protos.iter().zip(&syms) {
            assert_eq!(p.name, s.name, "prototype name mismatch");
        }
    }

    #[test]
    fn symbol_count_is_library_scale() {
        assert!(symbols().len() >= 90, "got {}", symbols().len());
    }

    #[test]
    fn no_duplicate_symbols() {
        let mut names: Vec<_> = symbols().iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn header_text_parses_back() {
        let mut table = TypedefTable::with_builtins();
        let info = cdecl::parse_header(&header_text(), &mut table);
        assert_eq!(info.prototypes.len(), symbols().len(), "skipped: {:?}", info.skipped);
    }

    #[test]
    fn man_pages_parse_back() {
        let table = TypedefTable::with_builtins();
        for name in ["strcpy", "wctrans", "qsort"] {
            let page = man_page(name).unwrap();
            let info = cdecl::parse_manpage(&page, &table);
            assert_eq!(info.prototypes.len(), 1, "{name}: {:?}", info.skipped);
            assert_eq!(info.prototypes[0].name, name);
        }
        assert!(man_page("not_a_function").is_none());
    }

    #[test]
    fn man_descriptions_surface_contract_phrases() {
        let page = man_page("strlen").unwrap();
        let desc = cdecl::description_section(&page).unwrap();
        assert!(desc.contains("null-terminated"), "{desc}");
        assert!(desc.contains("must not be NULL"), "{desc}");
        let page = man_page("free").unwrap();
        assert!(man_description("free").contains("may be NULL"));
        assert!(cdecl::description_section(&page).unwrap().contains("may be NULL"));
        assert_eq!(man_description("qsort"), "See the HEALERS paper.");
    }

    #[test]
    fn find_symbol_works() {
        assert!(find_symbol("strcpy").is_some());
        assert!(find_symbol("nonexistent").is_none());
    }
}
