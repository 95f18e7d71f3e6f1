//! Library/process initialisation: the work the dynamic loader and libc
//! startup code do before `main`.
//!
//! The libc + libm call table is the same for every process, so it is
//! built once per host process and shared: a fresh process clones an
//! `Arc`, and only a process that registers a function of its own (a
//! qsort comparator, an atexit handler) copies the table.
//! [`crate::find_symbol`] and [`crate::find_impl`] resolve through the
//! same table.

use std::sync::OnceLock;

use simproc::{Fault, FuncTable, Proc};

use crate::{ctype, env, heap, math, symbols, SymbolDef};

/// The libc + libm symbols in table order and the call table every
/// [`init_process`] image starts with, built from them; a symbol's index
/// in `defs` is its `FuncId`.
struct Library {
    defs: Vec<SymbolDef>,
    /// `defs[..libc_len]` is `libsimc.so.1`, the rest `libsimm.so.1`.
    libc_len: usize,
    funcs: FuncTable,
}

fn library() -> &'static Library {
    static LIBRARY: OnceLock<Library> = OnceLock::new();
    LIBRARY.get_or_init(|| {
        let mut defs = symbols();
        let libc_len = defs.len();
        defs.extend(math::math_symbols());
        let mut funcs = FuncTable::new();
        for sym in &defs {
            funcs.register_impl(sym.name, sym.imp);
        }
        assert_eq!(funcs.len(), defs.len(), "libc and libm names must be unique");
        Library { defs, libc_len, funcs }
    })
}

/// The definition `name` resolves to, and whether `libsimc.so.1` (rather
/// than `libsimm.so.1`) exports it.
pub(crate) fn resolve(name: &str) -> Option<(SymbolDef, bool)> {
    let lib = library();
    let i = lib.funcs.id_of(name)?.index();
    Some((lib.defs[i], i < lib.libc_len))
}

/// Initialises C-library state inside a fresh process: heap arena, ctype
/// table, empty atexit table.
///
/// # Errors
///
/// Propagates faults (none expected on a fresh image).
pub fn init_libc(p: &mut Proc) -> Result<(), Fault> {
    heap::init_heap(p)?;
    ctype::init_ctype_table(p)?;
    Ok(())
}

/// [`init_libc`] plus an initial environment block.
///
/// # Errors
///
/// Propagates faults (none expected on a fresh image).
pub fn init_libc_with_env(p: &mut Proc, vars: &[(&str, &str)]) -> Result<(), Fault> {
    init_libc(p)?;
    env::init_env(p, vars)
}

/// Builds a ready-to-run process: standard layout, initialised libc, a
/// default environment, and every libc + libm symbol registered in the
/// call table (so function pointers to library functions resolve). The
/// call table is built once and shared until the process writes to it.
pub fn init_process() -> Proc {
    let mut p = Proc::new();
    p.funcs = library().funcs.clone();
    init_libc_with_env(
        &mut p,
        &[("PATH", "/bin:/usr/bin"), ("HOME", "/root"), ("TERM", "vt100")],
    )
    .expect("fresh image cannot fault");
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use simproc::CVal;

    #[test]
    fn init_process_is_ready() {
        let mut p = init_process();
        crate::heap::check_invariants(&p).unwrap();
        // Library functions are callable through their text addresses.
        let strlen_addr = p.funcs.addr_of(p.funcs.id_of("strlen").unwrap());
        let s = p.alloc_cstr("four");
        let r = p.call_function(strlen_addr, &[simproc::CVal::Ptr(s)]).unwrap();
        assert_eq!(r, simproc::CVal::Int(4));
    }

    #[test]
    fn init_process_has_environment() {
        let mut p = init_process();
        let name = p.alloc_cstr("PATH");
        let v = crate::env::getenv(&mut p, &[simproc::CVal::Ptr(name)]).unwrap();
        assert_eq!(p.read_cstr_lossy(v.as_ptr()), "/bin:/usr/bin");
    }

    fn seven(_p: &mut Proc, _args: &[CVal]) -> Result<CVal, Fault> {
        Ok(CVal::Int(7))
    }

    #[test]
    fn shared_table_matches_registration_in_table_order() {
        let mut fresh = Proc::new();
        for sym in symbols().iter().chain(math::math_symbols().iter()) {
            fresh.register_host_fn(sym.name, sym.imp);
        }
        let p = init_process();
        assert_eq!(p.funcs.len(), fresh.funcs.len());
        let libc_len = symbols().len();
        for (i, (id, name)) in fresh.funcs.iter().enumerate() {
            assert_eq!(p.funcs.id_of(name), Some(id), "{name}");
            assert_eq!(p.funcs.name_of(id), name);
            assert_eq!(p.funcs.addr_of(id), fresh.funcs.addr_of(id), "{name}");
            assert_eq!(p.funcs.by_addr(fresh.funcs.addr_of(id)), Some(id), "{name}");
            let imp = p.host_fn(id).unwrap();
            assert!(std::ptr::fn_addr_eq(imp, fresh.host_fn(id).unwrap()), "{name}");
            assert!(std::ptr::fn_addr_eq(crate::find_impl(name).unwrap(), imp), "{name}");
            assert_eq!(crate::find_symbol(name).is_some(), i < libc_len, "{name}");
        }
    }

    #[test]
    fn registrations_stay_private_to_their_process() {
        let mut p = init_process();
        let other = init_process();
        let snapshot = p.clone();
        let strlen = p.funcs.id_of("strlen").unwrap();
        p.register_host_fn("__private_cb", seven);
        p.register_host_fn("strlen", seven);
        let s = p.alloc_cstr("four");
        let addr = p.funcs.addr_of(strlen);
        assert_eq!(p.call_function(addr, &[CVal::Ptr(s)]).unwrap(), CVal::Int(7));
        assert!(p.funcs.id_of("__private_cb").is_some());

        let later = init_process();
        for mut q in [other, snapshot, later] {
            assert!(q.funcs.id_of("__private_cb").is_none());
            assert_eq!(q.funcs.len(), library().funcs.len());
            let s = q.alloc_cstr("four");
            let r = q.call_function(q.funcs.addr_of(strlen), &[CVal::Ptr(s)]).unwrap();
            assert_eq!(r, CVal::Int(4));
        }
        assert!(std::ptr::fn_addr_eq(
            crate::find_impl("strlen").unwrap(),
            crate::string::strlen as simproc::HostFn
        ));
    }
}
