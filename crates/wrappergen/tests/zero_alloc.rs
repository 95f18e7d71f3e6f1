//! Proves that `WrappedFn::call` performs **zero heap allocations** of
//! its own, measured by a counting global allocator: on the fused accept
//! path, on a containment rejection, and through hook steps — a steady
//! security `malloc`/`free` pair and a call through the profiling
//! wrapper's four statistics hooks.
//!
//! The counter is thread-local (const-initialised, so reading it never
//! allocates) which keeps the measurement immune to allocation noise from
//! other test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cdecl::{parse_prototype, TypedefTable};
use guardian::{CanaryRegistry, GuardOracle};
use simlibc::testutil::libc_proc;
use simproc::{CVal, Fault, Proc};
use typelattice::{RobustApi, RobustFunction, SafePred};
use wrappergen::hooks::{ArgCheckHook, CanaryHook};
use wrappergen::{build_wrapper, PolicyEngine, WrappedFn, WrapperConfig, WrapperKind};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_count() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn stub_seven(_p: &mut Proc, _args: &[CVal]) -> Result<CVal, Fault> {
    Ok(CVal::Int(7))
}

fn strlen_contained() -> WrappedFn {
    let t = TypedefTable::with_builtins();
    let proto = parse_prototype("size_t strlen(const char *s);", &t).unwrap();
    let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
    let hook = ArgCheckHook::new(
        vec![SafePred::CStr],
        proto.ret.clone(),
        oracle,
        PolicyEngine::containment(),
    );
    WrappedFn::new(proto, stub_seven, vec![Arc::new(hook)])
}

#[test]
fn contained_accept_path_allocates_nothing() {
    let f = strlen_contained();
    assert!(f.has_plan(), "uniform-containment strlen must compile to a plan");

    let mut p = libc_proc();
    // A zeroed data buffer is a valid (empty) C string.
    let s = p.alloc_data_zeroed(16);

    // Warm up caches (MRU region cache, lazy statics) outside the window.
    assert_eq!(f.call(&mut p, &[CVal::Ptr(s)]).unwrap(), CVal::Int(7));

    let before = alloc_count();
    let r = f.call(&mut p, &[CVal::Ptr(s)]).unwrap();
    let after = alloc_count();
    assert_eq!(r, CVal::Int(7));
    assert_eq!(after - before, 0, "accept fast path heap-allocated");
}

#[test]
fn containment_reject_shortcut_allocates_nothing() {
    let f = strlen_contained();
    assert!(f.has_plan());

    let mut p = libc_proc();
    // NULL violates CStr; uniform containment rejects without the
    // dynamic pipeline.
    assert_eq!(f.call(&mut p, &[CVal::NULL]).unwrap(), CVal::Int(-1));

    let before = alloc_count();
    let r = f.call(&mut p, &[CVal::NULL]).unwrap();
    let after = alloc_count();
    assert_eq!(r, CVal::Int(-1));
    assert_eq!(after - before, 0, "containment reject path heap-allocated");
}

fn api(decls: &[(&str, SafePred)]) -> RobustApi {
    let t = TypedefTable::with_builtins();
    let functions = decls
        .iter()
        .map(|(decl, pred)| {
            RobustFunction::new(
                parse_prototype(decl, &t).unwrap(),
                vec![pred.clone()],
                true,
            )
        })
        .collect();
    RobustApi { library: "libsimc.so.1".into(), functions }
}

#[test]
fn security_malloc_free_pair_allocates_nothing() {
    // `malloc` runs the canary hook's `before` and `after`; `free` runs
    // the canary hook and then its heap check in a kernel.
    let lib = build_wrapper(
        WrapperKind::Security,
        &api(&[
            ("void *malloc(size_t size);", SafePred::Always),
            ("void free(void *ptr);", SafePred::HeapChunkOrNull),
        ]),
        &WrapperConfig::default(),
    );
    let (malloc, free) = (lib.get("malloc").unwrap(), lib.get("free").unwrap());
    assert_eq!(malloc.hook_names(), vec!["canary check"]);
    assert_eq!(free.hook_names(), vec!["canary check", "arg check"]);

    let mut p = libc_proc();
    let pair = |p: &mut Proc| {
        let ptr = malloc.call(p, &[CVal::Int(64)]).unwrap();
        assert!(!ptr.is_null());
        assert_eq!(free.call(p, &[ptr]).unwrap(), CVal::Void);
    };
    pair(&mut p);

    let before = alloc_count();
    pair(&mut p);
    let after = alloc_count();
    assert_eq!(after - before, 0, "security malloc/free pair heap-allocated");
}

#[test]
fn profiling_hooks_allocate_nothing() {
    let lib = build_wrapper(
        WrapperKind::Profiling,
        &api(&[("size_t strlen(const char *s);", SafePred::CStr)]),
        &WrapperConfig::default(),
    );
    let strlen = lib.get("strlen").unwrap();
    assert_eq!(
        strlen.hook_names(),
        vec!["function exectime", "collect errors", "func error", "call counter"]
    );

    let mut p = libc_proc();
    let s = p.alloc_cstr("four");
    // The first call creates the function's statistics entry.
    assert_eq!(strlen.call(&mut p, &[CVal::Ptr(s)]).unwrap(), CVal::Int(4));

    let before = alloc_count();
    let r = strlen.call(&mut p, &[CVal::Ptr(s)]).unwrap();
    let after = alloc_count();
    assert_eq!(r, CVal::Int(4));
    assert_eq!(after - before, 0, "profiling hook steps heap-allocated");
    assert_eq!(lib.stats.snapshot().per_func["strlen"].calls, 2);
}

#[test]
fn plan_coverage_matches_hook_pipeline() {
    let t = TypedefTable::with_builtins();

    // Allocator interception must stay dynamic: CanaryHook does real
    // work (registry mutation) around malloc.
    let proto = parse_prototype("void *malloc(size_t n);", &t).unwrap();
    let registry = Arc::new(CanaryRegistry::new());
    let oracle = GuardOracle::new(Arc::clone(&registry));
    let f = WrappedFn::new(
        proto.clone(),
        stub_seven,
        vec![
            Arc::new(ArgCheckHook::new(
                vec![SafePred::Always],
                proto.ret.clone(),
                oracle,
                PolicyEngine::containment(),
            )),
            Arc::new(CanaryHook::new(registry)),
        ],
    );
    assert!(!f.has_plan(), "malloc with CanaryHook must run dynamically");

    // Non-uniform and healing engines still compile (check failures fall
    // back to the dynamic pipeline).
    let proto = parse_prototype("size_t strlen(const char *s);", &t).unwrap();
    let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
    let f = WrappedFn::new(
        proto.clone(),
        stub_seven,
        vec![Arc::new(ArgCheckHook::new(
            vec![SafePred::CStr],
            proto.ret.clone(),
            oracle,
            PolicyEngine::healing(),
        ))],
    );
    assert!(f.has_plan(), "healing strlen lowers with fallback checks");
}
