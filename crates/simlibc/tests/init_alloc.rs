//! Bounds the host allocations of a simulated process start. After
//! warm-up (the shared libc + libm call table built, the region-buffer
//! pool filled), `init_process` maps pooled segments and clones the
//! shared call table: a small fixed number of allocations. Registering
//! every library symbol per process again would cost two per symbol and
//! fail this test.
//!
//! The counter is thread-local (const-initialised, so reading it never
//! allocates) which keeps the measurement immune to allocation noise from
//! other test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simlibc::setup::init_process;
use simproc::{CVal, Fault, Proc};

/// Host allocations one warm `init_process` may make.
const MAX_INIT_ALLOCS: u64 = 32;

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

#[test]
fn warm_process_start_allocates_a_bounded_amount() {
    for _ in 0..3 {
        drop(init_process());
    }
    for _ in 0..5 {
        let before = alloc_count();
        let p = init_process();
        let n = alloc_count() - before;
        drop(p);
        assert!(n <= MAX_INIT_ALLOCS, "init_process made {n} host allocations");
    }
}

#[test]
fn a_process_that_registers_a_callback_copies_the_table_cheaply() {
    fn cb(_p: &mut Proc, _args: &[CVal]) -> Result<CVal, Fault> {
        Ok(CVal::Int(0))
    }
    drop(init_process());
    let mut p = init_process();
    let before = alloc_count();
    p.register_host_fn("cmp", cb);
    let n = alloc_count() - before;
    // The copy shares its reference-counted names: a few allocations for
    // the table's vectors and map, not one per library symbol.
    assert!(n <= 16, "copying the shared call table made {n} host allocations");
}
