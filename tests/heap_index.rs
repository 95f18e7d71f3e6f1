//! One pinned case per class in which the allocator's live-chunk index
//! and the heap walk it replaced disagree on a corrupted heap (DESIGN.md,
//! "Disagreement classes"; found by the differential property in
//! `crates/simlibc/tests/prop_heap.rs`).
//!
//! Where the index refuses a `free` the walk accepted, the security
//! wrapper rejects the call. Where the index accepts a `free` the walk
//! refused, the pointer is a genuine live allocation whose headers `free`
//! touches are intact, and the canary of the allocation whose overflow
//! did the damage catches the attack.

use healers::interpose::{Executable, Loader, Session, System};
use healers::simlibc::heap::{self, ChunkDefect, HDR, PREV_INUSE};
use healers::simlibc::state::FREELIST_HEAD;
use healers::simproc::{CVal, Fault, Proc, VirtAddr};
use healers::{as_preload_library, server_wrapper};

fn no_entry(_s: &mut Session<'_>) -> Result<i32, Fault> {
    Ok(0)
}

/// Runs `body` against a fresh process behind the security wrapper.
fn protected(body: impl FnOnce(&mut Session<'_>)) {
    let wrapper = server_wrapper();
    let mut loader = Loader::new();
    loader.preload(as_preload_library(&wrapper));
    let exe = Executable::new("victim", &["libsimc.so.1"], &["malloc", "free"], no_entry);
    let image = loader.load(&System::standard(), &exe).expect("victim links");
    let mut proc = healers::simlibc::setup::init_process();
    body(&mut Session::new(&mut proc, &image));
}

fn malloc(s: &mut Session<'_>, n: u64) -> VirtAddr {
    let ptr = s.malloc(n).expect("malloc");
    assert!(!ptr.is_null());
    ptr
}

fn free(s: &mut Session<'_>, ptr: VirtAddr) -> Result<CVal, Fault> {
    s.call("free", &[CVal::Ptr(ptr)])
}

/// The violation a wrapped call was stopped with.
fn violation(result: Result<CVal, Fault>) -> String {
    match result {
        Err(Fault::SecurityViolation { detail }) => detail,
        other => panic!("expected a security violation, got {other:?}"),
    }
}

/// The security wrapper refused the call on `free`'s argument check.
fn assert_refused(result: Result<CVal, Fault>) {
    let detail = violation(result);
    assert!(!detail.contains("canary"), "refused by the check, not the canary: {detail}");
}

/// The canary of the overflowing allocation caught the attack.
fn assert_canary_caught(result: Result<CVal, Fault>) {
    let detail = violation(result);
    assert!(detail.contains("heap canary clobbered"), "{detail}");
}

/// The answer of the heap walk the index replaced: `ptr` is the payload
/// of an allocated, non-top chunk of a walkable heap.
fn walk_says_live(p: &Proc, ptr: VirtAddr) -> bool {
    heap::walk(p).is_ok_and(|chunks| {
        chunks.iter().any(|c| c.base.add(HDR) == ptr && !c.free && !c.is_top)
    })
}

/// The local test's verdict on the live allocation at `ptr`.
fn defect(p: &Proc, ptr: VirtAddr) -> Option<ChunkDefect> {
    let size = p.live_chunks().get(ptr).expect("a live allocation");
    heap::chunk_defect(p, ptr, size)
}

fn size_word(p: &Proc, ptr: VirtAddr) -> u64 {
    p.mem.peek_u64(ptr.sub(8)).expect("header mapped")
}

fn chunk_size(p: &Proc, ptr: VirtAddr) -> u64 {
    size_word(p, ptr) & !15
}

/// A store that skips the bytes before it: an out-of-bounds index, not
/// a running overflow, so no canary on the way is touched.
fn store(s: &mut Session<'_>, addr: VirtAddr, value: u64) {
    s.proc().mem.write_u64(addr, value).expect("store lands in mapped memory");
}

/// A running overflow of `ptr` (requested `requested` bytes): `tail` is
/// written right after the request, over the canary first.
fn overflow(s: &mut Session<'_>, ptr: VirtAddr, requested: u64, tail: &[u64]) {
    let bytes: Vec<u8> = tail.iter().flat_map(|w| w.to_le_bytes()).collect();
    s.proc().mem.write_bytes(ptr.add(requested), &bytes).expect("overflow stays mapped");
}

// ----- the index refuses; the walk accepted ---------------------------

#[test]
fn forged_own_size_word_is_refused() {
    protected(|s| {
        let (_a, b, c) = (malloc(s, 24), malloc(s, 24), malloc(s, 24));
        let _pin = malloc(s, 24);
        // b's size word grows over c: the walk reads one larger chunk.
        let swallowed = chunk_size(s.proc(), b) + chunk_size(s.proc(), c);
        store(s, b.sub(8), swallowed | PREV_INUSE);
        assert!(walk_says_live(s.proc(), b));
        assert_eq!(defect(s.proc(), b), Some(ChunkDefect::SizeForged));
        assert_refused(free(s, b));
    });
}

#[test]
fn next_chunk_claiming_this_one_is_free_is_refused() {
    protected(|s| {
        let (a, b) = (malloc(s, 24), malloc(s, 24));
        let word = size_word(s.proc(), b);
        store(s, b.sub(8), word & !PREV_INUSE);
        assert!(walk_says_live(s.proc(), a));
        assert_eq!(defect(s.proc(), a), Some(ChunkDefect::NextSaysFree));
        assert_refused(free(s, a));
    });
}

#[test]
fn forged_backward_neighbour_is_refused() {
    protected(|s| {
        let target = s.static_buf(16);
        let (a, b) = (malloc(s, 64), malloc(s, 24));
        let _pin = malloc(s, 24);
        // A fake free chunk inside a's payload, and b's header rewritten
        // to coalesce backward into it: the classic backward unlink.
        let fake = a.add(16);
        store(s, fake.add(8), 32 | PREV_INUSE);
        store(s, fake.add(16), target.sub(8).get());
        store(s, fake.add(24), target.get());
        let b_chunk = b.sub(HDR);
        store(s, b_chunk, b_chunk.diff(fake));
        let word = size_word(s.proc(), b);
        store(s, b.sub(8), word & !PREV_INUSE);
        assert!(walk_says_live(s.proc(), b));
        assert_eq!(defect(s.proc(), b), Some(ChunkDefect::PrevForged));
        assert_refused(free(s, b));
        assert_eq!(s.proc().mem.read_u64(target).unwrap(), 0, "no unlink write");
    });
}

#[test]
fn forged_forward_neighbour_links_are_refused() {
    protected(|s| {
        let target = s.static_buf(16);
        let (a, b) = (malloc(s, 24), malloc(s, 24));
        let _pin = malloc(s, 24);
        free(s, b).expect("b is freed legally");
        // A dangling store into freed b redirects its bk; fd stays
        // intact, so the walk still follows the list home.
        store(s, b.add(8), target.get());
        assert!(walk_says_live(s.proc(), a));
        assert_eq!(defect(s.proc(), a), Some(ChunkDefect::NextForged));
        assert_refused(free(s, a));
        assert_eq!(s.proc().mem.read_u64(target).unwrap(), 0, "no unlink write");
    });
}

#[test]
fn forward_neighbour_link_into_unmapped_memory_is_refused() {
    protected(|s| {
        let (a, b) = (malloc(s, 24), malloc(s, 24));
        let _pin = malloc(s, 24);
        free(s, b).expect("b is freed legally");
        store(s, b.add(8), healers::simproc::layout::WILD_ADDR.get());
        assert!(walk_says_live(s.proc(), a));
        assert_eq!(defect(s.proc(), a), Some(ChunkDefect::Unreadable));
        assert_refused(free(s, a));
    });
}

#[test]
fn forged_free_list_head_is_refused() {
    protected(|s| {
        let target = s.static_buf(16);
        let a = malloc(s, 24);
        let _pin = malloc(s, 24);
        let b = malloc(s, 24);
        let _pin2 = malloc(s, 24);
        free(s, b).expect("b is freed legally");
        // b heads the free list; `free(a)` would insert before it and
        // write through b's forged bk.
        store(s, b.add(8), target.get());
        assert!(walk_says_live(s.proc(), a));
        assert_eq!(defect(s.proc(), a), Some(ChunkDefect::FreeListForged));
        assert_refused(free(s, a));
    });
}

#[test]
fn forged_top_size_is_refused() {
    protected(|s| {
        let a = malloc(s, 24);
        // House of Force: the wilderness after a claims the address space.
        let top = a.sub(HDR).add(chunk_size(s.proc(), a));
        store(s, top.add(8), !15 | PREV_INUSE);
        assert_eq!(defect(s.proc(), a), Some(ChunkDefect::TopForged));
        assert_refused(free(s, a));
    });
}

#[test]
fn chunk_never_allocated_is_refused() {
    protected(|s| {
        let a = malloc(s, 64);
        let _pin = malloc(s, 24);
        // a shrinks to 32 bytes and a forged chunk fills the rest of it:
        // the walk sees two consistent chunks, the allocator handed out one.
        let (size, fake) = (chunk_size(s.proc(), a), a.add(16));
        store(s, a.sub(8), 32 | PREV_INUSE);
        store(s, fake.add(8), (size - 32) | PREV_INUSE);
        let fake_payload = fake.add(HDR);
        assert!(walk_says_live(s.proc(), fake_payload));
        assert!(s.proc().live_chunks().get(fake_payload).is_none());
        assert_refused(free(s, fake_payload));
    });
}

// ----- the index accepts; the walk refused; the canary catches --------

#[test]
fn unwalkable_heap_still_frees_intact_chunks_and_the_canary_catches_the_smash() {
    protected(|s| {
        let (a, _b, c) = (malloc(s, 24), malloc(s, 24), malloc(s, 24));
        let _pin = malloc(s, 24);
        // A running overflow of a: its canary, slack, then junk over b's
        // header. The walk stops at b's garbage size.
        overflow(s, a, 24, &[0x4141_4141_4141_4141; 4]);
        assert!(heap::walk(s.proc()).is_err());
        assert!(!walk_says_live(s.proc(), c));
        free(s, c).expect("c and its neighbours are intact");
        heap::free_list(s.proc()).expect("free list intact");
        assert_canary_caught(free(s, a));
    });
}

#[test]
fn chunk_hidden_by_a_forged_size_is_freed_and_the_canary_catches_the_forgery() {
    protected(|s| {
        let (a, b, c) = (malloc(s, 24), malloc(s, 24), malloc(s, 24));
        let _pin = malloc(s, 24);
        // A running overflow of a rewrites b's size to swallow c.
        let swallowed = chunk_size(s.proc(), b) + chunk_size(s.proc(), c);
        overflow(s, a, 24, &[0x4141_4141_4141_4141; 2]);
        overflow(s, a, 40, &[swallowed | PREV_INUSE]);
        heap::walk(s.proc()).expect("the forged chain still walks");
        assert!(!walk_says_live(s.proc(), c));
        free(s, c).expect("c and its neighbours are intact");
        assert_refused(free(s, b));
        assert_canary_caught(free(s, a));
    });
}

#[test]
fn chunk_the_free_list_still_names_is_freed_and_the_canary_catches_it() {
    protected(|s| {
        let target = s.static_buf(16);
        let (a, b) = (malloc(s, 24), malloc(s, 24));
        let _pin = malloc(s, 24);
        let x = malloc(s, 1);
        let _pin2 = malloc(s, 24);
        free(s, b).expect("b is freed legally");
        free(s, x).expect("x is freed legally");
        // The list is head -> x -> b. A running overflow of a keeps b's
        // header and fd but aims its bk at `target`.
        let b_word = size_word(s.proc(), b);
        overflow(s, a, 24, &[0x4141_4141_4141_4141, 0, b_word, FREELIST_HEAD.get()]);
        overflow(s, a, 56, &[target.get()]);
        // x is too small, so malloc takes b and unlinks it through the
        // forged bk: an unchecked write, and b stays on the list.
        assert_eq!(malloc(s, 24), b);
        assert_eq!(s.proc().mem.read_u64(target).unwrap(), FREELIST_HEAD.get());
        assert!(!walk_says_live(s.proc(), b));
        free(s, b).expect("b and its neighbours are intact");
        assert_canary_caught(free(s, a));
    });
}
