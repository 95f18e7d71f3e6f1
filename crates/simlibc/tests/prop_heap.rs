//! Property tests for the boundary-tag allocator: for *any* sequence of
//! well-behaved allocator operations, the heap invariants hold, live
//! allocations never overlap, and payload bytes survive unrelated
//! operations. (Attack scenarios deliberately violate these; the
//! properties pin down the behaviour of the *legal* API.) The last
//! property runs attack steps too, to hold the allocator's live-chunk
//! index against the heap walk it replaced.

use proptest::prelude::*;

use simlibc::heap::{self, ChunkDefect, ChunkInfo, HDR, MIN_CHUNK, PREV_INUSE};
use simlibc::state::HEAP_TOP;
use simlibc::testutil::libc_proc;
use simproc::layout::HEAP_BASE;
use simproc::{ExtentOracle, Proc, RegionOracle, VirtAddr};

#[derive(Debug, Clone)]
enum Op {
    Malloc(u16),
    Calloc(u8, u8),
    Free(u8),
    Realloc(u8, u16),
    Write(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u16..2048).prop_map(Op::Malloc),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Calloc(a, b)),
        any::<u8>().prop_map(Op::Free),
        (any::<u8>(), 1u16..2048).prop_map(|(i, n)| Op::Realloc(i, n)),
        any::<u8>().prop_map(Op::Write),
    ]
}

/// A live allocation: pointer, requested size, fill byte.
#[derive(Debug, Clone, Copy)]
struct Live {
    ptr: VirtAddr,
    size: u64,
    fill: u8,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn allocator_invariants_under_arbitrary_legal_traffic(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut p = libc_proc();
        let mut live: Vec<Live> = Vec::new();
        let mut next_fill = 1u8;

        for op in ops {
            match op {
                Op::Malloc(n) => {
                    let ptr = heap::malloc(&mut p, n as u64).unwrap();
                    if !ptr.is_null() {
                        let fill = next_fill;
                        next_fill = next_fill.wrapping_add(1).max(1);
                        p.mem.write_bytes(ptr, &vec![fill; n as usize]).unwrap();
                        live.push(Live { ptr, size: n as u64, fill });
                    }
                }
                Op::Calloc(a, b) => {
                    let ptr = heap::calloc(&mut p, a as u64, b as u64).unwrap();
                    let total = a as u64 * b as u64;
                    if !ptr.is_null() {
                        // calloc zeroes (calloc(0, 0) still returns a
                        // real, freeable allocation).
                        prop_assert_eq!(
                            p.mem.read_bytes(ptr, total).unwrap(),
                            vec![0u8; total as usize]
                        );
                        let fill = next_fill;
                        next_fill = next_fill.wrapping_add(1).max(1);
                        p.mem.write_bytes(ptr, &vec![fill; total as usize]).unwrap();
                        live.push(Live { ptr, size: total, fill });
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let v = live.remove(i as usize % live.len());
                        heap::free(&mut p, v.ptr).unwrap();
                    }
                }
                Op::Realloc(i, n) => {
                    if !live.is_empty() {
                        let idx = i as usize % live.len();
                        let old = live[idx];
                        let ptr = heap::realloc(&mut p, old.ptr, n as u64).unwrap();
                        if ptr.is_null() {
                            // failed: old allocation still valid
                        } else {
                            let kept = old.size.min(n as u64);
                            prop_assert_eq!(
                                p.mem.read_bytes(ptr, kept).unwrap(),
                                vec![old.fill; kept as usize],
                                "realloc must preserve the prefix"
                            );
                            p.mem.write_bytes(ptr, &vec![old.fill; n as usize]).unwrap();
                            live[idx] = Live { ptr, size: n as u64, fill: old.fill };
                        }
                    }
                }
                Op::Write(i) => {
                    if !live.is_empty() {
                        let v = live[i as usize % live.len()];
                        p.mem.write_bytes(v.ptr, &vec![v.fill; v.size as usize]).unwrap();
                    }
                }
            }

            // Global invariants after every step.
            heap::check_invariants(&p).map_err(|e| {
                TestCaseError::fail(format!("heap invariants violated: {e}"))
            })?;

            // Usable size covers the request; live chunks don't overlap.
            let mut spans: Vec<(u64, u64)> = Vec::new();
            for v in &live {
                let usable = heap::usable_size(&mut p, v.ptr).unwrap();
                prop_assert!(usable >= v.size.max(1));
                spans.push((v.ptr.get(), v.ptr.get() + v.size));
            }
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "allocations overlap: {spans:?}");
            }
        }

        // Payload integrity at the end: nothing scribbled on live data.
        for v in &live {
            let data = p.mem.read_bytes(v.ptr, v.size).unwrap();
            prop_assert_eq!(data, vec![v.fill; v.size as usize]);
        }

        // Free everything; the heap must collapse to a single top chunk.
        for v in live {
            heap::free(&mut p, v.ptr).unwrap();
        }
        heap::check_invariants(&p).map_err(|e| {
            TestCaseError::fail(format!("post-teardown invariants: {e}"))
        })?;
        let chunks = heap::walk(&p).unwrap();
        prop_assert_eq!(chunks.len(), 1, "all memory coalesced back: {:?}", chunks);
        prop_assert!(chunks[0].is_top);
    }

    #[test]
    fn malloc_alignment_and_distinctness(sizes in prop::collection::vec(1u64..512, 1..40)) {
        let mut p = libc_proc();
        let mut ptrs = Vec::new();
        for n in sizes {
            let ptr = heap::malloc(&mut p, n).unwrap();
            prop_assert!(!ptr.is_null());
            prop_assert!(ptr.is_aligned(16));
            prop_assert!(!ptrs.contains(&ptr));
            ptrs.push(ptr);
        }
    }

    #[test]
    fn oracle_never_exceeds_chunk(reqs in prop::collection::vec(1u64..256, 1..20), probe in 0u64..256) {
        use simproc::ExtentOracle;
        let mut p = libc_proc();
        let oracle = heap::HeapOracle::new();
        let mut ptrs = Vec::new();
        for n in &reqs {
            ptrs.push((heap::malloc(&mut p, *n).unwrap(), *n));
        }
        for (ptr, n) in &ptrs {
            let usable = heap::usable_size(&mut p, *ptr).unwrap();
            let addr = ptr.add(probe % usable);
            if let Some(ext) = oracle.writable_extent(&p, addr) {
                prop_assert!(ext <= usable, "extent {ext} > usable {usable} (req {n})");
                prop_assert!(addr.add(ext) <= ptr.add(usable));
            }
        }
    }
}

// ---------------------------------------------------------------------
// The live-chunk index against the heap walk.
//
// `heap::live_payload` and `heap::HeapOracle` answer from the
// allocator's live-chunk index plus a local header test. The reference
// below answers the same questions the way they were answered before the
// index: by walking the whole heap. On every heap legal traffic produces
// the two must agree exactly. Once a step has corrupted the heap they may
// differ, but only in the ways DESIGN.md lists ("Disagreement classes");
// `classify` names the class and the test fails on anything unnamed.

/// The corruption a `NeighbourHeader` step writes into the header of the
/// chunk after an allocation.
#[derive(Debug, Clone, Copy)]
enum HeaderForge {
    /// Size word grown by the size of the chunk after it (swallows it).
    Swallow,
    /// Size word shrunk by 16 (the walk lands mid-chunk).
    Shrink,
    /// `PREV_INUSE` cleared: claims the allocation before it is free.
    ClearPrevInuse,
    /// `prev_size` rewritten to `16 * n`.
    PrevSize(u8),
    /// Size word replaced by an arbitrary value.
    Garbage(u64),
}

/// Which free-list links a `ForgeLinks` step redirects at a data target.
#[derive(Debug, Clone, Copy)]
enum LinkForge {
    Fd,
    Bk,
    Both,
}

#[derive(Debug, Clone)]
enum Step {
    Malloc(u16),
    Calloc(u8, u8),
    /// `realloc`, gated like the security wrapper gates it.
    Realloc(u8, u16),
    /// `free` of a live allocation, gated.
    Free(u8),
    /// `free` of a pointer freed before, gated.
    DoubleFree(u8),
    /// `free` of a pointer into an allocation's payload, gated.
    InteriorFree(u8, u8),
    /// Unchecked store of `n` bytes past an allocation's request; past
    /// the chunk's slack it reaches the next header.
    Smash(u8, u8),
    /// Unchecked rewrite of the header after an allocation.
    NeighbourHeader(u8, HeaderForge),
    /// Unchecked rewrite of a free chunk's `fd`/`bk`.
    ForgeLinks(u8, LinkForge),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let forge = prop_oneof![
        Just(HeaderForge::Swallow),
        Just(HeaderForge::Shrink),
        Just(HeaderForge::ClearPrevInuse),
        any::<u8>().prop_map(HeaderForge::PrevSize),
        any::<u64>().prop_map(HeaderForge::Garbage),
    ];
    let links =
        prop_oneof![Just(LinkForge::Fd), Just(LinkForge::Bk), Just(LinkForge::Both)];
    prop_oneof![
        6 => (1u16..600).prop_map(Step::Malloc),
        2 => (any::<u8>(), 0u8..16).prop_map(|(a, b)| Step::Calloc(a, b)),
        2 => (any::<u8>(), 1u16..600).prop_map(|(i, n)| Step::Realloc(i, n)),
        5 => any::<u8>().prop_map(Step::Free),
        1 => any::<u8>().prop_map(Step::DoubleFree),
        1 => (any::<u8>(), 1u8..64).prop_map(|(i, o)| Step::InteriorFree(i, o)),
        1 => (any::<u8>(), 1u8..48).prop_map(|(i, n)| Step::Smash(i, n)),
        1 => (any::<u8>(), forge).prop_map(|(i, f)| Step::NeighbourHeader(i, f)),
        1 => (any::<u8>(), links).prop_map(|(i, l)| Step::ForgeLinks(i, l)),
    ]
}

/// The walk-based answers, computed once per heap state.
struct Reference {
    /// `None` when the walk fails: the reference vouches for nothing.
    chunks: Option<Vec<ChunkInfo>>,
}

impl Reference {
    fn of(p: &Proc) -> Self {
        Reference { chunks: heap::walk(p).ok() }
    }

    fn containing(&self, addr: VirtAddr) -> Option<&ChunkInfo> {
        self.chunks.as_ref()?.iter().find(|c| addr >= c.base && addr < c.base.add(c.size))
    }

    /// `live_payload` by walking: the payload of a non-free, non-top
    /// chunk of a walkable heap.
    fn live_payload(&self, ptr: VirtAddr) -> bool {
        self.containing(ptr).is_some_and(|c| c.base.add(HDR) == ptr && !c.free && !c.is_top)
    }

    /// `HeapOracle::writable_extent` by walking: chunk-bounded inside the
    /// heap, region-bounded outside it and on an unwalkable heap.
    fn writable_extent(&self, p: &Proc, addr: VirtAddr) -> Option<u64> {
        if !heap::in_heap(p, addr) || self.chunks.is_none() {
            return RegionOracle::new().writable_extent(p, addr);
        }
        let c = self.containing(addr)?;
        let payload = c.base.add(HDR);
        if c.free || c.is_top || addr < payload {
            return None;
        }
        Some(c.base.add(c.size).diff(addr))
    }
}

/// Why the index and the walk may disagree on a corrupted heap. Each
/// class is described in DESIGN.md and pinned in `tests/heap_index.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disagreement {
    /// The index refuses a live chunk whose headers `free` would trust
    /// fail the local test; the walk does not read them.
    Defect(ChunkDefect),
    /// The walk vouches for bytes no live allocation covers: a chunk the
    /// allocator never handed out, or one grown by a forged size word.
    NeverAllocated,
    /// The heap is too corrupt to walk; the index still answers for live
    /// chunks whose own headers are intact.
    WalkBroken,
    /// The walk passes but reads the live chunk's bytes as parts of other
    /// chunks: a forged size word earlier in the chain moved the
    /// boundaries, and `malloc` may since have carved chunks that overlap
    /// the live one.
    Hidden,
    /// The walk passes but the free list names a live chunk: `malloc`
    /// unlinked a chunk through forged links and left the list pointing
    /// at what it handed out.
    ListedAsFree,
}

/// Names the class of a disagreement about `addr`, or `None` if it fits
/// none of them.
fn classify(p: &Proc, reference: &Reference, addr: VirtAddr) -> Option<Disagreement> {
    let Some(chunks) = &reference.chunks else {
        return Some(Disagreement::WalkBroken);
    };
    let entry = p
        .live_chunks()
        .at_or_below(addr)
        .filter(|&(payload, size)| addr < payload.sub(HDR).add(size));
    let Some((payload, size)) = entry else {
        return Some(Disagreement::NeverAllocated);
    };
    if let Some(defect) = heap::chunk_defect(p, payload, size) {
        return Some(Disagreement::Defect(defect));
    }
    // The index vouches for an intact live chunk the walk reads otherwise.
    let base = payload.sub(HDR);
    match chunks.iter().find(|c| c.base == base) {
        None => Some(Disagreement::Hidden),
        Some(c) if c.free => Some(Disagreement::ListedAsFree),
        Some(_) => None,
    }
}

/// Addresses worth asking about: every pointer the allocator ever
/// returned, every live and walked payload, and around each an interior
/// pointer, the header and the last payload byte.
fn probes(p: &Proc, reference: &Reference, history: &[VirtAddr]) -> Vec<VirtAddr> {
    let mut bases: Vec<(VirtAddr, u64)> =
        history.iter().map(|&ptr| (ptr, 2 * HDR)).collect();
    bases.extend(p.live_chunks().iter());
    if let Some(chunks) = &reference.chunks {
        bases.extend(chunks.iter().map(|c| (c.base.add(HDR), c.size)));
    }
    let mut out: Vec<VirtAddr> = bases
        .iter()
        .flat_map(|&(payload, size)| {
            [payload, payload.add(8), payload.sub(8), payload.add(size - HDR - 1)]
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Compares the index with the reference at every probe. On an untainted
/// heap they must agree exactly; on a corrupted one every disagreement
/// must have a class.
fn compare(p: &Proc, history: &[VirtAddr], tainted: bool) -> Result<(), TestCaseError> {
    let reference = Reference::of(p);
    let oracle = heap::HeapOracle::new();
    for addr in probes(p, &reference, history) {
        let live = (heap::live_payload(p, addr), reference.live_payload(addr));
        let extent = (oracle.writable_extent(p, addr), reference.writable_extent(p, addr));
        if live.0 == live.1 && extent.0 == extent.1 {
            continue;
        }
        prop_assert!(
            tainted,
            "index and walk disagree on a legal heap at {addr}: live {live:?}, extent {extent:?}"
        );
        let Some(class) = classify(p, &reference, addr) else {
            return Err(TestCaseError::fail(format!(
                "unclassified disagreement at {addr}: live {live:?}, extent {extent:?}"
            )));
        };
        // Where the index is looser than the walk, the class says why:
        // only the classes in which the index vouches for an intact live
        // chunk may accept what the walk refused, and only a live chunk
        // the walk misreads as free or as parts of other chunks may gain
        // writable bytes.
        let live_looser = live.0 && !live.1;
        let extent_looser = match extent {
            (Some(a), Some(b)) => a > b,
            (Some(_), None) => true,
            (None, _) => false,
        };
        use Disagreement::*;
        let may_accept = matches!(class, WalkBroken | Hidden | ListedAsFree);
        let may_widen = matches!(class, Hidden | ListedAsFree);
        prop_assert!(
            (may_accept || !live_looser) && (may_widen || !extent_looser),
            "{class:?} at {addr} is looser than the walk: live {live:?}, extent {extent:?}"
        );
    }
    Ok(())
}

/// The `i`-th element of `v`, if any.
fn pick<T: Copy>(v: &[T], i: u8) -> Option<T> {
    (!v.is_empty()).then(|| v[i as usize % v.len()])
}

/// `free` behind the security wrapper's check on its pointer. `false`
/// when the corrupted allocator faulted.
fn gated_free(
    p: &mut Proc,
    ptr: VirtAddr,
    live: &mut Vec<(VirtAddr, u64)>,
    freed: &mut Vec<VirtAddr>,
) -> bool {
    if !heap::live_payload(p, ptr) {
        return true;
    }
    if heap::free(p, ptr).is_err() {
        return false;
    }
    live.retain(|&(q, _)| q != ptr);
    freed.push(ptr);
    true
}

/// Whether top's size word still reaches exactly to the arena end. With a
/// forged one `malloc` carves memory past the arena (House of Force),
/// which debug builds assert against; the sequence ends there, as after
/// a fault.
fn top_spans_to_arena_end(p: &Proc) -> bool {
    let end = p.mem.region_at(HEAP_BASE).map(|r| r.end());
    let top = p.mem.peek_u64(HEAP_TOP).map(VirtAddr::new);
    match (end, top) {
        (Some(end), Some(top)) => {
            p.mem.peek_u64(top.add(8)).is_some_and(|w| top.add(w & !15) == end)
        }
        _ => false,
    }
}

/// Runs one step. `Ok(false)` ends the sequence: the corrupted allocator
/// faulted or hung, as it would in C.
fn run_step(
    p: &mut Proc,
    step: &Step,
    live: &mut Vec<(VirtAddr, u64)>,
    freed: &mut Vec<VirtAddr>,
    history: &mut Vec<VirtAddr>,
    target: VirtAddr,
) -> Result<bool, TestCaseError> {
    macro_rules! alloc_op {
        ($e:expr) => {
            match $e {
                Ok(ptr) => ptr,
                Err(_) => return Ok(false),
            }
        };
    }
    let allocates = matches!(step, Step::Malloc(_) | Step::Calloc(..) | Step::Realloc(..));
    if allocates && !top_spans_to_arena_end(p) {
        return Ok(false);
    }
    match *step {
        Step::Malloc(n) => {
            let ptr = alloc_op!(heap::malloc(p, n as u64));
            if !ptr.is_null() {
                live.push((ptr, n as u64));
                history.push(ptr);
            }
        }
        Step::Calloc(a, b) => {
            let ptr = alloc_op!(heap::calloc(p, a as u64, b as u64));
            if !ptr.is_null() {
                live.push((ptr, a as u64 * b as u64));
                history.push(ptr);
            }
        }
        Step::Realloc(i, n) => {
            let Some((old, _)) = pick(live, i) else { return Ok(true) };
            if heap::live_payload(p, old) {
                let ptr = alloc_op!(heap::realloc(p, old, n as u64));
                if !ptr.is_null() {
                    live.retain(|&(q, _)| q != old);
                    if ptr != old {
                        freed.push(old);
                    }
                    live.push((ptr, n as u64));
                    history.push(ptr);
                }
            }
        }
        Step::Free(i) => {
            if let Some((ptr, _)) = pick(live, i) {
                return Ok(gated_free(p, ptr, live, freed));
            }
        }
        Step::DoubleFree(i) => {
            if let Some(ptr) = pick(freed, i) {
                if !live.iter().any(|&(q, _)| q == ptr) {
                    prop_assert!(
                        !heap::live_payload(p, ptr),
                        "double free of {ptr} accepted"
                    );
                }
                return Ok(gated_free(p, ptr, live, freed));
            }
        }
        Step::InteriorFree(i, off) => {
            if let Some((ptr, len)) = pick(live, i) {
                let interior = ptr.add(1 + off as u64 % len.max(1));
                // A corrupted allocator may hand out overlapping chunks;
                // only a pointer it never returned is truly interior.
                if p.live_chunks().get(interior).is_none() {
                    prop_assert!(
                        !heap::live_payload(p, interior),
                        "interior free accepted"
                    );
                }
                return Ok(gated_free(p, interior, live, freed));
            }
        }
        Step::Smash(i, n) => {
            if let Some((ptr, len)) = pick(live, i) {
                let _ = p.mem.write_bytes(ptr.add(len), &vec![0x41; n as usize]);
            }
        }
        Step::NeighbourHeader(i, forge) => {
            let Some((ptr, _)) = pick(live, i) else { return Ok(true) };
            let Some(word) = p.mem.peek_u64(ptr.sub(8)) else { return Ok(true) };
            let next = ptr.sub(HDR).add(word & !15);
            let Some(next_word) = p.mem.peek_u64(next.add(8)) else { return Ok(true) };
            let (at, value) = match forge {
                HeaderForge::Swallow => {
                    let after = next.add(next_word & !15);
                    let after_size = p.mem.peek_u64(after.add(8)).unwrap_or(0) & !15;
                    (next.add(8), next_word + after_size)
                }
                HeaderForge::Shrink => {
                    (next.add(8), next_word.saturating_sub(16).max(MIN_CHUNK))
                }
                HeaderForge::ClearPrevInuse => (next.add(8), next_word & !PREV_INUSE),
                HeaderForge::PrevSize(n) => (next, 16 * n as u64),
                HeaderForge::Garbage(v) => (next.add(8), v),
            };
            let _ = p.mem.write_u64(at, value);
        }
        Step::ForgeLinks(i, forge) => {
            let Some(node) = heap::free_list(p).ok().and_then(|l| pick(&l, i)) else {
                return Ok(true);
            };
            let aim = target.sub(8).get();
            if matches!(forge, LinkForge::Fd | LinkForge::Both) {
                let _ = p.mem.write_u64(node, aim);
            }
            if matches!(forge, LinkForge::Bk | LinkForge::Both) {
                let _ = p.mem.write_u64(node.add(8), target.get());
            }
        }
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn live_chunk_index_agrees_with_the_heap_walk(
        steps in prop::collection::vec(step_strategy(), 1..48)
    ) {
        let mut p = libc_proc();
        let target = p.alloc_data_zeroed(32);
        let (mut live, mut freed, mut history) = (Vec::new(), Vec::new(), Vec::new());
        let mut tainted = false;
        for (k, step) in steps.iter().enumerate() {
            // The vendored proptest does not shrink: name the steps taken.
            let context = |e: TestCaseError| {
                TestCaseError::fail(format!("{e}\n  after steps {:?}", &steps[..=k]))
            };
            tainted |= matches!(
                step,
                Step::Smash(..) | Step::NeighbourHeader(..) | Step::ForgeLinks(..)
            );
            if !run_step(&mut p, step, &mut live, &mut freed, &mut history, target)
                .map_err(context)?
            {
                break;
            }
            if !tainted {
                heap::check_invariants(&p).map_err(|e| {
                    context(TestCaseError::fail(format!("legal traffic broke the heap: {e}")))
                })?;
                // The index holds exactly the walk's allocated chunks.
                let walked: Vec<(VirtAddr, u64)> = heap::walk(&p)
                    .unwrap()
                    .iter()
                    .filter(|c| !c.free && !c.is_top)
                    .map(|c| (c.base.add(HDR), c.size))
                    .collect();
                let indexed: Vec<(VirtAddr, u64)> = p.live_chunks().iter().collect();
                if indexed != walked {
                    return Err(context(TestCaseError::fail(format!(
                        "index {indexed:?} != walk {walked:?}"
                    ))));
                }
            }
            compare(&p, &history, tainted).map_err(context)?;
        }
    }
}
