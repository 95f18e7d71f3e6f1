//! A boundary-tag heap allocator in the dlmalloc-2003 style — deliberately
//! *without* integrity checks.
//!
//! All metadata (chunk headers, free-list links) lives **inside simulated
//! memory**, directly adjacent to user payloads. Overflowing an allocation
//! therefore corrupts the next chunk's header and free-list pointers, and
//! `free()`'s classic `unlink` macro then performs an attacker-controlled
//! 8-byte write — the exact heap-smashing attack of the paper's §3.4 demo
//! (and of Fetzer & Xiao's SRDS'01 paper the demo references). The
//! HEALERS *security wrapper* (crate `guardian` + `wrappergen`) detects
//! the corruption before `unlink` runs.
//!
//! ## Chunk layout
//!
//! ```text
//!  chunk base C ->  +------------------+
//!                   | prev_size  (u64) |   size of previous chunk, only
//!                   +------------------+   valid if PREV_INUSE clear
//!                   | size | flags     |   total chunk size (mult. of 16)
//!  payload P   ->   +------------------+   bit0 = PREV_INUSE
//!                   | fd (when free)   |
//!                   | bk (when free)   |
//!                   | ... payload ...  |
//!  next chunk  ->   +------------------+
//! ```
//!
//! ## The live-chunk index
//!
//! Beside that in-memory metadata, the allocator keeps a host-side
//! record of the chunks it has handed out ([`simproc::LiveChunks`], a
//! field of the process): `malloc`/`calloc` insert at their return
//! points, `free` removes, `realloc` does both through those two, and
//! [`init_heap`] clears it. The security checks ([`live_payload`],
//! [`HeapOracle`]) answer from it plus an O(1) consistency test of the
//! headers `free` itself would read, instead of walking the heap. The
//! walk ([`walk`], [`free_list`]) stays as the reference and as
//! [`check_invariants`]' engine. It stops at the first size word that
//! reaches past the arena end, so it reads at most
//! `HEAP_MAX / MIN_CHUNK` headers (2^19) however the heap was corrupted,
//! and looks each chunk up in the sorted free list in `O(log n)`.

use simproc::layout::{HEAP_BASE, HEAP_MAX};
use simproc::{errno, Access, CVal, Fault, Proc, VirtAddr};

use crate::state::{FREELIST_HEAD, HEAP_TOP};

/// Chunk header size (prev_size + size words).
pub const HDR: u64 = 16;
/// Minimum chunk size (header + room for fd/bk when freed).
pub const MIN_CHUNK: u64 = 32;
/// `PREV_INUSE` flag bit in the size word.
pub const PREV_INUSE: u64 = 1;
/// Heap growth increment when the wilderness runs dry.
const GROW_STEP: u64 = 0x1_0000;
/// Host-safety backstop: maximum free-list nodes visited per operation.
/// A corrupted circular list otherwise loops forever on an unmetered
/// process; real code would spin — we classify it as a hang.
const SCAN_CAP: u32 = 100_000;

fn align16(n: u64) -> u64 {
    n.saturating_add(15) & !15
}

/// Rounds a request up to its chunk size (saturating: absurd requests
/// saturate and are rejected by `malloc`'s arena-size guard).
pub fn chunk_size_for(request: u64) -> u64 {
    align16(request.saturating_add(HDR)).max(MIN_CHUNK)
}

/// Initialises the heap: the whole initial mapping becomes the top
/// (wilderness) chunk and the free list is empty (head self-linked).
pub fn init_heap(p: &mut Proc) -> Result<(), Fault> {
    p.live_chunks_mut().clear();
    let heap_end = heap_end(p);
    p.mem.write_u64(HEAP_TOP, HEAP_BASE.get())?;
    // Top chunk header: size = whole arena, previous (nonexistent) in use.
    p.mem.write_u64(HEAP_BASE, 0)?;
    p.mem.write_u64(HEAP_BASE.add(8), heap_end.diff(HEAP_BASE) | PREV_INUSE)?;
    // Empty circular free list.
    p.mem.write_u64(FREELIST_HEAD, FREELIST_HEAD.get())?;
    p.mem.write_u64(FREELIST_HEAD.add(8), FREELIST_HEAD.get())?;
    Ok(())
}

fn heap_end(p: &Proc) -> VirtAddr {
    p.mem.region_at(HEAP_BASE).map(|r| r.end()).unwrap_or(HEAP_BASE)
}

fn read_size(p: &mut Proc, chunk: VirtAddr) -> Result<(u64, u64), Fault> {
    let word = p.read_u64(chunk.add(8))?;
    Ok((word & !15, word & 15))
}

fn write_size(p: &mut Proc, chunk: VirtAddr, size: u64, flags: u64) -> Result<(), Fault> {
    p.write_u64(chunk.add(8), size | flags)
}

fn set_prev_inuse(p: &mut Proc, chunk: VirtAddr, inuse: bool) -> Result<(), Fault> {
    let word = p.read_u64(chunk.add(8))?;
    let new = if inuse { word | PREV_INUSE } else { word & !PREV_INUSE };
    p.write_u64(chunk.add(8), new)
}

/// The classic unchecked unlink: `FD->bk = BK; BK->fd = FD;`.
///
/// With corrupted `fd`/`bk` this is an arbitrary 8-byte write — kept
/// faithful on purpose.
fn unlink(p: &mut Proc, payload: VirtAddr) -> Result<(), Fault> {
    let fd = p.read_ptr(payload)?;
    let bk = p.read_ptr(payload.add(8))?;
    p.write_ptr(fd.add(8), bk)?;
    p.write_ptr(bk, fd)?;
    Ok(())
}

/// Inserts a free chunk's payload at the list head.
fn insert(p: &mut Proc, payload: VirtAddr) -> Result<(), Fault> {
    let first = p.read_ptr(FREELIST_HEAD)?;
    p.write_ptr(payload, first)?;
    p.write_ptr(payload.add(8), FREELIST_HEAD)?;
    p.write_ptr(first.add(8), payload)?;
    p.write_ptr(FREELIST_HEAD, payload)?;
    Ok(())
}

/// `malloc(n)`: first-fit over the free list, falling back to the
/// wilderness, growing the arena up to [`HEAP_MAX`].
///
/// Returns the payload pointer, or `NULL` with `errno = ENOMEM`.
///
/// # Errors
///
/// Propagates memory faults — a corrupted free list can fault or hang.
pub fn malloc(p: &mut Proc, n: u64) -> Result<VirtAddr, Fault> {
    if n >= HEAP_MAX {
        p.set_errno(errno::ENOMEM);
        return Ok(VirtAddr::NULL);
    }
    let need = chunk_size_for(n);

    // First fit through the free list.
    let mut cur = p.read_ptr(FREELIST_HEAD)?;
    let mut visited = 0u32;
    while cur != FREELIST_HEAD {
        visited += 1;
        if visited > SCAN_CAP {
            return Err(Fault::Hang);
        }
        let chunk = cur.sub(HDR);
        let (size, flags) = read_size(p, chunk)?;
        if size >= need {
            unlink(p, cur)?;
            let taken = if size - need >= MIN_CHUNK {
                // Split: the tail stays free.
                let rem_chunk = chunk.add(need);
                let rem_size = size - need;
                write_size(p, chunk, need, flags)?;
                write_size(p, rem_chunk, rem_size, PREV_INUSE)?;
                // Boundary tag for the chunk after the remainder.
                let after = rem_chunk.add(rem_size);
                if after < heap_end(p) {
                    p.write_u64(after, rem_size)?;
                    set_prev_inuse(p, after, false)?;
                }
                insert(p, rem_chunk.add(HDR))?;
                need
            } else {
                // Hand out the whole chunk.
                let next = chunk.add(size);
                if next < heap_end(p) {
                    set_prev_inuse(p, next, true)?;
                }
                size
            };
            p.live_chunks_mut().insert(chunk.add(HDR), taken);
            return Ok(chunk.add(HDR));
        }
        cur = p.read_ptr(cur)?;
    }

    // Wilderness allocation.
    loop {
        let top = p.read_ptr(HEAP_TOP)?;
        let end = heap_end(p);
        let (top_size, top_flags) = read_size(p, top)?;
        // glibc's sysmalloc check: a top chunk that does not end at the
        // arena end has a forged size (an overflow reached its header),
        // and carving it would hand out memory past the arena.
        if top.get().checked_add(top_size) != Some(end.get()) {
            return Err(Fault::abort("malloc(): corrupted top size"));
        }
        if top_size >= need + MIN_CHUNK {
            write_size(p, top, need, top_flags)?;
            let new_top = top.add(need);
            p.write_u64(HEAP_TOP, new_top.get())?;
            p.write_u64(new_top, 0)?;
            write_size(p, new_top, top_size - need, PREV_INUSE)?;
            p.live_chunks_mut().insert(top.add(HDR), need);
            return Ok(top.add(HDR));
        }
        // Grow the arena.
        let cur_len = end.diff(HEAP_BASE);
        if cur_len >= HEAP_MAX {
            p.set_errno(errno::ENOMEM);
            return Ok(VirtAddr::NULL);
        }
        let step = GROW_STEP.min(HEAP_MAX - cur_len).max(need + MIN_CHUNK - top_size);
        if cur_len + step > HEAP_MAX || p.mem.grow(HEAP_BASE, step).is_err() {
            p.set_errno(errno::ENOMEM);
            return Ok(VirtAddr::NULL);
        }
        write_size(p, top, top_size + step, top_flags)?;
    }
}

/// `free(ptr)`: boundary-tag coalescing with the classic unlink. A null
/// pointer is ignored (per the standard); everything else is trusted —
/// wild pointers fault, corrupted neighbours redirect the unlink write.
///
/// # Errors
///
/// Propagates memory faults.
pub fn free(p: &mut Proc, ptr: VirtAddr) -> Result<(), Fault> {
    if ptr.is_null() {
        return Ok(());
    }
    p.live_chunks_mut().remove(ptr);
    let mut chunk = ptr.sub(HDR);
    let (mut size, flags) = read_size(p, chunk)?;

    // Backward coalesce.
    if flags & PREV_INUSE == 0 {
        let prev_size = p.read_u64(chunk)?;
        let prev = chunk.sub(prev_size);
        unlink(p, prev.add(HDR))?;
        chunk = prev;
        size += prev_size;
    }

    // Forward coalesce / merge into top.
    let top = p.read_ptr(HEAP_TOP)?;
    let next = chunk.add(size);
    if next == top {
        // Merge into the wilderness. Free chunks never neighbour free
        // chunks, so the chunk before the new top is in use.
        let (top_size, _) = read_size(p, top)?;
        p.write_u64(HEAP_TOP, chunk.get())?;
        write_size(p, chunk, size + top_size, PREV_INUSE)?;
        return Ok(());
    }

    // A chunk is free iff the chunk after it has PREV_INUSE clear. With a
    // corrupted `next` header this read lands wherever the attacker aimed
    // it — faulting or misleading us, exactly like the real macro.
    let next_inuse = {
        let (next_size, _) = read_size(p, next)?;
        let nextnext = next.add(next_size);
        let (_, nnflags) = read_size(p, nextnext)?;
        nnflags & PREV_INUSE != 0
    };
    if !next_inuse {
        // *** The attack surface: next's fd/bk may be attacker data. ***
        let (next_size, _) = read_size(p, next)?;
        unlink(p, next.add(HDR))?;
        size += next_size;
    }

    // Free chunks never neighbour free chunks, so whatever now precedes
    // the merged chunk is in use.
    write_size(p, chunk, size, PREV_INUSE)?;

    // Boundary tag + clear next's PREV_INUSE.
    let after = chunk.add(size);
    if after < heap_end(p) {
        p.write_u64(after, size)?;
        set_prev_inuse(p, after, false)?;
    }
    insert(p, chunk.add(HDR))
}

/// Usable payload bytes of an allocation (reads the chunk header).
pub fn usable_size(p: &mut Proc, ptr: VirtAddr) -> Result<u64, Fault> {
    let (size, _) = read_size(p, ptr.sub(HDR))?;
    Ok(size - HDR)
}

/// `calloc(nmemb, size)` with the overflow check real 2003 libcs lacked
/// — except we *do* check, because `calloc` overflow was fixed even then.
pub fn calloc(p: &mut Proc, nmemb: u64, size: u64) -> Result<VirtAddr, Fault> {
    let total = match nmemb.checked_mul(size) {
        Some(t) => t,
        None => {
            p.set_errno(errno::ENOMEM);
            return Ok(VirtAddr::NULL);
        }
    };
    let ptr = malloc(p, total)?;
    if !ptr.is_null() {
        // Zero in bounded chunks to stay fuel-accountable.
        let zeros = vec![0u8; total as usize];
        p.write_bytes(ptr, &zeros)?;
    }
    Ok(ptr)
}

/// `realloc(ptr, n)`.
pub fn realloc(p: &mut Proc, ptr: VirtAddr, n: u64) -> Result<VirtAddr, Fault> {
    if ptr.is_null() {
        return malloc(p, n);
    }
    if n == 0 {
        free(p, ptr)?;
        return Ok(VirtAddr::NULL);
    }
    let old_usable = usable_size(p, ptr)?;
    if old_usable >= n {
        return Ok(ptr);
    }
    let new_ptr = malloc(p, n)?;
    if new_ptr.is_null() {
        return Ok(VirtAddr::NULL);
    }
    let data = p.read_bytes(ptr, old_usable)?;
    p.write_bytes(new_ptr, &data)?;
    free(p, ptr)?;
    Ok(new_ptr)
}

/// Host-side heap inspection for tests and invariant checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Chunk base address.
    pub base: VirtAddr,
    /// Total chunk size.
    pub size: u64,
    /// Whether the *previous* chunk is in use.
    pub prev_inuse: bool,
    /// Whether this chunk is on the free list.
    pub free: bool,
    /// Whether this is the top (wilderness) chunk.
    pub is_top: bool,
}

/// Walks the heap chunk by chunk (host-side; does not consume fuel).
///
/// Every chunk the walk accepts lies inside the arena and spans at least
/// [`MIN_CHUNK`] bytes, and the arena never grows past [`HEAP_MAX`], so
/// it reads at most `HEAP_MAX / MIN_CHUNK` headers. A size word that
/// reaches past the arena end (a wrapping one included) stops it at that
/// header.
///
/// # Errors
///
/// Returns a descriptive error string if the chunk chain is corrupt.
pub fn walk(p: &Proc) -> Result<Vec<ChunkInfo>, String> {
    walk_and_free_list(p).map(|(chunks, _)| chunks)
}

/// [`walk`], also handing back the [`free_list`] entries, sorted.
fn walk_and_free_list(p: &Proc) -> Result<(Vec<ChunkInfo>, Vec<VirtAddr>), String> {
    let end = heap_end(p);
    let top =
        p.mem.read_ptr(HEAP_TOP).map_err(|e| format!("top pointer unreadable: {e}"))?;
    let mut free_set = free_list(p)?;
    free_set.sort_unstable();
    let mut out = Vec::new();
    let mut cur = HEAP_BASE;
    while cur < end {
        let word = p
            .mem
            .read_u64(cur.add(8))
            .map_err(|e| format!("header unreadable at {cur}: {e}"))?;
        let size = word & !15;
        if size < MIN_CHUNK || size % 16 != 0 {
            return Err(format!("bad chunk size {size:#x} at {cur}"));
        }
        if size > end.diff(cur) {
            return Err(format!(
                "chunks overrun arena end: chunk at {cur} of size {size:#x} passes {end}"
            ));
        }
        let payload = cur.add(HDR);
        out.push(ChunkInfo {
            base: cur,
            size,
            prev_inuse: word & PREV_INUSE != 0,
            free: free_set.binary_search(&payload).is_ok(),
            is_top: cur == top,
        });
        cur = cur.add(size);
    }
    Ok((out, free_set))
}

/// Collects free-list payload addresses (host-side).
///
/// # Errors
///
/// Returns an error string when the list is corrupt (cycles, bad links).
pub fn free_list(p: &Proc) -> Result<Vec<VirtAddr>, String> {
    let mut out = Vec::new();
    let mut cur = p
        .mem
        .read_ptr(FREELIST_HEAD)
        .map_err(|e| format!("free list head unreadable: {e}"))?;
    while cur != FREELIST_HEAD {
        if out.contains(&cur) {
            return Err(format!("free list cycle at {cur}"));
        }
        if out.len() > SCAN_CAP as usize {
            return Err("free list too long".into());
        }
        out.push(cur);
        cur = p
            .mem
            .read_ptr(cur)
            .map_err(|e| format!("free list link unreadable at {cur}: {e}"))?;
    }
    Ok(out)
}

/// Liveness check: is `ptr` the payload address of a live (allocated,
/// non-top) chunk? Answered from the allocator's live-chunk index plus
/// the O(1) header test of [`chunk_defect`]. On every heap that legal
/// traffic produces, this equals walking the heap with [`walk`] and
/// testing `payload == ptr && !free && !is_top`; DESIGN.md lists where
/// the two differ on a corrupted heap.
pub fn live_payload(p: &Proc, ptr: VirtAddr) -> bool {
    p.live_chunks().get(ptr).is_some_and(|size| chunk_defect(p, ptr, size).is_none())
}

/// The live allocation whose payload contains `addr`, as `(payload,
/// usable size)`: the index entry at or below `addr`, if its chunk
/// reaches past `addr` and its headers pass [`chunk_defect`]. `None` for
/// chunk headers, free chunks and the wilderness.
pub fn live_region(p: &Proc, addr: VirtAddr) -> Option<(VirtAddr, u64)> {
    let (payload, size) = p.live_chunks().at_or_below(addr)?;
    (addr < payload.sub(HDR).add(size) && chunk_defect(p, payload, size).is_none())
        .then_some((payload, size - HDR))
}

/// Why [`chunk_defect`] refused a live chunk: which header `free` would
/// have trusted is not what the allocator wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkDefect {
    /// A header the test reads is unmapped or unreadable.
    Unreadable,
    /// The size word differs from the size the chunk was allocated with,
    /// or the chunk reaches the arena end.
    SizeForged,
    /// The chunk is top, or borders top while top's size word does not
    /// reach exactly to the arena end.
    TopForged,
    /// The next chunk's `PREV_INUSE` says this chunk is free.
    NextSaysFree,
    /// `PREV_INUSE` is clear, so `free` would coalesce backward, but the
    /// chunk `prev_size` names is not a genuine free chunk: bad
    /// `prev_size`, a size word that disagrees with it, a live
    /// allocation, or links that fail safe-unlink.
    PrevForged,
    /// The chunk after next has `PREV_INUSE` clear, so `free` would
    /// coalesce forward, but next is not a genuine free chunk: a bad size
    /// word, a live allocation, or links that fail safe-unlink.
    NextForged,
    /// The first free-list node, before which `free` ends by inserting
    /// the chunk, is the chunk itself or does not link back to the list
    /// head.
    FreeListForged,
}

/// The O(1) consistency test behind every index answer, for the live
/// chunk with payload `payload` and allocated chunk size `size`. It reads
/// only the words `free(payload)` itself will read or write, and returns
/// `None` when that `free` would touch nothing but genuine metadata,
/// else the first [`ChunkDefect`] found, testing in turn the chunk's own
/// size word, top, the next chunk, the backward and forward neighbours
/// `free` would coalesce with (glibc's safe-unlink test, `FD->bk == P &&
/// BK->fd == P`), and the free-list head. Host-side: its reads burn no
/// fuel.
pub fn chunk_defect(p: &Proc, payload: VirtAddr, size: u64) -> Option<ChunkDefect> {
    header_test(p, payload.sub(HDR), size).err()
}

fn header_test(p: &Proc, chunk: VirtAddr, size: u64) -> Result<(), ChunkDefect> {
    use ChunkDefect::*;
    let h = Headers::new(p);
    let end = h.end();
    let own = h.word(chunk.add(8))?;
    let next = chunk.add(size);
    if own & !15 != size || next >= end {
        return Err(SizeForged);
    }
    let top = VirtAddr::new(h.word(HEAP_TOP)?);
    if chunk == top {
        return Err(TopForged);
    }
    let next_word = h.word(next.add(8))?;
    if next_word & PREV_INUSE == 0 {
        return Err(NextSaysFree);
    }
    if own & PREV_INUSE == 0 {
        // Backward coalesce: `free` trusts prev_size and unlinks there.
        let prev_size = h.word(chunk)?;
        let prev = chunk.sub(prev_size);
        if prev_size < MIN_CHUNK || prev_size % 16 != 0 || prev < HEAP_BASE || prev >= chunk
        {
            return Err(PrevForged);
        }
        if h.word(prev.add(8))? & !15 != prev_size || !h.unlinkable(prev.add(HDR))? {
            return Err(PrevForged);
        }
    }
    if next == top {
        // `free` merges into the wilderness, trusting top's size.
        if next_word & !15 != end.diff(top) {
            return Err(TopForged);
        }
    } else {
        // Forward coalesce: `free` unlinks next when the chunk after it
        // has PREV_INUSE clear.
        let next_size = next_word & !15;
        if next_size < MIN_CHUNK || next.add(next_size) >= end {
            return Err(NextForged);
        }
        let after = h.word(next.add(next_size).add(8))?;
        if after & PREV_INUSE == 0 && !h.unlinkable(next.add(HDR))? {
            return Err(NextForged);
        }
    }
    let first = VirtAddr::new(h.word(FREELIST_HEAD)?);
    if first == chunk.add(HDR) || h.word(first.add(8))? != FREELIST_HEAD.get() {
        return Err(FreeListForged);
    }
    Ok(())
}

/// The words the header test reads, through borrowed views of the arena
/// and of the allocator's private words (top, free-list head): each read
/// costs a bounds check instead of a region lookup. Reads ignore
/// protections, as every host-side heap inspection does; anything
/// unmapped is [`ChunkDefect::Unreadable`].
struct Headers<'a> {
    p: &'a Proc,
    arena: &'a [u8],
    private: &'a [u8],
}

impl<'a> Headers<'a> {
    fn new(p: &'a Proc) -> Self {
        let view = |base: VirtAddr| p.mem.peek_slice(base).unwrap_or_default();
        Headers { p, arena: view(HEAP_BASE), private: view(FREELIST_HEAD) }
    }

    fn end(&self) -> VirtAddr {
        HEAP_BASE.add(self.arena.len() as u64)
    }

    fn word(&self, addr: VirtAddr) -> Result<u64, ChunkDefect> {
        let within = |view: &[u8], base: VirtAddr| {
            let off = addr.get().wrapping_sub(base.get()) as usize;
            view.get(off..off.wrapping_add(8))
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        };
        within(self.arena, HEAP_BASE)
            .or_else(|| within(self.private, FREELIST_HEAD))
            .or_else(|| self.p.mem.peek_u64(addr))
            .ok_or(ChunkDefect::Unreadable)
    }

    /// Whether `unlink(payload)` would only rewrite genuine free-list
    /// links: the chunk is not a live allocation and its neighbours on
    /// the list point back at it (glibc's safe-unlink test).
    fn unlinkable(&self, payload: VirtAddr) -> Result<bool, ChunkDefect> {
        if self.p.live_chunks().get(payload).is_some() {
            return Ok(false);
        }
        let (fd, bk) = (self.word(payload)?, self.word(payload.add(8))?);
        Ok(self.word(VirtAddr::new(fd).add(8))? == payload.get()
            && self.word(VirtAddr::new(bk))? == payload.get())
    }
}

/// Checks all allocator invariants; returns a description of the first
/// violation.
///
/// # Errors
///
/// See above.
pub fn check_invariants(p: &Proc) -> Result<(), String> {
    let (chunks, free_addrs) = walk_and_free_list(p)?;
    let Some(last) = chunks.last() else {
        return Err("empty heap".into());
    };
    if !last.is_top {
        return Err("last chunk is not top".into());
    }
    // No two adjacent free chunks; prev_inuse bits consistent.
    for w in chunks.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if a.free && b.free {
            return Err(format!("adjacent free chunks at {} and {}", a.base, b.base));
        }
        if a.free == b.prev_inuse && !b.is_top {
            return Err(format!(
                "prev_inuse of {} ({}) inconsistent with freeness of {} ({})",
                b.base, b.prev_inuse, a.base, a.free
            ));
        }
        if a.free {
            // Boundary tag: next.prev_size == a.size
            let tag = p
                .mem
                .read_u64(b.base)
                .map_err(|e| format!("boundary tag unreadable: {e}"))?;
            if tag != a.size {
                return Err(format!(
                    "boundary tag mismatch at {}: {} != {}",
                    b.base, tag, a.size
                ));
            }
        }
    }
    // Every free-list entry is a walked free chunk. The walk visits
    // chunks in address order, so their payloads are sorted.
    for f in &free_addrs {
        let found = chunks.binary_search_by_key(f, |c| c.base.add(HDR));
        if !found.is_ok_and(|i| chunks[i].free) {
            return Err(format!("free list entry {f} is not a free chunk"));
        }
    }
    Ok(())
}

/// An allocation-aware extent oracle: inside the heap arena, a pointer's
/// writable/readable extent ends at its *chunk* boundary (writing past it
/// corrupts allocator metadata — what the security wrapper must prevent);
/// free chunks, the wilderness and chunk headers are not legal targets at
/// all. Outside the heap it defers to [`simproc::RegionOracle`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapOracle;

impl HeapOracle {
    /// Creates the oracle.
    pub fn new() -> Self {
        HeapOracle
    }

    /// The extent from `addr` to the end of its live chunk's payload, or
    /// `None` if `addr` is outside the heap (defer to region extents).
    /// Inside the heap only a live chunk's payload is a legal target:
    /// chunk headers, free chunks, the wilderness and chunks whose
    /// headers fail the consistency test all answer `Some(None)`.
    fn chunk_extent(&self, proc: &Proc, addr: VirtAddr) -> Option<Option<u64>> {
        if !in_heap(proc, addr) {
            return None; // not our jurisdiction
        }
        Some(live_region(proc, addr).map(|(payload, len)| payload.add(len).diff(addr)))
    }
}

impl simproc::ExtentOracle for HeapOracle {
    fn writable_extent(&self, proc: &Proc, addr: VirtAddr) -> Option<u64> {
        match self.chunk_extent(proc, addr) {
            Some(ext) => ext,
            None => simproc::RegionOracle::new().writable_extent(proc, addr),
        }
    }

    fn readable_extent(&self, proc: &Proc, addr: VirtAddr) -> Option<u64> {
        match self.chunk_extent(proc, addr) {
            Some(ext) => ext,
            None => simproc::RegionOracle::new().readable_extent(proc, addr),
        }
    }
}

/// Convenience: `malloc` as a [`CVal`] host function result.
pub fn malloc_val(p: &mut Proc, n: u64) -> Result<CVal, Fault> {
    Ok(CVal::Ptr(malloc(p, n)?))
}

/// Whether `ptr` lies inside the heap arena.
pub fn in_heap(p: &Proc, ptr: VirtAddr) -> bool {
    ptr >= HEAP_BASE && ptr < heap_end(p)
}

/// Whether `addr` is readable heap payload right now (host-side helper).
pub fn heap_readable(p: &Proc, addr: VirtAddr, len: u64) -> bool {
    in_heap(p, addr) && p.mem.check(addr, len, Access::Read).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc_with_heap() -> Proc {
        let mut p = Proc::new();
        init_heap(&mut p).unwrap();
        p
    }

    #[test]
    fn absurd_request_sizes_are_rejected_without_overflow() {
        let mut p = proc_with_heap();
        for n in [u64::MAX, u64::MAX - 15, u64::MAX - 16, HEAP_MAX, HEAP_MAX + 1] {
            let ptr = malloc(&mut p, n).unwrap();
            assert!(ptr.is_null(), "malloc({n:#x})");
            assert_eq!(p.errno(), errno::ENOMEM);
        }
        assert_eq!(chunk_size_for(u64::MAX), !15u64);
        check_invariants(&p).unwrap();
    }

    #[test]
    fn malloc_returns_aligned_distinct_payloads() {
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 24).unwrap();
        let b = malloc(&mut p, 100).unwrap();
        assert!(!a.is_null() && !b.is_null());
        assert!(a.is_aligned(16));
        assert!(b.is_aligned(16));
        assert!(b.diff(a) >= chunk_size_for(24));
        check_invariants(&p).unwrap();
    }

    #[test]
    fn free_and_reuse() {
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 64).unwrap();
        let _b = malloc(&mut p, 64).unwrap(); // pin: prevents top-merge
        free(&mut p, a).unwrap();
        check_invariants(&p).unwrap();
        let c = malloc(&mut p, 48).unwrap();
        assert_eq!(c, a, "freed chunk is reused first-fit");
        check_invariants(&p).unwrap();
    }

    #[test]
    fn free_null_is_noop() {
        let mut p = proc_with_heap();
        free(&mut p, VirtAddr::NULL).unwrap();
        check_invariants(&p).unwrap();
    }

    #[test]
    fn forward_coalesce() {
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 32).unwrap();
        let b = malloc(&mut p, 32).unwrap();
        let _pin = malloc(&mut p, 32).unwrap();
        free(&mut p, b).unwrap();
        free(&mut p, a).unwrap(); // a coalesces forward with b
        check_invariants(&p).unwrap();
        let merged = malloc(&mut p, 80).unwrap(); // only fits if merged
        assert_eq!(merged, a);
    }

    #[test]
    fn backward_coalesce() {
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 32).unwrap();
        let b = malloc(&mut p, 32).unwrap();
        let _pin = malloc(&mut p, 32).unwrap();
        free(&mut p, a).unwrap();
        free(&mut p, b).unwrap(); // b coalesces backward into a
        check_invariants(&p).unwrap();
        let merged = malloc(&mut p, 80).unwrap();
        assert_eq!(merged, a);
    }

    /// The campaign's `memset(p, 255, 65535)` cases leave size words of
    /// all ones, which wrap the walk back into the arena. It must stop at
    /// the first such header instead of walking on.
    #[test]
    fn walk_stops_at_a_size_word_past_the_arena_end() {
        let mut p = proc_with_heap();
        p.mem.write_u64(HEAP_BASE.add(8), u64::MAX).unwrap();
        let err = check_invariants(&p).unwrap_err();
        assert!(
            err.starts_with(&format!("chunks overrun arena end: chunk at {HEAP_BASE} "))
        );

        let mut p = proc_with_heap();
        let a = malloc(&mut p, 16).unwrap();
        p.mem.fill(a, 0x1000, 0xff).unwrap();
        let next = a.add(chunk_size_for(16) - HDR);
        let err = walk(&p).unwrap_err();
        assert!(err.starts_with(&format!("chunks overrun arena end: chunk at {next} ")));
    }

    #[test]
    fn top_merge_keeps_single_top() {
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 64).unwrap();
        free(&mut p, a).unwrap();
        let chunks = walk(&p).unwrap();
        assert_eq!(chunks.len(), 1, "{chunks:?}");
        assert!(chunks[0].is_top);
    }

    #[test]
    fn usable_size_at_least_request() {
        let mut p = proc_with_heap();
        for n in [1u64, 15, 16, 17, 100, 4096] {
            let ptr = malloc(&mut p, n).unwrap();
            assert!(usable_size(&mut p, ptr).unwrap() >= n);
        }
    }

    #[test]
    fn calloc_zeroes() {
        let mut p = proc_with_heap();
        // Dirty a chunk, free it, calloc it back.
        let a = malloc(&mut p, 64).unwrap();
        let _pin = malloc(&mut p, 16).unwrap();
        p.write_bytes(a, &[0xAA; 64]).unwrap();
        free(&mut p, a).unwrap();
        let b = calloc(&mut p, 16, 4).unwrap();
        assert_eq!(b, a);
        assert_eq!(p.read_bytes(b, 64).unwrap(), vec![0u8; 64]);
    }

    #[test]
    fn calloc_overflow_returns_null() {
        let mut p = proc_with_heap();
        let ptr = calloc(&mut p, u64::MAX / 2, 4).unwrap();
        assert!(ptr.is_null());
        assert_eq!(p.errno(), errno::ENOMEM);
    }

    #[test]
    fn realloc_preserves_data() {
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 16).unwrap();
        p.write_bytes(a, b"0123456789abcdef").unwrap();
        let b = realloc(&mut p, a, 4096).unwrap();
        assert_eq!(p.read_bytes(b, 16).unwrap(), b"0123456789abcdef");
        check_invariants(&p).unwrap();
    }

    #[test]
    fn realloc_shrink_keeps_pointer() {
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 100).unwrap();
        let b = realloc(&mut p, a, 10).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn realloc_null_is_malloc_and_zero_is_free() {
        let mut p = proc_with_heap();
        let a = realloc(&mut p, VirtAddr::NULL, 32).unwrap();
        assert!(!a.is_null());
        let z = realloc(&mut p, a, 0).unwrap();
        assert!(z.is_null());
        check_invariants(&p).unwrap();
    }

    #[test]
    fn heap_grows_and_exhausts() {
        let mut p = proc_with_heap();
        // Allocate beyond the initial arena — must grow.
        let big = malloc(&mut p, simproc::layout::HEAP_INITIAL).unwrap();
        assert!(!big.is_null());
        check_invariants(&p).unwrap();
        // Exhaust the whole arena.
        let too_big = malloc(&mut p, HEAP_MAX).unwrap();
        assert!(too_big.is_null());
        assert_eq!(p.errno(), errno::ENOMEM);
    }

    #[test]
    fn many_allocations_stay_consistent() {
        let mut p = proc_with_heap();
        let mut live = Vec::new();
        for i in 0..200u64 {
            let ptr = malloc(&mut p, (i * 7) % 256 + 1).unwrap();
            assert!(!ptr.is_null());
            live.push(ptr);
            if i % 3 == 0 {
                let victim = live.remove((i as usize * 5) % live.len());
                free(&mut p, victim).unwrap();
            }
        }
        check_invariants(&p).unwrap();
        for ptr in live {
            free(&mut p, ptr).unwrap();
        }
        check_invariants(&p).unwrap();
    }

    #[test]
    fn live_chunk_index_follows_the_allocator() {
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 40).unwrap();
        let b = calloc(&mut p, 3, 8).unwrap();
        assert_eq!(p.live_chunks().get(a), Some(chunk_size_for(40)));
        assert_eq!(p.live_chunks().get(b), Some(chunk_size_for(24)));
        let c = realloc(&mut p, a, 400).unwrap();
        assert_eq!(p.live_chunks().get(a), None);
        assert_eq!(p.live_chunks().get(c), Some(chunk_size_for(400)));
        assert!(live_payload(&p, b) && live_payload(&p, c) && !live_payload(&p, a));
        free(&mut p, b).unwrap();
        assert_eq!(
            p.live_chunks().iter().collect::<Vec<_>>(),
            vec![(c, chunk_size_for(400))]
        );
        init_heap(&mut p).unwrap();
        assert_eq!(p.live_chunks().iter().count(), 0);
    }

    #[test]
    fn heap_oracle_bounds_extents_to_chunks() {
        use simproc::ExtentOracle;
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 40).unwrap();
        let b = malloc(&mut p, 40).unwrap();
        let _pin = malloc(&mut p, 16).unwrap();
        let o = HeapOracle::new();
        let ext = o.writable_extent(&p, a).unwrap();
        assert_eq!(ext, usable_size(&mut p, a).unwrap());
        // Interior pointer.
        let ext8 = o.writable_extent(&p, a.add(8)).unwrap();
        assert_eq!(ext8, ext - 8);
        // Chunk header is off limits.
        assert_eq!(o.writable_extent(&p, a.sub(8)), None);
        // Freed chunk is off limits.
        free(&mut p, b).unwrap();
        assert_eq!(o.writable_extent(&p, b), None);
        // The wilderness is off limits.
        let top = p.mem.read_ptr(crate::state::HEAP_TOP).unwrap();
        assert_eq!(o.writable_extent(&p, top.add(HDR)), None);
        // Outside the heap it behaves like the region oracle.
        let d = p.alloc_data_zeroed(16);
        assert!(o.writable_extent(&p, d).unwrap() >= 16);
        assert_eq!(o.readable_extent(&p, simproc::layout::WILD_ADDR), None);
        assert_eq!(o.readable_extent(&p, a).unwrap(), ext);
    }

    #[test]
    fn free_wild_pointer_faults() {
        let mut p = proc_with_heap();
        let err = free(&mut p, simproc::layout::WILD_ADDR).unwrap_err();
        assert!(matches!(err, Fault::Segv { .. }));
    }

    #[test]
    fn overflow_corrupts_unlink_into_arbitrary_write() {
        // The §3.4 attack in miniature: A allocated next to free B;
        // overflowing A rewrites B's fd/bk; free(A) forward-coalesces and
        // unlink(B) writes attacker-chosen data to an attacker-chosen
        // address.
        let mut p = proc_with_heap();
        let a = malloc(&mut p, 32).unwrap();
        let b = malloc(&mut p, 32).unwrap();
        let _pin = malloc(&mut p, 32).unwrap();
        free(&mut p, b).unwrap(); // B now free, adjacent after A

        let target = p.alloc_data_zeroed(16); // pretend GOT/atexit slot
        let payload_buf = p.alloc_data_zeroed(32); // attacker's "shellcode" home

        // Overflow A by 32 bytes: clobbers B's header (prev_size, size)
        // then B's fd/bk. Keep B's size word intact so free() still
        // coalesces; point fd at (target - 8) and bk at the payload
        // buffer (unlink also writes *bk = fd, so bk must be writable —
        // which is why real exploits jump over the clobbered bytes).
        let b_chunk = b.sub(HDR);
        let (b_size, b_flags) = read_size(&mut p, b_chunk).unwrap();
        let mut payload = Vec::new();
        payload.extend_from_slice(&[0x41; 32]); // A's legitimate 32 bytes
        payload.extend_from_slice(&0u64.to_le_bytes()); // B.prev_size
        payload.extend_from_slice(&(b_size | b_flags).to_le_bytes()); // B.size
        payload.extend_from_slice(&(target.get() - 8).to_le_bytes()); // B.fd
        payload.extend_from_slice(&payload_buf.get().to_le_bytes()); // B.bk
        p.write_bytes(a, &payload).unwrap(); // the overflowing strcpy

        // free(A): coalesce forward with "free" B -> unlink writes
        // *(fd+8) = bk  ==> *target = payload_buf.
        let result = free(&mut p, a);
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(p.mem.read_u64(target).unwrap(), payload_buf.get());
        // ... and *bk = fd clobbered the payload's first word.
        assert_eq!(p.mem.read_u64(payload_buf).unwrap(), target.get() - 8);
    }

    #[test]
    fn forged_top_size_aborts_malloc() {
        // An overflow out of the last chunk reaches the top chunk's
        // header (the house-of-force shape). Growing or shrinking its
        // size must abort the next wilderness allocation, not carve
        // memory past the arena.
        for forge in [|s: u64| s + 0x1000, |s: u64| s - 0x40, |_| !15] {
            let mut p = proc_with_heap();
            let a = malloc(&mut p, 32).unwrap();
            let top = p.read_ptr(HEAP_TOP).unwrap();
            assert_eq!(top, a.sub(HDR).add(chunk_size_for(32)), "a is the last chunk");
            let (size, flags) = read_size(&mut p, top).unwrap();
            write_size(&mut p, top, forge(size), flags).unwrap();
            let err = malloc(&mut p, 64).unwrap_err();
            assert_eq!(err, Fault::abort("malloc(): corrupted top size"));
        }
    }
}
