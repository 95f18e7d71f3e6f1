//! The simulated, protection-checked address space.
//!
//! Memory is a sorted set of disjoint [`Region`]s, each with its own
//! protection bits. Every access is checked; a bad access produces a
//! [`Fault::Segv`] value instead of killing the host — which is exactly
//! what lets the fault injector observe library crashes safely.
//!
//! # Performance model
//!
//! Region lookup is a binary search over the sorted region list with a
//! one-entry last-hit (MRU) cache in front of it. Repeated lookups inside
//! one region hit the cache and cost O(1); lookups that alternate between
//! two regions, as a byte-at-a-time copy from one region into another
//! does, miss it every time and pay the binary search. The MRU cache is
//! invalidated whenever the region list mutates (`map`/`unmap`/`protect`);
//! a stale hit is additionally re-validated with `Region::contains`, so
//! correctness never depends on invalidation.
//!
//! Bulk work therefore goes by runs, not bytes: [`AddressSpace::run_at`]
//! and [`AddressSpace::run_before`] hand out the accessible bytes up to a
//! region's edge in one lookup, and [`AddressSpace::fill`] and
//! [`AddressSpace::copy_within`] write a whole run with one dirty-chunk
//! update and one epoch bump. `Proc`'s fuel-metered run primitives
//! (`fill`, `copy_forward`, `copy_cstr`, `copy_backward`, `scan`), on
//! which simlibc's string and memory functions are built, pay a few
//! lookups per run instead of one or two per byte.
//!
//! Region backing stores are recycled through a thread-local buffer pool.
//! Each buffer is split into at most 128 equal chunks (a power of two, at
//! least 256 bytes: 8 KiB for a 1 MiB segment), and a two-word bitmap
//! records which chunks were written. On unmap (or process teardown) only
//! the marked chunks are re-zeroed before the buffer returns to the pool,
//! so a fault-injection campaign that builds a fresh multi-megabyte
//! process image per test case pays for the chunks it touched, not for the
//! mapped size. A single written span would not keep that promise: every
//! process writes the ctype table into the last 514 bytes of `rodata`, and
//! the first string literal a test case places lands at its first byte,
//! so the span between them is the whole segment. The bitmap marks two
//! chunks for that pair.
//!
//! The pool holds buffers only at the lengths `map` asked for. A buffer
//! that [`AddressSpace::grow`] extended past its mapped length is freed on
//! unmap instead of pooled: no later `map` asks for that length, and the
//! pool is small and keyed by exact length, so a few grown heaps would
//! otherwise fill it and leave every standard segment to a fresh zeroed
//! allocation.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::addr::{Access, Prot, VirtAddr};
use crate::fault::Fault;

/// Buffers below this size are cheap enough to allocate fresh; only larger
/// segment-sized buffers are worth pooling.
const POOL_MIN_LEN: usize = 4096;
/// Per-thread cap on retained pool buffers (bounds worst-case residency).
const POOL_MAX_BUFS: usize = 16;

thread_local! {
    /// Recycled all-zero region buffers, keyed by exact length.
    static BUF_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Words in [`PoolBuf::dirty`]; each bit marks one chunk of the buffer.
const DIRTY_WORDS: usize = 2;
/// Chunks per buffer.
const CHUNKS: usize = DIRTY_WORDS * 64;
/// The smallest chunk, as a shift: buffers below 32 KiB get 256-byte
/// chunks and use fewer than [`CHUNKS`] of them.
const MIN_CHUNK_SHIFT: u32 = 8;

/// A region backing store: a zero-initialised byte buffer that marks the
/// chunks written, so it can be re-zeroed chunk by chunk and recycled
/// through the thread-local pool.
///
/// Invariant: every buffer in [`BUF_POOL`] is entirely zero.
#[derive(Clone)]
struct PoolBuf {
    buf: Vec<u8>,
    /// The length `map` asked for; the buffer is pooled only at it.
    mapped_len: usize,
    /// Bit `c` set: chunk `c` (bytes `c << chunk_shift` up to the next
    /// chunk) may hold a non-zero byte.
    dirty: [u64; DIRTY_WORDS],
    /// log2 of the chunk size, chosen in [`PoolBuf::zeroed`] so that
    /// [`CHUNKS`] chunks cover `mapped_len`.
    chunk_shift: u32,
}

impl PoolBuf {
    /// An all-zero buffer of `len` bytes, recycled from the pool if a
    /// matching one is available.
    fn zeroed(len: usize) -> Self {
        let pooled = if len >= POOL_MIN_LEN {
            BUF_POOL.with(|p| {
                let mut pool = p.borrow_mut();
                pool.iter().position(|b| b.len() == len).map(|i| pool.swap_remove(i))
            })
        } else {
            None
        };
        // Only a recycled buffer can hold stale bytes (a written chunk the
        // drop path missed); a fresh one is zero by construction.
        let buf = match pooled {
            Some(buf) => {
                debug_assert!(buf.iter().all(|&b| b == 0), "pooled buffer not zeroed");
                buf
            }
            None => vec![0; len],
        };
        let chunk_shift = len.div_ceil(CHUNKS).next_power_of_two().trailing_zeros();
        PoolBuf {
            buf,
            mapped_len: len,
            dirty: [0; DIRTY_WORDS],
            chunk_shift: chunk_shift.max(MIN_CHUNK_SHIFT),
        }
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable view of `off..off + n`, marking every chunk it overlaps.
    /// Bytes a grown buffer holds past `mapped_len` mark the last chunk:
    /// such a buffer is freed, never re-zeroed.
    fn slice_mut(&mut self, off: usize, n: usize) -> &mut [u8] {
        let first = (off >> self.chunk_shift).min(CHUNKS - 1);
        let last = ((off + n.max(1) - 1) >> self.chunk_shift).min(CHUNKS - 1);
        if first == last {
            self.mark(first);
        } else {
            self.mark_run(first, last);
        }
        &mut self.buf[off..off + n]
    }

    fn mark(&mut self, chunk: usize) {
        self.dirty[chunk / 64] |= 1 << (chunk % 64);
    }

    /// Marks chunks `first..=last`: a write that crosses a chunk boundary.
    #[cold]
    fn mark_run(&mut self, first: usize, last: usize) {
        for chunk in first..=last {
            self.mark(chunk);
        }
    }

    /// Copies `src..src + n` to `dst..dst + n` (the ranges may overlap),
    /// marking the destination's chunks.
    fn copy_within(&mut self, src: usize, dst: usize, n: usize) {
        self.slice_mut(dst, n);
        self.buf.copy_within(src..src + n, dst);
    }

    /// Grows the buffer to `new_len` with zero fill (appended bytes are
    /// clean by construction). A grown buffer is freed on drop, not
    /// pooled.
    fn resize_zeroed(&mut self, new_len: usize) {
        debug_assert!(new_len >= self.buf.len());
        self.buf.resize(new_len, 0);
    }

    /// The byte ranges of the marked chunks, in ascending order.
    fn dirty_chunks(&self) -> impl Iterator<Item = std::ops::Range<usize>> {
        let (shift, len) = (self.chunk_shift, self.buf.len());
        self.dirty.into_iter().enumerate().flat_map(move |(w, mut bits)| {
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let c = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(c << shift..((c + 1) << shift).min(len))
            })
        })
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if self.buf.len() < POOL_MIN_LEN || self.buf.len() != self.mapped_len {
            return;
        }
        for chunk in self.dirty_chunks() {
            self.buf[chunk].fill(0);
        }
        let buf = std::mem::take(&mut self.buf);
        BUF_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_MAX_BUFS {
                pool.push(buf);
            }
        });
    }
}

impl fmt::Debug for PoolBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolBuf").field("len", &self.buf.len()).finish()
    }
}

/// A contiguous mapped range of the simulated address space.
#[derive(Debug, Clone)]
pub struct Region {
    base: VirtAddr,
    data: PoolBuf,
    prot: Prot,
    name: String,
}

impl Region {
    /// Base address of the region.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// `true` if the region has zero length (never created by `map`).
    pub fn is_empty(&self) -> bool {
        self.data.len() == 0
    }

    /// One past the last byte.
    pub fn end(&self) -> VirtAddr {
        self.base.add(self.len())
    }

    /// Protection bits.
    pub fn prot(&self) -> Prot {
        self.prot
    }

    /// Diagnostic name (e.g. `"heap"`, `"[stack]"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Error returned by [`AddressSpace::map`] when a mapping is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The requested range overlaps an existing region.
    Overlap {
        /// Name of the existing region that conflicts.
        existing: String,
    },
    /// Zero-length mappings are rejected.
    ZeroLength,
    /// The range wraps around the end of the address space.
    Wraps,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Overlap { existing } => {
                write!(f, "mapping overlaps existing region `{existing}`")
            }
            MapError::ZeroLength => write!(f, "zero-length mapping"),
            MapError::Wraps => write!(f, "mapping wraps around the address space"),
        }
    }
}

impl std::error::Error for MapError {}

/// A sparse simulated address space.
///
/// ```
/// use simproc::{AddressSpace, Prot, VirtAddr};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = AddressSpace::new();
/// mem.map(VirtAddr::new(0x1000), 0x100, Prot::RW, "data")?;
/// mem.write_u32(VirtAddr::new(0x1010), 0xdeadbeef)?;
/// assert_eq!(mem.read_u32(VirtAddr::new(0x1010))?, 0xdeadbeef);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// Regions sorted by base address; disjoint.
    regions: Vec<Region>,
    /// Index + 1 of the last region a lookup resolved to (0 = none).
    /// Purely a cache: a hit is re-validated with `Region::contains`, and
    /// the slot is cleared whenever the region list mutates.
    ///
    /// # Ordering audit
    ///
    /// All loads and stores are `Relaxed`, and that is sound: the hint is
    /// only ever *advisory*. A reader that observes an arbitrarily stale
    /// index re-validates it against the current `regions` vec with
    /// `Region::contains` before trusting it, and `regions` itself is only
    /// reachable through a `&`/`&mut` borrow, so the usual aliasing rules —
    /// not the atomic — synchronize the data the hint points into. The
    /// invalidating stores in `map`/`unmap`/`protect` run under `&mut self`
    /// (no concurrent readers can exist) and are kept only so the *next*
    /// borrow starts from a clean slot. The cross-thread publication signal
    /// for cached pointer verdicts is the epoch below, never the MRU.
    mru: AtomicUsize,
    /// Monotonically increasing validation epoch. Bumped by every mutation
    /// that can change the answer of a pointer-validity query — mapping
    /// changes (`map`/`unmap`/`protect`/`grow`) *and* content writes
    /// (heap chunk headers, canary words and C-string terminators all live
    /// in region data). Wrapper-level memoized validations are tagged with
    /// the epoch they were computed under and expire the moment it moves.
    ///
    /// Shared (via [`AddressSpace::epoch_handle`]) so observers on other
    /// threads see bumps: every bump is a `Release` store paired with
    /// `Acquire` loads in [`AddressSpace::epoch`] / [`EpochHandle::get`],
    /// so a reader that still observes epoch `E` is guaranteed the
    /// mutation tagged `E + 1` has not been published to it — a memoized
    /// verdict can at worst be *re-checked* needlessly, never wrongly
    /// trusted across an unmap.
    epoch: Arc<AtomicU64>,
}

/// A cloneable, lock-free view of an address space's validation epoch,
/// readable from any thread — including while the owning thread holds
/// `&mut AddressSpace` and is mutating it. Obtained from
/// [`AddressSpace::epoch_handle`].
#[derive(Debug, Clone)]
pub struct EpochHandle(Arc<AtomicU64>);

impl EpochHandle {
    /// The current epoch (`Acquire`: pairs with the `Release` bump, so any
    /// mutation whose bump is visible here happened-before this load).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

impl Clone for AddressSpace {
    fn clone(&self) -> Self {
        AddressSpace {
            regions: self.regions.clone(),
            mru: AtomicUsize::new(self.mru.load(Ordering::Relaxed)),
            // A clone is an independent space: snapshot the value into a
            // fresh counter instead of sharing the allocation, so bumps in
            // one never expire (or revive) verdicts cached against the
            // other. Campaign determinism depends on this.
            epoch: Arc::new(AtomicU64::new(self.epoch.load(Ordering::Acquire))),
        }
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            regions: Vec::new(),
            mru: AtomicUsize::new(0),
            epoch: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The current validation epoch. Any cached judgement about this
    /// address space is valid only while the epoch it was computed under
    /// still matches.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A shareable handle for reading the epoch from other threads while
    /// this space is being mutated elsewhere.
    pub fn epoch_handle(&self) -> EpochHandle {
        EpochHandle(Arc::clone(&self.epoch))
    }

    /// Advances the validation epoch, expiring every memoized validation.
    /// Called internally on any mutation; public so owners tracking state
    /// *outside* the address space (stack-pointer moves, frame pops) can
    /// expire caches too.
    ///
    /// `Release`: pairs with the `Acquire` loads in [`Self::epoch`] and
    /// [`EpochHandle::get`] so everything written before the bump is
    /// visible to a reader that observes the new value.
    pub fn bump_epoch(&mut self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Maps `len` zeroed bytes at `base` with protection `prot`.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the range is empty, wraps, or overlaps an
    /// existing region.
    pub fn map(
        &mut self,
        base: VirtAddr,
        len: u64,
        prot: Prot,
        name: impl Into<String>,
    ) -> Result<(), MapError> {
        if len == 0 {
            return Err(MapError::ZeroLength);
        }
        if base.get().checked_add(len).is_none() {
            return Err(MapError::Wraps);
        }
        let end = base.add(len);
        let idx = self.regions.partition_point(|r| r.base() < base);
        // Only the neighbours can overlap: the last region starting below
        // `base` (may extend past it) and the first starting at or above it.
        if idx > 0 && self.regions[idx - 1].end() > base {
            return Err(MapError::Overlap { existing: self.regions[idx - 1].name.clone() });
        }
        if let Some(r) = self.regions.get(idx) {
            if r.base() < end {
                return Err(MapError::Overlap { existing: r.name.clone() });
            }
        }
        let region =
            Region { base, data: PoolBuf::zeroed(len as usize), prot, name: name.into() };
        self.regions.insert(idx, region);
        self.mru.store(0, Ordering::Relaxed);
        self.bump_epoch();
        Ok(())
    }

    /// Removes the region based exactly at `base`. Returns `true` if one
    /// was removed.
    pub fn unmap(&mut self, base: VirtAddr) -> bool {
        let i = self.regions.partition_point(|r| r.base() < base);
        if self.regions.get(i).is_some_and(|r| r.base() == base) {
            self.regions.remove(i);
            self.mru.store(0, Ordering::Relaxed);
            self.bump_epoch();
            true
        } else {
            false
        }
    }

    /// Changes the protection of the region containing `addr`.
    /// Returns `false` if no region contains it.
    pub fn protect(&mut self, addr: VirtAddr, prot: Prot) -> bool {
        match self.region_index(addr) {
            Some(i) => {
                self.regions[i].prot = prot;
                self.mru.store(0, Ordering::Relaxed);
                self.bump_epoch();
                true
            }
            None => false,
        }
    }

    /// Grows the region based at `base` by `extra` bytes (zero filled),
    /// failing if the grown region would collide with the next mapping.
    pub fn grow(&mut self, base: VirtAddr, extra: u64) -> Result<(), MapError> {
        if extra == 0 {
            return Ok(());
        }
        let i = self.regions.partition_point(|r| r.base() < base);
        if self.regions.get(i).is_none_or(|r| r.base() != base) {
            return Err(MapError::Overlap { existing: "<none>".into() });
        }
        let new_end =
            self.regions[i].end().get().checked_add(extra).ok_or(MapError::Wraps)?;
        if let Some(next) = self.regions.get(i + 1) {
            if new_end > next.base().get() {
                return Err(MapError::Overlap { existing: next.name.clone() });
            }
        }
        let new_len = self.regions[i].data.len() + extra as usize;
        self.regions[i].data.resize_zeroed(new_len);
        self.bump_epoch();
        Ok(())
    }

    /// All regions, sorted by base address.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region containing `addr`, if any.
    pub fn region_at(&self, addr: VirtAddr) -> Option<&Region> {
        self.region_index(addr).map(|i| &self.regions[i])
    }

    fn region_index(&self, addr: VirtAddr) -> Option<usize> {
        // Fast path: the last region any lookup hit. Stale values are
        // harmless — regions are disjoint, so a `contains` hit is always
        // the unique answer.
        let hint = self.mru.load(Ordering::Relaxed);
        if hint != 0 {
            if let Some(r) = self.regions.get(hint - 1) {
                if r.contains(addr) {
                    return Some(hint - 1);
                }
            }
        }
        // Last region whose base is <= addr.
        let i = self.regions.partition_point(|r| r.base() <= addr);
        if i == 0 {
            return None;
        }
        let r = &self.regions[i - 1];
        if r.contains(addr) {
            self.mru.store(i, Ordering::Relaxed);
            Some(i - 1)
        } else {
            None
        }
    }

    /// The index of the region after `i` only if it starts exactly at
    /// `cur` (i.e. the mapping is contiguous across the boundary).
    fn next_contiguous(&self, i: usize, cur: VirtAddr) -> Option<usize> {
        match self.regions.get(i + 1) {
            Some(n) if n.base() == cur => Some(i + 1),
            _ => None,
        }
    }

    /// Checks that `[addr, addr+len)` is mapped with permission for
    /// `access`, without touching the data.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Segv`] at the first offending byte.
    pub fn check(&self, addr: VirtAddr, len: u64, access: Access) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        let mut idx = self.region_index(addr);
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let i = match idx {
                Some(i) if self.regions[i].prot().allows(access) => i,
                _ => return Err(Fault::segv(cur, access, "memory access")),
            };
            let span = self.regions[i].end().diff(cur).min(remaining);
            cur = cur.add(span);
            remaining -= span;
            if remaining > 0 {
                idx = self.next_contiguous(i, cur);
            }
        }
        Ok(())
    }

    /// Number of bytes accessible for `access` starting at `addr`, walking
    /// across contiguous regions. Zero if `addr` itself is inaccessible.
    ///
    /// This powers the *extent oracle* used by security wrappers to bound
    /// string copies.
    pub fn accessible_extent(&self, addr: VirtAddr, access: Access) -> u64 {
        let mut idx = self.region_index(addr);
        let mut cur = addr;
        let mut total = 0u64;
        while let Some(i) = idx {
            let r = &self.regions[i];
            if !r.prot().allows(access) {
                break;
            }
            let span = r.end().diff(cur);
            total += span;
            cur = cur.add(span);
            idx = self.next_contiguous(i, cur);
        }
        total
    }

    /// Reads `len` bytes at `addr` into `out` (which must be exactly `len`
    /// long) without allocating.
    ///
    /// # Errors
    ///
    /// [`Fault::Segv`] if any byte is unreadable; `out` may be partially
    /// overwritten in that case but nothing else is affected.
    pub fn read_into(&self, addr: VirtAddr, out: &mut [u8]) -> Result<(), Fault> {
        self.check(addr, out.len() as u64, Access::Read)?;
        self.copy_out(addr, out);
        Ok(())
    }

    /// Copies `out.len()` bytes starting at `addr` into `out`. The range
    /// must already be known mapped.
    fn copy_out(&self, addr: VirtAddr, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        let mut i = self.region_index(addr).expect("checked");
        let mut cur = addr;
        let mut dst = out;
        while !dst.is_empty() {
            let r = &self.regions[i];
            let off = cur.diff(r.base()) as usize;
            let span = (r.data.len() - off).min(dst.len());
            dst[..span].copy_from_slice(&r.data.as_slice()[off..off + span]);
            cur = cur.add(span as u64);
            dst = &mut dst[span..];
            if !dst.is_empty() {
                i = self.next_contiguous(i, cur).expect("checked");
            }
        }
    }

    /// Copies `src` to `addr`. The range must already be known mapped.
    fn copy_in(&mut self, addr: VirtAddr, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        self.bump_epoch();
        let mut i = self.region_index(addr).expect("checked");
        let mut cur = addr;
        let mut src = src;
        while !src.is_empty() {
            let r = &mut self.regions[i];
            let off = cur.diff(r.base()) as usize;
            let span = (r.data.len() - off).min(src.len());
            r.data.slice_mut(off, span).copy_from_slice(&src[..span]);
            cur = cur.add(span as u64);
            src = &src[span..];
            if !src.is_empty() {
                i = self.next_contiguous(i, cur).expect("checked");
            }
        }
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// [`Fault::Segv`] if any byte is unreadable.
    pub fn read_bytes(&self, addr: VirtAddr, len: u64) -> Result<Vec<u8>, Fault> {
        self.check(addr, len, Access::Read)?;
        let mut out = vec![0u8; len as usize];
        self.copy_out(addr, &mut out);
        Ok(out)
    }

    /// Writes `bytes` at `addr`.
    ///
    /// # Errors
    ///
    /// [`Fault::Segv`] if any byte is unwritable; nothing is written in
    /// that case.
    pub fn write_bytes(&mut self, addr: VirtAddr, bytes: &[u8]) -> Result<(), Fault> {
        self.check(addr, bytes.len() as u64, Access::Write)?;
        self.copy_in(addr, bytes);
        Ok(())
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: VirtAddr) -> Result<u8, Fault> {
        match self.region_index(addr) {
            Some(i) if self.regions[i].prot().allows(Access::Read) => {
                let r = &self.regions[i];
                Ok(r.data.as_slice()[addr.diff(r.base()) as usize])
            }
            _ => Err(Fault::segv(addr, Access::Read, "memory access")),
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: VirtAddr, v: u8) -> Result<(), Fault> {
        match self.region_index(addr) {
            Some(i) if self.regions[i].prot().allows(Access::Write) => {
                let r = &mut self.regions[i];
                let off = addr.diff(r.base) as usize;
                r.data.slice_mut(off, 1)[0] = v;
                self.bump_epoch();
                Ok(())
            }
            _ => Err(Fault::segv(addr, Access::Write, "memory access")),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: VirtAddr) -> Result<u16, Fault> {
        let mut b = [0u8; 2];
        self.read_into(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: VirtAddr, v: u16) -> Result<(), Fault> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: VirtAddr) -> Result<u32, Fault> {
        let mut b = [0u8; 4];
        self.read_into(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: VirtAddr, v: u32) -> Result<(), Fault> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: VirtAddr) -> Result<u64, Fault> {
        let mut b = [0u8; 8];
        self.read_into(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: VirtAddr, v: u64) -> Result<(), Fault> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// The longest contiguous byte run starting at `addr` *within one
    /// region*, ignoring protections (a debugger/loader view). Callers
    /// that need to cross region boundaries loop: the returned slice ends
    /// at the region end, and a follow-up call at `addr + slice.len()`
    /// continues into an adjacent region if one is mapped there.
    ///
    /// This is the zero-copy primitive behind string scanning
    /// (`peek_cstr_len`) and canary verification.
    pub fn peek_slice(&self, addr: VirtAddr) -> Option<&[u8]> {
        let i = self.region_index(addr)?;
        let r = &self.regions[i];
        let off = addr.diff(r.base()) as usize;
        Some(&r.data.as_slice()[off..])
    }

    /// Reads `out.len()` bytes at `addr` ignoring protections, without
    /// allocating. Returns `false` if any byte is unmapped (in which case
    /// `out` may be partially overwritten but no other state changes).
    pub fn peek_into(&self, addr: VirtAddr, out: &mut [u8]) -> bool {
        let mut idx = self.region_index(addr);
        let mut cur = addr;
        let mut dst: &mut [u8] = out;
        while !dst.is_empty() {
            let i = match idx {
                Some(i) => i,
                None => return false,
            };
            let r = &self.regions[i];
            let off = cur.diff(r.base()) as usize;
            let span = (r.data.len() - off).min(dst.len());
            dst[..span].copy_from_slice(&r.data.as_slice()[off..off + span]);
            cur = cur.add(span as u64);
            dst = &mut dst[span..];
            if !dst.is_empty() {
                idx = self.next_contiguous(i, cur);
            }
        }
        true
    }

    /// Reads a little-endian `u64` ignoring protections, or `None` if any
    /// byte is unmapped. Alloc-free (canary verification hot path).
    pub fn peek_u64(&self, addr: VirtAddr) -> Option<u64> {
        let mut b = [0u8; 8];
        if self.peek_into(addr, &mut b) {
            Some(u64::from_le_bytes(b))
        } else {
            None
        }
    }

    /// Reads bytes ignoring protections (a debugger/loader view). Returns
    /// `None` if any byte is unmapped.
    pub fn peek_bytes(&self, addr: VirtAddr, len: u64) -> Option<Vec<u8>> {
        let mut out = vec![0u8; len as usize];
        if self.peek_into(addr, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Writes bytes ignoring protections (loader/fixture view). Returns
    /// `false` if any byte is unmapped; nothing is written in that case.
    pub fn poke_bytes(&mut self, addr: VirtAddr, bytes: &[u8]) -> bool {
        // Validate the whole range first so pokes stay all-or-nothing.
        let mut idx = self.region_index(addr);
        let mut cur = addr;
        let mut remaining = bytes.len() as u64;
        while remaining > 0 {
            let i = match idx {
                Some(i) => i,
                None => return false,
            };
            let span = self.regions[i].end().diff(cur).min(remaining);
            cur = cur.add(span);
            remaining -= span;
            if remaining > 0 {
                idx = self.next_contiguous(i, cur);
            }
        }
        self.copy_in(addr, bytes);
        true
    }

    /// The bytes from `addr` to the end of its region, if that region
    /// allows `access`; empty otherwise. Never crosses into an adjacent
    /// region, however contiguous: a run is one region's worth of one
    /// protection.
    ///
    /// This is the query behind [`Proc`](crate::Proc)'s run primitives,
    /// which move a whole run per step instead of one byte.
    pub fn run_at(&self, addr: VirtAddr, access: Access) -> &[u8] {
        match self.region_index(addr) {
            Some(i) if self.regions[i].prot().allows(access) => {
                let r = &self.regions[i];
                &r.data.as_slice()[addr.diff(r.base()) as usize..]
            }
            _ => &[],
        }
    }

    /// The bytes from the start of the region holding `end - 1` up to
    /// `end` (exclusive), if that region allows `access`; empty otherwise.
    /// The backward twin of [`AddressSpace::run_at`].
    pub fn run_before(&self, end: VirtAddr, access: Access) -> &[u8] {
        let last = end.sub(1);
        match self.region_index(last) {
            Some(i) if self.regions[i].prot().allows(access) => {
                let r = &self.regions[i];
                &r.data.as_slice()[..=last.diff(r.base()) as usize]
            }
            _ => &[],
        }
    }

    /// Writes `n` copies of `v` at `addr`, as [`AddressSpace::write_bytes`]
    /// of them would.
    ///
    /// # Errors
    ///
    /// [`Fault::Segv`] at the first unwritable byte; nothing is written in
    /// that case.
    pub fn fill(&mut self, addr: VirtAddr, n: u64, v: u8) -> Result<(), Fault> {
        let len = n as usize;
        let Some((i, off)) = self.span(addr, len, Access::Write) else {
            // Empty, faulting, or straddling a region edge.
            self.check(addr, n, Access::Write)?;
            self.copy_in(addr, &vec![v; len]);
            return Ok(());
        };
        self.bump_epoch();
        self.regions[i].data.slice_mut(off, len).fill(v);
        Ok(())
    }

    /// Copies `n` bytes from `src` to `dst` with `memmove` semantics: the
    /// destination ends up holding what the source held before the call,
    /// however the ranges overlap, inside one region or across several.
    ///
    /// # Errors
    ///
    /// [`Fault::Segv`] at the first unreadable source byte, else at the
    /// first unwritable destination byte; nothing is written in either
    /// case.
    pub fn copy_within(
        &mut self,
        dst: VirtAddr,
        src: VirtAddr,
        n: u64,
    ) -> Result<(), Fault> {
        let len = n as usize;
        let (Some((si, s_off)), Some((di, d_off))) =
            (self.span(src, len, Access::Read), self.span(dst, len, Access::Write))
        else {
            // Empty, faulting, or straddling a region edge: stage through
            // the host.
            self.check(src, n, Access::Read)?;
            self.check(dst, n, Access::Write)?;
            let mut staged = vec![0u8; len];
            self.copy_out(src, &mut staged);
            self.copy_in(dst, &staged);
            return Ok(());
        };
        self.bump_epoch();
        if si == di {
            self.regions[di].data.copy_within(s_off, d_off, len);
        } else {
            let (s, d) = if si < di {
                let (lo, hi) = self.regions.split_at_mut(di);
                (&lo[si], &mut hi[0])
            } else {
                let (lo, hi) = self.regions.split_at_mut(si);
                (&hi[0], &mut lo[di])
            };
            d.data
                .slice_mut(d_off, len)
                .copy_from_slice(&s.data.as_slice()[s_off..s_off + len]);
        }
        Ok(())
    }

    /// The region index and offset of `addr`, when the `len > 0` bytes
    /// from it lie in one region that allows `access`.
    fn span(&self, addr: VirtAddr, len: usize, access: Access) -> Option<(usize, usize)> {
        let i = self.region_index(addr)?;
        let r = &self.regions[i];
        let off = addr.diff(r.base()) as usize;
        (len > 0 && r.prot().allows(access) && len <= r.data.len() - off)
            .then_some((i, off))
    }

    /// Reads a pointer-sized value as a [`VirtAddr`].
    pub fn read_ptr(&self, addr: VirtAddr) -> Result<VirtAddr, Fault> {
        Ok(VirtAddr::new(self.read_u64(addr)?))
    }

    /// Writes a pointer-sized value.
    pub fn write_ptr(&mut self, addr: VirtAddr, v: VirtAddr) -> Result<(), Fault> {
        self.write_u64(addr, v.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x1000, Prot::RW, "a").unwrap();
        m.map(VirtAddr::new(0x3000), 0x1000, Prot::R, "ro").unwrap();
        m
    }

    #[test]
    fn map_rejects_overlap() {
        let mut m = space();
        let err = m.map(VirtAddr::new(0x1800), 0x1000, Prot::RW, "b").unwrap_err();
        assert!(matches!(err, MapError::Overlap { .. }));
        // Adjacent is fine.
        m.map(VirtAddr::new(0x2000), 0x1000, Prot::RW, "b").unwrap();
    }

    #[test]
    fn map_overlap_reports_lowest_conflicting_region() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x1000, Prot::RW, "lo").unwrap();
        m.map(VirtAddr::new(0x3000), 0x1000, Prot::RW, "hi").unwrap();
        // A range swallowing both must name the lower one, exactly as the
        // pre-index linear scan did.
        let err = m.map(VirtAddr::new(0x1800), 0x2000, Prot::RW, "mid").unwrap_err();
        assert_eq!(err, MapError::Overlap { existing: "lo".into() });
        // A range that only clips the upper region names that one.
        let err = m.map(VirtAddr::new(0x2800), 0x1000, Prot::RW, "mid").unwrap_err();
        assert_eq!(err, MapError::Overlap { existing: "hi".into() });
    }

    #[test]
    fn map_rejects_zero_and_wrap() {
        let mut m = AddressSpace::new();
        assert_eq!(
            m.map(VirtAddr::new(0x1000), 0, Prot::RW, "z"),
            Err(MapError::ZeroLength)
        );
        assert_eq!(
            m.map(VirtAddr::new(u64::MAX - 4), 16, Prot::RW, "w"),
            Err(MapError::Wraps)
        );
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = space();
        m.write_u64(VirtAddr::new(0x1100), 0x0123456789abcdef).unwrap();
        assert_eq!(m.read_u64(VirtAddr::new(0x1100)).unwrap(), 0x0123456789abcdef);
        m.write_u32(VirtAddr::new(0x1200), 7).unwrap();
        assert_eq!(m.read_u32(VirtAddr::new(0x1200)).unwrap(), 7);
        m.write_u16(VirtAddr::new(0x1300), 0xbeef).unwrap();
        assert_eq!(m.read_u16(VirtAddr::new(0x1300)).unwrap(), 0xbeef);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = space();
        let err = m.read_u8(VirtAddr::new(0x5000)).unwrap_err();
        assert!(matches!(err, Fault::Segv { access: Access::Read, .. }));
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut m = space();
        let err = m.write_u8(VirtAddr::new(0x3000), 1).unwrap_err();
        assert!(matches!(err, Fault::Segv { access: Access::Write, .. }));
        // Reading read-only memory is fine.
        assert_eq!(m.read_u8(VirtAddr::new(0x3000)).unwrap(), 0);
    }

    #[test]
    fn cross_region_access() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "lo").unwrap();
        m.map(VirtAddr::new(0x1010), 0x10, Prot::RW, "hi").unwrap();
        m.write_bytes(VirtAddr::new(0x100c), &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(
            m.read_bytes(VirtAddr::new(0x100c), 8).unwrap(),
            vec![1, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn cross_region_access_with_gap_faults() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "lo").unwrap();
        m.map(VirtAddr::new(0x1020), 0x10, Prot::RW, "hi").unwrap();
        let err = m.write_bytes(VirtAddr::new(0x100c), &[0; 8]).unwrap_err();
        assert_eq!(err, Fault::segv(VirtAddr::new(0x1010), Access::Write, "memory access"));
        // Failed writes are all-or-nothing.
        assert_eq!(m.read_bytes(VirtAddr::new(0x100c), 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn accessible_extent_spans_contiguous_regions() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "lo").unwrap();
        m.map(VirtAddr::new(0x1010), 0x10, Prot::R, "hi").unwrap();
        assert_eq!(m.accessible_extent(VirtAddr::new(0x1008), Access::Read), 0x18);
        assert_eq!(m.accessible_extent(VirtAddr::new(0x1008), Access::Write), 0x8);
        assert_eq!(m.accessible_extent(VirtAddr::new(0x5000), Access::Read), 0);
    }

    #[test]
    fn accessible_extent_at_region_boundaries() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "a").unwrap();
        m.map(VirtAddr::new(0x1010), 0x10, Prot::RW, "b").unwrap();
        m.map(VirtAddr::new(0x1020), 0x10, Prot::R, "c").unwrap();
        // From the first byte of each region in the coalesced run.
        assert_eq!(m.accessible_extent(VirtAddr::new(0x1000), Access::Read), 0x30);
        assert_eq!(m.accessible_extent(VirtAddr::new(0x1010), Access::Read), 0x20);
        assert_eq!(m.accessible_extent(VirtAddr::new(0x1020), Access::Read), 0x10);
        // From the last byte of the run.
        assert_eq!(m.accessible_extent(VirtAddr::new(0x102f), Access::Read), 0x1);
        // One past the end of the run is inaccessible.
        assert_eq!(m.accessible_extent(VirtAddr::new(0x1030), Access::Read), 0);
        // Write access stops at the read-only boundary exactly.
        assert_eq!(m.accessible_extent(VirtAddr::new(0x1000), Access::Write), 0x20);
        assert_eq!(m.accessible_extent(VirtAddr::new(0x101f), Access::Write), 0x1);
        assert_eq!(m.accessible_extent(VirtAddr::new(0x1020), Access::Write), 0);
    }

    #[test]
    fn reads_straddling_two_regions_match_bytewise_reads() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "lo").unwrap();
        m.map(VirtAddr::new(0x1010), 0x10, Prot::RW, "hi").unwrap();
        for i in 0..0x20u64 {
            m.write_u8(VirtAddr::new(0x1000 + i), i as u8).unwrap();
        }
        // A straddling read agrees with per-byte reads at every offset.
        for start in 0x1008..=0x1010u64 {
            let fast = m.read_bytes(VirtAddr::new(start), 8).unwrap();
            let slow: Vec<u8> =
                (0..8).map(|k| m.read_u8(VirtAddr::new(start + k)).unwrap()).collect();
            assert_eq!(fast, slow, "start {start:#x}");
            let mut into = [0u8; 8];
            m.read_into(VirtAddr::new(start), &mut into).unwrap();
            assert_eq!(into.to_vec(), slow, "read_into at {start:#x}");
            let mut peeked = [0u8; 8];
            assert!(m.peek_into(VirtAddr::new(start), &mut peeked));
            assert_eq!(peeked.to_vec(), slow, "peek_into at {start:#x}");
        }
        // A straddling u64 assembles the same little-endian value.
        let v = m.read_u64(VirtAddr::new(0x100c)).unwrap();
        assert_eq!(v, u64::from_le_bytes([0xc, 0xd, 0xe, 0xf, 0x10, 0x11, 0x12, 0x13]));
        assert_eq!(m.peek_u64(VirtAddr::new(0x100c)), Some(v));
    }

    #[test]
    fn peek_slice_is_bounded_by_region_end() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "lo").unwrap();
        m.map(VirtAddr::new(0x1010), 0x10, Prot::R, "hi").unwrap();
        m.write_u8(VirtAddr::new(0x100f), 7).unwrap();
        let s = m.peek_slice(VirtAddr::new(0x1008)).unwrap();
        assert_eq!(s.len(), 8);
        assert_eq!(s[7], 7);
        // The follow-up call continues into the adjacent region.
        let s2 = m.peek_slice(VirtAddr::new(0x1010)).unwrap();
        assert_eq!(s2.len(), 0x10);
        assert!(m.peek_slice(VirtAddr::new(0x1020)).is_none());
    }

    #[test]
    fn runs_end_at_the_region_and_honour_protection() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "lo").unwrap();
        m.map(VirtAddr::new(0x1010), 0x10, Prot::R, "hi").unwrap();
        m.write_u8(VirtAddr::new(0x100c), 7).unwrap();
        // Contiguous regions still make two runs.
        assert_eq!(m.run_at(VirtAddr::new(0x100c), Access::Write), &[7, 0, 0, 0]);
        assert_eq!(m.run_at(VirtAddr::new(0x1010), Access::Read).len(), 0x10);
        assert!(m.run_at(VirtAddr::new(0x1010), Access::Write).is_empty());
        assert!(m.run_at(VirtAddr::new(0x1020), Access::Read).is_empty());
        // Backward runs end just below `end` and start at the region base.
        assert_eq!(m.run_before(VirtAddr::new(0x100d), Access::Read).len(), 0xd);
        assert_eq!(m.run_before(VirtAddr::new(0x1010), Access::Write).len(), 0x10);
        assert!(m.run_before(VirtAddr::new(0x1011), Access::Write).is_empty());
        assert!(m.run_before(VirtAddr::new(0x1000), Access::Read).is_empty());
    }

    #[test]
    fn fill_and_copy_within_are_all_or_nothing_with_one_bump() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "lo").unwrap();
        m.map(VirtAddr::new(0x1010), 0x10, Prot::RW, "hi").unwrap();
        m.map(VirtAddr::new(0x1020), 0x10, Prot::R, "ro").unwrap();
        let e = m.epoch();
        m.fill(VirtAddr::new(0x100c), 8, 0xAA).unwrap();
        assert_eq!(m.epoch(), e + 1);
        assert_eq!(
            m.read_bytes(VirtAddr::new(0x100b), 10).unwrap(),
            b"\0\xAA\xAA\xAA\xAA\xAA\xAA\xAA\xAA\0"
        );
        // Overlapping copies inside one region keep memmove semantics.
        m.write_bytes(VirtAddr::new(0x1000), b"abcdef").unwrap();
        m.copy_within(VirtAddr::new(0x1002), VirtAddr::new(0x1000), 4).unwrap();
        assert_eq!(m.read_bytes(VirtAddr::new(0x1000), 6).unwrap(), b"ababcd");
        m.copy_within(VirtAddr::new(0x1000), VirtAddr::new(0x1002), 4).unwrap();
        assert_eq!(m.read_bytes(VirtAddr::new(0x1000), 6).unwrap(), b"abcdcd");
        // Between regions, and straddling the contiguous boundary.
        m.copy_within(VirtAddr::new(0x1014), VirtAddr::new(0x1000), 4).unwrap();
        assert_eq!(m.read_bytes(VirtAddr::new(0x1014), 4).unwrap(), b"abcd");
        m.copy_within(VirtAddr::new(0x100e), VirtAddr::new(0x1012), 6).unwrap();
        assert_eq!(m.read_bytes(VirtAddr::new(0x100e), 6).unwrap(), b"\xAA\xAAabcd");
        // A fault writes nothing and leaves the epoch alone.
        let (e, before) = (m.epoch(), m.read_bytes(VirtAddr::new(0x1000), 0x30).unwrap());
        let err = m.fill(VirtAddr::new(0x101c), 8, 1).unwrap_err();
        assert_eq!(err, Fault::segv(VirtAddr::new(0x1020), Access::Write, "memory access"));
        let err =
            m.copy_within(VirtAddr::new(0x1000), VirtAddr::new(0x102c), 8).unwrap_err();
        assert_eq!(err, Fault::segv(VirtAddr::new(0x1030), Access::Read, "memory access"));
        assert_eq!(m.read_bytes(VirtAddr::new(0x1000), 0x30).unwrap(), before);
        assert_eq!(m.epoch(), e);
        // Empty operations neither fault nor bump.
        m.fill(VirtAddr::new(0x9000), 0, 1).unwrap();
        m.copy_within(VirtAddr::new(0x9000), VirtAddr::new(0x9000), 0).unwrap();
        assert_eq!(m.epoch(), e);
    }

    #[test]
    fn grow_extends_region() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "heap").unwrap();
        m.grow(VirtAddr::new(0x1000), 0x10).unwrap();
        m.write_u8(VirtAddr::new(0x101f), 9).unwrap();
        assert_eq!(m.read_u8(VirtAddr::new(0x101f)).unwrap(), 9);
    }

    #[test]
    fn grow_respects_neighbours() {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x10, Prot::RW, "heap").unwrap();
        m.map(VirtAddr::new(0x1020), 0x10, Prot::RW, "next").unwrap();
        m.grow(VirtAddr::new(0x1000), 0x10).unwrap();
        assert!(matches!(m.grow(VirtAddr::new(0x1000), 1), Err(MapError::Overlap { .. })));
    }

    #[test]
    fn unmap_and_protect() {
        let mut m = space();
        assert!(m.protect(VirtAddr::new(0x3000), Prot::RW));
        m.write_u8(VirtAddr::new(0x3000), 5).unwrap();
        assert!(m.unmap(VirtAddr::new(0x3000)));
        assert!(!m.unmap(VirtAddr::new(0x3000)));
        assert!(m.read_u8(VirtAddr::new(0x3000)).is_err());
        assert!(!m.protect(VirtAddr::new(0x9999), Prot::R));
    }

    #[test]
    fn mru_cache_survives_mutation() {
        let mut m = space();
        // Warm the cache on the first region, then unmap it: the next
        // lookup must miss cleanly, and lookups that land in the other
        // region must still resolve.
        assert!(m.region_at(VirtAddr::new(0x1800)).is_some());
        assert!(m.unmap(VirtAddr::new(0x1000)));
        assert!(m.region_at(VirtAddr::new(0x1800)).is_none());
        assert_eq!(m.region_at(VirtAddr::new(0x3800)).unwrap().name(), "ro");
        // Warm on "ro", protect it, and confirm lookups still agree.
        assert!(m.protect(VirtAddr::new(0x3800), Prot::RW));
        assert_eq!(m.region_at(VirtAddr::new(0x3800)).unwrap().prot(), Prot::RW);
    }

    #[test]
    fn pooled_buffers_are_rezeroed_on_reuse() {
        let base = VirtAddr::new(0x10_0000);
        let len = (POOL_MIN_LEN * 2) as u64;
        let mut m = AddressSpace::new();
        m.map(base, len, Prot::RW, "big").unwrap();
        m.write_bytes(base.add(17), &[0xAB; 64]).unwrap();
        m.write_u8(base.add(len - 1), 0xCD).unwrap();
        assert!(m.unmap(base));
        // The recycled buffer must come back fully zeroed.
        m.map(base, len, Prot::RW, "big2").unwrap();
        let back = m.read_bytes(base, len).unwrap();
        assert!(back.iter().all(|&b| b == 0));
    }

    #[test]
    fn grown_regions_never_poison_the_pool() {
        let pool_lens =
            || BUF_POOL.with(|p| p.borrow().iter().map(Vec::len).collect::<Vec<_>>());
        BUF_POOL.with(|p| p.borrow_mut().clear());
        let base = VirtAddr::new(0x10_0000);
        let std_len = POOL_MIN_LEN * 2;
        let mut grown = Vec::new();
        let mut m = AddressSpace::new();
        // More distinct grown lengths than the pool has slots.
        for i in 0..20 {
            m.map(base, std_len as u64, Prot::RW, "heap").unwrap();
            m.write_u8(base, 0xEE).unwrap();
            let extra = POOL_MIN_LEN * (i + 1);
            m.grow(base, extra as u64).unwrap();
            m.write_u8(base.add((std_len + extra - 1) as u64), 0xEF).unwrap();
            grown.push(std_len + extra);
            assert!(m.unmap(base));
        }
        assert!(
            pool_lens().iter().all(|len| !grown.contains(len)),
            "grown lengths left in the pool: {:?}",
            pool_lens()
        );
        // A standard segment still cycles through the pool.
        m.map(base, std_len as u64, Prot::RW, "data").unwrap();
        m.write_bytes(base.add(100), &[0xAB; 64]).unwrap();
        assert!(m.unmap(base));
        let pooled = |lens: Vec<usize>| lens.iter().filter(|&&l| l == std_len).count();
        let before = pooled(pool_lens());
        assert!(before >= 1, "standard buffer was not pooled: {:?}", pool_lens());
        m.map(base, std_len as u64, Prot::RW, "data2").unwrap();
        assert_eq!(pooled(pool_lens()), before - 1, "map must reuse the pooled buffer");
        let back = m.read_bytes(base, std_len as u64).unwrap();
        assert!(back.iter().all(|&b| b == 0), "reused buffer not zeroed");
    }

    #[test]
    fn first_and_last_byte_rezero_two_chunks_of_a_segment() {
        let base = VirtAddr::new(0x60_0000);
        let len = 0x10_0000;
        let mut m = AddressSpace::new();
        m.map(base, len as u64, Prot::RW, "rodata").unwrap();
        // The ctype table at the segment's end, a literal at its start.
        m.write_u8(base, 1).unwrap();
        m.write_u8(base.add(len as u64 - 1), 1).unwrap();
        let data = &m.regions[0].data;
        assert_eq!(1 << data.chunk_shift, 8192, "1 MiB splits into 8 KiB chunks");
        assert_eq!(data.dirty.map(u64::count_ones).iter().sum::<u32>(), 2);
        let chunks: Vec<_> = data.dirty_chunks().collect();
        assert_eq!(chunks, [0..8192, len - 8192..len]);
    }

    #[test]
    fn pool_never_holds_more_than_its_cap() {
        let pool_len = || BUF_POOL.with(|p| p.borrow().len());
        BUF_POOL.with(|p| p.borrow_mut().clear());
        let len = POOL_MIN_LEN * 2;
        let bases: Vec<_> = (0..POOL_MAX_BUFS + 4)
            .map(|i| VirtAddr::new(0x10_0000 * (i as u64 + 1)))
            .collect();
        let map_all = |m: &mut AddressSpace| {
            for &b in &bases {
                m.map(b, len as u64, Prot::RW, "seg").unwrap();
                m.write_u8(b.add(7), 0xAB).unwrap();
            }
        };
        let mut m = AddressSpace::new();
        map_all(&mut m);
        for &b in &bases {
            assert!(m.unmap(b));
            assert!(pool_len() <= POOL_MAX_BUFS, "pool holds {} buffers", pool_len());
        }
        assert_eq!(pool_len(), POOL_MAX_BUFS);
        // Process teardown drops every region at once, under the same cap.
        map_all(&mut m);
        drop(m);
        assert_eq!(pool_len(), POOL_MAX_BUFS);
    }

    #[test]
    fn region_accessors() {
        let m = space();
        let r = m.region_at(VirtAddr::new(0x1234)).unwrap();
        assert_eq!(r.base(), VirtAddr::new(0x1000));
        assert_eq!(r.len(), 0x1000);
        assert_eq!(r.end(), VirtAddr::new(0x2000));
        assert_eq!(r.name(), "a");
        assert_eq!(r.prot(), Prot::RW);
        assert!(!r.is_empty());
    }

    #[test]
    fn check_zero_len_always_ok() {
        let m = AddressSpace::new();
        assert!(m.check(VirtAddr::new(0xdead), 0, Access::Write).is_ok());
    }

    #[test]
    fn epoch_moves_on_every_mutation_and_only_then() {
        let mut m = AddressSpace::new();
        let mut last = m.epoch();
        let mut expect_bump = |m: &AddressSpace, what: &str| {
            assert!(m.epoch() > last, "{what} must bump the epoch");
            last = m.epoch();
        };
        m.map(VirtAddr::new(0x1000), 0x1000, Prot::RW, "a").unwrap();
        expect_bump(&m, "map");
        m.write_u8(VirtAddr::new(0x1000), 7).unwrap();
        expect_bump(&m, "write_u8");
        m.write_bytes(VirtAddr::new(0x1008), &[1, 2, 3]).unwrap();
        expect_bump(&m, "write_bytes");
        assert!(m.poke_bytes(VirtAddr::new(0x1010), &[9]));
        expect_bump(&m, "poke_bytes");
        assert!(m.protect(VirtAddr::new(0x1000), Prot::R));
        expect_bump(&m, "protect");
        m.grow(VirtAddr::new(0x1000), 0x10).unwrap();
        expect_bump(&m, "grow");
        assert!(m.unmap(VirtAddr::new(0x1000)));
        expect_bump(&m, "unmap");
        // Reads leave the epoch alone: a cached validation stays live
        // across arbitrarily many queries.
        let before = m.epoch();
        m.map(VirtAddr::new(0x2000), 0x100, Prot::RW, "b").unwrap();
        let before2 = m.epoch();
        assert!(before2 > before);
        let _ = m.read_u8(VirtAddr::new(0x2000));
        let _ = m.peek_u64(VirtAddr::new(0x2000));
        let _ = m.accessible_extent(VirtAddr::new(0x2000), Access::Read);
        let _ = m.check(VirtAddr::new(0x2000), 8, Access::Read);
        assert_eq!(m.epoch(), before2, "reads must not move the epoch");
        // Clones carry the epoch with them.
        assert_eq!(m.clone().epoch(), m.epoch());
    }

    #[test]
    fn cloned_epoch_counters_are_independent() {
        let mut m = space();
        let mut c = m.clone();
        let (me, ce) = (m.epoch(), c.epoch());
        assert_eq!(me, ce);
        c.bump_epoch();
        c.bump_epoch();
        assert_eq!(m.epoch(), me, "a clone bumping must not expire the original's memos");
        m.bump_epoch();
        assert_eq!(c.epoch(), ce + 2, "and vice versa");
        // Nor does a handle taken from one observe the other.
        assert_eq!(m.epoch_handle().get(), me + 1);
    }

    /// Regression test for the torn/stale epoch read: before the epoch
    /// became an atomic with release/acquire pairing, a plain `u64` read
    /// from another thread was a data race — a memoized pointer verdict
    /// could survive an unmap it never observed. The writer publishes a
    /// payload counter *before* each epoch-bumping mutation; readers that
    /// observe epoch `e0 + 2i` must therefore observe a payload `>= i`.
    /// Run under many interleavings (two reader threads, thousands of
    /// map/unmap cycles) so a regression to relaxed/non-atomic ordering
    /// has ample opportunity to trip the assertions.
    #[test]
    fn epoch_handle_publishes_mutations_across_threads() {
        const ITERS: u64 = 4000;
        let mut m = AddressSpace::new();
        let handle = m.epoch_handle();
        let e0 = handle.get();
        let payload = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let h = handle.clone();
                let payload = &payload;
                s.spawn(move || {
                    let mut last = e0;
                    while last < e0 + 2 * ITERS {
                        let e = h.get();
                        assert!(e >= last, "epoch went backwards: {e} < {last}");
                        // Acquire on the epoch orders this load after the
                        // writer's pre-bump payload store.
                        let p = payload.load(Ordering::Relaxed);
                        assert!(
                            p >= (e - e0) / 2,
                            "observed epoch {e} but payload {p}: the bump was \
                             published before the mutation that preceded it"
                        );
                        last = e;
                    }
                });
            }
            let payload = &payload;
            s.spawn(move || {
                let base = VirtAddr::new(0x1000);
                for i in 1..=ITERS {
                    payload.store(i, Ordering::Relaxed);
                    m.map(base, 0x1000, Prot::RW, "scratch").unwrap(); // epoch e0+2i-1
                    assert!(m.unmap(base)); // epoch e0+2i
                }
            });
        });
        assert_eq!(handle.get(), e0 + 2 * ITERS);
    }
}
