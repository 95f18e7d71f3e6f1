//! The guard oracle: the most precise extent answer available, layered
//! from (1) the canary registry's requested sizes, (2) heap chunk bounds,
//! (3) stack-frame bounds and page mappings.

use std::sync::Arc;

use simlibc::heap::HeapOracle;
use simproc::{ExtentOracle, Proc, VirtAddr};

use crate::registry::CanaryRegistry;

/// Extent oracle combining the canary registry with the allocation-aware
/// heap oracle. This is what security and robustness wrappers consult.
#[derive(Debug, Clone)]
pub struct GuardOracle {
    registry: Arc<CanaryRegistry>,
}

impl GuardOracle {
    /// Builds an oracle over a shared registry.
    pub fn new(registry: Arc<CanaryRegistry>) -> Self {
        GuardOracle { registry }
    }

    /// The shared registry.
    pub fn registry(&self) -> &Arc<CanaryRegistry> {
        &self.registry
    }

    /// The precise object containing `addr`, as `(base, size)`:
    /// layered like the extent queries — a protected allocation's
    /// payload and requested size first, then the live heap chunk's
    /// payload bounds, then whatever contiguous writable region remains
    /// (stack slot, data segment), reported from `addr` itself. `None`
    /// when `addr` points at nothing writable at all (wild pointers,
    /// free chunks, chunk headers, the wilderness). This is what
    /// attributes an obliviously suppressed write to one object.
    pub fn object_region(&self, proc: &Proc, addr: VirtAddr) -> Option<(VirtAddr, u64)> {
        if let Some(alloc) = self.registry.region_of(addr) {
            return Some((alloc.payload, alloc.requested));
        }
        if self.registry.contains(addr) {
            return None; // guard word: never a legal write target
        }
        if simlibc::heap::in_heap(proc, addr) {
            return simlibc::heap::live_region(proc, addr);
        }
        let ext = HeapOracle::new().writable_extent(proc, addr)?;
        Some((addr, ext))
    }

    fn refined(&self, proc: &Proc, addr: VirtAddr) -> Option<Option<u64>> {
        // Registry first: requested size beats chunk size (the chunk
        // includes the guard word and rounding slack).
        if let Some(ext) = self.registry.extent_within(addr) {
            return Some(Some(ext));
        }
        if self.registry.contains(addr) {
            // Inside a protected allocation's guard word: not writable.
            return Some(None);
        }
        let _ = proc;
        None
    }
}

impl ExtentOracle for GuardOracle {
    fn writable_extent(&self, proc: &Proc, addr: VirtAddr) -> Option<u64> {
        match self.refined(proc, addr) {
            Some(ext) => ext,
            None => HeapOracle::new().writable_extent(proc, addr),
        }
    }

    fn readable_extent(&self, proc: &Proc, addr: VirtAddr) -> Option<u64> {
        match self.refined(proc, addr) {
            Some(ext) => ext,
            None => HeapOracle::new().readable_extent(proc, addr),
        }
    }

    fn extent_right(&self, proc: &Proc, addr: VirtAddr) -> Option<u64> {
        // `object_region` already names the precise containing object
        // (requested size for protected allocations — the canary is never
        // writable space — then chunk payload, then region/stack rules),
        // so the distance from `addr` to the object's right edge is the
        // exact bound a substituted copy may fill.
        let (base, size) = self.object_region(proc, addr)?;
        let end = base.add(size);
        if addr >= end {
            return None;
        }
        Some(end.diff(addr))
    }

    fn validation_epoch(&self) -> u64 {
        // The registry is the only state this oracle consults outside the
        // process image. The heap oracle reads in-image chunk headers and
        // the allocator's live-chunk index, which changes only together
        // with those headers; the address-space epoch covers both.
        self.registry.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CANARY_LEN;
    use simlibc::heap;
    use simlibc::testutil::libc_proc;

    #[test]
    fn registry_extent_beats_chunk_extent() {
        let mut p = libc_proc();
        let registry = Arc::new(CanaryRegistry::new());
        let oracle = GuardOracle::new(Arc::clone(&registry));
        // Unprotected allocation: chunk-bounded extent.
        let plain = heap::malloc(&mut p, 20).unwrap();
        let chunk_ext = oracle.writable_extent(&p, plain).unwrap();
        assert!(chunk_ext >= 20);
        // Protected allocation: request-bounded extent (tighter).
        let guarded = heap::malloc(&mut p, 20 + CANARY_LEN).unwrap();
        registry.protect(&mut p, guarded, 20).unwrap();
        assert_eq!(oracle.writable_extent(&p, guarded), Some(20));
        assert_eq!(oracle.readable_extent(&p, guarded), Some(20));
        // The guard word itself is off limits.
        assert_eq!(oracle.writable_extent(&p, guarded.add(20)), None);
    }

    #[test]
    fn object_region_names_a_precise_object() {
        let mut p = libc_proc();
        let registry = Arc::new(CanaryRegistry::new());
        let oracle = GuardOracle::new(Arc::clone(&registry));
        // Protected allocation: base and requested size, even from an
        // interior pointer.
        let guarded = heap::malloc(&mut p, 20 + CANARY_LEN).unwrap();
        registry.protect(&mut p, guarded, 20).unwrap();
        assert_eq!(oracle.object_region(&p, guarded.add(5)), Some((guarded, 20)));
        assert_eq!(oracle.object_region(&p, guarded.add(20)), None, "guard word");
        // Plain heap chunk: payload bounds from the live-chunk index.
        let plain = heap::malloc(&mut p, 24).unwrap();
        let (base, size) = oracle.object_region(&p, plain.add(3)).unwrap();
        assert_eq!(base, plain);
        assert!(size >= 24);
        // Freed chunk: no longer a legal object.
        heap::free(&mut p, plain).unwrap();
        assert_eq!(oracle.object_region(&p, plain), None);
        // Wild pointer: nothing.
        assert_eq!(oracle.object_region(&p, simproc::layout::WILD_ADDR), None);
    }

    #[test]
    fn extent_right_is_exact_at_object_edges() {
        let mut p = libc_proc();
        let registry = Arc::new(CanaryRegistry::new());
        let oracle = GuardOracle::new(Arc::clone(&registry));

        // Canary-guarded chunk: the extent must exclude the guard word —
        // 20 requested bytes, never the CANARY_LEN slack behind them.
        let guarded = heap::malloc(&mut p, 20 + CANARY_LEN).unwrap();
        registry.protect(&mut p, guarded, 20).unwrap();
        assert_eq!(oracle.extent_right(&p, guarded), Some(20));
        // Pointer at the last byte of the protected region: exactly 1.
        assert_eq!(oracle.extent_right(&p, guarded.add(19)), Some(1));
        // First canary byte: not an object at all.
        assert_eq!(oracle.extent_right(&p, guarded.add(20)), None);

        // Interior pointer into a plain heap chunk: distance from the
        // pointer to the payload's right edge, from the live-chunk index.
        let plain = heap::malloc(&mut p, 24).unwrap();
        let (base, size) = oracle.object_region(&p, plain).unwrap();
        assert_eq!(base, plain);
        assert_eq!(oracle.extent_right(&p, plain.add(3)), Some(size - 3));
        // Last payload byte of the plain chunk: exactly 1.
        assert_eq!(oracle.extent_right(&p, plain.add(size - 1)), Some(1));
        // Freed chunk: no object, no extent.
        heap::free(&mut p, plain).unwrap();
        assert_eq!(oracle.extent_right(&p, plain), None);

        // The exact query never reports more than the writable extent.
        let d = p.alloc_data_zeroed(32);
        let right = oracle.extent_right(&p, d).unwrap();
        assert!(right >= 32);
        assert_eq!(Some(right), oracle.writable_extent(&p, d));
    }

    #[test]
    fn extent_right_stack_extents_across_push_pop_epochs() {
        let mut p = libc_proc();
        let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));

        p.push_frame("outer").unwrap();
        let outer_buf = p.stack_alloc(16).unwrap();
        let outer_slot = p.frame_containing(outer_buf).unwrap().ret_slot;
        assert_eq!(oracle.extent_right(&p, outer_buf), Some(outer_slot.diff(outer_buf)));

        // A nested frame clips its own locals at its own return slot and
        // leaves the outer buffer's answer unchanged.
        p.push_frame("inner").unwrap();
        let inner_buf = p.stack_alloc(8).unwrap();
        let inner_slot = p.frame_containing(inner_buf).unwrap().ret_slot;
        assert_eq!(oracle.extent_right(&p, inner_buf), Some(inner_slot.diff(inner_buf)));
        assert_eq!(oracle.extent_right(&p, outer_buf), Some(outer_slot.diff(outer_buf)));

        // Popping the inner frame bumps the address-space epoch (dead
        // locals must expire memoized extents) and removes the inner
        // frame's clipping rule.
        let epoch_before = p.mem.epoch();
        p.pop_frame().unwrap();
        assert!(p.mem.epoch() > epoch_before, "pop must expire memoized extents");
        assert!(p.frame_containing(inner_buf).is_none());
        assert_eq!(oracle.extent_right(&p, outer_buf), Some(outer_slot.diff(outer_buf)));
    }

    #[test]
    fn falls_back_outside_the_registry() {
        let mut p = libc_proc();
        let oracle = GuardOracle::new(Arc::new(CanaryRegistry::new()));
        let d = p.alloc_data_zeroed(32);
        assert!(oracle.writable_extent(&p, d).unwrap() >= 32);
        assert_eq!(oracle.writable_extent(&p, simproc::layout::WILD_ADDR), None);
        // Stack rule survives the layering.
        p.push_frame("f").unwrap();
        let buf = p.stack_alloc(16).unwrap();
        let ext = oracle.writable_extent(&p, buf).unwrap();
        let frame = p.frame_containing(buf).unwrap();
        assert_eq!(ext, frame.ret_slot.diff(buf));
    }
}
