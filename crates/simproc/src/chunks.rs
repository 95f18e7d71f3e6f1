//! The allocator's own record of live heap chunks.
//!
//! The simulated C library's allocator keeps all of its metadata inside
//! simulated memory, where overflows can rewrite it. [`LiveChunks`] is
//! the host-side record the allocator keeps *beside* that metadata: an
//! entry is added at every successful allocation and dropped at every
//! `free`, so it answers "is this a live allocation?" from the
//! allocation history instead of from headers an attacker may have
//! forged. It is a field of [`crate::Proc`], so a process clone carries
//! it and every simulated thread shares it, as they share the heap.

use std::collections::BTreeMap;

use crate::addr::VirtAddr;

/// Live heap chunks, keyed by payload address and ordered by it, each
/// with its chunk size as allocated (header included).
#[derive(Debug, Clone, Default)]
pub struct LiveChunks {
    by_payload: BTreeMap<u64, u64>,
}

impl LiveChunks {
    /// Records a fresh allocation.
    pub fn insert(&mut self, payload: VirtAddr, chunk_size: u64) {
        self.by_payload.insert(payload.get(), chunk_size);
    }

    /// Drops an allocation, returning its chunk size if it was live.
    pub fn remove(&mut self, payload: VirtAddr) -> Option<u64> {
        self.by_payload.remove(&payload.get())
    }

    /// The chunk size of the live allocation whose payload starts at
    /// exactly `payload`.
    pub fn get(&self, payload: VirtAddr) -> Option<u64> {
        self.by_payload.get(&payload.get()).copied()
    }

    /// The live allocation with the highest payload address at or below
    /// `addr`: the only one whose chunk can contain `addr`.
    pub fn at_or_below(&self, addr: VirtAddr) -> Option<(VirtAddr, u64)> {
        self.by_payload
            .range(..=addr.get())
            .next_back()
            .map(|(&payload, &size)| (VirtAddr::new(payload), size))
    }

    /// Forgets every allocation (the heap was re-initialised).
    pub fn clear(&mut self) {
        self.by_payload.clear();
    }

    /// Live allocations as `(payload, chunk size)`, in address order.
    pub fn iter(&self) -> impl Iterator<Item = (VirtAddr, u64)> + '_ {
        self.by_payload.iter().map(|(&payload, &size)| (VirtAddr::new(payload), size))
    }
}
