//! The canary registry: heap allocations protected by the security
//! wrapper (paper §3.4 and the SRDS'01 fault-containment-wrapper paper it
//! demonstrates).
//!
//! The security wrapper's `malloc` hook over-allocates by one guard word,
//! writes a per-address canary after the user's bytes, and records the
//! allocation here. Its `free`/`realloc` hooks — and periodic sweeps —
//! verify the canary *before* the allocator's `unlink` ever touches
//! attacker-controlled metadata.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use simproc::{Fault, Proc, VirtAddr};

/// Guard word length appended to each protected allocation.
pub const CANARY_LEN: u64 = 8;

/// Seed mixed into each canary so one leaked canary does not reveal all.
pub const CANARY_SEED: u64 = 0x0048_454c_4552_5321; // "HEALERS!"

/// The canary value guarding the allocation at `payload`.
pub fn canary_value(payload: VirtAddr) -> u64 {
    // A cheap diffusion of the address; not cryptographic, like the era's.
    let x = payload.get().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ CANARY_SEED;
    x | 1 // never zero
}

/// One protected allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardedAlloc {
    /// Payload address handed to the application.
    pub payload: VirtAddr,
    /// Size the application requested (the canary sits right after).
    pub requested: u64,
}

impl GuardedAlloc {
    /// Address of the guard word.
    pub fn canary_addr(&self) -> VirtAddr {
        self.payload.add(self.requested)
    }
}

/// The two views of the live set, updated together under one lock:
/// a hash map for the per-call exact lookups (`verify`/`release` — the
/// paper's O(1) buffer-length table) and an ordered map for the range
/// queries the extent oracle needs (`extent_within`/`contains`).
#[derive(Debug, Default)]
struct LiveSet {
    by_payload: HashMap<u64, GuardedAlloc>,
    sorted: BTreeMap<u64, GuardedAlloc>,
}

impl LiveSet {
    /// Inserts `alloc` into both views as one step. Mutations go through
    /// here (and [`LiveSet::remove`]) only, so no code path can leave the
    /// views disagreeing at lock release.
    fn insert(&mut self, alloc: GuardedAlloc) {
        self.by_payload.insert(alloc.payload.get(), alloc);
        self.sorted.insert(alloc.payload.get(), alloc);
        debug_assert!(
            self.agree_on(alloc.payload.get()),
            "live-set views diverged on insert"
        );
    }

    /// Removes `payload` from both views as one step.
    fn remove(&mut self, payload: u64) -> Option<GuardedAlloc> {
        let a = self.by_payload.remove(&payload);
        let b = self.sorted.remove(&payload);
        debug_assert_eq!(
            a.is_some(),
            b.is_some(),
            "views disagreed about {payload:#x} before remove"
        );
        debug_assert!(self.agree_on(payload), "live-set views diverged on remove");
        a
    }

    /// The per-mutation form of [`LiveSet::views_agree`], cheap enough to
    /// assert on every insert and remove: both views hold `payload` or
    /// both lack it, and they hold equally many entries.
    fn agree_on(&self, payload: u64) -> bool {
        self.by_payload.contains_key(&payload) == self.sorted.contains_key(&payload)
            && self.by_payload.len() == self.sorted.len()
    }

    /// The invariant every mutation re-establishes before the lock drops:
    /// both views hold exactly the same payload set.
    fn views_agree(&self) -> bool {
        self.by_payload.len() == self.sorted.len()
            && self.sorted.keys().all(|k| self.by_payload.contains_key(k))
    }
}

/// Registry of live protected allocations. Shared between the wrapper
/// hooks via `Arc`.
#[derive(Debug, Default)]
pub struct CanaryRegistry {
    live: Mutex<LiveSet>,
    /// Monotonic epoch, bumped whenever the live set changes
    /// (`protect`/`release`). Extent answers derived from the registry are
    /// reproducible while the epoch holds still, which is what lets
    /// wrappers memoize pointer validations (`Proc::validation_hit`):
    /// `release` removes an allocation without touching process memory, so
    /// the address-space epoch alone cannot expire those entries.
    epoch: AtomicU64,
}

/// A detected integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The damaged allocation.
    pub alloc: GuardedAlloc,
    /// The canary value found in memory.
    pub found: u64,
}

impl Violation {
    /// The fault the security wrapper raises for this violation.
    pub fn fault(&self) -> Fault {
        Fault::security(format!(
            "heap canary clobbered at {} (allocation of {} bytes at {})",
            self.alloc.canary_addr(),
            self.alloc.requested,
            self.alloc.payload
        ))
    }
}

impl CanaryRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CanaryRegistry::default()
    }

    /// Writes the canary for a fresh allocation and records it.
    ///
    /// # Errors
    ///
    /// Propagates the fault if the guard word cannot be written (the
    /// underlying allocation was bogus).
    pub fn protect(
        &self,
        proc: &mut Proc,
        payload: VirtAddr,
        requested: u64,
    ) -> Result<(), Fault> {
        let alloc = GuardedAlloc { payload, requested };
        proc.mem.write_u64(alloc.canary_addr(), canary_value(payload))?;
        let mut live = self.live.lock();
        // Bump strictly *before* the views change (`Release`, pairing with
        // the `Acquire` load in [`CanaryRegistry::epoch`]): the wrapper
        // fast path reads the epoch without taking this lock, and a
        // reader that still observes the old value must be able to
        // conclude the mutation has not been published to it. A memoized
        // verdict can then at worst go stale-but-safe (the check re-runs
        // needlessly), never fresh-but-wrong (a needed check skipped).
        self.epoch.fetch_add(1, Ordering::Release);
        live.insert(alloc);
        Ok(())
    }

    /// Verifies the canary of the allocation at `payload`, if it is
    /// protected. `Ok(None)` means "not ours" (e.g. allocated before the
    /// wrapper was preloaded).
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] if the guard word was overwritten.
    pub fn verify(
        &self,
        proc: &Proc,
        payload: VirtAddr,
    ) -> Result<Option<GuardedAlloc>, Violation> {
        let guard = self.live.lock();
        let Some(alloc) = guard.by_payload.get(&payload.get()).copied() else {
            return Ok(None);
        };
        drop(guard);
        check_canary(proc, alloc)
    }

    /// Removes an allocation from protection (it is being freed).
    pub fn release(&self, payload: VirtAddr) -> Option<GuardedAlloc> {
        let mut live = self.live.lock();
        if !live.by_payload.contains_key(&payload.get()) {
            return None;
        }
        // Bump-before-mutate, same reasoning as in `protect`.
        self.epoch.fetch_add(1, Ordering::Release);
        live.remove(payload.get())
    }

    /// The registry's validation epoch: advances on every `protect` and
    /// every successful `release`, strictly before the live set changes
    /// (`Acquire`, pairing with the `Release` bumps).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether the exact-lookup and range-query views currently hold the
    /// same payload set — the invariant every mutation re-establishes
    /// before its lock releases. A full comparison, linear in the live
    /// set, exposed for concurrency stress tests; debug builds assert
    /// only its per-mutation form (the touched key and both lengths).
    pub fn views_agree(&self) -> bool {
        self.live.lock().views_agree()
    }

    /// Sweeps every live canary — the wrapper runs this at process exit
    /// and tests run it after suspect operations.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn sweep(&self, proc: &Proc) -> Result<(), Violation> {
        let live = self.live.lock();
        // Address order, so "first violation" stays deterministic.
        for alloc in live.sorted.values() {
            check_canary(proc, *alloc)?;
        }
        Ok(())
    }

    /// The requested size of a protected allocation, if `addr` points
    /// inside one — the registry's contribution to the extent oracle.
    pub fn extent_within(&self, addr: VirtAddr) -> Option<u64> {
        let guard = self.live.lock();
        // The allocation with the greatest payload <= addr.
        let (_, alloc) = guard.sorted.range(..=addr.get()).next_back()?;
        let end = alloc.payload.add(alloc.requested);
        if addr >= alloc.payload && addr < end {
            Some(end.diff(addr))
        } else {
            None
        }
    }

    /// The protected allocation whose payload contains `addr`, if any —
    /// the precise-object answer the oblivious shadow-write ledger needs
    /// to attribute a suppressed write to a base address and size.
    pub fn region_of(&self, addr: VirtAddr) -> Option<GuardedAlloc> {
        let guard = self.live.lock();
        let (_, alloc) = guard.sorted.range(..=addr.get()).next_back()?;
        if addr >= alloc.payload && addr < alloc.payload.add(alloc.requested) {
            Some(*alloc)
        } else {
            None
        }
    }

    /// Whether `addr` points inside any protected allocation (payload or
    /// guard word).
    pub fn contains(&self, addr: VirtAddr) -> bool {
        let guard = self.live.lock();
        match guard.sorted.range(..=addr.get()).next_back() {
            Some((_, alloc)) => {
                addr >= alloc.payload && addr < alloc.canary_addr().add(CANARY_LEN)
            }
            None => false,
        }
    }

    /// Number of live protected allocations.
    pub fn len(&self) -> usize {
        self.live.lock().by_payload.len()
    }

    /// `true` when nothing is protected.
    pub fn is_empty(&self) -> bool {
        self.live.lock().by_payload.is_empty()
    }
}

/// Compares the guard word in memory against the expected canary.
/// Alloc-free (`peek_u64`): this runs on every wrapped `free`/`realloc`.
fn check_canary(
    proc: &Proc,
    alloc: GuardedAlloc,
) -> Result<Option<GuardedAlloc>, Violation> {
    let found = proc.mem.peek_u64(alloc.canary_addr()).unwrap_or(0);
    if found == canary_value(alloc.payload) {
        Ok(Some(alloc))
    } else {
        Err(Violation { alloc, found })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlibc::heap;
    use simlibc::testutil::libc_proc;

    fn guarded_alloc(proc: &mut Proc, reg: &CanaryRegistry, n: u64) -> VirtAddr {
        let ptr = heap::malloc(proc, n + CANARY_LEN).unwrap();
        reg.protect(proc, ptr, n).unwrap();
        ptr
    }

    #[test]
    fn protect_verify_release_roundtrip() {
        let mut p = libc_proc();
        let reg = CanaryRegistry::new();
        let ptr = guarded_alloc(&mut p, &reg, 32);
        assert_eq!(reg.len(), 1);
        assert!(reg.verify(&p, ptr).unwrap().is_some());
        assert!(reg.sweep(&p).is_ok());
        let released = reg.release(ptr).unwrap();
        assert_eq!(released.requested, 32);
        assert!(reg.is_empty());
        // Unknown pointers are "not ours".
        assert!(reg.verify(&p, ptr).unwrap().is_none());
    }

    #[test]
    fn one_byte_overflow_is_detected() {
        let mut p = libc_proc();
        let reg = CanaryRegistry::new();
        let ptr = guarded_alloc(&mut p, &reg, 16);
        // Write exactly within bounds: fine.
        p.mem.write_bytes(ptr, &[0xAA; 16]).unwrap();
        assert!(reg.verify(&p, ptr).is_ok());
        // One byte past the end: caught.
        p.mem.write_u8(ptr.add(16), 0x41).unwrap();
        let v = reg.verify(&p, ptr).unwrap_err();
        assert_eq!(v.alloc.payload, ptr);
        assert!(v.fault().to_string().contains("canary"));
    }

    #[test]
    fn sweep_finds_any_violation() {
        let mut p = libc_proc();
        let reg = CanaryRegistry::new();
        let a = guarded_alloc(&mut p, &reg, 8);
        let b = guarded_alloc(&mut p, &reg, 8);
        p.mem.write_u8(b.add(8), 1).unwrap();
        let v = reg.sweep(&p).unwrap_err();
        assert_eq!(v.alloc.payload, b);
        let _ = a;
    }

    #[test]
    fn extent_within_is_request_sized() {
        let mut p = libc_proc();
        let reg = CanaryRegistry::new();
        let ptr = guarded_alloc(&mut p, &reg, 20);
        assert_eq!(reg.extent_within(ptr), Some(20));
        assert_eq!(reg.extent_within(ptr.add(5)), Some(15));
        assert_eq!(reg.extent_within(ptr.add(20)), None, "guard word is not writable");
        assert_eq!(reg.extent_within(ptr.sub(1)), None);
        assert!(
            reg.contains(ptr.add(20)),
            "guard word still 'inside' for ownership checks"
        );
    }

    #[test]
    fn epoch_tracks_live_set_mutations_only() {
        let mut p = libc_proc();
        let reg = CanaryRegistry::new();
        let e0 = reg.epoch();
        let ptr = guarded_alloc(&mut p, &reg, 16);
        let e1 = reg.epoch();
        assert!(e1 > e0, "protect must bump the epoch");
        // Queries leave it alone.
        let _ = reg.verify(&p, ptr);
        let _ = reg.extent_within(ptr);
        let _ = reg.contains(ptr);
        let _ = reg.sweep(&p);
        assert_eq!(reg.epoch(), e1);
        // Release of something we own bumps; of a stranger, it does not.
        assert!(reg.release(ptr).is_some());
        let e2 = reg.epoch();
        assert!(e2 > e1, "release must bump the epoch");
        assert!(reg.release(ptr).is_none());
        assert_eq!(reg.epoch(), e2, "failed release must not bump");
    }

    #[test]
    fn concurrent_register_verify_release_keeps_views_agreeing() {
        use std::sync::Arc;
        const THREADS: u64 = 8;
        const OPS: u64 = 400;
        let reg = Arc::new(CanaryRegistry::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    // Each thread registers addresses from its own arena;
                    // the *registry* (views, lock, epoch) is the shared
                    // state under attack.
                    let mut p = Proc::new();
                    let base = VirtAddr::new(0x5000_0000 + t * 0x10_0000);
                    p.mem.map(base, 0x1_0000, simproc::Prot::RW, "arena").unwrap();
                    let mut last_epoch = reg.epoch();
                    for i in 0..OPS {
                        let ptr = base.add((i % 64) * 64);
                        reg.protect(&mut p, ptr, 24).unwrap();
                        assert!(reg.verify(&p, ptr).unwrap().is_some());
                        assert!(reg.views_agree(), "views diverged under contention");
                        let e = reg.epoch();
                        assert!(e >= last_epoch, "epoch went backwards");
                        last_epoch = e;
                        assert!(reg.release(ptr).is_some());
                        assert!(reg.verify(&p, ptr).unwrap().is_none());
                    }
                });
            }
        });
        assert!(reg.is_empty());
        assert!(reg.views_agree());
        // Every protect and every successful release bumped exactly once.
        assert_eq!(reg.epoch(), THREADS * OPS * 2);
    }

    #[test]
    fn canary_values_differ_by_address_and_are_nonzero() {
        let a = canary_value(VirtAddr::new(0x1000));
        let b = canary_value(VirtAddr::new(0x1010));
        assert_ne!(a, b);
        assert_ne!(a, 0);
        assert_eq!(a, canary_value(VirtAddr::new(0x1000)), "deterministic");
    }
}
