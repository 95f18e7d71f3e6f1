//! Property tests for the simulated address space: access checking is
//! exact (no byte leaks across protection boundaries), round-trips hold,
//! and extents agree with the mapping.

use proptest::prelude::*;

use simproc::{Access, AddressSpace, Fault, Proc, Prot, VirtAddr};

/// A deliberately naive reference model of the address space: an unsorted
/// region list queried by linear scan. This is the pre-index semantics the
/// binary-search + MRU-cache implementation must reproduce exactly.
#[derive(Default)]
struct LinearModel {
    /// `(base, len, prot)`, in insertion order.
    regions: Vec<(u64, u64, Prot)>,
}

impl LinearModel {
    fn region_at(&self, addr: u64) -> Option<usize> {
        self.regions.iter().position(|&(b, l, _)| addr >= b && addr - b < l)
    }

    fn map(&mut self, base: u64, len: u64, prot: Prot) -> bool {
        if len == 0 || base.checked_add(len).is_none() {
            return false;
        }
        if self.regions.iter().any(|&(b, l, _)| base < b + l && base + len > b) {
            return false;
        }
        self.regions.push((base, len, prot));
        true
    }

    fn unmap(&mut self, base: u64) -> bool {
        match self.regions.iter().position(|&(b, _, _)| b == base) {
            Some(i) => {
                self.regions.remove(i);
                true
            }
            None => false,
        }
    }

    fn protect(&mut self, addr: u64, prot: Prot) -> bool {
        match self.region_at(addr) {
            Some(i) => {
                self.regions[i].2 = prot;
                true
            }
            None => false,
        }
    }

    fn extent(&self, addr: u64, access: Access) -> u64 {
        let mut cur = addr;
        let mut total = 0u64;
        while let Some(i) = self.region_at(cur) {
            let (b, l, p) = self.regions[i];
            if !p.allows(access) {
                break;
            }
            let span = b + l - cur;
            total += span;
            cur += span;
        }
        total
    }

    /// `Err(addr)` reports the first offending byte, like `Fault::Segv`.
    fn check(&self, addr: u64, len: u64, access: Access) -> Result<(), u64> {
        if len == 0 {
            return Ok(());
        }
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            match self.region_at(cur) {
                Some(i) if self.regions[i].2.allows(access) => {
                    let (b, l, _) = self.regions[i];
                    let span = (b + l - cur).min(remaining);
                    cur += span;
                    remaining -= span;
                }
                _ => return Err(cur),
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn write_read_roundtrip(
        offset in 0u64..0x800,
        data in prop::collection::vec(any::<u8>(), 1..256),
    ) {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x1000, Prot::RW, "r").unwrap();
        let addr = VirtAddr::new(0x1000 + offset);
        m.write_bytes(addr, &data).unwrap();
        prop_assert_eq!(m.read_bytes(addr, data.len() as u64).unwrap(), data);
    }

    #[test]
    fn access_past_the_end_faults_at_the_exact_byte(
        len in 1u64..0x100,
        overshoot in 1u64..0x40,
    ) {
        let mut m = AddressSpace::new();
        let base = VirtAddr::new(0x1000);
        m.map(base, len, Prot::RW, "r").unwrap();
        // Reading exactly to the end succeeds...
        prop_assert!(m.read_bytes(base, len).is_ok());
        // ...one past faults, reporting the first unmapped address.
        let err = m.read_bytes(base, len + overshoot).unwrap_err();
        match err {
            Fault::Segv { addr, access: Access::Read, .. } => {
                prop_assert_eq!(addr, base.add(len));
            }
            other => prop_assert!(false, "unexpected fault {other:?}"),
        }
        // And the failed read must not have been partially visible as a
        // write: failed writes are all-or-nothing.
        let junk = vec![0xAA; (len + overshoot) as usize];
        let before = m.read_bytes(base, len).unwrap();
        prop_assert!(m.write_bytes(base, &junk).is_err());
        prop_assert_eq!(m.read_bytes(base, len).unwrap(), before);
    }

    #[test]
    fn extents_match_mapping(
        len_a in 1u64..0x100,
        gap in 0u64..2,
        len_b in 1u64..0x100,
        probe in 0u64..0x80,
    ) {
        let mut m = AddressSpace::new();
        let a = VirtAddr::new(0x1000);
        m.map(a, len_a, Prot::RW, "a").unwrap();
        let b = a.add(len_a + gap * 16);
        m.map(b, len_b, Prot::R, "b").unwrap();
        let addr = a.add(probe % len_a);
        let w = m.accessible_extent(addr, Access::Write);
        let r = m.accessible_extent(addr, Access::Read);
        prop_assert_eq!(w, len_a - (probe % len_a), "write stops at RW end");
        if gap == 0 {
            prop_assert_eq!(r, len_a + len_b - (probe % len_a), "read spans into RO");
        } else {
            prop_assert_eq!(r, len_a - (probe % len_a));
        }
    }

    #[test]
    fn overlapping_maps_rejected(
        base in 0x1000u64..0x2000,
        len in 1u64..0x1000,
    ) {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1800), 0x800, Prot::RW, "existing").unwrap();
        let r = m.map(VirtAddr::new(base), len, Prot::RW, "new");
        let overlaps = base < 0x2000 && base + len > 0x1800;
        prop_assert_eq!(r.is_err(), overlaps, "base={:#x} len={:#x}", base, len);
    }

    #[test]
    fn peek_poke_agree_with_checked_access(
        data in prop::collection::vec(any::<u8>(), 1..64),
        off in 0u64..0x100,
    ) {
        let mut m = AddressSpace::new();
        m.map(VirtAddr::new(0x1000), 0x200, Prot::R, "ro").unwrap();
        let addr = VirtAddr::new(0x1000 + off % 0x100);
        // Checked write refused; poke succeeds; checked read sees it.
        prop_assert!(m.write_bytes(addr, &data).is_err());
        prop_assert!(m.poke_bytes(addr, &data));
        prop_assert_eq!(m.read_bytes(addr, data.len() as u64).unwrap(), data.clone());
        prop_assert_eq!(m.peek_bytes(addr, data.len() as u64).unwrap(), data);
        // Poking unmapped memory fails without partial effects.
        prop_assert!(!m.poke_bytes(VirtAddr::new(0x11f0), &[0u8; 64]));
    }

    #[test]
    fn fuel_accounting_is_monotonic(ops in prop::collection::vec(any::<u8>(), 1..64)) {
        let mut p = Proc::new();
        let mut last = p.cycles();
        let a = p.alloc_data_zeroed(256);
        for (i, b) in ops.iter().enumerate() {
            p.write_u8(a.add(i as u64 % 256), *b).unwrap();
            prop_assert!(p.cycles() > last);
            last = p.cycles();
        }
    }

    /// Differential test for the tentpole index: random
    /// map/unmap/protect/access sequences must produce byte-identical
    /// Fault and extent answers from the indexed (binary search + MRU
    /// cache) address space and the linear-scan reference model above.
    /// Slot bases are 0x100 apart with lengths up to 0x300, so sequences
    /// exercise rejected overlaps, adjacency (extent coalescing across
    /// regions) and gaps.
    #[test]
    fn indexed_oracle_matches_linear_reference(
        ops in prop::collection::vec(
            (0u8..5, 0u8..12u8, 1u64..0x300, 0usize..4, 0usize..3, 0u64..0x1000),
            1..64,
        ),
    ) {
        const PROTS: [Prot; 4] = [Prot::NONE, Prot::R, Prot::RW, Prot::RX];
        const ACCESSES: [Access; 3] = [Access::Read, Access::Write, Access::Exec];
        let mut m = AddressSpace::new();
        let mut reference = LinearModel::default();
        for (kind, slot, len, prot, access, probe) in ops {
            let base = 0x1000 + u64::from(slot) * 0x100;
            let prot = PROTS[prot];
            let access = ACCESSES[access];
            let addr = 0x1000 + probe;
            match kind {
                0 => prop_assert_eq!(
                    m.map(VirtAddr::new(base), len, prot, "p").is_ok(),
                    reference.map(base, len, prot),
                    "map {:#x}+{:#x} diverged", base, len
                ),
                1 => prop_assert_eq!(m.unmap(VirtAddr::new(base)), reference.unmap(base)),
                2 => prop_assert_eq!(
                    m.protect(VirtAddr::new(addr), prot),
                    reference.protect(addr, prot)
                ),
                3 => prop_assert_eq!(
                    m.accessible_extent(VirtAddr::new(addr), access),
                    reference.extent(addr, access),
                    "extent at {:#x} diverged", addr
                ),
                _ => {
                    let got = m.check(VirtAddr::new(addr), len, access);
                    let want = reference.check(addr, len, access);
                    match (got, want) {
                        (Ok(()), Ok(())) => {}
                        (Err(Fault::Segv { addr: fa, access: aa, .. }), Err(ea)) => {
                            prop_assert_eq!(fa.get(), ea, "fault address diverged");
                            prop_assert_eq!(aa, access);
                        }
                        (g, w) => prop_assert!(
                            false,
                            "check at {:#x} len {:#x} diverged: {:?} vs {:?}",
                            addr, len, g, w
                        ),
                    }
                }
            }
        }
    }

    /// The buffer pool's invariant through every write path: however a
    /// process wrote its regions, the buffers they return to the pool come
    /// back all-zero. Regions are 4 KiB or more (the pool's floor), of
    /// distinct fixed lengths, so each remap takes back the very buffer its
    /// region dirtied; three are contiguous, so writes and copies cross
    /// region edges, and one is read-only, so checked writes fault and
    /// pokes do not. Offsets cluster at power-of-two boundaries from 256
    /// bytes (the smallest chunk) to 256 KiB, and at each region's first
    /// and last byte.
    #[test]
    fn pooled_buffers_return_all_zero_after_any_writes(
        ops in prop::collection::vec(
            (0u8..6, 0usize..4, (0u8..4, 8u32..19, 0u64..8, 0u64..16), 0u64..0x5000, 1u8..=255),
            1..48,
        ),
    ) {
        const LENS: [u64; 4] = [0x1234, 0x2_0077, 0x10_0000, 0x20_0000];
        const PROTS: [Prot; 4] = [Prot::RW, Prot::RW, Prot::RW, Prot::R];
        let mut bases = [VirtAddr::new(0x10_0000); 4];
        for i in 1..3 {
            bases[i] = bases[i - 1].add(LENS[i - 1]);
        }
        bases[3] = bases[2].add(LENS[2] + 0x1000);
        let map_all = |m: &mut AddressSpace| {
            for i in 0..4 {
                m.map(bases[i], LENS[i], PROTS[i], "seg").unwrap();
            }
        };
        let backing = |m: &AddressSpace| bases.map(|b| m.peek_slice(b).unwrap().as_ptr());
        let mut m = AddressSpace::new();
        map_all(&mut m);
        let dirtied = backing(&m);
        for (kind, r, (near, pow, k, delta), n, v) in ops {
            let len = LENS[r];
            let off = match near {
                0 => 0,
                1 => len - 1,
                // Starting near a boundary,
                2 => ((k << pow) + delta).saturating_sub(8) % len,
                // or ending near one.
                _ => (k << pow).wrapping_sub(n).wrapping_add(delta) % len,
            };
            let addr = bases[r].add(off);
            let n = if kind == 0 { 1 } else { n };
            let bytes = vec![v; n as usize];
            let next = (r + 1) % 4;
            // Faults are fine: only what was written has to be re-zeroed.
            match kind {
                0 => drop(m.write_u8(addr, v)),
                1 => drop(m.write_bytes(addr, &bytes)),
                2 => drop(m.poke_bytes(addr, &bytes)),
                3 => drop(m.fill(addr, n, v)),
                // Copy within the region, from a spot it may have written,
                4 => drop(m.copy_within(addr, bases[r].add(off * 7 % len), n)),
                // or out of the next region.
                _ => drop(m.copy_within(addr, bases[next].add(off % LENS[next]), n)),
            }
        }
        for &b in &bases {
            prop_assert!(m.unmap(b));
        }
        map_all(&mut m);
        prop_assert_eq!(backing(&m), dirtied, "remap must reuse the pooled buffers");
        for i in 0..4 {
            let back = m.peek_bytes(bases[i], LENS[i]).unwrap();
            let stale = back.iter().position(|&b| b != 0);
            prop_assert!(stale.is_none(), "region {} byte {:#x} not re-zeroed", i, stale.unwrap_or(0));
        }
    }

    #[test]
    fn stack_frames_nest_and_unwind(depths in prop::collection::vec(1u64..64, 1..12)) {
        let mut p = Proc::new();
        let top = p.sp();
        for (i, d) in depths.iter().enumerate() {
            p.push_frame(&format!("f{i}")).unwrap();
            let buf = p.stack_alloc(*d).unwrap();
            p.write_bytes(buf, &vec![i as u8; *d as usize]).unwrap();
        }
        prop_assert_eq!(p.frame_depth(), depths.len());
        for _ in &depths {
            p.pop_frame().unwrap();
        }
        prop_assert_eq!(p.frame_depth(), 0);
        prop_assert_eq!(p.sp(), top, "stack pointer restored");
    }
}
