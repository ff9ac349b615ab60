//! The 4-bank L1 wrapper.
//!
//! Routes physical lines to banks via the low line-address bits, tracks
//! hits/misses/fills per bank, and reports fill/eviction events so the way
//! tables can maintain their validity bits ("validity bits are set/reset on
//! cache line fills/evictions", Sec. V).

use malec_types::addr::{LineAddr, WayId};
use malec_types::geometry::CacheGeometry;

use crate::bank::CacheBank;

/// A fill (and possible eviction) that occurred in the L1; consumed by the
/// way tables to maintain validity bits via reverse TLB lookups.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct L1FillEvent {
    /// The line that was installed.
    pub filled: LineAddr,
    /// The way it was installed into.
    pub way: WayId,
    /// The line that was evicted to make room, if any.
    pub evicted: Option<LineAddr>,
}

/// The banked, physically indexed, physically tagged L1 data cache.
///
/// # Example
///
/// ```
/// use malec_mem::l1::BankedL1;
/// use malec_types::addr::LineAddr;
/// use malec_types::params;
///
/// let mut l1 = BankedL1::new(params::L1);
/// let line = LineAddr::new(0x40);
/// assert!(l1.lookup(line).is_none());
/// l1.fill(line, None);
/// assert!(l1.lookup(line).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct BankedL1 {
    geometry: CacheGeometry,
    banks: Vec<CacheBank>,
    hits: u64,
    misses: u64,
}

impl BankedL1 {
    /// Creates an empty L1 with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let banks = (0..geometry.banks())
            .map(|_| CacheBank::new(geometry.sets_per_bank(), geometry.ways()))
            .collect();
        Self {
            geometry,
            banks,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    #[cfg(test)]
    fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Looks up a physical line, updating LRU and hit/miss statistics.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<WayId> {
        let bank = self.geometry.bank_of_line(line);
        let set = self.geometry.set_of_line(line).0;
        let tag = self.geometry.tag_of_line(line);
        let res = self.banks[bank.0 as usize].lookup(set, tag);
        if res.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        res
    }

    /// Checks residency without touching LRU or statistics.
    #[inline]
    pub(crate) fn probe(&self, line: LineAddr) -> Option<WayId> {
        let bank = self.geometry.bank_of_line(line);
        let set = self.geometry.set_of_line(line).0;
        let tag = self.geometry.tag_of_line(line);
        self.banks[bank.0 as usize].probe(set, tag)
    }

    /// Installs `line`, optionally steering the allocation away from
    /// `exclude_way` (the WT fill restriction), and reports what happened.
    #[inline]
    pub fn fill(&mut self, line: LineAddr, exclude_way: Option<WayId>) -> L1FillEvent {
        let bank = self.geometry.bank_of_line(line);
        let set = self.geometry.set_of_line(line).0;
        let tag = self.geometry.tag_of_line(line);
        let outcome = self.banks[bank.0 as usize].fill(set, tag, exclude_way);
        let evicted = outcome.evicted_tag.map(|etag| {
            // Rebuild the evicted line address from (tag, set, bank).
            let set_bits = self.geometry.sets_per_bank().trailing_zeros();
            let bank_bits = self.geometry.banks().trailing_zeros();
            LineAddr::new(
                (etag << (set_bits + bank_bits))
                    | (u64::from(set) << bank_bits)
                    | u64::from(bank.0),
            )
        });
        L1FillEvent {
            filled: line,
            way: outcome.way,
            evicted,
        }
    }

    /// Total lookups that hit.
    #[cfg(test)]
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups that missed.
    #[cfg(test)]
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over all lookups (0 if no lookups yet).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Number of resident lines.
    #[cfg(test)]
    fn occupancy(&self) -> usize {
        self.banks.iter().map(CacheBank::occupancy).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_types::params;
    use proptest::prelude::*;

    fn l1() -> BankedL1 {
        BankedL1::new(params::L1)
    }

    #[test]
    fn adjacent_lines_hit_different_banks() {
        let l1 = l1();
        let b: Vec<u8> = (0..4)
            .map(|i| l1.geometry().bank_of_line(LineAddr::new(i)).0)
            .collect();
        assert_eq!(b, [0, 1, 2, 3]);
    }

    #[test]
    fn fill_then_hit_counts_stats() {
        let mut l1 = l1();
        let line = LineAddr::new(0x1234);
        assert!(l1.lookup(line).is_none());
        l1.fill(line, None);
        assert!(l1.lookup(line).is_some());
        assert_eq!(l1.hits(), 1);
        assert_eq!(l1.misses(), 1);
        assert!((l1.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_reconstructs_line_address() {
        let mut l1 = l1();
        // 5 lines mapping to the same (bank, set): stride = banks * sets = 128 lines.
        let base = 0x40u64;
        let lines: Vec<LineAddr> = (0..5).map(|i| LineAddr::new(base + i * 128)).collect();
        let mut evicted = None;
        for &line in &lines {
            let ev = l1.fill(line, None);
            if ev.evicted.is_some() {
                evicted = ev.evicted;
            }
        }
        let evicted = evicted.expect("5 fills into a 4-way set must evict");
        assert!(lines.contains(&evicted));
        assert!(l1.probe(evicted).is_none());
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut l1 = l1();
        let capacity = (32 * 1024 / 64) as usize;
        for i in 0..(capacity as u64 * 3) {
            l1.fill(LineAddr::new(i), None);
        }
        assert_eq!(l1.occupancy(), capacity);
    }

    #[test]
    fn exclude_way_respected_under_pressure() {
        let mut l1 = l1();
        // All fills to one set, always excluding way 1.
        for i in 0..16u64 {
            let ev = l1.fill(LineAddr::new(i * 128), Some(WayId(1)));
            assert_ne!(ev.way, WayId(1));
        }
    }

    proptest! {
        #[test]
        fn prop_probe_after_fill(line in 0u64..(1 << 26)) {
            let mut l1 = l1();
            let ev = l1.fill(LineAddr::new(line), None);
            prop_assert_eq!(l1.probe(LineAddr::new(line)), Some(ev.way));
        }

        #[test]
        fn prop_eviction_only_from_same_set(lines in proptest::collection::vec(0u64..(1 << 20), 1..64)) {
            let mut l1 = l1();
            let g = params::L1;
            for raw in lines {
                let line = LineAddr::new(raw);
                let ev = l1.fill(line, None);
                if let Some(evicted) = ev.evicted {
                    prop_assert_eq!(g.bank_of_line(evicted), g.bank_of_line(line));
                    prop_assert_eq!(g.set_of_line(evicted), g.set_of_line(line));
                }
            }
        }
    }
}
