//! L2 + DRAM backing store with flat latencies (Table II: 1 MiB 16-way L2 at
//! 12 cycles, DRAM at 54 cycles).

use malec_types::addr::LineAddr;
use malec_types::params::{DRAM_LATENCY, L2, L2_LATENCY};

use crate::bank::CacheBank;

/// Where a backing access was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackingOutcome {
    /// Hit in the L2; latency is the L2 hit latency.
    L2Hit,
    /// Missed the L2 and went to DRAM; latency is L2 + DRAM.
    DramFill,
}

/// The memory system behind the L1: the Table II L2, inclusive, backed by
/// flat-latency DRAM.
///
/// # Example
///
/// ```
/// use malec_mem::backing::{BackingMemory, BackingOutcome};
/// use malec_types::addr::LineAddr;
///
/// let mut mem = BackingMemory::default();
/// let line = LineAddr::new(0x99);
/// let (first, lat1) = mem.fetch(line);
/// assert_eq!(first, BackingOutcome::DramFill);
/// assert_eq!(lat1, 12 + 54);
/// let (second, lat2) = mem.fetch(line);
/// assert_eq!(second, BackingOutcome::L2Hit);
/// assert_eq!(lat2, 12);
/// ```
#[derive(Clone, Debug)]
pub struct BackingMemory {
    l2: CacheBank,
    l2_hits: u64,
    l2_misses: u64,
}

/// log2 of the L2's set count: the set is the line's low bits, the tag the
/// bits above.
const SET_BITS: u32 = L2.total_set_bits();

impl Default for BackingMemory {
    /// An empty L2.
    fn default() -> Self {
        Self {
            l2: CacheBank::new(L2.total_sets(), L2.ways()),
            l2_hits: 0,
            l2_misses: 0,
        }
    }
}

impl BackingMemory {
    #[inline]
    fn set_and_tag(line: LineAddr) -> (u32, u64) {
        let set = line.raw() & ((1 << SET_BITS) - 1);
        (set as u32, line.raw() >> SET_BITS)
    }

    /// Fetches a line on behalf of an L1 miss, returning where it was found
    /// and the additional latency beyond the L1.
    ///
    /// A DRAM fill installs the line into the L2.
    #[inline]
    pub fn fetch(&mut self, line: LineAddr) -> (BackingOutcome, u32) {
        let (set, tag) = Self::set_and_tag(line);
        if self.l2.lookup(set, tag).is_some() {
            self.l2_hits += 1;
            (BackingOutcome::L2Hit, L2_LATENCY)
        } else {
            self.l2_misses += 1;
            self.l2.fill(set, tag, None);
            (BackingOutcome::DramFill, L2_LATENCY + DRAM_LATENCY)
        }
    }

    /// Accepts a line evicted from the L1 (inclusive hierarchy: make sure it
    /// is present in the L2 so a re-fetch is an L2 hit).
    #[inline]
    pub(crate) fn accept_writeback(&mut self, line: LineAddr) {
        let (set, tag) = Self::set_and_tag(line);
        self.l2.fill(set, tag, None);
    }

    /// L2 miss rate over backing fetches (0 if none).
    pub fn l2_miss_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> BackingMemory {
        BackingMemory::default()
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_l2() {
        let mut m = mem();
        let line = LineAddr::new(42);
        assert_eq!(m.fetch(line), (BackingOutcome::DramFill, 66));
        assert_eq!(m.fetch(line), (BackingOutcome::L2Hit, 12));
        assert_eq!(m.l2_hits, 1);
        assert_eq!(m.l2_misses, 1);
    }

    #[test]
    fn writeback_installs_into_l2() {
        let mut m = mem();
        let line = LineAddr::new(7);
        m.accept_writeback(line);
        assert_eq!(m.fetch(line), (BackingOutcome::L2Hit, 12));
    }

    #[test]
    fn capacity_misses_recur_for_giant_footprints() {
        let mut m = mem();
        let lines = 2 * 1024 * 1024 / 64; // 2 MiB footprint vs 1 MiB L2
        for i in 0..lines {
            m.fetch(LineAddr::new(i));
        }
        let misses_before = m.l2_misses;
        for i in 0..lines {
            m.fetch(LineAddr::new(i));
        }
        assert!(
            m.l2_misses > misses_before,
            "a 2x-capacity sweep must keep missing"
        );
    }

    #[test]
    fn miss_rate_reporting() {
        let mut m = mem();
        assert_eq!(m.l2_miss_rate(), 0.0);
        m.fetch(LineAddr::new(1));
        m.fetch(LineAddr::new(1));
        assert!((m.l2_miss_rate() - 0.5).abs() < 1e-12);
    }
}
