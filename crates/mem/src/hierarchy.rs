//! Glue: a single call resolving "where is this physical line, what is the
//! latency beyond the L1, and which fills/evictions occurred".
//!
//! The L1 *interfaces* in `malec-core` own the L1 timing (hit latency, bank
//! arbitration, way determination); this type owns residency: L1 lookup, and
//! on a miss the L2/DRAM fetch plus the L1 fill and its eviction, reported
//! as events for way-table validity maintenance.

use malec_types::addr::{LineAddr, WayId};
use malec_types::SimConfig;

use crate::backing::{BackingMemory, BackingOutcome};
use crate::l1::{BankedL1, L1FillEvent};

/// Outcome of resolving one line through the hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessOutcome {
    /// Whether the line was already resident in the L1.
    pub l1_hit: bool,
    /// The way the line occupies (after fill, on a miss).
    pub way: WayId,
    /// Extra cycles beyond the L1 hit latency (0 on an L1 hit).
    pub extra_latency: u32,
    /// Fill/eviction event, present only on an L1 miss.
    pub fill: Option<L1FillEvent>,
    /// Where the backing access was satisfied (miss only).
    pub backing: Option<BackingOutcome>,
}

/// The L1 + L2 + DRAM residency model.
///
/// # Example
///
/// ```
/// use malec_mem::hierarchy::MemoryHierarchy;
/// use malec_types::addr::LineAddr;
/// use malec_types::SimConfig;
///
/// let mut mem = MemoryHierarchy::for_config(&SimConfig::malec());
/// let line = LineAddr::new(0x80);
/// let miss = mem.resolve_line(line, None);
/// assert!(!miss.l1_hit);
/// let hit = mem.resolve_line(line, None);
/// assert!(hit.l1_hit);
/// assert_eq!(hit.extra_latency, 0);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1: BankedL1,
    backing: BackingMemory,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for a configuration.
    pub fn for_config(config: &SimConfig) -> Self {
        Self {
            l1: BankedL1::new(config.l1),
            backing: BackingMemory::default(),
        }
    }

    /// Resolves `line`: L1 lookup, then (on a miss) L2/DRAM fetch, L1 fill
    /// and writeback of any evicted line. `exclude_way` steers fills away
    /// from a way (the WT fill restriction); pass `None` normally.
    #[inline]
    pub fn resolve_line(&mut self, line: LineAddr, exclude_way: Option<WayId>) -> AccessOutcome {
        if let Some(way) = self.l1.lookup(line) {
            return AccessOutcome {
                l1_hit: true,
                way,
                extra_latency: 0,
                fill: None,
                backing: None,
            };
        }
        let (outcome, latency) = self.backing.fetch(line);
        let fill = self.l1.fill(line, exclude_way);
        if let Some(evicted) = fill.evicted {
            self.backing.accept_writeback(evicted);
        }
        AccessOutcome {
            l1_hit: false,
            way: fill.way,
            extra_latency: latency,
            fill: Some(fill),
            backing: Some(outcome),
        }
    }

    /// Residency probe without any state change.
    pub fn probe_l1(&self, line: LineAddr) -> Option<WayId> {
        self.l1.probe(line)
    }

    /// The L1 (for statistics).
    pub fn l1(&self) -> &BankedL1 {
        &self.l1
    }

    /// The backing memory (for statistics).
    pub fn backing(&self) -> &BackingMemory {
        &self.backing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_types::SimConfig;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::for_config(&SimConfig::malec())
    }

    #[test]
    fn cold_miss_pays_dram_then_l2_then_l1() {
        let mut m = hierarchy();
        let line = LineAddr::new(5);
        let first = m.resolve_line(line, None);
        assert!(!first.l1_hit);
        assert_eq!(first.extra_latency, 12 + 54);
        assert_eq!(first.backing, Some(BackingOutcome::DramFill));
        assert!(first.fill.is_some());

        let second = m.resolve_line(line, None);
        assert!(second.l1_hit);
        assert_eq!(second.extra_latency, 0);
        assert_eq!(second.way, first.way);
    }

    #[test]
    fn conflict_eviction_is_reported_and_refetches_from_l2() {
        let mut m = hierarchy();
        // 5 lines to one set (stride 128 lines).
        let lines: Vec<LineAddr> = (0..5).map(|i| LineAddr::new(1 + i * 128)).collect();
        let mut evicted = None;
        for &l in &lines {
            let out = m.resolve_line(l, None);
            if let Some(fill) = out.fill {
                if fill.evicted.is_some() {
                    evicted = fill.evicted;
                }
            }
        }
        let evicted = evicted.expect("eviction expected");
        // Re-access of the evicted line: L1 miss but L2 hit (writeback).
        let out = m.resolve_line(evicted, None);
        assert!(!out.l1_hit);
        assert_eq!(out.backing, Some(BackingOutcome::L2Hit));
        assert_eq!(out.extra_latency, 12);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut m = hierarchy();
        let line = LineAddr::new(9);
        assert!(m.probe_l1(line).is_none());
        assert_eq!(m.l1().hits() + m.l1().misses(), 0);
        m.resolve_line(line, None);
        assert!(m.probe_l1(line).is_some());
    }

    #[test]
    fn exclude_way_is_honoured_on_fill() {
        let mut m = hierarchy();
        for i in 0..12u64 {
            let out = m.resolve_line(LineAddr::new(2 + i * 128), Some(WayId(0)));
            if !out.l1_hit {
                assert_ne!(out.way, WayId(0));
            }
        }
    }
}
