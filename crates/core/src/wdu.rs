//! The Way Determination Unit of Nicolaescu et al. (DATE'03), extended with
//! validity bits as the paper does for its Sec. VI-C comparison.
//!
//! The WDU stores way information for recently accessed cache *lines* in a
//! small fully-associative buffer (8/16/32 entries analyzed). Unlike the
//! page-based way tables it needs one tag-sized lookup port per parallel
//! memory reference (four for the analyzed MALEC configuration), and its
//! line granularity covers a much smaller footprint than 16–64 pages.

use malec_types::addr::{LineAddr, WayId};

use malec_mem::replacement::Lru;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct WduEntry {
    line: LineAddr,
    way: WayId,
    valid: bool,
}

/// A line-granularity way-determination buffer with LRU replacement and
/// validity bits.
///
/// # Example
///
/// ```
/// use malec_core::wdu::Wdu;
/// use malec_types::addr::{LineAddr, WayId};
///
/// let mut wdu = Wdu::new(8);
/// let line = LineAddr::new(0x40);
/// assert_eq!(wdu.lookup(line), None);
/// wdu.record(line, WayId(2));
/// assert_eq!(wdu.lookup(line), Some(WayId(2)));
/// ```
#[derive(Clone, Debug)]
pub struct Wdu {
    entries: Vec<Option<WduEntry>>,
    lru: Lru,
}

impl Wdu {
    /// Creates an empty WDU with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "WDU needs entries");
        Self {
            entries: vec![None; entries],
            lru: Lru::new(entries),
        }
    }

    /// Looks up the way for `line`; `Some(way)` only when the entry is valid
    /// (reduced cache access allowed).
    pub fn lookup(&mut self, line: LineAddr) -> Option<WayId> {
        let found = self
            .entries
            .iter()
            .position(|e| matches!(e, Some(e) if e.line == line));
        if let Some(slot) = found {
            self.lru.touch(slot);
            let e = self.entries[slot].expect("slot occupied");
            if e.valid {
                return Some(e.way);
            }
        }
        None
    }

    /// Records that `line` was found in `way` (install or refresh).
    pub fn record(&mut self, line: LineAddr, way: WayId) {
        if let Some(slot) = self
            .entries
            .iter()
            .position(|e| matches!(e, Some(e) if e.line == line))
        {
            self.entries[slot] = Some(WduEntry {
                line,
                way,
                valid: true,
            });
            self.lru.touch(slot);
            return;
        }
        let slot = self
            .entries
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| self.lru.victim());
        self.entries[slot] = Some(WduEntry {
            line,
            way,
            valid: true,
        });
        self.lru.touch(slot);
    }

    /// Invalidates the entry for `line` if present (cache eviction).
    pub(crate) fn invalidate(&mut self, line: LineAddr) {
        if let Some(slot) = self
            .entries
            .iter()
            .position(|e| matches!(e, Some(e) if e.line == line))
        {
            if let Some(e) = &mut self.entries[slot] {
                e.valid = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn miss_record_hit() {
        let mut w = Wdu::new(4);
        let line = LineAddr::new(9);
        assert_eq!(w.lookup(line), None);
        w.record(line, WayId(1));
        assert_eq!(w.lookup(line), Some(WayId(1)));
    }

    #[test]
    fn lru_eviction_drops_cold_lines() {
        let mut w = Wdu::new(2);
        w.record(LineAddr::new(1), WayId(0));
        w.record(LineAddr::new(2), WayId(1));
        // Touch line 1 to keep it hot.
        assert!(w.lookup(LineAddr::new(1)).is_some());
        w.record(LineAddr::new(3), WayId(2));
        assert_eq!(w.lookup(LineAddr::new(2)), None, "cold line evicted");
        assert!(w.lookup(LineAddr::new(1)).is_some());
        assert!(w.lookup(LineAddr::new(3)).is_some());
    }

    #[test]
    fn invalidate_keeps_entry_but_blocks_reduced_access() {
        let mut w = Wdu::new(4);
        let line = LineAddr::new(5);
        w.record(line, WayId(3));
        w.invalidate(line);
        assert_eq!(w.lookup(line), None);
        // Re-recording revalidates.
        w.record(line, WayId(2));
        assert_eq!(w.lookup(line), Some(WayId(2)));
    }

    #[test]
    fn bigger_wdu_covers_more() {
        // A working set of 24 lines cycled repeatedly: a 32-entry WDU holds
        // it all; an 8-entry WDU thrashes.
        // Coverage is the share of lookups that hit.
        let lines: Vec<LineAddr> = (0..24).map(LineAddr::new).collect();
        let coverage = |entries: usize| {
            let mut w = Wdu::new(entries);
            let mut hits = 0u32;
            for _ in 0..50 {
                for &l in &lines {
                    if w.lookup(l).is_some() {
                        hits += 1;
                    } else {
                        w.record(l, WayId(0));
                    }
                }
            }
            f64::from(hits) / (50.0 * lines.len() as f64)
        };
        let (small, big) = (coverage(8), coverage(32));
        assert!(big > small + 0.3, "big={big} small={small}");
    }

    proptest! {
        #[test]
        fn prop_capacity_never_exceeded(ops in proptest::collection::vec((0u64..64, 0u8..4), 0..256)) {
            let mut w = Wdu::new(8);
            for (line, way) in ops {
                w.record(LineAddr::new(line), WayId(way));
            }
            let occupied = w.entries.iter().filter(|e| e.is_some()).count();
            prop_assert!(occupied <= 8);
        }

        #[test]
        fn prop_lookup_after_record(line in 0u64..1024, way in 0u8..4) {
            let mut w = Wdu::new(8);
            w.record(LineAddr::new(line), WayId(way));
            prop_assert_eq!(w.lookup(LineAddr::new(line)), Some(WayId(way)));
        }
    }
}
