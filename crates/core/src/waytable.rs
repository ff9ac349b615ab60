//! Page-Based Way Determination: way tables coupled to the TLBs.
//!
//! A way-table entry holds combined validity + way information for every
//! cache line of one page in **2 bits per line** (Sec. V, Fig. 3): for the
//! line group `g = (line_index / banks) mod ways`, way `g` is declared
//! non-representable ("way unknown"), leaving exactly three encodable ways —
//! so {unknown, wayA, wayB, wayC} fits in 2 bits. This saves ⅓ of area and
//! leakage over a naive 1-valid-bit + 2-way-bit format (128 vs 192 bits for
//! 64 lines per page).
//!
//! One [`WayTable`] mirrors the uTLB slot-for-slot (the uWT), another
//! mirrors the TLB (the WT). A TLB hit returns the WT entry alongside the
//! translation, so one lookup services *all* references to the page.

use malec_types::addr::WayId;

const UNKNOWN: u8 = 0;

/// Combined validity/way slots for all lines of one page.
///
/// # Example
///
/// ```
/// use malec_core::waytable::WaySlots;
/// use malec_types::addr::WayId;
///
/// let mut slots = WaySlots::new(64, 4, 4);
/// assert_eq!(slots.get(10), None);
/// assert!(slots.set(10, WayId(0)));
/// assert_eq!(slots.get(10), Some(WayId(0)));
/// // Line 10's group is (10 / 4) % 4 = 2: way 2 is not representable.
/// assert!(!slots.set(10, WayId(2)));
/// assert_eq!(slots.get(10), None, "unrepresentable way reads as unknown");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WaySlots {
    codes: Box<[u8]>,
    /// `log2(banks)` and `ways - 1`: both are powers of two, so
    /// `(line / banks) mod ways` is a shift and a mask.
    bank_shift: u32,
    way_mask: u8,
}

impl WaySlots {
    /// Creates an all-unknown entry for a page of `lines` cache lines in a
    /// cache with `banks` banks and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `ways < 2` (2-bit encoding needs
    /// at least one representable way), or `banks` or `ways` is not a
    /// power of two (`CacheGeometry` holds both to it).
    pub fn new(lines: u32, banks: u32, ways: u32) -> Self {
        assert!(
            lines > 0 && banks > 0 && ways >= 2,
            "degenerate way-slot geometry"
        );
        assert!(
            banks.is_power_of_two() && ways.is_power_of_two() && ways <= 128,
            "way-slot banks and ways must be powers of two"
        );
        Self {
            codes: vec![UNKNOWN; lines as usize].into_boxed_slice(),
            bank_shift: banks.trailing_zeros(),
            way_mask: (ways - 1) as u8,
        }
    }

    /// The way that is *not* representable for `line_in_page` (always read
    /// as unknown): `(line / banks) mod ways`.
    #[inline]
    pub fn excluded_way(&self, line_in_page: u8) -> WayId {
        WayId((u32::from(line_in_page) >> self.bank_shift) as u8 & self.way_mask)
    }

    /// Way information for a line: `Some(way)` means valid-and-known (the
    /// access may bypass the tag arrays), `None` means unknown.
    pub fn get(&self, line_in_page: u8) -> Option<WayId> {
        let code = self.codes[line_in_page as usize];
        if code == UNKNOWN {
            return None;
        }
        let excluded = self.excluded_way(line_in_page).0;
        // Codes 1..ways map to the representable ways in increasing order.
        let idx = code - 1;
        let way = if idx >= excluded { idx + 1 } else { idx };
        Some(WayId(way))
    }

    /// Records that `line_in_page` resides in `way`. Returns `false` when
    /// the way equals the excluded way and therefore stays unknown.
    pub fn set(&mut self, line_in_page: u8, way: WayId) -> bool {
        let excluded = self.excluded_way(line_in_page).0;
        if way.0 == excluded || way.0 > self.way_mask {
            self.codes[line_in_page as usize] = UNKNOWN;
            return false;
        }
        let idx = if way.0 > excluded { way.0 - 1 } else { way.0 };
        self.codes[line_in_page as usize] = idx + 1;
        true
    }

    /// Invalidates the line (eviction).
    pub fn clear(&mut self, line_in_page: u8) {
        self.codes[line_in_page as usize] = UNKNOWN;
    }

    /// Invalidates every line (new page allocation).
    pub(crate) fn clear_all(&mut self) {
        self.codes.fill(UNKNOWN);
    }

    /// Number of lines tracked.
    #[cfg(test)]
    fn lines(&self) -> u32 {
        self.codes.len() as u32
    }

    /// Copies the contents of `other` into this entry.
    pub(crate) fn copy_from(&mut self, other: &WaySlots) {
        self.codes.copy_from_slice(&other.codes);
    }
}

/// A way table: one [`WaySlots`] entry per slot of the TLB it mirrors —
/// the uTLB for the micro way table (uWT), the TLB for the way table (WT).
#[derive(Clone, Debug)]
pub struct WayTable {
    entries: Vec<WaySlots>,
}

impl WayTable {
    /// Creates an all-unknown table with one entry per TLB slot.
    pub(crate) fn new(slots: usize, lines: u32, banks: u32, ways: u32) -> Self {
        Self {
            entries: (0..slots)
                .map(|_| WaySlots::new(lines, banks, ways))
                .collect(),
        }
    }

    /// Entry for a TLB slot.
    pub(crate) fn entry(&self, slot: usize) -> &WaySlots {
        &self.entries[slot]
    }

    /// Mutable entry for a TLB slot.
    pub(crate) fn entry_mut(&mut self, slot: usize) -> &mut WaySlots {
        &mut self.entries[slot]
    }

    /// Number of slots.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Lines of `s` whose way is known.
    fn known_lines(s: &WaySlots) -> usize {
        (0..s.lines()).filter(|&l| s.get(l as u8).is_some()).count()
    }

    #[test]
    fn excluded_way_rotates_by_line_group() {
        let s = WaySlots::new(64, 4, 4);
        // Lines 0..3 exclude way 0, lines 4..7 exclude way 1 (Sec. V).
        for l in 0..4u8 {
            assert_eq!(s.excluded_way(l), WayId(0));
        }
        for l in 4..8u8 {
            assert_eq!(s.excluded_way(l), WayId(1));
        }
        for l in 8..12u8 {
            assert_eq!(s.excluded_way(l), WayId(2));
        }
        for l in 12..16u8 {
            assert_eq!(s.excluded_way(l), WayId(3));
        }
        // Wraps: lines 16..19 exclude way 0 again.
        assert_eq!(s.excluded_way(16), WayId(0));
    }

    #[test]
    fn set_get_roundtrip_for_representable_ways() {
        let mut s = WaySlots::new(64, 4, 4);
        for l in 0..64u8 {
            let excluded = s.excluded_way(l).0;
            for w in 0..4u8 {
                if w == excluded {
                    continue;
                }
                assert!(s.set(l, WayId(w)));
                assert_eq!(s.get(l), Some(WayId(w)), "line {l} way {w}");
            }
        }
    }

    #[test]
    fn excluded_way_reads_unknown() {
        let mut s = WaySlots::new(64, 4, 4);
        assert!(s.set(5, WayId(0)));
        // Line 5's excluded way is 1: setting it degrades to unknown.
        assert!(!s.set(5, WayId(1)));
        assert_eq!(s.get(5), None);
    }

    #[test]
    fn clear_invalidates() {
        let mut s = WaySlots::new(64, 4, 4);
        s.set(7, WayId(3));
        assert!(s.get(7).is_some());
        s.clear(7);
        assert_eq!(s.get(7), None);
        s.set(7, WayId(3));
        s.set(9, WayId(3));
        s.clear_all();
        assert_eq!(known_lines(&s), 0);
    }

    #[test]
    fn copy_from_mirrors_entries() {
        let mut a = WaySlots::new(64, 4, 4);
        let mut b = WaySlots::new(64, 4, 4);
        a.set(3, WayId(2));
        a.set(40, WayId(1));
        b.copy_from(&a);
        assert_eq!(b.get(3), Some(WayId(2)));
        assert_eq!(b.get(40), Some(WayId(1)));
        assert_eq!(known_lines(&b), 2);
    }

    #[test]
    fn tables_have_independent_entries() {
        let mut wt = WayTable::new(4, 64, 4, 4);
        wt.entry_mut(0).set(1, WayId(2));
        assert_eq!(wt.entry(0).get(1), Some(WayId(2)));
        assert_eq!(wt.entry(1).get(1), None);
        let uwt = WayTable::new(2, 64, 4, 4);
        assert_eq!(known_lines(uwt.entry(0)), 0);
        assert_eq!(uwt.len(), 2);
        assert_eq!(wt.len(), 4);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_geometry_panics() {
        let _ = WaySlots::new(0, 4, 4);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_representable(l in 0u8..64, w in 0u8..4) {
            let mut s = WaySlots::new(64, 4, 4);
            let representable = s.set(l, WayId(w));
            if representable {
                prop_assert_eq!(s.get(l), Some(WayId(w)));
            } else {
                prop_assert_eq!(s.get(l), None);
                prop_assert_eq!(s.excluded_way(l), WayId(w));
            }
        }

        #[test]
        fn prop_get_never_returns_excluded(l in 0u8..64, code_ops in proptest::collection::vec((0u8..64, 0u8..4), 0..32)) {
            let mut s = WaySlots::new(64, 4, 4);
            for (line, way) in code_ops {
                s.set(line, WayId(way));
            }
            if let Some(w) = s.get(l) {
                prop_assert_ne!(w, s.excluded_way(l));
            }
        }
    }
}
