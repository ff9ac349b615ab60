//! One single-ported, set-associative cache bank.
//!
//! The bank stores tags only — this is a timing/energy simulator, data
//! values are irrelevant. Fills support an optional way restriction so the
//! `restrict_fill_ways` sensitivity experiment (Sec. V: each line can encode
//! only 3 of 4 ways in its WT slot) can steer allocations away from the
//! non-encodable way.
//!
//! The bank is two flat, set-major arrays: way `w` of set `s` lives at
//! `s * ways + w` in `tags`, where the sentinel `EMPTY` (`u64::MAX`) marks
//! an invalid way, and in `last_use`, its LRU recency stamp. One clock per
//! bank stamps every touch. Stamps only ever compare within a set, where a
//! bank-wide clock orders the touches exactly as a per-set counter would,
//! so the LRU victims are those of true per-set LRU. A set's victim comes
//! from `replacement::lru_victim` over its slice of `last_use`, the same
//! rule `Lru` uses.

use malec_types::addr::WayId;

use crate::replacement::lru_victim;

/// Tag of an invalid way. Line tags are line addresses shifted right past
/// the set selector, so no real tag reaches it.
const EMPTY: u64 = u64::MAX;

/// Result of filling a line into a set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FillOutcome {
    /// The way the line was installed into.
    pub way: WayId,
    /// Tag of the line that had to be evicted, if the way was occupied.
    pub evicted_tag: Option<u64>,
}

/// A single-ported set-associative cache bank with LRU replacement.
///
/// # Example
///
/// ```
/// use malec_mem::bank::CacheBank;
///
/// let mut bank = CacheBank::new(32, 4);
/// assert!(bank.lookup(0, 0xabc).is_none());
/// bank.fill(0, 0xabc, None);
/// assert!(bank.lookup(0, 0xabc).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct CacheBank {
    /// Set-major tags, `EMPTY` for an invalid way.
    tags: Vec<u64>,
    /// Set-major recency stamps; 0 means never touched.
    last_use: Vec<u64>,
    /// The bank's LRU clock: the stamp of the latest touch.
    clock: u64,
    ways: usize,
}

impl CacheBank {
    /// Creates a bank of `sets` sets × `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "bank must have sets and ways");
        let slots = sets as usize * ways as usize;
        Self {
            tags: vec![EMPTY; slots],
            last_use: vec![0; slots],
            clock: 0,
            ways: ways as usize,
        }
    }

    /// Index of way 0 of `set`.
    #[inline]
    fn base(&self, set: u32) -> usize {
        set as usize * self.ways
    }

    /// The way of `set` holding `tag`, if resident.
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        debug_assert_ne!(tag, EMPTY, "tag collides with the empty-way sentinel");
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
    }

    /// Marks `slot` most recently used.
    #[inline]
    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.last_use[slot] = self.clock;
    }

    /// Looks up `tag` in `set`, updating LRU state on a hit.
    #[inline]
    pub fn lookup(&mut self, set: u32, tag: u64) -> Option<WayId> {
        let base = self.base(set);
        let way = self.find(base, tag)?;
        self.touch(base + way);
        Some(WayId(way as u8))
    }

    /// Checks residency without perturbing LRU state.
    #[inline]
    pub fn probe(&self, set: u32, tag: u64) -> Option<WayId> {
        self.find(self.base(set), tag).map(|w| WayId(w as u8))
    }

    /// Installs `tag` into `set`, preferring invalid ways, else the LRU
    /// victim. If `exclude_way` is given, allocation avoids that way unless
    /// it is the only option (the WT 3-of-4-way fill restriction).
    ///
    /// If the tag is already resident the existing way is reused (refresh).
    #[inline]
    pub fn fill(&mut self, set: u32, tag: u64, exclude_way: Option<WayId>) -> FillOutcome {
        let base = self.base(set);
        if let Some(way) = self.find(base, tag) {
            self.touch(base + way);
            return FillOutcome {
                way: WayId(way as u8),
                evicted_tag: None,
            };
        }

        let mut mask: u64 = (1u64 << self.ways) - 1;
        if let Some(ex) = exclude_way {
            let without = mask & !(1u64 << ex.0);
            if without != 0 {
                mask = without;
            }
        }
        let allowed = |w: usize| mask & (1 << w) != 0;

        // Prefer an invalid way within the mask, else the least recently
        // used one.
        let tags = &self.tags[base..base + self.ways];
        let victim = (0..self.ways)
            .find(|&w| allowed(w) && tags[w] == EMPTY)
            .or_else(|| lru_victim(&self.last_use[base..base + self.ways], allowed))
            .expect("mask is never empty");

        let evicted = std::mem::replace(&mut self.tags[base + victim], tag);
        self.touch(base + victim);
        FillOutcome {
            way: WayId(victim as u8),
            evicted_tag: (evicted != EMPTY).then_some(evicted),
        }
    }

    /// Removes `tag` from `set` if resident, returning the way it occupied.
    pub fn invalidate(&mut self, set: u32, tag: u64) -> Option<WayId> {
        let base = self.base(set);
        let way = self.find(base, tag)?;
        self.tags[base + way] = EMPTY;
        Some(WayId(way as u8))
    }

    /// Number of valid lines currently resident in the bank.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut b = CacheBank::new(4, 2);
        assert_eq!(b.lookup(1, 7), None);
        let f = b.fill(1, 7, None);
        assert_eq!(f.evicted_tag, None);
        assert_eq!(b.lookup(1, 7), Some(f.way));
    }

    #[test]
    fn fill_prefers_invalid_ways() {
        let mut b = CacheBank::new(1, 4);
        let ways: Vec<u8> = (0..4).map(|t| b.fill(0, t, None).way.0).collect();
        assert_eq!(ways, [0, 1, 2, 3]);
        assert_eq!(b.occupancy(), 4);
    }

    #[test]
    fn lru_eviction_on_full_set() {
        let mut b = CacheBank::new(1, 2);
        b.fill(0, 10, None);
        b.fill(0, 20, None);
        b.lookup(0, 10); // 20 becomes LRU
        let f = b.fill(0, 30, None);
        assert_eq!(f.evicted_tag, Some(20));
        assert!(b.probe(0, 10).is_some());
        assert!(b.probe(0, 20).is_none());
    }

    #[test]
    fn refill_of_resident_tag_is_a_refresh() {
        let mut b = CacheBank::new(1, 2);
        let w = b.fill(0, 5, None).way;
        let again = b.fill(0, 5, None);
        assert_eq!(again.way, w);
        assert_eq!(again.evicted_tag, None);
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn exclude_way_steers_allocation() {
        let mut b = CacheBank::new(1, 4);
        for t in 0..8 {
            let f = b.fill(0, 100 + t, Some(WayId(2)));
            assert_ne!(f.way, WayId(2), "fill landed in the excluded way");
        }
        // Way 2 stays invalid the whole time.
        assert_eq!(b.occupancy(), 3);
    }

    #[test]
    fn exclude_way_evicts_lru_among_the_rest() {
        let mut b = CacheBank::new(1, 4);
        for t in 0..4 {
            b.fill(0, t, None);
        }
        for t in [1, 2, 3, 0] {
            b.lookup(0, t); // 1 is now LRU overall
        }
        // Exclude way 1: the victim must come from {0, 2, 3}.
        let f = b.fill(0, 9, Some(WayId(1)));
        assert_eq!((f.way, f.evicted_tag), (WayId(2), Some(2)));
    }

    #[test]
    fn exclude_way_ignored_when_only_option() {
        let mut b = CacheBank::new(1, 1);
        let f = b.fill(0, 1, Some(WayId(0)));
        assert_eq!(f.way, WayId(0));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut b = CacheBank::new(2, 2);
        let w = b.fill(1, 9, None).way;
        assert_eq!(b.invalidate(1, 9), Some(w));
        assert_eq!(b.invalidate(1, 9), None);
        assert_eq!(b.lookup(1, 9), None);
    }

    #[test]
    #[should_panic(expected = "bank must have sets and ways")]
    fn zero_geometry_panics() {
        let _ = CacheBank::new(0, 4);
    }

    proptest! {
        #[test]
        fn prop_occupancy_bounded(fills in proptest::collection::vec((0u32..8, 0u64..64), 0..256)) {
            let mut b = CacheBank::new(8, 4);
            for (set, tag) in fills {
                b.fill(set, tag, None);
            }
            prop_assert!(b.occupancy() <= 8 * 4);
        }

        #[test]
        fn prop_fill_makes_resident(set in 0u32..8, tag in 0u64..1024) {
            let mut b = CacheBank::new(8, 4);
            let f = b.fill(set, tag, None);
            prop_assert_eq!(b.probe(set, tag), Some(f.way));
        }

        #[test]
        fn prop_a_set_never_holds_duplicate_tags(
            ops in proptest::collection::vec((0u32..4, 0u64..16), 0..128)
        ) {
            let mut b = CacheBank::new(4, 4);
            for (set, tag) in &ops {
                b.fill(*set, *tag, None);
            }
            for set in 0..4u32 {
                let mut seen = std::collections::HashSet::new();
                for tag in 0..16u64 {
                    if b.probe(set, tag).is_some() {
                        prop_assert!(seen.insert(tag));
                    }
                }
            }
        }
    }

    /// The bank as it was before the flat arrays: one `CacheSet` per set,
    /// each with its own tag vector and its own LRU stamps.
    struct ModelBank {
        sets: Vec<ModelSet>,
        ways: usize,
    }

    struct ModelSet {
        tags: Vec<Option<u64>>,
        stamp: u64,
        last_use: Vec<u64>,
    }

    impl ModelSet {
        fn probe(&self, tag: u64) -> Option<usize> {
            self.tags.iter().position(|&t| t == Some(tag))
        }

        fn touch(&mut self, way: usize) {
            self.stamp += 1;
            self.last_use[way] = self.stamp;
        }

        /// LRU victim among the ways enabled in `mask`.
        fn victim_masked(&self, mask: u64) -> Option<usize> {
            self.last_use
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .min_by_key(|&(i, &t)| (t, i))
                .map(|(i, _)| i)
        }
    }

    impl ModelBank {
        fn new(sets: u32, ways: u32) -> Self {
            let ways = ways as usize;
            Self {
                sets: (0..sets)
                    .map(|_| ModelSet {
                        tags: vec![None; ways],
                        stamp: 0,
                        last_use: vec![0; ways],
                    })
                    .collect(),
                ways,
            }
        }

        fn lookup(&mut self, set: u32, tag: u64) -> Option<WayId> {
            let s = &mut self.sets[set as usize];
            let way = s.probe(tag)?;
            s.touch(way);
            Some(WayId(way as u8))
        }

        fn fill(&mut self, set: u32, tag: u64, exclude_way: Option<WayId>) -> FillOutcome {
            let ways = self.ways;
            let s = &mut self.sets[set as usize];
            if let Some(way) = s.probe(tag) {
                s.touch(way);
                return FillOutcome {
                    way: WayId(way as u8),
                    evicted_tag: None,
                };
            }
            let mut mask: u64 = (1u64 << ways) - 1;
            if let Some(ex) = exclude_way {
                let without = mask & !(1u64 << ex.0);
                if without != 0 {
                    mask = without;
                }
            }
            let victim = (0..ways)
                .find(|&w| mask & (1 << w) != 0 && s.tags[w].is_none())
                .or_else(|| s.victim_masked(mask))
                .expect("mask is never empty");
            let evicted_tag = s.tags[victim].replace(tag);
            s.touch(victim);
            FillOutcome {
                way: WayId(victim as u8),
                evicted_tag,
            }
        }

        fn invalidate(&mut self, set: u32, tag: u64) -> Option<WayId> {
            let s = &mut self.sets[set as usize];
            let way = s.probe(tag)?;
            s.tags[way] = None;
            Some(WayId(way as u8))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lookups, probes, fills (some steered away from a way) and
        /// invalidations give the per-set model's answer at every step: the
        /// hit way, the filled way and the evicted tag.
        #[test]
        fn prop_bank_matches_per_set_model(
            sets_bits in 0u32..3,
            ways_bits in 0u32..4,
            ops in proptest::collection::vec((0u8..6, 0u32..4, 0u64..24, 0u8..9), 0..400),
        ) {
            let (sets, ways) = (1u32 << sets_bits, 1u32 << ways_bits);
            let mut bank = CacheBank::new(sets, ways);
            let mut model = ModelBank::new(sets, ways);
            for (kind, set, tag, exclude) in ops {
                let set = set % sets;
                // Exclusions past the last way exercise the no-op path.
                let exclude = (exclude < 8).then_some(WayId(exclude));
                match kind {
                    0 | 1 => prop_assert_eq!(bank.lookup(set, tag), model.lookup(set, tag)),
                    2 => prop_assert_eq!(
                        bank.probe(set, tag),
                        model.sets[set as usize].probe(tag).map(|w| WayId(w as u8))
                    ),
                    3 => prop_assert_eq!(bank.fill(set, tag, None), model.fill(set, tag, None)),
                    4 => prop_assert_eq!(
                        bank.fill(set, tag, exclude),
                        model.fill(set, tag, exclude)
                    ),
                    _ => prop_assert_eq!(bank.invalidate(set, tag), model.invalidate(set, tag)),
                }
            }
            let resident: usize = model
                .sets
                .iter()
                .map(|s| s.tags.iter().flatten().count())
                .sum();
            prop_assert_eq!(bank.occupancy(), resident);
        }
    }
}
