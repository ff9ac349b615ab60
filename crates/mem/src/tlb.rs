//! Page table, TLB and micro-TLB.
//!
//! The paper's way tables are *indexed by TLB entry*: the WT has exactly as
//! many entries as the TLB, and a TLB hit returns the matching WT entry "for
//! free". Both TLBs therefore expose their slot indices, report evictions
//! (the uWT must sync to the WT, the WT entry must be invalidated), and
//! support **reverse lookups by physical page** — cache line fills and
//! evictions carry physical tags only (Sec. V).
//!
//! Both TLBs keep their slots as two parallel dense arrays of raw page ids,
//! `vpages` and `ppages`, with the sentinel `EMPTY` (`u64::MAX`) in both
//! for a free slot, plus a count of occupied slots. Beside each id array
//! sits a one-byte tag per slot, a fold of the id, as a hardware CAM keeps
//! partial tags. A lookup (and a reverse lookup by physical page) tests
//! the tags eight slots at a time as one `u64` word, and reads a full id
//! only where a tag matches; a miss, the common case on a walk, mostly
//! reads no id at all. A miss already proved the page absent, so `install` writes
//! it without searching again, and a full TLB (the count equals the slots)
//! goes straight to its replacement policy instead of scanning for a free
//! slot it cannot have. `insert` is that same install behind a refresh
//! check.

use malec_types::addr::{PPageId, VPageId};
use malec_types::params::{DRAM_BYTES, PAGE_BYTES};

use crate::replacement::{SecondChance, SeededRandom};

/// A deterministic virtual→physical mapping standing in for the OS page
/// table. The mapping is a fixed bijective-ish hash, so identical traces
/// always see identical physical placements.
///
/// # Example
///
/// ```
/// use malec_mem::tlb::PageTable;
/// use malec_types::addr::VPageId;
///
/// let pt = PageTable::new(16); // 2^16 physical pages (256 MiB of 4 KiB pages)
/// let p1 = pt.translate(VPageId::new(5));
/// assert_eq!(p1, pt.translate(VPageId::new(5)));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PageTable {
    ppage_bits: u32,
}

impl PageTable {
    /// Creates a page table with `2^ppage_bits` physical pages
    /// (16 bits ⇒ 256 MiB of 4 KiB pages, the paper's DRAM size).
    pub fn new(ppage_bits: u32) -> Self {
        Self { ppage_bits }
    }

    /// Translates a virtual page to its (deterministic) physical page.
    #[inline]
    pub fn translate(self, vpage: VPageId) -> PPageId {
        // Fibonacci-hash style mix keeps consecutive virtual pages from
        // colliding in the physical space while staying deterministic.
        let mixed = vpage
            .raw()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_right(17)
            ^ vpage.raw();
        PPageId::new(mixed & ((1 << self.ppage_bits) - 1))
    }
}

impl Default for PageTable {
    /// The pages of the Table II DRAM (2^16 of 4 KiB in 256 MiB).
    fn default() -> Self {
        Self::new((DRAM_BYTES / PAGE_BYTES).trailing_zeros())
    }
}

/// Page id of a free slot. Page ids are addresses shifted right past the
/// page offset, so no real page reaches it.
const EMPTY: u64 = u64::MAX;

/// One TLB entry: a virtual→physical pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbEntry {
    /// Virtual page tag.
    pub vpage: VPageId,
    /// Physical page tag (also searchable — reverse lookups).
    pub ppage: PPageId,
}

/// What happened during a TLB insert.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbEvent {
    /// Slot the new translation was installed into.
    pub slot: usize,
    /// The translation that was evicted, if the slot was occupied.
    pub evicted: Option<TlbEntry>,
}

/// The one-byte tag of a page id: its low two bytes folded together.
#[inline]
fn tag(page: u64) -> u8 {
    (page ^ (page >> 8)) as u8
}

/// The first slot whose id in `pages` is `page`, where `tags[i]` is
/// `tag(pages[i])`. Eight tags are tested per step as one `u64` word: a
/// byte of `word ^ (tag × 0x01…01)` is zero where the tag matches, and
/// `(x − 0x01…01) & !x & 0x80…80` flags every zero byte (a borrow may also
/// flag a byte above one, which the full-id check rejects). Only a flagged
/// slot has its full id read, lowest slot first.
#[inline]
fn first_slot(pages: &[u64], tags: &[u8], page: u64) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let want = ONES * u64::from(tag(page));
    let (words, rest) = tags.as_chunks::<8>();
    for (w, word) in words.iter().enumerate() {
        let x = u64::from_le_bytes(*word) ^ want;
        let mut flagged = x.wrapping_sub(ONES) & !x & HIGHS;
        while flagged != 0 {
            let slot = 8 * w + (flagged.trailing_zeros() / 8) as usize;
            if pages[slot] == page {
                return Some(slot);
            }
            flagged &= flagged - 1;
        }
    }
    let base = tags.len() - rest.len();
    (base..tags.len()).find(|&slot| pages[slot] == page)
}

/// The fully associative slots both TLBs share: parallel arrays of raw
/// virtual and physical page ids, `EMPTY` in both for a free slot, with
/// each id's [`tag`] beside it.
#[derive(Clone, Debug)]
struct Slots {
    vpages: Vec<u64>,
    ppages: Vec<u64>,
    vtags: Vec<u8>,
    ptags: Vec<u8>,
    /// Occupied slots: when it equals the slot count there is no free slot
    /// to search for.
    filled: usize,
}

impl Slots {
    fn new(entries: usize) -> Self {
        Self {
            vpages: vec![EMPTY; entries],
            ppages: vec![EMPTY; entries],
            vtags: vec![tag(EMPTY); entries],
            ptags: vec![tag(EMPTY); entries],
            filled: 0,
        }
    }

    fn len(&self) -> usize {
        self.vpages.len()
    }

    /// Slot holding `vpage`.
    #[inline]
    fn find(&self, vpage: VPageId) -> Option<usize> {
        debug_assert_ne!(
            vpage.raw(),
            EMPTY,
            "page id collides with the free-slot sentinel"
        );
        first_slot(&self.vpages, &self.vtags, vpage.raw())
    }

    /// First slot holding `ppage`.
    #[inline]
    fn find_ppage(&self, ppage: PPageId) -> Option<usize> {
        debug_assert_ne!(
            ppage.raw(),
            EMPTY,
            "page id collides with the free-slot sentinel"
        );
        first_slot(&self.ppages, &self.ptags, ppage.raw())
    }

    /// `(slot, entry)` of the slot holding `vpage`.
    #[inline]
    fn lookup(&self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        let slot = self.find(vpage)?;
        let ppage = PPageId::new(self.ppages[slot]);
        Some((slot, TlbEntry { vpage, ppage }))
    }

    /// First free slot; a full array answers without scanning.
    #[inline]
    fn free(&self) -> Option<usize> {
        if self.filled == self.len() {
            return None;
        }
        first_slot(&self.vpages, &self.vtags, EMPTY)
    }

    /// Entry in `slot`, if occupied.
    #[inline]
    fn entry(&self, slot: usize) -> Option<TlbEntry> {
        let vpage = self.vpages[slot];
        (vpage != EMPTY).then(|| TlbEntry {
            vpage: VPageId::new(vpage),
            ppage: PPageId::new(self.ppages[slot]),
        })
    }

    /// Writes `vpage → ppage` into `slot`, returning what it held.
    #[inline]
    fn write(&mut self, slot: usize, vpage: VPageId, ppage: PPageId) -> Option<TlbEntry> {
        let old = self.entry(slot);
        self.filled += usize::from(old.is_none());
        self.set(slot, vpage.raw(), ppage.raw());
        old
    }

    /// Frees `slot`, returning what it held.
    fn clear(&mut self, slot: usize) -> Option<TlbEntry> {
        let old = self.entry(slot)?;
        self.set(slot, EMPTY, EMPTY);
        self.filled -= 1;
        Some(old)
    }

    /// Stores raw ids in `slot`, with their tags.
    #[inline]
    fn set(&mut self, slot: usize, vpage: u64, ppage: u64) {
        self.vpages[slot] = vpage;
        self.ppages[slot] = ppage;
        self.vtags[slot] = tag(vpage);
        self.ptags[slot] = tag(ppage);
    }
}

/// The main TLB: fully associative with seeded-random replacement (Sec. V).
///
/// # Example
///
/// ```
/// use malec_mem::tlb::{PageTable, Tlb};
/// use malec_types::addr::VPageId;
///
/// let pt = PageTable::default();
/// let mut tlb = Tlb::new(64, 1);
/// let v = VPageId::new(3);
/// assert!(tlb.lookup(v).is_none());
/// tlb.insert(v, pt.translate(v));
/// assert!(tlb.lookup(v).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    slots: Slots,
    policy: SeededRandom,
}

impl Tlb {
    /// Creates an empty TLB with `entries` slots and a deterministic
    /// replacement seed.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize, seed: u64) -> Self {
        assert!(entries > 0, "TLB needs entries");
        Self {
            slots: Slots::new(entries),
            policy: SeededRandom::new(seed),
        }
    }

    /// Looks up a virtual page; returns `(slot, entry)` on a hit.
    #[inline]
    pub fn lookup(&self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        self.slots.lookup(vpage)
    }

    /// Reverse lookup by physical page (used on line fills/evictions): the
    /// first slot translating to `ppage`.
    #[inline]
    pub fn slot_of_ppage(&self, ppage: PPageId) -> Option<usize> {
        self.slots.find_ppage(ppage)
    }

    /// Installs a translation for a page a lookup just missed, preferring
    /// a free slot, else evicting a random victim. It does not search for
    /// the page again: the caller's miss proved it absent.
    #[inline]
    pub fn install(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
        debug_assert!(self.slots.find(vpage).is_none(), "install after a hit");
        let slot = match self.slots.free() {
            Some(free) => free,
            None => self.policy.victim(self.slots.len()),
        };
        let evicted = self.slots.write(slot, vpage, ppage);
        TlbEvent { slot, evicted }
    }

    /// [`install`](Self::install) for a page that may be present: a page
    /// already held is refreshed in place.
    pub fn insert(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
        match self.slots.find(vpage) {
            Some(slot) => {
                self.slots.write(slot, vpage, ppage);
                TlbEvent {
                    slot,
                    evicted: None,
                }
            }
            None => self.install(vpage, ppage),
        }
    }
}

/// The micro-TLB: fully associative with second-chance replacement, sized at
/// 16 entries in Table II. Second chance minimizes uWT evictions and
/// therefore uWT→WT full-entry synchronization transfers (Sec. V).
#[derive(Clone, Debug)]
pub struct MicroTlb {
    slots: Slots,
    policy: SecondChance,
    hits: u64,
    misses: u64,
}

impl MicroTlb {
    /// Creates an empty micro-TLB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "uTLB needs entries");
        Self {
            slots: Slots::new(entries),
            policy: SecondChance::new(entries),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a virtual page; a hit marks the slot referenced.
    #[inline]
    pub fn lookup(&mut self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
        let found = self.slots.lookup(vpage);
        if let Some((slot, _)) = found {
            self.hits += 1;
            self.policy.touch(slot);
        } else {
            self.misses += 1;
        }
        found
    }

    /// Reverse lookup by physical page: the first slot translating to
    /// `ppage`.
    #[inline]
    pub fn slot_of_ppage(&self, ppage: PPageId) -> Option<usize> {
        self.slots.find_ppage(ppage)
    }

    /// Installs a translation for a page a lookup just missed, preferring
    /// a free slot, else the second-chance victim. The evicted entry (if
    /// any) must be synced to the WT by the caller. It does not search for
    /// the page again: the caller's miss proved it absent.
    #[inline]
    pub fn install(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
        debug_assert!(self.slots.find(vpage).is_none(), "install after a hit");
        let slot = match self.slots.free() {
            Some(free) => free,
            None => self.policy.victim(),
        };
        let evicted = self.slots.write(slot, vpage, ppage);
        // The reference bit stays clear on insertion: only a subsequent hit
        // marks the page hot. This is what lets the clock distinguish
        // streaming pages (touched once) from re-used ones.
        TlbEvent { slot, evicted }
    }

    /// [`install`](Self::install) for a page that may be present: a page
    /// already held is refreshed in place and marked referenced.
    pub fn insert(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
        match self.slots.find(vpage) {
            Some(slot) => {
                self.slots.write(slot, vpage, ppage);
                self.policy.touch(slot);
                TlbEvent {
                    slot,
                    evicted: None,
                }
            }
            None => self.install(vpage, ppage),
        }
    }

    /// Removes the translation in `slot` (e.g. when the main TLB evicted the
    /// page), returning it.
    pub fn invalidate_slot(&mut self, slot: usize) -> Option<TlbEntry> {
        if slot < self.slots.len() {
            self.slots.clear(slot)
        } else {
            None
        }
    }

    /// Finds the slot holding `vpage` without statistics side effects.
    pub fn slot_of(&self, vpage: VPageId) -> Option<usize> {
        self.slots.find(vpage)
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn page_table_is_deterministic_and_in_range() {
        let pt = PageTable::default();
        for v in 0..1000u64 {
            let p = pt.translate(VPageId::new(v));
            assert_eq!(p, pt.translate(VPageId::new(v)));
            assert!(p.raw() < (1 << 16));
        }
    }

    #[test]
    fn page_table_spreads_consecutive_pages() {
        let pt = PageTable::default();
        let mut seen = std::collections::HashSet::new();
        for v in 0..256u64 {
            seen.insert(pt.translate(VPageId::new(v)).raw());
        }
        assert!(seen.len() > 250, "near-bijective for small ranges");
    }

    #[test]
    fn tlb_miss_insert_hit() {
        let pt = PageTable::default();
        let mut tlb = Tlb::new(4, 7);
        let v = VPageId::new(9);
        assert!(tlb.lookup(v).is_none());
        let ev = tlb.insert(v, pt.translate(v));
        assert_eq!(ev.evicted, None);
        let (slot, entry) = tlb.lookup(v).expect("hit after insert");
        assert_eq!(slot, ev.slot);
        assert_eq!(entry.ppage, pt.translate(v));
    }

    #[test]
    fn tlb_reverse_lookup() {
        let pt = PageTable::default();
        let mut tlb = Tlb::new(8, 1);
        let v = VPageId::new(33);
        let p = pt.translate(v);
        tlb.insert(v, p);
        let slot = tlb.slot_of_ppage(p).expect("reverse hit");
        assert_eq!(tlb.slots.entry(slot).map(|e| e.vpage), Some(v));
        assert!(tlb.slot_of_ppage(PPageId::new(p.raw() ^ 1)).is_none());
    }

    #[test]
    fn tlb_evicts_when_full() {
        let mut tlb = Tlb::new(2, 3);
        tlb.insert(VPageId::new(1), PPageId::new(1));
        tlb.insert(VPageId::new(2), PPageId::new(2));
        let ev = tlb.insert(VPageId::new(3), PPageId::new(3));
        assert!(ev.evicted.is_some());
        assert!(tlb.lookup(VPageId::new(3)).is_some());
    }

    #[test]
    fn tlb_refresh_does_not_evict() {
        let mut tlb = Tlb::new(2, 3);
        let first = tlb.insert(VPageId::new(1), PPageId::new(1));
        tlb.insert(VPageId::new(2), PPageId::new(2));
        let again = tlb.insert(VPageId::new(1), PPageId::new(1));
        assert_eq!(again.slot, first.slot);
        assert_eq!(again.evicted, None);
    }

    #[test]
    fn utlb_second_chance_protects_hot_entry() {
        let mut utlb = MicroTlb::new(2);
        utlb.insert(VPageId::new(1), PPageId::new(1));
        utlb.insert(VPageId::new(2), PPageId::new(2));
        // Keep page 1 hot.
        utlb.lookup(VPageId::new(1));
        let ev = utlb.insert(VPageId::new(3), PPageId::new(3));
        let evicted = ev.evicted.expect("full uTLB must evict");
        assert_eq!(evicted.vpage, VPageId::new(2), "hot page must survive");
        assert!(utlb.lookup(VPageId::new(1)).is_some());
    }

    #[test]
    fn utlb_invalidate_slot() {
        let mut utlb = MicroTlb::new(4);
        let ev = utlb.insert(VPageId::new(5), PPageId::new(50));
        let removed = utlb.invalidate_slot(ev.slot).expect("entry present");
        assert_eq!(removed.vpage, VPageId::new(5));
        assert!(utlb.lookup(VPageId::new(5)).is_none());
        assert!(utlb.invalidate_slot(ev.slot).is_none());
    }

    #[test]
    fn utlb_slot_of_matches_lookup() {
        let mut utlb = MicroTlb::new(4);
        let ev = utlb.insert(VPageId::new(8), PPageId::new(80));
        assert_eq!(utlb.slot_of(VPageId::new(8)), Some(ev.slot));
        assert_eq!(utlb.slot_of(VPageId::new(9)), None);
    }

    proptest! {
        #[test]
        fn prop_tlb_never_holds_duplicate_vpages(
            inserts in proptest::collection::vec(0u64..32, 0..128)
        ) {
            let pt = PageTable::default();
            let mut tlb = Tlb::new(8, 11);
            for v in inserts {
                let vp = VPageId::new(v);
                tlb.insert(vp, pt.translate(vp));
            }
            for v in 0..32u64 {
                let count = tlb.slots.vpages.iter().filter(|&&s| s == v).count();
                prop_assert!(count <= 1, "vpage {v} duplicated");
            }
        }

        #[test]
        fn prop_utlb_hit_after_insert(v in 0u64..(1 << 20)) {
            let pt = PageTable::default();
            let mut utlb = MicroTlb::new(16);
            let vp = VPageId::new(v);
            utlb.insert(vp, pt.translate(vp));
            prop_assert!(utlb.lookup(vp).is_some());
        }

        #[test]
        fn prop_utlb_capacity_respected(
            inserts in proptest::collection::vec(0u64..1024, 0..256)
        ) {
            let pt = PageTable::default();
            let mut utlb = MicroTlb::new(16);
            for v in inserts {
                let vp = VPageId::new(v);
                utlb.insert(vp, pt.translate(vp));
            }
            let occupied = utlb.slots.vpages.iter().filter(|&&v| v != EMPTY).count();
            prop_assert!(occupied <= 16);
        }
    }

    /// The TLB as it was before the dense slot arrays: a
    /// `Vec<Option<TlbEntry>>` scanned linearly, with the same seeded
    /// random replacement.
    struct ModelTlb {
        entries: Vec<Option<TlbEntry>>,
        policy: SeededRandom,
    }

    /// The uTLB as it was before the dense slot arrays, with the same
    /// second-chance replacement.
    struct ModelMicroTlb {
        entries: Vec<Option<TlbEntry>>,
        policy: SecondChance,
        hits: u64,
        misses: u64,
    }

    fn model_find(entries: &[Option<TlbEntry>], vpage: VPageId) -> Option<(usize, TlbEntry)> {
        entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| e.filter(|e| e.vpage == vpage).map(|e| (i, e)))
    }

    fn model_find_ppage(entries: &[Option<TlbEntry>], ppage: PPageId) -> Option<usize> {
        entries
            .iter()
            .position(|e| e.is_some_and(|e| e.ppage == ppage))
    }

    impl ModelTlb {
        fn new(entries: usize, seed: u64) -> Self {
            Self {
                entries: vec![None; entries],
                policy: SeededRandom::new(seed),
            }
        }

        fn insert(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
            if let Some((slot, _)) = model_find(&self.entries, vpage) {
                self.entries[slot] = Some(TlbEntry { vpage, ppage });
                return TlbEvent {
                    slot,
                    evicted: None,
                };
            }
            let slot = match self.entries.iter().position(Option::is_none) {
                Some(free) => free,
                None => self.policy.victim(self.entries.len()),
            };
            let evicted = self.entries[slot];
            self.entries[slot] = Some(TlbEntry { vpage, ppage });
            TlbEvent { slot, evicted }
        }
    }

    impl ModelMicroTlb {
        fn new(entries: usize) -> Self {
            Self {
                entries: vec![None; entries],
                policy: SecondChance::new(entries),
                hits: 0,
                misses: 0,
            }
        }

        fn lookup(&mut self, vpage: VPageId) -> Option<(usize, TlbEntry)> {
            let found = model_find(&self.entries, vpage);
            if let Some((slot, _)) = found {
                self.hits += 1;
                self.policy.touch(slot);
            } else {
                self.misses += 1;
            }
            found
        }

        fn insert(&mut self, vpage: VPageId, ppage: PPageId) -> TlbEvent {
            if let Some((slot, _)) = model_find(&self.entries, vpage) {
                self.entries[slot] = Some(TlbEntry { vpage, ppage });
                self.policy.touch(slot);
                return TlbEvent {
                    slot,
                    evicted: None,
                };
            }
            let slot = match self.entries.iter().position(Option::is_none) {
                Some(free) => free,
                None => self.policy.victim(),
            };
            let evicted = self.entries[slot];
            self.entries[slot] = Some(TlbEntry { vpage, ppage });
            TlbEvent { slot, evicted }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lookups, inserts, installs after a missed lookup (the
        /// MMU's walk path) and reverse lookups give the model's answer at
        /// every step, and the occupancy count always equals the model's
        /// filled slots. Few pages over few physical pages make refreshes,
        /// evictions and shared physical pages common.
        #[test]
        fn prop_tlb_matches_vec_model(
            entries in 1usize..70,
            seed in 0u64..1000,
            ops in proptest::collection::vec((0u8..4, 0u64..1000, 0u64..8), 0..400),
        ) {
            let mut tlb = Tlb::new(entries, seed);
            let mut model = ModelTlb::new(entries, seed);
            // Three pages per slot: hits, misses and evictions all common.
            let pages = 3 * entries as u64;
            for (kind, v, p) in ops {
                let (vpage, ppage) = (VPageId::new(v % pages), PPageId::new(p));
                match kind {
                    0 => prop_assert_eq!(tlb.lookup(vpage), model_find(&model.entries, vpage)),
                    1 => prop_assert_eq!(tlb.insert(vpage, ppage), model.insert(vpage, ppage)),
                    2 => {
                        let hit = tlb.lookup(vpage);
                        prop_assert_eq!(hit, model_find(&model.entries, vpage));
                        if hit.is_none() {
                            prop_assert_eq!(tlb.install(vpage, ppage), model.insert(vpage, ppage));
                        }
                    }
                    _ => prop_assert_eq!(
                        tlb.slot_of_ppage(ppage),
                        model_find_ppage(&model.entries, ppage)
                    ),
                }
                prop_assert_eq!(tlb.slots.filled, model.entries.iter().flatten().count());
            }
            let slots: Vec<_> = (0..entries).map(|s| tlb.slots.entry(s)).collect();
            prop_assert_eq!(slots, model.entries);
        }

        /// The same for the uTLB, with invalidations and `slot_of`; the
        /// hit and miss counters agree at the end.
        #[test]
        fn prop_utlb_matches_vec_model(
            entries in 1usize..20,
            ops in proptest::collection::vec((0u8..6, 0u64..1000, 0u64..8), 0..400),
        ) {
            let mut utlb = MicroTlb::new(entries);
            let mut model = ModelMicroTlb::new(entries);
            let pages = 3 * entries as u64;
            for (kind, v, p) in ops {
                let (vpage, ppage) = (VPageId::new(v % pages), PPageId::new(p));
                match kind {
                    0 => prop_assert_eq!(utlb.lookup(vpage), model.lookup(vpage)),
                    1 => prop_assert_eq!(utlb.insert(vpage, ppage), model.insert(vpage, ppage)),
                    2 => prop_assert_eq!(
                        utlb.slot_of_ppage(ppage),
                        model_find_ppage(&model.entries, ppage)
                    ),
                    3 => {
                        // Slots one past the end must report nothing.
                        let slot = v as usize % (entries + 1);
                        let want = model.entries.get_mut(slot).and_then(Option::take);
                        prop_assert_eq!(utlb.invalidate_slot(slot), want);
                    }
                    4 => {
                        let hit = utlb.lookup(vpage);
                        prop_assert_eq!(hit, model.lookup(vpage));
                        if hit.is_none() {
                            prop_assert_eq!(utlb.install(vpage, ppage), model.insert(vpage, ppage));
                        }
                    }
                    _ => prop_assert_eq!(
                        utlb.slot_of(vpage),
                        model_find(&model.entries, vpage).map(|(s, _)| s)
                    ),
                }
                prop_assert_eq!(utlb.slots.filled, model.entries.iter().flatten().count());
            }
            prop_assert_eq!((utlb.hits(), utlb.misses()), (model.hits, model.misses));
            let slots: Vec<_> = (0..entries).map(|s| utlb.slots.entry(s)).collect();
            prop_assert_eq!(slots, model.entries);
        }
    }
}
