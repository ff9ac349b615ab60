//! The translation front end shared by every interface: page table, TLB,
//! micro-TLB, and the bookkeeping the way tables need (slot indices and
//! eviction events).

use malec_mem::tlb::{MicroTlb, PageTable, Tlb, TlbEntry};
use malec_types::addr::{PPageId, VPageId};

/// Extra cycles of a page-table walk.
pub(crate) const WALK_LATENCY: u32 = 20;

/// Extra cycles a translation adds on top of the (pipelined) uTLB hit path.
///
/// The paths that consult the TLB carry the TLB slot now holding the
/// translation (the WT mirrors TLB slots); a uTLB hit never reads it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TranslationPath {
    /// uTLB hit: fully overlapped, no extra latency.
    MicroHit,
    /// uTLB miss, TLB hit: one extra cycle.
    TlbHit {
        /// TLB slot holding the translation.
        tlb_slot: usize,
    },
    /// Both missed: a page-table walk.
    Walk {
        /// TLB slot the walk filled.
        tlb_slot: usize,
    },
}

impl TranslationPath {
    /// Extra latency in cycles for this path.
    pub(crate) const fn extra_latency(self) -> u32 {
        match self {
            TranslationPath::MicroHit => 0,
            TranslationPath::TlbHit { .. } => 1,
            TranslationPath::Walk { .. } => WALK_LATENCY,
        }
    }
}

/// Result of translating one virtual page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Translation {
    /// The physical page.
    pub ppage: PPageId,
    /// Which path the translation took (drives latency and energy).
    pub path: TranslationPath,
    /// uTLB slot now holding the translation (way tables mirror slots).
    pub utlb_slot: usize,
    /// uTLB entry evicted to make room (its uWT entry must sync to the WT).
    pub utlb_evicted: Option<(usize, TlbEntry)>,
    /// TLB entry evicted (its WT entry is lost; any uTLB copy dies too).
    pub tlb_evicted: Option<(usize, TlbEntry)>,
}

/// Page table + TLB + uTLB with the synchronization rules of Sec. V.
#[derive(Clone, Debug)]
pub struct Mmu {
    page_table: PageTable,
    utlb: MicroTlb,
    tlb: Tlb,
}

impl Mmu {
    /// Creates the MMU with `utlb_entries`/`tlb_entries` slots and a
    /// deterministic TLB replacement seed.
    pub(crate) fn new(utlb_entries: usize, tlb_entries: usize, seed: u64) -> Self {
        Self {
            page_table: PageTable,
            utlb: MicroTlb::new(utlb_entries),
            tlb: Tlb::new(tlb_entries, seed),
        }
    }

    /// Translates `vpage`, updating uTLB/TLB state and reporting every event
    /// the way tables need.
    #[inline]
    pub(crate) fn translate(&mut self, vpage: VPageId) -> Translation {
        if let Some((slot, entry)) = self.utlb.lookup(vpage) {
            return Translation {
                ppage: entry.ppage,
                path: TranslationPath::MicroHit,
                utlb_slot: slot,
                utlb_evicted: None,
                tlb_evicted: None,
            };
        }

        // uTLB miss: consult the TLB. Both misses below proved the page
        // absent from the uTLB, so it installs without searching again.
        if let Some((tlb_slot, entry)) = self.tlb.lookup(vpage) {
            let ev = self.utlb.install(vpage, entry.ppage);
            return Translation {
                ppage: entry.ppage,
                path: TranslationPath::TlbHit { tlb_slot },
                utlb_slot: ev.slot,
                utlb_evicted: ev.evicted.map(|e| (ev.slot, e)),
                tlb_evicted: None,
            };
        }

        // Page-table walk.
        let ppage = self.page_table.translate(vpage);
        let tlb_ev = self.tlb.install(vpage, ppage);
        // A TLB eviction kills any uTLB copy of the evicted page.
        let mut tlb_evicted = None;
        if let Some(evicted) = tlb_ev.evicted {
            if let Some(slot) = self.utlb.slot_of(evicted.vpage) {
                self.utlb.invalidate_slot(slot);
            }
            tlb_evicted = Some((tlb_ev.slot, evicted));
        }
        let u_ev = self.utlb.install(vpage, ppage);
        Translation {
            ppage,
            path: TranslationPath::Walk {
                tlb_slot: tlb_ev.slot,
            },
            utlb_slot: u_ev.slot,
            utlb_evicted: u_ev.evicted.map(|e| (u_ev.slot, e)),
            tlb_evicted,
        }
    }

    /// The physical page `vpage` maps to, read from the page table alone:
    /// no TLB state changes.
    pub(crate) fn page_of(&self, vpage: VPageId) -> PPageId {
        self.page_table.translate(vpage)
    }

    /// Reverse lookup by physical page in the uTLB (for way-table validity
    /// maintenance on line fills/evictions).
    pub(crate) fn utlb_slot_of_ppage(&self, ppage: PPageId) -> Option<usize> {
        self.utlb.slot_of_ppage(ppage)
    }

    /// Reverse lookup by physical page in the TLB.
    pub(crate) fn tlb_slot_of_ppage(&self, ppage: PPageId) -> Option<usize> {
        self.tlb.slot_of_ppage(ppage)
    }

    /// uTLB hit/miss statistics.
    pub fn utlb_stats(&self) -> (u64, u64) {
        (self.utlb.hits(), self.utlb.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu() -> Mmu {
        Mmu::new(4, 16, 7)
    }

    #[test]
    fn first_touch_walks_then_hits() {
        let mut m = mmu();
        let v = VPageId::new(0x100);
        let t1 = m.translate(v);
        assert!(matches!(t1.path, TranslationPath::Walk { .. }));
        let t2 = m.translate(v);
        assert_eq!(t2.path, TranslationPath::MicroHit);
        assert_eq!(t1.ppage, t2.ppage);
        assert_eq!(t1.utlb_slot, t2.utlb_slot);
    }

    #[test]
    fn utlb_eviction_reported_for_wt_sync() {
        let mut m = mmu();
        // Fill the 4-entry uTLB, then add a fifth page.
        for v in 0..5u64 {
            m.translate(VPageId::new(v));
        }
        // The fifth translation must have evicted one of the first four.
        // (All were walks; the last one's utlb_evicted should be set.)
        let t = m.translate(VPageId::new(9));
        assert!(
            t.utlb_evicted.is_some(),
            "full uTLB must report an eviction for uWT sync"
        );
    }

    #[test]
    fn tlb_hit_after_utlb_eviction() {
        let mut m = mmu();
        let v0 = VPageId::new(50);
        m.translate(v0);
        // Push v0 out of the 4-entry uTLB (but it stays in the 16-entry TLB).
        for v in 60..65u64 {
            m.translate(VPageId::new(v));
        }
        let t = m.translate(v0);
        let TranslationPath::TlbHit { tlb_slot } = t.path else {
            panic!("expected a TLB hit, got {:?}", t.path);
        };
        assert_eq!(m.tlb_slot_of_ppage(t.ppage), Some(tlb_slot));
    }

    #[test]
    fn tlb_eviction_invalidates_utlb_copy() {
        let mut m = Mmu::new(4, 4, 3);
        // Fill the 4-entry TLB.
        for v in 0..4u64 {
            m.translate(VPageId::new(v));
        }
        // Insert a fifth page: some page is evicted from the TLB.
        let t = m.translate(VPageId::new(4));
        let (_, evicted) = t.tlb_evicted.expect("TLB eviction expected");
        // The evicted page must no longer hit the uTLB either.
        let again = m.translate(evicted.vpage);
        assert_ne!(again.path, TranslationPath::MicroHit);
    }

    #[test]
    fn reverse_lookups_find_pages() {
        let mut m = mmu();
        let v = VPageId::new(0x77);
        let t = m.translate(v);
        let TranslationPath::Walk { tlb_slot } = t.path else {
            panic!("first touch must walk, got {:?}", t.path);
        };
        assert_eq!(m.utlb_slot_of_ppage(t.ppage), Some(t.utlb_slot));
        assert_eq!(m.tlb_slot_of_ppage(t.ppage), Some(tlb_slot));
        assert_eq!(m.utlb_slot_of_ppage(PPageId::new(0xffff_1234)), None);
    }

    #[test]
    fn translation_paths_have_increasing_latency() {
        let hit = TranslationPath::TlbHit { tlb_slot: 0 };
        let walk = TranslationPath::Walk { tlb_slot: 0 };
        assert!(TranslationPath::MicroHit.extra_latency() < hit.extra_latency());
        assert!(hit.extra_latency() < walk.extra_latency());
    }
}
