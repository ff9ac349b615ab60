//! The MALEC interface: Page-Based Memory Access Grouping (Sec. IV) plus
//! Page-Based Way Determination (Sec. V).
//!
//! Per cycle:
//!
//! 1. the [`InputBuffer`] selects the highest-priority entry; its vPageID
//!    goes to the uTLB (one translation per cycle — the single-port
//!    restriction that saves the energy) and is compared against all other
//!    valid entries to form the page group;
//! 2. the arbitration logic picks at most one access per cache bank, merges
//!    loads to the same line (evaluating only the three entries consecutive
//!    to each bank leader, with narrow in-page comparators), and caps
//!    selected loads at the number of result buses;
//! 3. way information for the selected lines comes from the uWT entry that
//!    arrived with the uTLB hit: *valid* way info means the access bypasses
//!    all tag arrays and touches a single data way ("reduced access");
//! 4. unserviced entries stay in the Input Buffer for later cycles; the
//!    merge-buffer eviction (lowest priority) writes its bank when free.
//!
//! Way-table maintenance follows Sec. V exactly: validity set/cleared on
//! line fills/evictions via reverse (physical) uTLB/TLB lookups, uWT→WT
//! full-entry synchronization on uTLB eviction, WT entry invalidation on TLB
//! eviction, and the last-entry feedback register that updates the uWT when
//! a conventional access hits a line the tables called unknown (this is the
//! mechanism that lifts coverage from ~75 % to ~94 %, Sec. VI-C).

use malec_cpu::{AcceptKind, L1DataInterface};
use malec_energy::EnergyCounters;
use malec_mem::hierarchy::MemoryHierarchy;
use malec_mem::l1::L1FillEvent;
use malec_types::addr::{LineAddr, PPageId, VPageId, WayId};
use malec_types::op::{MemOp, OpId};
use malec_types::params::{self, MERGE_COMPARE_WINDOW, PAGE};
use malec_types::{InterfaceKind, SimConfig, WayDetermination};

use crate::input_buffer::{IbEntry, InputBuffer};
use crate::memory_side::MemorySide;
use crate::metrics::InterfaceStats;
use crate::mmu::{Mmu, Translation, TranslationPath};
use crate::waytable::WayTable;
use crate::wdu::Wdu;

/// Input Buffer load slots: the Table II loads held from earlier cycles
/// plus four that arrive this cycle.
const IB_LOADS: usize = params::INPUT_BUFFER_HELD_LOADS as usize + 4;

/// The way-determination hardware of one interface (Sec. V, and the
/// Sec. VI-C alternatives).
#[derive(Debug)]
enum WayScheme {
    /// No way information: every access is a conventional lookup.
    None,
    /// A uWT and a WT mirroring the uTLB and TLB slots; `feedback` enables
    /// the last-entry register that trains the uWT on a conventional hit.
    Tables {
        uwt: WayTable,
        wt: WayTable,
        feedback: bool,
    },
    /// A line-granularity Way Determination Unit.
    Wdu(Wdu),
}

/// The MALEC L1 data interface.
///
/// # Example
///
/// ```
/// use malec_core::malec::MalecInterface;
/// use malec_types::SimConfig;
///
/// let iface = MalecInterface::new(&SimConfig::malec(), 1);
/// assert_eq!(iface.stats().groups, 0);
/// ```
#[derive(Debug)]
pub struct MalecInterface {
    pub(crate) mem: MemorySide,
    ib: InputBuffer,
    ways: WayScheme,
    pending_mbe: std::collections::VecDeque<MemOp>,
    last_translation: Option<(VPageId, PPageId)>,
    // Reusable per-tick scratch: owned by the interface so the steady-state
    // tick performs no heap allocation (capacities are bounded by the Input
    // Buffer size / bank count and reached within the first few cycles).
    scratch_group: Vec<IbEntry>,
    scratch_selected: Vec<(usize, usize)>,
    bank_leader: Vec<Option<usize>>,
    leader_done: Vec<u64>,
}

impl MalecInterface {
    /// Builds the MALEC interface for `config` (must be
    /// [`InterfaceKind::Malec`]).
    ///
    /// # Panics
    ///
    /// Panics if called with a baseline interface kind, or with more L1
    /// banks than lines per page.
    pub fn new(config: &SimConfig, seed: u64) -> Self {
        assert!(
            matches!(config.interface, InterfaceKind::Malec),
            "use BaselineInterface for the baseline configurations"
        );
        let lines = PAGE.lines_per_page();
        let banks = config.l1.banks();
        // Arbitration reads a load's bank from its virtual address, which
        // holds when the bank bits lie inside the page offset.
        assert!(banks <= lines, "more L1 banks than lines per page");
        let table = |entries| WayTable::new(usize::from(entries), lines, banks, config.l1.ways());
        let ways = match config.way_determination {
            WayDetermination::None => WayScheme::None,
            WayDetermination::WayTables | WayDetermination::WayTablesNoFeedback => {
                WayScheme::Tables {
                    uwt: table(config.utlb_entries),
                    wt: table(config.tlb_entries),
                    feedback: config.way_determination == WayDetermination::WayTables,
                }
            }
            WayDetermination::Wdu(n) => WayScheme::Wdu(Wdu::new(usize::from(n.max(1)))),
        };
        Self {
            mem: MemorySide::new(config, seed),
            ib: InputBuffer::new(IB_LOADS),
            ways,
            pending_mbe: std::collections::VecDeque::with_capacity(4),
            last_translation: None,
            scratch_group: Vec::with_capacity(IB_LOADS),
            scratch_selected: Vec::with_capacity(usize::from(config.result_buses).max(4)),
            bank_leader: vec![None; banks as usize],
            leader_done: vec![0; banks as usize],
        }
    }

    /// Accumulated energy event counters.
    pub fn counters(&self) -> &EnergyCounters {
        &self.mem.counters
    }

    /// Interface statistics (groups, merges, coverage).
    pub fn stats(&self) -> &InterfaceStats {
        &self.mem.stats
    }

    /// The memory hierarchy (for miss-rate reporting).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.mem.hierarchy
    }

    /// The MMU (for TLB statistics).
    pub fn mmu(&self) -> &Mmu {
        &self.mem.mmu
    }

    /// Physical line for an op given its page translation.
    fn line_of(op: &MemOp, ppage: PPageId) -> LineAddr {
        let offset = op.vaddr.raw() & (PAGE.page_bytes() - 1);
        PAGE.line_of((ppage.raw() << PAGE.page_offset_bits()) | offset)
    }

    /// Translates with energy accounting and way-table synchronization.
    fn translate_counted(&mut self, vpage: VPageId) -> Translation {
        let t = self.mem.translate(vpage);
        if let WayScheme::Tables { uwt, wt, .. } = &mut self.ways {
            // uWT eviction: write the full entry back to the WT, if the
            // evicted page still has a TLB (and therefore WT) slot.
            if let Some((uslot, evicted)) = t.utlb_evicted {
                if let Some(tslot) = self.mem.mmu.tlb_slot_of_ppage(evicted.ppage) {
                    wt.entry_mut(tslot).copy_from(uwt.entry(uslot));
                    self.mem.counters.wt_writes += 1;
                }
            }
            match t.path {
                TranslationPath::MicroHit => {}
                TranslationPath::TlbHit { tlb_slot } => {
                    // The WT entry travels with the TLB hit; install it as
                    // the page's uWT entry.
                    uwt.entry_mut(t.utlb_slot).copy_from(wt.entry(tlb_slot));
                    self.mem.counters.wt_reads += 1;
                    self.mem.counters.uwt_writes += 1;
                }
                TranslationPath::Walk { tlb_slot } => {
                    // Fresh page: all way information invalidated (Sec. V —
                    // if a TLB-evicted page is re-accessed, a new WT entry
                    // is allocated with everything unknown). Invalidation is
                    // a flash-clear, priced as a slot update rather than a
                    // full-entry write.
                    wt.entry_mut(tlb_slot).clear_all();
                    self.mem.counters.wt_bit_updates += 1;
                    uwt.entry_mut(t.utlb_slot).clear_all();
                    self.mem.counters.uwt_bit_updates += 1;
                }
            }
        }

        self.last_translation = Some((vpage, t.ppage));
        t
    }

    /// Applies a fill/eviction event to the way-determination state
    /// (validity bits set on fills, cleared on evictions; physical-tag
    /// reverse lookups find the owning uWT/WT entry).
    fn on_fill_event(&mut self, ev: L1FillEvent) {
        let m = &mut self.mem;
        m.counters.l1_line_fill(m.config.l1.sub_blocks_per_line());
        match &mut self.ways {
            WayScheme::None => {}
            WayScheme::Wdu(wdu) => {
                if let Some(evicted) = ev.evicted {
                    wdu.invalidate(evicted);
                    m.counters.wdu_writes += 1;
                }
                wdu.record(ev.filled, ev.way);
                m.counters.wdu_writes += 1;
            }
            WayScheme::Tables { uwt, wt, .. } => {
                if let Some(evicted) = ev.evicted {
                    update_way_slot(m, uwt, wt, evicted, None);
                }
                update_way_slot(m, uwt, wt, ev.filled, Some(ev.way));
            }
        }
    }

    /// Way prediction for a line about to be accessed. Returns `Some(way)`
    /// when the access may bypass the tag arrays.
    fn predict_way(&mut self, utlb_slot: usize, line: LineAddr) -> Option<WayId> {
        match &mut self.ways {
            WayScheme::None => None,
            WayScheme::Wdu(wdu) => {
                self.mem.counters.wdu_lookups += 1;
                wdu.lookup(line)
            }
            WayScheme::Tables { uwt, .. } => uwt.entry(utlb_slot).get(PAGE.index_in_page(line)),
        }
    }

    /// Feedback path: a conventional access hit a line the predictor called
    /// unknown. The last-entry register lets the uWT update without another
    /// uTLB lookup.
    fn feedback_update(&mut self, utlb_slot: usize, line: LineAddr, way: WayId) {
        match &mut self.ways {
            WayScheme::Wdu(wdu) => {
                wdu.record(line, way);
                self.mem.counters.wdu_writes += 1;
            }
            WayScheme::Tables {
                uwt,
                feedback: true,
                ..
            } => {
                uwt.entry_mut(utlb_slot).set(PAGE.index_in_page(line), way);
                self.mem.counters.uwt_bit_updates += 1;
            }
            WayScheme::Tables { .. } | WayScheme::None => {}
        }
    }

    /// The fill-steering restriction: when enabled, fills avoid the way the
    /// line's WT slot cannot encode.
    fn fill_exclusion(&self, line: LineAddr) -> Option<WayId> {
        if !self.mem.config.restrict_fill_ways || !matches!(self.ways, WayScheme::Tables { .. }) {
            return None;
        }
        let line_in_page = u32::from(PAGE.index_in_page(line));
        let l1 = self.mem.config.l1;
        // Both are powers of two: `/ banks % ways` as a shift and a mask.
        Some(WayId(
            ((line_in_page >> l1.banks().trailing_zeros()) & (l1.ways() - 1)) as u8,
        ))
    }

    /// Services this cycle's page group. Returns how many loads were
    /// serviced.
    ///
    /// Steady-state allocation-free: the group members, selection list,
    /// per-bank leader slots and per-bank completion cycles all live in
    /// buffers owned by `self` and reused every cycle. The member and
    /// selection buffers are moved out with `mem::take` for the duration of
    /// the call (a pointer swap, not an allocation) so `self` methods stay
    /// callable, and moved back in before returning.
    fn service_group(&mut self) -> usize {
        let mut group_loads = std::mem::take(&mut self.scratch_group);
        let Some(group) = self.ib.select_into(&mut group_loads) else {
            self.scratch_group = group_loads;
            return 0;
        };
        self.mem.counters.input_buffer_compares += u64::from(group.compares);

        // One translation per cycle, shared by the whole group. Slow paths
        // (TLB hit after uTLB miss, page-table walk) add latency to every
        // member's completion but do not block later groups — the walker is
        // a separate engine, exactly as in the baselines' model.
        let t = self.translate_counted(group.vpage);
        let group_extra = u64::from(t.path.extra_latency());

        // uWT way information arrives with the translation: one entry
        // evaluation regardless of group size (Sec. V scalability).
        if matches!(self.ways, WayScheme::Tables { .. }) {
            self.mem.counters.uwt_reads += 1;
        }

        // --- Arbitration: per-bank leaders, same-line merging, result-bus cap.
        // Every member shares the page, so its line within the page, its
        // bank (the bank bits lie inside the page offset, checked in `new`)
        // and its 32-byte merge window all come from the virtual address:
        // the physical line is formed only for a leader's access. Two
        // sub-blocks, a power of two (`CacheGeometry::new` makes the
        // sub-block divide the power-of-two line): `/ window` as a shift.
        let line_shift = PAGE.line_offset_bits();
        let bank_mask = u64::from(self.mem.config.l1.banks() - 1);
        let window_mask = PAGE.line_bytes() - 1;
        let window_shift = (2 * self.mem.config.l1.sub_block_bytes()).trailing_zeros();
        // (line, bank, window) of a member.
        let place = |e: &IbEntry| {
            let raw = e.op.vaddr.raw();
            let line = raw >> line_shift;
            (
                line,
                (line & bank_mask) as usize,
                (raw & window_mask) >> window_shift,
            )
        };

        self.bank_leader.fill(None);
        // (member index, leader index) — leader merges with itself.
        let mut selected = std::mem::take(&mut self.scratch_selected);
        selected.clear();
        for (i, entry) in group_loads.iter().enumerate() {
            if selected.len() >= usize::from(self.mem.config.result_buses) {
                break;
            }
            let (line, bank, window) = place(entry);
            match self.bank_leader[bank] {
                None => {
                    self.bank_leader[bank] = Some(i);
                    selected.push((i, i));
                }
                Some(li) => {
                    if self.mem.config.load_merging && i - li <= usize::from(MERGE_COMPARE_WINDOW) {
                        self.mem.counters.arbitration_compares += 1;
                        let (leader_line, _, leader_window) = place(&group_loads[li]);
                        if leader_line == line && leader_window == window {
                            selected.push((i, li));
                        }
                    }
                }
            }
        }

        // --- Execute one L1 access per bank leader.
        let mut serviced = 0usize;
        for &(i, li) in &selected {
            let op = group_loads[i].op;
            let (_, bank, _) = place(&group_loads[i]);
            let done = if i == li {
                let line = Self::line_of(&op, t.ppage);
                let done = self.execute_load_access(t.utlb_slot, line, group_extra);
                // A merged member shares its leader's bank, so the leader's
                // completion cycle is keyed by bank id — a fixed-size array
                // instead of the per-pass HashMap this used to be.
                self.leader_done[bank] = done;
                done
            } else {
                self.mem.stats.merged_loads += 1;
                // The WDU (unlike the way tables) looks up every parallel
                // reference individually — that is why it needs four ports.
                if matches!(self.ways, WayScheme::Wdu(_)) {
                    self.mem.counters.wdu_lookups += 1;
                }
                self.leader_done[bank]
            };
            // Narrow SB/MB comparators per access; the page segment is
            // shared below.
            self.mem.counters.sb_lookups_narrow += 1;
            self.mem.counters.mb_lookups_narrow += 1;
            self.mem.complete_load(done, op.id);
            self.ib.remove_load(op.id);
            self.mem.stats.group_loads += 1;
            serviced += 1;
        }
        if serviced > 0 {
            self.mem.stats.groups += 1;
            self.mem.counters.sb_lookups_page_segment += 1;
            self.mem.counters.mb_lookups_page_segment += 1;
        }

        // --- The MBE (lowest priority) writes its bank if no load claimed it.
        if group.include_mbe {
            if let Some(mbe) = self.ib.take_mbe() {
                let line = Self::line_of(&mbe, t.ppage);
                let bank = self.mem.config.l1.bank_of_line(line).0 as usize;
                if self.bank_leader[bank].is_none() {
                    self.execute_mbe_write(t.utlb_slot, line);
                } else {
                    // Bank busy: put it back for a later cycle.
                    self.ib
                        .set_mbe(mbe, PAGE.vpage_of(mbe.vaddr), self.mem.cycle);
                }
            }
        }

        self.scratch_group = group_loads;
        self.scratch_selected = selected;
        serviced
    }

    /// Performs the actual cache access for a bank leader; returns the
    /// completion cycle.
    fn execute_load_access(&mut self, utlb_slot: usize, line: LineAddr, group_extra: u64) -> u64 {
        // MALEC's sub-blocked data arrays return two adjacent sub-blocks on
        // every read (Sec. IV), doubling merge opportunities.
        let sub_blocks = 2u32;
        let ways = self.mem.config.l1.ways();
        let predicted = self.predict_way(utlb_slot, line);
        let exclusion = self.fill_exclusion(line);
        let outcome = self.mem.hierarchy.resolve_line(line, exclusion);

        match (outcome.l1_hit, predicted) {
            (true, Some(way)) => {
                debug_assert_eq!(way, outcome.way, "way tables must track true residency");
                self.mem.counters.l1_reduced_read(sub_blocks);
                self.mem.stats.reduced_accesses += 1;
            }
            (true, None) => {
                self.mem.counters.l1_conventional_read(ways, sub_blocks);
                self.mem.stats.conventional_accesses += 1;
                self.feedback_update(utlb_slot, line, outcome.way);
            }
            (false, _) => {
                // The discovering access is conventional; the fill installs
                // way information via the validity maintenance, so the
                // replay that returns the data after the fill is a
                // *reduced* access — way prediction removes the redundant
                // tag lookup even on the miss path.
                self.mem.counters.l1_conventional_read(ways, sub_blocks);
                self.mem.stats.conventional_accesses += 1;
                if let Some(fill) = outcome.fill {
                    self.on_fill_event(fill);
                }
                if !matches!(self.ways, WayScheme::None) {
                    self.mem.counters.l1_reduced_read(sub_blocks);
                    self.mem.stats.reduced_accesses += 1;
                } else {
                    self.mem.counters.l1_conventional_read(ways, sub_blocks);
                    self.mem.stats.conventional_accesses += 1;
                }
            }
        }
        self.mem.access_done(
            line,
            outcome.l1_hit,
            group_extra + u64::from(outcome.extra_latency),
        )
    }

    /// Writes a merge-buffer eviction to the L1.
    fn execute_mbe_write(&mut self, utlb_slot: usize, line: LineAddr) {
        let predicted = self.predict_way(utlb_slot, line);
        let exclusion = self.fill_exclusion(line);
        let outcome = self.mem.hierarchy.resolve_line(line, exclusion);
        match (outcome.l1_hit, predicted) {
            (true, Some(way)) => {
                debug_assert_eq!(way, outcome.way);
                self.mem.counters.l1_reduced_write(2);
                self.mem.stats.reduced_accesses += 1;
            }
            (true, None) => {
                self.mem.counters.l1_write(2);
                self.mem.stats.conventional_accesses += 1;
                self.feedback_update(utlb_slot, line, outcome.way);
            }
            (false, _) => {
                self.mem.counters.l1_write(2);
                self.mem.stats.conventional_accesses += 1;
                if let Some(fill) = outcome.fill {
                    self.on_fill_event(fill);
                }
            }
        }
        self.mem.stats.mbe_writes += 1;
    }

    /// Moves committed stores toward the merge buffer and stages MB
    /// evictions for the Input Buffer.
    fn drain_stores(&mut self) {
        // Stage at most one MBE into the Input Buffer per cycle.
        if !self.ib.has_mbe() {
            if let Some(mbe) = self.pending_mbe.pop_front() {
                self.ib
                    .set_mbe(mbe, PAGE.vpage_of(mbe.vaddr), self.mem.cycle);
            }
        }
        // Keep the staging queue bounded: stall the drain if it backs up.
        if self.pending_mbe.len() >= 2 {
            return;
        }
        if let Some(op) = self.mem.sb.pop_committed() {
            if let Some(evicted) = self.mem.mb.insert(op) {
                self.pending_mbe.push_back(MemOp::merge_evict(
                    evicted.rep.id,
                    evicted.rep.vaddr,
                    16,
                ));
            }
        }
    }
}

/// Sets (`Some(way)`) or clears (`None`) the way slot for a physical line,
/// searching the uWT first, then the WT (Sec. V: "although the WT includes
/// all uWT entries, it is only updated if no corresponding uWT entry was
/// found").
fn update_way_slot(
    m: &mut MemorySide,
    uwt: &mut WayTable,
    wt: &mut WayTable,
    line: LineAddr,
    way: Option<WayId>,
) {
    let ppage = PPageId::new(PAGE.page_of_line(line));
    let line_in_page = PAGE.index_in_page(line);
    let update = |table: &mut WayTable, slot| {
        let entry = table.entry_mut(slot);
        match way {
            Some(w) => {
                entry.set(line_in_page, w);
            }
            None => entry.clear(line_in_page),
        }
    };

    m.counters.utlb_reverse_lookups += 1;
    if let Some(uslot) = m.mmu.utlb_slot_of_ppage(ppage) {
        update(uwt, uslot);
        m.counters.uwt_bit_updates += 1;
        return;
    }
    m.counters.tlb_reverse_lookups += 1;
    if let Some(tslot) = m.mmu.tlb_slot_of_ppage(ppage) {
        update(wt, tslot);
        m.counters.wt_bit_updates += 1;
    }
}

impl L1DataInterface for MalecInterface {
    fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
        // 1. Deliver due completions.
        self.mem.begin_tick(cycle, completed);

        // 2. Service this cycle's page group.
        self.service_group();

        // 3. Store pipeline.
        self.drain_stores();

        // 4. Latency-variability accounting.
        self.mem.stats.held_load_cycles += self.ib.len() as u64;
    }

    fn offer_load(&mut self, op: MemOp) -> AcceptKind {
        if !self.ib.can_accept_load() {
            return AcceptKind::Rejected;
        }
        let pushed = self
            .ib
            .push_load(op, PAGE.vpage_of(op.vaddr), self.mem.cycle);
        debug_assert!(pushed);
        AcceptKind::Accepted
    }

    fn offer_store(&mut self, op: MemOp) -> AcceptKind {
        if !self.mem.sb.has_room() {
            return AcceptKind::Rejected;
        }
        let vp = PAGE.vpage_of(op.vaddr);
        // Share the translation result when the store hits the page that
        // was just translated (Sec. IV: translation results are shared
        // between loads and stores).
        match self.last_translation {
            Some((last_vp, _)) if last_vp == vp => {
                self.mem.stats.store_translations_shared += 1;
            }
            _ => {
                self.translate_counted(vp);
            }
        }
        self.mem.push_store(op)
    }

    fn commit_store(&mut self, id: OpId) {
        self.mem.sb.mark_committed(id);
    }

    fn pending_loads(&self) -> usize {
        self.ib.len() + self.mem.completions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_types::addr::VAddr;

    fn iface() -> MalecInterface {
        MalecInterface::new(&SimConfig::malec(), 1)
    }

    fn ld(id: u64, addr: u64) -> MemOp {
        MemOp::load(OpId(id), VAddr::new(addr), 4)
    }

    /// Ticks from the cycle after the last one ticked until `ids` loads
    /// complete (or 10,000 cycles pass).
    fn run_until_done(i: &mut MalecInterface, ids: usize) -> Vec<(u64, OpId)> {
        let from = i.mem.cycle + 1;
        let mut done = Vec::new();
        let mut c = from;
        while done.len() < ids && c < from + 10_000 {
            let mut out = Vec::new();
            i.tick(c, &mut out);
            for id in out {
                done.push((c, id));
            }
            c += 1;
        }
        done
    }

    #[test]
    fn same_page_loads_service_in_one_group() {
        let mut i = iface();
        i.tick(0, &mut Vec::new());
        // Four same-page loads to four different lines (= four banks).
        for k in 0..4u64 {
            assert!(i.offer_load(ld(k, 0x1000 + k * 64)).is_accepted());
        }
        let done = run_until_done(&mut i, 4);
        assert_eq!(done.len(), 4);
        assert!(i.stats().groups >= 1);
        // One translation serves all four loads.
        assert_eq!(i.counters().utlb_lookups, 1);
        assert_eq!(i.stats().group_loads, 4);
    }

    #[test]
    fn different_pages_need_multiple_cycles() {
        let mut i = iface();
        i.tick(0, &mut Vec::new());
        for k in 0..3u64 {
            assert!(i.offer_load(ld(k, 0x1000 + k * 0x1000)).is_accepted());
        }
        run_until_done(&mut i, 3);
        assert!(
            i.stats().groups >= 3,
            "three pages cannot share a group: {} groups",
            i.stats().groups
        );
        assert_eq!(i.counters().utlb_lookups, 3);
    }

    #[test]
    fn same_line_loads_merge() {
        let mut i = iface();
        i.tick(0, &mut Vec::new());
        // Warm the line.
        i.offer_load(ld(0, 0x1000));
        run_until_done(&mut i, 1);
        let c0 = 500;
        i.tick(c0, &mut Vec::new());
        // Two loads to the same 32-byte window of one line.
        i.offer_load(ld(10, 0x1000));
        i.offer_load(ld(11, 0x1008));
        let done = run_until_done(&mut i, 2);
        assert_eq!(done.len(), 2);
        assert_eq!(i.stats().merged_loads, 1, "second load rides along");
        // Both complete in the same cycle.
        assert_eq!(done[0].0, done[1].0);
    }

    #[test]
    fn merging_disabled_by_config() {
        let cfg = SimConfig::malec().with_load_merging(false);
        let mut i = MalecInterface::new(&cfg, 1);
        i.tick(0, &mut Vec::new());
        i.offer_load(ld(0, 0x1000));
        run_until_done(&mut i, 1);
        i.tick(500, &mut Vec::new());
        i.offer_load(ld(10, 0x1000));
        i.offer_load(ld(11, 0x1008));
        run_until_done(&mut i, 2);
        assert_eq!(i.stats().merged_loads, 0);
    }

    #[test]
    fn way_tables_enable_reduced_accesses_on_reuse() {
        let mut i = iface();
        i.tick(0, &mut Vec::new());
        // First access: miss + fill (installs way info); the post-fill
        // replay that returns the data is already a reduced access.
        i.offer_load(ld(0, 0x3000));
        run_until_done(&mut i, 1);
        assert_eq!(i.stats().reduced_accesses, 1);
        assert_eq!(i.stats().conventional_accesses, 1);
        // Second access to the same line: way known + valid => reduced.
        i.tick(600, &mut Vec::new());
        i.offer_load(ld(1, 0x3010));
        run_until_done(&mut i, 1);
        assert_eq!(i.stats().reduced_accesses, 2);
        assert_eq!(
            i.counters().l1_tag_bank_reads,
            1,
            "only the miss touched tags"
        );
    }

    #[test]
    fn input_buffer_full_rejects() {
        let mut i = iface();
        i.tick(0, &mut Vec::new());
        let mut accepted = 0;
        for k in 0..20u64 {
            if i.offer_load(ld(k, 0x1000 + k * 0x1000)).is_accepted() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 7, "3 held + 4 fresh slots");
    }

    #[test]
    fn store_translation_shares_group_page() {
        let mut i = iface();
        i.tick(0, &mut Vec::new());
        i.offer_load(ld(0, 0x5000));
        run_until_done(&mut i, 1);
        let lookups_before = i.counters().utlb_lookups;
        // Store to the page just translated: shared, no new lookup.
        assert!(i
            .offer_store(MemOp::store(OpId(1), VAddr::new(0x5040), 4))
            .is_accepted());
        assert_eq!(i.counters().utlb_lookups, lookups_before);
        assert_eq!(i.stats().store_translations_shared, 1);
        // Store to a different page translates.
        assert!(i
            .offer_store(MemOp::store(OpId(2), VAddr::new(0x9000), 4))
            .is_accepted());
        assert_eq!(i.counters().utlb_lookups, lookups_before + 1);
    }

    #[test]
    fn mbe_write_reaches_l1() {
        let mut i = iface();
        i.tick(0, &mut Vec::new());
        // 5 committed stores to 5 lines on the same page: MB (4) evicts.
        for k in 0..5u64 {
            let op = MemOp::store(OpId(k), VAddr::new(0x7000 + k * 64), 4);
            assert!(i.offer_store(op).is_accepted());
            i.commit_store(OpId(k));
        }
        for c in 1..200 {
            i.tick(c, &mut Vec::new());
        }
        assert!(i.stats().mbe_writes >= 1);
        assert!(i.counters().l1_data_subblock_writes > 0);
    }

    #[test]
    fn result_buses_cap_parallel_loads() {
        let mut cfg = SimConfig::malec();
        cfg.result_buses = 2;
        let mut i = MalecInterface::new(&cfg, 1);
        i.tick(0, &mut Vec::new());
        for k in 0..4u64 {
            i.offer_load(ld(k, 0x1000 + k * 64));
        }
        // One tick of servicing: at most 2 loads selected.
        let mut out = Vec::new();
        i.tick(1, &mut out);
        assert!(i.stats().loads_serviced <= 2);
        run_until_done(&mut i, 4);
        assert_eq!(i.stats().loads_serviced, 4, "the rest follow later");
    }

    #[test]
    fn wdu_variant_records_and_covers() {
        let cfg = SimConfig::malec().with_way_determination(WayDetermination::Wdu(16));
        let mut i = MalecInterface::new(&cfg, 1);
        i.tick(0, &mut Vec::new());
        i.offer_load(ld(0, 0x3000));
        run_until_done(&mut i, 1);
        i.tick(600, &mut Vec::new());
        i.offer_load(ld(1, 0x3008));
        run_until_done(&mut i, 1);
        // Reduced twice: the post-fill replay and the second access.
        assert_eq!(i.stats().reduced_accesses, 2);
        assert!(matches!(i.ways, WayScheme::Wdu(_)));
        assert!(i.counters().wdu_lookups >= 2);
    }

    #[test]
    fn no_way_determination_is_always_conventional() {
        let cfg = SimConfig::malec().with_way_determination(WayDetermination::None);
        let mut i = MalecInterface::new(&cfg, 1);
        i.tick(0, &mut Vec::new());
        i.offer_load(ld(0, 0x3000));
        run_until_done(&mut i, 1);
        i.tick(600, &mut Vec::new());
        i.offer_load(ld(1, 0x3008));
        run_until_done(&mut i, 1);
        assert_eq!(i.stats().reduced_accesses, 0);
        // Discovery + conventional replay + the second access.
        assert_eq!(i.stats().conventional_accesses, 3);
    }

    #[test]
    fn feedback_ablation_lowers_reduced_accesses() {
        // Fill a line while its page is NOT in the uTLB, then access it:
        // with feedback the first conventional hit trains the uWT; without
        // it the access stays conventional forever (until a new fill).
        let run = |wd: WayDetermination| {
            let cfg = SimConfig::malec().with_way_determination(wd);
            let mut i = MalecInterface::new(&cfg, 1);
            i.tick(0, &mut Vec::new());
            // Touch page A (fills line, installs way info in uWT).
            i.offer_load(ld(0, 0xA000));
            run_until_done(&mut i, 1);
            // Evict page A from the 16-entry uTLB *and* (with the fixed
            // seed) from the 64-entry random-replacement TLB by touching
            // 300 other pages. The +0x40 offset keeps every intermediate
            // line in bank 1, so page A's line (bank 0) cannot be evicted
            // from the cache itself.
            for k in 0..300u64 {
                i.offer_load(ld(100 + k, 0x10_0040 + k * 0x1000));
                run_until_done(&mut i, 1);
            }
            // Re-access page A twice: line still cached, but way info lost.
            i.offer_load(ld(900, 0xA000));
            run_until_done(&mut i, 1);
            i.offer_load(ld(901, 0xA008));
            run_until_done(&mut i, 1);
            i.stats().reduced_accesses
        };
        let with_feedback = run(WayDetermination::WayTables);
        let without = run(WayDetermination::WayTablesNoFeedback);
        assert!(
            with_feedback > without,
            "feedback must recover lost way info: {with_feedback} vs {without}"
        );
    }
}
