//! The two Table I baselines: `Base1ldst` (one load *or* store per cycle,
//! single-ported everything) and `Base2ld1st` (two loads + one store per
//! cycle via physical multi-porting on top of banking).
//!
//! Both perform a conventional parallel tag + data lookup on every access
//! and translate every memory reference individually; `Base2ld1st` pays the
//! multi-port premium on every uTLB/TLB/L1 activation and in leakage, which
//! is exactly the trade-off Fig. 4b quantifies.

use std::collections::VecDeque;

use malec_cpu::interface::{AcceptKind, L1DataInterface};
use malec_energy::EnergyCounters;
use malec_mem::hierarchy::MemoryHierarchy;
use malec_types::addr::{LineAddr, PAddr};
use malec_types::config::{InterfaceKind, SimConfig};
use malec_types::op::{MemOp, OpId};

use crate::metrics::InterfaceStats;
use crate::mmu::Mmu;
use crate::pending::{CompletionQueue, FillTable};
use crate::sbmb::{MergeBuffer, StoreBuffer};

#[derive(Clone, Copy, Debug)]
struct PendingLoad {
    op: MemOp,
    paddr: PAddr,
    ready: u64,
}

#[derive(Clone, Copy, Debug)]
struct PendingWrite {
    line: LineAddr,
    sub_blocks: u32,
}

/// A conventional multiple-access L1 data interface (both baselines).
///
/// # Example
///
/// ```
/// use malec_core::baseline::BaselineInterface;
/// use malec_types::SimConfig;
///
/// let iface = BaselineInterface::new(&SimConfig::base2ld1st(), 1);
/// assert_eq!(iface.stats().loads_serviced, 0);
/// ```
#[derive(Debug)]
pub struct BaselineInterface {
    config: SimConfig,
    mmu: Mmu,
    hierarchy: MemoryHierarchy,
    sb: StoreBuffer,
    mb: MergeBuffer,
    counters: EnergyCounters,
    stats: InterfaceStats,
    pending: VecDeque<PendingLoad>,
    pending_writes: VecDeque<PendingWrite>,
    completions: CompletionQueue,
    pending_fills: FillTable,
    cycle: u64,
    read_capacity: u32,
    write_capacity: u32,
    total_capacity: u32,
}

impl BaselineInterface {
    /// Builds the baseline interface for `config` (must be
    /// [`InterfaceKind::Base1LdSt`] or [`InterfaceKind::Base2Ld1St`]).
    ///
    /// # Panics
    ///
    /// Panics if called with the MALEC interface kind.
    pub fn new(config: &SimConfig, seed: u64) -> Self {
        let (read_capacity, write_capacity, total_capacity) = match config.interface {
            InterfaceKind::Base1LdSt => (1, 1, 1),
            InterfaceKind::Base2Ld1St => (2, 1, 2),
            InterfaceKind::Malec => panic!("use MalecInterface for the MALEC configuration"),
        };
        Self {
            config: config.clone(),
            mmu: Mmu::new(
                usize::from(config.utlb_entries),
                usize::from(config.tlb_entries),
                seed,
            ),
            hierarchy: MemoryHierarchy::for_config(config),
            sb: StoreBuffer::new(usize::from(config.sb_entries)),
            mb: MergeBuffer::new(
                usize::from(config.mb_entries),
                config.page.line_offset_bits(),
            ),
            counters: EnergyCounters::default(),
            stats: InterfaceStats::default(),
            pending: VecDeque::with_capacity(64),
            pending_writes: VecDeque::with_capacity(8),
            completions: CompletionQueue::with_capacity(usize::from(config.lq_entries)),
            pending_fills: FillTable::with_capacity(128),
            cycle: 0,
            read_capacity,
            write_capacity,
            total_capacity,
        }
    }

    /// Accumulated energy event counters.
    pub fn counters(&self) -> &EnergyCounters {
        &self.counters
    }

    /// Interface statistics.
    pub fn stats(&self) -> &InterfaceStats {
        &self.stats
    }

    /// The memory hierarchy (for miss-rate reporting).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// The MMU (for TLB statistics).
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Translates with energy accounting; returns (paddr, extra latency).
    fn translate_counted(&mut self, op: &MemOp) -> (PAddr, u32) {
        let vpage = self.config.page.vpage_of(op.vaddr);
        self.counters.utlb_lookups += 1;
        self.stats.translations += 1;
        let t = self.mmu.translate(vpage);
        match t.path {
            crate::mmu::TranslationPath::MicroHit => {}
            crate::mmu::TranslationPath::TlbHit { .. } => {
                self.counters.tlb_lookups += 1;
                self.counters.utlb_fills += 1;
            }
            crate::mmu::TranslationPath::Walk { .. } => {
                self.counters.tlb_lookups += 1;
                self.counters.tlb_fills += 1;
                self.counters.utlb_fills += 1;
            }
        }
        let offset = op.vaddr.raw() & (self.config.page.page_bytes() - 1);
        let paddr = PAddr::new((t.ppage.raw() << self.config.page.page_offset_bits()) | offset);
        (paddr, t.path.extra_latency())
    }

    /// Sub-blocks a baseline access activates: one, or two when the access
    /// crosses a 128-bit sub-block boundary.
    fn sub_blocks_of(&self, op: &MemOp, paddr: PAddr) -> u32 {
        // A power of two: it divides the power-of-two line.
        let sb_shift = self.config.l1.sub_block_bytes().trailing_zeros();
        let first = paddr.raw() >> sb_shift;
        let last = (paddr.raw() + u64::from(op.size.max(1)) - 1) >> sb_shift;
        (last - first + 1) as u32
    }

    fn service_load(&mut self, p: PendingLoad) {
        let line = self.config.page.line_of(p.paddr.raw());
        let sub_blocks = self.sub_blocks_of(&p.op, p.paddr);
        // Conventional parallel lookup: all ways' tags + data.
        self.counters
            .l1_conventional_read(self.config.l1.ways(), sub_blocks);
        self.stats.conventional_accesses += 1;
        // Full-width SB and MB lookups for forwarding/consistency.
        self.counters.sb_lookups_full += 1;
        self.counters.mb_lookups_full += 1;

        let outcome = self.hierarchy.resolve_line(line, None);
        if !outcome.l1_hit {
            self.counters
                .l1_line_fill(self.config.l1.sub_blocks_per_line());
            // The access replays once the fill completes (gem5-style):
            // another conventional parallel lookup returns the data.
            self.counters
                .l1_conventional_read(self.config.l1.ways(), sub_blocks);
            self.stats.conventional_accesses += 1;
        }
        let mut done =
            self.cycle + u64::from(self.config.l1_latency()) + u64::from(outcome.extra_latency);
        // MSHR semantics: an access to a line with an outstanding fill
        // completes no earlier than that fill.
        if outcome.l1_hit {
            if let Some(ready) = self.pending_fills.ready_after(line.raw(), self.cycle) {
                done = done.max(ready);
            }
        } else {
            self.pending_fills.note_fill(line.raw(), done);
        }
        self.completions.push(done, p.op.id);
        self.stats.loads_serviced += 1;
    }

    fn service_write(&mut self, w: PendingWrite) {
        // Tag check + data write into the hit way.
        self.counters.l1_write(w.sub_blocks);
        let outcome = self.hierarchy.resolve_line(w.line, None);
        if !outcome.l1_hit {
            self.counters
                .l1_line_fill(self.config.l1.sub_blocks_per_line());
        }
        self.stats.mbe_writes += 1;
    }

    fn drain_store_buffer(&mut self) {
        let Some(op) = self.sb.pop_committed() else {
            return;
        };
        // The MB address region is physical; the SB holds physical
        // addresses (translation happened at acceptance). The stored op
        // carries the virtual address, so recompute the line from the MMU's
        // current mapping deterministically via the page table (same page
        // mapping as at acceptance — the simulator has no remaps).
        if let Some(evicted) = self.mb.insert(op) {
            let line =
                LineAddr::new(evicted.rep.vaddr.raw() >> self.config.page.line_offset_bits());
            self.pending_writes.push_back(PendingWrite {
                line: self.physical_line(line),
                sub_blocks: 2,
            });
        }
    }

    /// Translates a virtual line to a physical line via the page table
    /// (no TLB energy: the SB entry already carries the physical tag).
    fn physical_line(&self, vline: LineAddr) -> LineAddr {
        let page = self.config.page;
        let vpage = malec_types::addr::VPageId::new(page.page_of_line(vline));
        let ppage = malec_mem::tlb::PageTable::default().translate(vpage);
        page.rebase_line(vline, ppage.raw())
    }
}

impl L1DataInterface for BaselineInterface {
    fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
        self.cycle = cycle;

        // 1. Deliver due completions (min-heap pop instead of a full scan).
        self.completions.drain_due(cycle, completed);
        self.pending_fills.prune(cycle);

        // 2. Service cache accesses within the port budget. Writes (merge
        //    buffer evictions) are not time critical; loads go first.
        let mut reads = 0u32;
        let mut writes = 0u32;
        while reads < self.read_capacity
            && reads + writes < self.total_capacity
            && self.pending.front().is_some_and(|p| p.ready <= cycle)
        {
            let p = self.pending.pop_front().expect("front checked");
            self.service_load(p);
            reads += 1;
        }
        while writes < self.write_capacity
            && reads + writes < self.total_capacity
            && !self.pending_writes.is_empty()
        {
            let w = self.pending_writes.pop_front().expect("nonempty");
            self.service_write(w);
            writes += 1;
        }

        // 3. Drain one committed store toward the merge buffer.
        self.drain_store_buffer();
    }

    fn offer_load(&mut self, op: MemOp) -> AcceptKind {
        let (paddr, extra) = self.translate_counted(&op);
        self.pending.push_back(PendingLoad {
            op,
            paddr,
            ready: self.cycle + 1 + u64::from(extra),
        });
        AcceptKind::Accepted
    }

    fn offer_store(&mut self, op: MemOp) -> AcceptKind {
        if !self.sb.has_room() {
            return AcceptKind::Rejected;
        }
        let (_paddr, _extra) = self.translate_counted(&op);
        let pushed = self.sb.push(op);
        debug_assert!(pushed);
        self.stats.stores_accepted += 1;
        AcceptKind::Accepted
    }

    fn commit_store(&mut self, id: OpId) {
        self.sb.mark_committed(id);
    }

    fn pending_loads(&self) -> usize {
        self.pending.len() + self.completions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_types::addr::VAddr;

    fn tick_n(iface: &mut BaselineInterface, from: u64, n: u64) -> Vec<OpId> {
        let mut out = Vec::new();
        for c in from..from + n {
            iface.tick(c, &mut out);
        }
        out
    }

    #[test]
    fn load_completes_with_l1_latency() {
        let mut i = BaselineInterface::new(&SimConfig::base1ldst(), 1);
        i.tick(0, &mut Vec::new());
        assert!(i
            .offer_load(MemOp::load(OpId(0), VAddr::new(0x1000), 4))
            .is_accepted());
        let done = tick_n(&mut i, 1, 100);
        assert_eq!(done, vec![OpId(0)]);
        assert_eq!(i.stats().loads_serviced, 1);
        assert_eq!(i.pending_loads(), 0);
    }

    #[test]
    fn second_access_to_line_is_a_hit_and_faster() {
        let mut i = BaselineInterface::new(&SimConfig::base1ldst(), 1);
        i.tick(0, &mut Vec::new());
        i.offer_load(MemOp::load(OpId(0), VAddr::new(0x1000), 4));
        // Drain the miss.
        let mut c = 1;
        let mut out = Vec::new();
        while out.is_empty() {
            i.tick(c, &mut out);
            c += 1;
        }
        let miss_latency = c - 1;
        i.offer_load(MemOp::load(OpId(1), VAddr::new(0x1004), 4));
        let start = c;
        out.clear();
        while out.is_empty() {
            i.tick(c, &mut out);
            c += 1;
        }
        let hit_latency = c - 1 - start;
        assert!(
            hit_latency + 10 < miss_latency,
            "hit {hit_latency} vs miss {miss_latency}"
        );
    }

    #[test]
    fn base1_services_one_load_per_cycle() {
        let mut i = BaselineInterface::new(&SimConfig::base1ldst(), 1);
        i.tick(0, &mut Vec::new());
        // Warm the lines first.
        for k in 0..4u64 {
            i.offer_load(MemOp::load(OpId(k), VAddr::new(0x1000 + k * 64), 4));
        }
        tick_n(&mut i, 1, 200);
        // Four warm loads offered in one cycle: completions must be spread
        // over four distinct service cycles.
        i.tick(201, &mut Vec::new());
        for k in 10..14u64 {
            i.offer_load(MemOp::load(OpId(k), VAddr::new(0x1000 + (k - 10) * 64), 4));
        }
        let mut per_cycle = Vec::new();
        for c in 202..220 {
            let mut out = Vec::new();
            i.tick(c, &mut out);
            if !out.is_empty() {
                per_cycle.push(out.len());
            }
        }
        assert_eq!(per_cycle, vec![1, 1, 1, 1], "single-ported service");
    }

    #[test]
    fn base2_services_two_loads_per_cycle() {
        let mut i = BaselineInterface::new(&SimConfig::base2ld1st(), 1);
        i.tick(0, &mut Vec::new());
        for k in 0..4u64 {
            i.offer_load(MemOp::load(OpId(k), VAddr::new(0x1000 + k * 64), 4));
        }
        tick_n(&mut i, 1, 200);
        i.tick(201, &mut Vec::new());
        for k in 10..14u64 {
            i.offer_load(MemOp::load(OpId(k), VAddr::new(0x1000 + (k - 10) * 64), 4));
        }
        let mut per_cycle = Vec::new();
        for c in 202..220 {
            let mut out = Vec::new();
            i.tick(c, &mut out);
            if !out.is_empty() {
                per_cycle.push(out.len());
            }
        }
        assert_eq!(per_cycle, vec![2, 2], "dual-read-ported service");
    }

    #[test]
    fn store_lifecycle_reaches_l1_write() {
        let mut i = BaselineInterface::new(&SimConfig::base1ldst(), 1);
        i.tick(0, &mut Vec::new());
        // 5 stores to 5 different lines: MB (4 entries) must evict at least
        // one entry, producing an L1 write.
        for k in 0..5u64 {
            let op = MemOp::store(OpId(k), VAddr::new(0x1000 + k * 64), 4);
            assert!(i.offer_store(op).is_accepted());
            i.commit_store(OpId(k));
        }
        tick_n(&mut i, 1, 50);
        assert_eq!(i.stats().stores_accepted, 5);
        assert!(i.stats().mbe_writes >= 1, "MB eviction must write L1");
        assert!(i.counters().l1_data_subblock_writes > 0);
    }

    #[test]
    fn sb_full_rejects_store() {
        let cfg = SimConfig::base1ldst();
        let mut i = BaselineInterface::new(&cfg, 1);
        i.tick(0, &mut Vec::new());
        let mut accepted = 0;
        for k in 0..100u64 {
            if i.offer_store(MemOp::store(OpId(k), VAddr::new(0x1000 + k * 4), 4))
                .is_accepted()
            {
                accepted += 1;
            }
        }
        assert_eq!(accepted, u64::from(cfg.sb_entries));
    }

    #[test]
    fn every_load_translates_individually() {
        let mut i = BaselineInterface::new(&SimConfig::base2ld1st(), 1);
        i.tick(0, &mut Vec::new());
        for k in 0..10u64 {
            i.offer_load(MemOp::load(OpId(k), VAddr::new(0x1000 + k * 8), 4));
        }
        assert_eq!(i.counters().utlb_lookups, 10, "no translation sharing");
    }
}
