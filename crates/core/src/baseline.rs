//! The two Table I baselines: `Base1ldst` (one load *or* store per cycle,
//! single-ported everything) and `Base2ld1st` (two loads + one store per
//! cycle via physical multi-porting on top of banking).
//!
//! Both perform a conventional parallel tag + data lookup on every access
//! and translate every memory reference individually; `Base2ld1st` pays the
//! multi-port premium on every uTLB/TLB/L1 activation and in leakage, which
//! is exactly the trade-off Fig. 4b quantifies.

use std::collections::VecDeque;

use malec_cpu::{AcceptKind, L1DataInterface};
use malec_energy::EnergyCounters;
use malec_mem::hierarchy::MemoryHierarchy;
use malec_types::addr::{LineAddr, PAddr, VPageId};
use malec_types::op::{MemOp, OpId};
use malec_types::params::PAGE;
use malec_types::{InterfaceKind, SimConfig};

use crate::memory_side::MemorySide;
use crate::metrics::InterfaceStats;
use crate::mmu::Mmu;

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
    pub(crate) mem: MemorySide,
    pending: VecDeque<PendingLoad>,
    pending_writes: VecDeque<PendingWrite>,
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
            mem: MemorySide::new(config, seed),
            pending: VecDeque::with_capacity(64),
            pending_writes: VecDeque::with_capacity(8),
            read_capacity,
            write_capacity,
            total_capacity,
        }
    }

    /// Accumulated energy event counters.
    pub fn counters(&self) -> &EnergyCounters {
        &self.mem.counters
    }

    /// Interface statistics.
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

    /// Translates with energy accounting; returns (paddr, extra latency).
    fn translate_counted(&mut self, op: &MemOp) -> (PAddr, u32) {
        let t = self.mem.translate(PAGE.vpage_of(op.vaddr));
        let offset = op.vaddr.raw() & (PAGE.page_bytes() - 1);
        let paddr = PAddr::new((t.ppage.raw() << PAGE.page_offset_bits()) | offset);
        (paddr, t.path.extra_latency())
    }

    /// Sub-blocks a baseline access activates: one, or two when the access
    /// crosses a 128-bit sub-block boundary.
    fn sub_blocks_of(&self, op: &MemOp, paddr: PAddr) -> u32 {
        // A power of two: it divides the power-of-two line.
        let sb_shift = self.mem.config.l1.sub_block_bytes().trailing_zeros();
        let first = paddr.raw() >> sb_shift;
        let last = (paddr.raw() + u64::from(op.size.max(1)) - 1) >> sb_shift;
        (last - first + 1) as u32
    }

    fn service_load(&mut self, p: PendingLoad) {
        let sub_blocks = self.sub_blocks_of(&p.op, p.paddr);
        let m = &mut self.mem;
        let l1 = m.config.l1;
        let line = PAGE.line_of(p.paddr.raw());
        // Conventional parallel lookup: all ways' tags + data.
        m.counters.l1_conventional_read(l1.ways(), sub_blocks);
        m.stats.conventional_accesses += 1;
        // Full-width SB and MB lookups for forwarding/consistency.
        m.counters.sb_lookups_full += 1;
        m.counters.mb_lookups_full += 1;

        let outcome = m.hierarchy.resolve_line(line, None);
        if !outcome.l1_hit {
            m.counters.l1_line_fill(l1.sub_blocks_per_line());
            // The access replays once the fill completes (gem5-style):
            // another conventional parallel lookup returns the data.
            m.counters.l1_conventional_read(l1.ways(), sub_blocks);
            m.stats.conventional_accesses += 1;
        }
        let done = m.access_done(line, outcome.l1_hit, u64::from(outcome.extra_latency));
        m.complete_load(done, p.op.id);
    }

    fn service_write(&mut self, w: PendingWrite) {
        let m = &mut self.mem;
        // Tag check + data write into the hit way.
        m.counters.l1_write(w.sub_blocks);
        if !m.hierarchy.resolve_line(w.line, None).l1_hit {
            m.counters.l1_line_fill(m.config.l1.sub_blocks_per_line());
        }
        m.stats.mbe_writes += 1;
    }

    fn drain_store_buffer(&mut self) {
        let Some(op) = self.mem.sb.pop_committed() else {
            return;
        };
        // The MB address region is physical; the SB holds physical
        // addresses (translation happened at acceptance). The stored op
        // carries the virtual address, so the evicted entry's line is
        // rebased onto the page the MMU's page table maps it to (the
        // mapping of its acceptance: the simulator has no remaps).
        if let Some(evicted) = self.mem.mb.insert(op) {
            self.pending_writes.push_back(PendingWrite {
                line: self.physical_line(evicted.line),
                sub_blocks: 2,
            });
        }
    }

    /// Translates a virtual line to a physical line through the MMU's page
    /// table, with no TLB lookup and no energy: the SB entry already
    /// carries the physical tag.
    fn physical_line(&self, vline: LineAddr) -> LineAddr {
        let vpage = VPageId::new(PAGE.page_of_line(vline));
        PAGE.rebase_line(vline, self.mem.mmu.page_of(vpage).raw())
    }
}

impl L1DataInterface for BaselineInterface {
    fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
        // 1. Deliver due completions.
        self.mem.begin_tick(cycle, completed);

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
            ready: self.mem.cycle + 1 + u64::from(extra),
        });
        AcceptKind::Accepted
    }

    fn offer_store(&mut self, op: MemOp) -> AcceptKind {
        if !self.mem.sb.has_room() {
            return AcceptKind::Rejected;
        }
        self.mem.translate(PAGE.vpage_of(op.vaddr));
        self.mem.push_store(op)
    }

    fn commit_store(&mut self, id: OpId) {
        self.mem.sb.mark_committed(id);
    }

    fn pending_loads(&self) -> usize {
        self.pending.len() + self.mem.completions.len()
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
        let mut i = BaselineInterface::new(&SimConfig::base1ldst(), 1);
        i.tick(0, &mut Vec::new());
        let mut accepted = 0;
        for k in 0..100u64 {
            if i.offer_store(MemOp::store(OpId(k), VAddr::new(0x1000 + k * 4), 4))
                .is_accepted()
            {
                accepted += 1;
            }
        }
        assert_eq!(accepted, u64::from(malec_types::params::SB_ENTRIES));
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
