//! The memory side behind every Table I interface.
//!
//! Base1ldst, Base2ld1st and MALEC differ in how they select, group and
//! perform L1 accesses; behind that front end the paper compares them on
//! one identical memory side. [`MemorySide`] is that side, owned once by
//! each interface: the MMU, the memory hierarchy, the store and merge
//! buffers, the energy ledger, the interface statistics, the completions
//! in flight and the MSHR fill table, with one method per rule they share.

use malec_cpu::AcceptKind;
use malec_energy::EnergyCounters;
use malec_mem::hierarchy::MemoryHierarchy;
use malec_types::addr::{LineAddr, VPageId};
use malec_types::op::{MemOp, OpId};
use malec_types::params::{DRAM_LATENCY, L2_LATENCY, MB_ENTRIES, SB_ENTRIES};
use malec_types::SimConfig;

use crate::metrics::InterfaceStats;
use crate::mmu::{Mmu, Translation, TranslationPath, WALK_LATENCY};
use crate::pending::{CompletionQueue, FillTable};
use crate::sbmb::{MergeBuffer, StoreBuffer};

/// The state every interface keeps behind its L1 front end.
#[derive(Debug)]
pub(crate) struct MemorySide {
    pub(crate) config: SimConfig,
    pub(crate) mmu: Mmu,
    pub(crate) hierarchy: MemoryHierarchy,
    pub(crate) sb: StoreBuffer,
    pub(crate) mb: MergeBuffer,
    pub(crate) counters: EnergyCounters,
    pub(crate) stats: InterfaceStats,
    pub(crate) completions: CompletionQueue,
    pub(crate) pending_fills: FillTable,
    /// The cycle of the current tick.
    pub(crate) cycle: u64,
}

/// The most cycles from an L1 access to its load's completion: the L1
/// latency, a page-table walk, an L2 miss and DRAM (88 for Table II). A hit
/// under a pending fill completes with that fill, which began no later.
fn longest_load_latency(config: &SimConfig) -> u64 {
    u64::from(config.l1_latency())
        + u64::from(WALK_LATENCY)
        + u64::from(L2_LATENCY)
        + u64::from(DRAM_LATENCY)
}

impl MemorySide {
    /// The memory side for `config`; `seed` drives TLB replacement.
    pub(crate) fn new(config: &SimConfig, seed: u64) -> Self {
        Self {
            config: config.clone(),
            mmu: Mmu::new(
                usize::from(config.utlb_entries),
                usize::from(config.tlb_entries),
                seed,
            ),
            hierarchy: MemoryHierarchy::for_config(config),
            sb: StoreBuffer::new(usize::from(SB_ENTRIES)),
            mb: MergeBuffer::new(usize::from(MB_ENTRIES)),
            counters: EnergyCounters::default(),
            stats: InterfaceStats::default(),
            completions: CompletionQueue::new(longest_load_latency(config)),
            pending_fills: FillTable::with_capacity(128),
            cycle: 0,
        }
    }

    /// Opens the tick at `cycle`, no earlier than the last: delivers every
    /// completion due by then into `completed` and drops the fills that
    /// have landed.
    #[inline]
    pub(crate) fn begin_tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
        debug_assert!(
            cycle >= self.cycle,
            "tick at cycle {cycle} after cycle {}",
            self.cycle
        );
        self.cycle = cycle;
        self.completions.drain_due(cycle, completed);
        self.pending_fills.prune(cycle);
    }

    /// Translates `vpage` and charges its path: one uTLB lookup always, a
    /// TLB lookup and a uTLB fill after a uTLB miss, a TLB fill after a
    /// walk.
    #[inline]
    pub(crate) fn translate(&mut self, vpage: VPageId) -> Translation {
        self.counters.utlb_lookups += 1;
        self.stats.translations += 1;
        let t = self.mmu.translate(vpage);
        match t.path {
            TranslationPath::MicroHit => {}
            TranslationPath::TlbHit { .. } => {
                self.counters.tlb_lookups += 1;
                self.counters.utlb_fills += 1;
            }
            TranslationPath::Walk { .. } => {
                self.counters.tlb_lookups += 1;
                self.counters.tlb_fills += 1;
                self.counters.utlb_fills += 1;
            }
        }
        t
    }

    /// The cycle an L1 access to `line` begun this tick completes, `extra`
    /// cycles past the L1 latency. MSHR semantics: a hit on a line with an
    /// outstanding fill completes no earlier than that fill, and a miss
    /// records its own fill.
    #[inline]
    pub(crate) fn access_done(&mut self, line: LineAddr, l1_hit: bool, extra: u64) -> u64 {
        let done = self.cycle + u64::from(self.config.l1_latency()) + extra;
        if !l1_hit {
            self.pending_fills.note_fill(line.raw(), done);
            return done;
        }
        match self.pending_fills.ready_after(line.raw(), self.cycle) {
            Some(ready) => done.max(ready),
            None => done,
        }
    }

    /// Delivers load `id` at cycle `done`.
    #[inline]
    pub(crate) fn complete_load(&mut self, done: u64, id: OpId) {
        self.completions.push(done, id);
        self.stats.loads_serviced += 1;
    }

    /// Accepts store `op` into the store buffer; the caller has checked
    /// for room and charged the store's translation.
    #[inline]
    pub(crate) fn push_store(&mut self, op: MemOp) -> AcceptKind {
        let pushed = self.sb.push(op);
        debug_assert!(pushed);
        self.stats.stores_accepted += 1;
        AcceptKind::Accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Translates `vpage` on a zeroed ledger: the path and what it charged.
    fn charge(m: &mut MemorySide, vpage: u64) -> (TranslationPath, EnergyCounters) {
        m.counters = EnergyCounters::default();
        let path = m.translate(VPageId::new(vpage)).path;
        (path, m.counters)
    }

    #[test]
    fn each_translation_path_charges_its_lookups_and_fills() {
        let mut config = SimConfig::malec();
        // One uTLB slot: a second page moves the first out to the TLB.
        config.utlb_entries = 1;
        let mut m = MemorySide::new(&config, 1);
        let walk = EnergyCounters {
            utlb_lookups: 1,
            tlb_lookups: 1,
            tlb_fills: 1,
            utlb_fills: 1,
            ..EnergyCounters::default()
        };
        let tlb_hit = EnergyCounters {
            tlb_fills: 0,
            ..walk
        };
        let micro_hit = EnergyCounters {
            utlb_lookups: 1,
            ..EnergyCounters::default()
        };

        let (path, charged) = charge(&mut m, 1);
        assert!(matches!(path, TranslationPath::Walk { .. }));
        assert_eq!(charged, walk);
        assert_eq!(charge(&mut m, 1), (TranslationPath::MicroHit, micro_hit));
        let (path, charged) = charge(&mut m, 2);
        assert!(matches!(path, TranslationPath::Walk { .. }));
        assert_eq!(charged, walk);
        let (path, charged) = charge(&mut m, 1);
        assert!(matches!(path, TranslationPath::TlbHit { .. }));
        assert_eq!(charged, tlb_hit);
        assert_eq!(m.stats.translations, 4, "one per call, whatever the path");
    }

    #[test]
    fn a_hit_under_a_pending_fill_completes_with_the_fill() {
        let mut m = MemorySide::new(&SimConfig::base1ldst(), 1);
        let latency = u64::from(m.config.l1_latency());
        let line = LineAddr::new(7);
        m.begin_tick(10, &mut Vec::new());
        let fill = m.access_done(line, false, 30);
        assert_eq!(fill, 10 + latency + 30, "a miss pays its own extra");
        assert_eq!(m.pending_fills.ready_after(line.raw(), 10), Some(fill));

        m.begin_tick(12, &mut Vec::new());
        assert_eq!(
            m.access_done(line, true, 0),
            fill,
            "no earlier than the fill"
        );
        assert_eq!(
            m.access_done(LineAddr::new(8), true, 0),
            12 + latency,
            "another line's hit pays only the L1 latency"
        );
        m.begin_tick(fill, &mut Vec::new());
        assert!(m.pending_fills.is_empty(), "the landed fill is pruned");
        assert_eq!(m.access_done(line, true, 0), fill + latency);
    }

    #[test]
    fn tick_start_delivers_exactly_the_due_completions() {
        let mut m = MemorySide::new(&SimConfig::malec(), 1);
        for (done, id) in [(5, 1), (3, 2), (9, 3), (5, 4)] {
            m.complete_load(done, OpId(id));
        }
        assert_eq!(m.stats.loads_serviced, 4);
        let mut out = Vec::new();
        m.begin_tick(2, &mut out);
        assert!(out.is_empty());
        m.begin_tick(5, &mut out);
        assert_eq!(out, [OpId(2), OpId(1), OpId(4)]);
        assert_eq!(m.cycle, 5);
        out.clear();
        m.begin_tick(8, &mut out);
        assert!(out.is_empty());
        m.begin_tick(9, &mut out);
        assert_eq!(out, [OpId(3)]);
        assert!(m.completions.is_empty());
    }
}
