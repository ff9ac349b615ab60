//! The full-system simulator: configuration + benchmark → [`RunSummary`].
//!
//! One call wires together the workload generator (`malec-trace`), the
//! out-of-order core (`malec-cpu`), the configured L1 data interface (this
//! crate) and the energy model (`malec-energy`), and returns everything the
//! paper's figures need.

use malec_cpu::{AcceptKind, L1DataInterface, OoOCore};
use malec_energy::EnergyModel;
use malec_trace::{BenchmarkProfile, TraceInst, WorkloadGenerator};
use malec_types::op::{MemOp, OpId};
use malec_types::{InterfaceKind, SimConfig};

use crate::baseline::BaselineInterface;
use crate::malec::MalecInterface;
use crate::memory_side::MemorySide;
use crate::metrics::RunSummary;

/// Either interface implementation, dispatched by configuration.
///
/// Both variants are boxed: the interfaces are hundreds of bytes of
/// configuration and buffers, and the enum is moved through `OoOCore`.
#[derive(Debug)]
pub enum AnyInterface {
    /// One of the two Table I baselines.
    Baseline(Box<BaselineInterface>),
    /// The MALEC interface.
    Malec(Box<MalecInterface>),
}

impl AnyInterface {
    /// Builds the interface matching `config.interface`.
    pub fn for_config(config: &SimConfig, seed: u64) -> Self {
        match config.interface {
            InterfaceKind::Malec => {
                AnyInterface::Malec(Box::new(MalecInterface::new(config, seed)))
            }
            _ => AnyInterface::Baseline(Box::new(BaselineInterface::new(config, seed))),
        }
    }

    /// The memory side behind either interface.
    fn mem(&self) -> &MemorySide {
        match self {
            AnyInterface::Baseline(b) => &b.mem,
            AnyInterface::Malec(m) => &m.mem,
        }
    }
}

impl L1DataInterface for AnyInterface {
    fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
        match self {
            AnyInterface::Baseline(b) => b.tick(cycle, completed),
            AnyInterface::Malec(m) => m.tick(cycle, completed),
        }
    }

    fn offer_load(&mut self, op: MemOp) -> AcceptKind {
        match self {
            AnyInterface::Baseline(b) => b.offer_load(op),
            AnyInterface::Malec(m) => m.offer_load(op),
        }
    }

    fn offer_store(&mut self, op: MemOp) -> AcceptKind {
        match self {
            AnyInterface::Baseline(b) => b.offer_store(op),
            AnyInterface::Malec(m) => m.offer_store(op),
        }
    }

    fn commit_store(&mut self, id: OpId) {
        match self {
            AnyInterface::Baseline(b) => b.commit_store(id),
            AnyInterface::Malec(m) => m.commit_store(id),
        }
    }

    fn pending_loads(&self) -> usize {
        match self {
            AnyInterface::Baseline(b) => b.pending_loads(),
            AnyInterface::Malec(m) => m.pending_loads(),
        }
    }
}

/// The top-level simulator for one configuration.
///
/// # Example
///
/// ```
/// use malec_core::sim::Simulator;
/// use malec_trace::all_benchmarks;
/// use malec_types::SimConfig;
///
/// let sim = Simulator::new(SimConfig::base1ldst());
/// let summary = sim.run(&all_benchmarks()[0], 10_000, 42);
/// assert_eq!(summary.config, "Base1ldst");
/// assert!(summary.cycles() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation — configurations in
    /// this workspace are constructed from [`SimConfig`] presets, so an
    /// invalid one is a programming error.
    pub fn new(config: SimConfig) -> Self {
        config.validate().expect("valid simulation configuration");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `insts` instructions of `profile` with the given seed and
    /// returns the complete summary.
    pub fn run(&self, profile: &BenchmarkProfile, insts: u64, seed: u64) -> RunSummary {
        let trace = WorkloadGenerator::new(profile, seed).take(insts as usize);
        self.run_trace(profile.name, profile.suite.name(), trace, seed)
    }

    /// Runs an arbitrary instruction stream — a scenario generator, a
    /// replayed `.mtr` trace, or anything else that yields [`TraceInst`] —
    /// under this configuration. `seed` only feeds the *interface's*
    /// replacement/placement randomness, so the same trace and seed produce
    /// bit-identical summaries no matter how the trace was obtained.
    pub fn run_trace(
        &self,
        name: impl Into<String>,
        suite: &'static str,
        trace: impl Iterator<Item = TraceInst>,
        seed: u64,
    ) -> RunSummary {
        let interface = AnyInterface::for_config(&self.config, seed ^ 0x5eed);
        let mut core = OoOCore::new(&self.config, interface);
        let core_stats = core.run(trace);
        let interface = core.into_interface();
        let mem = interface.mem();
        let energy =
            EnergyModel::for_config(&self.config).evaluate(&mem.counters, core_stats.cycles);
        let (utlb_hits, utlb_misses) = mem.mmu.utlb_stats();
        let utlb_total = utlb_hits + utlb_misses;
        RunSummary {
            config: self.config.label(),
            benchmark: name.into(),
            suite,
            core: core_stats,
            interface: mem.stats,
            counters: mem.counters,
            energy,
            l1_miss_rate: mem.hierarchy.l1().miss_rate(),
            l2_miss_rate: mem.hierarchy.backing().l2_miss_rate(),
            utlb_miss_rate: if utlb_total == 0 {
                0.0
            } else {
                utlb_misses as f64 / utlb_total as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_trace::all_benchmarks;

    fn bench(name: &str) -> BenchmarkProfile {
        all_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("unknown benchmark {name}"))
    }

    #[test]
    fn all_three_interfaces_complete_a_run() {
        let gzip = bench("gzip");
        for cfg in [
            SimConfig::base1ldst(),
            SimConfig::base2ld1st(),
            SimConfig::malec(),
        ] {
            let s = Simulator::new(cfg).run(&gzip, 5_000, 3);
            assert_eq!(s.core.committed, 5_000, "{}", s.config);
            assert!(s.core.ipc() > 0.1, "{}: ipc {}", s.config, s.core.ipc());
            assert!(s.energy.dynamic > 0.0);
            assert!(s.energy.leakage > 0.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let gzip = bench("gzip");
        let sim = Simulator::new(SimConfig::malec());
        let a = sim.run(&gzip, 4_000, 9);
        let b = sim.run(&gzip, 4_000, 9);
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.interface, b.interface);
    }

    #[test]
    fn malec_beats_base1_on_a_parallel_workload() {
        let djpeg = bench("djpeg");
        let base = Simulator::new(SimConfig::base1ldst()).run(&djpeg, 20_000, 5);
        let malec = Simulator::new(SimConfig::malec()).run(&djpeg, 20_000, 5);
        assert!(
            malec.core.cycles < base.core.cycles,
            "MALEC {} vs Base1 {}",
            malec.core.cycles,
            base.core.cycles
        );
    }

    #[test]
    fn malec_uses_fewer_translations_than_base2() {
        let gzip = bench("gzip");
        let base2 = Simulator::new(SimConfig::base2ld1st()).run(&gzip, 10_000, 5);
        let malec = Simulator::new(SimConfig::malec()).run(&gzip, 10_000, 5);
        // Page grouping shares one translation across each group and lets
        // same-page stores ride along; the saving is bounded by how many
        // same-page references coincide in the Input Buffer.
        assert!(
            (malec.counters.utlb_lookups as f64) < 0.85 * base2.counters.utlb_lookups as f64,
            "page grouping must cut translations: {} vs {}",
            malec.counters.utlb_lookups,
            base2.counters.utlb_lookups
        );
    }

    #[test]
    fn way_determination_covers_most_accesses() {
        let gzip = bench("gzip");
        let s = Simulator::new(SimConfig::malec()).run(&gzip, 30_000, 5);
        assert!(
            s.interface.coverage() > 0.7,
            "coverage should be high on a cache-friendly benchmark: {}",
            s.interface.coverage()
        );
    }

    #[test]
    fn mcf_has_outlier_miss_rate() {
        let mcf = Simulator::new(SimConfig::malec()).run(&bench("mcf"), 15_000, 5);
        let gzip = Simulator::new(SimConfig::malec()).run(&bench("gzip"), 15_000, 5);
        assert!(
            mcf.l1_miss_rate > 4.0 * gzip.l1_miss_rate,
            "mcf {} vs gzip {}",
            mcf.l1_miss_rate,
            gzip.l1_miss_rate
        );
    }
}
