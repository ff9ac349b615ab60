//! Workload sources: the one abstraction a simulation draws instructions
//! from.
//!
//! PR 1 hard-wired every run to a [`BenchmarkProfile`]; this module widens
//! the input side of [`Simulator`] to three interchangeable sources:
//!
//! * [`ScenarioSource::Profile`] — one calibrated benchmark (the original
//!   path, still monomorphized and allocation-free);
//! * [`ScenarioSource::Scenario`] — a composed multi-phase / mixed /
//!   adversarial [`Scenario`], or one bare benchmark as a scenario (which
//!   reports the profile's suite, like the `Profile` source);
//! * [`ScenarioSource::Replay`] — a recorded `.mtr` trace, streamed from
//!   disk record by record (the file is never materialized in memory).
//!
//! A generated source and its recorded replay produce **bit-identical**
//! summaries under the same configuration and seed: the seed only feeds
//! interface-internal randomness, never the trace.

use std::fs::File;
use std::io::{self, BufReader};
use std::path::PathBuf;

use malec_trace::record::TraceReader;
use malec_trace::scenario::{Composition, Scenario};
use malec_trace::{BenchmarkProfile, WorkloadGenerator};

use crate::metrics::RunSummary;
use crate::sim::Simulator;

/// Suite display name reported for composed scenarios (a bare-benchmark
/// scenario reports its profile's suite instead).
pub const SCENARIO_SUITE: &str = "Scenario";
/// Suite display name reported for replayed traces.
pub const REPLAY_SUITE: &str = "Replay";

/// Where a simulation's instruction stream comes from.
#[derive(Clone, Debug)]
pub enum ScenarioSource {
    /// A single calibrated benchmark profile.
    Profile(BenchmarkProfile),
    /// A composed scenario (multi-phase, mixed, adversarial).
    Scenario(Scenario),
    /// A recorded `.mtr` trace streamed from disk.
    Replay {
        /// Workload name to report (usually the scenario that was
        /// recorded, so generator and replay runs digest identically).
        name: String,
        /// Path of the `.mtr` file.
        path: PathBuf,
    },
}

impl ScenarioSource {
    /// The workload name this source reports in summaries.
    pub fn name(&self) -> &str {
        match self {
            ScenarioSource::Profile(p) => p.name,
            ScenarioSource::Scenario(s) => &s.name,
            ScenarioSource::Replay { name, .. } => name,
        }
    }

    /// The suite display name this source reports.
    pub fn suite(&self) -> &'static str {
        match self {
            ScenarioSource::Profile(p) => p.suite.name(),
            ScenarioSource::Scenario(s) => match &s.composition {
                Composition::Benchmark(p) => p.suite.name(),
                _ => SCENARIO_SUITE,
            },
            ScenarioSource::Replay { .. } => REPLAY_SUITE,
        }
    }
}

impl Simulator {
    /// Runs up to `insts` instructions drawn from `source` (a replayed
    /// trace shorter than `insts` simply ends early) and returns the
    /// summary.
    ///
    /// The replay run of a recorded generator stream is bit-identical to
    /// the generator run: same instructions, same interface seed, same
    /// summary.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a [`ScenarioSource::Replay`] file cannot
    /// be opened or its header is invalid. Generator sources cannot fail.
    pub fn run_source(
        &self,
        source: &ScenarioSource,
        insts: u64,
        seed: u64,
    ) -> io::Result<RunSummary> {
        let name = source.name().to_owned();
        let suite = source.suite();
        match source {
            ScenarioSource::Profile(p) => {
                let trace = WorkloadGenerator::new(p, seed).take(insts as usize);
                Ok(self.run_trace(name, suite, trace, seed))
            }
            ScenarioSource::Scenario(s) => {
                let trace = s.generator(seed).take(insts as usize);
                Ok(self.run_trace(name, suite, trace, seed))
            }
            ScenarioSource::Replay { path, .. } => {
                let file = File::open(path).map_err(|e| {
                    io::Error::new(e.kind(), format!("open {}: {e}", path.display()))
                })?;
                let reader = TraceReader::new(BufReader::new(file))?;
                let trace = reader.into_insts().take(insts as usize);
                Ok(self.run_trace(name, suite, trace, seed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_trace::benchmark_named;
    use malec_trace::record::write_trace;
    use malec_trace::scenario::preset_named;
    use malec_types::SimConfig;

    #[test]
    fn profile_source_matches_plain_run() {
        let gzip = benchmark_named("gzip").expect("gzip exists");
        let sim = Simulator::new(SimConfig::malec());
        let via_source = sim
            .run_source(&ScenarioSource::Profile(gzip.clone()), 4_000, 7)
            .expect("generator sources cannot fail");
        let direct = sim.run(&gzip, 4_000, 7);
        assert_eq!(via_source.core, direct.core);
        assert_eq!(via_source.counters, direct.counters);
        assert_eq!(via_source.benchmark, direct.benchmark);
    }

    #[test]
    fn scenario_sources_run_on_every_interface() {
        let scenario = preset_named("mixed_int_media_thrash").expect("preset");
        for cfg in [
            SimConfig::base1ldst(),
            SimConfig::base2ld1st(),
            SimConfig::malec(),
        ] {
            let s = Simulator::new(cfg)
                .run_source(&ScenarioSource::Scenario(scenario.clone()), 6_000, 3)
                .expect("generator sources cannot fail");
            assert_eq!(s.core.committed, 6_000, "{}", s.config);
            assert_eq!(s.benchmark, "mixed_int_media_thrash");
            assert_eq!(s.suite, SCENARIO_SUITE);
        }
    }

    #[test]
    fn replay_is_bit_identical_to_the_generator_run() {
        let scenario = preset_named("store_burst").expect("preset");
        let seed = 31;
        let insts = 5_000u64;
        let trace: Vec<_> = scenario.generator(seed).take(insts as usize).collect();
        let path = std::env::temp_dir().join(format!(
            "malec_source_test_store_burst_{}.mtr",
            std::process::id()
        ));
        let mut buf = Vec::new();
        write_trace(&mut buf, trace.iter().copied()).expect("encode");
        std::fs::write(&path, &buf).expect("write trace file");

        let sim = Simulator::new(SimConfig::malec());
        let generated = sim
            .run_source(&ScenarioSource::Scenario(scenario.clone()), insts, seed)
            .expect("generator run");
        let replayed = sim
            .run_source(
                &ScenarioSource::Replay {
                    name: scenario.name.clone(),
                    path: path.clone(),
                },
                insts,
                seed,
            )
            .expect("replay run");
        std::fs::remove_file(&path).ok();

        assert_eq!(generated.core, replayed.core);
        assert_eq!(generated.interface, replayed.interface);
        assert_eq!(generated.counters, replayed.counters);
        assert_eq!(generated.benchmark, replayed.benchmark);
        assert_eq!(
            generated.energy.dynamic.to_bits(),
            replayed.energy.dynamic.to_bits()
        );
    }

    #[test]
    fn replay_of_missing_file_reports_the_path() {
        let err = Simulator::new(SimConfig::malec())
            .run_source(
                &ScenarioSource::Replay {
                    name: "ghost".into(),
                    path: PathBuf::from("/nonexistent/ghost.mtr"),
                },
                100,
                1,
            )
            .expect_err("missing file must error");
        assert!(err.to_string().contains("ghost.mtr"), "{err}");
    }

    #[test]
    fn short_replay_ends_early_instead_of_hanging() {
        let gzip = benchmark_named("gzip").expect("gzip exists");
        let trace: Vec<_> = WorkloadGenerator::new(&gzip, 1).take(500).collect();
        let path = std::env::temp_dir().join(format!(
            "malec_source_test_short_{}.mtr",
            std::process::id()
        ));
        let mut buf = Vec::new();
        write_trace(&mut buf, trace.iter().copied()).expect("encode");
        std::fs::write(&path, &buf).expect("write");
        let s = Simulator::new(SimConfig::base1ldst())
            .run_source(
                &ScenarioSource::Replay {
                    name: "short".into(),
                    path: path.clone(),
                },
                10_000,
                1,
            )
            .expect("replay");
        std::fs::remove_file(&path).ok();
        assert_eq!(s.core.committed, 500, "trace length caps the run");
    }
}
