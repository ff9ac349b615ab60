//! Shared plumbing for the table/figure benches.
//!
//! Each `[[bench]]` target regenerates one table or figure of the paper and
//! is named after it (`tab1_configurations`, `fig4a_performance`, …; the
//! list is `crates/bench/benches/`). The heavy lifting — sweeping the 38
//! benchmark profiles over the five analyzed configurations — lives here so
//! the individual benches stay declarative.

use malec_core::parallel::parallel_map;
use malec_core::report::geo_mean;
use malec_core::RunSummary;
use malec_core::Simulator;
use malec_trace::all_benchmarks;
use malec_trace::profile::{BenchmarkProfile, Suite};
use malec_types::SimConfig;

pub mod goldens;
pub mod timing;

/// Instructions simulated per benchmark per configuration. The paper uses
/// 1-billion-instruction SimPoint phases; the synthetic workloads' statistics
/// converge orders of magnitude sooner, because a profile's generator is
/// stationary: every window draws from the same calibrated distributions.
pub const DEFAULT_INSTS: u64 = 120_000;

/// Seed used by every figure (bit-for-bit reproducibility).
pub const DEFAULT_SEED: u64 = 2013;

/// Runs `profile` under `config`.
pub fn run_one(config: &SimConfig, profile: &BenchmarkProfile, insts: u64) -> RunSummary {
    Simulator::new(config.clone()).run(profile, insts, DEFAULT_SEED)
}

/// Runs every benchmark under every given configuration:
/// `result[bench_idx][config_idx]`.
///
/// Every cell is an independent, seeded simulation, so the benchmark rows
/// fan out across all available cores; the result is bit-identical to a
/// serial map regardless of scheduling (each row writes its own slot).
pub fn run_matrix(configs: &[SimConfig], insts: u64) -> Vec<Vec<RunSummary>> {
    parallel_map(all_benchmarks(), |profile| {
        configs
            .iter()
            .map(|config| run_one(config, profile, insts))
            .collect()
    })
}

/// Per-suite and overall geometric means of a per-benchmark series, in the
/// paper's order: SPEC-INT, SPEC-FP, MediaBench2, Overall.
pub fn suite_geo_means(values: &[(Suite, f64)]) -> [(String, f64); 4] {
    let of = |suite: Suite| {
        let v: Vec<f64> = values
            .iter()
            .filter(|(s, _)| *s == suite)
            .map(|(_, v)| *v)
            .collect();
        geo_mean(&v)
    };
    let overall: Vec<f64> = values.iter().map(|(_, v)| *v).collect();
    [
        ("SPEC-INT geo.mean".to_owned(), of(Suite::SpecInt)),
        ("SPEC-FP geo.mean".to_owned(), of(Suite::SpecFp)),
        ("MediaBench2 geo.mean".to_owned(), of(Suite::MediaBench2)),
        ("Overall geo.mean".to_owned(), geo_mean(&overall)),
    ]
}

/// Instruction budget, overridable via `MALEC_BENCH_INSTS` for quick runs.
pub fn insts_budget() -> u64 {
    std::env::var("MALEC_BENCH_INSTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_INSTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_trace::profile::Suite;

    #[test]
    fn suite_means_cover_all_groups() {
        let values = vec![
            (Suite::SpecInt, 2.0),
            (Suite::SpecInt, 8.0),
            (Suite::SpecFp, 3.0),
            (Suite::MediaBench2, 5.0),
        ];
        let means = suite_geo_means(&values);
        assert!((means[0].1 - 4.0).abs() < 1e-12);
        assert!((means[1].1 - 3.0).abs() < 1e-12);
        assert!((means[2].1 - 5.0).abs() < 1e-12);
        assert!(means[3].1 > 0.0);
        assert!(means[3].0.contains("Overall"));
    }

    #[test]
    fn run_one_produces_summary() {
        let profile = &all_benchmarks()[0];
        let s = run_one(&SimConfig::base1ldst(), profile, 2_000);
        assert_eq!(s.core.committed, 2_000);
    }
}
