//! Shared plumbing for the table/figure benches.
//!
//! Each `[[bench]]` target regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). The heavy lifting — sweeping the 38
//! benchmark profiles over the five analyzed configurations — lives here so
//! the individual benches stay declarative.

use malec_core::parallel::{parallel_map_with, workers_for};
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
/// converge orders of magnitude sooner (see DESIGN.md §1).
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
/// Every `(benchmark, config)` cell is an independent, seeded simulation,
/// so the full matrix fans out across all available cores; the result is
/// bit-identical to the serial `run_matrix_on_with(.., Some(1))` regardless
/// of scheduling (each cell writes its own slot).
pub fn run_matrix(configs: &[SimConfig], insts: u64) -> Vec<Vec<RunSummary>> {
    run_matrix_on(&all_benchmarks(), configs, insts)
}

/// [`run_matrix`] restricted to the given benchmark subset.
pub fn run_matrix_on(
    benchmarks: &[BenchmarkProfile],
    configs: &[SimConfig],
    insts: u64,
) -> Vec<Vec<RunSummary>> {
    run_matrix_on_with(benchmarks, configs, insts, None)
}

/// [`run_matrix_on`] with an operator-imposed worker cap (the `--jobs N`
/// flag): `None` uses every available core, `Some(n)` fans out over at most
/// `n` workers, and `Some(1)` is the plain serial path. The result is
/// bit-identical either way.
pub fn run_matrix_on_with(
    benchmarks: &[BenchmarkProfile],
    configs: &[SimConfig],
    insts: u64,
    jobs: Option<usize>,
) -> Vec<Vec<RunSummary>> {
    let cells: Vec<(&BenchmarkProfile, &SimConfig)> = benchmarks
        .iter()
        .flat_map(|profile| configs.iter().map(move |config| (profile, config)))
        .collect();
    let workers = workers_for(cells.len(), jobs);
    let summaries = parallel_map_with(
        cells,
        |(profile, config)| run_one(config, profile, insts),
        workers,
    );
    rows_of(summaries, configs.len())
}

/// Chunks a flat row-major cell list back into per-benchmark rows.
fn rows_of(summaries: Vec<RunSummary>, row_len: usize) -> Vec<Vec<RunSummary>> {
    debug_assert!(row_len > 0 && summaries.len().is_multiple_of(row_len));
    let mut rows = Vec::with_capacity(summaries.len() / row_len);
    let mut it = summaries.into_iter();
    while it.len() > 0 {
        rows.push(it.by_ref().take(row_len).collect());
    }
    rows
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
    use malec_core::digest;
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

    #[test]
    fn jobs_capped_matrix_is_bit_identical() {
        let benches: Vec<_> = all_benchmarks().into_iter().take(2).collect();
        let configs = [SimConfig::base1ldst(), SimConfig::malec()];
        let free = run_matrix_on_with(&benches, &configs, 2_000, None);
        let capped = run_matrix_on_with(&benches, &configs, 2_000, Some(1));
        for (frow, crow) in free.iter().zip(&capped) {
            for (f, c) in frow.iter().zip(crow) {
                assert_eq!(digest(f), digest(c));
            }
        }
    }

    #[test]
    fn parallel_matrix_matches_serial_bit_for_bit() {
        let benches: Vec<_> = all_benchmarks().into_iter().take(3).collect();
        let configs = [SimConfig::base1ldst(), SimConfig::malec()];
        let serial = run_matrix_on_with(&benches, &configs, 3_000, Some(1));
        let parallel = run_matrix_on(&benches, &configs, 3_000);
        assert_eq!(serial.len(), parallel.len());
        for (srow, prow) in serial.iter().zip(&parallel) {
            for (s, p) in srow.iter().zip(prow) {
                assert_eq!(s.benchmark, p.benchmark);
                assert_eq!(s.config, p.config);
                assert_eq!(digest(s), digest(p));
            }
        }
    }
}
