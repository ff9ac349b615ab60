//! The paper's golden workloads and the shared plumbing of its benches.
//!
//! [`goldens`] holds the golden workloads and their recorded digests. The
//! `paper` bench regenerates every table and figure of the evaluation from
//! one serve-`Engine` run over the union of their cells;
//! `micro_structures` times the simulator's hot structures through
//! [`timing`].

use malec_core::report::geo_mean;
use malec_trace::profile::Suite;

pub mod goldens;
pub mod timing;

/// Instructions simulated per benchmark per configuration. The paper uses
/// 1-billion-instruction SimPoint phases; the synthetic workloads' statistics
/// converge orders of magnitude sooner, because a profile's generator is
/// stationary: every window draws from the same calibrated distributions.
pub const DEFAULT_INSTS: u64 = 120_000;

/// Seed used by every figure (bit-for-bit reproducibility).
pub const DEFAULT_SEED: u64 = 2013;

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
}
