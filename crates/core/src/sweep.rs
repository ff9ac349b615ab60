//! Cache-parameter sweeps — the Sec. VI-D scaling claims as an API.
//!
//! The paper states that Page-Based Memory Access Grouping and Page-Based
//! Way Determination "scale well with most cache parameters, e.g. capacity,
//! line size, associativity, number of banks, and available address space".
//! [`ParameterSweep`] builds valid [`SimConfig`] variants along those axes
//! so the claim can be measured rather than asserted.

use malec_types::config::SimConfig;
use malec_types::geometry::CacheGeometry;

use crate::metrics::RunSummary;
use crate::parallel::parallel_map;
use crate::sim::Simulator;
use crate::source::ScenarioSource;
use malec_trace::profile::BenchmarkProfile;

/// One point of a parameter sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Human-readable description of the varied parameter (e.g. `banks=8`).
    pub label: String,
    /// The configuration at this point.
    pub config: SimConfig,
}

/// Builder for families of MALEC configurations along one geometry axis.
///
/// # Example
///
/// ```
/// use malec_core::sweep::ParameterSweep;
///
/// let points = ParameterSweep::banks(&[1, 2, 4, 8]);
/// assert_eq!(points.len(), 4);
/// assert!(points.iter().all(|p| p.config.validate().is_ok()));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ParameterSweep;

impl ParameterSweep {
    /// MALEC configurations with varying L1 bank counts (same capacity).
    pub fn banks(banks: &[u32]) -> Vec<SweepPoint> {
        banks
            .iter()
            .filter_map(|&b| {
                let l1 = CacheGeometry::new(32 * 1024, 4, b, 64, 128).ok()?;
                let mut config = SimConfig::malec();
                config.l1 = l1;
                config.validate().ok()?;
                Some(SweepPoint {
                    label: format!("banks={b}"),
                    config,
                })
            })
            .collect()
    }

    /// MALEC configurations with varying L1 capacities (same organization).
    pub fn capacities(kib: &[u64]) -> Vec<SweepPoint> {
        kib.iter()
            .filter_map(|&k| {
                let l1 = CacheGeometry::new(k * 1024, 4, 4, 64, 128).ok()?;
                let mut config = SimConfig::malec();
                config.l1 = l1;
                config.validate().ok()?;
                Some(SweepPoint {
                    label: format!("L1={k}KiB"),
                    config,
                })
            })
            .collect()
    }

    /// MALEC configurations with varying associativity.
    pub fn ways(ways: &[u32]) -> Vec<SweepPoint> {
        ways.iter()
            .filter_map(|&w| {
                let l1 = CacheGeometry::new(32 * 1024, w, 4, 64, 128).ok()?;
                let mut config = SimConfig::malec();
                config.l1 = l1;
                config.validate().ok()?;
                Some(SweepPoint {
                    label: format!("ways={w}"),
                    config,
                })
            })
            .collect()
    }

    /// MALEC configurations with varying result-bus counts (the paper:
    /// "MALEC's performance is primarily limited by the number of memory
    /// references issued per cycle and the number of available result
    /// busses").
    pub fn result_buses(buses: &[u8]) -> Vec<SweepPoint> {
        buses
            .iter()
            .filter_map(|&r| {
                let mut config = SimConfig::malec();
                config.result_buses = r;
                config.validate().ok()?;
                Some(SweepPoint {
                    label: format!("result_buses={r}"),
                    config,
                })
            })
            .collect()
    }

    /// Runs every point of a sweep on one benchmark, one point per worker
    /// (each point is an independent seeded simulation; the output order
    /// matches `points` no matter how the work was scheduled).
    pub fn run(
        points: &[SweepPoint],
        profile: &BenchmarkProfile,
        insts: u64,
        seed: u64,
    ) -> Vec<(String, RunSummary)> {
        Self::run_source(
            points,
            &ScenarioSource::Profile(profile.clone()),
            insts,
            seed,
        )
    }

    /// [`ParameterSweep::run`] over any workload source — a profile, a
    /// composed scenario, or a replayed `.mtr` trace. Replay sources are
    /// re-opened per point, so the fan-out stays embarrassingly parallel.
    ///
    /// # Panics
    ///
    /// Panics if a replay source's file cannot be read — a sweep over a
    /// missing trace is a harness bug, not a recoverable condition.
    pub fn run_source(
        points: &[SweepPoint],
        source: &ScenarioSource,
        insts: u64,
        seed: u64,
    ) -> Vec<(String, RunSummary)> {
        let points: Vec<&SweepPoint> = points.iter().collect();
        parallel_map(points, |p| {
            let summary = Simulator::new(p.config.clone())
                .run_source(source, insts, seed)
                .unwrap_or_else(|e| panic!("{}: workload source failed: {e}", p.label));
            (p.label.clone(), summary)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_trace::all_benchmarks;

    fn gzip() -> BenchmarkProfile {
        all_benchmarks()
            .into_iter()
            .find(|b| b.name == "gzip")
            .expect("gzip exists")
    }

    #[test]
    fn invalid_points_are_dropped() {
        // 3 banks is not a power of two; the point silently disappears.
        let points = ParameterSweep::banks(&[2, 3, 4]);
        assert_eq!(points.len(), 2);
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["banks=2", "banks=4"]);
    }

    #[test]
    fn more_banks_never_hurt_grouped_throughput() {
        let points = ParameterSweep::banks(&[1, 4]);
        let results = ParameterSweep::run(&points, &gzip(), 15_000, 3);
        let one_bank = results[0].1.core.cycles;
        let four_banks = results[1].1.core.cycles;
        assert!(
            four_banks <= one_bank,
            "banking enables parallel servicing: {four_banks} vs {one_bank}"
        );
    }

    #[test]
    fn bigger_caches_miss_less() {
        let points = ParameterSweep::capacities(&[8, 64]);
        let results = ParameterSweep::run(&points, &gzip(), 15_000, 3);
        assert!(
            results[1].1.l1_miss_rate <= results[0].1.l1_miss_rate,
            "64KiB should not miss more than 8KiB"
        );
    }

    #[test]
    fn way_determination_survives_associativity_changes() {
        // The 2-bit encoding generalizes to 8 ways (3 bits would be naive;
        // we keep 2 bits and one excluded way — coverage still works).
        let points = ParameterSweep::ways(&[2, 4, 8]);
        let results = ParameterSweep::run(&points, &gzip(), 15_000, 3);
        for (label, run) in &results {
            assert!(
                run.interface.coverage() > 0.5,
                "{label}: coverage collapsed to {}",
                run.interface.coverage()
            );
        }
    }

    #[test]
    fn result_buses_bound_malec_throughput() {
        let points = ParameterSweep::result_buses(&[1, 4]);
        let results = ParameterSweep::run(&points, &gzip(), 15_000, 3);
        let narrow = results[0].1.core.cycles;
        let wide = results[1].1.core.cycles;
        assert!(
            wide < narrow,
            "one result bus must throttle MALEC: {wide} vs {narrow}"
        );
    }
}
