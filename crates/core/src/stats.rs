//! Streaming replicate statistics: Welford accumulation, t-based 95 %
//! confidence intervals, and the replication policy (fixed seed counts or
//! CI-driven early stopping).
//!
//! Every headline number of the paper reproduction used to be a single
//! seeded draw per cell; this module is what turns a cell into a
//! *distribution*. A [`Welford`] accumulator ingests one metric value per
//! replicate in a single numerically stable pass (no stored sample vector,
//! no cancellation-prone `Σx²`), and its 95 % CI half-width prices the
//! uncertainty with the two-sided Student-t 95 % quantile, so small
//! replicate counts get honestly wide intervals instead of the normal
//! approximation's false confidence.
//!
//! [`Replication`] is the policy object the `malec-serve` scheduler (the
//! executor behind `malec-cli run` and `submit` alike) consults: how many
//! replicates to launch up front, and — given the replicate summaries
//! produced so far, in replicate order — whether the target metric's
//! relative CI half-width has fallen below `ci_target` so the remaining
//! replicates can be skipped. The decision is a pure function of the
//! ordered replicate prefix, so every worker count stops at exactly the
//! same replicate count.

use crate::metrics::RunSummary;

/// Two-sided Student-t quantiles `t_{1-α/2, df}`, the standard table
/// values: one row per level (α = 0.10, 0.05, 0.01), one column per df
/// from 1 to 30, then df 40, 60 and 120.
const T_TABLE: [[f64; 33]; 3] = [
    [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697, 1.684, 1.671, 1.658,
    ],
    [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042, 2.021, 2.000, 1.980,
    ],
    [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
        2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
        2.771, 2.763, 2.756, 2.750, 2.704, 2.660, 2.617,
    ],
];

/// `t_{1-α/2, df}` from row `level` of the t table — exact values through
/// 30 degrees of freedom, then conservative steps: each bracket returns the
/// quantile at its **smallest** df (df 31–40 take df 30's value, 41–60 take
/// df 40's, 61–120 take df 60's, beyond take df 120's), and the true
/// quantile decreases in df, so the returned value is never *smaller* than
/// the true one — intervals never understate uncertainty.
pub(crate) fn t_quantile(level: usize, df: u64) -> f64 {
    let column = match df {
        0 => return f64::INFINITY,
        1..=30 => df - 1,
        31..=40 => 29,
        41..=60 => 30,
        61..=120 => 31,
        _ => 32,
    };
    T_TABLE[level][column as usize]
}

/// `t_{0.975, df}`, the 95 % confidence quantile (see [`t_quantile`]).
fn t95(df: u64) -> f64 {
    t_quantile(1, df)
}

/// Why a statistic cannot be produced from the samples seen so far.
/// Small-sample queries return this instead of `NaN` (or a silently wrong
/// sentinel), so every caller decides explicitly what an undefined interval
/// or extremum means for it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StatError {
    /// No observations at all: min/max/mean carry no information.
    Empty,
    /// Exactly one observation: extrema and means exist, but anything
    /// involving spread (variance, CIs) is undefined.
    OneSample,
}

impl std::fmt::Display for StatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatError::Empty => f.write_str("no samples (need at least 1)"),
            StatError::OneSample => f.write_str("one sample carries no spread (need at least 2)"),
        }
    }
}

impl std::error::Error for StatError {}

/// Streaming mean/variance/min/max over one metric, one value per
/// replicate (Welford's online algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Folds one observation.
    pub(crate) fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observations folded so far.
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// The running mean (0 for an empty accumulator).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`None` below two observations).
    #[must_use]
    pub(crate) fn variance(&self) -> Option<f64> {
        (self.n >= 2).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation (`None` below two observations).
    #[must_use]
    pub(crate) fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation (`None` when empty).
    #[must_use]
    pub(crate) fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    #[must_use]
    pub(crate) fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Half-width of the t-based 95 % confidence interval on the mean:
    /// `t_{0.975, n-1} · s / √n`. `None` below two observations (one draw
    /// carries no width information).
    #[must_use]
    fn ci95_half_width(&self) -> Option<f64> {
        let s = self.std_dev()?;
        Some(t95(self.n - 1) * s / (self.n as f64).sqrt())
    }

    /// The 95 % CI half-width relative to the mean's magnitude — the
    /// early-stopping criterion. `None` below two observations or when the
    /// mean is (numerically) zero, in which case a relative target can
    /// never be certified.
    #[must_use]
    fn relative_ci95(&self) -> Option<f64> {
        let hw = self.ci95_half_width()?;
        let m = self.mean.abs();
        (m > f64::EPSILON).then(|| hw / m)
    }
}

/// The convergence metric a CI target applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CiMetric {
    /// Instructions per cycle (the performance headline).
    #[default]
    Ipc,
    /// Total priced energy per memory access (the energy headline).
    EnergyPerAccess,
}

impl CiMetric {
    /// The spec-language name of this metric.
    #[cfg(test)]
    #[must_use]
    fn name(&self) -> &'static str {
        match self {
            CiMetric::Ipc => "ipc",
            CiMetric::EnergyPerAccess => "energy_per_access",
        }
    }

    /// Parses the spec-language name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ipc" => Some(CiMetric::Ipc),
            "energy_per_access" => Some(CiMetric::EnergyPerAccess),
            _ => None,
        }
    }

    /// Extracts this metric from one replicate's summary.
    #[must_use]
    pub(crate) fn extract(&self, s: &RunSummary) -> f64 {
        match self {
            CiMetric::Ipc => s.core.ipc(),
            CiMetric::EnergyPerAccess => energy_per_access(s),
        }
    }
}

/// Total priced energy divided by committed memory accesses (loads +
/// stores); 0 for a run with no memory traffic.
#[must_use]
fn energy_per_access(s: &RunSummary) -> f64 {
    let accesses = s.core.loads + s.core.stores;
    if accesses == 0 {
        0.0
    } else {
        s.energy.total() / accesses as f64
    }
}

/// How a sweep replicates each cell: how many seeds, and whether a CI
/// target may stop a cell early.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Replication {
    /// Maximum replicates per cell (the spec's `seeds`; ≥ 1).
    pub seeds: u32,
    /// Replicates always run before early stopping may engage (≥ 2 when a
    /// CI target is set — one draw has no interval).
    pub min_seeds: u32,
    /// Relative 95 % CI half-width target on [`Self::metric`]; `None`
    /// disables early stopping (all `seeds` replicates run).
    pub ci_target: Option<f64>,
    /// Metric the CI target applies to.
    pub metric: CiMetric,
}

impl Replication {
    /// The legacy single-seed behavior: one replicate, no early stopping.
    #[must_use]
    pub fn single() -> Self {
        Self::fixed(1)
    }

    /// Exactly `seeds` replicates, no early stopping.
    #[must_use]
    pub fn fixed(seeds: u32) -> Self {
        Self {
            seeds: seeds.max(1),
            min_seeds: seeds.max(1),
            ci_target: None,
            metric: CiMetric::default(),
        }
    }

    /// Whether any cell may carry more than one replicate.
    #[must_use]
    pub fn replicated(&self) -> bool {
        self.seeds > 1
    }

    /// Replicates every cell launches up front: all of them without a CI
    /// target, the mandatory minimum with one.
    #[must_use]
    pub fn initial_count(&self) -> u32 {
        if self.ci_target.is_some() {
            self.min_seeds.min(self.seeds)
        } else {
            self.seeds
        }
    }

    /// Given the replicate summaries completed so far **in replicate
    /// order**, whether this cell should stop spawning replicates. Pure in
    /// its inputs: serial and parallel drivers reach identical counts.
    #[must_use]
    pub fn converged<'a>(&self, replicates: impl IntoIterator<Item = &'a RunSummary>) -> bool {
        let mut w = Welford::new();
        for s in replicates {
            w.push(self.metric.extract(s));
        }
        self.decided_by_count(w.count()).unwrap_or_else(|| {
            self.ci_target
                .is_some_and(|target| w.relative_ci95().is_some_and(|rel| rel <= target))
        })
    }

    /// The stopping decision `n` finished replicates settle without their
    /// values: stop at the seed cap; go on below `min_seeds` or without a
    /// CI target; `None` when the CI target decides. A driver that holds
    /// replicates encoded decodes them only on `None`.
    #[must_use]
    pub fn decided_by_count(&self, n: u64) -> Option<bool> {
        if n >= u64::from(self.seeds) {
            Some(true)
        } else if self.ci_target.is_none() || n < u64::from(self.min_seeds) {
            Some(false)
        } else {
            None
        }
    }
}

/// One metric's replicate distribution, as reported.
#[derive(Clone, Copy, Debug)]
pub struct MetricSummary {
    /// Mean over the replicates.
    pub mean: f64,
    /// t-based 95 % CI half-width (`None` for a single replicate).
    pub ci95: Option<f64>,
    /// Smallest replicate value.
    pub min: f64,
    /// Largest replicate value.
    pub max: f64,
}

impl MetricSummary {
    fn from(w: &Welford) -> Self {
        Self {
            mean: w.mean(),
            ci95: w.ci95_half_width(),
            min: w.min().unwrap_or(0.0),
            max: w.max().unwrap_or(0.0),
        }
    }
}

/// The metric names [`ReplicateStats`] reports, in report order.
pub const REPORTED_METRICS: [&str; 8] = [
    "ipc",
    "cycles",
    "l1_miss_rate",
    "utlb_miss_rate",
    "coverage",
    "merge_ratio",
    "energy_total",
    "energy_per_access",
];

/// One extractor per [`REPORTED_METRICS`] entry, in the same order — the
/// single definition both the marginal aggregation
/// ([`ReplicateStats::from_replicates`]) and the paired comparison
/// (`malec_core::compare`) fold replicates through, so a delta is always
/// the difference of exactly the numbers the marginal report shows.
#[must_use]
pub fn reported_extractors() -> [fn(&RunSummary) -> f64; 8] {
    [
        |s| s.core.ipc(),
        |s| s.core.cycles as f64,
        |s| s.l1_miss_rate,
        |s| s.utlb_miss_rate,
        |s| s.interface.coverage(),
        |s| s.interface.merge_ratio(),
        |s| s.energy.total(),
        energy_per_access,
    ]
}

/// Whether larger values of a reported metric are better (IPC, coverage,
/// merge ratio) or worse (cycles, miss rates, energy) — the orientation a
/// win/loss verdict on a delta needs.
#[must_use]
pub fn higher_is_better(metric: &str) -> bool {
    matches!(metric, "ipc" | "coverage" | "merge_ratio")
}

/// Per-metric replicate statistics of one cell, plus the replication
/// bookkeeping (how many seeds ran, how many an early stop saved).
#[derive(Clone, Debug)]
pub struct ReplicateStats {
    /// Replicates aggregated.
    pub n: u32,
    /// Replicates an early stop skipped (`seeds - n`; 0 without a CI
    /// target).
    pub saved: u32,
    /// `(metric name, distribution)` in [`REPORTED_METRICS`] order.
    pub metrics: Vec<(&'static str, MetricSummary)>,
}

impl ReplicateStats {
    /// Aggregates `replicates` (all of one cell, in replicate order).
    /// `seeds` is the spec's maximum, pricing how many replicates early
    /// stopping saved.
    ///
    /// # Panics
    ///
    /// Panics on an empty replicate set — a cell with zero replicates is a
    /// driver bug.
    #[must_use]
    pub fn from_replicates(replicates: &[RunSummary], seeds: u32) -> Self {
        assert!(!replicates.is_empty(), "a cell has at least one replicate");
        let extract = reported_extractors();
        let mut accs = [Welford::new(); 8];
        for s in replicates {
            for (acc, f) in accs.iter_mut().zip(&extract) {
                acc.push(f(s));
            }
        }
        let n = replicates.len() as u32;
        Self {
            n,
            saved: seeds.saturating_sub(n),
            metrics: REPORTED_METRICS
                .iter()
                .zip(&accs)
                .map(|(&name, w)| (name, MetricSummary::from(w)))
                .collect(),
        }
    }

    /// The summary of one reported metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&MetricSummary> {
        self.metrics
            .iter()
            .find(|(m, _)| *m == name)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use malec_trace::replicate_seed;
    use malec_types::SimConfig;
    use proptest::prelude::*;

    /// Naive two-pass mean/variance for cross-checking Welford.
    fn two_pass(xs: &[f64]) -> (f64, Option<f64>) {
        let n = xs.len() as f64;
        if xs.is_empty() {
            return (0.0, None);
        }
        let mean = xs.iter().sum::<f64>() / n;
        if xs.len() < 2 {
            return (mean, None);
        }
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, Some(var))
    }

    #[test]
    fn welford_matches_two_pass_on_fixed_samples() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let (mean, var) = two_pass(&xs);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance().unwrap() - var.unwrap()).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
        assert_eq!(w.count(), 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Welford agrees with the naive two-pass computation on arbitrary
        /// samples (within floating-point slack scaled to the magnitude).
        fn welford_matches_two_pass(raw in proptest::collection::vec(0u64..1_000_000, 2..40)) {
            let xs: Vec<f64> = raw.iter().map(|&v| v as f64 / 997.0 - 300.0).collect();
            let mut w = Welford::new();
            for &x in &xs {
                w.push(x);
            }
            let (mean, var) = two_pass(&xs);
            let scale = xs.iter().map(|x| x.abs()).fold(1.0, f64::max);
            prop_assert!((w.mean() - mean).abs() <= 1e-9 * scale, "mean {} vs {}", w.mean(), mean);
            let var = var.unwrap();
            prop_assert!(
                (w.variance().unwrap() - var).abs() <= 1e-9 * scale * scale,
                "variance {} vs {var}",
                w.variance().unwrap()
            );
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(w.min().unwrap().to_bits(), min.to_bits());
            prop_assert_eq!(w.max().unwrap().to_bits(), max.to_bits());
        }
    }

    #[test]
    fn ci_widths_match_the_t_table() {
        // n = 2 (df 1): half-width = 12.706 · s / √2.
        let mut w = Welford::new();
        w.push(0.0);
        w.push(2.0); // mean 1, s = √2
        let want = 12.706 * std::f64::consts::SQRT_2 / std::f64::consts::SQRT_2;
        assert!((w.ci95_half_width().unwrap() - want).abs() < 1e-9);

        // n = 5 (df 4): t = 2.776.
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        // s = √2.5 for 1..5.
        let want = 2.776 * 2.5f64.sqrt() / 5f64.sqrt();
        assert!((w.ci95_half_width().unwrap() - want).abs() < 1e-9);

        // Table endpoints and the conservative step-down: each bracket
        // carries its lower-df (larger) quantile, so the step value is
        // always >= the true t — e.g. t_{0.975,31} = 2.0395 < t95(31).
        assert_eq!(t95(1), 12.706);
        assert_eq!(t95(4), 2.776);
        assert_eq!(t95(29), 2.045);
        assert_eq!(t95(30), 2.042);
        assert_eq!(t95(31), 2.042);
        assert!(t95(31) > 2.0395, "never below the true quantile");
        assert_eq!(t95(50), 2.021);
        assert!(t95(41) > 2.0195);
        assert_eq!(t95(100), 2.000);
        assert_eq!(t95(10_000), 1.980);
        assert!(t95(10_000) > 1.960, "stays above the infinite-df limit");
        // The quantile never increases with df (conservatism of the steps).
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            assert!(t95(df) <= prev, "t95 must be non-increasing at df={df}");
            prev = t95(df);
        }
    }

    #[test]
    fn single_observation_has_no_interval() {
        let mut w = Welford::new();
        w.push(3.5);
        assert_eq!(w.count(), 1);
        assert!(w.variance().is_none());
        assert!(w.ci95_half_width().is_none());
        assert!(w.relative_ci95().is_none());
        assert_eq!(w.mean(), 3.5);
    }

    /// Pins the small-sample contract: n = 0 and n = 1 queries are
    /// well-defined `None`s — never `NaN`, never an infinite or sentinel
    /// width that a report would happily print.
    #[test]
    fn empty_and_single_sample_queries_are_errors_not_nan() {
        let empty = Welford::new();
        assert!(empty.ci95_half_width().is_none());
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
        assert!(!empty.mean().is_nan(), "empty mean is 0, not NaN");
        assert_eq!(empty.mean(), 0.0);

        let mut one = Welford::new();
        one.push(7.25);
        assert_eq!(one.min(), Some(7.25), "one sample has an extremum");
        assert_eq!(one.max(), Some(7.25));
        assert!(one.ci95_half_width().is_none(), "one draw has no interval");
        assert!(one.variance().is_none(), "spread needs two samples");
        // The error values explain themselves (they reach spec users).
        assert!(StatError::Empty.to_string().contains("no samples"));
        assert!(StatError::OneSample.to_string().contains("at least 2"));
    }

    #[test]
    fn metric_orientation_covers_every_reported_metric() {
        // Exactly the throughput-style metrics count up; everything else
        // (latency, miss rates, energy) counts down.
        let up: Vec<&str> = REPORTED_METRICS
            .iter()
            .copied()
            .filter(|m| higher_is_better(m))
            .collect();
        assert_eq!(up, ["ipc", "coverage", "merge_ratio"]);
        assert!(!higher_is_better("energy_per_access"));
        assert_eq!(reported_extractors().len(), REPORTED_METRICS.len());
    }

    #[test]
    fn zero_mean_never_certifies_a_relative_target() {
        let mut w = Welford::new();
        w.push(-1.0);
        w.push(1.0);
        assert!(w.relative_ci95().is_none());
    }

    fn replicates(n: u32) -> Vec<RunSummary> {
        let gzip = malec_trace::benchmark_named("gzip").expect("gzip exists");
        let sim = Simulator::new(SimConfig::malec());
        (0..n)
            .map(|i| sim.run(&gzip, 2_000, replicate_seed(41, i)))
            .collect()
    }

    #[test]
    fn replication_policy_is_a_pure_prefix_function() {
        let rep = Replication {
            seeds: 8,
            min_seeds: 3,
            ci_target: Some(0.5), // generous: converges at the minimum
            metric: CiMetric::Ipc,
        };
        assert_eq!(rep.initial_count(), 3);
        let all = replicates(8);
        assert!(!rep.converged(&all[..2]), "below min_seeds never stops");
        let at_min = rep.converged(&all[..3]);
        assert_eq!(
            rep.converged(&all[..3]),
            at_min,
            "pure: same prefix, same answer"
        );
        assert!(rep.converged(&all), "the seed cap always stops");

        let fixed = Replication::fixed(4);
        assert_eq!(fixed.initial_count(), 4);
        assert!(!fixed.converged(&all[..3]));
        assert!(fixed.converged(&all[..4]));
        assert!(!Replication::single().replicated());
    }

    #[test]
    fn replicate_stats_aggregate_every_reported_metric() {
        let reps = replicates(4);
        let stats = ReplicateStats::from_replicates(&reps, 8);
        assert_eq!(stats.n, 4);
        assert_eq!(stats.saved, 4);
        assert_eq!(stats.metrics.len(), REPORTED_METRICS.len());
        let ipc = stats.metric("ipc").expect("ipc reported");
        assert!(ipc.min <= ipc.mean && ipc.mean <= ipc.max);
        assert!(ipc.ci95.is_some());
        let mut w = Welford::new();
        for s in &reps {
            w.push(s.core.ipc());
        }
        assert_eq!(
            ipc.mean.to_bits(),
            w.mean().to_bits(),
            "same accumulation path"
        );
        assert!(stats.metric("energy_per_access").unwrap().mean > 0.0);
        assert!(stats.metric("nope").is_none());
    }

    #[test]
    fn metric_extraction_names_roundtrip() {
        for m in [CiMetric::Ipc, CiMetric::EnergyPerAccess] {
            assert_eq!(CiMetric::parse(m.name()), Some(m));
        }
        assert_eq!(CiMetric::parse("cycles"), None);
        let s = &replicates(1)[0];
        assert!(CiMetric::Ipc.extract(s) > 0.0);
        assert!(CiMetric::EnergyPerAccess.extract(s) > 0.0);
    }

    #[test]
    fn energy_per_access_prices_committed_loads_and_stores() {
        let mut s = replicates(1).remove(0);
        let accesses = s.core.loads + s.core.stores;
        assert!(s.core.loads > 0 && s.core.stores > 0);
        assert_eq!(
            energy_per_access(&s).to_bits(),
            (s.energy.total() / accesses as f64).to_bits()
        );
        s.core.loads = 0;
        s.core.stores = 0;
        assert_eq!(
            energy_per_access(&s).to_bits(),
            0.0f64.to_bits(),
            "a run without memory traffic prices to 0, not NaN"
        );
    }
}
