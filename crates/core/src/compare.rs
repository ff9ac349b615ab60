//! Paired-seed comparative statistics: MALEC-vs-baseline **deltas** with
//! tight confidence intervals.
//!
//! The paper's headline is a comparison, not two marginals: MALEC against a
//! baseline cache interface on IPC and energy per access. Because every
//! replicate seed is shared across interfaces (replicate `i` of both sides
//! runs `replicate_seed(seed, i)` over the *same* generated instruction
//! stream), the per-seed difference cancels seed noise that both marginal
//! intervals must price in full. [`PairedSample`] accumulates those
//! differences through the same Welford core the marginal statistics use,
//! and prices the delta with a paired Student-t interval:
//!
//! ```text
//! hw_paired      = t_{1-α/2, n-1} · s_d / √n          (s_d over the deltas)
//! hw_independent = t_{1-α/2, n-1} · √((s_a² + s_b²)/n)
//! ```
//!
//! Since `s_d² = s_a² + s_b² − 2·cov(a, b)`, any positive seed correlation
//! makes the paired interval strictly narrower — on shared-seed simulations
//! the correlation is strong, so deltas that marginal CIs leave drowned in
//! overlap become certifiable wins or losses.
//!
//! [`CompareStats::from_pairs`] turns two replicate vectors into one
//! [`DeltaSummary`] per reported metric — delta mean ± CI, the relative
//! improvement over the baseline mean, and a [`Verdict`] at a configurable
//! [`Alpha`] — and [`compare_digest`] folds the whole block into one
//! FNV-1a value for golden regression checks. [`paired_converged`] is the
//! paired analogue of [`Replication::converged`]: a pure function of the
//! ordered pair prefix, so CI-driven early stopping lands on identical
//! replicate counts at any worker count (the `malec-serve` scheduler grows
//! the two cell groups jointly through it).

use malec_types::stable::fnv1a64;

use crate::metrics::RunSummary;
use crate::stats::{
    higher_is_better, reported_extractors, t_quantile, Replication, StatError, Welford,
    REPORTED_METRICS,
};

/// The significance level a comparison verdict is issued at. Only the
/// three standard table levels are supported — the t-quantiles are exact
/// table values (through df = 30, then conservative step-downs), not an
/// approximation that would wobble across platforms.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Alpha {
    /// 90 % confidence (`alpha = 0.10`).
    Ten,
    /// 95 % confidence (`alpha = 0.05`), the default.
    #[default]
    Five,
    /// 99 % confidence (`alpha = 0.01`).
    One,
}

impl Alpha {
    /// The numeric level (0.10 / 0.05 / 0.01).
    #[must_use]
    pub fn value(self) -> f64 {
        match self {
            Alpha::Ten => 0.10,
            Alpha::Five => 0.05,
            Alpha::One => 0.01,
        }
    }

    /// Parses a spec-level numeric alpha; only the three table levels are
    /// accepted (with float-literal slack).
    #[must_use]
    pub fn from_value(v: f64) -> Option<Self> {
        [Alpha::Ten, Alpha::Five, Alpha::One]
            .into_iter()
            .find(|a| (a.value() - v).abs() < 1e-9)
    }

    /// The two-sided `t_{1-alpha/2, df}` quantile: exact table values
    /// through df = 30, then the conservative bracket step-downs every
    /// level shares (each bracket carries its smallest-df quantile, so the
    /// interval never understates uncertainty).
    #[must_use]
    pub(crate) fn t(self, df: u64) -> f64 {
        let level = match self {
            Alpha::Ten => 0,
            Alpha::Five => 1,
            Alpha::One => 2,
        };
        t_quantile(level, df)
    }
}

/// The outcome of a significance test on one metric's delta, oriented by
/// the metric's good direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The candidate is significantly better than the baseline.
    Win,
    /// The candidate is significantly worse than the baseline.
    Loss,
    /// The interval on the delta includes zero — no certified difference.
    Tie,
}

impl Verdict {
    /// The report-language name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Win => "win",
            Verdict::Loss => "loss",
            Verdict::Tie => "tie",
        }
    }

    /// The verdict with the two sides swapped (wins become losses).
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Verdict::Win => Verdict::Loss,
            Verdict::Loss => Verdict::Win,
            Verdict::Tie => Verdict::Tie,
        }
    }
}

/// Streaming paired-sample accumulator over one metric: candidate values
/// `a`, baseline values `b`, and their per-seed deltas `a − b`, each
/// through its own [`Welford`] core. One `push` per shared replicate seed,
/// in replicate order.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairedSample {
    a: Welford,
    b: Welford,
    d: Welford,
}

impl PairedSample {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one shared-seed pair (candidate value, baseline value).
    pub fn push(&mut self, candidate: f64, baseline: f64) {
        self.a.push(candidate);
        self.b.push(baseline);
        self.d.push(candidate - baseline);
    }

    /// Pairs folded so far.
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.d.count()
    }

    /// Mean of the candidate side.
    #[must_use]
    pub fn candidate_mean(&self) -> f64 {
        self.a.mean()
    }

    /// Mean of the baseline side.
    #[must_use]
    pub fn baseline_mean(&self) -> f64 {
        self.b.mean()
    }

    /// Mean per-seed delta (candidate − baseline). Up to floating-point
    /// rounding this equals `candidate_mean() - baseline_mean()` — the
    /// algebraic identity the property tests pin.
    #[must_use]
    pub fn delta_mean(&self) -> f64 {
        self.d.mean()
    }

    /// Paired t-interval half-width on the mean delta at `alpha`:
    /// `t_{1-α/2, n-1} · s_d / √n`.
    ///
    /// # Errors
    ///
    /// [`StatError::Empty`] / [`StatError::OneSample`] below two pairs —
    /// never `NaN`.
    pub fn paired_ci(&self, alpha: Alpha) -> Result<f64, StatError> {
        let s = self.spread_guard()?;
        Ok(alpha.t(self.count() - 1) * s / (self.count() as f64).sqrt())
    }

    /// The half-width an *unpaired* analysis would price the same delta
    /// at: `t_{1-α/2, n-1} · √((s_a² + s_b²)/n)` — the comparison that
    /// shows what pairing buys. Shares the paired interval's conservative
    /// `n − 1` degrees of freedom, so with positive seed correlation the
    /// paired width is never larger.
    ///
    /// # Errors
    ///
    /// [`StatError::Empty`] / [`StatError::OneSample`] below two pairs.
    pub fn independent_ci(&self, alpha: Alpha) -> Result<f64, StatError> {
        self.spread_guard()?;
        let va = self.a.variance().expect("guarded: n >= 2");
        let vb = self.b.variance().expect("guarded: n >= 2");
        Ok(alpha.t(self.count() - 1) * ((va + vb) / self.count() as f64).sqrt())
    }

    /// Relative improvement: mean delta over the baseline mean's
    /// magnitude. `None` when the baseline mean is (numerically) zero.
    #[must_use]
    pub(crate) fn relative(&self) -> Option<f64> {
        let m = self.baseline_mean().abs();
        (self.count() > 0 && m > f64::EPSILON).then(|| self.delta_mean() / m)
    }

    /// The oriented verdict at `alpha`: [`Verdict::Win`] when the interval
    /// on the delta excludes zero *and* the delta points in the metric's
    /// good direction, [`Verdict::Loss`] when it points the other way, and
    /// [`Verdict::Tie`] when zero is inside the interval (or below two
    /// pairs, where no interval exists).
    #[must_use]
    pub fn verdict(&self, alpha: Alpha, higher_is_better: bool) -> Verdict {
        let Ok(hw) = self.paired_ci(alpha) else {
            return Verdict::Tie;
        };
        let d = self.delta_mean();
        if d.abs() <= hw {
            return Verdict::Tie;
        }
        if (d > 0.0) == higher_is_better {
            Verdict::Win
        } else {
            Verdict::Loss
        }
    }

    /// Shared "`n >= 2`" guard for spread statistics, mapping the shortfall
    /// to the precise [`StatError`]; returns `s_d` on success.
    fn spread_guard(&self) -> Result<f64, StatError> {
        match self.count() {
            0 => Err(StatError::Empty),
            1 => Err(StatError::OneSample),
            _ => Ok(self.d.std_dev().expect("n >= 2")),
        }
    }
}

/// One reported metric's delta block: both marginal means, the paired
/// delta with its interval, what an unpaired interval would have been, the
/// relative improvement, and the oriented verdict.
#[derive(Clone, Copy, Debug)]
pub struct DeltaSummary {
    /// Baseline-side mean over the shared seeds.
    pub baseline_mean: f64,
    /// Candidate-side mean over the shared seeds.
    pub candidate_mean: f64,
    /// Mean per-seed delta (candidate − baseline).
    pub delta_mean: f64,
    /// Paired CI half-width at the comparison's alpha (`None` below two
    /// pairs).
    pub ci: Option<f64>,
    /// The unpaired half-width on the same delta (`None` below two pairs);
    /// the gap to [`Self::ci`] is what seed pairing bought.
    pub independent_ci: Option<f64>,
    /// `delta_mean / |baseline_mean|` (`None` for a zero baseline mean).
    pub relative: Option<f64>,
    /// Whether higher values of this metric are better (orients the
    /// verdict).
    pub higher_is_better: bool,
    /// The oriented significance verdict.
    pub verdict: Verdict,
}

/// A full paired comparison of one candidate interface against one
/// baseline over shared replicate seeds: one [`DeltaSummary`] per
/// [`REPORTED_METRICS`] entry plus the pairing bookkeeping.
#[derive(Clone, Debug)]
pub struct CompareStats {
    /// Baseline configuration label.
    pub baseline: String,
    /// Candidate configuration label.
    pub candidate: String,
    /// Verdict significance level.
    pub alpha: Alpha,
    /// Shared-seed pairs aggregated.
    pub n: u32,
    /// Pairs an early stop skipped (`seeds − n`; 0 without a CI target).
    pub saved: u32,
    /// `(metric name, delta block)` in [`REPORTED_METRICS`] order.
    pub metrics: Vec<(&'static str, DeltaSummary)>,
}

impl CompareStats {
    /// Pairs `baseline[i]` with `candidate[i]` (shared replicate seed `i`,
    /// both vectors in replicate order) and aggregates every reported
    /// metric. Extra replicates on one side beyond the shorter vector are
    /// ignored — a pair needs both halves. `seeds` is the spec's cap,
    /// pricing how many pairs early stopping saved.
    ///
    /// # Panics
    ///
    /// Panics when either side is empty — a comparison with zero shared
    /// seeds is a driver bug.
    #[must_use]
    pub fn from_pairs(
        baseline: &[RunSummary],
        candidate: &[RunSummary],
        seeds: u32,
        alpha: Alpha,
    ) -> Self {
        let n = baseline.len().min(candidate.len());
        assert!(n > 0, "a comparison needs at least one shared seed");
        let extract = reported_extractors();
        let mut accs = [PairedSample::new(); 8];
        for (b, c) in baseline.iter().zip(candidate).take(n) {
            for (acc, f) in accs.iter_mut().zip(&extract) {
                acc.push(f(c), f(b));
            }
        }
        let metrics = REPORTED_METRICS
            .iter()
            .zip(&accs)
            .map(|(&name, ps)| {
                let up = higher_is_better(name);
                (
                    name,
                    DeltaSummary {
                        baseline_mean: ps.baseline_mean(),
                        candidate_mean: ps.candidate_mean(),
                        delta_mean: ps.delta_mean(),
                        ci: ps.paired_ci(alpha).ok(),
                        independent_ci: ps.independent_ci(alpha).ok(),
                        relative: ps.relative(),
                        higher_is_better: up,
                        verdict: ps.verdict(alpha, up),
                    },
                )
            })
            .collect();
        Self {
            baseline: baseline[0].config.clone(),
            candidate: candidate[0].config.clone(),
            alpha,
            n: n as u32,
            saved: seeds.saturating_sub(n as u32),
            metrics,
        }
    }

    /// The delta block of one reported metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&DeltaSummary> {
        self.metrics
            .iter()
            .find(|(m, _)| *m == name)
            .map(|(_, s)| s)
    }

    /// `(wins, losses, ties)` over the reported metrics.
    #[must_use]
    pub fn tally(&self) -> (usize, usize, usize) {
        let of = |v: Verdict| self.metrics.iter().filter(|(_, d)| d.verdict == v).count();
        (of(Verdict::Win), of(Verdict::Loss), of(Verdict::Tie))
    }
}

/// Appends `s` as a length prefix and one word per byte.
fn push_str(words: &mut Vec<u64>, s: &str) {
    words.push(s.len() as u64);
    words.extend(s.bytes().map(u64::from));
}

/// Appends a presence tag and, when present, the value's bit pattern.
fn push_opt(words: &mut Vec<u64>, v: Option<f64>) {
    match v {
        None => words.push(0),
        Some(v) => words.extend([1, v.to_bits()]),
    }
}

/// Behavioral digest of a comparison: folds the pairing identity (labels,
/// alpha, pair count) and every delta block — means, delta, both interval
/// widths, relative improvement (all as exact bit patterns) and the
/// verdict — into one FNV-1a value. Two comparisons digest equal **iff**
/// their comparative content is bit-identical, which is what the compare
/// golden table and the serve-vs-local acceptance tests check.
#[must_use]
pub fn compare_digest(stats: &CompareStats) -> u64 {
    let mut words = Vec::new();
    push_str(&mut words, &stats.baseline);
    push_str(&mut words, &stats.candidate);
    words.extend([stats.alpha.value().to_bits(), u64::from(stats.n)]);
    for (name, d) in &stats.metrics {
        push_str(&mut words, name);
        words.extend([d.baseline_mean, d.candidate_mean, d.delta_mean].map(f64::to_bits));
        push_opt(&mut words, d.ci);
        push_opt(&mut words, d.independent_ci);
        push_opt(&mut words, d.relative);
        words.push(u64::from(d.higher_is_better));
        push_str(&mut words, d.verdict.name());
    }
    fnv1a64(words)
}

/// The paired stopping rule: given the finished `(baseline, candidate)`
/// pairs **in replicate order**, whether the comparison should stop
/// spawning further shared seeds. Mirrors [`Replication::converged`], with
/// the paired delta as the criterion: stop at the seed cap, and — with a
/// `ci_target`, never before `min_seeds` — once the paired CI half-width
/// on the target metric's delta (at `alpha`) falls below `ci_target`
/// **relative to the baseline mean's magnitude**. (The delta itself may
/// legitimately be near zero, so normalizing by the delta would make two
/// equal interfaces run to the cap; the baseline mean is the scale the
/// relative-improvement headline is quoted in.) A pure function of the
/// ordered pair prefix: serial, `--jobs N`, and server drivers stop at
/// identical counts.
#[must_use]
pub fn paired_converged<'a>(
    rep: &Replication,
    alpha: Alpha,
    pairs: impl IntoIterator<Item = (&'a RunSummary, &'a RunSummary)>,
) -> bool {
    let mut ps = PairedSample::new();
    for (b, c) in pairs {
        ps.push(rep.metric.extract(c), rep.metric.extract(b));
    }
    if let Some(done) = rep.decided_by_count(ps.count()) {
        return done;
    }
    let (Some(target), Ok(hw)) = (rep.ci_target, ps.paired_ci(alpha)) else {
        return false;
    };
    let scale = ps.baseline_mean().abs();
    scale > f64::EPSILON && hw / scale <= target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CiMetric;
    use crate::Simulator;
    use malec_trace::replicate_seed;
    use malec_types::SimConfig;

    #[test]
    fn alpha_tables_are_exact_and_conservative() {
        assert_eq!(Alpha::Ten.t(1), 6.314);
        assert_eq!(Alpha::Five.t(1), 12.706);
        assert_eq!(Alpha::One.t(1), 63.657);
        assert_eq!(Alpha::Ten.t(30), 1.697);
        assert_eq!(Alpha::One.t(30), 2.750);
        assert_eq!(Alpha::Ten.t(10_000), 1.658);
        assert_eq!(Alpha::One.t(10_000), 2.617);
        assert!(Alpha::Ten.t(10_000) > 1.645, "above the infinite-df limit");
        assert!(Alpha::One.t(10_000) > 2.576, "above the infinite-df limit");
        for alpha in [Alpha::Ten, Alpha::Five, Alpha::One] {
            assert!(alpha.t(0).is_infinite());
            let mut prev = f64::INFINITY;
            for df in 1..200 {
                assert!(alpha.t(df) <= prev, "t must be non-increasing at {df}");
                prev = alpha.t(df);
            }
        }
        // Tighter alpha, wider quantile, every df.
        for df in 1..200 {
            assert!(Alpha::Ten.t(df) < Alpha::Five.t(df));
            assert!(Alpha::Five.t(df) < Alpha::One.t(df));
        }
        assert_eq!(Alpha::from_value(0.05), Some(Alpha::Five));
        assert_eq!(Alpha::from_value(0.10), Some(Alpha::Ten));
        assert_eq!(Alpha::from_value(0.01), Some(Alpha::One));
        assert_eq!(Alpha::from_value(0.2), None);
        assert_eq!(Alpha::default(), Alpha::Five);
    }

    #[test]
    fn small_pair_counts_are_errors_not_nan() {
        let empty = PairedSample::new();
        assert_eq!(empty.paired_ci(Alpha::Five), Err(StatError::Empty));
        assert_eq!(empty.independent_ci(Alpha::Five), Err(StatError::Empty));
        assert_eq!(empty.relative(), None);
        assert_eq!(empty.verdict(Alpha::Five, true), Verdict::Tie);

        let mut one = PairedSample::new();
        one.push(2.0, 1.0);
        assert_eq!(one.paired_ci(Alpha::Five), Err(StatError::OneSample));
        assert_eq!(one.independent_ci(Alpha::Five), Err(StatError::OneSample));
        assert_eq!(one.delta_mean(), 1.0);
        assert_eq!(one.relative(), Some(1.0));
        assert_eq!(
            one.verdict(Alpha::Five, true),
            Verdict::Tie,
            "one pair certifies nothing"
        );
    }

    #[test]
    fn verdicts_orient_by_metric_direction() {
        // A large consistent positive delta with tiny spread.
        let mut ps = PairedSample::new();
        for i in 0..6 {
            let wobble = f64::from(i) * 1e-6;
            ps.push(2.0 + wobble, 1.0 + wobble);
        }
        assert_eq!(ps.verdict(Alpha::Five, true), Verdict::Win);
        assert_eq!(ps.verdict(Alpha::Five, false), Verdict::Loss);
        // Identical sides: delta 0, width 0 -> tie, not a division blowup.
        let mut same = PairedSample::new();
        for x in [1.0, 2.0, 3.0] {
            same.push(x, x);
        }
        assert_eq!(same.verdict(Alpha::Five, true), Verdict::Tie);
        assert_eq!(Verdict::Win.flipped(), Verdict::Loss);
        assert_eq!(Verdict::Tie.flipped(), Verdict::Tie);
    }

    fn pair_runs(n: u32) -> (Vec<RunSummary>, Vec<RunSummary>) {
        let scenario = malec_trace::scenario::preset_named("store_burst").expect("preset");
        let source = crate::ScenarioSource::Scenario(scenario);
        let run = |cfg: SimConfig, r: u32| {
            Simulator::new(cfg)
                .run_source(&source, 2_000, replicate_seed(7, r))
                .expect("generator sources cannot fail")
        };
        (
            (0..n).map(|r| run(SimConfig::base1ldst(), r)).collect(),
            (0..n).map(|r| run(SimConfig::malec(), r)).collect(),
        )
    }

    #[test]
    fn compare_stats_cover_every_reported_metric_and_digest_is_sensitive() {
        let (base, cand) = pair_runs(4);
        let stats = CompareStats::from_pairs(&base, &cand, 6, Alpha::Five);
        assert_eq!(stats.n, 4);
        assert_eq!(stats.saved, 2);
        assert_eq!(stats.baseline, "Base1ldst");
        assert_eq!(stats.candidate, "MALEC");
        assert_eq!(stats.metrics.len(), REPORTED_METRICS.len());
        let ipc = stats.metric("ipc").expect("ipc reported");
        assert!(
            (ipc.delta_mean - (ipc.candidate_mean - ipc.baseline_mean)).abs()
                < 1e-12 * ipc.candidate_mean.abs().max(1.0)
        );
        assert!(ipc.ci.is_some() && ipc.independent_ci.is_some());
        let (w, l, t) = stats.tally();
        assert_eq!(w + l + t, REPORTED_METRICS.len());

        let a = compare_digest(&stats);
        assert_eq!(a, compare_digest(&stats), "digest is deterministic");
        let mut tweaked = stats.clone();
        tweaked.metrics[0].1.delta_mean += 1e-9;
        assert_ne!(a, compare_digest(&tweaked), "one bit flips the digest");
        let fewer = CompareStats::from_pairs(&base[..3], &cand[..3], 6, Alpha::Five);
        assert_ne!(a, compare_digest(&fewer), "the pair count is folded");
    }

    #[test]
    fn mismatched_side_lengths_pair_the_shared_prefix() {
        let (base, cand) = pair_runs(4);
        let stats = CompareStats::from_pairs(&base[..3], &cand, 4, Alpha::Five);
        assert_eq!(stats.n, 3, "pairs need both halves");
        assert_eq!(stats.saved, 1);
    }

    #[test]
    fn paired_convergence_is_a_pure_prefix_function() {
        let (base, cand) = pair_runs(6);
        let rep = Replication {
            seeds: 6,
            min_seeds: 2,
            ci_target: Some(0.9), // generous: certifies at the minimum
            metric: CiMetric::Ipc,
        };
        let pairs = |n: usize| base[..n].iter().zip(&cand[..n]);
        assert!(
            !paired_converged(&rep, Alpha::Five, pairs(1)),
            "below min_seeds never stops"
        );
        let at_two = paired_converged(&rep, Alpha::Five, pairs(2));
        assert_eq!(
            paired_converged(&rep, Alpha::Five, pairs(2)),
            at_two,
            "pure: same prefix, same answer"
        );
        assert!(
            paired_converged(&rep, Alpha::Five, pairs(6)),
            "the seed cap always stops"
        );
        // Without a target, only the cap stops the pair.
        let fixed = Replication::fixed(4);
        assert!(!paired_converged(&fixed, Alpha::Five, pairs(3)));
        assert!(paired_converged(&fixed, Alpha::Five, pairs(4)));
    }
}
