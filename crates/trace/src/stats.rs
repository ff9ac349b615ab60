//! Fig. 1 statistics: consecutive same-page access runs with allowed
//! intermediates.
//!
//! The paper's Fig. 1 plots, for each benchmark and for n ∈ {0, 1, 2, 3, 4,
//! 8} allowed intermediate accesses to a *different* page, the share of
//! loads belonging to same-page runs of length 1, 2, 3–4, 5–8 and > 8.
//! Headline numbers: 70 % of loads are directly followed by one or more
//! same-page loads (n = 0), rising to 85 / 90 / 92 % for n = 1 / 2 / 3.

use serde::{Deserialize, Serialize};

use malec_types::addr::VPageId;

/// Share of loads in same-page runs of each length bucket (Fig. 1's bar
/// segments). Shares sum to 1 (within rounding) for non-empty inputs.
#[derive(Clone, Copy, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct RunLengthBuckets {
    /// Runs of exactly 1 access (no same-page follower) — "x=1".
    pub single: f64,
    /// Runs of exactly 2 accesses — "x=2".
    pub pair: f64,
    /// Runs of 3–4 accesses.
    pub three_to_four: f64,
    /// Runs of 5–8 accesses.
    pub five_to_eight: f64,
    /// Runs longer than 8 accesses.
    pub more_than_eight: f64,
}

impl RunLengthBuckets {
    /// Share of loads that belong to a run of length ≥ 2, i.e. loads that
    /// are followed (within the allowed intermediates) by a same-page load.
    fn grouped_share(&self) -> f64 {
        self.pair + self.three_to_four + self.five_to_eight + self.more_than_eight
    }
}

/// Decomposes a page-id sequence into maximal same-page runs where up to
/// `allowed_intermediates` accesses to other pages may separate members of
/// a run, then buckets run lengths weighted by accesses.
///
/// Accesses consumed by one run do not start new runs; the intermediates
/// themselves are left free to form their own runs (this mirrors how the
/// Input Buffer groups accesses: an access participates in one group).
///
/// # Example
///
/// ```
/// use malec_trace::stats::run_length_buckets;
/// use malec_types::addr::VPageId;
///
/// let p = |v| VPageId::new(v);
/// // A A B A  — with 1 intermediate allowed, the A-run has length 3.
/// let b = run_length_buckets(&[p(1), p(1), p(2), p(1)], 1);
/// assert!(b.three_to_four > 0.7);
/// ```
pub fn run_length_buckets(pages: &[VPageId], allowed_intermediates: usize) -> RunLengthBuckets {
    if pages.is_empty() {
        return RunLengthBuckets::default();
    }
    let mut consumed = vec![false; pages.len()];
    let mut buckets = RunLengthBuckets::default();
    let total = pages.len() as f64;

    for start in 0..pages.len() {
        if consumed[start] {
            continue;
        }
        consumed[start] = true;
        let page = pages[start];
        let mut run_len = 1u64;
        let mut misses = 0usize;
        let mut j = start + 1;
        while j < pages.len() {
            if consumed[j] {
                j += 1;
                continue;
            }
            if pages[j] == page {
                consumed[j] = true;
                run_len += 1;
                misses = 0;
            } else {
                misses += 1;
                if misses > allowed_intermediates {
                    break;
                }
            }
            j += 1;
        }
        let weight = run_len as f64 / total;
        match run_len {
            1 => buckets.single += weight,
            2 => buckets.pair += weight,
            3..=4 => buckets.three_to_four += weight,
            5..=8 => buckets.five_to_eight += weight,
            _ => buckets.more_than_eight += weight,
        }
    }
    buckets
}

/// For each entry of `allowed`, the share of loads that are part of a
/// same-page group (run length ≥ 2) when that many intermediates are
/// permitted — the headline series of Fig. 1.
pub fn page_locality_ratios(pages: &[VPageId], allowed: &[usize]) -> Vec<f64> {
    allowed
        .iter()
        .map(|&n| run_length_buckets(pages, n).grouped_share())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::WorkloadGenerator;
    use crate::profile::{all_benchmarks, Suite};
    use malec_types::addr::VPageId;

    fn p(v: u64) -> VPageId {
        VPageId::new(v)
    }

    /// Share of accesses directly followed by an access to the same cache
    /// line (Sec. III reports 46 % for loads; this motivates load merging).
    fn same_line_adjacency(lines: &[u64]) -> f64 {
        if lines.len() < 2 {
            return 0.0;
        }
        let same = lines.windows(2).filter(|w| w[0] == w[1]).count();
        same as f64 / (lines.len() - 1) as f64
    }

    #[test]
    fn empty_input() {
        let b = run_length_buckets(&[], 0);
        assert_eq!(b.grouped_share(), 0.0);
        assert_eq!(same_line_adjacency(&[]), 0.0);
        assert_eq!(same_line_adjacency(&[1]), 0.0);
    }

    #[test]
    fn all_same_page_is_one_long_run() {
        let pages = vec![p(5); 20];
        let b = run_length_buckets(&pages, 0);
        assert!((b.more_than_eight - 1.0).abs() < 1e-9);
        assert!((b.grouped_share() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alternating_pages_no_grouping_without_intermediates() {
        let pages: Vec<VPageId> = (0..20).map(|i| p(i % 2)).collect();
        let b = run_length_buckets(&pages, 0);
        assert!((b.single - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alternating_pages_fully_grouped_with_one_intermediate() {
        let pages: Vec<VPageId> = (0..20).map(|i| p(i % 2)).collect();
        let b = run_length_buckets(&pages, 1);
        assert!((b.grouped_share() - 1.0).abs() < 1e-9);
        assert!(b.more_than_eight > 0.9);
    }

    #[test]
    fn buckets_sum_to_one() {
        let pages: Vec<VPageId> = [1, 1, 2, 3, 3, 3, 4, 1, 2, 2]
            .iter()
            .map(|&v| p(v))
            .collect();
        for n in [0usize, 1, 2, 3] {
            let b = run_length_buckets(&pages, n);
            let sum = b.single + b.pair + b.three_to_four + b.five_to_eight + b.more_than_eight;
            assert!((sum - 1.0).abs() < 1e-9, "n={n}: sum={sum}");
        }
    }

    #[test]
    fn grouped_share_monotonic_in_allowed_intermediates() {
        let pages: Vec<VPageId> = (0..500).map(|i| p((i * 7) % 13)).collect();
        let ratios = page_locality_ratios(&pages, &[0, 1, 2, 3, 4, 8]);
        for w in ratios.windows(2) {
            assert!(
                w[0] <= w[1] + 1e-9,
                "ratios must be non-decreasing: {ratios:?}"
            );
        }
    }

    #[test]
    fn doc_example_run_of_three() {
        let b = run_length_buckets(&[p(1), p(1), p(2), p(1)], 1);
        // Run {A,A,A} (3 of 4 accesses) + run {B} (1 of 4).
        assert!((b.three_to_four - 0.75).abs() < 1e-9);
        assert!((b.single - 0.25).abs() < 1e-9);
    }

    #[test]
    fn same_line_adjacency_counts_pairs() {
        assert!((same_line_adjacency(&[1, 1, 2, 2, 3]) - 0.5).abs() < 1e-9);
        assert_eq!(same_line_adjacency(&[1, 2, 3]), 0.0);
    }

    // --- Calibration checks against the paper's Fig. 1 / Sec. III ---

    fn load_pages(name: &str, n: usize) -> Vec<VPageId> {
        let prof = all_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap();
        WorkloadGenerator::new(&prof, 11)
            .take(n)
            .filter(|i| i.is_load())
            .map(|i| VPageId::new(i.vaddr().unwrap().raw() >> 12))
            .collect()
    }

    #[test]
    fn overall_direct_follow_ratio_near_70_percent() {
        let mut weighted = 0.0;
        let mut count = 0.0;
        for prof in all_benchmarks() {
            let pages: Vec<VPageId> = WorkloadGenerator::new(&prof, 3)
                .take(40_000)
                .filter(|i| i.is_load())
                .map(|i| VPageId::new(i.vaddr().unwrap().raw() >> 12))
                .collect();
            weighted += run_length_buckets(&pages, 0).grouped_share();
            count += 1.0;
        }
        let avg = weighted / count;
        assert!(
            (0.60..0.80).contains(&avg),
            "average direct-follow ratio should be near 70%: {avg}"
        );
    }

    #[test]
    fn ratio_rises_with_intermediates_like_figure1() {
        let mut sums = [0.0f64; 4];
        let mut n = 0.0;
        for prof in all_benchmarks() {
            let pages: Vec<VPageId> = WorkloadGenerator::new(&prof, 5)
                .take(30_000)
                .filter(|i| i.is_load())
                .map(|i| VPageId::new(i.vaddr().unwrap().raw() >> 12))
                .collect();
            let r = page_locality_ratios(&pages, &[0, 1, 2, 3]);
            for (s, v) in sums.iter_mut().zip(&r) {
                *s += v;
            }
            n += 1.0;
        }
        let avg: Vec<f64> = sums.iter().map(|s| s / n).collect();
        // Paper: 70 / 85 / 90 / 92 %. Accept the right shape.
        assert!(avg[1] > avg[0] + 0.05, "n=1 should add >5pp: {avg:?}");
        assert!(avg[3] > 0.85, "n=3 should exceed 85%: {avg:?}");
    }

    #[test]
    fn media_benchmarks_have_higher_locality_than_mcf() {
        let mcf = run_length_buckets(&load_pages("mcf", 30_000), 0).grouped_share();
        let djpeg = run_length_buckets(&load_pages("djpeg", 30_000), 0).grouped_share();
        assert!(
            djpeg > mcf + 0.2,
            "djpeg ({djpeg}) should dominate mcf ({mcf})"
        );
    }

    #[test]
    fn suite_average_line_adjacency_near_46_percent() {
        // Sec. III: 46% of loads are directly followed by a load to the
        // same line. Check the workload population lands in a sane band.
        let mut total = 0.0;
        let mut n = 0.0;
        for prof in all_benchmarks()
            .into_iter()
            .filter(|b| b.suite != Suite::SpecFp)
        {
            let lines: Vec<u64> = WorkloadGenerator::new(&prof, 9)
                .take(30_000)
                .filter(|i| i.is_load())
                .map(|i| i.vaddr().unwrap().raw() >> 6)
                .collect();
            total += same_line_adjacency(&lines);
            n += 1.0;
        }
        let avg = total / n;
        assert!(
            (0.30..0.65).contains(&avg),
            "line adjacency should be near 46%: {avg}"
        );
    }
}
