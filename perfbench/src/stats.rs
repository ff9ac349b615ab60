//! Summary statistics and the output-name rules every reported metric
//! follows.

/// Tail percentiles a latency may be reported at, in per-mille, highest
/// first. A fixed ladder keeps the reported percentile from drifting with
/// every extra sample. p99 and above are left out: with the few dozen
/// samples a run has beyond them they read the shared host's hiccups, not
/// the program (p99 of `sim_adversarial` cells spread 0.23 across seeds,
/// p90 0.07).
const TAIL_LADDER_PER_MILLE: [usize; 2] = [900, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Arithmetic mean, or 0 for no samples (a layer the workload never
/// calls reads 0).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Indices of the fastest quarter (rounded up, but at least `at_least`) of
/// equal-work segments, by wall time. On a shared host a slow segment
/// mostly measures the neighbours.
pub fn fastest_quarter(walls: &[f64], at_least: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..walls.len()).collect();
    idx.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    idx.truncate(walls.len().div_ceil(4).max(at_least));
    idx
}

/// A latency reported at the highest ladder percentile that leaves at
/// least [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked beyond the reported one.
    pub beyond: usize,
}

/// The tail of `xs`; `None` when even the median has fewer than
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    TAIL_LADDER_PER_MILLE.iter().find_map(|&p| {
        // Nearest rank, in integers: ceil(p * n / 1000).
        let rank = (p * n).div_ceil(1000);
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= MIN_BEYOND).then(|| Tail {
            percentile: p as f64 / 10.0,
            value: s[rank - 1],
            samples: n,
            beyond,
        })
    })
}

/// Checks a metric name against the output contract: 1 to 64 ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn check_name(name: &str) -> Result<(), String> {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    let chars_ok = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    if first_ok && chars_ok && name.len() <= 64 {
        Ok(())
    } else {
        Err(format!("invalid metric name `{name}`"))
    }
}

/// Checks a unit: 1 to 16 ASCII letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn check_unit(unit: &str) -> Result<(), String> {
    let chars_ok = unit
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
    if !unit.is_empty() && chars_ok && unit.len() <= 16 {
        Ok(())
    } else {
        Err(format!("invalid unit `{unit}`"))
    }
}

/// Checks that `emitted` (name, unit) pairs are valid, unique, and exactly
/// the `declared` set with the declared units.
pub fn check_against(
    emitted: &[(&str, &str)],
    declared: &[(String, String)],
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for &(name, unit) in emitted {
        check_name(name)?;
        check_unit(unit)?;
        if !seen.insert(name) {
            return Err(format!("metric `{name}` emitted twice"));
        }
        match declared.iter().find(|(n, _)| n == name) {
            Some((_, u)) if u == unit => {}
            Some((_, u)) => {
                return Err(format!("metric `{name}` has unit `{unit}`, declared `{u}`"))
            }
            None => return Err(format!("metric `{name}` is not declared")),
        }
    }
    match declared.iter().find(|(n, _)| !seen.contains(n.as_str())) {
        Some((n, _)) => Err(format!("declared metric `{n}` is not emitted")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rule must sort.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&ramp(19)), None, "the median of 19 has 9 beyond");
        let t = tail(&ramp(20)).expect("the median of 20 has 10 beyond");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        let t = tail(&ramp(99)).expect("p50");
        assert_eq!(t.percentile, 50.0, "p90 of 99 leaves only 9 beyond");
        let t = tail(&ramp(100)).expect("p90");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        let t = tail(&ramp(101)).expect("p90");
        assert_eq!((t.value, t.beyond), (91.0, 10), "nearest rank: ceil(90.9)");
        let t = tail(&ramp(100_000)).expect("p90");
        assert_eq!(t.percentile, 90.0, "p99 is not on the ladder");
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn fastest_quarter_keeps_the_quickest_segments() {
        assert_eq!(fastest_quarter(&[3.0, 1.0, 2.0], 1), vec![1]);
        assert_eq!(fastest_quarter(&[5.0, 4.0, 1.0, 3.0, 2.0], 1), vec![2, 4]);
        assert_eq!(
            fastest_quarter(&[5.0, 4.0, 1.0, 3.0, 2.0], 3),
            vec![2, 4, 3]
        );
        assert_eq!(
            fastest_quarter(&[2.0, 1.0], 5),
            vec![1, 0],
            "never more than all"
        );
        assert!(fastest_quarter(&[], 5).is_empty());
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for good in [
            "latency_p50_ms",
            "iface.tick_ns_per_cycle.MALEC",
            "9a-b",
            &"x".repeat(64),
        ] {
            assert!(check_name(good).is_ok(), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "é",
            &"x".repeat(65),
        ] {
            assert!(check_name(bad).is_err(), "{bad:?}");
        }
        for good in ["ms", "1/s", "%", "MB", "count"] {
            assert!(check_unit(good).is_ok(), "{good}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(check_unit(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn emitted_metrics_must_match_the_declared_set() {
        let declared = vec![
            ("a".to_owned(), "ms".to_owned()),
            ("b".to_owned(), "s".to_owned()),
        ];
        assert!(check_against(&[("a", "ms"), ("b", "s")], &declared).is_ok());
        assert!(
            check_against(&[("a", "ms")], &declared).is_err(),
            "missing b"
        );
        assert!(
            check_against(&[("a", "ms"), ("b", "ms")], &declared).is_err(),
            "unit"
        );
        assert!(check_against(&[("a", "ms"), ("a", "ms"), ("b", "s")], &declared).is_err());
        assert!(
            check_against(&[("a", "ms"), ("b", "s"), ("c", "s")], &declared).is_err(),
            "undeclared c"
        );
        assert!(
            check_against(&[("a b", "ms")], &declared).is_err(),
            "bad name"
        );
    }
}
