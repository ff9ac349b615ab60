//! The calibrated wall-clock loop behind the `micro_structures` bench: no
//! statistics, but enough to spot order-of-magnitude regressions in the
//! simulator's hot structures.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean wall-clock nanoseconds per call of `f`, measured over about
/// `window`. The batch size doubles until one batch takes 1% of `window`;
/// then as many batches as fit the window run back to back (at least one).
/// The mean is floored at 1 ns, so a closure release mode folds to a
/// constant never reads as unmeasured.
pub fn mean_ns_per_iter<R>(window: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut batch = 1u64;
    let per_iter_ns = loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed >= window / 100 || batch >= 1 << 30 {
            break elapsed.as_nanos() as f64 / batch as f64;
        }
        batch *= 2;
    };
    let runs = ((window.as_nanos() as f64 / per_iter_ns.max(1.0)) as u64 / batch).clamp(1, 1 << 30);
    let t = Instant::now();
    for _ in 0..runs * batch {
        black_box(f());
    }
    (t.elapsed().as_nanos() as f64 / (runs * batch) as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_not_below_the_closures_real_cost() {
        // A sleep takes at least its duration, so the mean must too: an
        // iteration count that overstated the calls would undercut it.
        let ns = mean_ns_per_iter(Duration::from_millis(10), || {
            std::thread::sleep(Duration::from_micros(200))
        });
        assert!(ns >= 200_000.0, "{ns} ns/iter");
    }

    #[test]
    fn sub_nanosecond_closures_still_report_nonzero() {
        // Even a closure release mode folds to a constant must not report
        // a 0 ns mean.
        let ns = mean_ns_per_iter(Duration::from_millis(10), || 1u64 + 1);
        assert!(ns >= 1.0, "{ns} ns/iter");
    }

    #[test]
    fn a_closure_longer_than_the_window_still_runs_in_the_measurement() {
        let mut calls = 0u32;
        let ns = mean_ns_per_iter(Duration::from_millis(1), || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(3));
        });
        assert_eq!(calls, 2, "one calibration call, then one measured batch");
        assert!(ns >= 3_000_000.0, "{ns} ns/iter");
    }
}
