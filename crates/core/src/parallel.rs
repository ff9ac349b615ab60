//! Deterministic fork-join parallelism for independent simulation cells.
//!
//! Every `(workload, configuration)` cell of a sweep is a self-contained,
//! seeded simulation — no shared state, bit-reproducible output — so a
//! sweep is embarrassingly parallel. The build environment has no access
//! to crates.io (so no `rayon`); this module sizes the fan-out (the serve
//! engine's pool uses [`worker_count`]) and provides one primitive on top
//! of `std::thread::scope`: an order-preserving parallel map with atomic
//! work-stealing over the item list.
//!
//! Results are stored in the output slot matching the input index, so the
//! output of [`parallel_map_with`] is **identical** to the serial
//! `items.map(f).collect()` no matter how the items were interleaved across
//! threads — determinism of the results does not depend on scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on worker threads (beyond this, memory bandwidth — not the
/// core count — limits simulator throughput).
const MAX_THREADS: usize = 32;

/// The number of worker threads a parallel sweep uses by default.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The number of workers `items` items can use — [`worker_count`] capped
/// by the item count (a 24-cell sweep never spawns 32 threads). This is the
/// figure reports should quote.
fn workers_used(items: usize) -> usize {
    worker_count().min(items).max(1)
}

/// The fan-out for `items` items under an optional operator-imposed cap
/// (the `--jobs N` flag of `malec-cli run`, `compare` and `serve`): never
/// more than `cap`. `Some(0)` and `Some(1)` both mean serial.
pub fn workers_for(items: usize, cap: Option<usize>) -> usize {
    workers_used(items).min(cap.unwrap_or(usize::MAX)).max(1)
}

/// Maps `f` over `items` on `workers` scoped threads, preserving input
/// order in the output.
///
/// The workers claim items through a shared atomic cursor (dynamic load
/// balancing: simulation cells differ in cost by an order of magnitude
/// between workloads). `0` and `1` workers, or a single item, run a plain
/// serial map.
///
/// # Panics
///
/// Panics if any worker panicked (the scope joins all threads first and
/// re-raises as "a scoped thread panicked"; the original message appears
/// in the worker's own backtrace).
pub fn parallel_map_with<T, R, F>(items: Vec<T>, f: F, workers: usize) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    // Each worker claims the next index through the shared cursor and
    // stores its result in that index's slot; the scope joins every worker
    // before the slots are read. A worker holds the lock only for that
    // store, which cannot panic, so the lock is never poisoned. Items are
    // whole simulation cells, so one lock per item costs nothing measurable.
    let slots: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                slots.lock().expect("a slot store cannot panic")[i] = Some(r);
            });
        }
    });

    slots
        .into_inner()
        .expect("a slot store cannot panic")
        .into_iter()
        .map(|r| r.expect("every slot written by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        // Force 4 workers so the threaded path runs even on 1-core boxes.
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map_with(items.clone(), |&x| x * x, 4);
        let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn workers_used_is_capped_by_items() {
        assert_eq!(workers_used(0), 1);
        assert_eq!(workers_used(1), 1);
        assert!(workers_used(1_000) <= worker_count());
        assert!(workers_used(1_000) >= 1);
    }

    #[test]
    fn workers_for_honors_the_jobs_cap() {
        assert_eq!(workers_for(1_000, Some(1)), 1);
        assert_eq!(workers_for(1_000, Some(0)), 1, "0 means serial, not zero");
        assert_eq!(workers_for(1_000, None), workers_used(1_000));
        assert!(workers_for(1_000, Some(2)) <= 2);
        assert_eq!(workers_for(1, Some(8)), 1, "item count still caps");
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(
            parallel_map_with(Vec::<u64>::new(), |&x| x, 4),
            Vec::<u64>::new()
        );
        assert_eq!(parallel_map_with(vec![7u64], |&x| x + 1, 4), vec![8]);
    }

    #[test]
    fn balances_uneven_work() {
        // Items with wildly different costs still land in their own slots.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_with(
            items,
            |&x| {
                let spins = if x % 7 == 0 { 10_000 } else { 10 };
                (0..spins).fold(x, |acc, _| std::hint::black_box(acc))
            },
            4,
        );
        assert_eq!(out, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        let _ = parallel_map_with(
            (0..128u64).collect(),
            |&x| {
                if x == 77 {
                    panic!("worker boom");
                }
                x
            },
            4,
        );
    }
}
