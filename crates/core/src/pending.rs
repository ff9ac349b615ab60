//! Allocation-free bookkeeping for the per-cycle hot path.
//!
//! Both interface implementations used to keep load completions in a
//! `Vec<(due, id)>` scanned with `retain` every tick, and outstanding line
//! fills in a `HashMap<u64, u64>` that hashed on every L1 hit. Profiling the
//! sweep matrix showed those two structures (plus their rehash/regrow
//! allocations) dominating steady-state `tick()` cost, so they are replaced
//! by:
//!
//! * [`CompletionQueue`] — a calendar queue (R. Brown, "Calendar queues",
//!   CACM 31(10), 1988) with one bucket per cycle: a ring of per-cycle id
//!   lists as long as the longest load latency, so a push appends to its
//!   due cycle's bucket and a tick takes the buckets it has reached, with no
//!   heap order to keep;
//! * [`FillTable`] — a small open vector of `(line, ready)` pairs mirroring
//!   the MSHRs: with ≤ a handful of outstanding fills, a linear probe beats
//!   hashing, never allocates in steady state, and expired entries are
//!   pruned in place as soon as the earliest of them lands, so a probe
//!   scans only fills still in flight (plus those landing this cycle).
//!
//! Both structures preallocate in the constructor and only touch their own
//! storage afterwards, so a steady-state tick performs no heap allocation
//! (a ring bucket keeps the capacity it grew to once).

use malec_types::op::OpId;

/// In-flight load completions, delivered in due-cycle order.
///
/// `buckets[c & mask]` holds the ids due in cycle `c`, ascending, for every
/// `c` from `next` on: a load is due at most `horizon` cycles after the
/// cycle it is pushed in, and the ring has more slots than that, so two
/// cycles in flight never share a bucket.
#[derive(Clone, Debug)]
pub struct CompletionQueue {
    buckets: Vec<Vec<OpId>>,
    mask: u64,
    /// The earliest cycle not yet delivered.
    next: u64,
    len: usize,
}

impl CompletionQueue {
    /// Creates a queue for loads due at most `horizon` cycles after the
    /// cycle they are pushed in (the config's longest load latency).
    pub fn new(horizon: u64) -> Self {
        let slots = (horizon + 1).next_power_of_two();
        Self {
            buckets: (0..slots).map(|_| Vec::with_capacity(4)).collect(),
            mask: slots - 1,
            next: 0,
            len: 0,
        }
    }

    /// Schedules `id` to complete at `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is already delivered or past the ring's horizon.
    #[inline]
    pub fn push(&mut self, due: u64, id: OpId) {
        assert!(
            due >= self.next && due - self.next <= self.mask,
            "completion due at {due} outside the ring from cycle {}",
            self.next
        );
        let bucket = &mut self.buckets[(due & self.mask) as usize];
        // Ids mostly arrive in program order: an append, else a sorted
        // insert.
        if bucket.last().is_none_or(|&last| last < id) {
            bucket.push(id);
        } else {
            let at = bucket.partition_point(|&b| b < id);
            bucket.insert(at, id);
        }
        self.len += 1;
    }

    /// Delivers every completion with `due <= cycle` into `out`, ascending
    /// by due cycle, then op id. A drain may skip cycles; once the queue is
    /// empty the ring restarts after `cycle`, wherever that is.
    #[inline]
    pub fn drain_due(&mut self, cycle: u64, out: &mut Vec<OpId>) {
        while self.len > 0 && self.next <= cycle {
            let bucket = &mut self.buckets[(self.next & self.mask) as usize];
            self.len -= bucket.len();
            out.append(bucket);
            self.next += 1;
        }
        if self.len == 0 {
            self.next = cycle.saturating_add(1);
        }
    }

    /// Completions still owed.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no completions are owed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Outstanding line fills: the MSHR view an access consults to avoid
/// completing before the fill that delivers its data.
///
/// Mirrors the semantics of the `HashMap<line, ready>` it replaces exactly:
/// [`note_fill`](Self::note_fill) overwrites an existing entry for the same
/// line, and [`ready_after`](Self::ready_after) drops entries whose fill
/// already landed.
#[derive(Clone, Debug)]
pub struct FillTable {
    entries: Vec<(u64, u64)>,
    /// A lower bound on every entry's `ready` cycle (`u64::MAX` when
    /// empty): [`prune`](Self::prune) has nothing to drop before it.
    earliest: u64,
}

impl FillTable {
    /// Creates a table with room for `capacity` outstanding fills.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            earliest: u64::MAX,
        }
    }

    /// Records that `line`'s fill completes at `ready`.
    #[inline]
    pub fn note_fill(&mut self, line: u64, ready: u64) {
        self.earliest = self.earliest.min(ready);
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
            e.1 = ready;
        } else {
            self.entries.push((line, ready));
        }
    }

    /// If `line` has an outstanding fill later than `cycle`, returns its
    /// ready cycle; otherwise removes the stale entry (if any) and returns
    /// `None`.
    #[inline]
    pub fn ready_after(&mut self, line: u64, cycle: u64) -> Option<u64> {
        let idx = self.entries.iter().position(|e| e.0 == line)?;
        let ready = self.entries[idx].1;
        if ready > cycle {
            Some(ready)
        } else {
            self.entries.swap_remove(idx);
            None
        }
    }

    /// Drops entries whose fill already landed. Expired entries are
    /// semantically invisible (a probe removes them and reports `None`), so
    /// pruning at any point cannot change simulated behavior; it only keeps
    /// the probe short. Called from `tick()`: a compare until `cycle`
    /// reaches the earliest ready cycle, then one pass that drops every
    /// landed fill and finds the next earliest.
    #[inline]
    pub fn prune(&mut self, cycle: u64) {
        if cycle < self.earliest {
            return;
        }
        self.entries.retain(|&(_, ready)| ready > cycle);
        self.earliest = self
            .entries
            .iter()
            .map(|&(_, ready)| ready)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Outstanding fills tracked (including not-yet-pruned expired ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table tracks nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn completions_deliver_in_due_order() {
        let mut q = CompletionQueue::new(20);
        q.push(10, OpId(3));
        q.push(5, OpId(1));
        q.push(10, OpId(2));
        q.push(20, OpId(4));
        let mut out = Vec::new();
        q.drain_due(4, &mut out);
        assert!(out.is_empty());
        q.drain_due(10, &mut out);
        assert_eq!(out, vec![OpId(1), OpId(2), OpId(3)]);
        assert_eq!(q.len(), 1);
        q.drain_due(u64::MAX, &mut out);
        assert_eq!(out.last(), Some(&OpId(4)));
        assert!(q.is_empty());
    }

    #[test]
    fn fill_table_matches_hashmap_semantics() {
        let mut t = FillTable::with_capacity(4);
        t.note_fill(100, 50);
        // Pending: reported as long as ready > cycle.
        assert_eq!(t.ready_after(100, 10), Some(50));
        assert_eq!(t.ready_after(100, 49), Some(50));
        // Expired: removed on probe.
        assert_eq!(t.ready_after(100, 50), None);
        assert!(t.is_empty());
        // Overwrite keeps one entry per line.
        t.note_fill(7, 30);
        t.note_fill(7, 60);
        assert_eq!(t.len(), 1);
        assert_eq!(t.ready_after(7, 40), Some(60));
        // Unknown lines report nothing.
        assert_eq!(t.ready_after(8, 0), None);
    }

    #[test]
    fn prune_only_drops_expired() {
        let mut t = FillTable::with_capacity(64);
        for i in 0..64u64 {
            t.note_fill(i, i + 20);
        }
        // Nothing has landed before cycle 20: the table keeps every entry.
        t.prune(19);
        assert_eq!(t.len(), 64);
        // From the earliest ready cycle on, every landed fill goes at once.
        t.prune(30);
        assert_eq!(t.len(), 64 - 11);
        assert_eq!(t.ready_after(50, 30), Some(70), "live entries survive");
        assert_eq!(t.ready_after(5, 30), None, "expired entries are gone");
        // A later fill landing first moves the next prune earlier.
        t.note_fill(100, 35);
        t.prune(35);
        assert_eq!(t.ready_after(100, 34), None, "pruned at its ready cycle");
        assert_eq!(t.len(), 64 - 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pushes up to the horizon ahead, with ids out of program order,
        /// and drains that advance one cycle or skip up to twice the
        /// horizon: every drain delivers what a min-heap on (due, id)
        /// pops, and a final drain to `u64::MAX` empties both.
        #[test]
        fn prop_completion_ring_matches_heap(
            horizon in 1u64..100,
            ops in proptest::collection::vec((0u8..4, 0u64..1000, 0u64..64), 0..400),
        ) {
            let mut ring = CompletionQueue::new(horizon);
            let mut heap = BinaryHeap::new();
            let drain = |heap: &mut BinaryHeap<Reverse<(u64, OpId)>>, cycle: u64| {
                let mut out = Vec::new();
                while heap.peek().is_some_and(|&Reverse((due, _))| due <= cycle) {
                    out.extend(heap.pop().map(|Reverse((_, id))| id));
                }
                out
            };
            // The last drained cycle; loads pushed now are due after it.
            let mut cycle = 0u64;
            for (kind, a, id) in ops {
                if kind < 2 {
                    cycle += if kind == 0 { 1 } else { 1 + a % (2 * horizon) };
                    let mut got = Vec::new();
                    ring.drain_due(cycle, &mut got);
                    prop_assert_eq!(got, drain(&mut heap, cycle));
                } else {
                    let due = cycle + 1 + a % horizon;
                    ring.push(due, OpId(id));
                    heap.push(Reverse((due, OpId(id))));
                }
                prop_assert_eq!(ring.len(), heap.len());
            }
            let mut got = Vec::new();
            ring.drain_due(u64::MAX, &mut got);
            prop_assert_eq!(got, drain(&mut heap, u64::MAX));
            prop_assert!(ring.is_empty());
        }
    }

    /// The fill table as it was before cycle-driven pruning: it pruned only
    /// once it held 64 or more entries.
    struct ThresholdFillTable {
        entries: Vec<(u64, u64)>,
    }

    impl ThresholdFillTable {
        fn note_fill(&mut self, line: u64, ready: u64) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
                e.1 = ready;
            } else {
                self.entries.push((line, ready));
            }
        }

        fn ready_after(&mut self, line: u64, cycle: u64) -> Option<u64> {
            let idx = self.entries.iter().position(|e| e.0 == line)?;
            let ready = self.entries[idx].1;
            if ready > cycle {
                Some(ready)
            } else {
                self.entries.swap_remove(idx);
                None
            }
        }

        fn prune(&mut self, cycle: u64) {
            if self.entries.len() >= 64 {
                self.entries.retain(|&(_, ready)| ready > cycle);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Ticks (each pruning both tables), fills and probes in random
        /// order: every `ready_after` answer matches the threshold-pruned
        /// model, so when pruning happens never shows. The line range and
        /// latencies keep 64 or more fills in flight at times, so the
        /// model prunes too.
        #[test]
        fn prop_fill_table_matches_threshold_model(
            ops in proptest::collection::vec((0u64..3, 0u8..3, 0u64..96, 0u64..120), 0..600),
        ) {
            let mut table = FillTable::with_capacity(8);
            let mut model = ThresholdFillTable { entries: Vec::new() };
            let mut cycle = 0u64;
            for (advance, kind, line, latency) in ops {
                if advance > 0 {
                    cycle += advance;
                    table.prune(cycle);
                    model.prune(cycle);
                }
                if kind == 0 {
                    table.note_fill(line, cycle + latency);
                    model.note_fill(line, cycle + latency);
                } else {
                    prop_assert_eq!(table.ready_after(line, cycle), model.ready_after(line, cycle));
                }
            }
        }
    }
}
