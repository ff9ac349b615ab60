//! Allocation-free bookkeeping for the per-cycle hot path.
//!
//! Both interface implementations used to keep load completions in a
//! `Vec<(due, id)>` scanned with `retain` every tick, and outstanding line
//! fills in a `HashMap<u64, u64>` that hashed on every L1 hit. Profiling the
//! sweep matrix showed those two structures (plus their rehash/regrow
//! allocations) dominating steady-state `tick()` cost, so they are replaced
//! by:
//!
//! * [`CompletionQueue`] — a min-heap keyed on due-cycle: delivering this
//!   cycle's completions pops only the entries that are actually due instead
//!   of scanning every in-flight load;
//! * [`FillTable`] — a small open vector of `(line, ready)` pairs mirroring
//!   the MSHRs: with ≤ a handful of outstanding fills, a linear probe beats
//!   hashing, never allocates in steady state, and expired entries are
//!   pruned in place.
//!
//! Both structures preallocate in the constructor and only touch their own
//! storage afterwards, so a steady-state tick performs no heap allocation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use malec_types::op::OpId;

/// In-flight load completions ordered by due cycle.
#[derive(Clone, Debug, Default)]
pub struct CompletionQueue {
    heap: BinaryHeap<Reverse<(u64, OpId)>>,
}

impl CompletionQueue {
    /// Creates a queue with room for `capacity` in-flight loads.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Schedules `id` to complete at `due`.
    #[inline]
    pub fn push(&mut self, due: u64, id: OpId) {
        self.heap.push(Reverse((due, id)));
    }

    /// Pops every completion with `due <= cycle` into `out` (ascending due
    /// cycle, then op id).
    #[inline]
    pub fn drain_due(&mut self, cycle: u64, out: &mut Vec<OpId>) {
        while let Some(&Reverse((due, id))) = self.heap.peek() {
            if due > cycle {
                break;
            }
            self.heap.pop();
            out.push(id);
        }
    }

    /// Completions still owed.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no completions are owed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Outstanding line fills: the MSHR view an access consults to avoid
/// completing before the fill that delivers its data.
///
/// Mirrors the semantics of the `HashMap<line, ready>` it replaces exactly:
/// [`note_fill`](Self::note_fill) overwrites an existing entry for the same
/// line, and [`ready_after`](Self::ready_after) drops entries whose fill
/// already landed.
#[derive(Clone, Debug, Default)]
pub struct FillTable {
    entries: Vec<(u64, u64)>,
}

/// Above this occupancy the table prunes expired fills on `tick`.
const PRUNE_THRESHOLD: usize = 64;

impl FillTable {
    /// Creates a table with room for `capacity` outstanding fills.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Records that `line`'s fill completes at `ready`.
    #[inline]
    pub fn note_fill(&mut self, line: u64, ready: u64) {
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
    /// the probe short on workloads that touch many lines once. Called from
    /// `tick()`, and a no-op below `PRUNE_THRESHOLD` occupancy.
    #[inline]
    pub fn prune(&mut self, cycle: u64) {
        if self.entries.len() >= PRUNE_THRESHOLD {
            self.entries.retain(|&(_, ready)| ready > cycle);
        }
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

    #[test]
    fn completions_deliver_in_due_order() {
        let mut q = CompletionQueue::with_capacity(8);
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
        let mut t = FillTable::with_capacity(PRUNE_THRESHOLD);
        for i in 0..PRUNE_THRESHOLD as u64 {
            t.note_fill(i, i);
        }
        t.prune(10);
        assert!(t.len() < PRUNE_THRESHOLD);
        assert_eq!(t.ready_after(50, 10), Some(50), "live entries survive");
        assert_eq!(t.ready_after(5, 10), None, "expired entries are gone");
    }
}
