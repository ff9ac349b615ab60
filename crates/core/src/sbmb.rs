//! Store Buffer and Merge Buffer.
//!
//! Stores execute speculatively into the Store Buffer (SB), commit, then
//! drain into the Merge Buffer (MB) which coalesces stores to the same
//! cache line. An MB allocation with the buffer full evicts the oldest
//! entry, which becomes an L1 write — in MALEC it enters the Input Buffer
//! as the lowest-priority element (Fig. 2b).

use std::collections::VecDeque;

use malec_types::addr::LineAddr;
use malec_types::op::{MemOp, OpId};
use malec_types::params::PAGE;

/// One store buffer entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct SbEntry {
    op: MemOp,
    committed: bool,
}

/// The store buffer: program-ordered stores awaiting commit and drain.
///
/// # Example
///
/// ```
/// use malec_core::sbmb::StoreBuffer;
/// use malec_types::op::{MemOp, OpId};
/// use malec_types::addr::VAddr;
///
/// let mut sb = StoreBuffer::new(24);
/// assert!(sb.push(MemOp::store(OpId(1), VAddr::new(0x100), 4)));
/// sb.mark_committed(OpId(1));
/// assert!(sb.pop_committed().is_some());
/// ```
#[derive(Clone, Debug)]
pub struct StoreBuffer {
    entries: VecDeque<SbEntry>,
    capacity: usize,
}

impl StoreBuffer {
    /// Creates an empty store buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer needs capacity");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Whether another store can be accepted.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a speculative store; returns false when full.
    pub fn push(&mut self, op: MemOp) -> bool {
        if !self.has_room() {
            return false;
        }
        self.entries.push_back(SbEntry {
            op,
            committed: false,
        });
        true
    }

    /// Marks the store `id` as committed (eligible to drain).
    pub fn mark_committed(&mut self, id: OpId) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.op.id == id) {
            e.committed = true;
        }
    }

    /// Pops the oldest committed store, if the head has committed
    /// (drain is in order).
    pub fn pop_committed(&mut self) -> Option<MemOp> {
        match self.entries.front() {
            Some(e) if e.committed => self.entries.pop_front().map(|e| e.op),
            _ => None,
        }
    }
}

/// One merge buffer entry: coalesced committed stores to a single line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MbEntry {
    /// The line all merged stores hit.
    pub line: LineAddr,
    /// A representative memory op (first store's identity and address).
    pub rep: MemOp,
    /// How many stores were merged into this entry.
    pub merged: u32,
}

/// The merge buffer (4 entries in Table II).
#[derive(Clone, Debug)]
pub struct MergeBuffer {
    entries: VecDeque<MbEntry>,
    capacity: usize,
}

impl MergeBuffer {
    /// Creates an empty merge buffer with `capacity` entries merging at
    /// the granularity of the Table II cache line.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "merge buffer needs capacity");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Inserts a committed store: merges into an existing same-line entry,
    /// else allocates. If allocation requires room, the oldest entry is
    /// evicted and returned — it must be written to the L1.
    pub fn insert(&mut self, op: MemOp) -> Option<MbEntry> {
        let line = PAGE.line_of(op.vaddr.raw());
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.merged += 1;
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(MbEntry {
            line,
            rep: op,
            merged: 1,
        });
        evicted
    }

    /// Drains one entry for end-of-run cleanup.
    pub fn pop(&mut self) -> Option<MbEntry> {
        self.entries.pop_front()
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_types::addr::VAddr;

    fn st(id: u64, addr: u64) -> MemOp {
        MemOp::store(OpId(id), VAddr::new(addr), 4)
    }

    #[test]
    fn sb_fifo_commit_drain() {
        let mut sb = StoreBuffer::new(2);
        assert!(sb.push(st(1, 0x100)));
        assert!(sb.push(st(2, 0x200)));
        assert!(!sb.push(st(3, 0x300)), "full SB rejects");
        assert!(sb.pop_committed().is_none(), "nothing committed yet");
        // Commit out of order: drain stays in order.
        sb.mark_committed(OpId(2));
        assert!(sb.pop_committed().is_none(), "head not committed");
        sb.mark_committed(OpId(1));
        assert_eq!(sb.pop_committed().unwrap().id, OpId(1));
        assert_eq!(sb.pop_committed().unwrap().id, OpId(2));
        assert!(sb.is_empty());
    }

    #[test]
    fn mb_merges_same_line() {
        let mut mb = MergeBuffer::new(4);
        assert!(mb.insert(st(1, 0x100)).is_none());
        assert!(mb.insert(st(2, 0x104)).is_none()); // same 64B line
        assert!(mb.insert(st(3, 0x13c)).is_none()); // still same line
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.pop().unwrap().merged, 3, "one entry holds all three");
    }

    #[test]
    fn mb_evicts_oldest_when_full() {
        let mut mb = MergeBuffer::new(2);
        mb.insert(st(1, 0x000));
        mb.insert(st(2, 0x040));
        let ev = mb.insert(st(3, 0x080)).expect("full MB evicts");
        assert_eq!(ev.line, LineAddr::new(0));
        assert_eq!(mb.len(), 2);
        let held: Vec<LineAddr> = mb.entries.iter().map(|e| e.line).collect();
        assert_eq!(held, [LineAddr::new(1), LineAddr::new(2)]);
    }

    #[test]
    fn mb_pop_drains_in_order() {
        let mut mb = MergeBuffer::new(4);
        mb.insert(st(1, 0x000));
        mb.insert(st(2, 0x040));
        assert_eq!(mb.pop().unwrap().line, LineAddr::new(0));
        assert_eq!(mb.pop().unwrap().line, LineAddr::new(1));
        assert!(mb.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = StoreBuffer::new(0);
    }
}
