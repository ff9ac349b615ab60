//! The Input Buffer: MALEC's page-grouping front end (Sec. IV).
//!
//! Loads finishing address computation and evicted merge-buffer entries
//! enter the Input Buffer. Each cycle the highest-priority entry's virtual
//! page id goes to the uTLB, and is simultaneously compared against every
//! other valid entry; matching entries form the group handed to the
//! Arbitration Unit. Priority, high to low: loads held from previous cycles,
//! loads that just arrived (program order), then the MBE (not time critical
//! — its stores already committed).
//!
//! The loads are kept in that priority order, (arrival cycle, op id): each
//! is inserted at its place, which is an append when the core offers loads
//! oldest first, as it does. Selecting a group then takes the first load as
//! leader and filters the rest, already in order, with no search and no
//! sort.

use malec_types::addr::VPageId;
use malec_types::op::{MemOp, OpId};

/// One Input Buffer element.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IbEntry {
    /// The memory operation (load, or merge-buffer eviction write).
    pub op: MemOp,
    /// Its virtual page id (the 20-bit comparator operand).
    pub vpage: VPageId,
    /// Cycle the entry arrived (age ⇒ priority).
    pub arrived: u64,
}

/// The group metadata of one cycle's selection, without the member list —
/// [`InputBuffer::select_into`] writes the members into a caller-owned
/// buffer so the per-cycle hot path allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GroupMeta {
    /// The page every member shares.
    pub vpage: VPageId,
    /// Whether the pending MBE belongs to the group.
    pub include_mbe: bool,
    /// vPageID comparisons performed (energy: one 20-bit compare per other
    /// valid entry).
    pub compares: u32,
}

/// The Input Buffer.
///
/// # Example
///
/// ```
/// use malec_core::input_buffer::InputBuffer;
/// use malec_types::addr::{VAddr, VPageId};
/// use malec_types::op::{MemOp, OpId};
///
/// let mut ib = InputBuffer::new(7);
/// ib.push_load(MemOp::load(OpId(0), VAddr::new(0x1000), 4), VPageId::new(1), 0);
/// ib.push_load(MemOp::load(OpId(1), VAddr::new(0x1040), 4), VPageId::new(1), 0);
/// ib.push_load(MemOp::load(OpId(2), VAddr::new(0x2000), 4), VPageId::new(2), 0);
/// let mut members = Vec::new();
/// let group = ib.select_into(&mut members).expect("entries present");
/// assert_eq!(group.vpage, VPageId::new(1));
/// assert_eq!(members.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct InputBuffer {
    loads: Vec<IbEntry>,
    mbe: Option<IbEntry>,
    load_cap: usize,
}

impl InputBuffer {
    /// Creates a buffer holding at most `load_cap` loads (held + fresh) plus
    /// one MBE. The paper's configuration: 3 held + 4 fresh = 7.
    pub fn new(load_cap: usize) -> Self {
        Self {
            loads: Vec::with_capacity(load_cap),
            mbe: None,
            load_cap,
        }
    }

    /// Whether another load can be accepted this cycle (AGUs stall
    /// otherwise).
    pub(crate) fn can_accept_load(&self) -> bool {
        self.loads.len() < self.load_cap
    }

    /// Inserts a load at its priority position; returns false (and drops
    /// nothing) when full.
    pub fn push_load(&mut self, op: MemOp, vpage: VPageId, cycle: u64) -> bool {
        if !self.can_accept_load() {
            return false;
        }
        let entry = IbEntry {
            op,
            vpage,
            arrived: cycle,
        };
        let key = |e: &IbEntry| (e.arrived, e.op.id);
        if self.loads.last().is_none_or(|last| key(last) < key(&entry)) {
            self.loads.push(entry);
        } else {
            let at = self.loads.partition_point(|e| key(e) < key(&entry));
            self.loads.insert(at, entry);
        }
        true
    }

    /// Installs the pending merge-buffer eviction; returns false if one is
    /// already waiting (the MB stalls its eviction).
    pub(crate) fn set_mbe(&mut self, op: MemOp, vpage: VPageId, cycle: u64) -> bool {
        if self.mbe.is_some() {
            return false;
        }
        self.mbe = Some(IbEntry {
            op,
            vpage,
            arrived: cycle,
        });
        true
    }

    /// Whether an MBE is waiting.
    pub(crate) fn has_mbe(&self) -> bool {
        self.mbe.is_some()
    }

    /// Loads currently buffered.
    pub(crate) fn len(&self) -> usize {
        self.loads.len()
    }

    /// Whether the buffer holds nothing at all.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.loads.is_empty() && self.mbe.is_none()
    }

    /// Selects this cycle's page group: the highest-priority entry leads,
    /// all same-page entries join. Loads outrank the MBE; among loads, age
    /// then program order.
    ///
    /// Allocation-free: clears `members` and fills it with this cycle's
    /// group in priority order (leader first). Returns the group metadata,
    /// or `None` when the buffer holds nothing.
    pub fn select_into(&self, members: &mut Vec<IbEntry>) -> Option<GroupMeta> {
        members.clear();
        let vpage = self.loads.first().or(self.mbe.as_ref())?.vpage;
        members.extend(self.loads.iter().filter(|e| e.vpage == vpage).copied());
        let include_mbe = self.mbe.as_ref().is_some_and(|m| m.vpage == vpage);
        // One comparator per other valid entry (the leader itself is free).
        let valid = self.loads.len() + usize::from(self.mbe.is_some());
        Some(GroupMeta {
            vpage,
            include_mbe,
            compares: valid.saturating_sub(1) as u32,
        })
    }

    /// Removes a serviced load, keeping the rest in priority order.
    pub(crate) fn remove_load(&mut self, id: OpId) {
        if let Some(at) = self.loads.iter().position(|e| e.op.id == id) {
            self.loads.remove(at);
        }
    }

    /// Removes and returns the serviced MBE.
    pub(crate) fn take_mbe(&mut self) -> Option<MemOp> {
        self.mbe.take().map(|e| e.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_types::addr::VAddr;
    use proptest::prelude::*;

    fn ld(id: u64, addr: u64) -> (MemOp, VPageId) {
        let op = MemOp::load(OpId(id), VAddr::new(addr), 4);
        (op, VPageId::new(addr >> 12))
    }

    /// One cycle's group with its member loads collected.
    struct GroupSelection {
        vpage: VPageId,
        loads: Vec<MemOp>,
        include_mbe: bool,
        compares: u32,
    }

    fn select(ib: &InputBuffer) -> Option<GroupSelection> {
        let mut members = Vec::new();
        let meta = ib.select_into(&mut members)?;
        Some(GroupSelection {
            vpage: meta.vpage,
            loads: members.into_iter().map(|e| e.op).collect(),
            include_mbe: meta.include_mbe,
            compares: meta.compares,
        })
    }

    #[test]
    fn capacity_enforced() {
        let mut ib = InputBuffer::new(2);
        let (a, pa) = ld(0, 0x1000);
        let (b, pb) = ld(1, 0x2000);
        let (c, pc) = ld(2, 0x3000);
        assert!(ib.push_load(a, pa, 0));
        assert!(ib.push_load(b, pb, 0));
        assert!(!ib.push_load(c, pc, 0), "full buffer rejects (AGU stall)");
        assert_eq!(ib.len(), 2);
    }

    #[test]
    fn oldest_load_leads_group() {
        let mut ib = InputBuffer::new(7);
        let (a, pa) = ld(5, 0x2000); // arrives cycle 1
        let (b, pb) = ld(9, 0x1000); // arrives cycle 0 => older
        ib.push_load(b, pb, 0);
        ib.push_load(a, pa, 1);
        let g = select(&ib).expect("group");
        assert_eq!(g.vpage, VPageId::new(1));
        assert_eq!(g.loads[0].id, OpId(9));
    }

    #[test]
    fn same_cycle_ties_break_by_program_order() {
        let mut ib = InputBuffer::new(7);
        let (a, pa) = ld(7, 0x1000);
        let (b, pb) = ld(3, 0x2000);
        ib.push_load(a, pa, 0);
        ib.push_load(b, pb, 0);
        let g = select(&ib).expect("group");
        assert_eq!(g.loads[0].id, OpId(3), "lower id = older in program order");
        assert_eq!(g.vpage, VPageId::new(2));
    }

    #[test]
    fn group_collects_same_page_and_counts_compares() {
        let mut ib = InputBuffer::new(7);
        for (i, addr) in [0x1000u64, 0x1040, 0x2000, 0x1080].iter().enumerate() {
            let (op, vp) = ld(i as u64, *addr);
            ib.push_load(op, vp, 0);
        }
        let g = select(&ib).expect("group");
        assert_eq!(g.loads.len(), 3);
        assert_eq!(g.compares, 3, "three other valid entries compared");
        assert!(!g.include_mbe);
    }

    #[test]
    fn mbe_only_selected_when_no_loads_or_same_page() {
        let mut ib = InputBuffer::new(7);
        let mbe = MemOp::merge_evict(OpId(100), VAddr::new(0x5000), 16);
        assert!(ib.set_mbe(mbe, VPageId::new(5), 0));
        assert!(!ib.set_mbe(mbe, VPageId::new(5), 0), "one MBE slot");

        // Alone: the MBE leads.
        let g = select(&ib).expect("group");
        assert!(g.include_mbe);
        assert!(g.loads.is_empty());

        // With a load on another page: the load leads, MBE excluded.
        let (a, pa) = ld(0, 0x1000);
        ib.push_load(a, pa, 1);
        let g = select(&ib).expect("group");
        assert_eq!(g.vpage, VPageId::new(1));
        assert!(!g.include_mbe);

        // With a load on the MBE's page: both serviced together.
        let (b, pb) = ld(1, 0x5040);
        ib.push_load(b, pb, 1);
        ib.remove_load(OpId(0));
        let g = select(&ib).expect("group");
        assert_eq!(g.vpage, VPageId::new(5));
        assert!(g.include_mbe);
    }

    #[test]
    fn remove_and_take() {
        let mut ib = InputBuffer::new(7);
        let (a, pa) = ld(0, 0x1000);
        ib.push_load(a, pa, 0);
        let mbe = MemOp::merge_evict(OpId(50), VAddr::new(0x1000), 16);
        ib.set_mbe(mbe, pa, 0);
        ib.remove_load(OpId(0));
        assert_eq!(ib.len(), 0);
        assert_eq!(ib.take_mbe().map(|m| m.id), Some(OpId(50)));
        assert!(ib.is_empty());
        assert!(select(&ib).is_none());
    }
    /// The Input Buffer as it was before it kept its loads in priority
    /// order: appended as offered, the leader found by a minimum over
    /// (arrival, id), the group filtered and then sorted.
    struct ModelInputBuffer {
        loads: Vec<IbEntry>,
        mbe: Option<IbEntry>,
        load_cap: usize,
    }

    impl ModelInputBuffer {
        fn push_load(&mut self, op: MemOp, vpage: VPageId, cycle: u64) -> bool {
            if self.loads.len() >= self.load_cap {
                return false;
            }
            self.loads.push(IbEntry {
                op,
                vpage,
                arrived: cycle,
            });
            true
        }

        fn select_into(&self, members: &mut Vec<IbEntry>) -> Option<GroupMeta> {
            members.clear();
            let leader = self
                .loads
                .iter()
                .min_by_key(|e| (e.arrived, e.op.id))
                .or(self.mbe.as_ref())?;
            let vpage = leader.vpage;
            members.extend(self.loads.iter().filter(|e| e.vpage == vpage).copied());
            members.sort_unstable_by_key(|e| (e.arrived, e.op.id));
            let valid = self.loads.len() + usize::from(self.mbe.is_some());
            Some(GroupMeta {
                vpage,
                include_mbe: self.mbe.as_ref().is_some_and(|m| m.vpage == vpage),
                compares: valid.saturating_sub(1) as u32,
            })
        }

        fn remove_load(&mut self, id: OpId) {
            self.loads.retain(|e| e.op.id != id);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Loads pushed in any (arrival, id) order, removals of present
        /// and absent ids, and MBE arrivals and departures: after every
        /// step the group, its metadata and the occupancy match the
        /// min + filter + sort model. Four pages make shared groups common.
        #[test]
        fn prop_select_matches_min_filter_sort_model(
            cap in 1usize..9,
            ops in proptest::collection::vec((0u8..5, 0u64..6, 0u64..24, 0u64..4), 0..300),
        ) {
            let mut ib = InputBuffer::new(cap);
            let mut model = ModelInputBuffer { loads: Vec::new(), mbe: None, load_cap: cap };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (kind, cycle, id, page) in ops {
                let vpage = VPageId::new(page);
                let op = MemOp::load(OpId(id), VAddr::new((page << 12) | (id * 8)), 4);
                match kind {
                    // The core offers a load once while it is buffered.
                    0 | 1 if model.loads.iter().all(|e| e.op.id != op.id) => {
                        prop_assert_eq!(
                            ib.push_load(op, vpage, cycle),
                            model.push_load(op, vpage, cycle)
                        );
                    }
                    0 | 1 => {}
                    2 => {
                        ib.remove_load(op.id);
                        model.remove_load(op.id);
                    }
                    3 => {
                        let mbe = MemOp::merge_evict(OpId(100 + id), op.vaddr, 16);
                        let set = ib.set_mbe(mbe, vpage, cycle);
                        prop_assert_eq!(set, model.mbe.is_none());
                        model.mbe.get_or_insert(IbEntry { op: mbe, vpage, arrived: cycle });
                    }
                    _ => prop_assert_eq!(ib.take_mbe(), model.mbe.take().map(|e| e.op)),
                }
                prop_assert_eq!(ib.select_into(&mut got), model.select_into(&mut want));
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(ib.len(), model.loads.len());
            }
        }
    }
}
