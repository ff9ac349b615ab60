//! The trace instruction vocabulary consumed by the CPU model.

use malec_types::addr::VAddr;

/// A backward dependency distance in dynamic instructions (1 = the
/// immediately preceding instruction). Distances larger than the ROB never
/// constrain anything.
pub type DepDistance = u32;

/// One dynamic instruction of a synthetic trace.
///
/// Dependencies are expressed as backward distances, which is all an
/// out-of-order timing model needs: instruction *i* with `dep = d` cannot
/// issue before instruction *i − d* has produced its result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceInst {
    /// A non-memory operation.
    Op {
        /// Execution latency in cycles (1 for simple ALU, 3+ for mul/FP).
        latency: u8,
        /// Backward distance to a producer this op waits on, if any.
        dep: Option<DepDistance>,
    },
    /// A load.
    Load {
        /// Virtual byte address.
        vaddr: VAddr,
        /// Access size in bytes.
        size: u8,
        /// Backward distance to the producer of the address (pointer
        /// chasing serializes through this).
        addr_dep: Option<DepDistance>,
    },
    /// A store.
    Store {
        /// Virtual byte address.
        vaddr: VAddr,
        /// Access size in bytes.
        size: u8,
        /// Backward distance to the producer of the stored data.
        data_dep: Option<DepDistance>,
    },
    /// A branch; a mispredicted branch flushes the front-end.
    Branch {
        /// Whether this dynamic instance was mispredicted.
        mispredicted: bool,
        /// Backward distance to the producer of the condition — branches
        /// frequently test just-loaded values, which couples L1 latency to
        /// front-end stalls.
        dep: Option<DepDistance>,
    },
}

impl TraceInst {
    /// Whether this instruction references memory.
    pub const fn is_mem(&self) -> bool {
        matches!(self, TraceInst::Load { .. } | TraceInst::Store { .. })
    }

    /// Whether this instruction is a load.
    pub const fn is_load(&self) -> bool {
        matches!(self, TraceInst::Load { .. })
    }

    /// Whether this instruction is a store.
    #[cfg(test)]
    pub(crate) const fn is_store(&self) -> bool {
        matches!(self, TraceInst::Store { .. })
    }

    /// The virtual address, for memory instructions.
    pub const fn vaddr(&self) -> Option<VAddr> {
        match self {
            TraceInst::Load { vaddr, .. } | TraceInst::Store { vaddr, .. } => Some(*vaddr),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        let ld = TraceInst::Load {
            vaddr: VAddr::new(0x10),
            size: 4,
            addr_dep: None,
        };
        let st = TraceInst::Store {
            vaddr: VAddr::new(0x20),
            size: 4,
            data_dep: Some(2),
        };
        let op = TraceInst::Op {
            latency: 1,
            dep: None,
        };
        let br = TraceInst::Branch {
            mispredicted: false,
            dep: None,
        };
        assert!(ld.is_mem() && ld.is_load() && !ld.is_store());
        assert!(st.is_mem() && st.is_store() && !st.is_load());
        assert!(!op.is_mem() && !br.is_mem());
        assert_eq!(ld.vaddr(), Some(VAddr::new(0x10)));
        assert_eq!(op.vaddr(), None);
    }
}
