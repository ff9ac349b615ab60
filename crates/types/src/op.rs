//! Memory-operation records exchanged between the CPU model and the L1
//! interface implementations.

use serde::{Deserialize, Serialize};

use crate::addr::VAddr;

/// Unique, monotonically increasing identifier of a dynamic memory operation.
///
/// Ids double as program-order priority: a lower id is older and therefore
/// has higher priority in the Input Buffer and the Arbitration Unit.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct OpId(pub u64);

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// The kind of a memory operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MemOpKind {
    /// A load; completion wakes dependent instructions.
    Load,
    /// A store; retires through the store buffer and merge buffer.
    Store,
    /// An evicted merge-buffer entry performing the actual L1 write
    /// (not time critical: the stores it contains already committed).
    MergeBufferEvict,
}

impl MemOpKind {
    /// Whether this operation reads the cache.
    #[inline]
    pub const fn is_load(self) -> bool {
        matches!(self, MemOpKind::Load)
    }
}

/// A dynamic memory operation as seen by the L1 data interface.
///
/// # Example
///
/// ```
/// use malec_types::op::{MemOp, MemOpKind, OpId};
/// use malec_types::addr::VAddr;
///
/// let op = MemOp::load(OpId(7), VAddr::new(0x1000), 8);
/// assert!(op.kind.is_load());
/// assert_eq!(op.size, 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct MemOp {
    /// Program-order identity (lower = older = higher priority).
    pub id: OpId,
    /// Load, store, or merge-buffer eviction.
    pub kind: MemOpKind,
    /// Virtual byte address of the access.
    pub vaddr: VAddr,
    /// Access size in bytes (1..=16; SIMD accesses in the paper are 128-bit).
    pub size: u8,
}

impl MemOp {
    /// Creates a load.
    pub const fn load(id: OpId, vaddr: VAddr, size: u8) -> Self {
        Self {
            id,
            kind: MemOpKind::Load,
            vaddr,
            size,
        }
    }

    /// Creates a store.
    pub const fn store(id: OpId, vaddr: VAddr, size: u8) -> Self {
        Self {
            id,
            kind: MemOpKind::Store,
            vaddr,
            size,
        }
    }

    /// Creates a merge-buffer eviction write.
    pub const fn merge_evict(id: OpId, vaddr: VAddr, size: u8) -> Self {
        Self {
            id,
            kind: MemOpKind::MergeBufferEvict,
            vaddr,
            size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let a = VAddr::new(0x40);
        assert_eq!(MemOp::load(OpId(0), a, 4).kind, MemOpKind::Load);
        assert_eq!(MemOp::store(OpId(1), a, 4).kind, MemOpKind::Store);
        assert_eq!(
            MemOp::merge_evict(OpId(2), a, 16).kind,
            MemOpKind::MergeBufferEvict
        );
    }

    #[test]
    fn kind_predicates() {
        assert!(MemOpKind::Load.is_load());
        assert!(!MemOpKind::Store.is_load());
        assert!(!MemOpKind::MergeBufferEvict.is_load());
    }

    #[test]
    fn op_id_orders_by_age() {
        assert!(OpId(3) < OpId(9));
        assert_eq!(OpId(5).to_string(), "op#5");
    }
}
