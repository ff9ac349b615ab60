//! Table II simulation parameters as named constants.
//!
//! Keeping these in one place makes the `tab2_parameters` bench a direct
//! printout of the values actually used by the simulator, with assertions
//! that the rest of the workspace has not drifted from them.

/// Reorder-buffer entries ("168 ROB entries").
pub const ROB_ENTRIES: u16 = 168;
/// Fetch & dispatch width ("6 element fetch&dispatch-width").
pub const DISPATCH_WIDTH: u8 = 6;
/// Issue width ("8 element issue-width").
pub const ISSUE_WIDTH: u8 = 8;
/// TLB entries.
pub const TLB_ENTRIES: u16 = 64;
/// Micro-TLB entries.
pub const UTLB_ENTRIES: u16 = 16;
/// Load-queue entries.
pub const LQ_ENTRIES: u16 = 40;
/// Store-buffer entries.
pub const SB_ENTRIES: u16 = 24;
/// Merge-buffer entries.
pub const MB_ENTRIES: u16 = 4;
/// Address-space width in bits.
pub const ADDRESS_BITS: u32 = 32;
/// Page size in bytes (4 KiB).
pub const PAGE_BYTES: u64 = 4096;
/// L1 data cache capacity in bytes (32 KiB).
pub const L1_BYTES: u64 = 32 * 1024;
/// L1 hit latency in cycles (baseline variant).
pub const L1_LATENCY: u32 = 2;
/// L1 line size in bytes.
pub const LINE_BYTES: u64 = 64;
/// L1 associativity.
pub const L1_WAYS: u32 = 4;
/// L1 independent banks.
pub const L1_BANKS: u32 = 4;
/// L1 sub-block width in bits.
pub const SUB_BLOCK_BITS: u32 = 128;
/// L2 capacity in bytes (1 MiB).
pub const L2_BYTES: u64 = 1024 * 1024;
/// L2 hit latency in cycles.
pub const L2_LATENCY: u32 = 12;
/// L2 associativity.
pub const L2_WAYS: u32 = 16;
/// DRAM access latency in cycles.
pub const DRAM_LATENCY: u32 = 54;
/// Result buses limiting parallel load results (Fig. 2a shows four).
pub const RESULT_BUSES: u8 = 4;
/// Input-buffer storage for loads held from previous cycles (Sec. IV lists
/// "up to three loads from previous cycles"; the energy discussion sizes the
/// analyzed buffer at storage for two held loads — we keep the timing-side
/// maximum here and size energy separately).
pub const INPUT_BUFFER_HELD_LOADS: u8 = 3;
/// How many entries consecutive to the group leader the arbitration unit
/// compares for same-line merging ("only the three loads consecutive to the
/// initial Input Buffer entry are evaluated").
pub const MERGE_COMPARE_WINDOW: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{CacheGeometry, PageGeometry};

    #[test]
    fn geometry_constants_are_consistent() {
        let l1 = CacheGeometry::paper_l1();
        assert_eq!(l1.total_bytes(), L1_BYTES);
        assert_eq!(l1.ways(), L1_WAYS);
        assert_eq!(l1.banks(), L1_BANKS);
        assert_eq!(l1.line_bytes(), LINE_BYTES);
        assert_eq!(l1.sub_block_bits(), SUB_BLOCK_BITS);
        let l2 = CacheGeometry::paper_l2();
        assert_eq!(l2.total_bytes(), L2_BYTES);
        assert_eq!(l2.ways(), L2_WAYS);
        let page = PageGeometry::default();
        assert_eq!(page.page_bytes(), PAGE_BYTES);
        assert_eq!(page.line_bytes(), LINE_BYTES);
    }

    #[test]
    fn pipeline_constants_match_table2() {
        assert_eq!(ROB_ENTRIES, 168);
        assert_eq!(DISPATCH_WIDTH, 6);
        assert_eq!(ISSUE_WIDTH, 8);
        assert_eq!(TLB_ENTRIES, 64);
        assert_eq!(UTLB_ENTRIES, 16);
        assert_eq!(LQ_ENTRIES, 40);
        assert_eq!(SB_ENTRIES, 24);
        assert_eq!(MB_ENTRIES, 4);
        assert_eq!(L2_LATENCY, 12);
        assert_eq!(DRAM_LATENCY, 54);
    }
}
