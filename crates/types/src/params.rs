//! The Table II machine as named constants.
//!
//! The paper simulates one machine and varies only its L1 interface and the
//! Sec. VI ablations, so every value the configurations share is defined
//! here, once, and the simulator reads these constants directly: the core's
//! widths and load queue, the store and merge buffers, the Input Buffer
//! depth, the page geometry, the L2 and DRAM, the address width.
//! [`SimConfig`] keeps only what a configuration varies, and takes its
//! defaults from here. The `paper` bench prints Table II from these
//! constants.
//!
//! [`SimConfig`]: crate::SimConfig

use crate::error::ConfigError;
use crate::geometry::{CacheGeometry, PageGeometry};

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
/// DRAM capacity in bytes (256 MiB): the physical pages the page table maps
/// onto.
pub const DRAM_BYTES: u64 = 256 * 1024 * 1024;
/// DRAM access latency in cycles.
pub const DRAM_LATENCY: u32 = 54;
/// The Table II page geometry: 4 KiB pages of 64 B lines.
pub const PAGE: PageGeometry = valid(PageGeometry::new(PAGE_BYTES, LINE_BYTES));
/// The Table II L1 data cache, the default of [`SimConfig::l1`]: 32 KiB,
/// 4-way, 4 banks, 64 B lines, 128-bit sub-blocks.
///
/// [`SimConfig::l1`]: crate::SimConfig::l1
pub const L1: CacheGeometry = valid(CacheGeometry::new(
    L1_BYTES,
    L1_WAYS,
    L1_BANKS,
    LINE_BYTES,
    SUB_BLOCK_BITS,
));
/// The Table II L2: 1 MiB, 16-way, one bank, 64 B lines.
pub const L2: CacheGeometry = valid(CacheGeometry::new(
    L2_BYTES,
    L2_WAYS,
    1,
    LINE_BYTES,
    SUB_BLOCK_BITS,
));
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

/// A geometry built from the constants above; an invalid one fails the
/// build.
const fn valid<G: Copy>(geometry: Result<G, ConfigError>) -> G {
    match geometry {
        Ok(geometry) => geometry,
        Err(_) => panic!("the Table II geometry is invalid"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_are_consistent() {
        let shape = |g: CacheGeometry| {
            (
                g.total_bytes(),
                g.ways(),
                g.banks(),
                g.line_bytes(),
                g.sub_block_bits(),
            )
        };
        assert_eq!(shape(L1), (32 * 1024, 4, 4, 64, 128));
        assert_eq!(shape(L2), (1024 * 1024, 16, 1, 64, 128));
        assert_eq!((PAGE.page_bytes(), PAGE.line_bytes()), (4096, 64));
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
