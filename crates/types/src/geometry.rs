//! Cache and page geometry: the single source of truth for address slicing.
//!
//! The paper's configuration (Table II) is a 32 KiB, 4-way set-associative,
//! physically indexed / physically tagged L1 data cache split into 4
//! independent single-ported banks, with 64 B lines, 128-bit sub-blocks and
//! 4 KiB pages. Lines are interleaved across banks by low line-address bits
//! ("a cache consisting of four banks may allocate lines 0..3 to separate
//! banks and lines 0, 4, 8, .., 60 to the same bank", Sec. V).
//!
//! Every size here is a power of two: [`PageGeometry::new`] and
//! [`CacheGeometry::new`] reject anything else, and the fields are private,
//! so no other value can be built. Each slicing method relies on that and
//! uses only shifts and masks, never a division, since the simulator
//! slices an address on every L1 lookup and fill.

use serde::{Deserialize, Serialize};

use crate::addr::{BankId, LineAddr, SetIndex, VAddr, VPageId};
use crate::error::ConfigError;

/// Page geometry: page size and cache-line size, from which every
/// page-relative quantity (line-in-page index, page ids) is derived.
///
/// # Example
///
/// ```
/// use malec_types::geometry::PageGeometry;
///
/// let g = PageGeometry::new(4096, 64).expect("valid geometry");
/// assert_eq!(g.lines_per_page(), 64);
/// assert_eq!(g.page_offset_bits(), 12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct PageGeometry {
    page_bytes: u64,
    line_bytes: u64,
}

impl PageGeometry {
    /// Creates a page geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either size is not a power of two, the line
    /// is smaller than 8 bytes, or the page is not larger than the line.
    pub const fn new(page_bytes: u64, line_bytes: u64) -> Result<Self, ConfigError> {
        if !page_bytes.is_power_of_two() {
            return Err(ConfigError::new("page size must be a power of two"));
        }
        if !line_bytes.is_power_of_two() || line_bytes < 8 {
            return Err(ConfigError::new(
                "line size must be a power of two of at least 8 bytes",
            ));
        }
        if page_bytes <= line_bytes {
            return Err(ConfigError::new("page must be larger than a cache line"));
        }
        Ok(Self {
            page_bytes,
            line_bytes,
        })
    }

    /// Page size in bytes.
    #[inline]
    pub const fn page_bytes(self) -> u64 {
        self.page_bytes
    }

    /// Cache-line size in bytes.
    #[inline]
    pub const fn line_bytes(self) -> u64 {
        self.line_bytes
    }

    /// Number of cache lines per page (64 for the paper's 4 KiB / 64 B).
    #[inline]
    pub const fn lines_per_page(self) -> u32 {
        1 << self.line_index_bits()
    }

    /// Number of bits of the line-in-page index (6 for 4 KiB / 64 B).
    #[inline]
    const fn line_index_bits(self) -> u32 {
        self.page_offset_bits() - self.line_offset_bits()
    }

    /// Number of bits of the in-page byte offset (12 for 4 KiB pages).
    #[inline]
    pub const fn page_offset_bits(self) -> u32 {
        self.page_bytes.trailing_zeros()
    }

    /// Number of bits of the in-line byte offset (6 for 64 B lines).
    #[inline]
    pub const fn line_offset_bits(self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// Virtual page id of a virtual address.
    #[inline]
    pub fn vpage_of(self, a: VAddr) -> VPageId {
        VPageId::new(a.raw() >> self.page_offset_bits())
    }

    /// Line-aligned address (physical or virtual raw value).
    #[inline]
    pub fn line_of(self, raw: u64) -> LineAddr {
        LineAddr::new(raw >> self.line_offset_bits())
    }

    /// Index of the line within its page (0..`lines_per_page`).
    #[inline]
    pub fn line_in_page(self, raw: u64) -> u8 {
        ((raw >> self.line_offset_bits()) & u64::from(self.lines_per_page() - 1)) as u8
    }

    /// Page id of a line address (physical or virtual): the line bits above
    /// the line-in-page index.
    #[inline]
    pub fn page_of_line(self, line: LineAddr) -> u64 {
        line.raw() >> self.line_index_bits()
    }

    /// Index of a line address within its page (0..`lines_per_page`).
    #[inline]
    pub fn index_in_page(self, line: LineAddr) -> u8 {
        (line.raw() & u64::from(self.lines_per_page() - 1)) as u8
    }

    /// `line` moved to page `page`, keeping its index within the page.
    #[inline]
    pub fn rebase_line(self, line: LineAddr, page: u64) -> LineAddr {
        let index = line.raw() & u64::from(self.lines_per_page() - 1);
        LineAddr::new((page << self.line_index_bits()) | index)
    }
}

/// Full cache geometry for one cache level.
///
/// For the L1 this additionally models the bank interleaving and 128-bit
/// sub-blocking used by MALEC's arbitration unit.
///
/// # Example
///
/// ```
/// use malec_types::geometry::CacheGeometry;
///
/// let l1 = CacheGeometry::new(32 * 1024, 4, 4, 64, 128).expect("valid geometry");
/// assert_eq!(l1.total_bytes(), 32 * 1024);
/// assert_eq!(l1.banks(), 4);
/// assert_eq!(l1.sets_per_bank(), 32);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct CacheGeometry {
    total_bytes: u64,
    ways: u32,
    banks: u32,
    line_bytes: u64,
    sub_block_bits: u32,
}

impl CacheGeometry {
    /// Creates a cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is not a power of two, the
    /// capacity does not divide evenly into `banks * ways * line` sets, or
    /// the sub-block does not divide the line.
    pub const fn new(
        total_bytes: u64,
        ways: u32,
        banks: u32,
        line_bytes: u64,
        sub_block_bits: u32,
    ) -> Result<Self, ConfigError> {
        if !total_bytes.is_power_of_two()
            || !ways.is_power_of_two()
            || !banks.is_power_of_two()
            || !line_bytes.is_power_of_two()
        {
            return Err(ConfigError::new(
                "cache capacity, ways, banks and line size must be powers of two",
            ));
        }
        let sub_block_bytes = sub_block_bits as u64 / 8;
        if !sub_block_bits.is_multiple_of(8)
            || sub_block_bytes == 0
            || !line_bytes.is_multiple_of(sub_block_bytes)
        {
            return Err(ConfigError::new("sub-block must evenly divide the line"));
        }
        let lines = total_bytes / line_bytes;
        if lines < (ways * banks) as u64 {
            return Err(ConfigError::new(
                "cache too small for requested ways and banks",
            ));
        }
        Ok(Self {
            total_bytes,
            ways,
            banks,
            line_bytes,
            sub_block_bits,
        })
    }

    /// Total capacity in bytes.
    #[inline]
    pub const fn total_bytes(self) -> u64 {
        self.total_bytes
    }

    /// Set associativity.
    #[inline]
    pub const fn ways(self) -> u32 {
        self.ways
    }

    /// Number of independent banks.
    #[inline]
    pub const fn banks(self) -> u32 {
        self.banks
    }

    /// Line size in bytes.
    #[inline]
    pub const fn line_bytes(self) -> u64 {
        self.line_bytes
    }

    /// Sub-block width in bits (128 in the paper).
    #[inline]
    pub const fn sub_block_bits(self) -> u32 {
        self.sub_block_bits
    }

    /// Sub-block width in bytes.
    #[inline]
    pub const fn sub_block_bytes(self) -> u64 {
        self.sub_block_bits as u64 / 8
    }

    /// Number of sub-blocks per line (4 in the paper).
    #[inline]
    pub const fn sub_blocks_per_line(self) -> u32 {
        (self.line_bytes / (self.sub_block_bits as u64 / 8)) as u32
    }

    /// Total number of sets across all banks.
    #[inline]
    pub const fn total_sets(self) -> u32 {
        1 << self.total_set_bits()
    }

    /// log2 of [`total_sets`](Self::total_sets).
    #[inline]
    pub const fn total_set_bits(self) -> u32 {
        self.total_bytes.trailing_zeros()
            - self.line_bytes.trailing_zeros()
            - self.ways.trailing_zeros()
    }

    /// Number of sets per bank.
    #[inline]
    pub const fn sets_per_bank(self) -> u32 {
        1 << self.set_bits()
    }

    /// log2 of [`sets_per_bank`](Self::sets_per_bank): the width of the set
    /// selector above the bank selector.
    #[inline]
    const fn set_bits(self) -> u32 {
        self.total_set_bits() - self.banks.trailing_zeros()
    }

    /// Bank holding `line`: low line-address bits select the bank
    /// (line-interleaved banking, Sec. V).
    #[inline]
    pub fn bank_of_line(self, line: LineAddr) -> BankId {
        BankId((line.raw() & u64::from(self.banks - 1)) as u8)
    }

    /// Set within the bank for `line`: the line-address bits above the bank
    /// selector.
    #[inline]
    pub fn set_of_line(self, line: LineAddr) -> SetIndex {
        let above_bank = line.raw() >> self.banks.trailing_zeros();
        SetIndex((above_bank & u64::from(self.sets_per_bank() - 1)) as u32)
    }

    /// Tag for `line`: the line-address bits above bank and set selectors.
    #[inline]
    pub fn tag_of_line(self, line: LineAddr) -> u64 {
        line.raw() >> self.total_set_bits()
    }

    /// Number of tag bits for a 32-bit physical address space with the given
    /// page geometry (used by the energy model to size tag arrays).
    pub fn tag_bits(self, address_bits: u32) -> u32 {
        let line_bits = self.line_bytes.trailing_zeros();
        let index_bits = self.total_set_bits() + line_bits;
        address_bits.saturating_sub(index_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params;
    use proptest::prelude::*;

    #[test]
    fn default_page_geometry_matches_paper() {
        let g = params::PAGE;
        assert_eq!(g.page_bytes(), 4096);
        assert_eq!(g.line_bytes(), 64);
        assert_eq!(g.lines_per_page(), 64);
        assert_eq!(g.page_offset_bits(), 12);
        assert_eq!(g.line_offset_bits(), 6);
    }

    #[test]
    fn page_geometry_rejects_bad_sizes() {
        assert!(PageGeometry::new(4095, 64).is_err());
        assert!(PageGeometry::new(4096, 48).is_err());
        assert!(PageGeometry::new(4096, 4).is_err());
        assert!(PageGeometry::new(64, 64).is_err());
    }

    #[test]
    fn page_slicing() {
        let g = params::PAGE;
        let a = VAddr::new(0x0001_2fc4);
        assert_eq!(g.vpage_of(a).raw(), 0x12);
        assert_eq!(g.line_in_page(a.raw()), (0xfc4 >> 6) as u8);
        let line = g.line_of(a.raw());
        assert_eq!(g.page_of_line(line), 0x12);
        assert_eq!(g.index_in_page(line), (0xfc4 >> 6) as u8);
        assert_eq!(g.rebase_line(line, 0x34), g.line_of(0x0003_4fc4));
    }

    #[test]
    fn paper_l1_geometry() {
        let l1 = params::L1;
        assert_eq!(l1.total_sets(), 128);
        assert_eq!(l1.sets_per_bank(), 32);
        assert_eq!(l1.sub_blocks_per_line(), 4);
        assert_eq!(l1.sub_block_bytes(), 16);
        // 32-bit address: tag = 32 - (2 bank + 5 set + 6 line) = 19 bits.
        assert_eq!(l1.tag_bits(32), 19);
    }

    #[test]
    fn paper_l2_geometry() {
        let l2 = params::L2;
        assert_eq!(l2.ways(), 16);
        assert_eq!(l2.total_sets(), 1024);
        assert_eq!(l2.sets_per_bank(), 1024);
    }

    #[test]
    fn bank_interleaving_is_by_low_line_bits() {
        let l1 = params::L1;
        for i in 0..16u64 {
            assert_eq!(l1.bank_of_line(LineAddr::new(i)).0, (i % 4) as u8);
        }
        // Lines 0, 4, 8, ... map to the same bank (Sec. V).
        assert_eq!(
            l1.bank_of_line(LineAddr::new(0)),
            l1.bank_of_line(LineAddr::new(60))
        );
    }

    #[test]
    fn rejects_invalid_cache_geometry() {
        assert!(CacheGeometry::new(32 * 1024 + 1, 4, 4, 64, 128).is_err());
        assert!(CacheGeometry::new(32 * 1024, 3, 4, 64, 128).is_err());
        assert!(CacheGeometry::new(32 * 1024, 4, 4, 64, 100).is_err());
        assert!(CacheGeometry::new(512, 4, 4, 64, 128).is_err());
        // Banks must be a power of two too (line interleaving masks them).
        assert!(CacheGeometry::new(32 * 1024, 4, 3, 64, 128).is_err());
    }

    proptest! {
        #[test]
        fn prop_line_decomposition_is_a_partition(raw in 0u64..(1 << 32)) {
            let g = params::PAGE;
            let l1 = params::L1;
            let line = g.line_of(raw);
            let bank = l1.bank_of_line(line);
            let set = l1.set_of_line(line);
            let tag = l1.tag_of_line(line);
            // Reassemble the line address from tag/set/bank.
            let rebuilt = (tag << (5 + 2)) | (u64::from(set.0) << 2) | u64::from(bank.0);
            prop_assert_eq!(rebuilt, line.raw());
        }

        #[test]
        fn prop_same_page_same_vpage(base in 0u64..(1u64 << 32), off in 0u64..4096) {
            let g = params::PAGE;
            let page_base = base & !0xfff;
            let a = VAddr::new(page_base);
            let b = VAddr::new(page_base + off);
            prop_assert_eq!(g.vpage_of(a), g.vpage_of(b));
        }

        #[test]
        fn prop_line_in_page_bounds(raw in proptest::num::u64::ANY) {
            let g = params::PAGE;
            prop_assert!(u32::from(g.line_in_page(raw)) < g.lines_per_page());
        }

        /// The shifts and masks agree with the divisions they replace, for
        /// every geometry `new` accepts.
        #[test]
        fn prop_shifts_match_divisions(
            page_bits in 4u32..16,
            line_bits in 3u32..10,
            raw in 0u64..(1 << 40),
            ways_bits in 0u32..5,
            banks_bits in 0u32..4,
            extra_bits in 0u32..6,
        ) {
            if let Ok(g) = PageGeometry::new(1 << page_bits, 1 << line_bits) {
                let lpp = (1u64 << page_bits) / (1u64 << line_bits);
                prop_assert_eq!(u64::from(g.lines_per_page()), lpp);
                let line = LineAddr::new(raw);
                prop_assert_eq!(g.page_of_line(line), raw / lpp);
                prop_assert_eq!(g.index_in_page(line), (raw % lpp) as u8);
                prop_assert_eq!(g.rebase_line(line, 7).raw(), 7 * lpp + raw % lpp);
            }
            let (ways, banks) = (1u32 << ways_bits, 1u32 << banks_bits);
            let total = (64u64 * u64::from(ways * banks)) << extra_bits;
            let c = CacheGeometry::new(total, ways, banks, 64, 128).expect("valid geometry");
            let sets = (total / 64) as u32 / ways;
            prop_assert_eq!(c.total_sets(), sets);
            prop_assert_eq!(c.sets_per_bank(), sets / banks);
            prop_assert_eq!(c.tag_of_line(LineAddr::new(raw)), raw / u64::from(sets));
        }
    }
}
