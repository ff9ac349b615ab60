//! The event ledger filled by the timing simulation.
//!
//! Counters record *array activations*, not architectural events: a
//! conventional read of one 4-way bank records one tag-bank access (all four
//! ways' tags are compared in parallel) and `4 × sub_blocks` data-way
//! sub-block activations, while a reduced (way-determined) access records
//! zero tag accesses and `1 × sub_blocks` activations. The energy model then
//! prices each activation.

use serde::{Deserialize, Serialize};

/// Counts of energy-relevant events accumulated during a simulation run.
///
/// # Example
///
/// ```
/// use malec_energy::EnergyCounters;
///
/// let mut c = EnergyCounters::default();
/// c.l1_conventional_read(4, 1);
/// c.l1_reduced_read(2);
/// assert_eq!(c.l1_tag_bank_reads, 1);
/// assert_eq!(c.l1_data_subblock_reads, 4 + 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct EnergyCounters {
    /// Tag-array lookups, one per bank access that compares all ways.
    pub l1_tag_bank_reads: u64,
    /// Data-array sub-block activations for reads (ways × sub-blocks).
    pub l1_data_subblock_reads: u64,
    /// Data-array sub-block activations for writes.
    pub l1_data_subblock_writes: u64,
    /// Tag-array updates (line fill or eviction bookkeeping).
    pub l1_tag_bank_writes: u64,
    /// uTLB associative lookups (virtual tags).
    pub utlb_lookups: u64,
    /// uTLB entry installs.
    pub utlb_fills: u64,
    /// uTLB reverse (physical-tag) lookups for WT validity maintenance.
    pub utlb_reverse_lookups: u64,
    /// TLB associative lookups.
    pub tlb_lookups: u64,
    /// TLB entry installs.
    pub tlb_fills: u64,
    /// TLB reverse (physical-tag) lookups.
    pub tlb_reverse_lookups: u64,
    /// Micro way-table way-info reads (2 bits × banks per evaluation; the
    /// cost is independent of how many references the entry services).
    pub uwt_reads: u64,
    /// Micro way-table full-entry writes (fills from the WT).
    pub uwt_writes: u64,
    /// Micro way-table 2-bit slot updates (validity maintenance, last-entry
    /// feedback).
    pub uwt_bit_updates: u64,
    /// Way-table way-info reads.
    pub wt_reads: u64,
    /// Way-table full-entry writes (uWT eviction sync, entry invalidation).
    pub wt_writes: u64,
    /// Way-table 2-bit slot updates (fill/eviction validity maintenance).
    pub wt_bit_updates: u64,
    /// WDU associative lookups (line-granularity tags, multi-ported).
    pub wdu_lookups: u64,
    /// WDU entry installs/updates.
    pub wdu_writes: u64,
    /// Store-buffer lookups using a full-width address comparator.
    pub sb_lookups_full: u64,
    /// Store-buffer page-segment lookups (shared once per page group).
    pub sb_lookups_page_segment: u64,
    /// Store-buffer narrow in-page comparisons (per access in a group).
    pub sb_lookups_narrow: u64,
    /// Merge-buffer lookups using a full-width address comparator.
    pub mb_lookups_full: u64,
    /// Merge-buffer page-segment lookups.
    pub mb_lookups_page_segment: u64,
    /// Merge-buffer narrow in-page comparisons.
    pub mb_lookups_narrow: u64,
    /// Input-buffer 20-bit vPageID comparisons.
    pub input_buffer_compares: u64,
    /// Arbitration-unit narrow same-line comparisons.
    pub arbitration_compares: u64,
}

impl EnergyCounters {
    /// Creates an all-zero ledger (same as `default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a conventional cache access: all `ways` tag comparisons in
    /// one bank plus `ways × sub_blocks` data-array activations.
    #[inline]
    pub fn l1_conventional_read(&mut self, ways: u32, sub_blocks: u32) {
        self.l1_tag_bank_reads += 1;
        self.l1_data_subblock_reads += u64::from(ways) * u64::from(sub_blocks);
    }

    /// Records a reduced cache access (way known and valid): the tag arrays
    /// are bypassed and only one way's `sub_blocks` are activated.
    #[inline]
    pub fn l1_reduced_read(&mut self, sub_blocks: u32) {
        self.l1_data_subblock_reads += u64::from(sub_blocks);
    }

    /// Records a cache write of `sub_blocks` sub-blocks (tag check + data
    /// write into the hit way).
    #[inline]
    pub fn l1_write(&mut self, sub_blocks: u32) {
        self.l1_tag_bank_reads += 1;
        self.l1_data_subblock_writes += u64::from(sub_blocks);
    }

    /// Records a reduced cache write (way known and valid): tag arrays
    /// bypassed.
    #[inline]
    pub fn l1_reduced_write(&mut self, sub_blocks: u32) {
        self.l1_data_subblock_writes += u64::from(sub_blocks);
    }

    /// Records a line fill (written as whole-line data write + tag update).
    #[inline]
    pub fn l1_line_fill(&mut self, sub_blocks_per_line: u32) {
        self.l1_tag_bank_writes += 1;
        self.l1_data_subblock_writes += u64::from(sub_blocks_per_line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_vs_reduced_read() {
        let mut c = EnergyCounters::new();
        c.l1_conventional_read(4, 2);
        assert_eq!(c.l1_tag_bank_reads, 1);
        assert_eq!(c.l1_data_subblock_reads, 8);
        c.l1_reduced_read(2);
        assert_eq!(c.l1_tag_bank_reads, 1);
        assert_eq!(c.l1_data_subblock_reads, 10);
    }

    #[test]
    fn writes_and_fills() {
        let mut c = EnergyCounters::new();
        c.l1_write(1);
        assert_eq!(c.l1_tag_bank_reads, 1);
        assert_eq!(c.l1_data_subblock_writes, 1);
        c.l1_reduced_write(1);
        assert_eq!(c.l1_tag_bank_reads, 1);
        assert_eq!(c.l1_data_subblock_writes, 2);
        c.l1_line_fill(4);
        assert_eq!(c.l1_tag_bank_writes, 1);
        assert_eq!(c.l1_data_subblock_writes, 6);
    }
}
