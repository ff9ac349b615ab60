//! SRAM / CAM array primitives with per-port scaling.
//!
//! The dynamic model follows the classic decomposition of an SRAM access:
//!
//! * **decode** — address decoding, grows with `log2(rows)`;
//! * **wordline** — driving one row's wordline, grows with the row width;
//! * **bitline + sense** — (dis)charging bitlines and sensing, grows with the
//!   product of column height (`rows`) and the number of bits actually read;
//! * **output** — driving the read data out.
//!
//! Multi-porting replicates wordlines/bitlines per cell, so each extra port
//! multiplies cell capacitance: dynamic energy per access scales by
//! `1 + PORT_DYN_SLOPE * (ports - 1)` and leakage (transistor count and wire
//! overhead) by `1 + PORT_LEAK_SLOPE * (ports - 1)`. The leakage slope is
//! calibrated to the paper's "the additional rd port increases L1 leakage by
//! 80 %" (Sec. VI-C).

use malec_types::PortConfig;

// The 32 nm calibration that stands in for the paper's CACTI 6.5 numbers
// (low dynamic power objective, low-standby-power cells, high-performance
// peripherals — Table II). All energies are in consistent arbitrary units
// (≈ pJ at 32 nm); leakage is in the same unit per cycle. The values
// reproduce the CACTI-derived ratios quoted in the paper (see crate docs).

/// Decoder energy coefficient (× `log2(rows) × rows / 64`); the
/// rows-proportional factor captures the larger predecoders and longer
/// select wires of taller arrays.
const C_DECODE: f64 = 0.08;
/// Energy per (row × read-bit) unit of bitline swing, divided by 1024 to
/// keep magnitudes sane.
const C_BITLINE: f64 = 0.55;
/// I/O energy per read bit, scaled by `sqrt(total_bits)/1024`: bigger
/// arrays drive longer output wires (H-tree), so moving a bit out of a
/// 32 KiB macro costs far more than out of a 256 B buffer.
const C_IO: f64 = 0.15;
/// Energy per compared bit per entry of a CAM search (match lines).
pub(crate) const C_CAM: f64 = 0.002;
/// Write energy multiplier relative to a read of the same width.
const WRITE_FACTOR: f64 = 1.15;
/// Leakage per bit of storage, per cycle.
const LEAK_PER_BIT: f64 = 3.2e-5;
/// Dynamic-energy slope per extra port.
const PORT_DYN_SLOPE: f64 = 0.45;
/// Leakage slope per extra port (0.8 ⇒ +80 % per extra port).
const PORT_LEAK_SLOPE: f64 = 0.8;

fn log2_ceil(v: u64) -> f64 {
    if v <= 1 {
        1.0
    } else {
        (v as f64).log2().ceil()
    }
}

/// A RAM-style SRAM array (decoded row access).
///
/// # Example
///
/// ```
/// use malec_energy::sram::SramArray;
/// use malec_types::PortConfig;
///
/// // One L1 data way: 32 rows of 512-bit lines, single-ported.
/// let way = SramArray::new(32, 512, PortConfig::SINGLE);
/// let full = way.read_energy(512);
/// let sub = way.read_energy(128);
/// assert!(sub < full);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct SramArray {
    rows: u64,
    row_bits: u64,
    ports: PortConfig,
}

impl SramArray {
    /// Creates an array of `rows` rows, each `row_bits` wide.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `row_bits` is zero — structure geometry is a
    /// compile-time-style invariant in this workspace, not user input.
    pub fn new(rows: u64, row_bits: u64, ports: PortConfig) -> Self {
        assert!(rows > 0 && row_bits > 0, "SRAM array must have bits");
        Self {
            rows,
            row_bits,
            ports,
        }
    }

    /// Total storage bits.
    pub(crate) const fn bits(&self) -> u64 {
        self.rows * self.row_bits
    }

    fn port_dyn_factor(&self) -> f64 {
        1.0 + PORT_DYN_SLOPE * f64::from(self.ports.total().saturating_sub(1))
    }

    fn port_leak_factor(&self) -> f64 {
        1.0 + PORT_LEAK_SLOPE * f64::from(self.ports.total().saturating_sub(1))
    }

    /// Dynamic energy of reading `bits_read` bits from one row.
    ///
    /// `bits_read` is clamped to the row width; sub-blocked data arrays pass
    /// the activated sub-block width here.
    pub fn read_energy(&self, bits_read: u64) -> f64 {
        let bits_read = bits_read.min(self.row_bits) as f64;
        let decode = C_DECODE * log2_ceil(self.rows) * (self.rows as f64) / 64.0;
        let bitline = C_BITLINE * (self.rows as f64) * bits_read / 1024.0;
        let io = C_IO * bits_read * (self.bits() as f64).sqrt() / 1024.0;
        (decode + bitline + io) * self.port_dyn_factor()
    }

    /// Dynamic energy of writing `bits_written` bits into one row.
    pub(crate) fn write_energy(&self, bits_written: u64) -> f64 {
        self.read_energy(bits_written) * WRITE_FACTOR
    }

    /// Leakage energy per cycle of the whole array.
    pub(crate) fn leakage_per_cycle(&self) -> f64 {
        LEAK_PER_BIT * (self.bits() as f64) * self.port_leak_factor()
    }
}

/// A fully-associative CAM tag array (parallel compare of every entry),
/// optionally paired with a RAM payload that a hit reads out.
///
/// Used for the uTLB/TLB lookup structures (20-bit page-wide tags for 4 KiB
/// pages in a 32-bit space) and for the WDU's line-granularity tags. Reverse
/// (physical) lookups are modelled as a second CAM over the same payload, as
/// the paper prescribes ("uTLB and TLB are treated as two separate fully
/// associative tag-arrays for their uWT/WT data-array", Sec. VI-A).
#[derive(Clone, PartialEq, Debug)]
pub struct CamArray {
    entries: u64,
    tag_bits: u64,
    payload_bits: u64,
    search_ports: u8,
}

impl CamArray {
    /// Creates a CAM of `entries` entries with `tag_bits`-wide tags and an
    /// attached payload RAM of `payload_bits` per entry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `tag_bits` is zero.
    pub(crate) fn new(entries: u64, tag_bits: u64, payload_bits: u64, search_ports: u8) -> Self {
        assert!(
            entries > 0 && tag_bits > 0,
            "CAM must have entries and tags"
        );
        Self {
            entries,
            tag_bits,
            payload_bits,
            search_ports: search_ports.max(1),
        }
    }

    /// Total storage bits (tags + payload).
    pub(crate) const fn bits(&self) -> u64 {
        self.entries * (self.tag_bits + self.payload_bits)
    }

    fn port_dyn_factor(&self) -> f64 {
        1.0 + PORT_DYN_SLOPE * f64::from(self.search_ports - 1)
    }

    fn port_leak_factor(&self) -> f64 {
        1.0 + PORT_LEAK_SLOPE * f64::from(self.search_ports - 1)
    }

    /// Dynamic energy of one associative search including reading the
    /// payload of the hit entry.
    pub(crate) fn search_energy(&self) -> f64 {
        let match_lines = C_CAM * (self.entries as f64) * (self.tag_bits as f64);
        let payload =
            C_IO * (self.payload_bits as f64) * (self.bits().max(1) as f64).sqrt() / 1024.0;
        (match_lines + payload) * self.port_dyn_factor()
    }

    /// Dynamic energy of one associative search that only compares tags
    /// (e.g. a reverse lookup that misses, or a pure presence check).
    pub(crate) fn search_tags_only_energy(&self) -> f64 {
        C_CAM * (self.entries as f64) * (self.tag_bits as f64) * self.port_dyn_factor()
    }

    /// Dynamic energy of installing/overwriting one entry (tag + payload).
    pub(crate) fn write_energy(&self) -> f64 {
        let entry_bits = (self.tag_bits + self.payload_bits) as f64;
        let wires = (self.bits().max(1) as f64).sqrt() / 1024.0;
        C_IO * entry_bits * (1.0 + wires) * WRITE_FACTOR * self.port_dyn_factor()
    }

    /// Leakage energy per cycle of the whole structure.
    pub(crate) fn leakage_per_cycle(&self) -> f64 {
        LEAK_PER_BIT * (self.bits() as f64) * self.port_leak_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn single() -> PortConfig {
        PortConfig::SINGLE
    }

    fn dual_read() -> PortConfig {
        PortConfig { rw: 1, rd: 1 }
    }

    #[test]
    fn extra_port_adds_80_percent_leakage() {
        let sp = SramArray::new(32, 512, single());
        let dp = SramArray::new(32, 512, dual_read());
        let ratio = dp.leakage_per_cycle() / sp.leakage_per_cycle();
        assert!((ratio - 1.8).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn extra_port_increases_dynamic_energy() {
        let sp = SramArray::new(32, 512, single());
        let dp = SramArray::new(32, 512, dual_read());
        assert!(dp.read_energy(512) > sp.read_energy(512));
    }

    #[test]
    fn subblock_read_is_cheaper() {
        let way = SramArray::new(32, 512, single());
        assert!(way.read_energy(128) < way.read_energy(512));
        assert!(way.read_energy(256) < 0.6 * way.read_energy(512));
    }

    #[test]
    fn write_costs_more_than_read() {
        let a = SramArray::new(64, 128, single());
        assert!(a.write_energy(128) > a.read_energy(128));
    }

    #[test]
    fn bigger_cam_costs_more() {
        let small = CamArray::new(16, 20, 20, 1);
        let big = CamArray::new(64, 20, 20, 1);
        assert!(big.search_energy() > small.search_energy());
        assert!(big.leakage_per_cycle() > small.leakage_per_cycle());
    }

    #[test]
    fn cam_tags_only_is_cheaper_than_full_search() {
        let c = CamArray::new(64, 20, 148, 1);
        assert!(c.search_tags_only_energy() < c.search_energy());
    }

    #[test]
    fn four_ported_wdu_lookup_expensive() {
        let wdu1 = CamArray::new(16, 26, 3, 1);
        let wdu4 = CamArray::new(16, 26, 3, 4);
        let ratio = wdu4.search_energy() / wdu1.search_energy();
        assert!(ratio > 2.0, "4-port CAM should cost > 2x: {ratio}");
    }

    #[test]
    fn wt_entry_format_saves_a_third_of_leakage() {
        // 128-bit combined validity+way format vs naive 192-bit format
        // (Sec. V): leakage scales with bits, so the saving is exactly 1/3.
        let combined = SramArray::new(64, 128, single());
        let naive = SramArray::new(64, 192, single());
        let saving = 1.0 - combined.leakage_per_cycle() / naive.leakage_per_cycle();
        assert!((saving - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "SRAM array must have bits")]
    fn zero_rows_panics() {
        let _ = SramArray::new(0, 8, single());
    }

    proptest! {
        #[test]
        fn prop_read_energy_monotonic_in_bits(bits in 1u64..512) {
            let way = SramArray::new(32, 512, single());
            prop_assert!(way.read_energy(bits) <= way.read_energy(bits + 1) + 1e-12);
        }

        #[test]
        fn prop_energy_positive(rows in 1u64..4096, row_bits in 1u64..2048) {
            let a = SramArray::new(rows, row_bits, single());
            prop_assert!(a.read_energy(row_bits) > 0.0);
            prop_assert!(a.write_energy(row_bits) > 0.0);
            prop_assert!(a.leakage_per_cycle() > 0.0);
        }

        #[test]
        fn prop_bits_read_clamped(extra in 0u64..10_000) {
            let a = SramArray::new(16, 64, single());
            prop_assert!((a.read_energy(64 + extra) - a.read_energy(64)).abs() < 1e-12);
        }
    }
}
