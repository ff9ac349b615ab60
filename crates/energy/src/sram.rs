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
//! `1 + port_dyn_slope * (ports - 1)` and leakage (transistor count and wire
//! overhead) by `1 + port_leak_slope * (ports - 1)`. The leakage slope is
//! calibrated to the paper's "the additional rd port increases L1 leakage by
//! 80 %" (Sec. VI-C).

use serde::{Deserialize, Serialize};

use malec_types::PortConfig;

/// Technology/calibration constants of the analytical model.
///
/// All energies are in consistent arbitrary units (≈ pJ at 32 nm); leakage
/// is in the same unit per cycle. Defaults are calibrated to reproduce the
/// CACTI-derived ratios quoted in the paper (see crate docs).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct SramParams {
    /// Decoder energy coefficient (× `log2(rows) × rows / 64`); the
    /// rows-proportional factor captures the larger predecoders and longer
    /// select wires of taller arrays.
    pub c_decode: f64,
    /// Energy per (row × read-bit) unit of bitline swing, divided by 1024 to
    /// keep magnitudes sane.
    pub c_bitline: f64,
    /// I/O energy per read bit, scaled by `sqrt(total_bits)/1024`: bigger
    /// arrays drive longer output wires (H-tree), so moving a bit out of a
    /// 32 KiB macro costs far more than out of a 256 B buffer.
    pub c_io: f64,
    /// Energy per compared bit per entry of a CAM search (match lines).
    pub c_cam: f64,
    /// Write energy multiplier relative to a read of the same width.
    pub write_factor: f64,
    /// Leakage per bit of storage, per cycle.
    pub leak_per_bit: f64,
    /// Dynamic-energy slope per extra port.
    pub port_dyn_slope: f64,
    /// Leakage slope per extra port (0.8 ⇒ +80 % per extra port).
    pub port_leak_slope: f64,
}

impl SramParams {
    /// Calibrated 32 nm-like defaults (low dynamic power objective,
    /// low-standby-power cells, high-performance peripherals — Table II).
    const fn paper_32nm() -> Self {
        Self {
            c_decode: 0.08,
            c_bitline: 0.55,
            c_io: 0.15,
            c_cam: 0.002,
            write_factor: 1.15,
            leak_per_bit: 3.2e-5,
            port_dyn_slope: 0.45,
            port_leak_slope: 0.8,
        }
    }
}

impl Default for SramParams {
    fn default() -> Self {
        Self::paper_32nm()
    }
}

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
/// use malec_energy::sram::{SramArray, SramParams};
/// use malec_types::PortConfig;
///
/// // One L1 data way: 32 rows of 512-bit lines, single-ported.
/// let way = SramArray::new("l1-data-way", 32, 512, PortConfig::SINGLE, SramParams::default());
/// let full = way.read_energy(512);
/// let sub = way.read_energy(128);
/// assert!(sub < full);
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SramArray {
    name: &'static str,
    rows: u64,
    row_bits: u64,
    ports: PortConfig,
    params: SramParams,
}

impl SramArray {
    /// Creates an array of `rows` rows, each `row_bits` wide.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `row_bits` is zero — structure geometry is a
    /// compile-time-style invariant in this workspace, not user input.
    pub fn new(
        name: &'static str,
        rows: u64,
        row_bits: u64,
        ports: PortConfig,
        params: SramParams,
    ) -> Self {
        assert!(rows > 0 && row_bits > 0, "SRAM array must have bits");
        Self {
            name,
            rows,
            row_bits,
            ports,
            params,
        }
    }

    /// Structure name (for report breakdowns).
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Total storage bits.
    pub const fn bits(&self) -> u64 {
        self.rows * self.row_bits
    }

    /// Port configuration.
    pub const fn ports(&self) -> PortConfig {
        self.ports
    }

    fn port_dyn_factor(&self) -> f64 {
        1.0 + self.params.port_dyn_slope * f64::from(self.ports.total().saturating_sub(1))
    }

    fn port_leak_factor(&self) -> f64 {
        1.0 + self.params.port_leak_slope * f64::from(self.ports.total().saturating_sub(1))
    }

    /// Dynamic energy of reading `bits_read` bits from one row.
    ///
    /// `bits_read` is clamped to the row width; sub-blocked data arrays pass
    /// the activated sub-block width here.
    pub fn read_energy(&self, bits_read: u64) -> f64 {
        let bits_read = bits_read.min(self.row_bits) as f64;
        let p = &self.params;
        let decode = p.c_decode * log2_ceil(self.rows) * (self.rows as f64) / 64.0;
        let bitline = p.c_bitline * (self.rows as f64) * bits_read / 1024.0;
        let io = p.c_io * bits_read * (self.bits() as f64).sqrt() / 1024.0;
        (decode + bitline + io) * self.port_dyn_factor()
    }

    /// Dynamic energy of writing `bits_written` bits into one row.
    pub fn write_energy(&self, bits_written: u64) -> f64 {
        self.read_energy(bits_written) * self.params.write_factor
    }

    /// Leakage energy per cycle of the whole array.
    pub fn leakage_per_cycle(&self) -> f64 {
        self.params.leak_per_bit * (self.bits() as f64) * self.port_leak_factor()
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
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct CamArray {
    name: &'static str,
    entries: u64,
    tag_bits: u64,
    payload_bits: u64,
    search_ports: u8,
    params: SramParams,
}

impl CamArray {
    /// Creates a CAM of `entries` entries with `tag_bits`-wide tags and an
    /// attached payload RAM of `payload_bits` per entry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `tag_bits` is zero.
    pub fn new(
        name: &'static str,
        entries: u64,
        tag_bits: u64,
        payload_bits: u64,
        search_ports: u8,
        params: SramParams,
    ) -> Self {
        assert!(
            entries > 0 && tag_bits > 0,
            "CAM must have entries and tags"
        );
        Self {
            name,
            entries,
            tag_bits,
            payload_bits,
            search_ports: search_ports.max(1),
            params,
        }
    }

    /// Structure name (for report breakdowns).
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Total storage bits (tags + payload).
    pub const fn bits(&self) -> u64 {
        self.entries * (self.tag_bits + self.payload_bits)
    }

    fn port_dyn_factor(&self) -> f64 {
        1.0 + self.params.port_dyn_slope * f64::from(self.search_ports - 1)
    }

    fn port_leak_factor(&self) -> f64 {
        1.0 + self.params.port_leak_slope * f64::from(self.search_ports - 1)
    }

    /// Dynamic energy of one associative search including reading the
    /// payload of the hit entry.
    pub fn search_energy(&self) -> f64 {
        let p = &self.params;
        let match_lines = p.c_cam * (self.entries as f64) * (self.tag_bits as f64);
        let payload =
            p.c_io * (self.payload_bits as f64) * (self.bits().max(1) as f64).sqrt() / 1024.0;
        (match_lines + payload) * self.port_dyn_factor()
    }

    /// Dynamic energy of one associative search that only compares tags
    /// (e.g. a reverse lookup that misses, or a pure presence check).
    pub fn search_tags_only_energy(&self) -> f64 {
        let p = &self.params;
        p.c_cam * (self.entries as f64) * (self.tag_bits as f64) * self.port_dyn_factor()
    }

    /// Dynamic energy of installing/overwriting one entry (tag + payload).
    pub fn write_energy(&self) -> f64 {
        let p = &self.params;
        let entry_bits = (self.tag_bits + self.payload_bits) as f64;
        let wires = (self.bits().max(1) as f64).sqrt() / 1024.0;
        p.c_io * entry_bits * (1.0 + wires) * p.write_factor * self.port_dyn_factor()
    }

    /// Leakage energy per cycle of the whole structure.
    pub fn leakage_per_cycle(&self) -> f64 {
        self.params.leak_per_bit * (self.bits() as f64) * self.port_leak_factor()
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
        PortConfig {
            rw: 1,
            rd: 1,
            wr: 0,
        }
    }

    #[test]
    fn extra_port_adds_80_percent_leakage() {
        let p = SramParams::default();
        let sp = SramArray::new("a", 32, 512, single(), p);
        let dp = SramArray::new("a", 32, 512, dual_read(), p);
        let ratio = dp.leakage_per_cycle() / sp.leakage_per_cycle();
        assert!((ratio - 1.8).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn extra_port_increases_dynamic_energy() {
        let p = SramParams::default();
        let sp = SramArray::new("a", 32, 512, single(), p);
        let dp = SramArray::new("a", 32, 512, dual_read(), p);
        assert!(dp.read_energy(512) > sp.read_energy(512));
    }

    #[test]
    fn subblock_read_is_cheaper() {
        let way = SramArray::new("w", 32, 512, single(), SramParams::default());
        assert!(way.read_energy(128) < way.read_energy(512));
        assert!(way.read_energy(256) < 0.6 * way.read_energy(512));
    }

    #[test]
    fn write_costs_more_than_read() {
        let a = SramArray::new("w", 64, 128, single(), SramParams::default());
        assert!(a.write_energy(128) > a.read_energy(128));
    }

    #[test]
    fn bigger_cam_costs_more() {
        let p = SramParams::default();
        let small = CamArray::new("c", 16, 20, 20, 1, p);
        let big = CamArray::new("c", 64, 20, 20, 1, p);
        assert!(big.search_energy() > small.search_energy());
        assert!(big.leakage_per_cycle() > small.leakage_per_cycle());
    }

    #[test]
    fn cam_tags_only_is_cheaper_than_full_search() {
        let c = CamArray::new("c", 64, 20, 148, 1, SramParams::default());
        assert!(c.search_tags_only_energy() < c.search_energy());
    }

    #[test]
    fn four_ported_wdu_lookup_expensive() {
        let p = SramParams::default();
        let wdu1 = CamArray::new("wdu", 16, 26, 3, 1, p);
        let wdu4 = CamArray::new("wdu", 16, 26, 3, 4, p);
        let ratio = wdu4.search_energy() / wdu1.search_energy();
        assert!(ratio > 2.0, "4-port CAM should cost > 2x: {ratio}");
    }

    #[test]
    fn wt_entry_format_saves_a_third_of_leakage() {
        // 128-bit combined validity+way format vs naive 192-bit format
        // (Sec. V): leakage scales with bits, so the saving is exactly 1/3.
        let p = SramParams::default();
        let combined = SramArray::new("wt", 64, 128, single(), p);
        let naive = SramArray::new("wt", 64, 192, single(), p);
        let saving = 1.0 - combined.leakage_per_cycle() / naive.leakage_per_cycle();
        assert!((saving - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "SRAM array must have bits")]
    fn zero_rows_panics() {
        let _ = SramArray::new("z", 0, 8, single(), SramParams::default());
    }

    proptest! {
        #[test]
        fn prop_read_energy_monotonic_in_bits(bits in 1u64..512) {
            let way = SramArray::new("w", 32, 512, single(), SramParams::default());
            prop_assert!(way.read_energy(bits) <= way.read_energy(bits + 1) + 1e-12);
        }

        #[test]
        fn prop_energy_positive(rows in 1u64..4096, row_bits in 1u64..2048) {
            let a = SramArray::new("a", rows, row_bits, single(), SramParams::default());
            prop_assert!(a.read_energy(row_bits) > 0.0);
            prop_assert!(a.write_energy(row_bits) > 0.0);
            prop_assert!(a.leakage_per_cycle() > 0.0);
        }

        #[test]
        fn prop_bits_read_clamped(extra in 0u64..10_000) {
            let a = SramArray::new("a", 16, 64, single(), SramParams::default());
            prop_assert!((a.read_energy(64 + extra) - a.read_energy(64)).abs() < 1e-12);
        }
    }
}
