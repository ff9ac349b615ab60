//! Stable, process-independent key derivation for cache addressing.
//!
//! The `malec-serve` result cache maps one `(SimConfig, workload, seed,
//! horizon)` tuple to one `RunSummary` forever, so its keys must be
//! **stable**: identical across processes, hosts and restarts, and sensitive
//! to every field that can change simulated behavior. `std::hash::Hash` gives
//! neither guarantee (hasher state is allowed to be randomized, and derive
//! order is an implementation detail), so this module provides an explicit
//! alternative:
//!
//! * [`StableHasher`] — FNV-1a over a 128-bit state, fed through typed
//!   `write_*` calls that length-prefix variable-size data (two adjacent
//!   strings can never collide by shifting bytes between them);
//! * [`StableKey`] — the trait a type implements to fold *every*
//!   behavior-relevant field, with explicit discriminant tags for enums so
//!   the key survives reordering of variant declarations.
//!
//! [`SimConfig`] implements [`StableKey`] here; workload types (scenarios,
//! profiles) implement it in `malec-trace`. Changing any encoding is a
//! breaking change for persisted caches — bump the cache's format version
//! when you do.
//!
//! # Example
//!
//! ```
//! use malec_types::stable::{stable_key, StableKey};
//! use malec_types::SimConfig;
//!
//! let a = stable_key(&SimConfig::malec());
//! let b = stable_key(&SimConfig::malec());
//! assert_eq!(a, b, "same config, same key, forever");
//! assert_ne!(a, stable_key(&SimConfig::base1ldst()));
//! ```

use crate::config::{AgwConfig, InterfaceKind, LatencyVariant, SimConfig, WayDetermination};
use crate::geometry::{CacheGeometry, PageGeometry};
use crate::params;

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a 64-bit offset basis.
const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over `words` — the workspace's one stable 64-bit hash, for
/// values that must not change across processes or hosts (a cache-log
/// checksum, a rendezvous score, an address region, a behavioral digest).
/// Each word folds in whole: over bytes this is byte-wise FNV-1a, over
/// `u64`s the word-wise fold the summary and comparison digests use.
///
/// # Example
///
/// ```
/// use malec_types::stable::fnv1a64;
///
/// assert_eq!(fnv1a64(*b""), 0xcbf2_9ce4_8422_2325, "the offset basis");
/// assert_eq!(fnv1a64(*b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a64([u64::from(b'a')]), fnv1a64(*b"a"), "a byte is a small word");
/// ```
pub fn fnv1a64<W: Into<u64>>(words: impl IntoIterator<Item = W>) -> u64 {
    words.into_iter().fold(FNV64_OFFSET, |h, w| {
        (h ^ w.into()).wrapping_mul(FNV64_PRIME)
    })
}

/// An incremental FNV-1a hasher over a 128-bit state with typed,
/// length-prefixed writes. See the module docs for the stability contract.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u128,
}

impl StableHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self {
            state: FNV128_OFFSET,
        }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.state ^= u128::from(v);
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }

    /// Folds raw bytes (no length prefix; use [`write_str`](Self::write_str)
    /// or [`write_len_bytes`](Self::write_len_bytes) for variable-size
    /// data).
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds a length prefix followed by the bytes.
    fn write_len_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_bytes(bytes);
    }

    /// Folds a `u32` (little-endian byte order).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian byte order).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern (`-0.0` and `0.0` therefore differ;
    /// behavioral parameters never rely on that distinction).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a bool as one byte.
    fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Folds a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_len_bytes(s.as_bytes());
    }

    /// The 128-bit digest of everything written so far.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A type whose behavior-relevant identity can be folded into a
/// [`StableHasher`]. Implementations must fold **every** field that can
/// change simulated output, tag enum variants with explicit constants, and
/// never change an existing encoding without a cache-format version bump.
pub trait StableKey {
    /// Folds this value into `h`.
    fn fold(&self, h: &mut StableHasher);
}

/// The 128-bit stable key of one value (a fresh hasher, folded, finished).
pub fn stable_key<T: StableKey + ?Sized>(value: &T) -> u128 {
    let mut h = StableHasher::new();
    value.fold(&mut h);
    h.finish()
}

// Primitive encodings, so composite keys (e.g. a cache key folding a
// replicate index next to a config) can fold scalars uniformly. Each
// integer width has a distinct byte length, and strings are
// length-prefixed, so adjacent fields cannot shift bytes between them.
impl StableKey for u8 {
    fn fold(&self, h: &mut StableHasher) {
        h.write_u8(*self);
    }
}

impl StableKey for u32 {
    fn fold(&self, h: &mut StableHasher) {
        h.write_u32(*self);
    }
}

impl StableKey for u64 {
    fn fold(&self, h: &mut StableHasher) {
        h.write_u64(*self);
    }
}

impl StableKey for bool {
    fn fold(&self, h: &mut StableHasher) {
        h.write_bool(*self);
    }
}

impl StableKey for str {
    fn fold(&self, h: &mut StableHasher) {
        h.write_str(self);
    }
}

impl StableKey for InterfaceKind {
    fn fold(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            InterfaceKind::Base1LdSt => 0,
            InterfaceKind::Base2Ld1St => 1,
            InterfaceKind::Malec => 2,
        });
    }
}

impl StableKey for LatencyVariant {
    fn fold(&self, h: &mut StableHasher) {
        h.write_u32(self.l1_latency());
    }
}

impl StableKey for WayDetermination {
    fn fold(&self, h: &mut StableHasher) {
        match self {
            WayDetermination::None => h.write_u8(0),
            WayDetermination::WayTables => h.write_u8(1),
            WayDetermination::WayTablesNoFeedback => h.write_u8(2),
            WayDetermination::Wdu(n) => {
                h.write_u8(3);
                h.write_u64(u64::from(*n));
            }
        }
    }
}

impl StableKey for AgwConfig {
    fn fold(&self, h: &mut StableHasher) {
        h.write_u8(self.load_only);
        h.write_u8(self.store_only);
        h.write_u8(self.shared);
    }
}

impl StableKey for CacheGeometry {
    fn fold(&self, h: &mut StableHasher) {
        h.write_u64(self.total_bytes());
        h.write_u32(self.ways());
        h.write_u32(self.banks());
        h.write_u64(self.line_bytes());
        h.write_u32(self.sub_block_bits());
    }
}

impl StableKey for PageGeometry {
    fn fold(&self, h: &mut StableHasher) {
        h.write_u64(self.page_bytes());
        h.write_u64(self.line_bytes());
    }
}

/// Folds every field, and between them the Table II values that were
/// config fields when the persisted keys were first written, at the same
/// widths and in the same order, so no key moved when they became
/// [`params`] constants.
impl StableKey for SimConfig {
    fn fold(&self, h: &mut StableHasher) {
        self.interface.fold(h);
        self.latency.fold(h);
        self.way_determination.fold(h);
        h.write_bool(self.load_merging);
        h.write_bool(self.restrict_fill_ways);
        self.l1.fold(h);
        params::L2.fold(h);
        params::PAGE.fold(h);
        h.write_u64(u64::from(self.tlb_entries));
        h.write_u64(u64::from(self.utlb_entries));
        h.write_u64(u64::from(params::LQ_ENTRIES));
        h.write_u64(u64::from(params::SB_ENTRIES));
        h.write_u64(u64::from(params::MB_ENTRIES));
        h.write_u64(u64::from(self.rob_entries));
        h.write_u8(params::DISPATCH_WIDTH);
        h.write_u8(params::ISSUE_WIDTH);
        h.write_u32(params::L2_LATENCY);
        h.write_u32(params::DRAM_LATENCY);
        h.write_u8(self.result_buses);
        h.write_u8(params::INPUT_BUFFER_HELD_LOADS);
        h.write_u32(params::ADDRESS_BITS);
        match &self.agu_override {
            None => h.write_u8(0),
            Some(agus) => {
                h.write_u8(1);
                agus.fold(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_step_matches_the_definition() {
        // FNV-1a: empty input hashes to the offset basis; one byte hashes
        // to (offset ^ byte) * prime.
        let h = StableHasher::new();
        assert_eq!(h.finish(), FNV128_OFFSET);
        let mut h = StableHasher::new();
        h.write_u8(b'a');
        assert_eq!(
            h.finish(),
            (FNV128_OFFSET ^ u128::from(b'a')).wrapping_mul(FNV128_PRIME)
        );
    }

    #[test]
    fn length_prefix_prevents_boundary_shifts() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn every_figure4_config_keys_distinctly() {
        let keys: Vec<u128> = SimConfig::figure4_set().iter().map(stable_key).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn key_is_sensitive_to_each_toggle() {
        let base = stable_key(&SimConfig::malec());
        let mut cfg = SimConfig::malec();
        cfg.load_merging = false;
        assert_ne!(stable_key(&cfg), base);
        let mut cfg = SimConfig::malec();
        cfg.tlb_entries -= 1;
        assert_ne!(stable_key(&cfg), base);
        let mut cfg = SimConfig::malec();
        cfg.way_determination = WayDetermination::Wdu(16);
        assert_ne!(stable_key(&cfg), base);
        assert_ne!(stable_key(&SimConfig::malec_wide()), base);
    }

    #[test]
    fn primitive_keys_are_width_distinct() {
        // u32 and u64 of the same numeric value must key differently (their
        // byte encodings differ in length), so a composite key cannot be
        // forged by retyping a field.
        assert_ne!(stable_key(&7u32), stable_key(&7u64));
        assert_eq!(
            stable_key(&0u8),
            stable_key(&false),
            "same one-byte encoding"
        );
        assert_eq!(stable_key("ab"), stable_key("ab"));
        assert_ne!(stable_key("ab"), stable_key("ba"));
    }

    #[test]
    fn key_is_stable_across_calls() {
        // The contract the persistent cache rests on: no per-process
        // randomness anywhere in the derivation.
        assert_eq!(
            stable_key(&SimConfig::base2ld1st()),
            stable_key(&SimConfig::base2ld1st())
        );
    }
}
