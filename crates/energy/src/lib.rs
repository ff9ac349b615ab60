//! Analytical SRAM/CAM energy model — the CACTI 6.5 substitute.
//!
//! The paper combines gem5 access statistics with CACTI v6.5 energy numbers
//! (32 nm node, low-dynamic-power design objective, low-standby-power cells
//! for the tag/data arrays). CACTI itself is a closed C++ tool; this crate
//! replaces it with an *analytical* model of the same structures whose terms
//! follow the standard SRAM energy decomposition (decode + wordline +
//! bitline/sense + output drive), with explicit per-port scaling for both
//! dynamic energy and leakage.
//!
//! Absolute joules are expressed in arbitrary-but-consistent picojoule-like
//! units; every number the benches report is **normalized** exactly as in the
//! paper, so only the *ratios* between structures matter. The ratios are
//! calibrated to the figures the paper quotes from CACTI:
//!
//! * an additional read port increases L1 leakage by ≈ 80 % (Sec. VI-C);
//! * the 128-bit WT entry format saves ⅓ area/leakage over a naive 192-bit
//!   format (Sec. V);
//! * the uWT contributes only ≈ 0.3 % leakage / 2.1 % dynamic energy of the
//!   analyzed interface (Sec. VI-A).
//!
//! The model is split across:
//!
//! * [`sram`] — array primitives ([`SramArray`], [`CamArray`]) and the
//!   32 nm calibration constants that price them;
//! * [`counters`] — the event ledger filled by the timing simulation
//!   ([`EnergyCounters`]);
//! * [`model`] — per-configuration structure instantiations and the
//!   normalized report builder ([`EnergyModel`], [`EnergyBreakdown`]).
//!
//! [`SramArray`]: sram::SramArray
//! [`CamArray`]: sram::CamArray
//! [`EnergyCounters`]: counters::EnergyCounters
//! [`EnergyModel`]: model::EnergyModel
//! [`EnergyBreakdown`]: model::EnergyBreakdown
//!
//! # Example
//!
//! ```
//! use malec_energy::{EnergyCounters, EnergyModel};
//! use malec_types::SimConfig;
//!
//! let model = EnergyModel::for_config(&SimConfig::base1ldst());
//! let mut counters = EnergyCounters::default();
//! counters.l1_conventional_read(4, 1); // one 4-way parallel lookup
//! let breakdown = model.evaluate(&counters, 1_000);
//! assert!(breakdown.dynamic > 0.0);
//! assert!(breakdown.leakage > 0.0);
//! ```

pub mod counters;
pub mod model;
pub mod sram;

pub use counters::EnergyCounters;
pub use model::{EnergyBreakdown, EnergyModel, StructureEnergy, STRUCTURE_NAMES};
