//! MALEC — a Multiple Access Low Energy Cache interface, reproduced.
//!
//! This crate implements the paper's contribution and its comparison points
//! as three interchangeable implementations of
//! [`malec_cpu::L1DataInterface`]:
//!
//! * [`BaselineInterface`] in `Base1ldst` trim — one load *or* store per
//!   cycle, fully single-ported (the energy-oriented baseline);
//! * [`BaselineInterface`] in `Base2ld1st` trim — two loads + one store per
//!   cycle via physical multi-porting (the performance-oriented baseline);
//! * [`MalecInterface`] — Page-Based Memory Access Grouping
//!   ([`InputBuffer`], [`ArbitrationUnit`]-style bank/merge selection) with
//!   optional Page-Based Way Determination (a [`WayTable`] beside each
//!   TLB) or a [`Wdu`] substitute.
//!
//! [`sim::Simulator`] glues a configuration, a benchmark profile,
//! the out-of-order core, the memory hierarchy and the energy model into one
//! reproducible run; [`report`] renders the paper's tables.
//!
//! # Quickstart
//!
//! ```
//! use malec_core::sim::Simulator;
//! use malec_trace::all_benchmarks;
//! use malec_types::SimConfig;
//!
//! let profile = &all_benchmarks()[0]; // gzip
//! let summary = Simulator::new(SimConfig::malec()).run(profile, 20_000, 1);
//! assert!(summary.core.ipc() > 0.0);
//! assert!(summary.energy.dynamic > 0.0);
//! ```
//!
//! [`BaselineInterface`]: baseline::BaselineInterface
//! [`MalecInterface`]: malec::MalecInterface
//! [`InputBuffer`]: input_buffer::InputBuffer
//! [`WayTable`]: waytable::WayTable
//! [`Wdu`]: wdu::Wdu
//! [`ArbitrationUnit`]: malec::MalecInterface

pub mod baseline;
pub mod compare;
pub mod digest;
pub mod input_buffer;
pub mod malec;
mod memory_side;
pub mod metrics;
pub mod mmu;
pub mod parallel;
pub mod pending;
pub mod report;
pub mod sbmb;
pub mod sim;
pub mod source;
pub mod stats;
pub mod waytable;
pub mod wdu;

pub use digest::digest;
pub use metrics::{InterfaceStats, RunSummary};
pub use sim::Simulator;
pub use source::ScenarioSource;
