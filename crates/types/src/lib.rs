//! Common foundation types for the MALEC reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`addr`] — strongly-typed virtual/physical addresses and the derived
//!   quantities MALEC reasons about (page identifiers, line indices within a
//!   page, cache bank/set/way coordinates);
//! * [`geometry`] — cache and page geometry descriptors used to slice
//!   addresses ([`CacheGeometry`], [`PageGeometry`]);
//! * [`op`] — memory-operation records flowing from the CPU model through the
//!   L1 interface ([`MemOp`], [`MemOpKind`]);
//! * [`config`] — the analyzed configurations from Table I of the paper
//!   ([`InterfaceKind`], [`SimConfig`]) plus the latency variants of Fig. 4
//!   and the Sec. VI ablations;
//! * [`params`] — the one Table II machine as named constants, which the
//!   simulator reads directly;
//! * [`stable`] — process-independent hashing for cache keys and digests.
//!
//! # Example
//!
//! ```
//! use malec_types::addr::VAddr;
//! use malec_types::params::PAGE;
//!
//! // Table II: 4 KiB pages, 64 B lines.
//! let a = VAddr::new(0x1234_5678);
//! assert_eq!(PAGE.vpage_of(a).raw(), 0x12345);
//! assert_eq!(PAGE.line_in_page(a.raw()), (0x678 >> 6) as u8);
//! ```
//!
//! [`CacheGeometry`]: geometry::CacheGeometry
//! [`PageGeometry`]: geometry::PageGeometry
//! [`MemOp`]: op::MemOp
//! [`MemOpKind`]: op::MemOpKind
//! [`InterfaceKind`]: config::InterfaceKind
//! [`SimConfig`]: config::SimConfig

pub mod addr;
pub mod config;
pub mod error;
pub mod geometry;
pub mod op;
pub mod params;
pub mod stable;

pub use config::{InterfaceKind, LatencyVariant, PortConfig, SimConfig, WayDetermination};
