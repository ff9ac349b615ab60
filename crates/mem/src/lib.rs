//! Memory-hierarchy substrate: cache banks, L2/DRAM backing, TLBs and the
//! page table.
//!
//! The paper evaluates MALEC on top of an unmodified, highly conventional
//! memory hierarchy (Table II): a 32 KiB 4-way PIPT L1 data cache split into
//! four independent single-ported banks, a 1 MiB 16-way L2 and a flat-latency
//! DRAM. This crate provides exactly that substrate, *without* any MALEC
//! logic — the interfaces in `malec-core` drive it.
//!
//! Modules:
//!
//! * [`replacement`] — LRU, seeded-random and second-chance policies
//!   (the paper uses LRU-ish banks, a random-replacement TLB and a
//!   second-chance uTLB);
//! * [`bank`] — one single-ported set-associative cache bank;
//! * [`l1`] — the 4-bank L1 wrapper with fill/eviction reporting (needed by
//!   the way tables' validity maintenance);
//! * [`backing`] — L2 + DRAM latency model;
//! * [`tlb`] — page table, TLB and micro-TLB with reverse (physical) lookup
//!   support;
//! * [`hierarchy`] — glue: one call answers "where does this line live and
//!   how long until it arrives", applying fills and evictions on the way.

pub mod backing;
pub mod bank;
pub mod hierarchy;
pub mod l1;
pub mod replacement;
pub mod tlb;
