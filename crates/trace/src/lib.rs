//! Synthetic workload generation — the SPEC CPU2000 / MediaBench2 substitute.
//!
//! The paper drives its evaluation with the most representative 1-billion-
//! instruction SimPoint phase of each SPEC CPU2000 and MediaBench2 benchmark.
//! Neither the benchmarks nor their traces are redistributable, so this crate
//! generates *statistically equivalent* instruction streams instead: every
//! benchmark named in Fig. 4 gets a [`BenchmarkProfile`] whose parameters are
//! calibrated to the properties the paper reports (memory-instruction
//! fraction, load/store ratio, page-run locality of Fig. 1, same-line
//! adjacency, working-set size / miss-rate class, dependency density).
//!
//! MALEC's mechanisms only observe the *statistics* of the reference stream —
//! page-transition run lengths, line adjacency, reorderability, miss rates —
//! so matching those axes is what makes the reproduction meaningful.
//!
//! * [`inst`] — the trace instruction vocabulary ([`TraceInst`]);
//! * [`profile`] — benchmark profiles and suites ([`BenchmarkProfile`],
//!   [`Suite`], [`all_benchmarks`]);
//! * [`generate`] — the deterministic stochastic generator
//!   ([`WorkloadGenerator`]);
//! * [`scenario`] — composable multi-phase / mixed / adversarial workloads
//!   ([`Scenario`]);
//! * [`record`] — the `.mtr` binary trace format with streaming
//!   record/replay ([`TraceWriter`], [`TraceReader`]);
//! * [`seed`] — SplitMix64 replicate-seed derivation for multi-seed
//!   replication ([`replicate_seed`]);
//! * [`stats`] — Fig. 1 statistics (consecutive same-page access runs with
//!   allowed intermediates).
//!
//! [`TraceInst`]: inst::TraceInst
//! [`BenchmarkProfile`]: profile::BenchmarkProfile
//! [`Suite`]: profile::Suite
//! [`all_benchmarks`]: profile::all_benchmarks
//! [`WorkloadGenerator`]: generate::WorkloadGenerator
//!
//! # Example
//!
//! ```
//! use malec_trace::{all_benchmarks, WorkloadGenerator};
//!
//! let gzip = all_benchmarks().iter().find(|b| b.name == "gzip").cloned().unwrap();
//! let insts: Vec<_> = WorkloadGenerator::new(&gzip, 1).take(1000).collect();
//! assert_eq!(insts.len(), 1000);
//! ```
//!
//! [`Scenario`]: scenario::Scenario
//! [`TraceWriter`]: record::TraceWriter
//! [`TraceReader`]: record::TraceReader

pub mod generate;
pub mod inst;
pub mod profile;
pub mod record;
pub mod scenario;
pub mod seed;
pub mod stats;

pub use generate::WorkloadGenerator;
pub use inst::TraceInst;
pub use profile::{all_benchmarks, benchmark_named, benchmarks_of, BenchmarkProfile, Suite};
pub use seed::{replicate_seed, splitmix64};
