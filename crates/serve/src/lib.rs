//! `malec-serve` — the batch simulation service.
//!
//! PRs 1–2 made every simulation cell a *pure function*: one
//! `(configuration, scenario, seed, horizon)` tuple produces one
//! [`RunSummary`], bit for bit, on any host, forever (golden digests and
//! `.mtr` replay verification prove it continuously). This crate turns that
//! property into infrastructure: instead of a one-shot CLI, the simulator
//! runs as a long-lived service that accepts sweep jobs over a hand-rolled
//! HTTP/1.1 + JSON API, shards them into per-cell work units, batches the
//! units across a persistent worker pool, and answers repeated or
//! overlapping work from a **content-addressed result cache** that
//! persists across restarts.
//!
//! The layers, bottom up:
//!
//! * [`toml`] / [`spec`] — the TOML sweep-spec language (a job *is* a
//!   spec, so the service owns the format and the CLI stays a thin
//!   client);
//! * [`report`] — the JSON report schema shared by `malec-cli run` and the
//!   fetch-report endpoint;
//! * [`cache`] — stable 128-bit cell keys ([`malec_types::stable`]) and the
//!   append-only persisted result cache, with a full log lifecycle:
//!   atomic compaction, size-bounded LRU eviction, and a streamable live
//!   snapshot for warming a fresh peer (`/v1/cache/sync`);
//! * [`scheduler`] — the [`Engine`]: job queue, persistent worker pool,
//!   in-flight deduplication of concurrent identical cells, panic-safe
//!   workers that fail the cell instead of shrinking the pool. It is the
//!   only executor of spec jobs: `malec-cli run` and `compare` drive an
//!   in-process one;
//! * [`fault`] — deterministic fault injection: named failpoints that fire
//!   at exact hit counts under a seeded schedule, so every failure test is
//!   reproducible;
//! * [`shard`] — deterministic key ownership for multi-peer serving:
//!   rendezvous hashing over the stable cell keys, so every peer agrees
//!   on who owns which cell with no coordination;
//! * [`http`] / [`json`] — just enough protocol, hand-rolled on
//!   `std::net::TcpListener` (this build environment has no network
//!   crates, following the precedent of the hand-rolled TOML parser);
//! * [`server`] / [`client`] — the v1 API and its typed client.
//!
//! # A complete session
//!
//! ```
//! use std::time::Duration;
//! use malec_serve::client::Client;
//! use malec_serve::server::Server;
//!
//! let server = Server::bind("127.0.0.1:0", Some(2), None).unwrap().spawn().unwrap();
//! let client = Client::new(server.addr().to_string());
//!
//! let spec = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
//!             [sweep]\nconfigs = [\"MALEC\"]\ninsts = 1000\n";
//! let job = client.submit(spec).unwrap();
//! let done = client.wait(job, Duration::from_secs(60)).unwrap();
//! assert_eq!(done.cells, 1);
//!
//! // Identical resubmission: zero cells simulated, all served from cache.
//! let again = client.wait(client.submit(spec).unwrap(), Duration::from_secs(60)).unwrap();
//! assert_eq!(again.served_without_simulation(), again.cells);
//!
//! client.shutdown().unwrap();
//! server.join().unwrap();
//! ```
//!
//! [`RunSummary`]: malec_core::RunSummary
//! [`Engine`]: scheduler::Engine

pub mod cache;
pub mod client;
pub mod fault;
pub mod http;
pub mod json;
pub mod report;
pub mod scheduler;
pub mod server;
pub mod shard;
pub mod spec;
pub mod sync;
pub mod toml;

pub use cache::{cache_key, FsyncPolicy, ResultCache};
pub use scheduler::{Engine, JobId, JobResults};
pub use shard::ShardMap;
pub use spec::{parse_spec, SweepSpec};
