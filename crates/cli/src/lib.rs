//! `malec-cli` — the TOML-driven scenario sweep runner and `malec-serve`
//! client.
//!
//! The spec language, TOML parser and report schema live in `malec-serve`
//! (a submitted job *is* a spec, so the service owns the format), and so
//! does the one executor of spec jobs, its `Engine`. What remains native
//! to this crate:
//!
//! * [`run`] — the local record → sweep → replay-verify pipeline behind
//!   `malec-cli run`, sweeping on an in-process `Engine`;
//! * [`compare`] — the paired-seed comparison pipeline behind `malec-cli
//!   compare` (shared-seed deltas, paired CIs, win/loss/tie verdicts);
//! * the binary's `serve` / `submit` / `status` subcommands, thin wrappers
//!   over [`malec_serve::server`] and [`malec_serve::client`].

pub mod compare;
pub mod run;
