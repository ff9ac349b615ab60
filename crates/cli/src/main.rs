//! `malec-cli` — compose workloads from a TOML spec, sweep configurations,
//! record/replay `.mtr` traces, emit JSON reports, and run or drive a
//! `malec-serve` batch service.
//!
//! ```text
//! malec-cli run <spec.toml> [--jobs N]      record + sweep + replay-verify + report
//! malec-cli compare <spec.toml> [--jobs N] [--addr A] [-o OUT]
//!                                           paired MALEC-vs-baseline deltas
//!                                           (local, or via a server with --addr)
//! malec-cli record <spec.toml> [-o F.mtr]   record the scenario stream only
//! malec-cli replay <F.mtr> [--config L] [--insts N] [--seed N]
//! malec-cli presets                         list the built-in scenarios
//! malec-cli serve [--addr A] [--cache F] [--jobs N] [--fsync P]
//!                 [--max-conns N] [--drain-timeout S] [--job-ttl S]
//!                 [--cache-max-bytes N] [--compact-threshold R]
//!                 [--warm-from A] [--peers A,A,...] [--faults SCHED]
//!                                           run the batch service (blocking)
//! malec-cli submit <spec.toml> [--addr A] [-o OUT] [--no-wait] [--retries N]
//!                                           submit the spec to a server
//! malec-cli status [JOB] [--addr A] [--retries N]
//!                                           job status, or cache stats without JOB
//! malec-cli cache compact [--addr A]        rewrite the server's cache log
//! malec-cli cache sync --from A -o FILE     download a server's live records
//! ```
//!
//! Exit status is nonzero on any error **and** on a replay-digest mismatch,
//! so CI can gate on `run`. A spec submitted with `submit` produces a
//! report bit-identical (per cell) to `run` on the same spec — the server
//! just may answer it from its result cache without simulating.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use malec_cli::compare::{compare_parsed_spec, delta_line};
use malec_cli::run::{record_trace, run_spec_file};
use malec_core::digest::digest;
use malec_core::{ScenarioSource, Simulator};
use malec_serve::client::{Client, RetryPolicy};
use malec_serve::server::{ServeOptions, Server, DEFAULT_ADDR};
use malec_serve::spec::parse_spec;
use malec_serve::{Faults, FsyncPolicy, ResultCache, ShardMap};
use malec_trace::scenario::presets;
use malec_types::SimConfig;

fn usage() -> String {
    "usage:\n  malec-cli run <spec.toml> [--jobs N]\n  malec-cli compare <spec.toml> [--jobs N] [--addr HOST:PORT] [-o report.json] [--retries N]\n  malec-cli record <spec.toml> [-o out.mtr]\n  malec-cli replay <trace.mtr> [--config LABEL] [--insts N] [--seed N] [--name NAME]\n  malec-cli presets\n  malec-cli serve [--addr HOST:PORT] [--cache FILE] [--jobs N] [--fsync always|on-close]\n                  [--max-conns N] [--drain-timeout SECS] [--job-ttl SECS]\n                  [--cache-max-bytes N] [--compact-threshold RATIO]\n                  [--warm-from HOST:PORT] [--peers HOST:PORT,...] [--faults SCHED]\n  malec-cli submit <spec.toml> [--addr HOST:PORT] [-o report.json] [--no-wait] [--retries N]\n  malec-cli status [JOB] [--addr HOST:PORT] [--retries N]\n  malec-cli cache compact [--addr HOST:PORT]\n  malec-cli cache sync --from HOST:PORT -o FILE\n\nThe replay digest folds the workload name; pass --name <scenario name>\n(the [scenario] name the trace was recorded under) to make it comparable\nwith the digests in a `run` report.\n\n`compare` pairs the spec's [compare] interfaces per shared replicate seed\nand reports deltas (mean ± paired CI, relative %, win/loss/tie at the\nspec's alpha); with --addr the spec is submitted to a server and the\ndeltas are assembled from its result cache instead of simulating locally.\n\n`serve` hosts the batch service (default address 127.0.0.1:4173); `submit`\nand `status` talk to it. --cache persists the result cache across\nrestarts; --jobs caps worker fan-out everywhere it appears. --fsync sets\nthe cache-log durability policy; --max-conns sheds load above N concurrent\nconnections (503 + Retry-After); --job-ttl expires finished job records;\n--cache-max-bytes bounds resident results (LRU eviction; disk space is\nreclaimed at the next compaction); --compact-threshold RATIO rewrites the\nlog automatically once that fraction of its payload is dead;\n--warm-from pulls a running peer's live records before serving;\n--peers ADDR,ADDR,... (self included) serves as one peer of a sharded\ncluster: every peer derives the same deterministic owner for every cell\nkey (rendezvous hashing — no coordination), and a compared pair is owned\nas one. A submission to any peer forwards each config or pair another\npeer owns to that owner, waits for it, then fetches the records from the\nowner, simulating locally only what the owner cannot serve, so the\nreport is bit-identical to a standalone run;\n--faults arms the deterministic failpoint schedule\n(`name@hit[:param];...`) — testing only.\n\n`cache compact` asks a server to rewrite its log keeping only live\nrecords; `cache sync` downloads a server's live record set\n(checksum-verified) into a local log file usable as `serve --cache` for a\nfresh peer.\n\n--retries N retries transport failures and retryable statuses (408/429/5xx)\nwith capped exponential backoff, and resubmits a job whose cells failed\n(completed cells are cached, so only failed work is re-simulated)."
        .to_owned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("malec-cli: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("presets") => {
            cmd_presets();
            Ok(())
        }
        _ => Err(usage()),
    }
}

/// Pulls a `--flag VALUE` pair out of `args`, parsing the value.
fn take_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{flag} needs a value\n{}", usage()));
            }
            let value = args.remove(i + 1);
            args.remove(i);
            value
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value `{value}` for {flag}\n{}", usage()))
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let jobs: Option<usize> = take_flag(&mut args, "--jobs")?;
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };
    let outcome = run_spec_file(Path::new(spec_path), jobs)?;
    let seeds = outcome.spec.replication.seeds;
    println!(
        "scenario {} ({}): {} cells x {} insts x {} seed(s), {} worker(s), {:.3}s",
        outcome.spec.scenario.name,
        outcome.spec.scenario.segment_labels().join(" + "),
        outcome.cells.len(),
        outcome.spec.insts,
        seeds,
        outcome.workers,
        outcome.wall_seconds,
    );
    for cell in &outcome.cells {
        let s = &cell.generated;
        println!(
            "  {:<22} cycles {:>9}  ipc {:>5.2}  l1miss {:>6.3}  coverage {:>5.1}%  replay {}",
            s.config,
            s.core.cycles,
            s.core.ipc(),
            s.l1_miss_rate,
            100.0 * s.interface.coverage(),
            if cell.replay_matches() {
                "ok"
            } else {
                "MISMATCH"
            },
        );
        if let Some(stats) = &cell.stats {
            let ipc = stats.metric("ipc").expect("ipc is always reported");
            let energy = stats
                .metric("energy_per_access")
                .expect("energy_per_access is always reported");
            let ci = |m: &malec_core::stats::MetricSummary| {
                m.ci95
                    .map_or_else(|| "n/a".to_owned(), |w| format!("{w:.4}"))
            };
            println!(
                "  {:<22} {} seed(s): ipc {:.3} ± {}  energy/access {:.4} ± {}{}",
                "",
                stats.n,
                ipc.mean,
                ci(ipc),
                energy.mean,
                ci(energy),
                if stats.saved > 0 {
                    format!("  (early stop saved {} replicate(s))", stats.saved)
                } else {
                    String::new()
                },
            );
        }
    }
    println!(
        "  trace  -> {}\n  report -> {}",
        outcome.mtr_path.display(),
        outcome.out_path.display()
    );
    if outcome.all_replays_match() {
        Ok(())
    } else {
        Err("replayed .mtr run diverged from the generator run".to_owned())
    }
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let jobs: Option<usize> = take_flag(&mut args, "--jobs")?;
    let addr: Option<String> = take_flag(&mut args, "--addr")?;
    let out: Option<String> = take_flag(&mut args, "-o")?;
    let retries: u32 = take_flag(&mut args, "--retries")?.unwrap_or(0);
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };
    if let Some(addr) = addr {
        return cmd_compare_remote(spec_path, &addr, out, retries);
    }
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("read {spec_path}: {e}"))?;
    let mut spec = parse_spec(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    if let Some(o) = out {
        // -o overrides the spec's report path outright — one output file,
        // not a stray copy at the default location.
        spec.compare_out = o;
    }
    let outcome = compare_parsed_spec(spec, spec_path, Path::new("."), jobs)?;
    let stats = &outcome.stats;
    let (wins, losses, ties) = stats.tally();
    println!(
        "compare {} ({}): {} vs {} — alpha {}, {}/{} shared seed(s){}, {} worker(s), {:.3}s",
        outcome.spec.scenario.name,
        outcome.spec.scenario.segment_labels().join(" + "),
        stats.candidate,
        stats.baseline,
        stats.alpha.value(),
        stats.n,
        outcome.spec.replication.seeds,
        if stats.saved > 0 {
            format!(" (early stop saved {})", stats.saved)
        } else {
            String::new()
        },
        outcome.workers,
        outcome.wall_seconds,
    );
    for (name, d) in &stats.metrics {
        println!("{}", delta_line(name, d));
    }
    println!("  verdicts: {wins} win(s), {losses} loss(es), {ties} tie(s)");
    println!("  report -> {}", outcome.out_path.display());
    Ok(())
}

/// `compare --addr`: submit the spec to a server and assemble the deltas
/// from its cache-keyed per-replicate cells (a resubmitted spec compares
/// without simulating a single cell).
fn cmd_compare_remote(
    spec_path: &str,
    addr: &str,
    out: Option<String>,
    retries: u32,
) -> Result<(), String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("read {spec_path}: {e}"))?;
    // Parse + resolve locally first: a bad pairing should fail with the
    // parser's message before any network round trip.
    let spec = parse_spec(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    spec.resolve_compare().map_err(|e| e.to_string())?;

    let client = Client::new(addr.to_owned()).with_retry(RetryPolicy::retries(retries));
    let job = client.submit(&text)?;
    println!(
        "submitted `{}` to {addr}: job {job} ({} vs {})",
        spec.scenario.name,
        spec.compare
            .as_ref()
            .map_or_else(|| "MALEC".to_owned(), |c| c.candidate.label()),
        spec.compare
            .as_ref()
            .map_or_else(|| "Base1ldst".to_owned(), |c| c.baseline.label()),
    );
    let out_path = out.unwrap_or_else(|| spec.compare_out.clone());
    finish_remote(
        &client,
        &text,
        job,
        retries,
        Client::compare,
        &out_path,
        "compare report",
    )
}

/// The tail `submit` and `compare --addr` share: waits for `job` (backing
/// off and resubmitting `text` if it fails, up to `retries` times — cached
/// cells make a resubmission re-simulate only what failed), writes the JSON
/// `fetch` returns to `out_path` under a created parent directory, and
/// prints the done, cache and `label -> out_path` lines.
fn finish_remote(
    client: &Client,
    text: &str,
    job: u64,
    retries: u32,
    fetch: fn(&Client, u64) -> Result<String, String>,
    out_path: &str,
    label: &str,
) -> Result<(), String> {
    let (job, view) = client.wait_with_resubmits(text, job, Duration::from_secs(600), retries)?;
    let json = fetch(client, job)?;
    if let Some(parent) = Path::new(out_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    println!(
        "job {job} done in {:.3}s: {} simulated, {} cached, {} coalesced, {} fetched{}",
        view.wall_seconds.unwrap_or(0.0),
        view.simulated,
        view.cached,
        view.coalesced,
        view.fetched,
        if view.replicates_saved > 0 {
            format!(
                ", {} replicate(s) saved by early stop",
                view.replicates_saved
            )
        } else {
            String::new()
        },
    );
    println!(
        "  cache: {}/{} cells served from cache",
        view.served_without_simulation(),
        view.cells
    );
    println!("  {label} -> {out_path}");
    Ok(())
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let out: Option<PathBuf> = take_flag(&mut args, "-o")?;
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("read {spec_path}: {e}"))?;
    let spec = parse_spec(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    let out = out.unwrap_or_else(|| PathBuf::from(&spec.mtr));
    let written = record_trace(&spec, &out)?;
    println!(
        "recorded {written} instructions of `{}` (seed {}) -> {}",
        spec.scenario.name,
        spec.seed,
        out.display()
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let label: Option<String> = take_flag(&mut args, "--config")?;
    let insts: u64 = take_flag(&mut args, "--insts")?.unwrap_or(u64::MAX);
    let seed: u64 = take_flag(&mut args, "--seed")?.unwrap_or(malec_serve::spec::DEFAULT_SEED);
    let name: Option<String> = take_flag(&mut args, "--name")?;
    let [trace] = args.as_slice() else {
        return Err(usage());
    };
    let config = match label {
        Some(label) => {
            SimConfig::by_label(&label).ok_or_else(|| format!("unknown config `{label}`"))?
        }
        None => SimConfig::malec(),
    };
    // The digest folds the workload name, so default to the file stem but
    // let --name restore the recorded scenario's name for bit-identity
    // checks against a `run` report.
    let name = name.unwrap_or_else(|| {
        Path::new(trace)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "replay".to_owned())
    });
    let source = ScenarioSource::Replay {
        name,
        path: PathBuf::from(trace),
    };
    let summary = Simulator::new(config)
        .run_source(&source, insts, seed)
        .map_err(|e| e.to_string())?;
    println!(
        "{} / {}: {} insts in {} cycles (ipc {:.2}), l1 miss {:.3}, energy {:.1}, digest {:#018x}",
        summary.benchmark,
        summary.config,
        summary.core.committed,
        summary.core.cycles,
        summary.core.ipc(),
        summary.l1_miss_rate,
        summary.energy.total(),
        digest(&summary),
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr: String = take_flag(&mut args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_owned());
    let cache: Option<String> = take_flag(&mut args, "--cache")?;
    let jobs: Option<usize> = take_flag(&mut args, "--jobs")?;
    let fsync: Option<FsyncPolicy> = take_flag(&mut args, "--fsync")?;
    let max_conns: Option<usize> = take_flag(&mut args, "--max-conns")?;
    let drain_timeout: Option<u64> = take_flag(&mut args, "--drain-timeout")?;
    let job_ttl: Option<u64> = take_flag(&mut args, "--job-ttl")?;
    let cache_max_bytes: Option<u64> = take_flag(&mut args, "--cache-max-bytes")?;
    let compact_threshold: Option<f64> = take_flag(&mut args, "--compact-threshold")?;
    let warm_from: Option<String> = take_flag(&mut args, "--warm-from")?;
    let peers: Option<String> = take_flag(&mut args, "--peers")?;
    let fault_schedule: Option<String> = take_flag(&mut args, "--faults")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}\n{}", usage()));
    }
    if let Some(t) = compact_threshold {
        if !(t > 0.0 && t <= 1.0) {
            return Err(format!(
                "--compact-threshold must be a dead-byte ratio in (0, 1], got {t}"
            ));
        }
    }
    let faults = match fault_schedule {
        Some(s) => Faults::parse(&s).map_err(|e| e.to_string())?,
        None => Faults::disarmed(),
    };
    let armed = !faults.exhausted();
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        workers: jobs,
        cache_path: cache.as_deref().map(PathBuf::from),
        fsync: fsync.unwrap_or(defaults.fsync),
        faults,
        max_connections: max_conns.unwrap_or(defaults.max_connections),
        drain_timeout: drain_timeout.map_or(defaults.drain_timeout, Duration::from_secs),
        job_ttl: job_ttl.map(Duration::from_secs).or(defaults.job_ttl),
        cache_max_bytes,
        compact_threshold,
        ..defaults
    };
    let server = Server::bind_with(addr.as_str(), opts).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    // Install the shard map before any traffic: ownership must be in force
    // from the very first submission.
    let shard_peers: Vec<String> = match &peers {
        Some(list) => {
            let map = ShardMap::new(
                list.split(',').map(str::trim).filter(|s| !s.is_empty()),
                &addr,
            )
            .map_err(|e| format!("--peers: {e}"))?;
            let set = map.peers().iter().map(|p| p.as_str().to_owned()).collect();
            server.engine().set_shard(map);
            set
        }
        None => Vec::new(),
    };
    // Warm before accepting work: a fresh peer serves its first request at
    // 100% cache coverage or fails loudly at startup, never in between.
    if let Some(peer) = warm_from {
        let report = server
            .engine()
            .warm_from(&peer)
            .map_err(|e| format!("warm from {peer}: {e}"))?;
        if let Some(damage) = report.damaged {
            return Err(format!(
                "warm from {peer}: stream damaged after {} verified record(s): {damage}",
                report.records
            ));
        }
        println!(
            "warmed from {peer}: {} record(s), {} bytes ({} new)",
            report.records, report.bytes, report.inserted
        );
    }
    println!(
        "malec-serve listening on {bound} ({} worker(s), cache {})",
        server.engine().workers(),
        cache.as_deref().unwrap_or("in-memory"),
    );
    if armed {
        println!("  WARNING: fault injection armed — not for production use");
    }
    if !shard_peers.is_empty() {
        println!(
            "  sharding cells across {} peer(s): {}",
            shard_peers.len(),
            shard_peers.join(", "),
        );
    }
    println!("  POST /v1/jobs          submit a TOML sweep spec");
    println!("  GET  /v1/jobs/<id>     job status");
    println!("  GET  /v1/jobs/<id>/report");
    println!("  GET  /v1/cache/stats   result-cache counters");
    println!("  POST /v1/cache/compact rewrite the cache log, dropping dead records");
    println!("  GET  /v1/cache/sync    stream the live record set (peer warm-up)");
    println!("  GET  /v1/cache/record/<key>  one verified record (peer-miss fetch)");
    println!("  POST /v1/shutdown      drain and stop (?mode=abort skips the drain)");
    server.run().map_err(|e| e.to_string())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr: String = take_flag(&mut args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_owned());
    let out: Option<String> = take_flag(&mut args, "-o")?;
    let retries: u32 = take_flag(&mut args, "--retries")?.unwrap_or(0);
    let no_wait = if let Some(i) = args.iter().position(|a| a == "--no-wait") {
        args.remove(i);
        true
    } else {
        false
    };
    let [spec_path] = args.as_slice() else {
        return Err(usage());
    };
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("read {spec_path}: {e}"))?;
    // Parse locally first: a bad spec should fail with the parser's message
    // before any network round trip, and the report path comes from it.
    let spec = parse_spec(&text).map_err(|e| format!("{spec_path}: {e}"))?;

    let client = Client::new(addr.clone()).with_retry(RetryPolicy::retries(retries));
    let job = client.submit(&text)?;
    println!(
        "submitted `{}` to {addr}: job {job} ({} cells)",
        spec.scenario.name,
        spec.configs.len() * spec.replication.initial_count() as usize,
    );
    if no_wait {
        println!("  poll with: malec-cli status {job} --addr {addr}");
        return Ok(());
    }

    let out_path = out.unwrap_or_else(|| spec.out.clone());
    finish_remote(
        &client,
        &text,
        job,
        retries,
        Client::report,
        &out_path,
        "report",
    )
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr: String = take_flag(&mut args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_owned());
    let retries: u32 = take_flag(&mut args, "--retries")?.unwrap_or(0);
    let client = Client::new(addr.clone()).with_retry(RetryPolicy::retries(retries));
    match args.as_slice() {
        [] => {
            let stats = client.cache_stats()?;
            println!("cache at {addr}:");
            println!("  entries          {}", stats.entries);
            println!("  loaded from disk {}", stats.loaded);
            println!("  hits             {}", stats.hits);
            println!("  misses           {}", stats.misses);
            println!("  coalesced        {}", stats.coalesced);
            println!("  fetched          {}", stats.fetched);
            println!("  bytes appended   {}", stats.bytes_appended);
            println!("  log bytes        {}", stats.log_bytes);
            println!("  live bytes       {}", stats.live_bytes);
            println!("  evicted          {}", stats.evicted);
            println!("  compactions      {}", stats.compactions);
            // A sharded server advertises its peer set; show one row per
            // peer so a cluster's health reads off a single command.
            let peers = client.peers().unwrap_or_default();
            if !peers.is_empty() {
                println!("peers:");
                println!(
                    "  {:<22} {:>8} {:>8} {:>8} {:>8}  healthy",
                    "address", "entries", "hits", "misses", "fetched"
                );
                for peer in peers {
                    let me = if peer == addr { " (self)" } else { "" };
                    match Client::new(peer.clone()).cache_stats() {
                        Ok(s) => println!(
                            "  {:<22} {:>8} {:>8} {:>8} {:>8}  yes{me}",
                            peer, s.entries, s.hits, s.misses, s.fetched
                        ),
                        Err(_) => println!(
                            "  {:<22} {:>8} {:>8} {:>8} {:>8}  NO{me}",
                            peer, "-", "-", "-", "-"
                        ),
                    }
                }
            }
            Ok(())
        }
        [job] => {
            let job: u64 = job
                .parse()
                .map_err(|_| format!("bad job id `{job}`\n{}", usage()))?;
            let view = client.status(job)?;
            println!(
                "job {job} (`{}`): {} — {}/{} cells done ({} simulated, {} cached, {} coalesced, {} fetched, {} failed, {} pending)",
                view.scenario,
                view.state,
                view.cells - view.pending - view.failed,
                view.cells,
                view.simulated,
                view.cached,
                view.coalesced,
                view.fetched,
                view.failed,
                view.pending,
            );
            if let Some(error) = &view.error {
                println!("  first failure: {error}");
            }
            Ok(())
        }
        _ => Err(usage()),
    }
}

/// `cache compact` / `cache sync` — the cache-log lifecycle operations.
fn cmd_cache(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("compact") => cmd_cache_compact(&args[1..]),
        Some("sync") => cmd_cache_sync(&args[1..]),
        _ => Err(usage()),
    }
}

fn cmd_cache_compact(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr: String = take_flag(&mut args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_owned());
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}\n{}", usage()));
    }
    let outcome = Client::new(addr.as_str()).compact()?;
    println!(
        "compacted cache at {addr}: {} -> {} bytes, {} live record(s)",
        outcome.bytes_before, outcome.bytes_after, outcome.records,
    );
    Ok(())
}

/// Streams a server's live record set into a local cache log, verifying
/// every record's checksum on the way in. The result is a valid log file:
/// point a fresh `serve --cache` at it to start at full coverage.
fn cmd_cache_sync(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let from: String = take_flag(&mut args, "--from")?
        .ok_or_else(|| format!("cache sync needs --from HOST:PORT\n{}", usage()))?;
    let out: String = take_flag(&mut args, "-o")?
        .ok_or_else(|| format!("cache sync needs -o FILE\n{}", usage()))?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}\n{}", usage()));
    }
    let mut stream = Client::new(from.as_str()).sync_stream()?;
    let mut cache = ResultCache::open(Path::new(&out)).map_err(|e| format!("open {out}: {e}"))?;
    let report = cache
        .ingest(&mut stream)
        .map_err(|e| format!("sync from {from}: {e}"))?;
    cache.sync().map_err(|e| format!("sync {out}: {e}"))?;
    if let Some(damage) = report.damaged {
        return Err(format!(
            "stream from {from} damaged after {} verified record(s) (kept): {damage}",
            report.records
        ));
    }
    println!(
        "synced {} record(s), {} bytes from {from} -> {out} ({} new, {} already present)",
        report.records,
        report.bytes,
        report.inserted,
        report.records - report.inserted,
    );
    Ok(())
}

fn cmd_presets() {
    println!("built-in scenarios (use with `mode = \"preset\"`):");
    for s in presets() {
        println!("  {:<26} [{}]", s.name, s.segment_labels().join(" + "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_serve::server::ServerHandle;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn record_and_replay_take_flags_anywhere_and_reject_leftovers() {
        let dir = std::env::temp_dir().join(format!("malec_cli_flags_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let trace = dir.join("mixed.mtr");
        let trace = trace.to_str().expect("utf-8 path");
        let spec = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/scenarios/mixed.toml"
        );
        cmd_record(&strings(&["-o", trace, spec])).expect("-o before the spec");
        cmd_replay(&strings(&["--insts", "500", trace])).expect("--insts before the trace");
        for err in [
            cmd_record(&strings(&[spec, "-o", trace, "extra", "junk"])),
            cmd_replay(&strings(&[trace, "--insts", "500", "extra"])),
        ] {
            assert!(err.is_err_and(|e| e.starts_with("usage:")));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    const SWEEP_SPEC: &str = "[scenario]\nmode = \"preset\"\npreset = \"tlb_thrash\"\n\
                              [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 1200\nseed = 9\n";

    /// Runs `cmd` (given the server address, the spec path and an output
    /// path two directories below a fresh scratch directory) against an
    /// in-process one-worker server armed with the `faults` schedule, and
    /// returns the JSON it wrote there, or the command's error.
    fn remote_output(
        name: &str,
        faults: &str,
        spec: &str,
        cmd: fn(&[String]) -> Result<(), String>,
        args: fn(&str, &str, &str) -> Vec<String>,
    ) -> Result<String, String> {
        let opts = ServeOptions {
            workers: Some(1),
            faults: Faults::parse(faults).expect("fault schedule"),
            ..ServeOptions::default()
        };
        let server = Server::bind_with("127.0.0.1:0", opts)
            .expect("bind")
            .spawn()
            .expect("spawn");
        let addr = server.addr().to_string();
        let dir = std::env::temp_dir().join(format!("malec_cli_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let spec_path = dir.join("spec.toml");
        std::fs::write(&spec_path, spec).expect("write spec");
        let out = dir.join("nested/deeper/out.json");
        let result = cmd(&args(
            &addr,
            spec_path.to_str().expect("utf-8 path"),
            out.to_str().expect("utf-8 path"),
        ));
        let json = std::fs::read_to_string(&out);
        Client::new(addr).shutdown().expect("shutdown");
        server.join().expect("clean exit");
        std::fs::remove_dir_all(&dir).ok();
        result.map(|()| json.expect("the output landed under a created directory"))
    }

    #[test]
    fn submit_writes_the_report_under_a_created_directory() {
        let json = remote_output("submit", "", SWEEP_SPEC, cmd_submit, |addr, spec, out| {
            strings(&["--addr", addr, "-o", out, spec])
        })
        .expect("submit succeeds");
        assert!(
            json.contains("\"bench\": \"malec_scenario_sweep\""),
            "{json}"
        );
    }

    #[test]
    fn remote_compare_writes_the_report_under_a_created_directory() {
        let json = remote_output(
            "compare",
            "",
            "[scenario]\nmode = \"preset\"\npreset = \"tlb_thrash\"\n\
             [compare]\nbaseline = \"Base1ldst\"\ncandidate = \"MALEC\"\n\
             [sweep]\ninsts = 1200\nseed = 9\nseeds = 2\n",
            cmd_compare,
            |addr, spec, out| strings(&[spec, "--addr", addr, "-o", out]),
        )
        .expect("compare --addr succeeds");
        assert!(json.contains("\"bench\": \"malec_compare\""), "{json}");
    }

    #[test]
    fn submit_retries_resubmit_a_failed_job_and_no_retries_report_it() {
        let json = remote_output(
            "retried",
            "worker.panic@1",
            SWEEP_SPEC,
            cmd_submit,
            |addr, spec, out| strings(&["--addr", addr, "--retries", "1", "-o", out, spec]),
        )
        .expect("the resubmission completes");
        assert!(
            json.contains("\"bench\": \"malec_scenario_sweep\""),
            "{json}"
        );

        let err = remote_output(
            "unretried",
            "worker.panic@1",
            SWEEP_SPEC,
            cmd_submit,
            |addr, spec, out| strings(&["--addr", addr, "-o", out, spec]),
        )
        .expect_err("one failed submission and no budget to resubmit");
        assert!(err.contains("after 1 submission(s)"), "{err}");
    }

    /// A fresh scratch directory for test `name`.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("malec_cli_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    /// An in-process one-worker server, its cache persisted at `cache`
    /// when given, that has already run the two cells of `SWEEP_SPEC`.
    fn warm_server(cache: Option<PathBuf>) -> ServerHandle {
        let opts = ServeOptions {
            workers: Some(1),
            cache_path: cache,
            ..ServeOptions::default()
        };
        let server = Server::bind_with("127.0.0.1:0", opts)
            .expect("bind")
            .spawn()
            .expect("spawn");
        let client = Client::new(server.addr().to_string());
        let job = client.submit(SWEEP_SPEC).expect("submit");
        client.wait(job, Duration::from_secs(120)).expect("wait");
        server
    }

    fn stop(server: ServerHandle) {
        Client::new(server.addr().to_string())
            .shutdown()
            .expect("shutdown");
        server.join().expect("clean exit");
    }

    #[test]
    fn cache_compact_rewrites_a_persisted_log() {
        let dir = scratch("compact");
        let server = warm_server(Some(dir.join("results.cache")));
        let addr = server.addr().to_string();
        cmd_cache(&strings(&["compact", "--addr", &addr])).expect("a persisted cache compacts");
        let stats = Client::new(addr).cache_stats().expect("stats");
        assert_eq!(stats.compactions, 1, "{stats:?}");
        stop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_compact_of_an_in_memory_cache_fails_with_the_server_message() {
        let server = warm_server(None);
        let addr = server.addr().to_string();
        let err = cmd_cache(&strings(&["compact", "--addr", &addr]))
            .expect_err("an in-memory cache has no log to compact");
        assert!(err.contains("400"), "{err}");
        assert!(
            err.contains("in-memory"),
            "the server's message travels: {err}"
        );
        stop(server);
    }

    #[test]
    fn cache_sync_writes_a_log_that_reloads_every_entry() {
        let dir = scratch("sync");
        let out = dir.join("synced.cache");
        let server = warm_server(None);
        let addr = server.addr().to_string();
        let out_arg = out.to_str().expect("utf-8 path");
        cmd_cache(&strings(&["sync", "--from", &addr, "-o", out_arg])).expect("sync");
        let entries = Client::new(&addr).cache_stats().expect("stats").entries;
        assert_eq!(entries, 2);
        let synced = ResultCache::open(&out).expect("the synced log reopens");
        assert_eq!(synced.stats().entries, entries);
        stop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_sync_from_a_dead_address_names_it() {
        let dir = scratch("sync_dead");
        let out = dir.join("never.cache");
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free port")
            .to_string();
        let out_arg = out.to_str().expect("utf-8 path");
        let err = cmd_cache(&strings(&["sync", "--from", &dead, "-o", out_arg]))
            .expect_err("nothing listens there");
        assert!(err.contains(&dead), "the error names the address: {err}");
        assert!(!out.exists(), "no log is created for a failed sync");
        std::fs::remove_dir_all(&dir).ok();
    }
}
