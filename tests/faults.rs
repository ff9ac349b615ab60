//! Fault-tolerance acceptance tests for the `malec-serve` batch service,
//! driven by the deterministic failpoint registry (`malec_serve::fault`):
//!
//! * **Chaos convergence** — the replication sweep spec run under a seeded
//!   fault schedule (a worker panic, a torn cache append, an injected 500)
//!   with a retrying client converges to a report whose per-cell content is
//!   **bit-identical** to a fault-free run of the same spec;
//! * **Crash-safe recovery** — a proptest over arbitrary cache-log damage
//!   (byte flips and truncation within the last three records): recovery
//!   never panics, never serves a corrupt record, and always preserves the
//!   longest valid prefix — both in the in-memory map and on disk;
//! * **Graceful drain** — `POST /v1/shutdown` lets in-flight jobs complete
//!   and flushes the cache log before the process exits (the regression
//!   test for the shutdown bugfix), while `?mode=abort` returns promptly
//!   even with slow cells in flight;
//! * **Bounded job map** — terminal jobs expire once past the retention
//!   count, and expired ids answer 404;
//! * **Warm restart after a crash mid-append** — garbage appended to the
//!   log (a torn final record) is dropped on reopen and every intact
//!   record still serves.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use malec_harness::{report_cells, serve, tmp_dir};
use malec_serve::client::{Client, RetryPolicy};
use malec_serve::fault::Faults;
use malec_serve::http::request;
use malec_serve::server::{ServeOptions, Server};
use malec_serve::ResultCache;
use proptest::prelude::*;

/// The multi-seed replication sweep (mirrors
/// `examples/scenarios/replication.toml`): one config, four replicate
/// seeds — four cells.
const REPLICATION_SPEC: &str = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
     [sweep]\nconfigs = [\"MALEC\"]\ninsts = 20000\nseed = 2013\nseeds = 4\n";

/// A small two-cell spec for lifecycle tests.
const SMALL_SPEC: &str = "[scenario]\nmode = \"preset\"\npreset = \"tlb_thrash\"\n\
     [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 1500\nseed = 7\n";

/// The network timeout of a raw `http::request` round trip.
const TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------------
// Chaos convergence
// ---------------------------------------------------------------------------

/// The replication sweep under a seeded fault schedule — one worker panic
/// (fails the job), one torn cache append (rolled back in place), one
/// injected HTTP 500 (absorbed by the client's retry policy) — must
/// converge, via idempotent resubmission, to a report bit-identical to a
/// fault-free run. Completed cells are cached across the failure, so the
/// resubmission re-simulates only the panicked cell.
#[test]
fn chaos_schedule_converges_to_the_fault_free_report() {
    // Ground truth: a fault-free server.
    let clean = serve(ServeOptions {
        workers: Some(2),
        ..ServeOptions::default()
    });
    let truth = Client::new(clean.addr().to_string());
    let job = truth.submit(REPLICATION_SPEC).expect("submit");
    let view = truth.wait(job, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.state, "done");
    assert_eq!(view.cells, 4, "1 config x 4 replicate seeds");
    let want = report_cells(&truth.report(job).expect("report"));
    truth.shutdown().expect("shutdown");
    clean.join().expect("clean exit");

    // The same sweep under fire.
    let dir = tmp_dir("faults_chaos");
    let faults = Faults::disarmed();
    faults.arm("worker.panic", 2, None); // the 2nd simulated cell panics
    faults.arm("cache.append.torn", 1, Some(9)); // the 1st append tears mid-record
    faults.arm("http.respond.500", 2, None); // the 2nd HTTP response is damaged
    let server = serve(ServeOptions {
        workers: Some(2),
        cache_path: Some(dir.join("results.cache")),
        faults: std::sync::Arc::clone(&faults),
        ..ServeOptions::default()
    });
    let client = Client::new(server.addr().to_string()).with_retry(RetryPolicy::retries(3));

    let first = client.submit(REPLICATION_SPEC).expect("submit");
    let (_, view) = client
        .wait_with_resubmits(REPLICATION_SPEC, first, Duration::from_secs(120), 3)
        .expect("resubmission rides out the injected faults");
    assert_eq!(view.state, "done");
    assert_eq!(view.pending, 0);
    assert!(
        view.served_without_simulation() >= 3,
        "cells that completed before the panic are reused, not re-run: {view:?}"
    );
    assert_eq!(faults.fired_total(), 3, "every scheduled fault fired");

    // Provenance differs (simulated vs cached); the content may not.
    let got = report_cells(&client.report(view.job).expect("report"));
    assert_eq!(
        got, want,
        "chaos run must be bit-identical to the clean run"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Crash-safe cache recovery (proptest)
// ---------------------------------------------------------------------------

/// A pristine cache log plus its record boundaries, built once: offsets of
/// each record start and the log's total length.
struct PristineLog {
    bytes: Vec<u8>,
    /// Byte offset where each record starts (after the 5-byte header).
    starts: Vec<usize>,
}

fn pristine_log() -> &'static PristineLog {
    static LOG: OnceLock<PristineLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let dir = tmp_dir("faults_pristine");
        let path = dir.join("pristine.cache");
        std::fs::remove_file(&path).ok();
        let server = serve(ServeOptions {
            workers: Some(2),
            cache_path: Some(path.clone()),
            ..ServeOptions::default()
        });
        let client = Client::new(server.addr().to_string());
        let view = client
            .wait(
                client.submit(REPLICATION_SPEC).expect("submit"),
                Duration::from_secs(120),
            )
            .expect("wait");
        assert_eq!(view.state, "done");
        client.shutdown().expect("shutdown"); // drain flushes the log
        server.join().expect("clean exit");

        let bytes = std::fs::read(&path).expect("read log");
        std::fs::remove_dir_all(&dir).ok();

        // Walk the record frames: key u128 | ver u8 | len u32 | sum u64 | body.
        let mut starts = Vec::new();
        let mut off = 5; // magic + version
        while off < bytes.len() {
            starts.push(off);
            let len =
                u32::from_le_bytes(bytes[off + 17..off + 21].try_into().expect("len")) as usize;
            off += 16 + 1 + 4 + 8 + len;
        }
        assert_eq!(off, bytes.len(), "log parses to a whole number of records");
        assert_eq!(starts.len(), 4, "4 replicate cells, 4 records");
        PristineLog { bytes, starts }
    })
}

/// End offset of record `i` (== start of record `i + 1`).
fn record_end(log: &PristineLog, i: usize) -> usize {
    log.starts.get(i + 1).copied().unwrap_or(log.bytes.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary damage confined to the last three records — any number of
    /// single-bit flips plus an optional truncation — must recover the
    /// longest valid prefix: `open` succeeds, loads exactly the records
    /// before the earliest damaged byte, and truncates the file to that
    /// prefix so no corrupt byte survives on disk either.
    #[test]
    fn prop_cache_log_damage_recovers_the_longest_valid_prefix(
        flips in proptest::collection::vec((0usize..3, 0usize..10_000, 0u32..8), 0..4),
        cut in proptest::option::of(0usize..10_000),
    ) {
        let log = pristine_log();
        let n = log.starts.len();
        let window_start = log.starts[n - 3];
        let mut damaged = log.bytes.clone();

        // Earliest damaged offset decides how many records survive.
        let mut first_damage = damaged.len();
        for &(rec, byte, bit) in &flips {
            let rec = n - 3 + rec;
            let (start, end) = (log.starts[rec], record_end(log, rec));
            let off = start + byte % (end - start);
            damaged[off] ^= 1u8 << bit;
            first_damage = first_damage.min(off);
        }
        if let Some(cut) = cut {
            let off = window_start + cut % (damaged.len() - window_start);
            damaged.truncate(off);
            first_damage = first_damage.min(off);
        }
        let expect = log.starts.iter().filter(|&&s| record_end_at(log, s) <= first_damage).count();

        let dir = tmp_dir("faults_prop");
        let path = dir.join("damaged.cache");
        std::fs::write(&path, &damaged).expect("write damaged log");
        let cache = ResultCache::open(&path).expect("recovery must not refuse the log");
        prop_assert_eq!(
            cache.stats().loaded as usize,
            expect,
            "longest valid prefix: damage at byte {}", first_damage
        );
        drop(cache);
        let salvaged = std::fs::read(&path).expect("reread");
        let good_end = log.starts.get(expect).copied().unwrap_or(log.bytes.len());
        prop_assert_eq!(
            salvaged.as_slice(),
            &log.bytes[..good_end],
            "the file is truncated to the pristine prefix — no corrupt byte survives"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// End offset of the record starting at `s`.
fn record_end_at(log: &PristineLog, s: usize) -> usize {
    let i = log
        .starts
        .iter()
        .position(|&x| x == s)
        .expect("a record start");
    record_end(log, i)
}

// ---------------------------------------------------------------------------
// Graceful drain and abort (the shutdown bugfix regression)
// ---------------------------------------------------------------------------

/// `POST /v1/shutdown` must let in-flight jobs complete and flush the
/// cache log before exiting: a cold reopen of the cache sees every cell,
/// and a restarted server serves the resubmission without simulating.
#[test]
fn graceful_drain_completes_inflight_jobs_and_flushes_the_log() {
    let dir = tmp_dir("faults_drain");
    let cache_path = dir.join("results.cache");

    let faults = Faults::disarmed();
    faults.arm("engine.cell.slow", 1, Some(150)); // shutdown races a busy cell
    let server = serve(ServeOptions {
        workers: Some(2),
        cache_path: Some(cache_path.clone()),
        faults,
        ..ServeOptions::default()
    });
    let client = Client::new(server.addr().to_string());
    client.submit(SMALL_SPEC).expect("submit");
    // No wait: the drain itself must finish the work.
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    let cache = ResultCache::open(&cache_path).expect("reopen");
    assert_eq!(
        cache.stats().loaded,
        2,
        "both cells completed and persisted before exit"
    );
    drop(cache);

    // Restart warm: the same spec costs zero simulations.
    let server = serve(ServeOptions {
        workers: Some(2),
        cache_path: Some(cache_path),
        ..ServeOptions::default()
    });
    let client = Client::new(server.addr().to_string());
    let view = client
        .wait(
            client.submit(SMALL_SPEC).expect("resubmit"),
            Duration::from_secs(60),
        )
        .expect("wait");
    assert_eq!(view.simulated, 0, "warm restart serves from the log");
    assert_eq!(view.cached, 2);
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// `?mode=abort` is the escape hatch: it drops queued work instead of
/// draining it. The cell a worker is *currently* simulating still finishes
/// (workers are joined, never killed), but the queue behind it does not —
/// with one worker and two slow cells, an abort exits after roughly one
/// cell where a drain would wait out both.
#[test]
fn abort_shutdown_skips_the_drain() {
    let faults = Faults::disarmed();
    faults.arm("engine.cell.slow", 1, Some(1_200));
    faults.arm("engine.cell.slow", 2, Some(1_200));
    let server = serve(ServeOptions {
        workers: Some(1),
        faults,
        ..ServeOptions::default()
    });
    let addr = server.addr();
    let client = Client::new(addr.to_string());
    client.submit(SMALL_SPEC).expect("submit");
    std::thread::sleep(Duration::from_millis(50)); // let the worker pick cell 1

    let begin = Instant::now();
    let resp = request(addr, "POST", "/v1/shutdown?mode=abort", b"", TIMEOUT).expect("abort");
    let (status, body) = (resp.status, resp.text().expect("body"));
    assert_eq!(status, 200, "{body}");
    server.join().expect("exit");
    assert!(
        begin.elapsed() < Duration::from_secs(2),
        "abort must not drain the queued second cell (took {:?})",
        begin.elapsed()
    );
}

// ---------------------------------------------------------------------------
// Bounded job map
// ---------------------------------------------------------------------------

/// Terminal jobs expire once past the retention count; expired ids answer
/// 404 while the newest jobs still resolve.
#[test]
fn terminal_jobs_expire_and_answer_404() {
    let server = serve(ServeOptions {
        workers: Some(2),
        retain_done: 1,
        ..ServeOptions::default()
    });
    let client = Client::new(server.addr().to_string());
    let first = client.submit(SMALL_SPEC).expect("submit");
    client.wait(first, Duration::from_secs(60)).expect("wait");
    let second = client.submit(SMALL_SPEC).expect("resubmit");
    client.wait(second, Duration::from_secs(60)).expect("wait");
    // Submitting a third job sweeps the terminal backlog past the cap.
    let third = client.submit(SMALL_SPEC).expect("third");
    client.wait(third, Duration::from_secs(60)).expect("wait");

    let err = client.status(first).expect_err("first job expired");
    assert!(err.contains("404"), "{err}");
    client.status(third).expect("the newest job still resolves");
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
}

// ---------------------------------------------------------------------------
// Warm restart after a crash mid-append
// ---------------------------------------------------------------------------

/// A crash mid-append leaves a torn final record. Reopening drops exactly
/// the tear and a restarted server still serves every intact record.
#[test]
fn crash_mid_append_recovers_warm_on_restart() {
    let dir = tmp_dir("faults_crash");
    let cache_path = dir.join("results.cache");

    let server = serve(ServeOptions {
        workers: Some(2),
        cache_path: Some(cache_path.clone()),
        ..ServeOptions::default()
    });
    let client = Client::new(server.addr().to_string());
    let view = client
        .wait(
            client.submit(SMALL_SPEC).expect("submit"),
            Duration::from_secs(60),
        )
        .expect("wait");
    assert_eq!(view.simulated, 2);
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    // The "crash": a record torn off mid-write (a plausible key + length
    // header, body cut short), as `kill -9` mid-append would leave it.
    let intact = std::fs::metadata(&cache_path).expect("meta").len();
    let mut torn = vec![0xABu8; 16]; // key
    torn.push(2); // key-version byte
    torn.extend_from_slice(&400u32.to_le_bytes()); // claims 400 body bytes
    torn.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes()); // sum
    torn.extend_from_slice(&[0x55; 37]); // ...but only 37 arrived
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .append(true)
        .open(&cache_path)
        .expect("open log")
        .write_all(&torn)
        .expect("tear");

    let server = serve(ServeOptions {
        workers: Some(2),
        cache_path: Some(cache_path.clone()),
        ..ServeOptions::default()
    });
    let client = Client::new(server.addr().to_string());
    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.loaded, 2, "every intact record survives the tear");
    let view = client
        .wait(
            client.submit(SMALL_SPEC).expect("resubmit"),
            Duration::from_secs(60),
        )
        .expect("wait");
    assert_eq!(view.simulated, 0, "warm restart after the crash");
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    assert_eq!(
        std::fs::metadata(&cache_path).expect("meta").len(),
        intact,
        "reopen truncated exactly the torn record"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Stall failpoints (http.read.stall, cache.sync.stall)
// ---------------------------------------------------------------------------

/// `http.read.stall` holds a connection handler before it reads the
/// request. The point injects latency, not loss: the stalled request must
/// still be answered correctly, the delay must be visible as wall-clock
/// latency on exactly the armed hit, and later requests ride through.
#[test]
fn read_stall_delays_exactly_one_request_without_dropping_it() {
    let faults = Faults::disarmed();
    faults.arm("http.read.stall", 1, Some(250)); // 1st connection stalls 250ms
    let server = serve(ServeOptions {
        workers: Some(1),
        faults: std::sync::Arc::clone(&faults),
        ..ServeOptions::default()
    });
    let addr = server.addr().to_string();

    let t0 = Instant::now();
    let status = request(&addr, "GET", "/v1/healthz", b"", TIMEOUT)
        .expect("stalled request completes")
        .status;
    assert_eq!(status, 200);
    assert!(
        t0.elapsed() >= Duration::from_millis(250),
        "the armed stall must show up as latency, got {:?}",
        t0.elapsed()
    );

    let status = request(&addr, "GET", "/v1/healthz", b"", TIMEOUT)
        .expect("unstalled request")
        .status;
    assert_eq!(status, 200);
    assert_eq!(faults.fired("http.read.stall"), 1, "one-shot trigger");
    assert!(
        faults.hits("http.read.stall") >= 2,
        "every connection is checked"
    );

    let client = Client::new(addr);
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
}

/// `cache.sync.stall` splits the `/v1/cache/sync` stream into two flushed
/// halves with a delay between them. A peer warming up across the stall
/// must still receive every record intact — the receiver's per-record
/// verification tolerates a slow donor without dropping data.
#[test]
fn sync_stall_slows_the_stream_but_the_peer_warms_completely() {
    let dir = tmp_dir("faults_sync_stall");
    let faults = Faults::disarmed();
    faults.arm("cache.sync.stall", 1, Some(250)); // 1st sync stalls mid-stream
    let donor = serve(ServeOptions {
        workers: Some(2),
        cache_path: Some(dir.join("donor.cache")),
        faults: std::sync::Arc::clone(&faults),
        ..ServeOptions::default()
    });
    let donor_client = Client::new(donor.addr().to_string());
    let job = donor_client.submit(SMALL_SPEC).expect("submit");
    let view = donor_client
        .wait(job, Duration::from_secs(60))
        .expect("wait");
    assert_eq!(view.simulated, 2, "donor populated its cache");

    let peer = Server::bind_with(
        "127.0.0.1:0",
        ServeOptions {
            workers: Some(1),
            ..ServeOptions::default()
        },
    )
    .expect("bind peer");
    let t0 = Instant::now();
    let report = peer
        .engine()
        .warm_from(&donor.addr().to_string())
        .expect("warm-up succeeds across the stall");
    assert!(
        t0.elapsed() >= Duration::from_millis(250),
        "the stall sat in the middle of the stream, got {:?}",
        t0.elapsed()
    );
    assert_eq!(report.records, 2, "{report:?}");
    assert_eq!(
        report.inserted, 2,
        "no record lost to the stall: {report:?}"
    );
    assert!(report.damaged.is_none(), "{report:?}");
    assert_eq!(faults.fired("cache.sync.stall"), 1);

    donor_client.shutdown().expect("shutdown donor");
    donor.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}
