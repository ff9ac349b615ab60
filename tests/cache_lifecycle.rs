//! Cache-log lifecycle acceptance tests: size-bounded eviction, atomic
//! compaction, and `/v1/cache/sync` peer warm-up.
//!
//! * **Serving consistency (proptest)** — over arbitrary interleavings of
//!   insert, lookup, compact, and capped reopen, every key the in-memory
//!   map serves is **bit-identical** to what an uncapped cold reopen of
//!   the current log serves. Eviction may lose availability; it must never
//!   lose correctness.
//! * **Kill mid-compaction** — a compaction torn mid-rewrite (the
//!   `cache.compact.torn` failpoint is `kill -9` in miniature) leaves the
//!   old log byte-identical; a retried compaction succeeds and a restarted
//!   server still serves everything from cache.
//! * **Peer warm-up** — a fresh server warmed over `/v1/cache/sync` serves
//!   a resubmitted spec with zero simulated cells and a per-cell report
//!   bit-identical to the donor's.
//! * **Auto-compaction** — eviction under a byte cap generates dead log
//!   bytes; crossing `compact_threshold` compacts in place without any
//!   operator action.

use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use malec_core::{digest, RunSummary, ScenarioSource, Simulator};
use malec_harness::{report_cells, serve, tmp_dir};
use malec_serve::client::Client;
use malec_serve::fault::Faults;
use malec_serve::http::request;
use malec_serve::server::{ServeOptions, Server};
use malec_serve::{cache, ResultCache};
use malec_trace::scenario::preset_named;
use malec_types::SimConfig;
use proptest::prelude::*;

/// A small two-cell spec reused across the e2e tests.
const SMALL_SPEC: &str = "[scenario]\nmode = \"preset\"\npreset = \"tlb_thrash\"\n\
     [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 1500\nseed = 7\n";

/// The network timeout of a raw `http::request` round trip.
const TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------------
// Serving consistency under insert/evict/compact/reopen (proptest)
// ---------------------------------------------------------------------------

/// A pool of distinct summaries, simulated once: op sequences index into
/// it instead of re-running the simulator per proptest case.
fn pool() -> &'static Vec<Arc<RunSummary>> {
    static POOL: OnceLock<Vec<Arc<RunSummary>>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..6u64)
            .map(|seed| {
                let scenario = preset_named("store_burst").expect("preset");
                Arc::new(
                    Simulator::new(SimConfig::malec())
                        .run_source(&ScenarioSource::Scenario(scenario), 2_000, seed)
                        .expect("generator sources cannot fail"),
                )
            })
            .collect()
    })
}

fn pool_key(i: usize) -> u128 {
    0xC0FF_EE00 + i as u128
}

/// The invariant: every key the capped in-memory map serves is
/// bit-identical to what an uncapped cold reopen of the current log
/// serves. (The reverse need not hold — an evicted key lives only on
/// disk until the next compaction.)
fn assert_memory_matches_disk(capped: &mut ResultCache, path: &Path) {
    let mut cold = ResultCache::open(path).expect("cold reopen of a live log");
    for i in 0..pool().len() {
        let key = pool_key(i);
        if let Some(served) = capped.lookup(key) {
            let on_disk = cold.lookup(key);
            prop_assert!(
                on_disk.is_some(),
                "key {key:#x} serves from memory but is absent from the log"
            );
            prop_assert_eq!(
                digest(&served.decode()),
                digest(&on_disk.expect("checked").decode()),
                "key {:#x}: memory and cold reopen disagree",
                key
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings of insert / lookup (an LRU touch) /
    /// compact / capped reopen preserve the serving invariant at every
    /// step, and eviction never leaves more than the cap plus the newest
    /// record resident.
    #[test]
    fn prop_interleaved_lifecycle_preserves_serving_consistency(
        ops in proptest::collection::vec((0u8..8, 0usize..6), 1..12),
    ) {
        let samples = pool();
        // Cap at roughly two records, so inserts beyond the second evict.
        let cap: u64 = samples
            .iter()
            .take(2)
            .map(|s| cache::encode_record(0, s).len() as u64)
            .sum();

        let dir = tmp_dir("lifecycle_prop");
        let path = dir.join(format!("interleave_{:x}.cache", fingerprint(&ops)));
        std::fs::remove_file(&path).ok();
        let mut c = ResultCache::open(&path)
            .expect("open")
            .with_max_bytes(Some(cap));

        for &(op, i) in &ops {
            match op {
                // Weighted toward inserts: they drive eviction and dead bytes.
                0..=4 => c
                    .insert(pool_key(i), cache::StoredSummary::encode(&samples[i]))
                    .expect("insert"),
                5 => drop(c.lookup(pool_key(i))),
                6 => drop(c.compact().expect("compact")),
                7 => {
                    c = ResultCache::open(&path)
                        .expect("reopen")
                        .with_max_bytes(Some(cap));
                }
                _ => unreachable!(),
            }
            let stats = c.stats();
            prop_assert!(
                stats.live_bytes <= cap || stats.entries == 1,
                "cap {} exceeded with {} entries resident ({} live bytes)",
                cap, stats.entries, stats.live_bytes
            );
            assert_memory_matches_disk(&mut c, &path);
        }
        drop(c);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A stable per-case fingerprint so concurrent proptest cases never share
/// a log file.
fn fingerprint(ops: &[(u8, usize)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(op, i) in ops {
        for b in [op, i as u8] {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Kill mid-compaction
// ---------------------------------------------------------------------------

/// A compaction that dies mid-rewrite must leave the old log intact (the
/// rename never ran); the temp is swept, a retry succeeds, and a restarted
/// server serves everything warm.
#[test]
fn kill_mid_compaction_leaves_the_old_log_intact_and_a_retry_succeeds() {
    let dir = tmp_dir("lifecycle_torn_compact");
    let cache_path = dir.join("results.cache");

    let faults = Faults::disarmed();
    faults.arm("cache.compact.torn", 1, Some(1)); // die after 1 rewritten record
    let server = serve(ServeOptions {
        workers: Some(2),
        cache_path: Some(cache_path.clone()),
        faults,
        ..ServeOptions::default()
    });
    let addr = server.addr();
    let client = Client::new(addr.to_string());
    let view = client
        .wait(
            client.submit(SMALL_SPEC).expect("submit"),
            Duration::from_secs(60),
        )
        .expect("wait");
    assert_eq!(view.simulated, 2);
    let pristine = std::fs::read(&cache_path).expect("read log");

    // First compaction hits the failpoint mid-rewrite.
    let resp = request(addr, "POST", "/v1/cache/compact", b"", TIMEOUT).expect("request");
    let (status, body) = (resp.status, resp.text().expect("body"));
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("torn"), "{body}");
    assert_eq!(
        std::fs::read(&cache_path).expect("reread").as_slice(),
        pristine.as_slice(),
        "a torn compaction must not touch the live log"
    );

    // The retry compacts for real; the log was already fully live, so the
    // record count is unchanged.
    let resp = request(addr, "POST", "/v1/cache/compact", b"", TIMEOUT).expect("request");
    let (status, body) = (resp.status, resp.text().expect("body"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"live_records\": 2"), "{body}");
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    // Restart on the compacted log: zero simulations.
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
    assert_eq!(view.simulated, 0, "the compacted log serves everything");
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Peer warm-up over /v1/cache/sync
// ---------------------------------------------------------------------------

/// A fresh server warmed from a running peer serves the same spec with
/// zero simulated cells and a per-cell report bit-identical to the
/// donor's.
#[test]
fn warmed_peer_serves_the_resubmission_without_simulating() {
    let dir = tmp_dir("lifecycle_warm");
    let donor = serve(ServeOptions {
        workers: Some(2),
        cache_path: Some(dir.join("donor.cache")),
        ..ServeOptions::default()
    });
    let donor_client = Client::new(donor.addr().to_string());
    let job = donor_client.submit(SMALL_SPEC).expect("submit");
    let view = donor_client
        .wait(job, Duration::from_secs(60))
        .expect("wait");
    assert_eq!(view.simulated, 2);
    let want = report_cells(&donor_client.report(job).expect("report"));

    // Bind the peer, warm it to 100% *before* it serves, then spawn.
    let peer = Server::bind_with(
        "127.0.0.1:0",
        ServeOptions {
            workers: Some(2),
            cache_path: Some(dir.join("peer.cache")),
            ..ServeOptions::default()
        },
    )
    .expect("bind peer");
    let report = peer
        .engine()
        .warm_from(&donor.addr().to_string())
        .expect("warm");
    assert_eq!(report.records, 2, "{report:?}");
    assert_eq!(report.inserted, 2, "{report:?}");
    assert!(report.damaged.is_none(), "{report:?}");
    let peer = peer.spawn().expect("spawn peer");

    let peer_client = Client::new(peer.addr().to_string());
    let job = peer_client.submit(SMALL_SPEC).expect("resubmit");
    let view = peer_client
        .wait(job, Duration::from_secs(60))
        .expect("wait");
    assert_eq!(view.simulated, 0, "warm-up covered every cell: {view:?}");
    assert_eq!(view.served_without_simulation(), view.cells);
    assert_eq!(
        report_cells(&peer_client.report(job).expect("report")),
        want,
        "the warmed peer's report must be bit-identical to the donor's"
    );

    donor_client.shutdown().expect("shutdown donor");
    peer_client.shutdown().expect("shutdown peer");
    donor.join().expect("clean exit");
    peer.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Auto-compaction under an eviction cap
// ---------------------------------------------------------------------------

/// Under a byte cap, every eviction strands a dead record in the log;
/// once the dead ratio crosses `compact_threshold`, the append that
/// crossed it compacts in place — no operator in the loop.
#[test]
fn eviction_generated_dead_bytes_trigger_auto_compaction() {
    let dir = tmp_dir("lifecycle_auto_compact");
    let server = serve(ServeOptions {
        workers: Some(1),
        cache_path: Some(dir.join("results.cache")),
        cache_max_bytes: Some(2_000),
        compact_threshold: Some(0.5),
        ..ServeOptions::default()
    });
    let client = Client::new(server.addr().to_string());

    // Distinct seeds make distinct cells: fill well past the cap, and
    // past the 4,096-byte floor below which a log never auto-compacts
    // (24 records of about 250 bytes append about 6 KB).
    for seed in 0..24u64 {
        let spec = format!(
            "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
             [sweep]\nconfigs = [\"MALEC\"]\ninsts = 1500\nseed = {seed}\n",
        );
        let view = client
            .wait(
                client.submit(&spec).expect("submit"),
                Duration::from_secs(60),
            )
            .expect("wait");
        assert_eq!(view.state, "done");
    }

    let stats = client.cache_stats().expect("stats");
    assert!(stats.evicted > 0, "the cap must have evicted: {stats:?}");
    assert!(
        stats.compactions > 0,
        "eviction-generated dead bytes must have triggered compaction: {stats:?}"
    );
    assert!(
        stats.log_bytes < stats.bytes_appended,
        "the compacted log is smaller than the sum of appends: {stats:?}"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}
