//! Sharded-serving acceptance tests:
//!
//! * **Shard-map properties** (proptest) — every peer derives the same
//!   owner for the same key whatever its vantage point or flag order;
//!   keys spread over the peer set within loose balance bounds; and
//!   removing one peer reassigns only the keys that peer owned (the
//!   minimal-movement property of rendezvous hashing);
//! * **Two-peer forwarding** — a replication + compare sweep submitted
//!   to either peer of a two-peer cluster produces a report and compare
//!   digest **bit-identical** to a standalone server's, with every cell
//!   simulated exactly once cluster-wide (the sum of per-peer cache
//!   misses equals the cell count);
//! * **Owner loss** — killing the peer that owns the compared pair while
//!   the job is in flight degrades to local simulation on the surviving
//!   peer: the job still completes, bit-identical to standalone;
//! * **The cluster plan** — a compared pair is owned as one (its owner
//!   asks the other peer for nothing), a front door answers a warm
//!   resubmission from its own cache, and a scattered CI-target cluster
//!   grows on the front door to exactly the count its owner stopped at.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use malec_harness::{report_cells, serve};
use malec_serve::client::Client;
use malec_serve::fault::Faults;
use malec_serve::json::{parse, Value};
use malec_serve::server::{ServeOptions, Server, ServerHandle};
use malec_serve::{cache_key, parse_spec, ShardMap};
use proptest::prelude::*;

/// Three config groups, four shared replicate seeds, an explicit compared
/// pair: two ownership clusters (the pair routes as one, `Base2ld1st` as a
/// singleton), twelve cells.
const SHARD_SPEC: &str = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
     [sweep]\nconfigs = [\"Base1ldst\", \"Base2ld1st\", \"MALEC\"]\ninsts = 2000\nseed = 5\nseeds = 4\n\
     [compare]\nbaseline = \"Base1ldst\"\ncandidate = \"MALEC\"\n";

/// The content digest of a compare report (excludes paths and timing).
fn compare_digest_of(report: &str) -> String {
    let v = parse(report).expect("compare report is valid JSON");
    v.get("digest")
        .and_then(Value::as_str)
        .expect("digest field")
        .to_owned()
}

/// Runs `SHARD_SPEC` on a standalone server: the ground truth every
/// cluster run must match bit for bit.
fn standalone_reference() -> (String, String) {
    standalone(SHARD_SPEC, 12)
}

/// Runs `spec` on a standalone server, expecting `n_cells` cells; returns
/// its report cells and compare digest.
fn standalone(spec: &str, n_cells: u64) -> (String, String) {
    let server = serve(ServeOptions {
        workers: Some(2),
        ..ServeOptions::default()
    });
    let client = Client::new(server.addr().to_string());
    let job = client.submit(spec).expect("submit");
    let view = client.wait(job, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.state, "done");
    assert_eq!(view.cells, n_cells);
    let cells = report_cells(&client.report(job).expect("report"));
    let digest = compare_digest_of(&client.compare(job).expect("compare"));
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
    (cells, digest)
}

/// Binds two servers on ephemeral ports and installs the same two-address
/// shard map in both (addresses are only known after binding, so this is
/// the programmatic equivalent of `serve --peers A,B` on each).
fn two_peer_cluster() -> (ServerHandle, ServerHandle, String, String) {
    two_peer_cluster_with([Faults::disarmed(), Faults::disarmed()])
}

/// [`two_peer_cluster`] with a failpoint registry per peer.
fn two_peer_cluster_with(faults: [Arc<Faults>; 2]) -> (ServerHandle, ServerHandle, String, String) {
    let [fa, fb] = faults;
    let opts = |faults| ServeOptions {
        faults,
        ..two_worker_opts()
    };
    let a = Server::bind_with("127.0.0.1:0", opts(fa)).expect("bind a");
    let b = Server::bind_with("127.0.0.1:0", opts(fb)).expect("bind b");
    let addr_a = a.local_addr().expect("addr a").to_string();
    let addr_b = b.local_addr().expect("addr b").to_string();
    let peers = [addr_a.clone(), addr_b.clone()];
    a.engine()
        .set_shard(ShardMap::new(peers.clone(), &addr_a).expect("map a"));
    b.engine()
        .set_shard(ShardMap::new(peers, &addr_b).expect("map b"));
    (
        a.spawn().expect("spawn a"),
        b.spawn().expect("spawn b"),
        addr_a,
        addr_b,
    )
}

fn two_worker_opts() -> ServeOptions {
    ServeOptions {
        workers: Some(2),
        ..ServeOptions::default()
    }
}

#[test]
fn two_peer_cluster_matches_standalone_and_simulates_each_cell_once() {
    let (want_cells, want_digest) = standalone_reference();
    let (ha, hb, addr_a, addr_b) = two_peer_cluster();
    let ca = Client::new(addr_a.clone());
    let cb = Client::new(addr_b.clone());

    // Both peers advertise the same sorted peer set.
    let mut expect = vec![addr_a.clone(), addr_b.clone()];
    expect.sort();
    assert_eq!(ca.peers().expect("peers of a"), expect);
    assert_eq!(cb.peers().expect("peers of b"), expect);

    // Submit through peer A: the front door forwards remotely-owned
    // clusters to their owners, then fetches their cells.
    let job = ca.submit(SHARD_SPEC).expect("submit via a");
    let view = ca.wait(job, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.state, "done", "{:?}", view.error);
    assert_eq!(view.cells, 12);
    assert_eq!(view.failed, 0);

    let got_cells = report_cells(&ca.report(job).expect("report"));
    assert_eq!(
        got_cells, want_cells,
        "the front door's report must be bit-identical"
    );
    let got_digest = compare_digest_of(&ca.compare(job).expect("compare"));
    assert_eq!(
        got_digest, want_digest,
        "compare digest must be bit-identical"
    );

    // Exactly-once simulation cluster-wide: a miss is counted where a
    // simulation starts, so the per-peer miss counts must sum to the cell
    // count — whatever the (deterministic) ownership split was.
    let sa = ca.cache_stats().expect("stats a");
    let sb = cb.cache_stats().expect("stats b");
    assert_eq!(
        sa.misses + sb.misses,
        12,
        "each cell simulated exactly once cluster-wide (a: {}, b: {})",
        sa.misses,
        sb.misses
    );

    // Submitting the identical spec through the *other* peer answers
    // entirely from the cluster's caches: zero new simulations anywhere.
    let again = cb.submit(SHARD_SPEC).expect("submit via b");
    let view = cb
        .wait(again, Duration::from_secs(120))
        .expect("wait again");
    assert_eq!(view.state, "done", "{:?}", view.error);
    assert_eq!(
        view.simulated, 0,
        "resubmission simulates nothing: {view:?}"
    );
    assert_eq!(
        report_cells(&cb.report(again).expect("report via b")),
        want_cells,
        "either front door serves the same bytes"
    );
    let sa = ca.cache_stats().expect("stats a");
    let sb = cb.cache_stats().expect("stats b");
    assert_eq!(sa.misses + sb.misses, 12, "still no duplicate simulations");

    ca.shutdown().expect("shutdown a");
    cb.shutdown().expect("shutdown b");
    ha.join().expect("clean exit a");
    hb.join().expect("clean exit b");
}

#[test]
fn killing_the_pair_owner_mid_job_falls_back_to_local_simulation() {
    let (want_cells, _) = standalone_reference();
    // The first cell on each of a peer's two workers sleeps 400 ms, so the
    // owner is still running the forwarded sub-job, and the forward is
    // held on it, when the abort lands. The abort drops the sub-job's
    // queued cells, so it never settles: only the shutdown's wake
    // releases the held forward.
    let faults = [Faults::disarmed(), Faults::disarmed()];
    for f in &faults {
        f.arm("engine.cell.slow", 1, Some(400));
        f.arm("engine.cell.slow", 2, Some(400));
    }
    let (ha, hb, addr_a, addr_b) = two_peer_cluster_with(faults);

    // Work out which peer owns the compared pair's cluster (it routes by
    // the baseline's replicate-0 key) and submit to the *other* one, so
    // the scatter path genuinely crosses the wire before we cut it.
    let spec = parse_spec(SHARD_SPEC).expect("spec");
    let resolved = spec.resolve_compare().expect("resolved pair");
    let route = cache_key(
        &spec.configs[resolved.baseline],
        &spec.scenario,
        spec.insts,
        spec.seed,
        0,
    );
    let map = ShardMap::new([addr_a.clone(), addr_b.clone()], &addr_a).expect("map");
    let owner = map.owner(route).to_owned();
    let (door, owner_handle, door_handle) = if owner == addr_a {
        (addr_b.clone(), ha, hb)
    } else {
        (addr_a.clone(), hb, ha)
    };

    let client = Client::new(door.clone());
    let job = client.submit(SHARD_SPEC).expect("submit via non-owner");
    // Give the forward a moment to reach the owner, then kill it. Every
    // window is safe: whether the forward, the wait, or a record fetch
    // dies, each cell the owner cannot serve simulates locally.
    std::thread::sleep(Duration::from_millis(25));
    malec_serve::http::request(
        owner.as_str(),
        "POST",
        "/v1/shutdown?mode=abort",
        b"",
        Duration::from_secs(60),
    )
    .expect("abort the owner");
    owner_handle.join().expect("owner exits");

    let view = client.wait(job, Duration::from_secs(120)).expect("wait");
    assert_eq!(
        view.state, "done",
        "owner loss must not fail the job: {:?}",
        view.error
    );
    assert_eq!(view.failed, 0);
    assert_eq!(
        report_cells(&client.report(job).expect("report")),
        want_cells,
        "degraded run is still bit-identical to standalone"
    );
    // The owner's abort released the held forward at once; had it not,
    // the forward would sit out its whole 20 s hold before falling back.
    let wall = view.wall_seconds.expect("a settled job has a wall clock");
    assert!(wall < 10.0, "the front door's job took {wall:.1} s");

    client.shutdown().expect("shutdown survivor");
    door_handle.join().expect("clean exit");
}

/// The peer that owns the replicate-0 key of `config` in `spec`.
fn owner_of(map: &ShardMap, spec: &malec_serve::SweepSpec, config: usize) -> String {
    let key = cache_key(
        &spec.configs[config],
        &spec.scenario,
        spec.insts,
        spec.seed,
        0,
    );
    map.owner(key).to_owned()
}

/// A peer that does not own every cluster of `spec` (the `[compare]` pair
/// routes by its baseline, every other config by itself), so a job
/// submitted there forwards at least one cluster.
fn forwarding_door(spec: &str, addr_a: &str, addr_b: &str) -> String {
    let spec = parse_spec(spec).expect("spec");
    let candidate = spec.resolve_compare().expect("explicit pair").candidate;
    let map = ShardMap::new([addr_a, addr_b], addr_a).expect("map");
    let a_owns_all = (0..spec.configs.len())
        .filter(|&c| c != candidate)
        .all(|c| owner_of(&map, &spec, c) == addr_a);
    if a_owns_all { addr_b } else { addr_a }.to_owned()
}

fn shut_down(handles: [ServerHandle; 2], addrs: [&str; 2]) {
    for addr in addrs {
        Client::new(addr).shutdown().expect("shutdown");
    }
    for handle in handles {
        handle.join().expect("clean exit");
    }
}

#[test]
fn a_compared_pair_is_owned_as_one() {
    // A stall armed at a hit that never comes makes `Faults::hits` count
    // every request a peer serves.
    let faults = [Faults::disarmed(), Faults::disarmed()];
    for f in &faults {
        f.arm("http.read.stall", u64::MAX, None);
    }
    let (ha, hb, addr_a, addr_b) = two_peer_cluster_with(faults.clone());
    let map = ShardMap::new([addr_a.as_str(), addr_b.as_str()], &addr_a).expect("map");
    // The first seed whose baseline and candidate keys have different
    // owners: routed by its own key, the candidate would belong elsewhere.
    let (text, owner) = (1u64..)
        .find_map(|seed| {
            let text = format!(
                "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n[compare]\n\
                 [sweep]\ninsts = 2000\nseed = {seed}\nseeds = 3\n"
            );
            let spec = parse_spec(&text).expect("spec");
            let pair = spec.resolve_compare().expect("pair");
            let owner = owner_of(&map, &spec, pair.baseline);
            (owner != owner_of(&map, &spec, pair.candidate)).then_some((text, owner))
        })
        .expect("some seed splits the pair's keys");
    let other = usize::from(owner == addr_a);

    let client = Client::new(owner.clone());
    let job = client.submit(&text).expect("submit to the pair's owner");
    let view = client.wait(job, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.state, "done", "{:?}", view.error);
    assert_eq!((view.cells, view.simulated), (6, 6), "{view:?}");
    assert_eq!(
        faults[other].hits("http.read.stall"),
        0,
        "the pair's owner runs the candidate too and asks the other peer nothing"
    );
    shut_down([ha, hb], [&addr_a, &addr_b]);
}

#[test]
fn a_front_door_serves_its_warm_resubmission_from_its_own_cache() {
    let (ha, hb, addr_a, addr_b) = two_peer_cluster();
    let client = Client::new(forwarding_door(SHARD_SPEC, &addr_a, &addr_b));
    let cold = client.submit(SHARD_SPEC).expect("cold submit");
    let view = client.wait(cold, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.state, "done", "{:?}", view.error);

    // The cold job landed the forwarded cells in the front door's cache,
    // so the warm one is answered there, with no record fetched again.
    let warm = client.submit(SHARD_SPEC).expect("warm submit");
    let view = client.wait(warm, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.state, "done", "{:?}", view.error);
    assert_eq!((view.cached, view.fetched), (view.cells, 0), "{view:?}");
    shut_down([ha, hb], [&addr_a, &addr_b]);
}

#[test]
fn a_scattered_ci_target_cluster_stops_where_the_owner_stopped() {
    // The pair stops on its paired delta at 5 replicates, `Base2ld1st` on
    // its own CI at the 16-seed cap: 26 cells.
    let spec = "[scenario]\nmode = \"preset\"\npreset = \"mixed_int_media_thrash\"\n[compare]\n\
                [sweep]\nconfigs = [\"Base1ldst\", \"Base2ld1st\", \"MALEC\"]\ninsts = 2000\nseed = 7\n\
                seeds = 16\nmin_seeds = 3\nci_target = 0.03\n";
    let (want_cells, want_digest) = standalone(spec, 26);
    let (ha, hb, addr_a, addr_b) = two_peer_cluster();
    let client = Client::new(forwarding_door(spec, &addr_a, &addr_b));
    let job = client.submit(spec).expect("submit");
    let view = client.wait(job, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.state, "done", "{:?}", view.error);
    assert_eq!(view.cells, 26);
    assert_eq!(
        report_cells(&client.report(job).expect("report")),
        want_cells
    );
    assert_eq!(
        compare_digest_of(&client.compare(job).expect("compare")),
        want_digest
    );
    let misses: u64 = [&addr_a, &addr_b]
        .iter()
        .map(|a| Client::new(a.as_str()).cache_stats().expect("stats").misses)
        .sum();
    assert_eq!(misses, 26, "each cell simulated exactly once cluster-wide");
    shut_down([ha, hb], [&addr_a, &addr_b]);
}

/// Deterministic 64-bit mixer (splitmix64) for spreading proptest seeds
/// into well-distributed synthetic cache keys.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn synthetic_key(seed: u64, i: u64) -> u128 {
    (u128::from(mix(seed ^ i)) << 64) | u128::from(mix(i.wrapping_add(seed)))
}

fn peer_set(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("10.0.0.{i}:4173")).collect()
}

proptest! {
    /// Same key + same peer set => same owner, from every peer's vantage
    /// point — the property that makes sharding coordination-free.
    #[test]
    fn every_vantage_point_agrees_on_the_owner(seed in 0u64..1_000_000_000, n in 2usize..6) {
        let peers = peer_set(n);
        for i in 0..32 {
            let key = synthetic_key(seed, i);
            let owners: Vec<String> = peers
                .iter()
                .map(|p| {
                    ShardMap::new(peers.clone(), p)
                        .expect("valid set")
                        .owner(key)
                        .to_owned()
                })
                .collect();
            prop_assert!(
                owners.windows(2).all(|w| w[0] == w[1]),
                "key {key:032x} got owners {owners:?}"
            );
        }
    }

    /// Ownership spreads over the peer set: over 512 well-mixed keys and 4
    /// peers, every peer owns a sane share (expected 128; the bounds are
    /// ~6 sigma, so a systematic skew fails and statistical noise never
    /// does).
    #[test]
    fn keys_balance_over_the_peer_set(seed in 0u64..1_000_000_000) {
        let peers = peer_set(4);
        let map = ShardMap::new(peers.clone(), &peers[0]).expect("valid set");
        let mut counts: HashMap<String, usize> = HashMap::new();
        for i in 0..512 {
            *counts
                .entry(map.owner(synthetic_key(seed, i)).to_owned())
                .or_insert(0) += 1;
        }
        for p in &peers {
            let share = counts.get(p).copied().unwrap_or(0);
            prop_assert!(
                (64..=256).contains(&share),
                "peer {p} owns {share}/512 keys: {counts:?}"
            );
        }
    }

    /// Minimal movement: removing one peer reassigns only the keys that
    /// peer owned — every other key keeps its owner. (Read in reverse,
    /// adding a peer steals keys only for itself.)
    #[test]
    fn removing_a_peer_moves_only_its_own_keys(seed in 0u64..1_000_000_000, n in 3usize..6) {
        let peers = peer_set(n);
        let full = ShardMap::new(peers.clone(), &peers[0]).expect("full set");
        let shrunk = ShardMap::new(peers[..n - 1].to_vec(), &peers[0]).expect("shrunk set");
        let removed = &peers[n - 1];
        for i in 0..256 {
            let key = synthetic_key(seed, i);
            let before = full.owner(key);
            if before != removed {
                prop_assert_eq!(
                    before,
                    shrunk.owner(key),
                    "key {:032x} moved although its owner survived", key
                );
            }
        }
    }
}
