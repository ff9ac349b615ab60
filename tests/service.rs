//! End-to-end acceptance tests for the `malec-serve` batch service:
//!
//! * a spec submitted over HTTP produces per-cell results **bit-identical**
//!   to a local `malec-cli run` of the same spec (compared by behavioral
//!   digest, which folds every counter);
//! * resubmitting an identical spec is served **entirely** from the result
//!   cache — zero cells re-simulated — and the cache stats say so;
//! * four clients submitting the same spec **concurrently** all get
//!   bit-identical reports while the in-flight deduplication keeps the
//!   total number of simulations at one per unique cell;
//! * a persisted cache survives a server restart warm;
//! * a paired `[compare]` spec submitted over HTTP yields deltas
//!   bit-identical to a local `malec-cli compare` run — including across a
//!   server restart, with **zero** cells re-simulated.

use std::time::Duration;

use malec_cli::compare::compare_parsed_spec;
use malec_cli::run::run_parsed_spec;
use malec_harness::tmp_dir;
use malec_serve::client::Client;
use malec_serve::json::{parse, Value};
use malec_serve::parse_spec;
use malec_serve::server::Server;

/// The spec both sides run. Three Table I configurations = three cells.
fn spec_toml(name: &str) -> String {
    format!(
        "[scenario]\nname = \"{name}\"\nmode = \"mixed\"\nblock = 24\n\
         [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\nweight = 2\n\
         [[scenario.part]]\nkind = \"store_burst\"\nweight = 1\n\
         [sweep]\nconfigs = [\"Base1ldst\", \"Base2ld1st\", \"MALEC\"]\ninsts = 4000\nseed = 17\n\
         [report]\nout = \"{name}.json\"\nmtr = \"{name}.mtr\"\n"
    )
}

/// The `config -> digest` pairs of a server report, in cell order.
fn report_digests(report: &str) -> Vec<(String, String)> {
    let v = parse(report).expect("report is valid JSON");
    v.get("cells")
        .and_then(Value::as_array)
        .expect("cells array")
        .iter()
        .map(|c| {
            (
                c.get("config")
                    .and_then(Value::as_str)
                    .expect("config")
                    .to_owned(),
                c.get("digest")
                    .and_then(Value::as_str)
                    .expect("digest")
                    .to_owned(),
            )
        })
        .collect()
}

#[test]
fn submitted_jobs_match_local_runs_and_resubmission_is_fully_cached() {
    let dir = tmp_dir("service_roundtrip");
    let cache_path = dir.join("results.cache");
    let toml = spec_toml("svc_roundtrip");

    // Local ground truth: the ordinary record → sweep → replay-verify run.
    let local = run_parsed_spec(
        parse_spec(&toml).expect("spec parses"),
        "inline",
        &dir,
        None,
    )
    .expect("local run");
    assert!(local.all_replays_match());

    let server = Server::bind("127.0.0.1:0", Some(2), Some(&cache_path))
        .expect("bind")
        .spawn()
        .expect("spawn");
    let client = Client::new(server.addr().to_string());

    // First submission: cold cache, every cell simulated — and every cell
    // digest bit-identical to the local run.
    let first = client.submit(&toml).expect("submit");
    let view = client.wait(first, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.cells, 3);
    assert_eq!(view.simulated, 3, "cold cache simulates all cells");
    let server_digests = report_digests(&client.report(first).expect("report"));
    assert_eq!(server_digests.len(), local.cells.len());
    for (cell, (config, digest)) in local.cells.iter().zip(&server_digests) {
        assert_eq!(&cell.generated.config, config, "cell order is spec order");
        assert_eq!(
            &format!("{:#018x}", cell.digest),
            digest,
            "{config}: server cell must be bit-identical to the local run"
        );
    }

    // Second submission: identical spec, zero simulations.
    let second = client.submit(&toml).expect("resubmit");
    let view = client.wait(second, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.simulated, 0, "nothing may re-simulate");
    assert_eq!(
        view.served_without_simulation(),
        view.cells,
        "the resubmission is served entirely from the result cache"
    );
    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.entries, 3);
    assert!(stats.hits >= 3, "stats record the cache service: {stats:?}");
    assert_eq!(
        report_digests(&client.report(second).expect("report")),
        server_digests,
        "cached report is bit-identical to the simulated one"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    // Restart on the same cache log: still zero simulations (warm disk).
    let server = Server::bind("127.0.0.1:0", Some(2), Some(&cache_path))
        .expect("rebind")
        .spawn()
        .expect("respawn");
    let client = Client::new(server.addr().to_string());
    let stats = client.cache_stats().expect("stats");
    assert_eq!(stats.loaded, 3, "the log replays on open");
    let third = client.submit(&toml).expect("submit after restart");
    let view = client.wait(third, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.simulated, 0, "restarts keep the cache warm");
    assert_eq!(
        report_digests(&client.report(third).expect("report")),
        server_digests,
        "persisted summaries are bit-identical"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paired_compare_survives_restart_and_matches_local_with_zero_resimulation() {
    let dir = tmp_dir("service_compare");
    let cache_path = dir.join("results.cache");
    let toml = "[scenario]\nname = \"svc_cmp\"\nmode = \"mixed\"\nblock = 24\n\
                [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\nweight = 2\n\
                [[scenario.part]]\nkind = \"store_burst\"\nweight = 1\n\
                [compare]\nbaseline = \"Base1ldst\"\ncandidate = \"MALEC\"\nalpha = 0.05\n\
                [sweep]\ninsts = 4000\nseed = 17\nseeds = 4\n\
                [report]\nout = \"svc_cmp.json\"\nmtr = \"svc_cmp.mtr\"\ncompare = \"svc_cmp_compare.json\"\n";

    // Local ground truth: the `malec-cli compare` pipeline.
    let local = compare_parsed_spec(parse_spec(toml).expect("spec parses"), "inline", &dir, None)
        .expect("local compare");
    assert_eq!(local.stats.n, 4);

    // The comparative fingerprint of a compare report: its behavioral
    // digest and the parsed delta blocks (run facts like workers/wall may
    // legitimately differ between drivers).
    let fingerprint = |json: &str| {
        let v = parse(json).expect("compare report is valid JSON");
        (
            v.get("digest")
                .and_then(Value::as_str)
                .expect("digest")
                .to_owned(),
            format!("{:?}", v.get("deltas").expect("deltas")),
            v.get("workload")
                .and_then(|w| w.get("replicates"))
                .and_then(Value::as_u64)
                .expect("replicates"),
        )
    };
    let want = fingerprint(&local.json);

    // Cold server: submit the paired spec, fetch /compare.
    let server = Server::bind("127.0.0.1:0", Some(2), Some(&cache_path))
        .expect("bind")
        .spawn()
        .expect("spawn");
    let client = Client::new(server.addr().to_string());
    let first = client.submit(toml).expect("submit");
    let view = client.wait(first, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.cells, 8, "2 sides x 4 shared seeds");
    assert_eq!(view.simulated, 8, "cold cache simulates everything");
    let served = client.compare(first).expect("compare");
    assert_eq!(
        fingerprint(&served),
        want,
        "served deltas must be bit-identical to the local compare"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    // Restart on the same cache log and resubmit: the comparison is
    // assembled entirely from persisted cells — zero re-simulated.
    let server = Server::bind("127.0.0.1:0", Some(2), Some(&cache_path))
        .expect("rebind")
        .spawn()
        .expect("respawn");
    let client = Client::new(server.addr().to_string());
    let second = client.submit(toml).expect("resubmit after restart");
    let view = client.wait(second, Duration::from_secs(120)).expect("wait");
    assert_eq!(
        view.simulated, 0,
        "restart + resubmission must not simulate a single cell"
    );
    assert_eq!(view.served_without_simulation(), view.cells);
    let served = client.compare(second).expect("compare after restart");
    assert_eq!(
        fingerprint(&served),
        want,
        "cache-served deltas are bit-identical to the local compare"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `[compare]` pair under a `ci_target` grows jointly, by the paired
/// stopping rule, whether the spec runs locally or is submitted: both
/// execute on the same engine, so every report row carries the same
/// replicate count, savings and metric block.
#[test]
fn paired_ci_target_stops_at_the_same_count_locally_and_submitted() {
    let dir = tmp_dir("service_paired_stop");
    let toml = "[scenario]\nmode = \"preset\"\npreset = \"phased_compress_decode\"\n\
                [compare]\nbaseline = \"Base1ldst\"\ncandidate = \"MALEC\"\n\
                [sweep]\ninsts = 20000\nseed = 2013\nseeds = 16\nmin_seeds = 3\nci_target = 0.02\n\
                [report]\nout = \"paired_stop.json\"\nmtr = \"paired_stop.mtr\"\n";
    let local = run_parsed_spec(parse_spec(toml).expect("spec parses"), "inline", &dir, None)
        .expect("local run");
    assert!(local.all_replays_match());

    let server = Server::bind("127.0.0.1:0", Some(2), None)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let client = Client::new(server.addr().to_string());
    let job = client.submit(toml).expect("submit");
    client.wait(job, Duration::from_secs(120)).expect("wait");
    let served = client.report(job).expect("report");
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");

    let rows = |report: &str| -> Vec<[Option<Value>; 4]> {
        parse(report)
            .expect("report is valid JSON")
            .get("cells")
            .and_then(Value::as_array)
            .expect("cells array")
            .iter()
            .map(|c| {
                ["config", "replicates", "replicates_saved", "metrics"].map(|k| c.get(k).cloned())
            })
            .collect()
    };
    let local_rows = rows(&std::fs::read_to_string(&local.out_path).expect("local report"));
    assert_eq!(local_rows.len(), 2);
    assert_eq!(
        local_rows[0][1], local_rows[1][1],
        "the pair grows jointly: both sides hold the same replicate count"
    );
    assert_eq!(
        local_rows,
        rows(&served),
        "local run and submitted job must stop the pair at the same count"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_overlapping_submissions_are_deduped_and_bit_identical() {
    let dir = tmp_dir("service_concurrent");
    let toml = spec_toml("svc_concurrent");

    // Serial local ground truth (jobs = 1: strictly serial execution).
    let local = run_parsed_spec(
        parse_spec(&toml).expect("spec parses"),
        "inline",
        &dir,
        Some(1),
    )
    .expect("serial local run");
    let expected: Vec<(String, String)> = local
        .cells
        .iter()
        .map(|c| (c.generated.config.clone(), format!("{:#018x}", c.digest)))
        .collect();

    let server = Server::bind("127.0.0.1:0", Some(4), None)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = server.addr().to_string();

    // Four clients, same spec, simultaneously.
    let reports: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let toml = toml.clone();
                scope.spawn(move || {
                    let client = Client::new(addr);
                    let job = client.submit(&toml).expect("submit");
                    client.wait(job, Duration::from_secs(120)).expect("wait");
                    client.report(job).expect("report")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    for report in &reports {
        assert_eq!(
            report_digests(report),
            expected,
            "every concurrent client gets cells bit-identical to the serial local run"
        );
    }

    let client = Client::new(addr);
    let stats = client.cache_stats().expect("stats");
    assert_eq!(
        stats.misses, 3,
        "in-flight dedup: 4 overlapping jobs x 3 cells simulate each unique cell once"
    );
    assert_eq!(stats.entries, 3);
    assert_eq!(
        stats.hits + stats.coalesced,
        9,
        "the other nine cells were served without simulating"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}
