//! Acceptance tests for the multi-seed replication engine:
//!
//! * a `seeds = 8` sweep reports mean ± 95 % CI per metric and is
//!   **bit-reproducible** across runs and across serial vs parallel
//!   execution;
//! * replicate 0 is the legacy single-seed path — the same cell digest a
//!   `seeds = 1` run produces;
//! * replicates dedupe **per replicate** through the `malec-serve` result
//!   cache: resubmitting a 4-seed spec at 8 seeds simulates exactly the 4
//!   new replicates;
//! * CI-driven early stopping measurably reduces the replicate count on a
//!   low-variance scenario and reports the savings.

use std::time::Duration;

use malec_cli::run::run_parsed_spec;
use malec_core::digest;
use malec_harness::tmp_dir;
use malec_serve::client::Client;
use malec_serve::json::{parse, Value};
use malec_serve::parse_spec;
use malec_serve::server::Server;

/// A two-config spec with `seeds` replicates per cell.
fn spec_toml(name: &str, seeds: u32) -> String {
    format!(
        "[scenario]\nname = \"{name}\"\nmode = \"mixed\"\nblock = 24\n\
         [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\nweight = 2\n\
         [[scenario.part]]\nkind = \"store_burst\"\nweight = 1\n\
         [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 3000\nseed = 17\nseeds = {seeds}\n\
         [report]\nout = \"{name}.json\"\nmtr = \"{name}.mtr\"\n"
    )
}

#[test]
fn seeds8_sweep_reports_ci_and_is_bit_reproducible_serial_vs_parallel() {
    let dir = tmp_dir("replication_repro");
    let toml = spec_toml("rep8", 8);

    let serial = run_parsed_spec(parse_spec(&toml).expect("spec"), "inline", &dir, Some(1))
        .expect("serial run");
    let parallel = run_parsed_spec(parse_spec(&toml).expect("spec"), "inline", &dir, None)
        .expect("parallel run");
    assert_eq!(serial.workers, 1, "the cap is honored");
    assert!(serial.all_replays_match() && parallel.all_replays_match());

    // Every replicate of every config is bit-identical across fan-outs.
    assert_eq!(serial.replicates.len(), 2);
    for (s_reps, p_reps) in serial.replicates.iter().zip(&parallel.replicates) {
        assert_eq!(s_reps.len(), 8, "all 8 seeds ran");
        for (a, b) in s_reps.iter().zip(p_reps) {
            assert_eq!(
                digest(a),
                digest(b),
                "worker scheduling must not leak into replicate results"
            );
        }
    }
    // And the aggregated statistics match to the bit.
    for (sc, pc) in serial.cells.iter().zip(&parallel.cells) {
        let (ss, ps) = (sc.stats.as_ref().unwrap(), pc.stats.as_ref().unwrap());
        assert_eq!(ss.n, 8);
        for ((name_a, a), (name_b, b)) in ss.metrics.iter().zip(&ps.metrics) {
            assert_eq!(name_a, name_b);
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{name_a} mean");
            assert_eq!(
                a.ci95.map(f64::to_bits),
                b.ci95.map(f64::to_bits),
                "{name_a} ci"
            );
        }
    }

    // The written report carries a parseable mean ± CI block per metric.
    let report = std::fs::read_to_string(&parallel.out_path).expect("report written");
    let v = parse(&report).expect("report is valid JSON");
    assert_eq!(
        v.get("workload")
            .and_then(|w| w.get("seeds"))
            .and_then(Value::as_u64),
        Some(8)
    );
    let cells = v.get("cells").and_then(Value::as_array).expect("cells");
    assert_eq!(cells.len(), 2);
    for cell in cells {
        assert_eq!(cell.get("replicates").and_then(Value::as_u64), Some(8));
        let metrics = cell.get("metrics").expect("metrics block");
        for name in ["ipc", "energy_per_access", "l1_miss_rate"] {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name} row"));
            let mean = m.get("mean").and_then(Value::as_f64).expect("mean");
            let min = m.get("min").and_then(Value::as_f64).expect("min");
            let max = m.get("max").and_then(Value::as_f64).expect("max");
            assert!(min <= mean && mean <= max, "{name}: {min} {mean} {max}");
            assert!(
                m.get("ci95").and_then(Value::as_f64).is_some(),
                "{name}: 8 replicates produce a CI"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replicate_zero_matches_the_single_seed_run() {
    let dir = tmp_dir("replication_compat");
    let single = run_parsed_spec(
        parse_spec(&spec_toml("one", 1)).expect("spec"),
        "inline",
        &dir,
        None,
    )
    .expect("single-seed run");
    let replicated = run_parsed_spec(
        parse_spec(&spec_toml("one", 4)).expect("spec"),
        "inline",
        &dir,
        None,
    )
    .expect("replicated run");
    for (s, r) in single.cells.iter().zip(&replicated.cells) {
        assert_eq!(
            s.digest, r.digest,
            "{}: replicate 0 must be the legacy single-seed cell, bit for bit",
            s.generated.config
        );
    }
    assert!(single.cells[0].stats.is_none(), "one seed: no stats block");
    assert_eq!(replicated.cells[0].stats.as_ref().unwrap().n, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resubmission_with_more_seeds_dedupes_per_replicate_through_the_cache() {
    let server = Server::bind("127.0.0.1:0", Some(2), None)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let client = Client::new(server.addr().to_string());

    let four = client.submit(&spec_toml("svc_rep", 4)).expect("submit");
    let view = client.wait(four, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.cells, 8, "2 configs x 4 replicates");
    assert_eq!(view.simulated, 8, "cold cache simulates everything");
    let report_four = client.report(four).expect("report");

    let eight = client.submit(&spec_toml("svc_rep", 8)).expect("resubmit");
    let view = client.wait(eight, Duration::from_secs(120)).expect("wait");
    assert_eq!(view.cells, 16, "2 configs x 8 replicates");
    assert_eq!(
        view.simulated, 8,
        "exactly the 8 new replicates simulate; the first 4 per config are cache hits"
    );
    assert_eq!(view.cached, 8);
    let report_eight = client.report(eight).expect("report");

    // Replicate 0 (the single-seed columns) is identical across both jobs.
    let digests = |report: &str| -> Vec<String> {
        parse(report)
            .expect("valid JSON")
            .get("cells")
            .and_then(Value::as_array)
            .expect("cells")
            .iter()
            .map(|c| {
                c.get("digest")
                    .and_then(Value::as_str)
                    .expect("digest")
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(digests(&report_four), digests(&report_eight));

    client.shutdown().expect("shutdown");
    server.join().expect("clean exit");
}

#[test]
fn early_stopping_saves_replicates_on_a_low_variance_scenario() {
    let dir = tmp_dir("replication_earlystop");
    // A steady-state benchmark phase is the low-variance case: its IPC
    // barely moves across seeds, so a 10% relative CI target converges at
    // (or very near) the 3-replicate minimum of a 16-seed budget.
    let toml = "[scenario]\nname = \"calm\"\n\
                [[scenario.phase]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\ninsts = 4000\n\
                [sweep]\nconfigs = [\"MALEC\"]\ninsts = 4000\nseed = 17\n\
                seeds = 16\nmin_seeds = 3\nci_target = 0.1\n";
    let outcome = run_parsed_spec(parse_spec(toml).expect("spec"), "inline", &dir, None)
        .expect("run succeeds");
    let stats = outcome.cells[0].stats.as_ref().expect("stats present");
    assert!(
        stats.n < 16,
        "early stopping must beat the 16-seed cap, used {}",
        stats.n
    );
    assert!(stats.n >= 3, "never below min_seeds");
    assert_eq!(stats.saved, 16 - stats.n, "savings are priced and reported");

    // Serial execution stops at exactly the same replicate count.
    let serial = run_parsed_spec(parse_spec(toml).expect("spec"), "inline", &dir, Some(1))
        .expect("serial run");
    assert_eq!(
        serial.cells[0].stats.as_ref().unwrap().n,
        stats.n,
        "the stopping decision is a pure prefix function, fan-out independent"
    );

    let report = std::fs::read_to_string(&outcome.out_path).expect("report");
    assert!(
        report.contains(&format!("\"replicates_saved\": {}", stats.saved)),
        "{report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
