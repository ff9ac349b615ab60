//! Every golden digest of `malec_bench::goldens`, recomputed: 24 benchmark
//! cells, 10 scenario cells and 5 paired comparisons.
//!
//! The benchmark cells run `Simulator::run` on bare profiles, which no
//! spec can express (a one-segment scenario draws a sub-seed and reports
//! suite `Scenario`). Each preset scenario goes to one in-process serve
//! `Engine` as two jobs: a sweep over `scenario_configs()` and a
//! `[compare]` pair over `COMPARE_SEEDS` shared seeds. So the scenario and
//! compare digests also check the executor behind `malec-cli run`,
//! `malec-cli compare` and the server.
//!
//! To re-record after an *intentional* behaviour change:
//!
//! ```sh
//! cargo test --release -p malec-harness --test goldens -- --ignored --nocapture
//! ```
//!
//! and replace the three tables in `crates/bench/src/goldens.rs` with the
//! printed ones.

use malec_bench::goldens::{
    scenario_configs, BENCH_BENCHMARKS, COMPARE_GOLDEN_DIGESTS, COMPARE_INSTS, COMPARE_SEEDS,
    GOLDEN_DIGESTS, SCENARIO_GOLDEN_DIGESTS, SCENARIO_INSTS,
};
use malec_bench::{run_one, DEFAULT_INSTS, DEFAULT_SEED};
use malec_core::compare::compare_digest;
use malec_core::digest;
use malec_core::parallel::parallel_map;
use malec_harness::{benchmark_named, SimConfig};
use malec_serve::{parse_spec, Engine, JobId, JobResults, SweepSpec};
use malec_trace::scenario::presets;

/// One row of a three-column table, as written in `goldens.rs`.
fn row3(name: &str, config: &str, digest: u64) -> String {
    format!("(\"{name}\", \"{config}\", {digest:#018x}),")
}

/// One row of the compare table, as written in `goldens.rs`.
fn row2(name: &str, digest: u64) -> String {
    format!("(\"{name}\", {digest:#018x}),")
}

/// The benchmark workload: `BENCH_BENCHMARKS` × the Table I configs,
/// row-major, at `DEFAULT_INSTS` and `DEFAULT_SEED`.
fn benchmark_rows() -> Vec<String> {
    let cells: Vec<(&str, SimConfig)> = BENCH_BENCHMARKS
        .iter()
        .flat_map(|&name| {
            [
                SimConfig::base1ldst(),
                SimConfig::base2ld1st(),
                SimConfig::malec(),
            ]
            .map(|config| (name, config))
        })
        .collect();
    parallel_map(cells, |(name, config)| {
        let profile = benchmark_named(name).expect("fixed-workload benchmark exists");
        let s = run_one(config, &profile, DEFAULT_INSTS);
        row3(&s.benchmark, &s.config, digest(&s))
    })
}

/// A spec over the preset scenario `preset`, with `sections` appended.
fn preset_spec(preset: &str, sections: &str) -> SweepSpec {
    parse_spec(&format!(
        "[scenario]\nmode = \"preset\"\npreset = \"{preset}\"\n{sections}"
    ))
    .expect("golden spec parses")
}

/// The scenario and compare workloads, run as two jobs per preset on one
/// in-process engine.
fn engine_rows() -> (Vec<String>, Vec<String>) {
    let labels: Vec<String> = scenario_configs().iter().map(SimConfig::label).collect();
    let [baseline, candidate] = labels.as_slice() else {
        panic!("the scenario goldens pair exactly two configs: {labels:?}");
    };
    let configs = labels
        .iter()
        .map(|l| format!("\"{l}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let sweep = format!(
        "[sweep]\nconfigs = [{configs}]\ninsts = {SCENARIO_INSTS}\nseed = {DEFAULT_SEED}\n"
    );
    let compare = format!(
        "[compare]\nbaseline = \"{baseline}\"\ncandidate = \"{candidate}\"\n\
         [sweep]\ninsts = {COMPARE_INSTS}\nseed = {DEFAULT_SEED}\nseeds = {COMPARE_SEEDS}\n"
    );
    let engine = Engine::new(None, None).expect("in-memory engine");
    let jobs: Vec<(String, JobId, JobId)> = presets()
        .into_iter()
        .map(|p| {
            let sweep = engine.submit(preset_spec(&p.name, &sweep));
            let compare = engine.submit(preset_spec(&p.name, &compare));
            (p.name, sweep, compare)
        })
        .collect();
    let results = |job: JobId| -> JobResults {
        engine.wait_settled(job, None);
        engine
            .job_results(job)
            .expect("known job")
            .unwrap_or_else(|status| panic!("golden job did not finish: {status:?}"))
    };
    let mut scenario = Vec::new();
    let mut paired = Vec::new();
    for (name, sweep, compare) in jobs {
        for reps in results(sweep).groups {
            let s = &reps[0];
            scenario.push(row3(&s.benchmark, &s.config, digest(s)));
        }
        let stats = results(compare).compare().expect("comparable pair");
        paired.push(row2(&name, compare_digest(&stats)));
    }
    engine.shutdown();
    (scenario, paired)
}

/// Each table's declaration line, its committed rows and its fresh rows.
fn tables() -> [(&'static str, Vec<String>, Vec<String>); 3] {
    let (scenario, compare) = engine_rows();
    [
        (
            "pub const GOLDEN_DIGESTS: &[(&str, &str, u64)] = &[",
            GOLDEN_DIGESTS
                .iter()
                .map(|&(b, c, d)| row3(b, c, d))
                .collect(),
            benchmark_rows(),
        ),
        (
            "pub const SCENARIO_GOLDEN_DIGESTS: &[(&str, &str, u64)] = &[",
            SCENARIO_GOLDEN_DIGESTS
                .iter()
                .map(|&(s, c, d)| row3(s, c, d))
                .collect(),
            scenario,
        ),
        (
            "pub const COMPARE_GOLDEN_DIGESTS: &[(&str, u64)] = &[",
            COMPARE_GOLDEN_DIGESTS
                .iter()
                .map(|&(s, d)| row2(s, d))
                .collect(),
            compare,
        ),
    ]
}

#[test]
fn every_golden_digest_reproduces() {
    let mut diverged = Vec::new();
    for (decl, want, got) in tables() {
        if want.len() != got.len() {
            diverged.push(format!(
                "{decl} has {} rows for {} cells",
                want.len(),
                got.len()
            ));
        }
        for (want, got) in want.iter().zip(&got) {
            if want != got {
                diverged.push(format!("recorded {want}\n     got {got}"));
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "simulated behaviour diverged from the recorded goldens:\n{}",
        diverged.join("\n")
    );
}

#[test]
#[ignore = "prints fresh golden tables; run only after an intentional behaviour change"]
fn record_golden_digests() {
    for (decl, _, got) in tables() {
        println!("{decl}");
        for row in got {
            println!("    {row}");
        }
        println!("];");
    }
}
