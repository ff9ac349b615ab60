//! Every golden digest of `malec_bench::goldens`, recomputed: 24 benchmark
//! cells, 10 scenario cells and 5 paired comparisons.
//!
//! All 39 run as spec jobs on one in-process serve `Engine`: each golden
//! benchmark is a bare-benchmark sweep over the Table I configs, and each
//! preset scenario goes as two jobs, a sweep over `scenario_configs()` and
//! a `[compare]` pair over `COMPARE_SEEDS` shared seeds. So every digest
//! also checks the executor behind `malec-cli run`, `malec-cli compare`
//! and the server.
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
use malec_bench::{DEFAULT_INSTS, DEFAULT_SEED};
use malec_core::compare::compare_digest;
use malec_core::digest;
use malec_harness::SimConfig;
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

/// A spec over the `mode` scenario `name`, with `sections` appended.
fn spec(mode: &str, name: &str, sections: &str) -> SweepSpec {
    parse_spec(&format!(
        "[scenario]\nmode = \"{mode}\"\n{mode} = \"{name}\"\n{sections}"
    ))
    .expect("golden spec parses")
}

/// A `[sweep]` section over `configs` at `insts` and `DEFAULT_SEED`.
fn sweep(configs: &[SimConfig], insts: u64) -> String {
    let configs = configs
        .iter()
        .map(|c| format!("\"{}\"", c.label()))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[sweep]\nconfigs = [{configs}]\ninsts = {insts}\nseed = {DEFAULT_SEED}\n")
}

/// The three workloads, run as jobs on one in-process engine: one
/// bare-benchmark sweep per `BENCH_BENCHMARKS` entry over the Table I
/// configs, then a sweep and a compare job per preset scenario.
fn engine_rows() -> [Vec<String>; 3] {
    let labels: Vec<String> = scenario_configs().iter().map(SimConfig::label).collect();
    let [baseline, candidate] = labels.as_slice() else {
        panic!("the scenario goldens pair exactly two configs: {labels:?}");
    };
    let table_i = sweep(
        &[
            SimConfig::base1ldst(),
            SimConfig::base2ld1st(),
            SimConfig::malec(),
        ],
        DEFAULT_INSTS,
    );
    let scenario_sweep = sweep(&scenario_configs(), SCENARIO_INSTS);
    let compare = format!(
        "[compare]\nbaseline = \"{baseline}\"\ncandidate = \"{candidate}\"\n\
         [sweep]\ninsts = {COMPARE_INSTS}\nseed = {DEFAULT_SEED}\nseeds = {COMPARE_SEEDS}\n"
    );
    let engine = Engine::new(None, None).expect("in-memory engine");
    let benchmarks: Vec<JobId> = BENCH_BENCHMARKS
        .iter()
        .map(|name| engine.submit(spec("benchmark", name, &table_i)))
        .collect();
    let scenarios: Vec<(String, JobId, JobId)> = presets()
        .into_iter()
        .map(|p| {
            let sweep = engine.submit(spec("preset", &p.name, &scenario_sweep));
            let compare = engine.submit(spec("preset", &p.name, &compare));
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
    let sweep_rows = |job: JobId| -> Vec<String> {
        results(job)
            .groups
            .iter()
            .map(|reps| row3(&reps[0].benchmark, &reps[0].config, digest(&reps[0])))
            .collect()
    };
    let bench = benchmarks.into_iter().flat_map(sweep_rows).collect();
    let mut scenario = Vec::new();
    let mut paired = Vec::new();
    for (name, sweep, compare) in scenarios {
        scenario.extend(sweep_rows(sweep));
        let stats = results(compare).compare().expect("comparable pair");
        paired.push(row2(&name, compare_digest(&stats)));
    }
    engine.shutdown();
    [bench, scenario, paired]
}

/// Each table's declaration line, its committed rows and its fresh rows.
fn tables() -> [(&'static str, Vec<String>, Vec<String>); 3] {
    let [bench, scenario, compare] = engine_rows();
    [
        (
            "pub const GOLDEN_DIGESTS: &[(&str, &str, u64)] = &[",
            GOLDEN_DIGESTS
                .iter()
                .map(|&(b, c, d)| row3(b, c, d))
                .collect(),
            bench,
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
