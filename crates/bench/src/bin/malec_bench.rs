//! `malec-bench` — the simulator-throughput benchmark.
//!
//! Runs a fixed workload (the three Table I configurations × eight
//! representative benchmarks at `DEFAULT_INSTS` instructions, fixed seed)
//! twice — once through the serial sweep path, once through the parallel
//! one — plus the scenario workload (the five preset scenarios ×
//! {Base1ldst, MALEC} at `SCENARIO_INSTS`), and:
//!
//! 1. asserts the parallel matrix is **bit-identical** to the serial one;
//! 2. asserts both — and the scenario cells — match the recorded golden
//!    digests (`malec_bench::goldens`), so hot-path rewrites provably
//!    preserve simulated behavior;
//! 3. writes wall-clock and cells/sec for both paths to
//!    `BENCH_simulator.json` in the working directory (run it from the
//!    workspace root to update the tracked copy).
//!
//! Flags: `--record` prints fresh `GOLDEN_DIGESTS` /
//! `SCENARIO_GOLDEN_DIGESTS` tables instead of checking (use only after an
//! intentional behavior change); `--jobs N` caps the parallel fan-out at
//! `N` workers instead of consuming every host core (results are
//! bit-identical at any cap).

use std::time::Instant;

use malec_bench::goldens::{
    run_compare_cells_with, run_scenario_cells_with, BENCH_BENCHMARKS, COMPARE_GOLDEN_DIGESTS,
    GOLDEN_DIGESTS, SCENARIO_GOLDEN_DIGESTS,
};
use malec_bench::{run_matrix_on_with, DEFAULT_INSTS};
use malec_core::compare::{compare_digest, CompareStats};
use malec_core::parallel::workers_for;
use malec_core::{digest, RunSummary};
use malec_trace::all_benchmarks;
use malec_trace::profile::BenchmarkProfile;
use malec_types::SimConfig;

/// Parallel speedup demanded when enough cores are present.
const REQUIRED_SPEEDUP: f64 = 2.0;
/// Cores needed before the speedup requirement is enforced (on a dual-core
/// runner 2× is unreachable on principle; on ≥4 cores it is comfortable).
const REQUIRED_SPEEDUP_MIN_WORKERS: usize = 4;

fn configs() -> Vec<SimConfig> {
    vec![
        SimConfig::base1ldst(),
        SimConfig::base2ld1st(),
        SimConfig::malec(),
    ]
}

fn benchmarks() -> Vec<BenchmarkProfile> {
    let profiles: Vec<BenchmarkProfile> = all_benchmarks()
        .into_iter()
        .filter(|b| BENCH_BENCHMARKS.contains(&b.name))
        .collect();
    assert_eq!(
        profiles.len(),
        BENCH_BENCHMARKS.len(),
        "every fixed-workload benchmark must exist"
    );
    profiles
}

fn flat(matrix: &[Vec<RunSummary>]) -> impl Iterator<Item = &RunSummary> {
    matrix.iter().flat_map(|row| row.iter())
}

fn check_goldens(matrix: &[Vec<RunSummary>]) {
    assert_eq!(
        GOLDEN_DIGESTS.len(),
        matrix.iter().map(Vec::len).sum::<usize>(),
        "golden table must cover every cell (re-record with --record)"
    );
    for (cell, &(bench, config, want)) in flat(matrix).zip(GOLDEN_DIGESTS) {
        assert_eq!(cell.benchmark, bench, "cell order drifted");
        assert_eq!(cell.config, config, "cell order drifted");
        let got = digest(cell);
        assert_eq!(
            got, want,
            "{bench}/{config}: simulated behavior diverged from the recorded golden \
             (digest {got:#018x} != {want:#018x})"
        );
    }
}

fn record_goldens(matrix: &[Vec<RunSummary>]) {
    println!("pub const GOLDEN_DIGESTS: &[(&str, &str, u64)] = &[");
    for cell in flat(matrix) {
        println!(
            "    (\"{}\", \"{}\", {:#018x}),",
            cell.benchmark,
            cell.config,
            digest(cell)
        );
    }
    println!("];");
}

fn check_scenario_goldens(cells: &[RunSummary]) {
    assert_eq!(
        SCENARIO_GOLDEN_DIGESTS.len(),
        cells.len(),
        "scenario golden table must cover every cell (re-record with --record)"
    );
    for (cell, &(scenario, config, want)) in cells.iter().zip(SCENARIO_GOLDEN_DIGESTS) {
        assert_eq!(cell.benchmark, scenario, "scenario cell order drifted");
        assert_eq!(cell.config, config, "scenario cell order drifted");
        let got = digest(cell);
        assert_eq!(
            got, want,
            "{scenario}/{config}: scenario behavior diverged from the recorded golden \
             (digest {got:#018x} != {want:#018x})"
        );
    }
}

fn record_scenario_goldens(cells: &[RunSummary]) {
    println!("pub const SCENARIO_GOLDEN_DIGESTS: &[(&str, &str, u64)] = &[");
    for cell in cells {
        println!(
            "    (\"{}\", \"{}\", {:#018x}),",
            cell.benchmark,
            cell.config,
            digest(cell)
        );
    }
    println!("];");
}

fn check_compare_goldens(cells: &[(String, CompareStats)]) {
    assert_eq!(
        COMPARE_GOLDEN_DIGESTS.len(),
        cells.len(),
        "compare golden table must cover every preset (re-record with --record)"
    );
    for ((scenario, stats), &(want_s, want)) in cells.iter().zip(COMPARE_GOLDEN_DIGESTS) {
        assert_eq!(scenario, want_s, "compare cell order drifted");
        let got = compare_digest(stats);
        assert_eq!(
            got, want,
            "{scenario}: paired Base1ldst-vs-MALEC deltas diverged from the recorded golden \
             (digest {got:#018x} != {want:#018x})"
        );
    }
}

fn record_compare_goldens(cells: &[(String, CompareStats)]) {
    println!("pub const COMPARE_GOLDEN_DIGESTS: &[(&str, u64)] = &[");
    for (scenario, stats) in cells {
        println!("    (\"{}\", {:#018x}),", scenario, compare_digest(stats));
    }
    println!("];");
}

fn json_str_list<S: AsRef<str>>(items: impl Iterator<Item = S>) -> String {
    let body = items
        .map(|s| format!("\"{}\"", s.as_ref()))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{body}]")
}

#[allow(clippy::too_many_arguments)] // one artifact, many facts
fn write_json(
    path: &str,
    matrix: &[Vec<RunSummary>],
    scenario_cells: &[RunSummary],
    scenario_s: f64,
    workers: usize,
    serial_s: f64,
    parallel_s: f64,
    goldens: &str,
) {
    let cells = matrix.iter().map(Vec::len).sum::<usize>();
    let speedup = serial_s / parallel_s;
    // Labels come from the matrix itself so the artifact can never
    // disagree with the cells it describes.
    let config_list = json_str_list(matrix[0].iter().map(|s| s.config.as_str()));
    let bench_list = json_str_list(BENCH_BENCHMARKS.iter());
    let scenario_list = json_str_list(
        scenario_cells
            .iter()
            .map(|s| s.benchmark.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter(),
    );
    let note = if workers == 1 {
        "single-core host: parallel speedup is not observable here; the >=2x requirement is enforced on hosts with >=4 workers"
    } else {
        "speedup requirement enforced at >=4 workers"
    };
    let json = format!(
        "{{\n  \"bench\": \"malec_sweep_matrix\",\n  \"workload\": {{\n    \"configs\": {},\n    \"benchmarks\": {},\n    \"insts_per_cell\": {},\n    \"cells\": {}\n  }},\n  \"scenarios\": {{\n    \"names\": {},\n    \"insts_per_cell\": {},\n    \"cells\": {},\n    \"wall_seconds\": {:.4}\n  }},\n  \"workers\": {},\n  \"serial\": {{ \"wall_seconds\": {:.4}, \"cells_per_sec\": {:.3} }},\n  \"parallel\": {{ \"wall_seconds\": {:.4}, \"cells_per_sec\": {:.3} }},\n  \"speedup\": {:.3},\n  \"note\": \"{}\",\n  \"golden_digests\": \"{}\"\n}}\n",
        config_list,
        bench_list,
        DEFAULT_INSTS,
        cells,
        scenario_list,
        malec_bench::goldens::SCENARIO_INSTS,
        scenario_cells.len(),
        scenario_s,
        workers,
        serial_s,
        cells as f64 / serial_s,
        parallel_s,
        cells as f64 / parallel_s,
        speedup,
        note,
        goldens,
    );
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let record = args.iter().any(|a| a == "--record");
    let jobs: Option<usize> = args.iter().position(|a| a == "--jobs").map(|i| {
        let Some(value) = args.get(i + 1) else {
            eprintln!("malec-bench: --jobs needs a worker count");
            std::process::exit(2);
        };
        value.parse().unwrap_or_else(|_| {
            eprintln!("malec-bench: bad value `{value}` for --jobs");
            std::process::exit(2);
        })
    });
    let configs = configs();
    let benchmarks = benchmarks();
    let cells = configs.len() * benchmarks.len();
    // What the parallel matrix actually runs with: available parallelism,
    // capped by the cell count (previously this quoted the raw host
    // parallelism, which overstates small sweeps on big machines) and by
    // the operator's --jobs cap.
    let workers = workers_for(cells, jobs);

    eprintln!(
        "malec-bench: {cells} cells ({} configs x {} benchmarks) at {DEFAULT_INSTS} insts, \
         {workers} worker(s)",
        configs.len(),
        benchmarks.len()
    );

    let t = Instant::now();
    let serial = run_matrix_on_with(&benchmarks, &configs, DEFAULT_INSTS, Some(1));
    let serial_s = t.elapsed().as_secs_f64();
    eprintln!(
        "  serial:   {serial_s:.3}s  ({:.2} cells/s)",
        cells as f64 / serial_s
    );

    let t = Instant::now();
    let parallel = run_matrix_on_with(&benchmarks, &configs, DEFAULT_INSTS, jobs);
    let parallel_s = t.elapsed().as_secs_f64();
    eprintln!(
        "  parallel: {parallel_s:.3}s  ({:.2} cells/s, {:.2}x)",
        cells as f64 / parallel_s,
        serial_s / parallel_s
    );

    // Scheduling must not leak into results: the parallel matrix is
    // bit-identical to the serial one, cell by cell.
    for (s, p) in flat(&serial).zip(flat(&parallel)) {
        assert_eq!(
            digest(s),
            digest(p),
            "{}/{}: parallel result diverged from serial",
            s.benchmark,
            s.config
        );
    }

    let t = Instant::now();
    let scenario_cells = run_scenario_cells_with(jobs);
    let scenario_s = t.elapsed().as_secs_f64();
    eprintln!(
        "  scenarios: {scenario_s:.3}s  ({} cells at {} insts)",
        scenario_cells.len(),
        malec_bench::goldens::SCENARIO_INSTS
    );

    let t = Instant::now();
    let compare_cells = run_compare_cells_with(jobs);
    let compare_s = t.elapsed().as_secs_f64();
    eprintln!(
        "  compares: {compare_s:.3}s  ({} paired presets, {} shared seeds at {} insts)",
        compare_cells.len(),
        malec_bench::goldens::COMPARE_SEEDS,
        malec_bench::goldens::COMPARE_INSTS
    );

    let golden_status = if record {
        record_goldens(&serial);
        record_scenario_goldens(&scenario_cells);
        record_compare_goldens(&compare_cells);
        "recorded"
    } else {
        check_goldens(&serial);
        check_scenario_goldens(&scenario_cells);
        check_compare_goldens(&compare_cells);
        eprintln!(
            "  goldens:  ok ({} benchmark + {} scenario + {} compare digests)",
            GOLDEN_DIGESTS.len(),
            SCENARIO_GOLDEN_DIGESTS.len(),
            COMPARE_GOLDEN_DIGESTS.len()
        );
        "ok"
    };

    let out = "BENCH_simulator.json";
    write_json(
        out,
        &serial,
        &scenario_cells,
        scenario_s,
        workers,
        serial_s,
        parallel_s,
        golden_status,
    );
    eprintln!("  wrote {out}");

    if workers >= REQUIRED_SPEEDUP_MIN_WORKERS {
        let speedup = serial_s / parallel_s;
        assert!(
            speedup >= REQUIRED_SPEEDUP,
            "parallel sweep must be >= {REQUIRED_SPEEDUP}x with {workers} workers, got {speedup:.2}x"
        );
    } else if workers == 1 {
        eprintln!("  note: single-core host, speedup requirement not applicable");
    }
}
