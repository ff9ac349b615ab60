//! The record → sweep → replay-verify pipeline behind `malec-cli run`.
//!
//! One spec run does four things, in order:
//!
//! 1. **Record** — generate the scenario's instruction stream once (under
//!    the base seed) and stream it into the spec's `.mtr` file;
//! 2. **Sweep** — submit the spec to an in-process `malec-serve`
//!    [`Engine`] (in-memory cache, no HTTP; its pool is capped by the
//!    operator's `--jobs N`, if given) and block until the job settles.
//!    The engine is the one executor of spec jobs, so a local run plans,
//!    replicates and stops exactly like a submitted job: replicate `i`
//!    simulates the generator stream under `replicate_seed(seed, i)`, and
//!    with a `ci_target` a group stops growing once its stopping rule
//!    converges (never before `min_seeds`);
//! 3. **Replay-verify** — replicate 0 of each configuration (the recorded
//!    seed) also simulates the `.mtr` stream and both summaries are
//!    digested: replay must be bit-identical to generation, every config;
//! 4. **Report** — write the JSON report (single-seed columns from
//!    replicate 0, mean ± CI per metric when `seeds > 1`) next to the
//!    spec's `out` path.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use malec_core::parallel::{parallel_map_with, workers_for};
use malec_core::{digest, RunSummary, ScenarioSource, Simulator};
use malec_trace::record::TraceWriter;

use malec_serve::report::CellResult;
use malec_serve::{parse_spec, Engine, JobResults, SweepSpec};

/// Everything a finished spec run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The resolved spec.
    pub spec: SweepSpec,
    /// Per-config results in spec order (replicate 0 carries the
    /// single-seed columns; `stats` the replicate distribution).
    pub cells: Vec<CellResult>,
    /// Every replicate summary, config-major, replicate order (index 0 is
    /// the base-seed run).
    pub replicates: Vec<Vec<RunSummary>>,
    /// Workers the engine pool ran.
    pub workers: usize,
    /// Wall-clock of the sweep and replay (record and report excluded).
    pub wall_seconds: f64,
    /// Where the trace was recorded.
    pub mtr_path: PathBuf,
    /// Where the JSON report was written.
    pub out_path: PathBuf,
}

impl SweepOutcome {
    /// Whether every cell's replay digest matched its generator digest.
    pub fn all_replays_match(&self) -> bool {
        self.cells.iter().all(CellResult::replay_matches)
    }
}

/// Records `spec`'s scenario stream to `path` (streaming; the trace is
/// never held in memory).
///
/// # Errors
///
/// Propagates file-creation and write errors, naming the path.
pub fn record_trace(spec: &SweepSpec, path: &Path) -> Result<u64, String> {
    create_parent(path)?;
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut writer = TraceWriter::new(BufWriter::new(file))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    for inst in spec.scenario.generator(spec.seed).take(spec.insts as usize) {
        writer
            .write(inst)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let written = writer.written();
    writer
        .finish()
        .map_err(|e| format!("flush {}: {e}", path.display()))?;
    Ok(written)
}

/// Runs `spec` on an in-process [`Engine`] of `workers_for(cells, jobs)`
/// threads (`cells` being the job's initial cells) and blocks until the
/// job settles. Returns its results and the pool size.
///
/// # Errors
///
/// A failed job is an error carrying the job's first cell failure.
pub(crate) fn execute(spec: SweepSpec, jobs: Option<usize>) -> Result<(JobResults, usize), String> {
    let cells = spec.configs.len() * spec.replication.initial_count() as usize;
    let workers = workers_for(cells, jobs);
    let engine = Engine::new(Some(workers), None).map_err(|e| format!("start engine: {e}"))?;
    let job = engine.submit(spec);
    engine.wait_settled(job, None);
    match engine.job_results(job) {
        Some(Ok(results)) => Ok((results, workers)),
        Some(Err(status)) => Err(status
            .error
            .unwrap_or_else(|| format!("job ended {}", status.state))),
        None => Err("the job vanished from the engine".to_owned()),
    }
}

fn create_parent(path: &Path) -> Result<(), String> {
    match path.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(parent) => {
            std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))
        }
        None => Ok(()),
    }
}

/// Writes a rendered report to `path`, creating its directory.
pub(crate) fn write_report(path: &Path, json: &str) -> Result<(), String> {
    create_parent(path)?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs a parsed spec end to end. Paths in the spec are resolved relative
/// to `base_dir` (the process working directory for the CLI). `jobs` caps
/// the engine pool (`None` uses every available core; results are
/// bit-identical at any cap).
///
/// # Errors
///
/// Returns a descriptive message on I/O failure or a failed cell. A
/// replay-digest mismatch is **not** an error — the report records it and
/// the caller decides (the CLI exits nonzero so CI catches it).
pub fn run_parsed_spec(
    spec: SweepSpec,
    spec_path: &str,
    base_dir: &Path,
    jobs: Option<usize>,
) -> Result<SweepOutcome, String> {
    let mtr_path = base_dir.join(&spec.mtr);
    let out_path = base_dir.join(&spec.out);
    record_trace(&spec, &mtr_path)?;

    let t = Instant::now();
    let (results, workers) = execute(spec, jobs)?;
    // Replicate 0 runs the recorded (base) seed: its replay of the .mtr
    // must reproduce the generator run bit for bit.
    let spec = &results.spec;
    let replay = ScenarioSource::Replay {
        name: spec.scenario.name.clone(),
        path: mtr_path.clone(),
    };
    let replays = parallel_map_with(
        spec.configs.iter().collect(),
        |cfg| {
            Simulator::new((*cfg).clone())
                .run_source(&replay, spec.insts, spec.seed)
                .map_err(|e| format!("{}: replay run: {e}", cfg.label()))
        },
        workers_for(spec.configs.len(), jobs),
    );
    let mut cells = results.cells();
    for (cell, replayed) in cells.iter_mut().zip(replays) {
        cell.replay_digest = digest(&replayed?);
    }
    let wall_seconds = t.elapsed().as_secs_f64();

    write_report(
        &out_path,
        &results.render_report(&cells, spec_path, workers, wall_seconds),
    )?;
    Ok(SweepOutcome {
        spec: results.spec,
        cells,
        replicates: results.groups,
        workers,
        wall_seconds,
        mtr_path,
        out_path,
    })
}

/// Reads and runs a spec file. `jobs` caps the fan-out as in
/// [`run_parsed_spec`].
///
/// # Errors
///
/// Returns a descriptive message for unreadable files, spec errors, and
/// I/O failures during the run.
pub fn run_spec_file(path: &Path, jobs: Option<usize>) -> Result<SweepOutcome, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec = parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    run_parsed_spec(spec, &path.display().to_string(), Path::new("."), jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec(dir: &Path, name: &str) -> SweepSpec {
        let doc = format!(
            "[scenario]\nname = \"{name}\"\nmode = \"mixed\"\nblock = 24\n\
             [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\nweight = 2\n\
             [[scenario.part]]\nkind = \"store_burst\"\nweight = 1\n\
             [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 3000\nseed = 11\n\
             [report]\nout = \"{name}.json\"\nmtr = \"{name}.mtr\"\n"
        );
        let _ = dir; // paths are resolved by run_parsed_spec's base_dir
        parse_spec(&doc).expect("demo spec parses")
    }

    #[test]
    fn end_to_end_replay_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("malec_cli_run_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let bare = parse_spec(
            "[scenario]\nmode = \"benchmark\"\nbenchmark = \"mcf\"\n\
             [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 3000\nseed = 11\n\
             [report]\nout = \"cli_e2e_bare.json\"\nmtr = \"cli_e2e_bare.mtr\"\n",
        )
        .expect("bare-benchmark spec parses");
        for spec in [demo_spec(&dir, "cli_e2e"), bare] {
            let outcome = run_parsed_spec(spec, "inline", &dir, None).expect("run succeeds");
            assert_eq!(outcome.cells.len(), 2);
            assert!(outcome.all_replays_match(), "replay must be bit-identical");
            assert!(outcome.workers >= 1);
            assert!(outcome.mtr_path.exists());
            let json = std::fs::read_to_string(&outcome.out_path).expect("report written");
            assert!(json.contains("\"replay_matches_generator\": true"));
            assert!(json.contains("malec_scenario_sweep"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_trace_counts_records() {
        let dir =
            std::env::temp_dir().join(format!("malec_cli_record_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let spec = demo_spec(&dir, "cli_record");
        let path = dir.join("t.mtr");
        let written = record_trace(&spec, &path).expect("record");
        assert_eq!(written, 3000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_spec_is_a_clean_error() {
        let e = run_spec_file(Path::new("/nonexistent/spec.toml"), None).expect_err("must fail");
        assert!(e.contains("spec.toml"), "{e}");
    }

    #[test]
    fn jobs_cap_does_not_change_results() {
        let dir = std::env::temp_dir().join(format!("malec_cli_jobs_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let free = run_parsed_spec(demo_spec(&dir, "cli_jobs_a"), "inline", &dir, None)
            .expect("uncapped run");
        let capped = run_parsed_spec(demo_spec(&dir, "cli_jobs_a"), "inline", &dir, Some(1))
            .expect("capped run");
        assert_eq!(capped.workers, 1, "the cap is honored");
        for (f, c) in free.cells.iter().zip(&capped.cells) {
            assert_eq!(f.digest, c.digest, "fan-out must not leak into results");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
