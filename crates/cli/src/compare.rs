//! The paired-comparison pipeline behind `malec-cli compare`.
//!
//! Where `run` sweeps every configuration marginally (record → sweep →
//! replay-verify → report), `compare` runs exactly two interfaces —
//! baseline and candidate — over **shared replicate seeds** and reports the
//! per-seed *deltas*: mean ± paired CI, relative improvement over the
//! baseline, and a win/loss/tie verdict per metric at the spec's alpha.
//!
//! The spec is restricted to its pair and run as a job on an in-process
//! `malec-serve` engine (no `.mtr` recording pass) — the same executor and
//! the same cells as a submitted copy, which is what makes a local
//! `compare` bit-identical to `GET /v1/jobs/<id>/compare`. Under a
//! `ci_target` the pair stops spawning shared seeds once the paired CI
//! half-width on the target metric's delta converges — the stopping rule
//! is a pure function of the ordered pair prefix, so serial, `--jobs N`,
//! and server runs all stop at identical counts.

use std::path::{Path, PathBuf};

use malec_core::compare::CompareStats;
use malec_core::RunSummary;

use malec_serve::{parse_spec, SweepSpec};

use crate::run::{execute, write_report};

/// Everything a finished comparison produced.
#[derive(Debug)]
pub struct CompareOutcome {
    /// The resolved spec, restricted to the compared pair.
    pub spec: SweepSpec,
    /// The aggregated delta blocks.
    pub stats: CompareStats,
    /// Baseline replicate summaries, replicate order.
    pub baseline: Vec<RunSummary>,
    /// Candidate replicate summaries, replicate order.
    pub candidate: Vec<RunSummary>,
    /// Workers the engine pool ran.
    pub workers: usize,
    /// Wall-clock of the paired job, submit to settle (report excluded).
    pub wall_seconds: f64,
    /// The rendered compare-report JSON.
    pub json: String,
    /// Where the JSON report was written.
    pub out_path: PathBuf,
}

/// Runs a parsed spec's paired comparison end to end. The spec's
/// `[compare]` section picks the pair (defaulting to Base1ldst vs MALEC at
/// `alpha = 0.05`); paths resolve relative to `base_dir`; `jobs` caps the
/// engine pool (`None` uses every core; results are bit-identical at any
/// cap).
///
/// # Errors
///
/// Returns a descriptive message when the spec has no resolvable pair
/// (missing configs, single seed), when a cell fails, or on I/O failure
/// writing the report.
pub fn compare_parsed_spec(
    mut spec: SweepSpec,
    spec_path: &str,
    base_dir: &Path,
    jobs: Option<usize>,
) -> Result<CompareOutcome, String> {
    let resolved = spec.resolve_compare().map_err(|e| e.to_string())?;
    let pair = [resolved.baseline, resolved.candidate].map(|i| spec.configs[i].label());
    spec.restrict_configs(&[&pair[0], &pair[1]])
        .map_err(|e| e.to_string())?;
    let (results, workers) = execute(spec, jobs)?;
    let stats = results.compare().map_err(|e| e.to_string())?;
    let json = results.render_compare(&stats, spec_path, workers, results.wall_seconds);
    let out_path = base_dir.join(&results.spec.compare_out);
    write_report(&out_path, &json)?;
    let (baseline, candidate, _) = results.pair().map_err(|e| e.to_string())?;
    Ok(CompareOutcome {
        baseline: baseline.to_vec(),
        candidate: candidate.to_vec(),
        wall_seconds: results.wall_seconds,
        spec: results.spec,
        stats,
        workers,
        json,
        out_path,
    })
}

/// Reads and compares a spec file. `jobs` caps the fan-out as in
/// [`compare_parsed_spec`].
///
/// # Errors
///
/// Returns a descriptive message for unreadable files, spec errors, and
/// failures during the comparison.
pub fn compare_spec_file(path: &Path, jobs: Option<usize>) -> Result<CompareOutcome, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec = parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    compare_parsed_spec(spec, &path.display().to_string(), Path::new("."), jobs)
}

/// Renders one delta block as the `compare` stdout line: signed delta ±
/// CI, relative %, and the oriented verdict.
#[must_use]
pub fn delta_line(name: &str, d: &malec_core::compare::DeltaSummary) -> String {
    let ci = d.ci.map_or_else(|| "n/a".to_owned(), |w| format!("{w:.5}"));
    let rel = d
        .relative
        .map_or_else(String::new, |r| format!("  ({:+.2}%)", 100.0 * r));
    format!(
        "  {name:<18} {:>10.4} -> {:>10.4}  delta {:+.5} ± {ci}{rel}  {}",
        d.baseline_mean,
        d.candidate_mean,
        d.delta_mean,
        d.verdict.name().to_uppercase(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_core::compare::Verdict;

    fn demo_spec(seeds: u32, extra: &str) -> SweepSpec {
        let doc = format!(
            "[scenario]\nname = \"cmp\"\nmode = \"mixed\"\nblock = 24\n\
             [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\nweight = 2\n\
             [[scenario.part]]\nkind = \"store_burst\"\nweight = 1\n\
             [compare]\nbaseline = \"Base1ldst\"\ncandidate = \"MALEC\"\n\
             [sweep]\ninsts = 3000\nseed = 11\nseeds = {seeds}\n{extra}\
             [report]\ncompare = \"cmp_compare.json\"\n"
        );
        parse_spec(&doc).expect("demo spec parses")
    }

    #[test]
    fn compare_runs_end_to_end_and_pairs_share_seeds() {
        let dir =
            std::env::temp_dir().join(format!("malec_cli_compare_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let outcome =
            compare_parsed_spec(demo_spec(4, ""), "inline", &dir, None).expect("compare runs");
        assert_eq!(outcome.baseline.len(), 4);
        assert_eq!(outcome.candidate.len(), 4);
        assert_eq!(outcome.stats.n, 4);
        // Shared seeds: both sides simulated the same generated stream, so
        // the committed instruction counts match pairwise.
        for (b, c) in outcome.baseline.iter().zip(&outcome.candidate) {
            assert_eq!(b.core.committed, c.core.committed);
        }
        let json = std::fs::read_to_string(&outcome.out_path).expect("report written");
        assert!(json.contains("\"bench\": \"malec_compare\""));
        assert!(json.contains("\"verdict\""));
        // MALEC against the 1-port baseline on a load-rich mix: the IPC
        // delta is positive and certified (the paper's headline).
        let ipc = outcome.stats.metric("ipc").expect("ipc");
        assert!(ipc.delta_mean > 0.0, "MALEC must out-run Base1ldst");
        assert_eq!(ipc.verdict, Verdict::Win);
        // The line renderer carries the verdict and both means.
        let line = delta_line("ipc", ipc);
        assert!(line.contains("WIN") && line.contains("delta +"), "{line}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_is_bit_identical_at_any_jobs_cap() {
        let dir =
            std::env::temp_dir().join(format!("malec_cli_compare_jobs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let serial =
            compare_parsed_spec(demo_spec(4, ""), "inline", &dir, Some(1)).expect("serial");
        let parallel =
            compare_parsed_spec(demo_spec(4, ""), "inline", &dir, None).expect("parallel");
        assert_eq!(
            malec_core::compare::compare_digest(&serial.stats),
            malec_core::compare::compare_digest(&parallel.stats),
            "fan-out must not leak into the deltas"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unresolvable_compare_is_a_clean_error() {
        // seeds = 1 cannot carry a paired interval; parse_spec rejects the
        // explicit section, and a plain single-seed spec fails at resolve.
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n";
        let spec = parse_spec(doc).expect("plain spec parses");
        let e = compare_parsed_spec(spec, "inline", Path::new("."), None).expect_err("must fail");
        assert!(e.contains("`seeds` >= 2"), "{e}");
    }
}
