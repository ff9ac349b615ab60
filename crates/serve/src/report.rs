//! JSON report emission for scenario sweeps and paired comparisons: a
//! top-level `bench` / `workload` / `workers` / wall-clock header, then
//! per-cell rows and the generator-vs-replay digest verdict.

use malec_core::compare::{compare_digest, CompareStats};
use malec_core::stats::ReplicateStats;
use malec_core::{digest, RunSummary};

/// One config's pair of runs: generated stream and `.mtr` replay. Under
/// multi-seed replication the single-seed fields describe replicate 0 (the
/// legacy seed path) and [`stats`](Self::stats) carries the distribution.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The generator-driven run (replicate 0 when replicated).
    pub generated: RunSummary,
    /// Digest of the generator-driven run.
    pub digest: u64,
    /// Digest of the replay-driven run (bit-identical when the record/
    /// replay path is lossless).
    pub replay_digest: u64,
    /// Per-metric replicate statistics (`None` for single-seed cells).
    pub stats: Option<ReplicateStats>,
}

impl CellResult {
    /// Builds the pair, digesting both runs.
    pub fn new(generated: RunSummary, replayed: &RunSummary) -> Self {
        let d = digest(&generated);
        let r = digest(replayed);
        Self {
            generated,
            digest: d,
            replay_digest: r,
            stats: None,
        }
    }

    /// Attaches replicate statistics to this cell.
    #[must_use]
    pub fn with_stats(mut self, stats: ReplicateStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Whether replaying the recorded trace reproduced the generator run
    /// bit for bit.
    pub fn replay_matches(&self) -> bool {
        self.digest == self.replay_digest
    }

    /// Builds a cell from a generator-side summary alone, without a replay
    /// run. Both digests are set to the generator digest, which is what a
    /// replay would produce: record/replay bit-identity is the
    /// replay-verified determinism contract the `malec-serve` result cache
    /// rests on, and server cells (fresh or cached) lean on it instead of
    /// re-running every stream twice.
    pub fn from_generated(generated: RunSummary) -> Self {
        let d = digest(&generated);
        Self {
            generated,
            digest: d,
            replay_digest: d,
            stats: None,
        }
    }
}

/// Escapes a string for a JSON literal (shared by every JSON emitter in
/// this crate — scenario names can legally contain `\n`/`\t` via TOML
/// escapes, and those must not reach the wire raw).
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn str_list<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> String {
    let body = items
        .into_iter()
        .map(|s| format!("\"{}\"", esc(s.as_ref())))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{body}]")
}

/// The run-level facts a report carries besides its cells.
#[derive(Clone, Debug)]
pub struct ReportMeta<'a> {
    /// Where the spec came from (a path, `inline`, or `job:<id>`).
    pub spec_path: &'a str,
    /// Scenario name.
    pub scenario: &'a str,
    /// Segment labels of the scenario.
    pub segments: &'a [&'a str],
    /// Recorded trace path.
    pub mtr_path: &'a str,
    /// Instructions per cell.
    pub insts: u64,
    /// Base seed (replicate 0's seed).
    pub seed: u64,
    /// Maximum replicates per cell (1 = the legacy single-seed sweep).
    pub seeds: u32,
    /// Worker fan-out used.
    pub workers: usize,
    /// Sweep wall clock.
    pub wall_seconds: f64,
}

/// Renders one cell's replicate-statistics block (mean ± 95 % CI, min,
/// max, per metric), indented for the cell row.
fn stats_block(stats: &ReplicateStats) -> String {
    let mut out = format!(
        "      \"replicates\": {},\n      \"replicates_saved\": {},\n      \"metrics\": {{\n",
        stats.n, stats.saved
    );
    let last = stats.metrics.len();
    for (i, (name, m)) in stats.metrics.iter().enumerate() {
        let ci = m
            .ci95
            .map_or_else(|| "null".to_owned(), |w| format!("{w:.6}"));
        out.push_str(&format!(
            "        \"{name}\": {{ \"mean\": {:.6}, \"ci95\": {ci}, \"min\": {:.6}, \"max\": {:.6} }}{}\n",
            m.mean,
            m.min,
            m.max,
            if i + 1 == last { "" } else { "," },
        ));
    }
    out.push_str("      },\n");
    out
}

/// Renders the sweep report as pretty-printed JSON.
pub fn render(meta: &ReportMeta<'_>, cells: &[CellResult]) -> String {
    let configs = str_list(cells.iter().map(|c| c.generated.config.as_str()));
    let n = cells.len();
    let cells_per_sec = if meta.wall_seconds > 0.0 {
        n as f64 / meta.wall_seconds
    } else {
        0.0
    };
    let all_match = cells.iter().all(CellResult::replay_matches);
    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        let s = &c.generated;
        let stats = c.stats.as_ref().map(stats_block).unwrap_or_default();
        rows.push_str(&format!(
            "    {{\n      \"config\": \"{}\",\n      \"cycles\": {},\n      \"ipc\": {:.4},\n      \"l1_miss_rate\": {:.6},\n      \"utlb_miss_rate\": {:.6},\n      \"coverage\": {:.4},\n      \"merge_ratio\": {:.4},\n      \"energy_total\": {:.4},\n{}      \"digest\": \"{:#018x}\",\n      \"replay_digest\": \"{:#018x}\",\n      \"replay_matches\": {}\n    }}{}\n",
            esc(&s.config),
            s.core.cycles,
            s.core.ipc(),
            s.l1_miss_rate,
            s.utlb_miss_rate,
            s.interface.coverage(),
            s.interface.merge_ratio(),
            s.energy.total(),
            stats,
            c.digest,
            c.replay_digest,
            c.replay_matches(),
            if i + 1 == n { "" } else { "," },
        ));
    }
    format!(
        "{{\n  \"bench\": \"malec_scenario_sweep\",\n  \"spec\": \"{}\",\n  \"scenario\": \"{}\",\n  \"segments\": {},\n  \"mtr\": \"{}\",\n  \"workload\": {{\n    \"configs\": {},\n    \"insts_per_cell\": {},\n    \"seed\": {},\n    \"seeds\": {},\n    \"cells\": {}\n  }},\n  \"workers\": {},\n  \"wall_seconds\": {:.4},\n  \"cells_per_sec\": {:.3},\n  \"replay_matches_generator\": {},\n  \"cells\": [\n{}  ]\n}}\n",
        esc(meta.spec_path),
        esc(meta.scenario),
        str_list(meta.segments.iter().copied()),
        esc(meta.mtr_path),
        configs,
        meta.insts,
        meta.seed,
        meta.seeds,
        n,
        meta.workers,
        meta.wall_seconds,
        cells_per_sec,
        all_match,
        rows,
    )
}

/// The run-level facts a compare report carries besides its delta blocks.
#[derive(Clone, Debug)]
pub struct CompareReportMeta<'a> {
    /// Where the spec came from (a path, `inline`, or `job:<id>`).
    pub spec_path: &'a str,
    /// Scenario name.
    pub scenario: &'a str,
    /// Segment labels of the scenario.
    pub segments: &'a [&'a str],
    /// Instructions per cell.
    pub insts: u64,
    /// Base seed (shared by both sides; replicate `i` derives from it).
    pub seed: u64,
    /// Maximum shared seeds per side (the spec's `seeds` cap).
    pub seeds: u32,
    /// Worker fan-out used.
    pub workers: usize,
    /// Comparison wall clock.
    pub wall_seconds: f64,
}

/// JSON-literal text for an optional float (`null` when absent).
fn opt_num(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), |x| format!("{x:.9}"))
}

/// Renders a paired comparison as pretty-printed JSON. The `digest` field
/// is [`compare_digest`] over the delta blocks (exact bit patterns), so
/// two reports describe the same comparison **iff** their digests match —
/// the serve-vs-local and golden-regression tests key on it. Run-level
/// facts that legitimately differ between drivers (spec path, workers,
/// wall clock) stay outside the digest.
pub fn render_compare(meta: &CompareReportMeta<'_>, stats: &CompareStats) -> String {
    let (wins, losses, ties) = stats.tally();
    let mut deltas = String::new();
    let last = stats.metrics.len();
    for (i, (name, d)) in stats.metrics.iter().enumerate() {
        let relative_pct = d.relative.map(|r| 100.0 * r);
        deltas.push_str(&format!(
            "    \"{name}\": {{\n      \"baseline_mean\": {:.9},\n      \"candidate_mean\": {:.9},\n      \"delta_mean\": {:.9},\n      \"ci\": {},\n      \"independent_ci\": {},\n      \"relative_pct\": {},\n      \"higher_is_better\": {},\n      \"verdict\": \"{}\"\n    }}{}\n",
            d.baseline_mean,
            d.candidate_mean,
            d.delta_mean,
            opt_num(d.ci),
            opt_num(d.independent_ci),
            opt_num(relative_pct),
            d.higher_is_better,
            d.verdict.name(),
            if i + 1 == last { "" } else { "," },
        ));
    }
    format!(
        "{{\n  \"bench\": \"malec_compare\",\n  \"spec\": \"{}\",\n  \"scenario\": \"{}\",\n  \"segments\": {},\n  \"baseline\": \"{}\",\n  \"candidate\": \"{}\",\n  \"alpha\": {},\n  \"workload\": {{\n    \"insts_per_cell\": {},\n    \"seed\": {},\n    \"seeds\": {},\n    \"replicates\": {},\n    \"replicates_saved\": {}\n  }},\n  \"workers\": {},\n  \"wall_seconds\": {:.4},\n  \"digest\": \"{:#018x}\",\n  \"verdicts\": {{ \"win\": {}, \"loss\": {}, \"tie\": {} }},\n  \"deltas\": {{\n{}  }}\n}}\n",
        esc(meta.spec_path),
        esc(meta.scenario),
        str_list(meta.segments.iter().copied()),
        esc(&stats.baseline),
        esc(&stats.candidate),
        stats.alpha.value(),
        meta.insts,
        meta.seed,
        meta.seeds,
        stats.n,
        stats.saved,
        meta.workers,
        meta.wall_seconds,
        compare_digest(stats),
        wins,
        losses,
        ties,
        deltas,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_core::Simulator;
    use malec_trace::benchmark_named;
    use malec_types::SimConfig;

    fn meta<'a>(spec_path: &'a str, segments: &'a [&'a str], seeds: u32) -> ReportMeta<'a> {
        ReportMeta {
            spec_path,
            scenario: "demo",
            segments,
            mtr_path: "demo.mtr",
            insts: 2_000,
            seed: 1,
            seeds,
            workers: 3,
            wall_seconds: 0.5,
        }
    }

    #[test]
    fn report_is_wellformed_and_escaped() {
        let gzip = benchmark_named("gzip").unwrap();
        let run = Simulator::new(SimConfig::malec()).run(&gzip, 2_000, 1);
        let cell = CellResult::new(run.clone(), &run);
        assert!(cell.replay_matches());
        let json = render(
            &meta("spec \"quoted\".toml", &["gzip"], 1),
            std::slice::from_ref(&cell),
        );
        assert!(json.contains("\\\"quoted\\\""), "escaping applied");
        assert!(json.contains("\"replay_matches_generator\": true"));
        assert!(json.contains("\"workers\": 3"));
        assert!(json.contains("\"seeds\": 1"));
        assert!(json.contains("\"cells_per_sec\": 2.000"));
        assert!(!json.contains("\"metrics\""), "no stats block for one seed");
        // Balanced braces/brackets (cheap well-formedness probe; the full
        // shape is exercised end-to-end by the CLI integration test).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn replicate_stats_render_as_parseable_metric_rows() {
        use malec_core::stats::ReplicateStats;
        use malec_trace::replicate_seed;
        let gzip = benchmark_named("gzip").unwrap();
        let sim = Simulator::new(SimConfig::malec());
        let reps: Vec<_> = (0..4)
            .map(|i| sim.run(&gzip, 2_000, replicate_seed(1, i)))
            .collect();
        let cell = CellResult::from_generated(reps[0].clone())
            .with_stats(ReplicateStats::from_replicates(&reps, 6));
        let json = render(&meta("inline", &["gzip"], 6), &[cell]);
        assert!(json.contains("\"seeds\": 6"));
        assert!(json.contains("\"replicates\": 4"));
        assert!(json.contains("\"replicates_saved\": 2"));
        let v = crate::json::parse(&json).expect("report stays valid JSON");
        let cells = v
            .get("cells")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        let ipc = cells[0]
            .get("metrics")
            .and_then(|m| m.get("ipc"))
            .expect("ipc metrics row");
        let mean = ipc
            .get("mean")
            .and_then(crate::json::Value::as_f64)
            .unwrap();
        let min = ipc.get("min").and_then(crate::json::Value::as_f64).unwrap();
        let max = ipc.get("max").and_then(crate::json::Value::as_f64).unwrap();
        assert!(min <= mean && mean <= max);
        assert!(ipc
            .get("ci95")
            .and_then(crate::json::Value::as_f64)
            .is_some());
    }

    #[test]
    fn compare_report_is_valid_json_with_delta_blocks() {
        use malec_core::compare::{Alpha, CompareStats};
        use malec_trace::replicate_seed;
        let gzip = benchmark_named("gzip").unwrap();
        let run =
            |cfg: SimConfig, r: u32| Simulator::new(cfg).run(&gzip, 2_000, replicate_seed(3, r));
        let base: Vec<_> = (0..4).map(|r| run(SimConfig::base1ldst(), r)).collect();
        let cand: Vec<_> = (0..4).map(|r| run(SimConfig::malec(), r)).collect();
        let stats = CompareStats::from_pairs(&base, &cand, 6, Alpha::Five);
        let meta = CompareReportMeta {
            spec_path: "inline",
            scenario: "demo \"q\"",
            segments: &["gzip"],
            insts: 2_000,
            seed: 3,
            seeds: 6,
            workers: 2,
            wall_seconds: 0.25,
        };
        let json = render_compare(&meta, &stats);
        let v = crate::json::parse(&json).expect("compare report stays valid JSON");
        assert_eq!(
            v.get("bench").and_then(crate::json::Value::as_str),
            Some("malec_compare")
        );
        assert_eq!(
            v.get("baseline").and_then(crate::json::Value::as_str),
            Some("Base1ldst")
        );
        assert_eq!(
            v.get("alpha").and_then(crate::json::Value::as_f64),
            Some(0.05)
        );
        let ipc = v
            .get("deltas")
            .and_then(|d| d.get("ipc"))
            .expect("ipc delta block");
        let delta = ipc
            .get("delta_mean")
            .and_then(crate::json::Value::as_f64)
            .expect("delta_mean");
        let b = ipc
            .get("baseline_mean")
            .and_then(crate::json::Value::as_f64)
            .unwrap();
        let c = ipc
            .get("candidate_mean")
            .and_then(crate::json::Value::as_f64)
            .unwrap();
        assert!((delta - (c - b)).abs() < 1e-6);
        assert!(ipc.get("ci").and_then(crate::json::Value::as_f64).is_some());
        assert!(ipc
            .get("verdict")
            .and_then(crate::json::Value::as_str)
            .is_some());
        // The digest field is the behavioral digest of the delta blocks.
        assert_eq!(
            v.get("digest").and_then(crate::json::Value::as_str),
            Some(format!("{:#018x}", malec_core::compare::compare_digest(&stats)).as_str())
        );
        // Meta that may differ across drivers stays outside the digest:
        // re-rendering under a different worker count keeps the digest.
        let other = render_compare(
            &CompareReportMeta {
                workers: 16,
                wall_seconds: 9.9,
                spec_path: "job:4",
                ..meta
            },
            &stats,
        );
        let ov = crate::json::parse(&other).expect("valid");
        assert_eq!(
            ov.get("digest").and_then(crate::json::Value::as_str),
            v.get("digest").and_then(crate::json::Value::as_str)
        );
    }

    #[test]
    fn mismatched_digests_are_reported() {
        let gzip = benchmark_named("gzip").unwrap();
        let a = Simulator::new(SimConfig::malec()).run(&gzip, 1_000, 1);
        let b = Simulator::new(SimConfig::malec()).run(&gzip, 1_000, 2);
        let cell = CellResult::new(a, &b);
        assert!(!cell.replay_matches());
        let json = render(&meta("s", &[], 1), &[cell]);
        assert!(json.contains("\"replay_matches_generator\": false"));
    }
}
