//! The scenario + sweep spec: what a `malec-cli` TOML file means.
//!
//! A spec names one [`Scenario`] (phased, mixed, single-segment, a preset,
//! or a bare benchmark profile), the configurations to sweep it over, the
//! instruction budget and seed, and where the report and recorded `.mtr`
//! trace go. See `examples/scenarios/` for complete files.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use malec_core::compare::Alpha;
use malec_core::digest::MAX_STR;
use malec_core::stats::{CiMetric, Replication};
use malec_trace::benchmark_named;
use malec_trace::scenario::{
    preset_named, BankConflictParams, MixPart, Phase, Scenario, SegmentKind, StoreBurstParams,
    TlbThrashParams,
};
use malec_types::SimConfig;

use crate::toml::{parse, TomlError, Value};

/// Default instruction budget per sweep cell.
pub const DEFAULT_INSTS: u64 = 20_000;
/// Default seed (the repository-wide reproducibility seed).
pub const DEFAULT_SEED: u64 = 2013;
/// Default mandatory replicates before a `ci_target` may stop a cell.
const DEFAULT_MIN_SEEDS: u32 = 3;
/// Upper bound on `seeds`. Statistically, t-based CIs stop narrowing
/// meaningfully long before this; operationally, the scheduler eagerly
/// shards `configs x seeds` work units per submission, so an unbounded
/// knob would let one tiny POST body demand a multi-gigabyte allocation
/// (the same one-request kill class as unbounded parser nesting).
const MAX_SEEDS: u32 = 1024;

/// A fully resolved sweep spec.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The composed scenario, shared by every job and work unit planned
    /// from this spec.
    pub scenario: Arc<Scenario>,
    /// Configurations to sweep over.
    pub configs: Vec<SimConfig>,
    /// Instructions per cell.
    pub insts: u64,
    /// Base seed for generation and interface randomness (replicate 0 uses
    /// it verbatim; replicate `i` derives `replicate_seed(seed, i)`).
    pub seed: u64,
    /// Multi-seed replication policy (`seeds` / `min_seeds` / `ci_target` /
    /// `ci_metric` in `[sweep]`; defaults to the legacy single seed).
    pub replication: Replication,
    /// Paired comparison (`[compare]`), if the spec declares one. With a
    /// `ci_target`, the paired delta becomes the stopping criterion for
    /// the compared pair of configurations.
    pub compare: Option<CompareSpec>,
    /// JSON report path (`<scenario name>_report.json` if unset).
    pub out: String,
    /// Recorded trace path (`<scenario name>.mtr` if unset).
    pub mtr: String,
    /// Compare-report path (`<scenario name>_compare.json` if unset).
    pub compare_out: String,
}

/// The `[compare]` section: which two interfaces of the sweep are paired
/// per shared replicate seed, and the verdict significance level.
#[derive(Clone, Debug)]
pub struct CompareSpec {
    /// Baseline configuration.
    pub baseline: SimConfig,
    /// Candidate configuration (deltas are candidate − baseline).
    pub candidate: SimConfig,
    /// Verdict significance level (`alpha`; 0.10, 0.05 or 0.01).
    pub alpha: Alpha,
}

impl Default for CompareSpec {
    /// The paper's headline pairing: MALEC against the energy-oriented
    /// baseline at 95 % confidence.
    fn default() -> Self {
        Self {
            baseline: SimConfig::base1ldst(),
            candidate: SimConfig::malec(),
            alpha: Alpha::default(),
        }
    }
}

/// A fully resolved comparison over a spec's config list.
#[derive(Clone, Copy, Debug)]
pub struct ResolvedCompare {
    /// Index of the baseline in `SweepSpec::configs`.
    pub baseline: usize,
    /// Index of the candidate in `SweepSpec::configs`.
    pub candidate: usize,
    /// Verdict significance level.
    pub alpha: Alpha,
}

impl SweepSpec {
    /// Resolves this spec's comparison against its config list: the
    /// explicit `[compare]` section, or the default (Base1ldst vs MALEC at
    /// `alpha = 0.05`) when the spec has none — so `malec compare` and
    /// `GET /v1/jobs/<id>/compare` work on any spec whose configs carry
    /// the pair.
    ///
    /// # Errors
    ///
    /// Rejects comparisons whose baseline or candidate is not in the
    /// sweep's configs, and single-seed sweeps (a paired verdict needs at
    /// least two shared seeds). A `ci_target` without an explicit
    /// `[compare]` section is also rejected: early stopping must follow
    /// exactly one criterion everywhere, and only an explicit section
    /// makes the **paired delta** that criterion (the `malec-serve`
    /// scheduler keeps a plain replicated sweep on the marginal rule so
    /// `submit` stays bit-identical to `run`; an implicit pairing on top
    /// of it would stop at different counts than a local `compare`).
    pub fn resolve_compare(&self) -> Result<ResolvedCompare, SpecError> {
        if self.compare.is_none() && self.replication.ci_target.is_some() {
            return Err(bad(
                "[sweep]: `ci_target` with an implicit pairing is ambiguous — add an explicit \
                 [compare] section so the paired delta drives early stopping",
            ));
        }
        let cmp = self.compare.clone().unwrap_or_default();
        let index_of = |cfg: &SimConfig| {
            self.configs
                .iter()
                .position(|c| c.label() == cfg.label())
                .ok_or_else(|| {
                    bad(format!(
                        "[compare]: `{}` is not in the sweep's configs \
                         (add it to [sweep] configs or change the pairing)",
                        cfg.label()
                    ))
                })
        };
        if self.replication.seeds < 2 {
            return Err(bad(
                "[compare]: a paired comparison needs `seeds` >= 2 in [sweep] \
                 (one shared seed has no interval)",
            ));
        }
        Ok(ResolvedCompare {
            baseline: index_of(&cmp.baseline)?,
            candidate: index_of(&cmp.candidate)?,
            alpha: cmp.alpha,
        })
    }

    /// Restricts this spec to the named config labels, keeping spec order
    /// — a scatter sub-job (`POST /v1/jobs?configs=A,B`) and a local
    /// `compare` both narrow a spec this way. The `[compare]` pairing
    /// survives only if both of its members do (a filtered-out half would
    /// otherwise resurrect as a default).
    ///
    /// # Errors
    ///
    /// Rejects an empty label list and any label that names no config of
    /// the spec.
    pub fn restrict_configs(&mut self, labels: &[&str]) -> Result<(), SpecError> {
        if labels.is_empty() {
            return Err(bad("the config restriction names no configs"));
        }
        if let Some(label) = labels
            .iter()
            .find(|&&l| !self.configs.iter().any(|c| c.label() == l))
        {
            return Err(bad(format!(
                "the config restriction names `{label}`, which is not in the spec"
            )));
        }
        let kept = |c: &SimConfig| labels.contains(&c.label().as_str());
        if !self
            .compare
            .as_ref()
            .is_some_and(|c| kept(&c.baseline) && kept(&c.candidate))
        {
            self.compare = None;
        }
        self.configs.retain(kept);
        Ok(())
    }
}

/// A spec-level failure: parse error or semantic problem.
#[derive(Clone, Debug)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<TomlError> for SpecError {
    fn from(e: TomlError) -> Self {
        SpecError(e.to_string())
    }
}

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

type Table = BTreeMap<String, Value>;

fn get_str<'a>(t: &'a Table, key: &str, ctx: &str) -> Result<&'a str, SpecError> {
    t.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| bad(format!("{ctx}: missing or non-string `{key}`")))
}

fn opt_u64(t: &Table, key: &str, default: u64, ctx: &str) -> Result<u64, SpecError> {
    match t.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_int()
            .filter(|&i| i >= 0)
            .map(|i| i as u64)
            .ok_or_else(|| bad(format!("{ctx}: `{key}` must be a non-negative integer"))),
    }
}

fn opt_u32(t: &Table, key: &str, default: u32, ctx: &str) -> Result<u32, SpecError> {
    let v = opt_u64(t, key, u64::from(default), ctx)?;
    u32::try_from(v).map_err(|_| bad(format!("{ctx}: `{key}` too large")))
}

/// `opt_u32` with an upper bound — the adversarial generators own fixed
/// 32-bit address regions (slot 14 and the halves of slot 15), so their
/// page pools must not spill past them into each other or the benchmarks.
fn bounded_u32(t: &Table, key: &str, default: u32, max: u32, ctx: &str) -> Result<u32, SpecError> {
    let v = opt_u32(t, key, default, ctx)?;
    if v > max {
        return Err(bad(format!(
            "{ctx}: `{key}` must be at most {max} (address-region bound)"
        )));
    }
    Ok(v)
}

fn opt_f64(t: &Table, key: &str, default: f64, ctx: &str) -> Result<f64, SpecError> {
    match t.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_float()
            .filter(|f| f.is_finite())
            .ok_or_else(|| bad(format!("{ctx}: `{key}` must be a number"))),
    }
}

/// Rejects keys outside `allowed` — a typo'd or misplaced setting must
/// fail loudly instead of silently falling back to a default.
fn reject_unknown_keys(t: &Table, allowed: &[&str], ctx: &str) -> Result<(), SpecError> {
    for key in t.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(bad(format!(
                "{ctx}: unknown key `{key}` (expected one of: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// Parses a segment description (`kind = ...` plus kind-specific fields).
/// `extra` names the caller-level keys sharing the table (`insts` for
/// phases, `weight` for parts).
fn parse_segment(t: &Table, extra: &[&str], ctx: &str) -> Result<SegmentKind, SpecError> {
    let kind = get_str(t, "kind", ctx)?;
    let check = |kind_keys: &[&str]| {
        let mut allowed = vec!["kind"];
        allowed.extend_from_slice(extra);
        allowed.extend_from_slice(kind_keys);
        reject_unknown_keys(t, &allowed, ctx)
    };
    match kind {
        "benchmark" => {
            check(&["benchmark"])?;
            let name = get_str(t, "benchmark", ctx)?;
            let profile = benchmark_named(name)
                .ok_or_else(|| bad(format!("{ctx}: unknown benchmark `{name}`")))?;
            Ok(SegmentKind::Benchmark(profile))
        }
        "tlb_thrash" => {
            check(&["pages", "lines_per_page", "load_fraction"])?;
            let d = TlbThrashParams::default();
            Ok(SegmentKind::TlbThrash(TlbThrashParams {
                // Slot 14 of the 32-bit space: 256 MiB = 65536 pages.
                pages: bounded_u32(t, "pages", d.pages, 65_536, ctx)?,
                lines_per_page: opt_u32(t, "lines_per_page", d.lines_per_page, ctx)?,
                load_fraction: opt_f64(t, "load_fraction", d.load_fraction, ctx)?.clamp(0.0, 1.0),
            }))
        }
        "bank_conflict" => {
            check(&["stride_lines", "pages"])?;
            let d = BankConflictParams::default();
            Ok(SegmentKind::BankConflict(BankConflictParams {
                stride_lines: opt_u32(t, "stride_lines", d.stride_lines, ctx)?,
                // Lower half of slot 15: 128 MiB = 32768 pages.
                pages: bounded_u32(t, "pages", d.pages, 32_768, ctx)?,
            }))
        }
        "store_burst" => {
            check(&["burst", "loads_after", "lines_back", "gap", "pages"])?;
            let d = StoreBurstParams::default();
            Ok(SegmentKind::StoreBurst(StoreBurstParams {
                burst: opt_u32(t, "burst", d.burst, ctx)?,
                loads_after: opt_u32(t, "loads_after", d.loads_after, ctx)?,
                lines_back: opt_u32(t, "lines_back", d.lines_back, ctx)?,
                gap: opt_u32(t, "gap", d.gap, ctx)?,
                // Upper half of slot 15: 128 MiB = 32768 pages.
                pages: bounded_u32(t, "pages", d.pages, 32_768, ctx)?,
            }))
        }
        other => Err(bad(format!(
            "{ctx}: unknown segment kind `{other}` \
             (expected benchmark | tlb_thrash | bank_conflict | store_burst)"
        ))),
    }
}

fn parse_scenario(root: &Table) -> Result<Scenario, SpecError> {
    let t = root
        .get("scenario")
        .and_then(Value::as_table)
        .ok_or_else(|| bad("spec needs a [scenario] table"))?;
    let mode = t.get("mode").and_then(Value::as_str).unwrap_or("phased");
    if mode == "preset" || mode == "benchmark" {
        // A named workload: `preset = "<name>"` or `benchmark = "<name>"`
        // is the whole scenario.
        reject_unknown_keys(t, &["mode", mode], "[scenario]")?;
        let name = get_str(t, mode, "[scenario]")?;
        let found = if mode == "preset" {
            preset_named(name)
        } else {
            benchmark_named(name).map(Scenario::benchmark)
        };
        return found.ok_or_else(|| bad(format!("[scenario]: unknown {mode} `{name}`")));
    }
    let name = get_str(t, "name", "[scenario]")?.to_owned();
    // Every cell's summary carries the name, and the cache codec holds
    // strings to MAX_STR bytes.
    if name.len() > MAX_STR {
        return Err(bad(format!(
            "[scenario]: `name` is {} bytes, over the {MAX_STR}-byte limit",
            name.len()
        )));
    }
    match mode {
        "phased" => {
            reject_unknown_keys(t, &["mode", "name", "phase"], "[scenario]")?;
            let phases = t
                .get("phase")
                .and_then(Value::as_array)
                .ok_or_else(|| bad("phased scenarios need [[scenario.phase]] entries"))?;
            if phases.is_empty() {
                return Err(bad("phased scenarios need at least one phase"));
            }
            let phases = phases
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let ctx = format!("[[scenario.phase]] #{}", i + 1);
                    let pt = v
                        .as_table()
                        .ok_or_else(|| bad(format!("{ctx}: not a table")))?;
                    let insts = opt_u64(pt, "insts", 0, &ctx)?;
                    if insts == 0 {
                        return Err(bad(format!("{ctx}: needs `insts` > 0")));
                    }
                    Ok(Phase::new(parse_segment(pt, &["insts"], &ctx)?, insts))
                })
                .collect::<Result<Vec<_>, SpecError>>()?;
            Ok(Scenario::phased(name, phases))
        }
        "mixed" => {
            reject_unknown_keys(t, &["mode", "name", "block", "part"], "[scenario]")?;
            let parts = t
                .get("part")
                .and_then(Value::as_array)
                .ok_or_else(|| bad("mixed scenarios need [[scenario.part]] entries"))?;
            if parts.is_empty() {
                return Err(bad("mixed scenarios need at least one part"));
            }
            let block = opt_u32(t, "block", 64, "[scenario]")?;
            if block == 0 {
                return Err(bad("[scenario]: `block` must be > 0"));
            }
            let parts = parts
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let ctx = format!("[[scenario.part]] #{}", i + 1);
                    let pt = v
                        .as_table()
                        .ok_or_else(|| bad(format!("{ctx}: not a table")))?;
                    let weight = opt_u32(pt, "weight", 1, &ctx)?;
                    if weight == 0 {
                        // Fail loudly: a zero-weight part would be silently
                        // clamped to 1 by MixPart::new, not disabled.
                        return Err(bad(format!(
                            "{ctx}: `weight` must be > 0 (delete the part to disable it)"
                        )));
                    }
                    Ok(MixPart::new(parse_segment(pt, &["weight"], &ctx)?, weight))
                })
                .collect::<Result<Vec<_>, SpecError>>()?;
            Ok(Scenario::mixed(name, parts, block))
        }
        other => Err(bad(format!(
            "[scenario]: unknown mode `{other}` (expected phased | mixed | preset | benchmark)"
        ))),
    }
}

/// Parses a config label, naming the valid set on failure.
fn config_by_label(label: &str, ctx: &str) -> Result<SimConfig, SpecError> {
    SimConfig::by_label(label).ok_or_else(|| {
        bad(format!(
            "{ctx}: unknown config `{label}` (expected one of {})",
            SimConfig::figure4_set()
                .iter()
                .map(SimConfig::label)
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })
}

fn parse_compare(root: &Table) -> Result<Option<CompareSpec>, SpecError> {
    let Some(t) = root.get("compare").and_then(Value::as_table) else {
        return Ok(None);
    };
    reject_unknown_keys(t, &["baseline", "candidate", "alpha"], "[compare]")?;
    let d = CompareSpec::default();
    let side = |key: &str, default: SimConfig| match t.get(key) {
        None => Ok(default),
        Some(v) => {
            let label = v
                .as_str()
                .ok_or_else(|| bad(format!("[compare]: `{key}` must be a config label string")))?;
            config_by_label(label, "[compare]")
        }
    };
    let baseline = side("baseline", d.baseline)?;
    let candidate = side("candidate", d.candidate)?;
    if baseline.label() == candidate.label() {
        return Err(bad(
            "[compare]: `baseline` and `candidate` must differ (a config cannot be paired with itself)",
        ));
    }
    let alpha = match t.get("alpha") {
        None => d.alpha,
        Some(v) => {
            let f = v
                .as_float()
                .ok_or_else(|| bad("[compare]: `alpha` must be a number"))?;
            Alpha::from_value(f).ok_or_else(|| {
                bad("[compare]: `alpha` must be one of 0.10, 0.05, 0.01 (the exact t-table levels)")
            })?
        }
    };
    Ok(Some(CompareSpec {
        baseline,
        candidate,
        alpha,
    }))
}

fn parse_configs(root: &Table, compare: Option<&CompareSpec>) -> Result<Vec<SimConfig>, SpecError> {
    let sweep = root.get("sweep").and_then(Value::as_table);
    let Some(list) = sweep
        .and_then(|t| t.get("configs"))
        .and_then(Value::as_array)
    else {
        // No explicit list: the compared pair when a [compare] section
        // names one, otherwise the three Table I configurations.
        if let Some(cmp) = compare {
            return Ok(vec![cmp.baseline.clone(), cmp.candidate.clone()]);
        }
        return Ok(vec![
            SimConfig::base1ldst(),
            SimConfig::base2ld1st(),
            SimConfig::malec(),
        ]);
    };
    if list.is_empty() {
        return Err(bad("[sweep]: `configs` must not be empty"));
    }
    let mut configs: Vec<SimConfig> = Vec::with_capacity(list.len());
    for v in list {
        let label = v
            .as_str()
            .ok_or_else(|| bad("[sweep]: `configs` must be a list of strings"))?;
        // A repeated config would run (and report) the same cells twice.
        if configs.iter().any(|c| c.label() == label) {
            return Err(bad(format!("[sweep]: config `{label}` is listed twice")));
        }
        configs.push(config_by_label(label, "[sweep]")?);
    }
    Ok(configs)
}

/// Parses a complete spec document.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the first TOML or semantic problem.
pub fn parse_spec(input: &str) -> Result<SweepSpec, SpecError> {
    let root = parse(input)?;
    reject_unknown_keys(&root, &["scenario", "sweep", "report", "compare"], "spec")?;
    let scenario = parse_scenario(&root)?;
    let compare = parse_compare(&root)?;
    let configs = parse_configs(&root, compare.as_ref())?;
    let sweep = root.get("sweep").and_then(Value::as_table);
    let (insts, seed, replication) = match sweep {
        Some(t) => {
            reject_unknown_keys(
                t,
                &[
                    "configs",
                    "insts",
                    "seed",
                    "seeds",
                    "min_seeds",
                    "ci_target",
                    "ci_metric",
                ],
                "[sweep]",
            )?;
            (
                opt_u64(t, "insts", DEFAULT_INSTS, "[sweep]")?,
                opt_u64(t, "seed", DEFAULT_SEED, "[sweep]")?,
                parse_replication(t)?,
            )
        }
        None => (DEFAULT_INSTS, DEFAULT_SEED, Replication::single()),
    };
    if insts == 0 {
        return Err(bad("[sweep]: `insts` must be > 0"));
    }
    let report = root.get("report").and_then(Value::as_table);
    if let Some(t) = report {
        reject_unknown_keys(t, &["out", "mtr", "compare"], "[report]")?;
    }
    let out = report
        .and_then(|t| t.get("out"))
        .and_then(Value::as_str)
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}_report.json", scenario.name));
    let mtr = report
        .and_then(|t| t.get("mtr"))
        .and_then(Value::as_str)
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}.mtr", scenario.name));
    let compare_out = report
        .and_then(|t| t.get("compare"))
        .and_then(Value::as_str)
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}_compare.json", scenario.name));
    let spec = SweepSpec {
        scenario: Arc::new(scenario),
        configs,
        insts,
        seed,
        replication,
        compare,
        out,
        mtr,
        compare_out,
    };
    if spec.compare.is_some() {
        // An explicit [compare] must be coherent with the rest of the spec
        // at parse time (membership in the configs, enough seeds for an
        // interval) — not only when someone eventually asks for deltas.
        spec.resolve_compare()?;
    }
    Ok(spec)
}

/// Parses and validates the `[sweep]` replication knobs.
fn parse_replication(t: &Table) -> Result<Replication, SpecError> {
    let seeds = opt_u32(t, "seeds", 1, "[sweep]")?;
    if seeds == 0 {
        return Err(bad(
            "[sweep]: `seeds` must be >= 1 (a cell needs at least one replicate)",
        ));
    }
    if seeds > MAX_SEEDS {
        return Err(bad(format!("[sweep]: `seeds` must be at most {MAX_SEEDS}")));
    }
    let ci_target = match t.get("ci_target") {
        None => None,
        Some(v) => {
            let f = v
                .as_float()
                .filter(|f| f.is_finite() && *f > 0.0)
                .ok_or_else(|| bad("[sweep]: `ci_target` must be a finite number > 0"))?;
            Some(f)
        }
    };
    if ci_target.is_some() && seeds < 2 {
        return Err(bad(
            "[sweep]: `ci_target` needs `seeds` >= 2 (one replicate has no interval)",
        ));
    }
    let min_seeds = opt_u32(t, "min_seeds", DEFAULT_MIN_SEEDS.min(seeds), "[sweep]")?;
    if ci_target.is_some() && min_seeds < 2 {
        return Err(bad(
            "[sweep]: `min_seeds` must be >= 2 with a `ci_target` (a CI needs two replicates)",
        ));
    }
    if min_seeds == 0 || min_seeds > seeds {
        return Err(bad(format!(
            "[sweep]: `min_seeds` must be in 1..=seeds (= {seeds})"
        )));
    }
    let metric = match t.get("ci_metric") {
        None => CiMetric::default(),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| bad("[sweep]: `ci_metric` must be a string"))?;
            CiMetric::parse(name).ok_or_else(|| {
                bad(format!(
                    "[sweep]: unknown ci_metric `{name}` (expected ipc | energy_per_access)"
                ))
            })?
        }
    };
    Ok(Replication {
        seeds,
        min_seeds,
        ci_target,
        metric,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_trace::scenario::Composition;

    const MIXED: &str = r#"
[scenario]
name = "demo"
mode = "mixed"
block = 32

[[scenario.part]]
kind = "benchmark"
benchmark = "djpeg"
weight = 2

[[scenario.part]]
kind = "store_burst"
burst = 20

[sweep]
configs = ["Base1ldst", "MALEC"]
insts = 9000
seed = 7

[report]
out = "demo.json"
mtr = "demo.mtr"
"#;

    #[test]
    fn parses_a_mixed_spec() {
        let spec = parse_spec(MIXED).expect("parses");
        assert_eq!(spec.scenario.name, "demo");
        assert_eq!(spec.insts, 9000);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.out, "demo.json");
        assert_eq!(spec.mtr, "demo.mtr");
        assert_eq!(spec.configs.len(), 2);
        assert_eq!(spec.configs[1].label(), "MALEC");
        match &spec.scenario.composition {
            Composition::Mixed { parts, block } => {
                assert_eq!(*block, 32);
                assert_eq!(parts.len(), 2);
                assert_eq!(parts[0].weight, 2);
                assert_eq!(parts[0].kind.label(), "djpeg");
                match &parts[1].kind {
                    SegmentKind::StoreBurst(p) => assert_eq!(p.burst, 20),
                    other => panic!("wrong kind: {other:?}"),
                }
            }
            other => panic!("wrong composition: {other:?}"),
        }
    }

    #[test]
    fn parses_a_phased_spec_with_defaults() {
        let spec = parse_spec(
            "[scenario]\nname = \"p\"\n\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 500\n",
        )
        .expect("parses");
        assert_eq!(spec.insts, DEFAULT_INSTS);
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.configs.len(), 3, "Table I defaults");
        assert_eq!(spec.out, "p_report.json");
        assert_eq!(spec.mtr, "p.mtr");
    }

    #[test]
    fn parses_replication_knobs_with_defaults() {
        // No knobs: the legacy single-seed behavior.
        let spec = parse_spec(MIXED).expect("parses");
        assert_eq!(spec.replication, Replication::single());

        // Fixed replication: min_seeds defaults to min(3, seeds).
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n[sweep]\nseeds = 8\n";
        let spec = parse_spec(doc).expect("parses");
        assert_eq!(spec.replication.seeds, 8);
        assert_eq!(spec.replication.min_seeds, 3);
        assert_eq!(spec.replication.ci_target, None);
        assert_eq!(spec.replication.initial_count(), 8, "no target: run all");

        // CI-driven early stopping.
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                   [sweep]\nseeds = 16\nmin_seeds = 4\nci_target = 0.02\nci_metric = \"energy_per_access\"\n";
        let spec = parse_spec(doc).expect("parses");
        assert_eq!(spec.replication.seeds, 16);
        assert_eq!(spec.replication.min_seeds, 4);
        assert_eq!(spec.replication.ci_target, Some(0.02));
        assert_eq!(spec.replication.metric, CiMetric::EnergyPerAccess);
        assert_eq!(spec.replication.initial_count(), 4, "target: start minimal");

        // seeds = 2 clamps the default minimum to the cap.
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n[sweep]\nseeds = 2\n";
        assert_eq!(parse_spec(doc).expect("parses").replication.min_seeds, 2);
    }

    #[test]
    fn parses_compare_sections() {
        // Explicit pairing with its own alpha; configs default to the pair.
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                   [compare]\nbaseline = \"Base2ld1st\"\ncandidate = \"MALEC\"\nalpha = 0.01\n\
                   [sweep]\nseeds = 4\n";
        let spec = parse_spec(doc).expect("parses");
        let cmp = spec.compare.as_ref().expect("compare section");
        assert_eq!(cmp.baseline.label(), "Base2ld1st");
        assert_eq!(cmp.candidate.label(), "MALEC");
        assert_eq!(cmp.alpha, Alpha::One);
        assert_eq!(
            spec.configs
                .iter()
                .map(SimConfig::label)
                .collect::<Vec<_>>(),
            ["Base2ld1st", "MALEC"],
            "no explicit configs: the compared pair is the sweep"
        );
        assert_eq!(spec.compare_out, "store_burst_compare.json");
        let resolved = spec.resolve_compare().expect("resolves");
        assert_eq!((resolved.baseline, resolved.candidate), (0, 1));
        assert_eq!(resolved.alpha, Alpha::One);

        // Empty [compare] table: the paper's default pairing at 0.05.
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                   [compare]\n\n[sweep]\nseeds = 2\n\
                   [report]\ncompare = \"deltas.json\"\n";
        let spec = parse_spec(doc).expect("parses");
        let cmp = spec.compare.as_ref().expect("compare section");
        assert_eq!(cmp.baseline.label(), "Base1ldst");
        assert_eq!(cmp.candidate.label(), "MALEC");
        assert_eq!(cmp.alpha, Alpha::Five);
        assert_eq!(spec.compare_out, "deltas.json");

        // No [compare] at all: the spec still resolves to the default
        // pairing against its (Table I default) configs.
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n[sweep]\nseeds = 3\n";
        let spec = parse_spec(doc).expect("parses");
        assert!(spec.compare.is_none());
        let resolved = spec.resolve_compare().expect("default pairing resolves");
        assert_eq!(spec.configs[resolved.baseline].label(), "Base1ldst");
        assert_eq!(spec.configs[resolved.candidate].label(), "MALEC");

        // ...but not when a ci_target is in play: a plain replicated sweep
        // stops marginally (submit stays bit-identical to run), so an
        // implicit pairing on top would diverge from a local paired run.
        // Stopping must follow exactly one criterion — demand an explicit
        // [compare].
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                   [sweep]\nseeds = 8\nci_target = 0.1\n";
        let spec = parse_spec(doc).expect("still a valid run/submit spec");
        let e = spec
            .resolve_compare()
            .expect_err("implicit pairing + ci_target");
        assert!(e.to_string().contains("explicit"), "{e}");
    }

    #[test]
    fn rejects_bad_compare_sections() {
        for (doc, needle) in [
            (
                "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                 [compare]\nbaseline = \"Qux\"\n[sweep]\nseeds = 4\n",
                "unknown config `Qux`",
            ),
            (
                "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                 [compare]\nbaseline = \"MALEC\"\ncandidate = \"MALEC\"\n[sweep]\nseeds = 4\n",
                "must differ",
            ),
            (
                "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                 [compare]\nalpha = 0.07\n[sweep]\nseeds = 4\n",
                "one of 0.10, 0.05, 0.01",
            ),
            (
                "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                 [compare]\nalhpa = 0.05\n[sweep]\nseeds = 4\n",
                "unknown key `alhpa`",
            ),
            // A paired verdict needs an interval: one seed cannot carry one.
            (
                "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n[compare]\n",
                "`seeds` >= 2",
            ),
            // Explicit configs must contain the compared pair.
            (
                "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                 [compare]\ncandidate = \"MALEC\"\n\
                 [sweep]\nconfigs = [\"Base2ld1st\", \"MALEC\"]\nseeds = 4\n",
                "`Base1ldst` is not in the sweep's configs",
            ),
        ] {
            let e = parse_spec(doc).expect_err(doc);
            assert!(e.to_string().contains(needle), "`{e}` lacks `{needle}`");
        }
    }

    #[test]
    fn restricting_configs_keeps_order_and_drops_a_split_pair() {
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                   [compare]\n\
                   [sweep]\nconfigs = [\"Base1ldst\", \"Base2ld1st\", \"MALEC\"]\nseeds = 4\n";
        let labels = |s: &SweepSpec| s.configs.iter().map(SimConfig::label).collect::<Vec<_>>();

        let mut pair = parse_spec(doc).expect("parses");
        pair.restrict_configs(&["MALEC", "Base1ldst"])
            .expect("both labels exist");
        assert_eq!(labels(&pair), ["Base1ldst", "MALEC"], "spec order kept");
        assert!(
            pair.compare.is_some(),
            "both halves kept: the pairing survives"
        );

        let mut half = parse_spec(doc).expect("parses");
        half.restrict_configs(&["MALEC"]).expect("label exists");
        assert_eq!(labels(&half), ["MALEC"]);
        assert!(
            half.compare.is_none(),
            "a split pair is dropped, not defaulted"
        );

        let mut bad = parse_spec(doc).expect("parses");
        for (want, needle) in [(&[][..], "names no configs"), (&["Qux"][..], "`Qux`")] {
            let e = bad.restrict_configs(want).expect_err("rejected");
            assert!(e.to_string().contains(needle), "{e}");
        }
        assert_eq!(
            labels(&bad).len(),
            3,
            "a rejected restriction changes nothing"
        );
    }

    #[test]
    fn rejects_a_config_listed_twice() {
        for configs in [
            "\"MALEC\", \"MALEC\"",
            "\"MALEC\", \"Base1ldst\", \"MALEC\"",
        ] {
            let doc = format!(
                "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n[sweep]\nconfigs = [{configs}]\n"
            );
            let e = parse_spec(&doc).expect_err(&doc);
            assert!(
                e.to_string().contains("config `MALEC` is listed twice"),
                "{e}"
            );
        }
    }

    #[test]
    fn parses_a_preset_spec() {
        let spec = parse_spec("[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n")
            .expect("parses");
        assert_eq!(spec.scenario.name, "store_burst");

        // A bare benchmark is named like a preset.
        let spec =
            parse_spec("[scenario]\nmode = \"benchmark\"\nbenchmark = \"gzip\"\n").expect("parses");
        let gzip = benchmark_named("gzip").expect("gzip exists");
        assert_eq!(*spec.scenario, Scenario::benchmark(gzip));
        assert_eq!(spec.scenario.name, "gzip");
        assert_eq!(spec.out, "gzip_report.json");
    }

    #[test]
    fn scenario_names_are_held_to_the_codec_string_limit() {
        let doc = |name: &str| {
            format!(
                "[scenario]\nname = \"{name}\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\n\
                 insts = 5\n"
            )
        };
        let longest = "n".repeat(MAX_STR);
        assert_eq!(
            parse_spec(&doc(&longest))
                .expect("at the limit")
                .scenario
                .name,
            longest
        );
        let err = parse_spec(&doc(&format!("{longest}n"))).expect_err("past the limit");
        assert!(
            err.to_string().contains("over the 4096-byte limit"),
            "{err}"
        );
    }

    #[test]
    fn rejects_bad_specs() {
        for (doc, needle) in [
            ("x = 1\n", "unknown key `x`"),
            ("[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nconfigs = []\n", "must not be empty"),
            ("[scenario]\nname = \"a\"\n", "phase"),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\n",
                "insts",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"what\"\ninsts = 5\n",
                "unknown segment kind",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"benchmark\"\nbenchmark = \"nope\"\ninsts = 5\n",
                "unknown benchmark",
            ),
            (
                "[scenario]\nmode = \"preset\"\npreset = \"nope\"\n",
                "unknown preset",
            ),
            (
                "[scenario]\nmode = \"benchmark\"\nbenchmark = \"nope\"\n",
                "unknown benchmark `nope`",
            ),
            // A bare benchmark is named by its profile alone: no name of
            // its own, no phases, no parts.
            (
                "[scenario]\nmode = \"benchmark\"\nbenchmark = \"gzip\"\nname = \"g\"\n",
                "unknown key `name`",
            ),
            (
                "[scenario]\nmode = \"benchmark\"\nbenchmark = \"gzip\"\n\
                 [[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n",
                "unknown key `phase`",
            ),
            (
                "[scenario]\nmode = \"benchmark\"\nbenchmark = \"gzip\"\n\
                 [[scenario.part]]\nkind = \"tlb_thrash\"\n",
                "unknown key `part`",
            ),
            (
                "[scenario]\nname = \"a\"\nmode = \"what\"\n",
                "unknown mode `what` (expected phased | mixed | preset | benchmark)",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nconfigs = [\"Qux\"]\n",
                "unknown config",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\ninsts = 0\n",
                "insts",
            ),
            // Misplaced and typo'd keys must fail loudly, not silently
            // fall back to defaults.
            (
                "[scenario]\nname = \"a\"\ninsts = 500000\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n",
                "unknown key `insts`",
            ),
            // Replication knobs validate hard: zero seeds, a minimum above
            // the cap, an interval target without replicates, an unknown
            // metric — each is a loud error, never a silent clamp.
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nseeds = 0\n",
                "`seeds` must be >= 1",
            ),
            // Unbounded seeds would let one tiny request demand a
            // configs x seeds work-unit allocation in malec-serve.
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nseeds = 4294967295\n",
                "`seeds` must be at most 1024",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nseeds = 4\nmin_seeds = 9\n",
                "`min_seeds` must be in 1..=seeds",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nci_target = 0.05\n",
                "`ci_target` needs `seeds` >= 2",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nseeds = 8\nci_target = 0.0\n",
                "`ci_target` must be a finite number > 0",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nseeds = 8\nci_target = 0.05\nmin_seeds = 1\n",
                "`min_seeds` must be >= 2 with a `ci_target`",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nseeds = 8\nci_metric = \"cycles\"\n",
                "unknown ci_metric",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[sweep]\nseedz = 7\n",
                "unknown key `seedz`",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"store_burst\"\nburts = 9\ninsts = 5\n",
                "unknown key `burts`",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\ninsts = 5\n[reprot]\nout = \"x\"\n",
                "unknown key `reprot`",
            ),
            // Region bounds and zero weights fail loudly too.
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"tlb_thrash\"\npages = 100000\ninsts = 5\n",
                "at most 65536",
            ),
            (
                "[scenario]\nname = \"a\"\n[[scenario.phase]]\nkind = \"bank_conflict\"\npages = 40000\ninsts = 5\n",
                "at most 32768",
            ),
            (
                "[scenario]\nname = \"a\"\nmode = \"mixed\"\n[[scenario.part]]\nkind = \"tlb_thrash\"\nweight = 0\n",
                "`weight` must be > 0",
            ),
        ] {
            let e = parse_spec(doc).expect_err(doc);
            assert!(e.to_string().contains(needle), "`{e}` lacks `{needle}`");
        }
    }
}
