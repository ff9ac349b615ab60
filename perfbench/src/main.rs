//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload (see `README.md` beside this package) for `--seconds`
//! from inputs derived from `--seed`, checks every output, and prints one
//! JSON object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Lines before
//! it name every figure in human-readable form. The same object (and, for
//! traced runs, the recorded spans) is written under `--out`, a path
//! relative to the working directory unless given absolute.
//!
//! Every metric name and unit is checked against `BENCHMARK.json` in the
//! working directory before anything is printed.

mod serve;
mod sim;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use malec_serve::json::{self, Value};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.ns_per_inst", "ns"),
    ("trace.insts", "count"),
    ("iface.tick_ns_per_cycle.Base1ldst", "ns"),
    ("iface.tick_ns_per_cycle.Base2ld1st", "ns"),
    ("iface.tick_ns_per_cycle.MALEC", "ns"),
    ("iface.offer_ns_per_op", "ns"),
    ("iface.offers", "count"),
    ("iface.offer_rejected_frac", "ratio"),
    ("iface.completing_tick_frac", "ratio"),
    ("core.self_ns_per_cycle.Base1ldst", "ns"),
    ("core.self_ns_per_cycle.Base2ld1st", "ns"),
    ("core.self_ns_per_cycle.MALEC", "ns"),
    ("core.sim_cycles", "count"),
    ("core.ipc", "ratio"),
    ("sim.assemble_us_per_cell", "us"),
    ("client.submit_ms", "ms"),
    ("spec.parse_us", "us"),
    ("client.report_ms", "ms"),
    ("report.render_us", "us"),
    ("client.polls_per_job", "count"),
    ("client.poll_wait_ms", "ms"),
    ("engine.settle_ms", "ms"),
    ("cache.key_us", "us"),
    ("cache.encode_us", "us"),
    ("cache.decode_us", "us"),
    ("cache.hit_frac", "ratio"),
    ("cache.fetched", "count"),
    ("cluster.simulated_cells", "count"),
    ("trace_overhead_frac", "ratio"),
];

/// How many times each run performs its set-up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// The seed the golden digest tables were recorded at.
pub const GOLDEN_SEED: u64 = malec_bench::DEFAULT_SEED;

/// One run's parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    out: PathBuf,
}

/// One recorded span: a timed call into a layer, with the span that
/// caused it (`parent`, 0 for none) and any counts taken at the boundary.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Microseconds since process start.
    pub start_us: f64,
    pub dur_us: f64,
    pub attrs: Vec<(&'static str, f64)>,
}

/// In-memory span recorder; written out once the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span that started at `start` and ends now; returns its id.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant) -> u64 {
        self.record_with(name, parent, start, Vec::new())
    }

    pub fn record_with(
        &mut self,
        name: &'static str,
        parent: u64,
        start: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: start.elapsed().as_secs_f64() * 1e6,
            attrs,
        });
        id
    }

    /// Reserves an id for a span whose children are recorded before it.
    pub fn reserve(&mut self) -> u64 {
        self.record("pending", 0, Instant::now())
    }

    /// Fills in a reserved span.
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) {
        let span = &mut self.spans[id as usize - 1];
        span.name = name;
        span.parent = parent;
        span.start_us = start.duration_since(self.origin).as_secs_f64() * 1e6;
        span.dur_us = start.elapsed().as_secs_f64() * 1e6;
        span.attrs = attrs;
    }
}

/// What a workload hands back: counts, checks, metrics and notes.
pub struct Outcome {
    /// Cells or jobs attempted.
    pub attempted: u64,
    /// Cells or jobs that errored, were refused, or failed a check.
    pub failed: u64,
    /// Run-level checks (those not tied to one cell or job) all held.
    pub checks_ok: bool,
    /// The metrics of this mode, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable figures printed before the result line.
    pub notes: Vec<String>,
    pub spans: Option<Spans>,
}

/// Median set-up time over [`SETUPS`] set-ups. The first counts from
/// process start; each later one tears the previous result down first
/// (untimed). Returns the last result.
pub fn repeat_setup<T>(
    started: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t0 = if i == 0 { started } else { Instant::now() };
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("SETUPS > 0");
    Ok((last.expect("SETUPS > 0"), median))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

const USAGE: &str = "usage: perfbench --workload <sim_profiles|sim_adversarial|serve_cluster> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The `(name, unit)` list under `key` in `BENCHMARK.json`.
fn declared(doc: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCHMARK.json `{key}` entry lacks `{f}`"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

fn run(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (key, list) = if args.trace {
        ("per_layer", PER_LAYER)
    } else {
        ("end_to_end", END_TO_END)
    };
    stats::check_against(list, &declared(&doc, key)?)?;

    let outcome = match args.workload.as_str() {
        "sim_profiles" => sim::run(sim::Workload::Profiles, args, started)?,
        "sim_adversarial" => sim::run(sim::Workload::Adversarial, args, started)?,
        "serve_cluster" => serve::run(args, started)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };

    let mut metrics = String::new();
    for (i, &(name, unit)) in list.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    let correct = outcome.failed == 0 && outcome.checks_ok && outcome.attempted > 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    write_results(&args.out, &stem, &line, &outcome)?;
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Writes the result object, the notes and any spans under `dir`.
fn write_results(dir: &Path, stem: &str, line: &str, outcome: &Outcome) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut body = format!("{line}\n");
    for note in &outcome.notes {
        body.push_str(note);
        body.push('\n');
    }
    let path = dir.join(format!("{stem}.txt"));
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    if let Some(spans) = &outcome.spans {
        let mut out = String::new();
        for s in &spans.spans {
            let attrs: String = s
                .attrs
                .iter()
                .map(|(k, v)| format!(", \"{k}\": {v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"dur_us\": {:.3}{attrs}}}",
                s.id, s.parent, s.name, s.start_us, s.dur_us
            )
            .expect("write to String");
        }
        let path = dir.join(format!("{stem}-spans.jsonl"));
        std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_are_valid_and_disjoint() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        let declared: Vec<(String, String)> = all
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        stats::check_against(&all, &declared).expect("names valid and unique");
    }

    #[test]
    fn args_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = args("--workload w --seed 3 --seconds 1.5 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 1.5, true));
        assert_eq!(
            a.out,
            PathBuf::from("perfbench/out"),
            "relative to the working directory"
        );
        assert!(args("--workload w --seed 3 --seconds 1 --trace 2").is_err());
        assert!(args("--workload w --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload w --seed 3 --seconds 0 --trace 0").is_err());
        assert!(
            args("--workload w --seed 3 --trace 0").is_err(),
            "seconds missing"
        );
        assert!(args("--workload w --seed 3 --seconds 1 --trace 0 --bogus 1").is_err());
    }
}
