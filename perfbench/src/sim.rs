//! The simulator workloads.
//!
//! Untraced passes call `Simulator::run_source`, as the CLI and the golden
//! tables do. Traced passes rebuild each cell from its public parts: the
//! configured `AnyInterface` behind a timing wrapper and the trace
//! generator behind a timing iterator, both driven by `OoOCore::run`, with
//! the `RunSummary` assembled as `Simulator::run_trace` assembles it. Every
//! traced cell's digest must equal the untraced one, so the rebuild is
//! checked on every run rather than trusted.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use malec_bench::goldens::{
    scenario_configs, COMPARE_GOLDEN_DIGESTS, COMPARE_INSTS, COMPARE_SEEDS, GOLDEN_DIGESTS,
    SCENARIO_GOLDEN_DIGESTS, SCENARIO_INSTS,
};
use malec_bench::{goldens::BENCH_BENCHMARKS, DEFAULT_INSTS};
use malec_core::compare::{compare_digest, Alpha, CompareStats};
use malec_core::sim::AnyInterface;
use malec_core::{digest, RunSummary, ScenarioSource, Simulator};
use malec_cpu::{AcceptKind, CoreStats, L1DataInterface, OoOCore};
use malec_energy::EnergyModel;
use malec_trace::scenario::presets;
use malec_trace::{benchmark_named, replicate_seed, TraceInst, WorkloadGenerator};
use malec_types::op::{MemOp, OpId};
use malec_types::SimConfig;

use crate::stats::{fastest_quarter, median, ratio, tail};
use crate::{peak_rss_mb, repeat_setup, Args, Outcome, Spans, GOLDEN_SEED};

/// The two simulator workloads.
#[derive(Clone, Copy)]
pub enum Workload {
    /// The 8 `BENCH_BENCHMARKS` profiles under the three Table I configs.
    Profiles,
    /// The 5 scenario presets under Base1ldst and MALEC, plus the 5
    /// paired compare presets.
    Adversarial,
}

/// Passes the timings come from at least, so a slow run still has 100
/// cells for its tail percentile.
const MIN_TIMED_PASSES: usize = 5;

/// Table I configuration labels, in the order per-config metrics use.
const LABELS: [&str; 3] = ["Base1ldst", "Base2ld1st", "MALEC"];

/// One simulation cell and, at the golden seed, its recorded digest.
struct Cell {
    source: ScenarioSource,
    config: SimConfig,
    insts: u64,
    seed: u64,
    golden: Option<u64>,
}

/// A paired Base1ldst-vs-MALEC comparison over plan cells.
struct Group {
    base: Vec<usize>,
    cand: Vec<usize>,
    golden: Option<u64>,
}

struct Plan {
    cells: Vec<Cell>,
    groups: Vec<Group>,
}

fn golden3(table: &[(&str, &str, u64)], name: &str, label: &str) -> Result<u64, String> {
    table
        .iter()
        .find(|&&(n, l, _)| n == name && l == label)
        .map(|&(_, _, d)| d)
        .ok_or_else(|| format!("no golden digest for {name}/{label}"))
}

/// The workload's cells, with goldens attached only at the golden seed.
fn plan(workload: Workload, seed: u64) -> Result<Plan, String> {
    let at_golden = seed == GOLDEN_SEED;
    let mut cells = Vec::new();
    let mut groups = Vec::new();
    match workload {
        Workload::Profiles => {
            for name in BENCH_BENCHMARKS {
                let profile = benchmark_named(name).ok_or_else(|| format!("no profile {name}"))?;
                for config in [
                    SimConfig::base1ldst(),
                    SimConfig::base2ld1st(),
                    SimConfig::malec(),
                ] {
                    let label = config.label();
                    cells.push(Cell {
                        source: ScenarioSource::Profile(profile.clone()),
                        golden: at_golden
                            .then(|| golden3(GOLDEN_DIGESTS, name, &label))
                            .transpose()?,
                        config,
                        insts: DEFAULT_INSTS,
                        seed,
                    });
                }
            }
        }
        Workload::Adversarial => {
            for scenario in presets() {
                for config in scenario_configs() {
                    let label = config.label();
                    cells.push(Cell {
                        golden: at_golden
                            .then(|| golden3(SCENARIO_GOLDEN_DIGESTS, &scenario.name, &label))
                            .transpose()?,
                        source: ScenarioSource::Scenario(scenario.clone()),
                        config,
                        insts: SCENARIO_INSTS,
                        seed,
                    });
                }
            }
            for scenario in presets() {
                let golden = at_golden
                    .then(|| {
                        COMPARE_GOLDEN_DIGESTS
                            .iter()
                            .find(|&&(n, _)| n == scenario.name)
                            .map(|&(_, d)| d)
                            .ok_or_else(|| format!("no compare golden for {}", scenario.name))
                    })
                    .transpose()?;
                let mut side = |config: SimConfig| -> Vec<usize> {
                    (0..COMPARE_SEEDS)
                        .map(|r| {
                            cells.push(Cell {
                                source: ScenarioSource::Scenario(scenario.clone()),
                                config: config.clone(),
                                insts: COMPARE_INSTS,
                                seed: replicate_seed(seed, r),
                                golden: None,
                            });
                            cells.len() - 1
                        })
                        .collect()
                };
                let base = side(SimConfig::base1ldst());
                let cand = side(SimConfig::malec());
                groups.push(Group { base, cand, golden });
            }
        }
    }
    Ok(Plan { cells, groups })
}

/// One untraced cell, exactly as every other caller runs it.
fn untraced(cell: &Cell) -> Option<RunSummary> {
    Simulator::new(cell.config.clone())
        .run_source(&cell.source, cell.insts, cell.seed)
        .ok()
}

/// The interface behind a per-call timer.
struct TimedInterface {
    inner: AnyInterface,
    tick_ns: u64,
    ticks: u64,
    completing_ticks: u64,
    offer_ns: u64,
    offers: u64,
    rejected: u64,
    commit_ns: u64,
}

impl TimedInterface {
    fn offer(&mut self, f: impl FnOnce(&mut AnyInterface) -> AcceptKind) -> AcceptKind {
        let t = Instant::now();
        let kind = f(&mut self.inner);
        self.offer_ns += t.elapsed().as_nanos() as u64;
        self.offers += 1;
        self.rejected += u64::from(!kind.is_accepted());
        kind
    }
}

impl L1DataInterface for TimedInterface {
    fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
        let before = completed.len();
        let t = Instant::now();
        self.inner.tick(cycle, completed);
        self.tick_ns += t.elapsed().as_nanos() as u64;
        self.ticks += 1;
        self.completing_ticks += u64::from(completed.len() > before);
    }

    fn offer_load(&mut self, op: MemOp) -> AcceptKind {
        self.offer(|i| i.offer_load(op))
    }

    fn offer_store(&mut self, op: MemOp) -> AcceptKind {
        self.offer(|i| i.offer_store(op))
    }

    fn commit_store(&mut self, id: OpId) {
        let t = Instant::now();
        self.inner.commit_store(id);
        self.commit_ns += t.elapsed().as_nanos() as u64;
    }

    fn pending_loads(&self) -> usize {
        self.inner.pending_loads()
    }
}

/// The trace generator behind a per-call timer.
struct TimedTrace<I> {
    inner: I,
    ns: u64,
    insts: u64,
}

impl<I: Iterator<Item = TraceInst>> Iterator for TimedTrace<I> {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        let t = Instant::now();
        let inst = self.inner.next();
        self.ns += t.elapsed().as_nanos() as u64;
        self.insts += u64::from(inst.is_some());
        inst
    }
}

/// Host time per layer, summed over traced cells.
#[derive(Default)]
struct Layers {
    /// Per Table I config: (core self ns, tick ns, ticks, cycles).
    per_config: [(u64, u64, u64, u64); 3],
    trace_ns: u64,
    insts: u64,
    offer_ns: u64,
    offers: u64,
    rejected: u64,
    ticks: u64,
    completing_ticks: u64,
    assemble_ns: u64,
    cells: u64,
    committed: u64,
    cycles: u64,
}

/// Runs traced cells and keeps their layer times and spans.
struct Tracer {
    layers: Layers,
    spans: Spans,
    pass_span: u64,
}

impl Tracer {
    fn run(&mut self, cell: &Cell) -> RunSummary {
        let start = Instant::now();
        let iface = TimedInterface {
            // The interface seed `Simulator::run_trace` derives.
            inner: AnyInterface::for_config(&cell.config, cell.seed ^ 0x5eed),
            tick_ns: 0,
            ticks: 0,
            completing_ticks: 0,
            offer_ns: 0,
            offers: 0,
            rejected: 0,
            commit_ns: 0,
        };
        let mut core = OoOCore::new(&cell.config, iface);
        let n = cell.insts as usize;
        let (stats, run_ns, trace_ns, insts) = match &cell.source {
            ScenarioSource::Profile(p) => {
                drive(&mut core, WorkloadGenerator::new(p, cell.seed).take(n))
            }
            ScenarioSource::Scenario(s) => drive(&mut core, s.generator(cell.seed).take(n)),
            ScenarioSource::Replay { .. } => unreachable!("plans hold generator sources only"),
        };
        let iface = core.into_interface();
        let t = Instant::now();
        let summary = assemble(cell, stats, &iface.inner);
        let assemble_ns = t.elapsed().as_nanos() as u64;

        let l = &mut self.layers;
        let iface_ns = iface.tick_ns + iface.offer_ns + iface.commit_ns;
        let self_ns = run_ns.saturating_sub(iface_ns + trace_ns);
        let label = cell.config.label();
        let c = LABELS
            .iter()
            .position(|&x| x == label)
            .expect("Table I config");
        let pc = &mut l.per_config[c];
        pc.0 += self_ns;
        pc.1 += iface.tick_ns;
        pc.2 += iface.ticks;
        pc.3 += stats.cycles;
        l.trace_ns += trace_ns;
        l.insts += insts;
        l.offer_ns += iface.offer_ns;
        l.offers += iface.offers;
        l.rejected += iface.rejected;
        l.ticks += iface.ticks;
        l.completing_ticks += iface.completing_ticks;
        l.assemble_ns += assemble_ns;
        l.cells += 1;
        l.committed += stats.committed;
        l.cycles += stats.cycles;
        self.spans.record_with(
            "sim.cell",
            self.pass_span,
            start,
            vec![
                ("core_self_ns", self_ns as f64),
                ("iface_tick_ns", iface.tick_ns as f64),
                ("iface_offer_ns", iface.offer_ns as f64),
                ("iface_commit_ns", iface.commit_ns as f64),
                ("trace_ns", trace_ns as f64),
                ("assemble_ns", assemble_ns as f64),
                ("cycles", stats.cycles as f64),
            ],
        );
        summary
    }
}

/// `OoOCore::run` over a timed trace: (stats, run ns, trace ns, insts).
fn drive<I: Iterator<Item = TraceInst>>(
    core: &mut OoOCore<TimedInterface>,
    inner: I,
) -> (CoreStats, u64, u64, u64) {
    let mut trace = TimedTrace {
        inner,
        ns: 0,
        insts: 0,
    };
    let t = Instant::now();
    let stats = core.run(&mut trace);
    (stats, t.elapsed().as_nanos() as u64, trace.ns, trace.insts)
}

/// The summary `Simulator::run_trace` builds from a finished core.
fn assemble(cell: &Cell, core: CoreStats, interface: &AnyInterface) -> RunSummary {
    let (iface_stats, counters, l1_miss, l2_miss, utlb) = match interface {
        AnyInterface::Baseline(b) => (
            *b.stats(),
            *b.counters(),
            b.hierarchy().l1().miss_rate(),
            b.hierarchy().backing().l2_miss_rate(),
            b.mmu().utlb_stats(),
        ),
        AnyInterface::Malec(m) => (
            *m.stats(),
            *m.counters(),
            m.hierarchy().l1().miss_rate(),
            m.hierarchy().backing().l2_miss_rate(),
            m.mmu().utlb_stats(),
        ),
    };
    let energy = EnergyModel::for_config(&cell.config).evaluate(&counters, core.cycles);
    let utlb_total = utlb.0 + utlb.1;
    RunSummary {
        config: cell.config.label(),
        benchmark: cell.source.name().to_owned(),
        suite: cell.source.suite(),
        core,
        interface: iface_stats,
        counters,
        energy,
        l1_miss_rate: l1_miss,
        l2_miss_rate: l2_miss,
        utlb_miss_rate: if utlb_total == 0 {
            0.0
        } else {
            utlb.1 as f64 / utlb_total as f64
        },
    }
}

/// One pass over every cell of the plan.
struct Pass {
    wall_s: f64,
    cell_s: Vec<f64>,
    /// Per cell; `None` when the cell panicked.
    digests: Vec<Option<u64>>,
    /// Per compare group; `None` when one of its cells panicked.
    compare: Vec<Option<u64>>,
    insts: u64,
}

fn run_pass(plan: &Plan, mut tracer: Option<&mut Tracer>) -> Pass {
    let start = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.pass_span = t.spans.reserve();
    }
    let mut cell_s = Vec::with_capacity(plan.cells.len());
    let mut summaries = Vec::with_capacity(plan.cells.len());
    for cell in &plan.cells {
        let t = Instant::now();
        let summary = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
            Some(tr) => Some(tr.run(cell)),
            None => untraced(cell),
        }))
        .ok()
        .flatten();
        cell_s.push(t.elapsed().as_secs_f64());
        summaries.push(black_box(summary));
    }
    let compare = plan
        .groups
        .iter()
        .map(|g| {
            let side = |idx: &[usize]| -> Option<Vec<RunSummary>> {
                idx.iter().map(|&i| summaries[i].clone()).collect()
            };
            let stats = CompareStats::from_pairs(
                &side(&g.base)?,
                &side(&g.cand)?,
                COMPARE_SEEDS,
                Alpha::Five,
            );
            Some(compare_digest(&stats))
        })
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.spans.close(t.pass_span, "sim.pass", 0, start, Vec::new());
    }
    Pass {
        wall_s,
        cell_s,
        digests: summaries.iter().map(|s| s.as_ref().map(digest)).collect(),
        compare,
        insts: summaries.iter().flatten().map(|s| s.core.committed).sum(),
    }
}

/// Cells of `pass` that panicked, missed their golden digest, or differ
/// from `reference` (a compare mismatch fails the group's cells).
fn failures(plan: &Plan, pass: &Pass, reference: &Pass) -> u64 {
    let mut bad: Vec<bool> = plan
        .cells
        .iter()
        .zip(&pass.digests)
        .zip(&reference.digests)
        .map(|((cell, &d), &r)| d.is_none() || d != r || cell.golden.is_some_and(|g| Some(g) != d))
        .collect();
    for (g, group) in plan.groups.iter().enumerate() {
        let d = pass.compare[g];
        if d.is_none() || d != reference.compare[g] || group.golden.is_some_and(|x| Some(x) != d) {
            for &i in group.base.iter().chain(&group.cand) {
                bad[i] = true;
            }
        }
    }
    bad.iter().filter(|&&b| b).count() as u64
}

pub fn run(workload: Workload, args: &Args, started: Instant) -> Result<Outcome, String> {
    let (plan, setup_s) = repeat_setup(
        started,
        || {
            let plan = plan(workload, args.seed)?;
            // Warm-up: the first cell, untraced.
            black_box(untraced(&plan.cells[0]));
            Ok(plan)
        },
        |_| Ok(()),
    )?;
    let window = Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer {
        layers: Layers::default(),
        spans: Spans::new(started),
        pass_span: 0,
    };
    let checked = if args.seed == GOLDEN_SEED {
        "golden digests"
    } else {
        "digest equality across untraced, traced and repeated passes"
    };
    let mut notes = vec![format!(
        "{}: seed {}, {} cells per pass, {} compare groups; checks: {checked}",
        args.workload,
        args.seed,
        plan.cells.len(),
        plan.groups.len()
    )];

    let t0 = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    loop {
        plain.push(run_pass(&plan, None));
        if args.trace {
            traced.push(run_pass(&plan, Some(&mut tracer)));
        }
        if t0.elapsed() >= window {
            break;
        }
    }
    if !args.trace {
        // Untimed: one traced pass completes the three-way digest check.
        traced.push(run_pass(&plan, Some(&mut tracer)));
    }
    let reference = &plain[0];
    let failed: u64 = plain
        .iter()
        .chain(&traced)
        .map(|p| failures(&plan, p, reference))
        .sum();
    let attempted = ((plain.len() + traced.len()) * plan.cells.len()) as u64;
    notes.push(format!(
        "passes: {} untraced, {} traced; failed_frac {} ({failed} of {attempted} cells)",
        plain.len(),
        traced.len(),
        ratio(failed as f64, attempted as f64)
    ));

    let metrics = if args.trace {
        let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let overhead = wall(&traced)
            .zip(wall(&plain))
            .map_or(0.0, |(t, u)| t / u - 1.0);
        let l = &tracer.layers;
        let passes = traced.len() as f64;
        let mut m = vec![
            (
                "trace.ns_per_inst",
                ratio(l.trace_ns as f64, l.insts as f64),
            ),
            ("trace.insts", l.insts as f64 / passes),
            (
                "iface.offer_ns_per_op",
                ratio(l.offer_ns as f64, l.offers as f64),
            ),
            ("iface.offers", l.offers as f64 / passes),
            (
                "iface.offer_rejected_frac",
                ratio(l.rejected as f64, l.offers as f64),
            ),
            (
                "iface.completing_tick_frac",
                ratio(l.completing_ticks as f64, l.ticks as f64),
            ),
            ("core.sim_cycles", l.cycles as f64 / passes),
            ("core.ipc", ratio(l.committed as f64, l.cycles as f64)),
            (
                "sim.assemble_us_per_cell",
                ratio(l.assemble_ns as f64, l.cells as f64) / 1e3,
            ),
            ("trace_overhead_frac", overhead),
        ];
        const TICK: [&str; 3] = [
            "iface.tick_ns_per_cycle.Base1ldst",
            "iface.tick_ns_per_cycle.Base2ld1st",
            "iface.tick_ns_per_cycle.MALEC",
        ];
        const CORE: [&str; 3] = [
            "core.self_ns_per_cycle.Base1ldst",
            "core.self_ns_per_cycle.Base2ld1st",
            "core.self_ns_per_cycle.MALEC",
        ];
        for (c, &(self_ns, tick_ns, ticks, cycles)) in l.per_config.iter().enumerate() {
            m.push((TICK[c], ratio(tick_ns as f64, ticks as f64)));
            m.push((CORE[c], ratio(self_ns as f64, cycles as f64)));
        }
        m
    } else {
        // Every pass does the same work, so timings come from the fastest
        // quarter of them: on a shared host a slow pass mostly measures the
        // neighbours. Every pass is still checked above.
        let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let quiet: Vec<&Pass> = fastest_quarter(&walls, MIN_TIMED_PASSES)
            .into_iter()
            .map(|i| &plain[i])
            .collect();
        let lat_ms: Vec<f64> = quiet
            .iter()
            .flat_map(|p| &p.cell_s)
            .map(|s| s * 1e3)
            .collect();
        let p50 = median(&lat_ms).expect("at least one pass");
        let tail = tail(&lat_ms).ok_or("too few cells for a tail percentile")?;
        let per_pass = |ps: &[&Pass], f: fn(&Pass) -> f64| {
            median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>()).expect("at least one pass")
        };
        let rate = |p: &Pass| p.cell_s.len() as f64 / p.wall_s;
        let cells_per_s = per_pass(&quiet, rate);
        let minst = per_pass(&quiet, |p| p.insts as f64 / p.wall_s / 1e6);
        let all_rate = per_pass(&plain.iter().collect::<Vec<_>>(), rate);
        let rss = peak_rss_mb()?;
        notes.push(format!(
            "timings over the fastest {} of {} passes; sim_minst_per_s {minst:.4}",
            quiet.len(),
            plain.len()
        ));
        notes.push(format!(
            "cell latency: p50 {p50:.3} ms, p{} {:.3} ms over {} cells ({} beyond)",
            tail.percentile, tail.value, tail.samples, tail.beyond
        ));
        notes.push(format!(
            "cells_per_s {cells_per_s:.3} (median over all passes {all_rate:.3}); \
             setup_s {setup_s:.4}; peak_rss_mb {rss:.1}"
        ));
        vec![
            ("latency_p50_ms", p50),
            ("latency_tail_ms", tail.value),
            ("throughput_per_s", cells_per_s),
            ("setup_s", setup_s),
            ("peak_rss_mb", rss),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        checks_ok: true,
        metrics,
        notes,
        spans: args.trace.then_some(tracer.spans),
    })
}
