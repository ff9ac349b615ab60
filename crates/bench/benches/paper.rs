//! The paper's evaluation, every table and figure, in its order: **Table
//! I**, **Table II**, **Fig. 1**, **Fig. 4a**, **Fig. 4b**, the **Sec. VI-B**
//! merge ablation, **Sec. VI-C** way determination and the **Sec. VI-D**
//! sensitivity checks.
//!
//! The figures share most of their cells: Fig. 4a and 4b plot one matrix,
//! and Sec. VI-B/C/D reuse its Base1ldst and MALEC cells. So the bench
//! plans the union once — one bare-benchmark job per profile over every
//! configuration some table asks of it — and runs it on one in-process
//! serve `Engine`. Every table renders from that one result set. The last
//! line reports how many cells the engine simulated.

use malec_bench::{suite_geo_means, DEFAULT_INSTS, DEFAULT_SEED};
use malec_core::report::{geo_mean, normalized_percent, TextTable};
use malec_core::RunSummary;
use malec_serve::{parse_spec, Engine, JobId, JobResults};
use malec_trace::stats::{page_locality_ratios, run_length_buckets};
use malec_trace::{all_benchmarks, BenchmarkProfile, Suite, WorkloadGenerator};
use malec_types::addr::VPageId;
use malec_types::{params, InterfaceKind, PortConfig, SimConfig, WayDetermination};

/// The way-determination schemes of Sec. VI-C; the first is MALEC's own.
const WAY_SCHEMES: [WayDetermination; 5] = [
    WayDetermination::WayTables,
    WayDetermination::WayTablesNoFeedback,
    WayDetermination::Wdu(8),
    WayDetermination::Wdu(16),
    WayDetermination::Wdu(32),
];

/// The benchmarks Sensitivity 4 runs wide MALEC on.
const WIDE_BENCHMARKS: [&str; 5] = ["gzip", "gap", "swim", "djpeg", "mpeg2dec"];

/// MALEC without load merging (Sec. VI-B).
fn no_merging() -> SimConfig {
    SimConfig::malec().with_load_merging(false)
}

/// MALEC under way-determination scheme `wd` (Sec. VI-C).
fn way_scheme(wd: WayDetermination) -> SimConfig {
    SimConfig::malec().with_way_determination(wd)
}

/// MALEC with fills free to use every way (Sensitivity 1).
fn free_fills() -> SimConfig {
    let mut cfg = SimConfig::malec();
    cfg.restrict_fill_ways = false;
    cfg
}

/// Every configuration some table asks of `profile`, each once. The Sec.
/// VI variants share MALEC's label, so the plan is built here rather than
/// written as spec text.
fn plan(profile: &BenchmarkProfile) -> Vec<SimConfig> {
    let wide = WIDE_BENCHMARKS
        .contains(&profile.name)
        .then(SimConfig::malec_wide);
    let variants = [no_merging(), free_fills()].into_iter().chain(wide);
    let mut plan = SimConfig::figure4_set();
    for cfg in WAY_SCHEMES.map(way_scheme).into_iter().chain(variants) {
        if !plan.contains(&cfg) {
            plan.push(cfg);
        }
    }
    plan
}

/// One profile's finished job.
struct Row {
    profile: BenchmarkProfile,
    results: JobResults,
}

impl Row {
    /// This profile's summary under `config`.
    fn run(&self, config: &SimConfig) -> &RunSummary {
        let configs = &self.results.spec.configs;
        let i = configs.iter().position(|c| c == config).expect("planned");
        &self.results.groups[i][0]
    }
}

/// The row of benchmark `name`.
fn row<'a>(rows: &'a [Row], name: &str) -> &'a Row {
    rows.iter().find(|r| r.profile.name == name).expect("known")
}

fn main() {
    let engine = Engine::new(None, None).expect("in-memory engine");
    let jobs: Vec<(BenchmarkProfile, JobId)> = all_benchmarks()
        .into_iter()
        .map(|profile| {
            let mut spec = parse_spec(&format!(
                "[scenario]\nmode = \"benchmark\"\nbenchmark = \"{}\"\n\
                 [sweep]\ninsts = {DEFAULT_INSTS}\nseed = {DEFAULT_SEED}\n",
                profile.name
            ))
            .expect("a profile name makes a valid spec");
            spec.configs = plan(&profile);
            let job = engine.submit(spec);
            (profile, job)
        })
        .collect();

    // Neither table nor Fig. 1 simulates; they print while the pool works.
    table_i();
    table_ii();
    fig1();

    let rows: Vec<Row> = jobs
        .into_iter()
        .map(|(profile, job)| {
            engine.wait_settled(job, None);
            let results = engine
                .job_results(job)
                .expect("known job")
                .unwrap_or_else(|status| panic!("{} did not finish: {status:?}", profile.name));
            Row { profile, results }
        })
        .collect();
    let simulated = engine.cache_stats().misses;
    engine.shutdown();

    fig4a(&rows);
    fig4b(&rows);
    merge_contribution(&rows);
    way_determination(&rows);
    sensitivity(&rows);
    println!("paper: {simulated} simulated cells");
}

/// A structure's ports, e.g. `1 rd/wt + 2 rd`.
fn ports(p: PortConfig) -> String {
    [(p.rw, "rd/wt"), (p.rd, "rd"), (p.wr, "wt")]
        .into_iter()
        .filter(|&(n, _)| n > 0)
        .map(|(n, kind)| format!("{n} {kind}"))
        .collect::<Vec<_>>()
        .join(" + ")
}

/// **Table I** — Basic configurations: address computations per cycle,
/// uTLB/TLB ports and cache ports for Base1ldst, Base2ld1st and MALEC.
///
/// Printed directly from the `SimConfig` presets the simulator actually
/// uses, so this table cannot drift from the implementation.
fn table_i() {
    println!("\n== Table I: basic configurations ==\n");
    let mut t = TextTable::new([
        "Config",
        "Addr. comp. per cycle",
        "uTLB/TLB ports",
        "Cache ports",
    ]);
    for cfg in [
        SimConfig::base1ldst(),
        SimConfig::base2ld1st(),
        SimConfig::malec(),
    ] {
        let agus = cfg.agus();
        let agu_desc = match cfg.interface {
            InterfaceKind::Base1LdSt => "1 ld/st".to_owned(),
            InterfaceKind::Base2Ld1St => {
                format!("{} ld + {} st", agus.load_only, agus.store_only)
            }
            InterfaceKind::Malec => {
                format!("{} ld + {} ld/st", agus.load_only, agus.shared)
            }
        };
        t.row(vec![
            cfg.label(),
            agu_desc,
            ports(cfg.tlb_ports()),
            ports(cfg.cache_ports()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Paper reference: Base1ldst 1 ld/st | 1 rd/wt | 1 rd/wt;\n\
         Base2ld1st 2 ld + 1 st | 1 rd/wt + 2 rd | 1 rd/wt + 1 rd;\n\
         MALEC 1 ld + 2 ld/st | 1 rd/wt | 1 rd/wt."
    );
}

/// **Table II** — Relevant simulation parameters, printed from the
/// `params` constants the simulator reads, once the settings a
/// configuration may vary are checked to default to them.
fn table_ii() {
    let malec = SimConfig::malec();
    assert_eq!(malec.l1, params::L1);
    assert_eq!(malec.l1_latency(), params::L1_LATENCY);
    assert_eq!(malec.tlb_entries, params::TLB_ENTRIES);
    assert_eq!(malec.utlb_entries, params::UTLB_ENTRIES);
    assert_eq!(malec.rob_entries, params::ROB_ENTRIES);
    assert_eq!(malec.result_buses, params::RESULT_BUSES);

    println!("\n== Table II: relevant simulation parameters ==\n");
    let mut t = TextTable::new(["Component", "Parameter"]);
    t.row(vec![
        "Processor".into(),
        format!(
            "single-core, out-of-order, 1 GHz clock, {} ROB entries, \
             {} element fetch&dispatch-width, {} element issue-width",
            params::ROB_ENTRIES,
            params::DISPATCH_WIDTH,
            params::ISSUE_WIDTH
        ),
    ]);
    t.row(vec![
        "L1 interface".into(),
        format!(
            "{} TLB entries, {} uTLB entries, {} LQ entries, {} SB entries, \
             {} MB entries, {} bit addr. space, {} KByte pages",
            params::TLB_ENTRIES,
            params::UTLB_ENTRIES,
            params::LQ_ENTRIES,
            params::SB_ENTRIES,
            params::MB_ENTRIES,
            params::ADDRESS_BITS,
            params::PAGE_BYTES / 1024
        ),
    ]);
    t.row(vec![
        "L1 D-cache".into(),
        format!(
            "{} KByte, {} cycle latency, {} byte lines, {}-way set-assoc., \
             {} independent banks, PIPT, {} bit sub-blocks per line",
            params::L1_BYTES / 1024,
            params::L1_LATENCY,
            params::LINE_BYTES,
            params::L1_WAYS,
            params::L1_BANKS,
            params::SUB_BLOCK_BITS
        ),
    ]);
    t.row(vec![
        "L2 cache".into(),
        format!(
            "{} MByte, {} cycle latency, {}-way set-assoc.",
            params::L2_BYTES / (1024 * 1024),
            params::L2_LATENCY,
            params::L2_WAYS
        ),
    ]);
    t.row(vec![
        "DRAM".into(),
        format!(
            "{} MByte, {} cycle latency",
            params::DRAM_BYTES / (1024 * 1024),
            params::DRAM_LATENCY
        ),
    ]);
    t.row(vec![
        "Energy model".into(),
        "analytical CACTI-like model, 32nm-class constants, low dyn. power \
         objective (see malec-energy crate docs)"
            .into(),
    ]);
    println!("{}", t.render());
    println!("All values match Table II of the paper; assertions above tie them to the code.");
}

/// The virtual pages of the first `insts` instructions' loads of `profile`.
fn load_pages(profile: &BenchmarkProfile, insts: u64) -> impl Iterator<Item = VPageId> {
    WorkloadGenerator::new(profile, DEFAULT_SEED)
        .take(insts as usize)
        .filter(|i| i.is_load())
        .map(|i| params::PAGE.vpage_of(i.vaddr().expect("load has address")))
}

/// **Fig. 1** — Number of consecutive read accesses to the same page,
/// allowing 0/1/2/3/4/8 intermediate accesses to a different page.
///
/// The paper's headline numbers: on average 70 % of all loads are directly
/// followed by one or more loads to the same page; allowing one, two or
/// three intermediates raises the ratio to 85 / 90 / 92 %. Each bar splits
/// loads into same-page run-length buckets (1, 2, 3–4, 5–8, > 8).
fn fig1() {
    let allowed = [0usize, 1, 2, 3, 4, 8];

    println!("\n== Fig. 1: consecutive same-page read accesses ==\n");
    let mut table = TextTable::new(
        std::iter::once("benchmark".to_owned()).chain(allowed.iter().map(|n| format!("n={n} [%]"))),
    );
    let mut grouped: Vec<(Suite, f64)> = Vec::new();
    let mut last_suite = None;
    for profile in all_benchmarks() {
        let pages: Vec<VPageId> = load_pages(&profile, DEFAULT_INSTS).collect();
        let ratios = page_locality_ratios(&pages, &allowed);
        suite_break(&mut table, &mut last_suite, profile.suite);
        table.row(
            std::iter::once(profile.name.to_owned())
                .chain(ratios.iter().map(|r| format!("{:5.1}", 100.0 * r)))
                .collect(),
        );
        grouped.push((profile.suite, ratios[0]));
    }
    table.separator();
    // Suite averages for the n=0 series plus the full overall series.
    for (label, v) in suite_geo_means(&grouped) {
        table.row(vec![label, format!("{:5.1}", 100.0 * v)]);
    }
    println!("{}", table.render());

    // Run-length bucket split (the bar segments), overall, for each n.
    println!("== Fig. 1 bar segments: share of loads per run-length bucket (overall) ==\n");
    let mut seg = TextTable::new([
        "allowed intermediates",
        "x=1 [%]",
        "x=2 [%]",
        "2<x<=4 [%]",
        "4<x<=8 [%]",
        "8<x [%]",
    ]);
    let mut all_pages: Vec<VPageId> = Vec::new();
    for profile in all_benchmarks() {
        all_pages.extend(load_pages(&profile, DEFAULT_INSTS / 4));
        // Separate benchmarks so runs never span two programs.
        all_pages.push(VPageId::new(u64::MAX));
    }
    for n in allowed {
        let b = run_length_buckets(&all_pages, n);
        seg.row(vec![
            format!("n={n}"),
            format!("{:5.1}", 100.0 * b.single),
            format!("{:5.1}", 100.0 * b.pair),
            format!("{:5.1}", 100.0 * b.three_to_four),
            format!("{:5.1}", 100.0 * b.five_to_eight),
            format!("{:5.1}", 100.0 * b.more_than_eight),
        ]);
    }
    println!("{}", seg.render());
    println!("Paper reference: 70% grouped at n=0; 85/90/92% at n=1/2/3.");
}

/// Adds a separator to `t` wherever the suite changes between rows.
fn suite_break(t: &mut TextTable, last_suite: &mut Option<Suite>, suite: Suite) {
    if *last_suite != Some(suite) {
        if last_suite.is_some() {
            t.separator();
        }
        *last_suite = Some(suite);
    }
}

/// One Fig. 4 cell: the first value, then each further one in parentheses.
fn fig4_cell(values: &[f64]) -> String {
    let rest: String = values[1..].iter().map(|v| format!(" ({v:5.1})")).collect();
    format!("{:6.1}{rest}", values[0])
}

/// The Fig. 4 table of `metrics`: each benchmark under each Fig. 4 config,
/// normalized to `Base1ldst`, then the per-suite geometric means.
fn fig4(rows: &[Row], metrics: &[fn(&RunSummary) -> f64]) -> TextTable {
    let configs = SimConfig::figure4_set();
    let mut t = TextTable::new(
        std::iter::once("benchmark".to_owned()).chain(configs.iter().map(SimConfig::label)),
    );
    // series[config][metric]: (suite, normalized value) per benchmark.
    let mut series: Vec<Vec<Vec<(Suite, f64)>>> =
        vec![vec![Vec::new(); metrics.len()]; configs.len()];
    let mut last_suite = None;
    for row in rows {
        let profile = &row.profile;
        let base = row.run(&configs[0]);
        suite_break(&mut t, &mut last_suite, profile.suite);
        let mut cells = vec![profile.name.to_owned()];
        for (cfg, series) in configs.iter().zip(&mut series) {
            let run = row.run(cfg);
            let values: Vec<f64> = metrics
                .iter()
                .map(|m| normalized_percent(m(run), m(base)))
                .collect();
            for (s, &v) in series.iter_mut().zip(&values) {
                s.push((profile.suite, v));
            }
            cells.push(fig4_cell(&values));
        }
        t.row(cells);
    }
    t.separator();
    for gi in 0..4 {
        let mut cells = Vec::new();
        for (ci, series) in series.iter().enumerate() {
            let means: Vec<[(String, f64); 4]> =
                series.iter().map(|s| suite_geo_means(s)).collect();
            if ci == 0 {
                cells.push(means[0][gi].0.clone());
            }
            cells.push(fig4_cell(
                &means.iter().map(|m| m[gi].1).collect::<Vec<_>>(),
            ));
        }
        t.row(cells);
    }
    t
}

/// **Fig. 4a** — Execution times normalized to `Base1ldst` for all 38
/// benchmarks under the five analyzed configurations.
///
/// Paper headlines: MALEC improves performance by ≈ 14 % over `Base1ldst`
/// (only ≈ 1 % less than the physically multi-ported `Base2ld1st` at
/// ≈ 15 %); the 3-cycle-L1 MALEC variant drops to ≈ 10 % and the
/// 1-cycle-L1 `Base2ld1st` rises to ≈ 20 %; suite-level improvements are
/// ≈ 14 / 12 / 21 % for SPEC-INT / SPEC-FP / MediaBench2.
fn fig4a(rows: &[Row]) {
    println!("\n== Fig. 4a: normalized execution time [%] (lower is better) ==\n");
    println!("{}", fig4(rows, &[|s| s.core.cycles as f64]).render());
    println!(
        "Paper reference (overall): Base1ldst 100 | Base2ld1st_1cycleL1 ~83 | \
         Base2ld1st ~87 | MALEC ~88 | MALEC_3cycleL1 ~91."
    );
}

/// **Fig. 4b** — Dynamic and overall (dynamic + leakage) energy consumption
/// of the L1 data memory subsystem, normalized to `Base1ldst`.
///
/// Paper headlines: `Base2ld1st` consumes +42 % dynamic energy and +48 %
/// total energy; MALEC saves 33 % dynamic and 22 % total energy relative to
/// `Base1ldst` (−48 % relative to `Base2ld1st`); mcf's dynamic saving is an
/// exceptional −51 % thanks to load merging at a ≈ 7× average miss rate.
fn fig4b(rows: &[Row]) {
    println!("\n== Fig. 4b: normalized energy consumption [%] (lower is better) ==");
    println!("   each cell: total (dynamic) — leakage is total minus dynamic\n");
    let table = fig4(rows, &[RunSummary::total_energy, |s| s.energy.dynamic]);
    println!("{}", table.render());
    println!(
        "Paper reference (overall): Base2ld1st +42% dynamic / +48% total;\n\
         MALEC -33% dynamic / -22% total vs Base1ldst (-48% total vs Base2ld1st)."
    );
}

/// **Sec. VI-B ablation** — contribution of load merging to MALEC's speedup.
///
/// The paper reports that merged loads contribute ≈ 21 % of MALEC's overall
/// performance improvement, rising to 56 % for gap and 66 % for equake
/// (particularly suitable access patterns) and falling below 2 % for mgrid
/// (line-stride accesses never share a line). It also reports that without
/// data sharing, mcf would consume 5 % *more* instead of 51 % less dynamic
/// energy.
fn merge_contribution(rows: &[Row]) {
    println!("\n== Sec. VI-B: contribution of load merging to MALEC's speedup ==\n");
    let mut t = TextTable::new([
        "benchmark",
        "speedup [%]",
        "speedup w/o merging [%]",
        "merge contribution [%]",
        "merged loads [%]",
        "mcf-style dyn energy [%]",
    ]);
    let mut contributions = Vec::new();
    for row in rows {
        let b = row.run(&SimConfig::base1ldst());
        let m = row.run(&SimConfig::malec());
        let nm = row.run(&no_merging());
        let speedup = b.core.cycles as f64 / m.core.cycles as f64 - 1.0;
        let speedup_nm = b.core.cycles as f64 / nm.core.cycles as f64 - 1.0;
        let contribution = if speedup > 1e-6 {
            ((speedup - speedup_nm) / speedup).clamp(-1.0, 1.0)
        } else {
            0.0
        };
        contributions.push((1.0 + contribution).max(1e-9));
        t.row(vec![
            row.profile.name.to_owned(),
            format!("{:5.1}", 100.0 * speedup),
            format!("{:5.1}", 100.0 * speedup_nm),
            format!("{:5.1}", 100.0 * contribution),
            format!("{:5.1}", 100.0 * m.interface.merge_ratio()),
            format!("{:6.1}", 100.0 * m.energy.dynamic / b.energy.dynamic),
        ]);
    }
    t.separator();
    t.row(vec![
        "geo.mean contribution".into(),
        String::new(),
        String::new(),
        format!("{:5.1}", 100.0 * (geo_mean(&contributions) - 1.0)),
    ]);
    println!("{}", t.render());
    println!(
        "Paper reference: merging contributes ~21% of the overall speedup;\n\
         gap 56%, equake 66%, mgrid <2%. Without data sharing, mcf's dynamic\n\
         energy flips from -51% to +5%."
    );
}

/// **Sec. VI-C** — Page-Based Way Determination vs the (validity-extended)
/// Way Determination Unit.
///
/// Paper headlines: the way tables cover 94 % of cache accesses (75 %
/// without the last-entry feedback update); substituting 8/16/32-entry WDUs
/// yields 68/76/78 % coverage and 4/5/8 % higher energy consumption.
fn way_determination(rows: &[Row]) {
    println!("\n== Sec. VI-C: way-determination coverage and energy ==\n");
    let mut t = TextTable::new(
        std::iter::once("benchmark".to_owned())
            .chain(WAY_SCHEMES.iter().map(|s| format!("{} cov[%]", s.label())))
            .chain(WAY_SCHEMES.iter().map(|s| format!("{} E[%]", s.label()))),
    );
    let mut coverages: Vec<Vec<f64>> = vec![Vec::new(); WAY_SCHEMES.len()];
    let mut energies: Vec<Vec<f64>> = vec![Vec::new(); WAY_SCHEMES.len()];
    for row in rows {
        let runs = WAY_SCHEMES.map(|wd| row.run(&way_scheme(wd)));
        let base_energy = runs[0].total_energy();
        let mut cells = vec![row.profile.name.to_owned()];
        for (i, run) in runs.iter().enumerate() {
            coverages[i].push(run.interface.coverage());
            cells.push(format!("{:5.1}", 100.0 * run.interface.coverage()));
        }
        for (i, run) in runs.iter().enumerate() {
            let e = 100.0 * run.total_energy() / base_energy;
            energies[i].push(e);
            cells.push(format!("{e:6.1}"));
        }
        t.row(cells);
    }
    t.separator();
    let mut mean_row = vec!["mean".to_owned()];
    for c in &coverages {
        mean_row.push(format!(
            "{:5.1}",
            100.0 * c.iter().sum::<f64>() / c.len() as f64
        ));
    }
    for e in &energies {
        mean_row.push(format!("{:6.1}", geo_mean(e)));
    }
    t.row(mean_row);
    println!("{}", t.render());
    println!(
        "Paper reference: WT coverage 94% (75% without the feedback update);\n\
         WDU8/16/32 coverage 68/76/78% and +4/5/8% energy vs the way tables."
    );
}

/// **Sec. VI-D sensitivity analysis** — three checks the paper calls out,
/// plus the scalability of the Fig. 2a wide parameterization:
///
/// 1. the 3-of-4-way fill restriction causes "no measurable increase of the
///    L1 miss rate" (Sec. V);
/// 2. way prediction degrades for streaming/low-locality workloads
///    (mcf, art) — their coverage and energy benefits collapse;
/// 3. MALEC introduces load-latency variability by holding Input Buffer
///    elements (quantified as mean held cycles per load).
fn sensitivity(rows: &[Row]) {
    let malec = SimConfig::malec();
    let base1 = SimConfig::base1ldst();

    // --- 1. Fill restriction vs free fills: L1 miss rates.
    println!("\n== Sensitivity 1: 3-of-4-way fill restriction vs free fills ==\n");
    let mut t = TextTable::new([
        "benchmark",
        "miss rate restricted [%]",
        "miss rate free [%]",
        "delta [pp]",
    ]);
    let mut max_delta: f64 = 0.0;
    for row in rows {
        let restricted = row.run(&malec);
        let free = row.run(&free_fills());
        let delta = 100.0 * (restricted.l1_miss_rate - free.l1_miss_rate);
        max_delta = max_delta.max(delta.abs());
        t.row(vec![
            row.profile.name.to_owned(),
            format!("{:5.2}", 100.0 * restricted.l1_miss_rate),
            format!("{:5.2}", 100.0 * free.l1_miss_rate),
            format!("{delta:+5.2}"),
        ]);
    }
    println!("{}", t.render());
    println!("max |delta| = {max_delta:.2} pp — the paper reports no measurable increase.\n");

    // --- 2. Streaming workloads hurt way prediction.
    println!("== Sensitivity 2: way prediction on streaming/low-locality workloads ==\n");
    let mut s = TextTable::new([
        "benchmark",
        "coverage [%]",
        "L1 miss rate [%]",
        "MALEC dyn energy vs Base1 [%]",
    ]);
    for name in ["mcf", "art", "gzip", "djpeg"] {
        let r = row(rows, name);
        let (m, b) = (r.run(&malec), r.run(&base1));
        s.row(vec![
            name.to_owned(),
            format!("{:5.1}", 100.0 * m.interface.coverage()),
            format!("{:5.1}", 100.0 * m.l1_miss_rate),
            format!("{:6.1}", 100.0 * m.energy.dynamic / b.energy.dynamic),
        ]);
    }
    println!("{}", s.render());

    // --- 3. Latency variability from holding Input Buffer entries.
    println!("== Sensitivity 3: load-latency variability (held Input Buffer cycles) ==\n");
    let mut h = TextTable::new(["benchmark", "held load-cycles per serviced load"]);
    for name in ["gzip", "mcf", "swim", "djpeg"] {
        let m = row(rows, name).run(&malec);
        let per_load =
            m.interface.held_load_cycles as f64 / m.interface.loads_serviced.max(1) as f64;
        h.row(vec![name.to_owned(), format!("{per_load:5.2}")]);
    }
    println!("{}", h.render());
    println!(
        "Paper reference: latency variability exists but most latency is masked\n\
         behind address translation; exception handling only covers IB/AU/SB."
    );

    // --- 4. Scalability: the Fig. 2a wide parameterization (4 ld + 2 st).
    println!("\n== Sensitivity 4: wide MALEC (4 ld + 2 st AGUs, Fig. 2a) ==\n");
    let mut w = TextTable::new([
        "benchmark",
        "MALEC (1ld+2ldst) [%]",
        "MALEC wide (4ld+2st) [%]",
    ]);
    for name in WIDE_BENCHMARKS {
        let r = row(rows, name);
        let base = r.run(&base1).core.cycles as f64;
        let narrow = r.run(&malec).core.cycles as f64;
        let wide = r.run(&SimConfig::malec_wide()).core.cycles as f64;
        w.row(vec![
            name.to_owned(),
            format!("{:5.1}", 100.0 * narrow / base),
            format!("{:5.1}", 100.0 * wide / base),
        ]);
    }
    println!("{}", w.render());
    println!(
        "MALEC scales by widening address computation, not by adding ports:\n\
         the uTLB/TLB and cache banks stay single-ported in both columns."
    );
}
