//! "Shape" tests: the qualitative results of the paper's evaluation must
//! hold — who wins, by roughly what factor, and where the outliers are.
//! These run a reduced sweep (a representative benchmark subset at a modest
//! instruction budget), so the tolerances are generous; the full-figure
//! benches use the complete suite.

use std::sync::OnceLock;

use malec_core::report::geo_mean;
use malec_core::{RunSummary, Simulator};
use malec_trace::{all_benchmarks, benchmark_named, BenchmarkProfile};
use malec_types::geometry::CacheGeometry;
use malec_types::{SimConfig, WayDetermination};

const INSTS: u64 = 30_000;
const SEED: u64 = 2013;

fn subset() -> Vec<BenchmarkProfile> {
    let names = [
        "gzip", "mcf", "gap", "twolf", "swim", "mgrid", "art", "equake", "djpeg", "h263dec",
        "mpeg4enc",
    ];
    all_benchmarks()
        .into_iter()
        .filter(|b| names.contains(&b.name))
        .collect()
}

struct Sweep {
    base1: Vec<RunSummary>,
    base2: Vec<RunSummary>,
    malec: Vec<RunSummary>,
}

/// The subset under the three Table I configs, simulated once for every
/// test that reads it.
fn sweep() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let benches = subset();
        let run_all = |cfg: SimConfig| -> Vec<RunSummary> {
            benches
                .iter()
                .map(|p| Simulator::new(cfg.clone()).run(p, INSTS, SEED))
                .collect()
        };
        Sweep {
            base1: run_all(SimConfig::base1ldst()),
            base2: run_all(SimConfig::base2ld1st()),
            malec: run_all(SimConfig::malec()),
        }
    })
}

fn norm(series: &[RunSummary], base: &[RunSummary], f: impl Fn(&RunSummary) -> f64) -> f64 {
    let ratios: Vec<f64> = series.iter().zip(base).map(|(s, b)| f(s) / f(b)).collect();
    geo_mean(&ratios)
}

#[test]
fn headline_shape_performance_and_energy() {
    let s = sweep();

    // Performance: both MALEC and Base2ld1st clearly beat Base1ldst...
    let t_base2 = norm(&s.base2, &s.base1, |r| r.core.cycles as f64);
    let t_malec = norm(&s.malec, &s.base1, |r| r.core.cycles as f64);
    assert!(t_base2 < 0.95, "Base2 speedup missing: {t_base2}");
    assert!(t_malec < 0.95, "MALEC speedup missing: {t_malec}");
    // ... and MALEC lands within a few percent of Base2ld1st (paper: 1%).
    assert!(
        (t_malec - t_base2).abs() < 0.05,
        "MALEC must track Base2: {t_malec} vs {t_base2}"
    );

    // Energy: Base2 well above, MALEC well below Base1ldst.
    let e_base2 = norm(&s.base2, &s.base1, |r| r.total_energy());
    let e_malec = norm(&s.malec, &s.base1, |r| r.total_energy());
    assert!(
        e_base2 > 1.25,
        "Base2 must pay a big energy premium: {e_base2}"
    );
    assert!(e_malec < 0.90, "MALEC must save energy: {e_malec}");
    // MALEC vs Base2: the paper's headline -48%.
    let rel = e_malec / e_base2;
    assert!(
        rel < 0.65,
        "MALEC should be far below Base2 in energy: {rel}"
    );

    // Dynamic energy ordering: Base2 > Base1 > MALEC.
    let d_base2 = norm(&s.base2, &s.base1, |r| r.energy.dynamic);
    let d_malec = norm(&s.malec, &s.base1, |r| r.energy.dynamic);
    assert!(d_base2 > 1.2, "Base2 dynamic premium: {d_base2}");
    assert!(d_malec < 0.85, "MALEC dynamic saving: {d_malec}");
}

#[test]
fn mcf_is_the_miss_and_speedup_outlier() {
    let benches = subset();
    let s = sweep();
    let idx = |name: &str| {
        benches
            .iter()
            .position(|b| b.name == name)
            .expect("in subset")
    };
    let mcf = idx("mcf");

    // ~7x the average miss rate. The subset deliberately includes the other
    // high-miss benchmarks (art, mgrid), so compare against the median of
    // the rest rather than their mean.
    let rates: Vec<f64> = s.malec.iter().map(|r| r.l1_miss_rate).collect();
    let mut others: Vec<f64> = rates
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != mcf)
        .map(|(_, r)| *r)
        .collect();
    others.sort_by(f64::total_cmp);
    let median_others = others[others.len() / 2];
    assert!(
        rates[mcf] > 3.0 * median_others,
        "mcf must be a big miss outlier: {} vs median {}",
        rates[mcf],
        median_others
    );
    // (mgrid/art may transiently rival mcf at short instruction budgets, so
    // the outlier check is against the median, not the maximum.)

    // Smallest speedup of the subset.
    let speedup = |i: usize| s.base1[i].core.cycles as f64 / s.malec[i].core.cycles as f64;
    let mcf_speedup = speedup(mcf);
    let best = (0..benches.len())
        .filter(|&i| i != mcf)
        .map(speedup)
        .fold(f64::MIN, f64::max);
    assert!(
        mcf_speedup < best - 0.1,
        "mcf speedup {mcf_speedup} should trail the best {best}"
    );
}

#[test]
fn media_decoders_show_the_biggest_gains() {
    let benches = subset();
    let s = sweep();
    let idx = |name: &str| {
        benches
            .iter()
            .position(|b| b.name == name)
            .expect("in subset")
    };
    let speedup = |i: usize| s.base1[i].core.cycles as f64 / s.malec[i].core.cycles as f64;
    // djpeg/h263dec ≈ 30% in the paper; at minimum they must beat the
    // subset's non-media benchmarks.
    let media = speedup(idx("djpeg")).min(speedup(idx("h263dec")));
    for name in ["gzip", "mcf", "swim", "art"] {
        assert!(
            media > speedup(idx(name)),
            "media speedup {media} must exceed {name}'s {}",
            speedup(idx(name))
        );
    }
    assert!(media > 1.2, "djpeg/h263dec should gain >20%: {media}");
}

#[test]
fn way_table_coverage_beats_every_wdu() {
    let p = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "gzip")
        .expect("gzip exists");
    let coverage = |wd: WayDetermination| {
        Simulator::new(SimConfig::malec().with_way_determination(wd))
            .run(&p, INSTS, SEED)
            .interface
            .coverage()
    };
    let wt = coverage(WayDetermination::WayTables);
    let wt_nofb = coverage(WayDetermination::WayTablesNoFeedback);
    let wdu8 = coverage(WayDetermination::Wdu(8));
    let wdu16 = coverage(WayDetermination::Wdu(16));
    let wdu32 = coverage(WayDetermination::Wdu(32));
    assert!(wt > 0.85, "WT coverage should be high: {wt}");
    assert!(wt >= wt_nofb, "feedback can only help: {wt} vs {wt_nofb}");
    assert!(
        wt > wdu32 && wdu32 >= wdu16 && wdu16 >= wdu8,
        "coverage ordering broken: wt={wt} wdu32={wdu32} wdu16={wdu16} wdu8={wdu8}"
    );
}

#[test]
fn mgrid_gets_no_merging_but_equake_does() {
    let benches = subset();
    let s = sweep();
    let idx = |name: &str| {
        benches
            .iter()
            .position(|b| b.name == name)
            .expect("in subset")
    };
    let mgrid = s.malec[idx("mgrid")].interface.merge_ratio();
    let equake = s.malec[idx("equake")].interface.merge_ratio();
    assert!(mgrid < 0.03, "line-stride mgrid must not merge: {mgrid}");
    assert!(equake > 0.2, "equake must merge heavily: {equake}");
}

#[test]
fn merging_is_what_saves_mcf_energy() {
    let p = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "mcf")
        .expect("mcf exists");
    let with = Simulator::new(SimConfig::malec()).run(&p, INSTS, SEED);
    let without = Simulator::new(SimConfig::malec().with_load_merging(false)).run(&p, INSTS, SEED);
    assert!(
        with.energy.dynamic < without.energy.dynamic,
        "merging must save mcf dynamic energy: {} vs {}",
        with.energy.dynamic,
        without.energy.dynamic
    );
}

// ---------------------------------------------------------------------------
// Sec. VI-D: grouping and way determination "scale well with most cache
// parameters". Each check edits one knob of the MALEC config and runs gzip.
// ---------------------------------------------------------------------------

/// MALEC with its L1 rebuilt at `kib` KiB, `ways` ways and `banks` banks
/// (64 B lines, 128 B sub-banks, as in Table I).
fn malec_l1(kib: u64, ways: u32, banks: u32) -> SimConfig {
    let mut config = SimConfig::malec();
    config.l1 = CacheGeometry::new(kib * 1024, ways, banks, 64, 128).expect("valid L1 geometry");
    config.validate().expect("valid MALEC config");
    config
}

fn gzip_on(config: SimConfig) -> RunSummary {
    let gzip = benchmark_named("gzip").expect("gzip exists");
    Simulator::new(config).run(&gzip, 15_000, 3)
}

#[test]
fn more_banks_never_hurt_grouped_throughput() {
    let one_bank = gzip_on(malec_l1(32, 4, 1)).core.cycles;
    let four_banks = gzip_on(malec_l1(32, 4, 4)).core.cycles;
    assert!(
        four_banks <= one_bank,
        "banking enables parallel servicing: {four_banks} vs {one_bank}"
    );
}

#[test]
fn bigger_caches_miss_less() {
    let small = gzip_on(malec_l1(8, 4, 4));
    let big = gzip_on(malec_l1(64, 4, 4));
    assert!(
        big.l1_miss_rate <= small.l1_miss_rate,
        "64KiB should not miss more than 8KiB"
    );
}

#[test]
fn way_determination_survives_associativity_changes() {
    // The 2-bit encoding generalizes to 8 ways (3 bits would be naive;
    // we keep 2 bits and one excluded way — coverage still works).
    for ways in [2, 4, 8] {
        let run = gzip_on(malec_l1(32, ways, 4));
        assert!(
            run.interface.coverage() > 0.5,
            "ways={ways}: coverage collapsed to {}",
            run.interface.coverage()
        );
    }
}

#[test]
fn result_buses_bound_malec_throughput() {
    let buses = |r: u8| {
        let mut config = SimConfig::malec();
        config.result_buses = r;
        config.validate().expect("valid MALEC config");
        gzip_on(config).core.cycles
    };
    let (narrow, wide) = (buses(1), buses(4));
    assert!(
        wide < narrow,
        "one result bus must throttle MALEC: {wide} vs {narrow}"
    );
}
