//! Acceptance and property tests for the paired-seed comparison engine:
//!
//! * **algebraic identities** (proptest): `delta_mean == mean_a − mean_b`
//!   on shared seeds; the paired CI is never wider than the
//!   independent-difference CI under positive seed correlation; swapping
//!   the two interfaces negates every delta bit-exactly, keeps the CI
//!   width, and flips every win/loss verdict;
//! * **the headline acceptance claim**: for a shared-seed replicated
//!   sweep, the paired delta CI on IPC is *strictly narrower* than the
//!   difference of the independent marginal CIs;
//! * **bit-reproducibility**: serial and `--jobs N` comparisons produce
//!   bit-identical compare reports, including under CI-driven early
//!   stopping (the paired stopping rule is a pure prefix function).

use std::path::Path;

use malec_cli::compare::compare_parsed_spec;
use malec_cli::run::run_parsed_spec;
use malec_core::compare::{compare_digest, Alpha, CompareStats, PairedSample, Verdict};
use malec_core::stats::{CiMetric, Replication, StatError};
use malec_harness::tmp_dir;
use malec_serve::json::{parse, Value};
use malec_serve::parse_spec;
use proptest::prelude::*;

/// A two-config paired spec over a load-rich mixed scenario.
fn spec_toml(name: &str, seeds: u32, extra_sweep: &str) -> String {
    format!(
        "[scenario]\nname = \"{name}\"\nmode = \"mixed\"\nblock = 24\n\
         [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\nweight = 2\n\
         [[scenario.part]]\nkind = \"store_burst\"\nweight = 1\n\
         [compare]\nbaseline = \"Base1ldst\"\ncandidate = \"MALEC\"\nalpha = 0.05\n\
         [sweep]\ninsts = 3000\nseed = 17\nseeds = {seeds}\n{extra_sweep}\
         [report]\nout = \"{name}.json\"\nmtr = \"{name}.mtr\"\ncompare = \"{name}_compare.json\"\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Correlated sample pairs: a shared per-seed component `s_i` plus
    /// small independent noise on each side — the structure shared-seed
    /// simulation replicates actually have.
    #[test]
    fn paired_identities_hold_on_correlated_samples(
        raw in proptest::collection::vec((0u64..1_000_000, 0u64..1_000, 0u64..1_000), 2..24),
        shift in 0u64..500,
    ) {
        let mut ps = PairedSample::new();
        let mut swapped = PairedSample::new();
        for &(s, na, nb) in &raw {
            let shared = s as f64 / 997.0;
            let a = shared + na as f64 / 131.0 + shift as f64;
            let b = shared + nb as f64 / 131.0;
            ps.push(a, b);
            swapped.push(b, a);
        }
        // delta_mean == mean_a - mean_b (up to accumulation rounding).
        let scale = ps.candidate_mean().abs().max(ps.baseline_mean().abs()).max(1.0);
        prop_assert!(
            (ps.delta_mean() - (ps.candidate_mean() - ps.baseline_mean())).abs() <= 1e-9 * scale,
            "delta {} vs {} - {}", ps.delta_mean(), ps.candidate_mean(), ps.baseline_mean()
        );
        // Positive seed correlation: pairing never widens the interval.
        for alpha in [Alpha::Ten, Alpha::Five, Alpha::One] {
            let paired = ps.paired_ci(alpha).expect("n >= 2");
            let independent = ps.independent_ci(alpha).expect("n >= 2");
            prop_assert!(!paired.is_nan() && !independent.is_nan());
            prop_assert!(
                paired <= independent * (1.0 + 1e-12),
                "paired {paired} > independent {independent} under positive correlation"
            );
        }
        // Swapping the sides negates the delta bit-exactly, keeps the CI
        // width bit-exactly, and flips the oriented verdict.
        prop_assert_eq!(
            swapped.delta_mean().to_bits(),
            (-ps.delta_mean()).to_bits(),
            "sign symmetry"
        );
        prop_assert_eq!(
            swapped.paired_ci(Alpha::Five).unwrap().to_bits(),
            ps.paired_ci(Alpha::Five).unwrap().to_bits(),
            "width symmetry"
        );
        prop_assert_eq!(
            swapped.verdict(Alpha::Five, true),
            ps.verdict(Alpha::Five, true).flipped(),
            "verdict symmetry"
        );
    }
}

#[test]
fn small_pair_counts_error_instead_of_nan() {
    // n = 0 and n = 1 pinned at the test-suite level too: comparisons on
    // degenerate replicate sets surface as typed errors, never NaN.
    let empty = PairedSample::new();
    assert_eq!(empty.paired_ci(Alpha::Five), Err(StatError::Empty));
    let mut one = PairedSample::new();
    one.push(1.5, 1.0);
    assert_eq!(one.paired_ci(Alpha::Five), Err(StatError::OneSample));
    assert_eq!(one.independent_ci(Alpha::Five), Err(StatError::OneSample));
    assert!(!one.delta_mean().is_nan());
}

/// The acceptance headline: pairing provably tightens the IPC interval on
/// a real shared-seed sweep, and the delta identity links the paired view
/// to the marginal report the `run` pipeline produces.
#[test]
fn paired_ipc_ci_is_strictly_narrower_than_independent_marginals() {
    let dir = tmp_dir("compare_narrow");
    let toml = spec_toml("cmp_narrow", 8, "");

    // The marginal view: `run` on the same spec (same seeds, same cells).
    let run = run_parsed_spec(parse_spec(&toml).expect("spec"), "inline", &dir, None)
        .expect("marginal run");
    // The paired view.
    let cmp = compare_parsed_spec(parse_spec(&toml).expect("spec"), "inline", &dir, None)
        .expect("paired run");

    let ipc = cmp.stats.metric("ipc").expect("ipc delta");
    let paired = ipc.ci.expect("8 pairs produce a CI");
    let independent = ipc.independent_ci.expect("8 pairs produce a CI");
    assert!(
        paired < independent,
        "paired CI {paired} must be strictly narrower than the independent-difference CI {independent}"
    );

    // Strictly narrower than the *difference of the independent marginal
    // CIs* from the marginal report as well (hw_a + hw_b bounds the CI of
    // a difference of independent means with these dfs from above).
    let marginal_ci = |config: usize| {
        run.cells[config]
            .stats
            .as_ref()
            .expect("replicated run has stats")
            .metric("ipc")
            .expect("ipc")
            .ci95
            .expect("8 replicates produce a CI")
    };
    let marginal_sum = marginal_ci(0) + marginal_ci(1);
    assert!(
        paired < marginal_sum,
        "paired CI {paired} must beat the summed marginal CIs {marginal_sum}"
    );

    // The paired delta mean matches the marginal means' difference: the
    // two views describe the same numbers.
    let m = |config: usize| {
        run.cells[config]
            .stats
            .as_ref()
            .unwrap()
            .metric("ipc")
            .unwrap()
            .mean
    };
    assert!((ipc.delta_mean - (m(1) - m(0))).abs() < 1e-12);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serial_and_parallel_compare_reports_are_bit_identical() {
    let dir = tmp_dir("compare_repro");
    let toml = spec_toml("cmp_repro", 6, "");
    let serial = compare_parsed_spec(parse_spec(&toml).expect("spec"), "inline", &dir, Some(1))
        .expect("serial");
    let parallel = compare_parsed_spec(parse_spec(&toml).expect("spec"), "inline", &dir, None)
        .expect("parallel");
    assert_eq!(
        compare_digest(&serial.stats),
        compare_digest(&parallel.stats),
        "fan-out must not leak into the deltas"
    );
    // The rendered reports agree in everything but run facts (workers):
    // compare their parsed delta blocks and digests directly.
    let deltas = |json: &str| {
        let v = parse(json).expect("valid JSON");
        (
            format!("{:?}", v.get("deltas").expect("deltas")),
            v.get("digest").and_then(Value::as_str).map(str::to_owned),
        )
    };
    assert_eq!(deltas(&serial.json), deltas(&parallel.json));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paired_early_stopping_is_fanout_independent_and_saves_seeds() {
    let dir = tmp_dir("compare_earlystop");
    // A generous paired target on a steady workload converges well before
    // the 16-seed cap; the stopping decision is a pure function of the
    // ordered pair prefix, so every fan-out stops at the same count.
    let toml = spec_toml("cmp_stop", 16, "min_seeds = 3\nci_target = 0.2\n");
    let a = compare_parsed_spec(parse_spec(&toml).expect("spec"), "inline", &dir, None)
        .expect("parallel");
    let b = compare_parsed_spec(parse_spec(&toml).expect("spec"), "inline", &dir, Some(1))
        .expect("serial");
    assert!(a.stats.n < 16, "early stopping must beat the cap");
    assert!(a.stats.n >= 3, "never below min_seeds");
    assert_eq!(a.stats.n, b.stats.n, "stop counts are fan-out independent");
    assert_eq!(a.stats.saved, 16 - a.stats.n);
    assert_eq!(
        a.baseline.len(),
        a.candidate.len(),
        "the pair grows in lockstep"
    );
    assert_eq!(compare_digest(&a.stats), compare_digest(&b.stats));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_defaults_resolve_on_plain_replicated_specs() {
    // No [compare] section at all: the Table I default configs carry the
    // default pairing (Base1ldst vs MALEC at alpha 0.05).
    let dir = tmp_dir("compare_defaults");
    let toml = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                [sweep]\ninsts = 2000\nseed = 5\nseeds = 3\n\
                [report]\nout = \"d.json\"\nmtr = \"d.mtr\"\ncompare = \"d_compare.json\"\n";
    let cmp = compare_parsed_spec(parse_spec(toml).expect("spec"), "inline", &dir, None)
        .expect("default pairing compares");
    assert_eq!(cmp.stats.baseline, "Base1ldst");
    assert_eq!(cmp.stats.candidate, "MALEC");
    assert_eq!(cmp.stats.alpha, Alpha::Five);
    assert_eq!(cmp.stats.n, 3);

    // With a ci_target the implicit pairing is rejected — otherwise the
    // local paired stopping rule and the server's marginal rule for plain
    // specs would stop at different counts and break bit-identity.
    let toml = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                [sweep]\ninsts = 2000\nseed = 5\nseeds = 8\nci_target = 0.1\n";
    let e = compare_parsed_spec(parse_spec(toml).expect("spec"), "inline", &dir, None)
        .expect_err("implicit pairing + ci_target must fail");
    assert!(e.contains("explicit"), "{e}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verdicts_respect_alpha_ordering() {
    // Tightening alpha can only demote verdicts toward tie (the interval
    // widens), never create new wins: check on a real paired sweep.
    let scenario = malec_trace::scenario::preset_named("store_burst").expect("preset");
    let source = malec_core::ScenarioSource::Scenario(scenario);
    let run = |cfg: malec_types::SimConfig, r: u32| {
        malec_core::Simulator::new(cfg)
            .run_source(&source, 3_000, malec_trace::replicate_seed(7, r))
            .expect("generator sources cannot fail")
    };
    let base: Vec<_> = (0..5)
        .map(|r| run(malec_types::SimConfig::base1ldst(), r))
        .collect();
    let cand: Vec<_> = (0..5)
        .map(|r| run(malec_types::SimConfig::malec(), r))
        .collect();
    for (loose, tight) in [(Alpha::Ten, Alpha::Five), (Alpha::Five, Alpha::One)] {
        let l = CompareStats::from_pairs(&base, &cand, 5, loose);
        let t = CompareStats::from_pairs(&base, &cand, 5, tight);
        for ((name, dl), (_, dt)) in l.metrics.iter().zip(&t.metrics) {
            assert!(
                dt.verdict == dl.verdict || dt.verdict == Verdict::Tie,
                "{name}: tightening alpha flipped {:?} to {:?}",
                dl.verdict,
                dt.verdict
            );
            assert!(
                dt.ci.unwrap() > dl.ci.unwrap(),
                "{name}: tighter alpha, wider CI"
            );
        }
    }
}

#[test]
fn paired_stopping_matches_the_marginal_contract_shape() {
    // The paired rule obeys the same policy envelope the marginal rule
    // does: cap always stops, min_seeds always defers.
    let rep = Replication {
        seeds: 4,
        min_seeds: 3,
        ci_target: Some(1e-12), // unreachably tight
        metric: CiMetric::Ipc,
    };
    let scenario = malec_trace::scenario::preset_named("store_burst").expect("preset");
    let source = malec_core::ScenarioSource::Scenario(scenario);
    let run = |cfg: malec_types::SimConfig, r: u32| {
        malec_core::Simulator::new(cfg)
            .run_source(&source, 2_000, malec_trace::replicate_seed(7, r))
            .expect("generator sources cannot fail")
    };
    let base: Vec<_> = (0..4)
        .map(|r| run(malec_types::SimConfig::base1ldst(), r))
        .collect();
    let cand: Vec<_> = (0..4)
        .map(|r| run(malec_types::SimConfig::malec(), r))
        .collect();
    let pairs = |n: usize| base[..n].iter().zip(&cand[..n]);
    use malec_core::compare::paired_converged;
    assert!(
        !paired_converged(&rep, Alpha::Five, pairs(2)),
        "below min_seeds never stops, even with a zero-width interval"
    );
    assert!(paired_converged(&rep, Alpha::Five, pairs(4)), "cap stops");
    let no_target = Replication::fixed(4);
    assert!(!paired_converged(&no_target, Alpha::Five, pairs(2)));
}

/// Guard for the spec surface: a compare spec round-trips through the file
/// pipeline (`compare_spec_file`) exactly like the inline path.
#[test]
fn compare_spec_file_roundtrip() {
    let dir = tmp_dir("compare_file");
    let name = "cmp_file";
    // Absolute [report] paths: compare_spec_file resolves relative ones
    // against the cwd, and the report belongs in the tmp dir.
    let relative = spec_toml(name, 3, "");
    let at = |file: String| dir.join(file).display().to_string();
    let toml = format!(
        "{}[report]\nout = \"{}\"\nmtr = \"{}\"\ncompare = \"{}\"\n",
        &relative[..relative.find("[report]").expect("report section")],
        at(format!("{name}.json")),
        at(format!("{name}.mtr")),
        at(format!("{name}_compare.json")),
    );
    let path = dir.join("spec.toml");
    std::fs::write(&path, &toml).expect("write spec");
    let inline = compare_parsed_spec(parse_spec(&toml).expect("spec"), "inline", &dir, None)
        .expect("inline");
    let from_file = malec_cli::compare::compare_spec_file(Path::new(&path), None)
        .expect("the file pipeline compares");
    assert_eq!(from_file.out_path, dir.join(format!("{name}_compare.json")));
    assert!(
        from_file.out_path.exists(),
        "report written into the tmp dir"
    );
    assert_eq!(
        compare_digest(&from_file.stats),
        compare_digest(&inline.stats)
    );
    std::fs::remove_dir_all(&dir).ok();
}
