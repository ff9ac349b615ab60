//! The golden workloads and their recorded behavioral digests.
//!
//! Each digest folds every behavioral field of one cell's
//! [`RunSummary`](malec_core::RunSummary) — core statistics, interface
//! statistics, all energy event counters, the priced energy (bit pattern)
//! and the miss rates (bit patterns) — into a single FNV-1a value. Three
//! tables pin the simulator: [`GOLDEN_DIGESTS`] (24 benchmark cells),
//! [`SCENARIO_GOLDEN_DIGESTS`] (10 preset-scenario cells) and
//! [`COMPARE_GOLDEN_DIGESTS`] (5 paired comparisons). The benchmark table
//! was recorded from the simulator as bootstrapped (before the
//! allocation-free hot-path rewrite). The harness test `tests/goldens.rs`
//! recomputes all 39 digests on every `cargo test`, as jobs on one
//! in-process serve `Engine`, so any change to simulated behavior, however
//! slight, fails tier-1.
//!
//! To re-record after an *intentional* behavior change:
//!
//! ```sh
//! cargo test --release -p malec-harness --test goldens -- --ignored --nocapture
//! ```
//!
//! and replace the three tables with the printed ones.

use malec_types::SimConfig;

/// The eight representative benchmarks of the fixed workload: four
/// SPEC-INT (incl. the `mcf` miss-rate outlier), two SPEC-FP, two
/// MediaBench2.
pub const BENCH_BENCHMARKS: [&str; 8] = [
    "gzip", "mcf", "gap", "twolf", "swim", "art", "djpeg", "h263dec",
];

/// Instructions per scenario golden cell (scenarios mix phases, so they
/// need a few phase cycles to express their structure; still cheap enough
/// for every CI run).
pub const SCENARIO_INSTS: u64 = 40_000;

/// The configurations each scenario golden cell runs under: the energy
/// baseline and MALEC (the pair whose *relationship* the adversarial
/// patterns are designed to stress).
pub fn scenario_configs() -> Vec<SimConfig> {
    vec![SimConfig::base1ldst(), SimConfig::malec()]
}

/// Instructions per side per shared seed of a compare golden cell (smaller
/// than [`SCENARIO_INSTS`] because each preset runs `2 × COMPARE_SEEDS`
/// simulations instead of 2).
pub const COMPARE_INSTS: u64 = 20_000;

/// Shared seeds per compare golden cell.
pub const COMPARE_SEEDS: u32 = 3;

/// `(benchmark, config label, digest)` per cell of the fixed workload,
/// row-major in `(BENCH_BENCHMARKS, Table I configs)` order. Recorded at
/// `DEFAULT_INSTS` instructions, `DEFAULT_SEED` seed.
pub const GOLDEN_DIGESTS: &[(&str, &str, u64)] = &[
    ("gzip", "Base1ldst", 0x1ec651e42e120986),
    ("gzip", "Base2ld1st", 0xa7a05d912197c509),
    ("gzip", "MALEC", 0x29046e5ac50a4d74),
    ("mcf", "Base1ldst", 0x84eb9182a5ccae93),
    ("mcf", "Base2ld1st", 0x006771d8140889bf),
    ("mcf", "MALEC", 0x37545d3408067284),
    ("gap", "Base1ldst", 0x07c6c9d0ce4a6fe2),
    ("gap", "Base2ld1st", 0x7a84c23bfc8d4cdc),
    ("gap", "MALEC", 0x45a349f024918923),
    ("twolf", "Base1ldst", 0x39af7592b3d106b1),
    ("twolf", "Base2ld1st", 0x59f082ef6cef8141),
    ("twolf", "MALEC", 0x59c44b2c638d173b),
    ("swim", "Base1ldst", 0x6ecdaa7c3332740a),
    ("swim", "Base2ld1st", 0x4ee1385c62c1fe38),
    ("swim", "MALEC", 0x19f40a320cfdcdb0),
    ("art", "Base1ldst", 0xbaca615a0d859ba4),
    ("art", "Base2ld1st", 0x637698d2737419d1),
    ("art", "MALEC", 0x188f8ed03c911069),
    ("djpeg", "Base1ldst", 0x40c8cb521f5e2e1f),
    ("djpeg", "Base2ld1st", 0x7f1b594738cd0948),
    ("djpeg", "MALEC", 0x98e12771e2464cd2),
    ("h263dec", "Base1ldst", 0x8f14c65d077deaed),
    ("h263dec", "Base2ld1st", 0xf038e6e2389a5a70),
    ("h263dec", "MALEC", 0xee45a3856c04bb41),
];

/// `(scenario, config label, digest)` per cell of the scenario workload:
/// every preset scenario under every [`scenario_configs`] entry,
/// scenario-major. Recorded at [`SCENARIO_INSTS`] instructions,
/// [`crate::DEFAULT_SEED`] seed.
pub const SCENARIO_GOLDEN_DIGESTS: &[(&str, &str, u64)] = &[
    ("phased_compress_decode", "Base1ldst", 0xd2bc356cf4edc460),
    ("phased_compress_decode", "MALEC", 0x7d15453dd09fbd03),
    ("mixed_int_media_thrash", "Base1ldst", 0x00cdd3f89153b26f),
    ("mixed_int_media_thrash", "MALEC", 0x254a3282748ee789),
    ("tlb_thrash", "Base1ldst", 0xce2390c5823f382a),
    ("tlb_thrash", "MALEC", 0xd89d3ce8a28a5ca5),
    ("bank_conflict", "Base1ldst", 0xbbcf1796699b1b84),
    ("bank_conflict", "MALEC", 0xde7d83402b15d581),
    ("store_burst", "Base1ldst", 0xd9acc25a6b874b0b),
    ("store_burst", "MALEC", 0xce455fc869e46c0e),
];

/// `(preset scenario, compare digest)` per compare golden cell, in preset
/// order: the paired Base1ldst-vs-MALEC delta blocks of each preset over
/// [`COMPARE_SEEDS`] shared seeds, digested bit-exactly
/// ([`malec_core::compare::compare_digest`] folds every delta mean, CI
/// width, relative improvement and verdict). Recorded at [`COMPARE_INSTS`]
/// / [`COMPARE_SEEDS`] / [`crate::DEFAULT_SEED`] / `alpha = 0.05`.
pub const COMPARE_GOLDEN_DIGESTS: &[(&str, u64)] = &[
    ("phased_compress_decode", 0x0e5f18eb758778e4),
    ("mixed_int_media_thrash", 0xf123fcd9e392037d),
    ("tlb_thrash", 0xe1fc7e3d540e8ab4),
    ("bank_conflict", 0xd065b86b38d331a0),
    ("store_burst", 0x61e638b640a28e23),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SEED;
    use malec_core::compare::{compare_digest, Alpha, CompareStats};
    use malec_core::stats::replicate_seed;
    use malec_core::{digest, RunSummary, ScenarioSource, Simulator};
    use malec_trace::all_benchmarks;

    #[test]
    fn digest_is_stable_and_sensitive() {
        let profile = all_benchmarks()
            .into_iter()
            .find(|b| b.name == "gzip")
            .expect("gzip exists");
        let run = || Simulator::new(SimConfig::malec()).run(&profile, 3_000, DEFAULT_SEED);
        let (a, b) = (run(), run());
        assert_eq!(digest(&a), digest(&b), "same run, same digest");
        let mut c = a.clone();
        c.counters.utlb_lookups += 1;
        assert_ne!(digest(&a), digest(&c), "one counter flips the digest");
    }

    #[test]
    fn replicated_sweeps_keep_replicate_zero_on_the_golden_path() {
        // The replication engine's core compatibility promise: replicate 0
        // of a multi-seed sweep is the legacy single-seed run, bit for bit
        // — checked here directly against the recorded golden table.
        use malec_trace::scenario::preset_named;

        let source = ScenarioSource::Scenario(preset_named("store_burst").expect("preset"));
        let replicate = |r: u32| {
            Simulator::new(SimConfig::malec())
                .run_source(&source, SCENARIO_INSTS, replicate_seed(DEFAULT_SEED, r))
                .expect("generator sources cannot fail")
        };
        let &(_, _, golden) = SCENARIO_GOLDEN_DIGESTS
            .iter()
            .find(|&&(s, c, _)| s == "store_burst" && c == "MALEC")
            .expect("golden cell exists");
        assert_eq!(
            digest(&replicate(0)),
            golden,
            "replicate 0 must reproduce the recorded golden digest"
        );
        assert_ne!(
            digest(&replicate(1)),
            golden,
            "replicate 1 runs a genuinely different seed"
        );
    }

    #[test]
    fn compare_golden_table_covers_every_preset_and_one_cell_reproduces() {
        use malec_trace::scenario::presets;
        let names: Vec<String> = presets().into_iter().map(|s| s.name).collect();
        assert_eq!(COMPARE_GOLDEN_DIGESTS.len(), names.len());
        for (&(scenario, digest), want) in COMPARE_GOLDEN_DIGESTS.iter().zip(&names) {
            assert_eq!(scenario, want);
            assert_ne!(
                digest, 0,
                "{scenario}: placeholder digest left in the table"
            );
        }
        // One cell recomputed from scratch (debug builds must digest
        // identically to the release recording — float determinism).
        let scenario = presets()
            .into_iter()
            .find(|s| s.name == "store_burst")
            .expect("preset exists");
        let run = |cfg: SimConfig, r: u32| {
            Simulator::new(cfg)
                .run_source(
                    &ScenarioSource::Scenario(scenario.clone()),
                    COMPARE_INSTS,
                    replicate_seed(DEFAULT_SEED, r),
                )
                .expect("generator sources cannot fail")
        };
        let base: Vec<RunSummary> = (0..COMPARE_SEEDS)
            .map(|r| run(SimConfig::base1ldst(), r))
            .collect();
        let cand: Vec<RunSummary> = (0..COMPARE_SEEDS)
            .map(|r| run(SimConfig::malec(), r))
            .collect();
        let stats = CompareStats::from_pairs(&base, &cand, COMPARE_SEEDS, Alpha::Five);
        let &(_, golden) = COMPARE_GOLDEN_DIGESTS
            .iter()
            .find(|&&(s, _)| s == "store_burst")
            .expect("golden cell exists");
        assert_eq!(
            compare_digest(&stats),
            golden,
            "store_burst: paired deltas must reproduce the recorded compare golden"
        );
    }

    #[test]
    fn scenario_golden_table_covers_every_preset_cell() {
        use malec_trace::scenario::presets;
        let expected: Vec<(String, String)> = presets()
            .into_iter()
            .flat_map(|s| {
                scenario_configs()
                    .into_iter()
                    .map(move |cfg| (s.name.clone(), cfg.label()))
            })
            .collect();
        assert_eq!(SCENARIO_GOLDEN_DIGESTS.len(), expected.len());
        assert!(
            SCENARIO_GOLDEN_DIGESTS.len() >= 6,
            "the scenario golden table must keep at least 6 cells"
        );
        for (&(scenario, config, _), (want_s, want_c)) in
            SCENARIO_GOLDEN_DIGESTS.iter().zip(&expected)
        {
            assert_eq!(scenario, want_s);
            assert_eq!(config, want_c);
        }
    }
}
