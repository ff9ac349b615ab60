//! Property tests for the scenario engine and the `.mtr` record/replay
//! path: every generator is a pure function of (description, seed), and
//! the binary trace format loses nothing, for arbitrary generated traces.

use proptest::prelude::*;

use malec_trace::record::{read_trace, write_trace, TraceReader};
use malec_trace::scenario::{
    presets, BankConflictParams, MixPart, Phase, Scenario, SegmentKind, StoreBurstParams,
    TlbThrashParams,
};
use malec_trace::{all_benchmarks, TraceInst, WorkloadGenerator};

/// Builds one of a family of scenarios from three small integers — the
/// proptest-friendly way to cover phased/mixed compositions of every
/// segment kind without a custom strategy type.
fn arbitrary_scenario(shape: u64, a: u32, b: u32) -> Scenario {
    let kinds = [
        SegmentKind::Benchmark(all_benchmarks()[(a as usize) % 38].clone()),
        SegmentKind::TlbThrash(TlbThrashParams {
            pages: 64 + a % 8192,
            lines_per_page: 1 + b % 4,
            load_fraction: 0.4 + f64::from(b % 50) / 100.0,
        }),
        SegmentKind::BankConflict(BankConflictParams {
            stride_lines: 1 + a % 8,
            pages: 1 + b % 32,
        }),
        SegmentKind::StoreBurst(StoreBurstParams {
            burst: 1 + a % 40,
            loads_after: b % 10,
            lines_back: 1 + a % 16,
            gap: a % 6,
            pages: 1 + b % 64,
        }),
    ];
    let k = |i: u32| kinds[(i as usize) % kinds.len()].clone();
    if shape.is_multiple_of(2) {
        Scenario::phased(
            "prop_phased",
            vec![
                Phase::new(k(a), 1 + u64::from(a % 500)),
                Phase::new(k(a + 1), 1 + u64::from(b % 500)),
                Phase::new(k(b + 2), 1 + u64::from((a ^ b) % 500)),
            ],
        )
    } else {
        Scenario::mixed(
            "prop_mixed",
            vec![
                MixPart::new(k(b), 1 + a % 4),
                MixPart::new(k(b + 1), 1 + b % 4),
                MixPart::new(k(a + 2), 1),
            ],
            1 + b % 96,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The profile generator is seed-deterministic for every benchmark.
    #[test]
    fn prop_workload_generator_seed_deterministic(
        bench_idx in 0usize..38,
        seed in 0u64..1_000_000,
    ) {
        let profile = &all_benchmarks()[bench_idx];
        let a: Vec<TraceInst> = WorkloadGenerator::new(profile, seed).take(1_500).collect();
        let b: Vec<TraceInst> = WorkloadGenerator::new(profile, seed).take(1_500).collect();
        prop_assert_eq!(a, b);
    }

    /// Every preset scenario generator is seed-deterministic, and distinct
    /// seeds produce distinct streams.
    #[test]
    fn prop_preset_scenarios_seed_deterministic(
        preset_idx in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let scenario = &presets()[preset_idx];
        let a: Vec<TraceInst> = scenario.generator(seed).take(2_000).collect();
        let b: Vec<TraceInst> = scenario.generator(seed).take(2_000).collect();
        prop_assert_eq!(&a, &b);
        let c: Vec<TraceInst> = scenario.generator(seed ^ 1).take(2_000).collect();
        prop_assert_ne!(&a, &c);
    }

    /// Arbitrary phased/mixed compositions of arbitrary segments are
    /// seed-deterministic too — determinism is structural, not a property
    /// of the presets.
    #[test]
    fn prop_arbitrary_scenarios_seed_deterministic(
        shape in 0u64..100,
        a in 0u32..10_000,
        b in 0u32..10_000,
        seed in 0u64..1_000_000,
    ) {
        let scenario = arbitrary_scenario(shape, a, b);
        let x: Vec<TraceInst> = scenario.generator(seed).take(1_500).collect();
        let y: Vec<TraceInst> = scenario.generator(seed).take(1_500).collect();
        prop_assert_eq!(x, y);
    }

    /// `.mtr` write→read roundtrips are lossless for arbitrary generated
    /// traces, through both the whole-trace and the streaming reader.
    #[test]
    fn prop_mtr_roundtrip_lossless(
        shape in 0u64..100,
        a in 0u32..10_000,
        b in 0u32..10_000,
        seed in 0u64..1_000_000,
        len in 1usize..3_000,
    ) {
        let scenario = arbitrary_scenario(shape, a, b);
        let insts: Vec<TraceInst> = scenario.generator(seed).take(len).collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, insts.iter().copied()).expect("in-memory write");
        let whole = read_trace(&mut buf.as_slice()).expect("whole read");
        prop_assert_eq!(&whole, &insts);
        let streamed: Vec<TraceInst> = TraceReader::new(buf.as_slice())
            .expect("header")
            .collect::<std::io::Result<_>>()
            .expect("records");
        prop_assert_eq!(&streamed, &insts);
    }
}
