//! Golden-stats equivalence test.
//!
//! Runs 3 benchmarks × {Base1ldst, MALEC} for 50 000 instructions at the
//! fixed figure seed and asserts the complete `RunSummary` — core cycles,
//! interface groups/merges/hits, every energy event counter, and the priced
//! energy down to the last mantissa bit — against values recorded from the
//! bootstrapped (pre-optimization) simulator. Any hot-path rewrite that
//! changes simulated behavior, however slightly, fails here.
//!
//! To re-record after an *intentional* behavior change:
//!
//! ```sh
//! cargo test --release -p malec-harness --test golden_stats -- --ignored --nocapture
//! ```
//!
//! and replace the `golden_cells()` body with the printed literals.

use malec_core::{InterfaceStats, RunSummary, Simulator};
use malec_cpu::CoreStats;
use malec_energy::EnergyCounters;
use malec_trace::all_benchmarks;
use malec_types::SimConfig;

/// The figure seed (`malec_bench::DEFAULT_SEED`).
const SEED: u64 = 2013;
/// Instruction budget per cell.
const INSTS: u64 = 50_000;
/// Benchmarks covering SPEC-INT, the mcf outlier, and MediaBench2.
const BENCHMARKS: [&str; 3] = ["gzip", "mcf", "djpeg"];

/// One recorded (benchmark × config) cell.
#[derive(Debug, PartialEq)]
struct GoldenCell {
    benchmark: &'static str,
    config: &'static str,
    core: CoreStats,
    interface: InterfaceStats,
    counters: EnergyCounters,
    energy_dynamic_bits: u64,
    energy_leakage_bits: u64,
    l1_miss_rate_bits: u64,
    l2_miss_rate_bits: u64,
    utlb_miss_rate_bits: u64,
}

fn configs() -> [(&'static str, SimConfig); 2] {
    [
        ("Base1ldst", SimConfig::base1ldst()),
        ("MALEC", SimConfig::malec()),
    ]
}

fn run_cell(bench: &str, config: &SimConfig) -> RunSummary {
    let profile = all_benchmarks()
        .into_iter()
        .find(|b| b.name == bench)
        .unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    Simulator::new(config.clone()).run(&profile, INSTS, SEED)
}

fn cell_of(bench: &'static str, label: &'static str, s: &RunSummary) -> GoldenCell {
    GoldenCell {
        benchmark: bench,
        config: label,
        core: s.core,
        interface: s.interface,
        counters: s.counters,
        energy_dynamic_bits: s.energy.dynamic.to_bits(),
        energy_leakage_bits: s.energy.leakage.to_bits(),
        l1_miss_rate_bits: s.l1_miss_rate.to_bits(),
        l2_miss_rate_bits: s.l2_miss_rate.to_bits(),
        utlb_miss_rate_bits: s.utlb_miss_rate.to_bits(),
    }
}

#[test]
fn summaries_match_recorded_goldens() {
    let goldens = golden_cells();
    assert_eq!(goldens.len(), BENCHMARKS.len() * configs().len());
    let mut i = 0;
    for bench in BENCHMARKS {
        for (label, config) in configs() {
            let actual = cell_of(bench, label, &run_cell(bench, &config));
            assert_eq!(
                goldens[i], actual,
                "{bench}/{label}: simulated behavior diverged from the recorded golden"
            );
            i += 1;
        }
    }
}

/// Prints the golden literals (run with `-- --ignored --nocapture`).
#[test]
#[ignore = "recorder: regenerates the golden_cells() body"]
fn record_goldens() {
    println!("fn golden_cells() -> Vec<GoldenCell> {{\n    vec![");
    for bench in BENCHMARKS {
        for (label, config) in configs() {
            let c = cell_of(bench, label, &run_cell(bench, &config));
            println!("        {c:#?},")
        }
    }
    println!("    ]\n}}");
}

#[rustfmt::skip]
fn golden_cells() -> Vec<GoldenCell> {
    vec![
        GoldenCell {
    benchmark: "gzip",
    config: "Base1ldst",
    core: CoreStats {
        cycles: 32625,
        committed: 50000,
        loads: 15137,
        stores: 7302,
        branches: 5001,
        agu_stall_cycles: 1064,
        issued_ops: 50000,
    },
    interface: InterfaceStats {
        loads_serviced: 15137,
        merged_loads: 0,
        stores_accepted: 7302,
        mbe_writes: 3148,
        groups: 0,
        group_loads: 0,
        reduced_accesses: 0,
        conventional_accesses: 16163,
        held_load_cycles: 0,
        translations: 22439,
        store_translations_shared: 0,
    },
    counters: EnergyCounters {
        l1_tag_bank_reads: 19311,
        l1_data_subblock_reads: 64652,
        l1_data_subblock_writes: 10568,
        l1_tag_bank_writes: 1068,
        utlb_lookups: 22439,
        utlb_fills: 1810,
        utlb_reverse_lookups: 0,
        tlb_lookups: 1810,
        tlb_fills: 658,
        tlb_reverse_lookups: 0,
        uwt_reads: 0,
        uwt_writes: 0,
        uwt_bit_updates: 0,
        wt_reads: 0,
        wt_writes: 0,
        wt_bit_updates: 0,
        wdu_lookups: 0,
        wdu_writes: 0,
        sb_lookups_full: 15137,
        sb_lookups_page_segment: 0,
        sb_lookups_narrow: 0,
        mb_lookups_full: 15137,
        mb_lookups_page_segment: 0,
        mb_lookups_narrow: 0,
        input_buffer_compares: 0,
        arbitration_compares: 0,
    },
    energy_dynamic_bits: 4691582811710119711,
    energy_leakage_bits: 4688701349977376424,
    l1_miss_rate_bits: 4588578377550151231,
    l2_miss_rate_bits: 4606743866027314663,
    utlb_miss_rate_bits: 4590476811821801657,
},
        GoldenCell {
    benchmark: "gzip",
    config: "MALEC",
    core: CoreStats {
        cycles: 25882,
        committed: 50000,
        loads: 15137,
        stores: 7302,
        branches: 5001,
        agu_stall_cycles: 6727,
        issued_ops: 50000,
    },
    interface: InterfaceStats {
        loads_serviced: 15137,
        merged_loads: 5156,
        stores_accepted: 7302,
        mbe_writes: 3147,
        groups: 9321,
        group_loads: 15137,
        reduced_accesses: 12610,
        conventional_accesses: 1579,
        held_load_cycles: 7979,
        translations: 17483,
        store_translations_shared: 2235,
    },
    counters: EnergyCounters {
        l1_tag_bank_reads: 1579,
        l1_data_subblock_reads: 30406,
        l1_data_subblock_writes: 10718,
        l1_tag_bank_writes: 1106,
        utlb_lookups: 17483,
        utlb_fills: 2528,
        utlb_reverse_lookups: 1829,
        tlb_lookups: 2528,
        tlb_fills: 707,
        tlb_reverse_lookups: 628,
        uwt_reads: 12416,
        uwt_writes: 1821,
        uwt_bit_updates: 2381,
        wt_reads: 1821,
        wt_writes: 2359,
        wt_bit_updates: 1027,
        wdu_lookups: 0,
        wdu_writes: 0,
        sb_lookups_full: 0,
        sb_lookups_page_segment: 9321,
        sb_lookups_narrow: 15137,
        mb_lookups_full: 0,
        mb_lookups_page_segment: 9321,
        mb_lookups_narrow: 15137,
        input_buffer_compares: 20627,
        arbitration_compares: 6488,
    },
    energy_dynamic_bits: 4688667933712383084,
    energy_leakage_bits: 4687443075238920917,
    l1_miss_rate_bits: 4590735086340034847,
    l2_miss_rate_bits: 4606449464068618955,
    utlb_miss_rate_bits: 4594377698198442586,
},
        GoldenCell {
    benchmark: "mcf",
    config: "Base1ldst",
    core: CoreStats {
        cycles: 71470,
        committed: 50000,
        loads: 15026,
        stores: 7491,
        branches: 4989,
        agu_stall_cycles: 4302,
        issued_ops: 50000,
    },
    interface: InterfaceStats {
        loads_serviced: 15026,
        merged_loads: 0,
        stores_accepted: 7491,
        mbe_writes: 4578,
        groups: 0,
        group_loads: 0,
        reduced_accesses: 0,
        conventional_accesses: 20469,
        held_load_cycles: 0,
        translations: 22517,
        store_translations_shared: 0,
    },
    counters: EnergyCounters {
        l1_tag_bank_reads: 25047,
        l1_data_subblock_reads: 81876,
        l1_data_subblock_writes: 34172,
        l1_tag_bank_writes: 6254,
        utlb_lookups: 22517,
        utlb_fills: 6817,
        utlb_reverse_lookups: 0,
        tlb_lookups: 6817,
        tlb_fills: 6227,
        tlb_reverse_lookups: 0,
        uwt_reads: 0,
        uwt_writes: 0,
        uwt_bit_updates: 0,
        wt_reads: 0,
        wt_writes: 0,
        wt_bit_updates: 0,
        wdu_lookups: 0,
        wdu_writes: 0,
        sb_lookups_full: 15026,
        sb_lookups_page_segment: 0,
        sb_lookups_narrow: 0,
        mb_lookups_full: 15026,
        mb_lookups_page_segment: 0,
        mb_lookups_narrow: 0,
        input_buffer_compares: 0,
        arbitration_compares: 0,
    },
    energy_dynamic_bits: 4695060942306090054,
    energy_leakage_bits: 4693677549257237599,
    l1_miss_rate_bits: 4599418510770706386,
    l2_miss_rate_bits: 4607153614197347945,
    utlb_miss_rate_bits: 4599125461665880281,
},
        GoldenCell {
    benchmark: "mcf",
    config: "MALEC",
    core: CoreStats {
        cycles: 65916,
        committed: 50000,
        loads: 15026,
        stores: 7491,
        branches: 4989,
        agu_stall_cycles: 6401,
        issued_ops: 50000,
    },
    interface: InterfaceStats {
        loads_serviced: 15026,
        merged_loads: 4589,
        stores_accepted: 7491,
        mbe_writes: 4578,
        groups: 10204,
        group_loads: 15026,
        reduced_accesses: 12914,
        conventional_accesses: 7549,
        held_load_cycles: 8342,
        translations: 20840,
        store_translations_shared: 1421,
    },
    counters: EnergyCounters {
        l1_tag_bank_reads: 7549,
        l1_data_subblock_reads: 65862,
        l1_data_subblock_writes: 34184,
        l1_tag_bank_writes: 6257,
        utlb_lookups: 20840,
        utlb_fills: 10790,
        utlb_reverse_lookups: 12130,
        tlb_lookups: 10790,
        tlb_fills: 7187,
        tlb_reverse_lookups: 5865,
        uwt_reads: 14770,
        uwt_writes: 3603,
        uwt_bit_updates: 14744,
        wt_reads: 3603,
        wt_writes: 9049,
        wt_bit_updates: 7405,
        wdu_lookups: 0,
        wdu_writes: 0,
        sb_lookups_full: 0,
        sb_lookups_page_segment: 10204,
        sb_lookups_narrow: 15026,
        mb_lookups_full: 0,
        mb_lookups_page_segment: 10204,
        mb_lookups_narrow: 15026,
        input_buffer_compares: 18527,
        arbitration_compares: 5528,
    },
    energy_dynamic_bits: 4695439283092129109,
    energy_leakage_bits: 4693470079927694314,
    l1_miss_rate_bits: 4601178519116962115,
    l2_miss_rate_bits: 4607149309389299965,
    utlb_miss_rate_bits: 4602838735858071776,
},
        GoldenCell {
    benchmark: "djpeg",
    config: "Base1ldst",
    core: CoreStats {
        cycles: 20387,
        committed: 50000,
        loads: 12377,
        stores: 6109,
        branches: 2576,
        agu_stall_cycles: 338,
        issued_ops: 50000,
    },
    interface: InterfaceStats {
        loads_serviced: 12377,
        merged_loads: 0,
        stores_accepted: 6109,
        mbe_writes: 2398,
        groups: 0,
        group_loads: 0,
        reduced_accesses: 0,
        conventional_accesses: 12737,
        held_load_cycles: 0,
        translations: 18486,
        store_translations_shared: 0,
    },
    counters: EnergyCounters {
        l1_tag_bank_reads: 15135,
        l1_data_subblock_reads: 50948,
        l1_data_subblock_writes: 6284,
        l1_tag_bank_writes: 372,
        utlb_lookups: 18486,
        utlb_fills: 433,
        utlb_reverse_lookups: 0,
        tlb_lookups: 433,
        tlb_fills: 60,
        tlb_reverse_lookups: 0,
        uwt_reads: 0,
        uwt_writes: 0,
        uwt_bit_updates: 0,
        wt_reads: 0,
        wt_writes: 0,
        wt_bit_updates: 0,
        wdu_lookups: 0,
        wdu_writes: 0,
        sb_lookups_full: 12377,
        sb_lookups_page_segment: 0,
        sb_lookups_narrow: 0,
        mb_lookups_full: 12377,
        mb_lookups_page_segment: 0,
        mb_lookups_narrow: 0,
        input_buffer_compares: 0,
        arbitration_compares: 0,
    },
    energy_dynamic_bits: 4689470401431110525,
    energy_leakage_bits: 4685436083008573949,
    l1_miss_rate_bits: 4582914189254680232,
    l2_miss_rate_bits: 4606504457565789591,
    utlb_miss_rate_bits: 4582408479272412424,
},
        GoldenCell {
    benchmark: "djpeg",
    config: "MALEC",
    core: CoreStats {
        cycles: 14784,
        committed: 50000,
        loads: 12377,
        stores: 6109,
        branches: 2576,
        agu_stall_cycles: 8444,
        issued_ops: 50000,
    },
    interface: InterfaceStats {
        loads_serviced: 12377,
        merged_loads: 3414,
        stores_accepted: 6109,
        mbe_writes: 2397,
        groups: 8344,
        group_loads: 12377,
        reduced_accesses: 11344,
        conventional_accesses: 435,
        held_load_cycles: 3407,
        translations: 14630,
        store_translations_shared: 2074,
    },
    counters: EnergyCounters {
        l1_tag_bank_reads: 435,
        l1_data_subblock_reads: 21278,
        l1_data_subblock_writes: 6534,
        l1_tag_bank_writes: 435,
        utlb_lookups: 14630,
        utlb_fills: 447,
        utlb_reverse_lookups: 591,
        tlb_lookups: 447,
        tlb_fills: 60,
        tlb_reverse_lookups: 109,
        uwt_reads: 10595,
        uwt_writes: 387,
        uwt_bit_updates: 542,
        wt_reads: 387,
        wt_writes: 431,
        wt_bit_updates: 169,
        wdu_lookups: 0,
        wdu_writes: 0,
        sb_lookups_full: 0,
        sb_lookups_page_segment: 8344,
        sb_lookups_narrow: 12377,
        mb_lookups_full: 0,
        mb_lookups_page_segment: 8344,
        mb_lookups_narrow: 12377,
        input_buffer_compares: 14754,
        arbitration_compares: 4268,
    },
    energy_dynamic_bits: 4684865493620790820,
    energy_leakage_bits: 4683925665976652665,
    l1_miss_rate_bits: 4585679316353839969,
    l2_miss_rate_bits: 4605298154128335959,
    utlb_miss_rate_bits: 4584463713420714787,
},
    ]
}
