//! Failure-injection and pathological-workload tests: hand-built traces
//! that stress the corners of every interface (store floods, same-line
//! floods, page thrash, branch storms, dependency chains), where bugs like
//! buffer deadlocks and lost completions would hide.

use malec_core::sim::AnyInterface;
use malec_core::{ScenarioSource, Simulator};
use malec_cpu::OoOCore;
use malec_trace::scenario::preset_named;
use malec_trace::{benchmark_named, TraceInst};
use malec_types::addr::VAddr;
use malec_types::SimConfig;

fn run(cfg: &SimConfig, trace: Vec<TraceInst>) -> malec_cpu::CoreStats {
    let iface = AnyInterface::for_config(cfg, 99);
    let mut core = OoOCore::new(cfg, iface);
    core.run(trace.into_iter())
}

fn all_configs() -> Vec<SimConfig> {
    vec![
        SimConfig::base1ldst(),
        SimConfig::base2ld1st(),
        SimConfig::malec(),
        SimConfig::malec_wide(),
    ]
}

#[test]
fn store_only_flood_does_not_deadlock() {
    // 2000 stores, no loads: SB/MB/MBE pipeline under maximum pressure.
    let trace: Vec<TraceInst> = (0..2000)
        .map(|i| TraceInst::Store {
            vaddr: VAddr::new(0x4000 + (i % 512) * 64),
            size: 4,
            data_dep: None,
        })
        .collect();
    for cfg in all_configs() {
        let stats = run(&cfg, trace.clone());
        assert_eq!(stats.committed, 2000, "{}", cfg.label());
        assert_eq!(stats.stores, 2000, "{}", cfg.label());
    }
}

#[test]
fn same_line_load_flood() {
    // 2000 loads to one cache line: maximal merging pressure for MALEC,
    // port serialization for the baselines.
    let trace: Vec<TraceInst> = (0..2000)
        .map(|i| TraceInst::Load {
            vaddr: VAddr::new(0x7000 + (i % 8) * 8),
            size: 8,
            addr_dep: None,
        })
        .collect();
    let mut cycles = Vec::new();
    for cfg in all_configs() {
        let stats = run(&cfg, trace.clone());
        assert_eq!(stats.loads, 2000, "{}", cfg.label());
        cycles.push((cfg.label(), stats.cycles));
    }
    // MALEC must beat Base1ldst on this (merging 4 loads per access).
    let base1 = cycles[0].1;
    let malec = cycles[2].1;
    assert!(
        malec < base1,
        "same-line flood should favour MALEC: {cycles:?}"
    );
}

#[test]
fn page_thrash_never_groups_but_completes() {
    // Every load on a different page: zero grouping benefit, heavy TLB
    // pressure, worst case for the Input Buffer.
    let trace: Vec<TraceInst> = (0..1500)
        .map(|i| TraceInst::Load {
            vaddr: VAddr::new((i % 900) * 4096 + (i * 8) % 4096),
            size: 4,
            addr_dep: None,
        })
        .collect();
    for cfg in all_configs() {
        let stats = run(&cfg, trace.clone());
        assert_eq!(stats.committed, 1500, "{}", cfg.label());
    }
}

#[test]
fn branch_storm_with_load_dependent_conditions() {
    let mut trace = Vec::new();
    for i in 0..500u64 {
        trace.push(TraceInst::Load {
            vaddr: VAddr::new(0x9000 + (i % 64) * 64),
            size: 4,
            addr_dep: None,
        });
        trace.push(TraceInst::Branch {
            mispredicted: i % 3 == 0,
            dep: Some(1),
        });
    }
    for cfg in all_configs() {
        let stats = run(&cfg, trace.clone());
        assert_eq!(stats.committed, 1000, "{}", cfg.label());
        assert_eq!(stats.branches, 500, "{}", cfg.label());
    }
}

#[test]
fn fully_serial_pointer_chain() {
    // Each load's address depends on the previous load: zero ILP. Total
    // cycles must scale with the chain length times the load-to-use
    // latency, for every interface.
    let trace: Vec<TraceInst> = (0..400)
        .map(|i| TraceInst::Load {
            vaddr: VAddr::new(0xB000 + (i % 32) * 64),
            size: 8,
            addr_dep: Some(1),
        })
        .collect();
    for cfg in all_configs() {
        let stats = run(&cfg, trace.clone());
        assert_eq!(stats.committed, 400, "{}", cfg.label());
        assert!(
            stats.cycles >= 400 * 3,
            "{}: serial chain finished impossibly fast ({} cycles)",
            cfg.label(),
            stats.cycles
        );
    }
}

#[test]
fn no_memory_trace_is_pure_frontend() {
    let trace: Vec<TraceInst> = (0..3000)
        .map(|_| TraceInst::Op {
            latency: 1,
            dep: None,
        })
        .collect();
    for cfg in all_configs() {
        let stats = run(&cfg, trace.clone());
        assert_eq!(stats.committed, 3000, "{}", cfg.label());
        assert_eq!(stats.loads + stats.stores, 0);
        // Identical front-ends: cycle counts must match across interfaces.
    }
    let a = run(&SimConfig::base1ldst(), trace.clone());
    let b = run(&SimConfig::malec(), trace);
    assert_eq!(
        a.cycles, b.cycles,
        "non-memory code must be interface-neutral"
    );
}

#[test]
fn wide_malec_beats_narrow_on_parallel_loads() {
    // Four independent same-page loads per "iteration": the Fig. 2a wide
    // parameterization (4 ld AGUs) should finish no slower than the
    // analyzed 3-AGU configuration.
    let trace: Vec<TraceInst> = (0..2000)
        .map(|i| TraceInst::Load {
            vaddr: VAddr::new(0xD000 + (i % 4) * 64 + ((i / 4) % 16) * 8),
            size: 4,
            addr_dep: None,
        })
        .collect();
    let narrow = run(&SimConfig::malec(), trace.clone());
    let wide = run(&SimConfig::malec_wide(), trace);
    assert!(
        wide.cycles <= narrow.cycles,
        "wide {} vs narrow {}",
        wide.cycles,
        narrow.cycles
    );
}

/// Runs a preset scenario under `cfg` through the full simulator.
fn run_scenario(cfg: SimConfig, scenario: &str, insts: u64) -> malec_core::RunSummary {
    let s = preset_named(scenario).unwrap_or_else(|| panic!("unknown preset {scenario}"));
    Simulator::new(cfg)
        .run_source(&ScenarioSource::Scenario(s), insts, 99)
        .expect("generator sources cannot fail")
}

#[test]
fn uwt_coverage_collapses_under_tlb_thrash() {
    // Way determination rides on translation locality: the uWT is coupled
    // to the uTLB, so a page pool far beyond the TLB starves it of usable
    // way info. A cache-friendly benchmark covers most accesses; the
    // thrash scenario must collapse that, while the model keeps running.
    let friendly = Simulator::new(SimConfig::malec()).run(
        &benchmark_named("gzip").expect("gzip exists"),
        20_000,
        99,
    );
    let thrashed = run_scenario(SimConfig::malec(), "tlb_thrash", 20_000);
    assert!(
        friendly.interface.coverage() > 0.7,
        "gzip coverage should be high: {}",
        friendly.interface.coverage()
    );
    assert!(
        thrashed.interface.coverage() < 0.3,
        "TLB thrash must collapse uWT coverage: {}",
        thrashed.interface.coverage()
    );
    assert!(
        thrashed.utlb_miss_rate > 5.0 * friendly.utlb_miss_rate.max(0.01),
        "thrash uTLB miss rate {} vs gzip {}",
        thrashed.utlb_miss_rate,
        friendly.utlb_miss_rate
    );
}

#[test]
fn merge_rate_rises_under_same_line_bursts() {
    // The store-burst pattern reads each just-written line repeatedly, so
    // MALEC's load merging should service a large share of loads from a
    // concurrent same-line access; the bank-conflict pattern never touches
    // the same line twice in a row and is the natural control.
    let bursty = run_scenario(SimConfig::malec(), "store_burst", 20_000);
    let strided = run_scenario(SimConfig::malec(), "bank_conflict", 20_000);
    assert!(
        bursty.interface.merge_ratio() > 0.2,
        "same-line bursts must merge: {}",
        bursty.interface.merge_ratio()
    );
    assert!(
        bursty.interface.merge_ratio() > 4.0 * strided.interface.merge_ratio().max(0.001),
        "burst merge ratio {} vs bank-conflict {}",
        bursty.interface.merge_ratio(),
        strided.interface.merge_ratio()
    );
}

#[test]
fn store_bursts_never_deadlock_any_interface() {
    // SB(24) → MB(4) draining under sustained same-line store pressure is
    // where a lost wakeup or a full-buffer livelock would hide. Burst
    // length is pushed past the store buffer's 24 entries with no gap at
    // all; the core panics after 100k commit-less cycles, so completion IS
    // the proof of forward progress.
    use malec_trace::scenario::{Scenario, SegmentKind, StoreBurstParams};
    let flood = Scenario::single(
        "store_flood",
        SegmentKind::StoreBurst(StoreBurstParams {
            burst: 32,
            loads_after: 2,
            lines_back: 8,
            gap: 0,
            pages: 16,
        }),
    );
    for cfg in all_configs() {
        let label = cfg.label();
        let s = Simulator::new(cfg)
            .run_source(&ScenarioSource::Scenario(flood.clone()), 12_000, 99)
            .expect("generator sources cannot fail");
        assert_eq!(s.core.committed, 12_000, "{label}");
        assert!(s.core.stores > 9_000, "{label}: flood is store-dominated");
    }
    // The preset (balanced) variant must also complete everywhere.
    for cfg in all_configs() {
        let label = cfg.label();
        let s = run_scenario(cfg, "store_burst", 12_000);
        assert_eq!(s.core.committed, 12_000, "{label}");
        assert!(s.core.stores > 2_000, "{label}: bursts persist");
    }
}

#[test]
fn bank_conflicts_serialize_the_single_ported_baseline() {
    // Stride-4-lines loads all land in one bank. Base2ld1st's extra read
    // port cannot help inside one bank either, but MALEC's grouping can
    // still batch same-page accesses; nobody may deadlock or lose ops.
    for cfg in all_configs() {
        let label = cfg.label();
        let s = run_scenario(cfg, "bank_conflict", 10_000);
        assert_eq!(s.core.committed, 10_000, "{label}");
    }
}

#[test]
fn mixed_sizes_and_subblock_crossers() {
    // 16-byte accesses that straddle sub-block boundaries.
    let trace: Vec<TraceInst> = (0..800)
        .map(|i| {
            if i % 2 == 0 {
                TraceInst::Load {
                    vaddr: VAddr::new(0xF008 + (i % 16) * 24),
                    size: 16,
                    addr_dep: None,
                }
            } else {
                TraceInst::Store {
                    vaddr: VAddr::new(0xF808 + (i % 16) * 24),
                    size: 16,
                    data_dep: None,
                }
            }
        })
        .collect();
    for cfg in all_configs() {
        let stats = run(&cfg, trace.clone());
        assert_eq!(stats.committed, 800, "{}", cfg.label());
    }
}
