//! Cross-crate integration tests: full simulations spanning the trace
//! generator, the out-of-order core, all three interfaces, the memory
//! hierarchy and the energy model.

use malec_core::Simulator;
use malec_trace::{all_benchmarks, BenchmarkProfile};
use malec_types::{InterfaceKind, LatencyVariant, SimConfig, WayDetermination};

fn profile(name: &str) -> BenchmarkProfile {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

#[test]
fn every_figure4_config_completes_every_suite_representative() {
    for bench in ["gzip", "swim", "cjpeg"] {
        let p = profile(bench);
        for cfg in SimConfig::figure4_set() {
            let s = Simulator::new(cfg).run(&p, 4_000, 11);
            assert_eq!(s.core.committed, 4_000, "{bench}/{}", s.config);
            assert!(s.core.cycles > 0);
            assert!(s.energy.dynamic > 0.0);
        }
    }
}

#[test]
fn determinism_across_full_stack() {
    let p = profile("vortex");
    for cfg in [
        SimConfig::base1ldst(),
        SimConfig::base2ld1st(),
        SimConfig::malec(),
    ] {
        let a = Simulator::new(cfg.clone()).run(&p, 6_000, 17);
        let b = Simulator::new(cfg).run(&p, 6_000, 17);
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.l1_miss_rate, b.l1_miss_rate);
    }
}

#[test]
fn load_store_accounting_is_conserved() {
    let p = profile("parser");
    let s = Simulator::new(SimConfig::malec()).run(&p, 10_000, 3);
    // Every committed load was serviced by the interface.
    assert_eq!(s.core.loads, s.interface.loads_serviced);
    // Every committed store entered the store buffer.
    assert_eq!(s.core.stores, s.interface.stores_accepted);
    // Merged loads are a subset of serviced loads.
    assert!(s.interface.merged_loads <= s.interface.loads_serviced);
    // Group loads equal serviced loads (every MALEC load goes via a group).
    assert_eq!(s.interface.group_loads, s.interface.loads_serviced);
}

#[test]
fn way_determination_schemes_do_not_change_timing_relevant_residency() {
    // Coverage differs wildly between schemes, but the L1 *miss rate* must
    // stay essentially identical (way determination is an energy feature;
    // only the fill restriction may move it marginally).
    let p = profile("gzip");
    let wt = Simulator::new(SimConfig::malec()).run(&p, 15_000, 3);
    let wdu = Simulator::new(SimConfig::malec().with_way_determination(WayDetermination::Wdu(16)))
        .run(&p, 15_000, 3);
    assert!(
        (wt.l1_miss_rate - wdu.l1_miss_rate).abs() < 0.02,
        "wt {} vs wdu {}",
        wt.l1_miss_rate,
        wdu.l1_miss_rate
    );
    assert!(wt.interface.coverage() > wdu.interface.coverage());
}

#[test]
fn latency_variants_order_execution_time() {
    let p = profile("gap");
    let fast = Simulator::new(SimConfig::base2ld1st().with_latency(LatencyVariant::OneCycle))
        .run(&p, 20_000, 3);
    let mid = Simulator::new(SimConfig::base2ld1st()).run(&p, 20_000, 3);
    assert!(
        fast.core.cycles < mid.core.cycles,
        "1-cycle L1 must beat 2-cycle: {} vs {}",
        fast.core.cycles,
        mid.core.cycles
    );
    let m2 = Simulator::new(SimConfig::malec()).run(&p, 20_000, 3);
    let m3 = Simulator::new(SimConfig::malec().with_latency(LatencyVariant::ThreeCycle))
        .run(&p, 20_000, 3);
    assert!(
        m2.core.cycles < m3.core.cycles,
        "2-cycle MALEC must beat 3-cycle: {} vs {}",
        m2.core.cycles,
        m3.core.cycles
    );
}

#[test]
fn interface_kind_dispatch_matches_config() {
    let s = Simulator::new(SimConfig::malec());
    assert_eq!(s.config().interface, InterfaceKind::Malec);
    let p = profile("eon");
    let run = s.run(&p, 3_000, 1);
    assert!(run.interface.groups > 0, "MALEC must form page groups");
    let base = Simulator::new(SimConfig::base1ldst()).run(&p, 3_000, 1);
    assert_eq!(base.interface.groups, 0, "baselines have no page groups");
}

#[test]
fn energy_counters_are_internally_consistent() {
    let p = profile("swim");
    let s = Simulator::new(SimConfig::malec()).run(&p, 10_000, 7);
    let c = &s.counters;
    // Reduced accesses never touch the tag arrays: tag reads must not
    // exceed conventional accesses (+ MBE writes which check tags).
    assert!(c.l1_tag_bank_reads <= s.interface.conventional_accesses + s.interface.mbe_writes);
    // Each serviced group does exactly one uTLB lookup; stores may add more.
    assert!(c.utlb_lookups >= s.interface.groups);
    // Way-table reads happen at most once per serviced group; MBE-only
    // groups (no loads) also evaluate the entry once.
    assert!(c.uwt_reads <= s.interface.groups + s.interface.mbe_writes);
    // The breakdown's structure list covers the totals.
    let dyn_sum: f64 = s.energy.structures.iter().map(|x| x.dynamic).sum();
    assert!((dyn_sum - s.energy.dynamic).abs() < 1e-6 * s.energy.dynamic.max(1.0));
}

#[test]
fn all_38_benchmarks_run_under_malec() {
    for p in all_benchmarks() {
        let s = Simulator::new(SimConfig::malec()).run(&p, 1_500, 1);
        assert_eq!(s.core.committed, 1_500, "{}", p.name);
        assert!(s.core.ipc() > 0.05, "{}: ipc {}", p.name, s.core.ipc());
    }
}
