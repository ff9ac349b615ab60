//! Property-based integration tests over the full simulator stack.

use proptest::prelude::*;

use malec_core::Simulator;
use malec_trace::all_benchmarks;
use malec_types::addr::{LineAddr, VPageId, WayId};
use malec_types::SimConfig;

use malec_core::waytable::WaySlots;
use malec_mem::hierarchy::MemoryHierarchy;
use malec_mem::tlb::PageTable;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulator must complete and conserve instruction counts for any
    /// benchmark and any small instruction budget.
    #[test]
    fn prop_simulation_conserves_instructions(
        bench_idx in 0usize..38,
        insts in 200u64..1_500,
        seed in 0u64..1_000,
    ) {
        let profile = &all_benchmarks()[bench_idx];
        let s = Simulator::new(SimConfig::malec()).run(profile, insts, seed);
        prop_assert_eq!(s.core.committed, insts);
        prop_assert_eq!(
            s.core.committed,
            s.core.loads + s.core.stores + s.core.branches
                + (s.core.committed - s.core.loads - s.core.stores - s.core.branches)
        );
        prop_assert!(s.core.cycles >= insts / 6, "IPC cannot exceed dispatch width");
    }

    /// Way-table contents always agree with actual cache residency: a
    /// predicted way must match where the hierarchy put the line.
    #[test]
    fn prop_waytable_residency_agreement(lines in proptest::collection::vec(0u64..4096, 1..200)) {
        let cfg = SimConfig::malec();
        let mut mem = MemoryHierarchy::for_config(&cfg);
        let mut slots: std::collections::HashMap<u64, WaySlots> = std::collections::HashMap::new();
        for raw in lines {
            let line = LineAddr::new(raw);
            let page = raw / 64;
            let lip = (raw % 64) as u8;
            let exclusion = WaySlots::new(64, 4, 4).excluded_way(lip);
            let out = mem.resolve_line(line, Some(exclusion));
            let entry = slots.entry(page).or_insert_with(|| WaySlots::new(64, 4, 4));
            if let Some(fill) = out.fill {
                if let Some(ev) = fill.evicted {
                    let epage = ev.raw() / 64;
                    let elip = (ev.raw() % 64) as u8;
                    if let Some(e) = slots.get_mut(&epage) {
                        e.clear(elip);
                    }
                    // Entry may have been replaced; re-borrow ours.
                }
                slots
                    .entry(page)
                    .or_insert_with(|| WaySlots::new(64, 4, 4))
                    .set(lip, fill.way);
            } else if let Some(way) = entry.get(lip) {
                prop_assert_eq!(way, out.way, "stale way info for line {}", raw);
            }
        }
        // Final check: every valid slot matches the cache's actual placement.
        for (page, entry) in &slots {
            for lip in 0..64u8 {
                if let Some(way) = entry.get(lip) {
                    let line = LineAddr::new(page * 64 + u64::from(lip));
                    if let Some(actual) = mem.probe_l1(line) {
                        prop_assert_eq!(way, actual);
                    }
                }
            }
        }
    }

    /// Virtual→physical translation is a function (same input, same output)
    /// and two different interfaces see identical physical placements.
    #[test]
    fn prop_translation_is_stable(vpages in proptest::collection::vec(0u64..(1 << 20), 1..64)) {
        let pt = PageTable;
        for v in vpages {
            let a = pt.translate(VPageId::new(v));
            let b = pt.translate(VPageId::new(v));
            prop_assert_eq!(a, b);
        }
    }

    /// Excluded ways rotate over line groups such that within any 16
    /// consecutive lines every way is excluded exactly 4 times (the paper's
    /// bank-aligned rotation).
    #[test]
    fn prop_excluded_way_rotation_is_balanced(start in 0u8..48) {
        let slots = WaySlots::new(64, 4, 4);
        let mut counts = [0u32; 4];
        for l in start..start + 16 {
            counts[slots.excluded_way(l).0 as usize] += 1;
        }
        prop_assert_eq!(counts, [4, 4, 4, 4]);
    }

    /// Energy accounting is additive: the counters of two half-runs priced
    /// separately equal the price of their sum.
    #[test]
    fn prop_energy_pricing_is_linear(
        a_reads in 0u64..1000, a_tags in 0u64..1000,
        b_reads in 0u64..1000, b_tags in 0u64..1000,
        cycles_a in 0u64..10_000, cycles_b in 0u64..10_000,
    ) {
        use malec_energy::{EnergyCounters, EnergyModel};
        let model = EnergyModel::for_config(&SimConfig::malec());
        let ca = EnergyCounters {
            l1_data_subblock_reads: a_reads,
            l1_tag_bank_reads: a_tags,
            ..Default::default()
        };
        let cb = EnergyCounters {
            l1_data_subblock_reads: b_reads,
            l1_tag_bank_reads: b_tags,
            ..Default::default()
        };
        let sum = EnergyCounters {
            l1_data_subblock_reads: a_reads + b_reads,
            l1_tag_bank_reads: a_tags + b_tags,
            ..Default::default()
        };
        let separate = model.evaluate(&ca, cycles_a).total() + model.evaluate(&cb, cycles_b).total();
        let combined = model.evaluate(&sum, cycles_a + cycles_b).total();
        prop_assert!((separate - combined).abs() < 1e-6 * combined.max(1.0));
    }
}

#[test]
fn way_id_bounds_are_respected_everywhere() {
    // Deterministic complement to the proptests: exhaustive check of the
    // 2-bit encoding over every line and way.
    let mut slots = WaySlots::new(64, 4, 4);
    for l in 0..64u8 {
        for w in 0..4u8 {
            let representable = slots.set(l, WayId(w));
            match slots.get(l) {
                Some(got) => {
                    assert!(representable);
                    assert_eq!(got, WayId(w));
                    assert!(got.0 < 4);
                }
                None => assert!(!representable),
            }
        }
    }
}
