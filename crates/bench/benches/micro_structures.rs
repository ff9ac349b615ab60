//! Micro-benchmarks of the simulator's hot structures — these measure
//! *simulator throughput* (not paper data): way-table updates, WDU
//! lookups, cache-bank fills, uTLB hits, TLB walk inserts and installs
//! after a miss, the completion ring, MSHR fill-table probes, input-buffer
//! selection and a short end-to-end simulation. Each is timed by the
//! calibrated wall-clock loop of [`malec_bench::timing`] and reported as
//! mean ns/iteration.
//!
//! The `cells` group then times every cell of perfbench's two simulator
//! plans (`sim_profiles`: 8 profiles × 3 Table I configs; `sim_adversarial`:
//! 5 presets × 2 configs plus 5 paired compares) as best-of-3 ms, with each
//! plan's pass total. Run the bench on two builds to compare them cell by
//! cell: a best-of-N per cell shrugs off most of a shared host's noise.

use std::time::{Duration, Instant};

use malec_bench::goldens::{
    scenario_configs, BENCH_BENCHMARKS, COMPARE_INSTS, COMPARE_SEEDS, SCENARIO_INSTS,
};
use malec_bench::timing::mean_ns_per_iter;
use malec_bench::{DEFAULT_INSTS, DEFAULT_SEED};
use malec_core::input_buffer::InputBuffer;
use malec_core::pending::{CompletionQueue, FillTable};
use malec_core::waytable::WaySlots;
use malec_core::wdu::Wdu;
use malec_core::{ScenarioSource, Simulator};
use malec_mem::bank::CacheBank;
use malec_mem::tlb::{MicroTlb, PageTable, Tlb};
use malec_trace::scenario::presets;
use malec_trace::{all_benchmarks, benchmark_named, replicate_seed, WorkloadGenerator};
use malec_types::addr::{LineAddr, VAddr, VPageId, WayId};
use malec_types::op::{MemOp, OpId};
use malec_types::SimConfig;

/// Measurement window per benchmark.
const WINDOW: Duration = Duration::from_millis(100);

/// Times `f` over [`WINDOW`] and prints its mean ns/iteration under `id`.
fn bench<R>(id: &str, f: impl FnMut() -> R) {
    println!("{id:<40} {:>12.1} ns/iter", mean_ns_per_iter(WINDOW, f));
}

/// Runs every `(source, insts, seed)` run of one cell under `config` three
/// times, prints the fastest wall time under `id` and returns it in ms.
fn cell(id: &str, config: &SimConfig, runs: &[(ScenarioSource, u64, u64)]) -> f64 {
    let sim = Simulator::new(config.clone());
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            for (source, insts, seed) in runs {
                let summary = sim.run_source(source, *insts, *seed);
                assert!(summary.is_ok(), "{id}: {summary:?}");
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    println!("{id:<48} {best:>9.2} ms");
    best
}

/// The `cells` group: both simulator plans of perfbench, cell by cell.
fn cells() {
    println!("group: cells (best of 3, seed {DEFAULT_SEED})");
    let table_i = [
        SimConfig::base1ldst(),
        SimConfig::base2ld1st(),
        SimConfig::malec(),
    ];
    let mut pass = 0.0;
    for name in BENCH_BENCHMARKS {
        let profile = benchmark_named(name).expect("bench profile exists");
        for config in &table_i {
            let runs = [(
                ScenarioSource::Profile(profile.clone()),
                DEFAULT_INSTS,
                DEFAULT_SEED,
            )];
            pass += cell(
                &format!("profiles/{name}/{}", config.label()),
                config,
                &runs,
            );
        }
    }
    println!("{:<48} {pass:>9.2} ms", "profiles/pass");

    let mut pass = 0.0;
    for scenario in presets() {
        for config in scenario_configs() {
            let id = format!("adversarial/{}/{}", scenario.name, config.label());
            let runs = [(
                ScenarioSource::Scenario(scenario.clone()),
                SCENARIO_INSTS,
                DEFAULT_SEED,
            )];
            pass += cell(&id, &config, &runs);
        }
    }
    for scenario in presets() {
        let runs: Vec<_> = (0..COMPARE_SEEDS)
            .map(|r| {
                let source = ScenarioSource::Scenario(scenario.clone());
                (source, COMPARE_INSTS, replicate_seed(DEFAULT_SEED, r))
            })
            .collect();
        for config in [SimConfig::base1ldst(), SimConfig::malec()] {
            let id = format!("adversarial/compare/{}/{}", scenario.name, config.label());
            pass += cell(&id, &config, &runs);
        }
    }
    println!("{:<48} {pass:>9.2} ms", "adversarial/pass");
}

fn main() {
    let mut slots = WaySlots::new(64, 4, 4);
    let mut i = 0u8;
    bench("way_slots_set_get", || {
        i = (i + 1) % 64;
        slots.set(i, WayId(i % 4));
        slots.get(i)
    });

    let mut wdu = Wdu::new(16);
    let mut i = 0u64;
    bench("wdu16_lookup_record", || {
        i = (i + 1) % 64;
        let line = LineAddr::new(i);
        let way = wdu.lookup(line);
        if way.is_none() {
            wdu.record(line, WayId((i % 4) as u8));
        }
        way
    });

    let mut bank = CacheBank::new(32, 4);
    let mut i = 0u64;
    bench("cache_bank_fill_lookup", || {
        i += 1;
        let set = (i % 32) as u32;
        bank.fill(set, i % 512, None);
        bank.lookup(set, i % 512)
    });

    // A full uTLB hit on every lookup, cycling through its pages.
    let pt = PageTable::default();
    let mut utlb = MicroTlb::new(16);
    for v in 0..16 {
        let vpage = VPageId::new(v);
        utlb.insert(vpage, pt.translate(vpage));
    }
    let mut i = 0u64;
    bench("utlb_lookup_hit", || {
        i = (i + 1) % 16;
        utlb.lookup(VPageId::new(i))
    });

    // A page-table walk into a full TLB: every page is fresh, so each
    // insert picks a random victim.
    let mut tlb = Tlb::new(64, 1);
    for v in 0..64 {
        let vpage = VPageId::new(v);
        tlb.insert(vpage, pt.translate(vpage));
    }
    let mut v = 64u64;
    bench("tlb_walk_insert", || {
        v += 1;
        let vpage = VPageId::new(v);
        tlb.insert(vpage, pt.translate(vpage))
    });

    // A walk's TLB half: the lookup misses, then the page installs
    // without a second search, into a full TLB (a random victim).
    let mut v = 1 << 20;
    bench("tlb_install_after_miss", || {
        v += 1;
        let vpage = VPageId::new(v);
        match tlb.lookup(vpage) {
            Some((slot, _)) => slot,
            None => tlb.install(vpage, pt.translate(vpage)).slot,
        }
    });

    // One tick of the completion ring at Table II's 88-cycle horizon:
    // deliver this cycle's loads, push an L1 hit, and every 8th cycle a
    // DRAM miss (about 10 loads in flight).
    let mut ring = CompletionQueue::new(88);
    let mut done = Vec::with_capacity(8);
    let (mut cycle, mut id) = (0u64, 0u64);
    bench("completion_queue_push_drain", || {
        cycle += 1;
        done.clear();
        ring.drain_due(cycle, &mut done);
        id += 1;
        ring.push(cycle + 2, OpId(id));
        if cycle % 8 == 0 {
            id += 1;
            ring.push(cycle + 68, OpId(id));
        }
        done.len()
    });

    // One tick of the MSHR view: prune, note a DRAM fill every 8th cycle
    // (about 8 in flight), probe the line whose fill was noted last.
    let mut fills = FillTable::with_capacity(128);
    let mut cycle = 0u64;
    bench("fill_table_probe", || {
        cycle += 1;
        fills.prune(cycle);
        let last = cycle & !7;
        if cycle == last {
            fills.note_fill(last % 96, cycle + 66);
        }
        fills.ready_after(last % 96, cycle)
    });

    let mut ib = InputBuffer::new(7);
    for k in 0..6u64 {
        let addr = 0x1000 + (k % 3) * 0x1000 + k * 8;
        ib.push_load(
            MemOp::load(OpId(k), VAddr::new(addr), 4),
            VPageId::new(addr >> 12),
            k,
        );
    }
    let mut members = Vec::with_capacity(8);
    bench("input_buffer_select_into", || {
        ib.select_into(&mut members).map(|g| g.compares)
    });

    let profile = all_benchmarks().remove(0);
    bench("workload_generation_1k", || {
        WorkloadGenerator::new(&profile, 1)
            .take(1000)
            .filter(|i| i.is_mem())
            .count()
    });

    println!("group: end_to_end_5k_insts");
    for cfg in [SimConfig::base1ldst(), SimConfig::malec()] {
        let label = cfg.label();
        let sim = Simulator::new(cfg);
        bench(&label, || sim.run(&profile, 5_000, 1).core.cycles);
    }

    cells();
}
