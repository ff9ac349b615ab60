//! Micro-benchmarks of the simulator's hot structures — these measure
//! *simulator throughput* (not paper data): way-table updates, WDU
//! lookups, cache-bank fills, uTLB hits, TLB walk inserts, MSHR fill-table
//! probes, input-buffer selection and a short end-to-end simulation. Each
//! is timed by the calibrated wall-clock loop of [`malec_bench::timing`]
//! and reported as mean ns/iteration.

use std::time::Duration;

use malec_bench::timing::mean_ns_per_iter;
use malec_core::input_buffer::InputBuffer;
use malec_core::pending::FillTable;
use malec_core::waytable::WaySlots;
use malec_core::wdu::Wdu;
use malec_core::Simulator;
use malec_mem::bank::CacheBank;
use malec_mem::tlb::{MicroTlb, PageTable, Tlb};
use malec_trace::{all_benchmarks, WorkloadGenerator};
use malec_types::addr::{LineAddr, VAddr, VPageId, WayId};
use malec_types::op::{MemOp, OpId};
use malec_types::SimConfig;

/// Measurement window per benchmark.
const WINDOW: Duration = Duration::from_millis(100);

/// Times `f` over [`WINDOW`] and prints its mean ns/iteration under `id`.
fn bench<R>(id: &str, f: impl FnMut() -> R) {
    println!("{id:<40} {:>12.1} ns/iter", mean_ns_per_iter(WINDOW, f));
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
}
