//! The adversarial workload: mcf-style pointer chasing over a huge working
//! set. Way prediction degrades (Sec. VI-D), but load merging across a
//! node's field accesses still cuts the effective number of cache accesses —
//! the mechanism behind the paper's surprising mcf dynamic-energy result.
//!
//! ```sh
//! cargo run -p malec-harness --example pointer_chase --release
//! ```

use malec_core::Simulator;
use malec_trace::all_benchmarks;
use malec_types::SimConfig;

fn main() {
    let insts = 60_000;
    let mcf = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "mcf")
        .expect("mcf profile exists");

    let base1 = Simulator::new(SimConfig::base1ldst()).run(&mcf, insts, 5);
    let malec = Simulator::new(SimConfig::malec()).run(&mcf, insts, 5);
    let malec_nomerge =
        Simulator::new(SimConfig::malec().with_load_merging(false)).run(&mcf, insts, 5);

    println!("mcf-style pointer chasing, {} instructions\n", insts);
    println!(
        "L1 miss rate:            {:5.1}%  (the paper's ~7x-average outlier)",
        100.0 * malec.l1_miss_rate
    );
    println!(
        "way-table coverage:      {:5.1}%  (streaming hurts way prediction)",
        100.0 * malec.interface.coverage()
    );
    println!(
        "merged loads:            {:5.1}%  (fields of one node share a line)",
        100.0 * malec.interface.merge_ratio()
    );
    println!();
    println!(
        "dynamic energy vs Base1ldst:   with merging {:6.1}%   without {:6.1}%",
        100.0 * malec.energy.dynamic / base1.energy.dynamic,
        100.0 * malec_nomerge.energy.dynamic / base1.energy.dynamic,
    );
    println!(
        "execution time vs Base1ldst:   with merging {:6.1}%   without {:6.1}%",
        100.0 * malec.core.cycles as f64 / base1.core.cycles as f64,
        100.0 * malec_nomerge.core.cycles as f64 / base1.core.cycles as f64,
    );
    println!(
        "\nEvery avoided duplicate access on mcf is an avoided *miss-path* access,\n\
         which is why sharing L1 data among same-line loads matters so much here\n\
         (the paper reports -51% dynamic energy with merging vs +5% without)."
    );
}
