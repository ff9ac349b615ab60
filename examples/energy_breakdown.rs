//! Per-structure energy dissection: where the L1 data memory subsystem's
//! energy actually goes under each interface, for one benchmark.
//!
//! ```sh
//! cargo run -p malec-harness --example energy_breakdown --release
//! ```

use malec_core::Simulator;
use malec_trace::all_benchmarks;
use malec_types::SimConfig;

fn main() {
    let profile = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "equake")
        .expect("equake profile exists");
    let insts = 60_000;

    for cfg in [
        SimConfig::base1ldst(),
        SimConfig::base2ld1st(),
        SimConfig::malec(),
    ] {
        let run = Simulator::new(cfg).run(&profile, insts, 1);
        println!(
            "\n=== {} on `{}` — total {:.0} units ({:.0} dynamic + {:.0} leakage) ===",
            run.config,
            profile.name,
            run.total_energy(),
            run.energy.dynamic,
            run.energy.leakage
        );
        println!(
            "{:<16} {:>12} {:>12} {:>8}",
            "structure", "dynamic", "leakage", "share"
        );
        for s in &run.energy.structures {
            println!(
                "{:<16} {:>12.0} {:>12.0} {:>7.1}%",
                s.name,
                s.dynamic,
                s.leakage,
                100.0 * s.total() / run.total_energy()
            );
        }
        println!(
            "excluded (SB/MB/IB lookups, paper Sec. VI-A): {:.0} dynamic units",
            run.energy.excluded_dynamic
        );
    }
    println!(
        "\nNote how Base2ld1st pays the multi-port premium on every structure,\n\
         while MALEC adds small uWT/WT arrays but slashes tag and data activity."
    );
}
