//! Quickstart: simulate one benchmark under the three Table I interfaces and
//! print the headline comparison the paper is about.
//!
//! ```sh
//! cargo run -p malec-harness --example quickstart --release
//! ```

use malec_core::Simulator;
use malec_trace::all_benchmarks;
use malec_types::SimConfig;

fn main() {
    let profile = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "gzip")
        .expect("gzip profile exists");
    let insts = 60_000;

    println!(
        "simulating {} instructions of `{}` …\n",
        insts, profile.name
    );
    let base1 = Simulator::new(SimConfig::base1ldst()).run(&profile, insts, 1);
    let base2 = Simulator::new(SimConfig::base2ld1st()).run(&profile, insts, 1);
    let malec = Simulator::new(SimConfig::malec()).run(&profile, insts, 1);

    println!(
        "{:<12} {:>9} {:>6} {:>12} {:>12} {:>10}",
        "config", "cycles", "IPC", "time vs B1", "energy vs B1", "coverage"
    );
    for run in [&base1, &base2, &malec] {
        println!(
            "{:<12} {:>9} {:>6.2} {:>11.1}% {:>11.1}% {:>9.1}%",
            run.config,
            run.core.cycles,
            run.core.ipc(),
            100.0 * run.core.cycles as f64 / base1.core.cycles as f64,
            100.0 * run.total_energy() / base1.total_energy(),
            100.0 * run.interface.coverage(),
        );
    }

    println!(
        "\nMALEC serviced {} page groups (mean size {:.2} loads), merged {} loads \
         ({:.1}% of serviced loads),",
        malec.interface.groups,
        malec.interface.mean_group_size(),
        malec.interface.merged_loads,
        100.0 * malec.interface.merge_ratio(),
    );
    println!(
        "and performed {} address translations vs {} for Base2ld1st.",
        malec.interface.translations, base2.interface.translations
    );
}
