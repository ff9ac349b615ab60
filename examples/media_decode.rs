//! The workload MALEC's introduction motivates: a media-decode kernel with
//! frequent, highly structured memory accesses (djpeg-style). Shows how
//! page-based grouping turns the structure into parallelism and how the
//! L1-latency variants shift the result (Fig. 4 variants).
//!
//! ```sh
//! cargo run -p malec-harness --example media_decode --release
//! ```

use malec_core::Simulator;
use malec_trace::{benchmarks_of, Suite};
use malec_types::{LatencyVariant, SimConfig};

fn main() {
    let insts = 50_000;
    println!(
        "MediaBench2-style decode kernels, {} instructions each\n",
        insts
    );
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "benchmark", "Base1ldst", "Base2ld1st", "MALEC", "MALEC_3cyc", "merge[%]", "cov[%]"
    );
    for profile in benchmarks_of(Suite::MediaBench2)
        .into_iter()
        .filter(|b| b.name.ends_with("dec"))
    {
        let base1 = Simulator::new(SimConfig::base1ldst()).run(&profile, insts, 3);
        let base2 = Simulator::new(SimConfig::base2ld1st()).run(&profile, insts, 3);
        let malec = Simulator::new(SimConfig::malec()).run(&profile, insts, 3);
        let malec3 = Simulator::new(SimConfig::malec().with_latency(LatencyVariant::ThreeCycle))
            .run(&profile, insts, 3);
        let pct = |c: u64| 100.0 * c as f64 / base1.core.cycles as f64;
        println!(
            "{:<12} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}% {:>8.1} {:>7.1}",
            profile.name,
            pct(base1.core.cycles),
            pct(base2.core.cycles),
            pct(malec.core.cycles),
            pct(malec3.core.cycles),
            100.0 * malec.interface.merge_ratio(),
            100.0 * malec.interface.coverage(),
        );
    }
    println!(
        "\nStructured decoder loops stride through image rows, so consecutive\n\
         loads share pages and lines: MALEC groups them behind one translation\n\
         and merges same-line loads — the paper reports ~30% speedups for\n\
         djpeg/h263dec and a 21% average improvement for MediaBench2."
    );
}
