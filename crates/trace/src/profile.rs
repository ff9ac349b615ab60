//! Benchmark profiles: one calibrated parameter set per benchmark named in
//! the paper's Fig. 4.
//!
//! Each profile captures the axes MALEC is sensitive to (the crate docs say
//! why matching them is enough):
//! how much of the instruction stream references memory, how references
//! cluster into pages and lines, how large the working set is (miss-rate
//! class), and how serialized the stream is (dependencies limit the Input
//! Buffer's re-ordering headroom). Values are calibrated to the per-benchmark
//! observations in Sec. III and Sec. VI of the paper: mcf's ≈7× average miss
//! rate, art's streaming behaviour, gap's 37 % load fraction and dependency
//! chains, mgrid's line-stride accesses (merge contribution < 2 %),
//! djpeg/h263dec's high structured locality, and the suite-level averages
//! (memory instructions ≈ 45 % / 40 % / 37 % for INT / FP / MB2; load:store
//! ≈ 2:1; 70 % of loads directly followed by a same-page load).

use malec_types::stable::fnv1a64;
use serde::{Deserialize, Serialize};

/// Benchmark suite, for grouping and geometric means.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Suite {
    /// SPEC CPU2000 integer.
    SpecInt,
    /// SPEC CPU2000 floating point.
    SpecFp,
    /// MediaBench2.
    MediaBench2,
}

impl Suite {
    /// Display name matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            Suite::SpecInt => "SPEC-INT",
            Suite::SpecFp => "SPEC-FP",
            Suite::MediaBench2 => "MediaBench2",
        }
    }

    /// All suites, in the paper's figure order.
    pub const fn all() -> [Suite; 3] {
        [Suite::SpecInt, Suite::SpecFp, Suite::MediaBench2]
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The calibrated generator parameters for one benchmark.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Benchmark name as printed in Fig. 4.
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Fraction of instructions that reference memory.
    pub mem_fraction: f64,
    /// Loads as a share of memory references (≈ 2/3 per Sec. III).
    pub load_share: f64,
    /// Number of concurrently active access streams.
    pub streams: u8,
    /// Probability that the next memory reference switches streams.
    pub stream_switch_prob: f64,
    /// Mean accesses a stream makes to one page before moving on.
    pub page_run_mean: f64,
    /// Access stride in bytes within a page; 0 ⇒ random offsets.
    pub stride_bytes: u32,
    /// Working-set size in 4 KiB pages (drives the miss-rate class).
    pub working_set_pages: u32,
    /// Probability a stream's next page is re-used from the recent hot set
    /// (vs drawn fresh from the whole working set).
    pub page_reuse_prob: f64,
    /// Probability a load's address depends on a recent load
    /// (pointer chasing; serializes the stream).
    pub addr_dep_prob: f64,
    /// Probability a non-memory op depends on a recent producer.
    pub dep_prob: f64,
    /// Fraction of non-memory ops with a long (3-cycle) latency.
    pub long_op_fraction: f64,
    /// Fraction of non-memory instructions that are branches.
    pub branch_fraction: f64,
    /// Misprediction rate of those branches.
    pub mispredict_rate: f64,
}

impl BenchmarkProfile {
    /// Virtual-address region base for this benchmark (keeps benchmarks in
    /// disjoint parts of the 32-bit space, like separate processes).
    pub fn vaddr_base(&self) -> u64 {
        let h = fnv1a64(self.name.bytes());
        // Keep within a 32-bit space, 256 MiB-aligned regions.
        (h % 14) << 28
    }

    /// Loads as a fraction of all instructions.
    pub fn load_fraction(&self) -> f64 {
        self.mem_fraction * self.load_share
    }
}

fn int(name: &'static str) -> BenchmarkProfile {
    BenchmarkProfile {
        name,
        suite: Suite::SpecInt,
        mem_fraction: 0.45,
        load_share: 0.67,
        streams: 3,
        stream_switch_prob: 0.48,
        page_run_mean: 5.0,
        stride_bytes: 8,
        working_set_pages: 256,
        page_reuse_prob: 0.75,
        addr_dep_prob: 0.50,
        dep_prob: 0.30,
        long_op_fraction: 0.10,
        branch_fraction: 0.18,
        mispredict_rate: 0.07,
    }
}

fn fp(name: &'static str) -> BenchmarkProfile {
    BenchmarkProfile {
        name,
        suite: Suite::SpecFp,
        mem_fraction: 0.40,
        load_share: 0.68,
        streams: 3,
        stream_switch_prob: 0.38,
        page_run_mean: 9.0,
        stride_bytes: 8,
        working_set_pages: 448,
        page_reuse_prob: 0.7,
        addr_dep_prob: 0.25,
        dep_prob: 0.18,
        long_op_fraction: 0.35,
        branch_fraction: 0.08,
        mispredict_rate: 0.02,
    }
}

fn mb2(name: &'static str) -> BenchmarkProfile {
    BenchmarkProfile {
        name,
        suite: Suite::MediaBench2,
        mem_fraction: 0.37,
        load_share: 0.67,
        streams: 2,
        stream_switch_prob: 0.32,
        page_run_mean: 13.0,
        stride_bytes: 4,
        working_set_pages: 96,
        page_reuse_prob: 0.85,
        addr_dep_prob: 0.25,
        dep_prob: 0.22,
        long_op_fraction: 0.20,
        branch_fraction: 0.08,
        mispredict_rate: 0.02,
    }
}

/// All 38 benchmark profiles, in the paper's Fig. 4 order
/// (12 SPEC-INT, 14 SPEC-FP, 12 MediaBench2).
#[allow(clippy::vec_init_then_push)] // one push per profile reads best
pub fn all_benchmarks() -> Vec<BenchmarkProfile> {
    let mut v = Vec::with_capacity(38);

    // --- SPEC-INT ---
    v.push(BenchmarkProfile {
        page_run_mean: 9.0,
        stride_bytes: 4,
        working_set_pages: 128,
        streams: 2,
        stream_switch_prob: 0.40,
        ..int("gzip")
    });
    v.push(BenchmarkProfile {
        working_set_pages: 288,
        page_run_mean: 4.0,
        ..int("vpr")
    });
    v.push(BenchmarkProfile {
        streams: 4,
        stride_bytes: 0,
        page_run_mean: 3.5,
        working_set_pages: 512,
        stream_switch_prob: 0.52,
        ..int("gcc")
    });
    v.push(BenchmarkProfile {
        // Huge working set, pointer chasing, very low locality: the paper's
        // highest miss rate (~7x average) and smallest speedup.
        working_set_pages: 16384,
        page_reuse_prob: 0.08,
        // A "run" is the 2-3 field accesses of one list/tree node: 8-byte
        // strides inside a single 64 B line, then a jump to another node
        // (usually another page). High same-line adjacency, terrible page
        // locality — this is what makes load merging slash mcf's misses
        // (Sec. VI-C: -51 % dynamic energy, +5 % without merging).
        page_run_mean: 3.5,
        stride_bytes: 8,
        streams: 4,
        stream_switch_prob: 0.35,
        addr_dep_prob: 0.90,
        dep_prob: 0.35,
        ..int("mcf")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 4.0,
        working_set_pages: 192,
        ..int("crafty")
    });
    v.push(BenchmarkProfile {
        stride_bytes: 0,
        page_run_mean: 3.5,
        working_set_pages: 384,
        addr_dep_prob: 0.70,
        ..int("parser")
    });
    v.push(BenchmarkProfile {
        streams: 2,
        page_run_mean: 6.5,
        working_set_pages: 96,
        stream_switch_prob: 0.42,
        ..int("eon")
    });
    v.push(BenchmarkProfile {
        stride_bytes: 0,
        page_run_mean: 4.0,
        working_set_pages: 256,
        ..int("perlbmk")
    });
    v.push(BenchmarkProfile {
        // 37% loads of the instruction count; dependency chains that
        // prevent re-ordering (Sec. VI-B).
        mem_fraction: 0.50,
        load_share: 0.74,
        streams: 2,
        stream_switch_prob: 0.30,
        page_run_mean: 6.5,
        stride_bytes: 4,
        working_set_pages: 224,
        addr_dep_prob: 0.80,
        dep_prob: 0.50,
        ..int("gap")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 4.5,
        working_set_pages: 320,
        ..int("vortex")
    });
    v.push(BenchmarkProfile {
        streams: 2,
        page_run_mean: 8.0,
        stride_bytes: 4,
        working_set_pages: 160,
        stream_switch_prob: 0.42,
        ..int("bzip2")
    });
    v.push(BenchmarkProfile {
        stride_bytes: 0,
        page_run_mean: 3.0,
        working_set_pages: 448,
        stream_switch_prob: 0.55,
        ..int("twolf")
    });

    // --- SPEC-FP ---
    v.push(BenchmarkProfile {
        page_run_mean: 9.0,
        working_set_pages: 256,
        ..fp("wupwise")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 16.0,
        working_set_pages: 448,
        page_reuse_prob: 0.65,
        ..fp("swim")
    });
    v.push(BenchmarkProfile {
        // Line-stride accesses: consecutive loads land on different lines,
        // so load merging contributes < 2 % (Sec. VI-B).
        stride_bytes: 64,
        page_run_mean: 6.0,
        working_set_pages: 128,
        page_reuse_prob: 0.88,
        ..fp("mgrid")
    });
    v.push(BenchmarkProfile {
        stride_bytes: 16,
        page_run_mean: 9.0,
        working_set_pages: 640,
        ..fp("applu")
    });
    v.push(BenchmarkProfile {
        mem_fraction: 0.38,
        stride_bytes: 4,
        page_run_mean: 6.0,
        working_set_pages: 192,
        ..fp("mesa")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 8.0,
        working_set_pages: 384,
        ..fp("galgel")
    });
    v.push(BenchmarkProfile {
        // Streaming sweeps over a working set far beyond L1+L2: high spatial
        // locality inside a page, almost no temporal re-use.
        working_set_pages: 8192,
        page_reuse_prob: 0.02,
        page_run_mean: 20.0,
        streams: 2,
        stream_switch_prob: 0.30,
        ..fp("art")
    });
    v.push(BenchmarkProfile {
        // Particularly suitable access pattern for load merging (66 % of
        // MALEC's speedup, Sec. VI-B): tight 4-byte strides, few streams.
        stride_bytes: 4,
        page_run_mean: 8.0,
        streams: 2,
        stream_switch_prob: 0.20,
        working_set_pages: 320,
        ..fp("equake")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 7.0,
        working_set_pages: 448,
        ..fp("facerec")
    });
    v.push(BenchmarkProfile {
        stride_bytes: 0,
        page_run_mean: 4.0,
        working_set_pages: 896,
        addr_dep_prob: 0.60,
        ..fp("ammp")
    });
    v.push(BenchmarkProfile {
        stride_bytes: 16,
        page_run_mean: 11.0,
        working_set_pages: 512,
        ..fp("lucas")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 5.5,
        working_set_pages: 576,
        ..fp("fma3d")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 9.0,
        working_set_pages: 288,
        long_op_fraction: 0.45,
        ..fp("sixtrack")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 7.0,
        working_set_pages: 416,
        ..fp("apsi")
    });

    // --- MediaBench2 ---
    v.push(BenchmarkProfile {
        page_run_mean: 12.0,
        ..mb2("cjpeg")
    });
    v.push(BenchmarkProfile {
        // Excellent locality, numerous parallel accesses: ~30 % speedup.
        page_run_mean: 20.0,
        working_set_pages: 64,
        dep_prob: 0.05,
        addr_dep_prob: 0.02,
        stream_switch_prob: 0.22,
        ..mb2("djpeg")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 18.0,
        working_set_pages: 80,
        dep_prob: 0.06,
        addr_dep_prob: 0.02,
        stream_switch_prob: 0.22,
        ..mb2("h263dec")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 14.0,
        stride_bytes: 8,
        working_set_pages: 112,
        ..mb2("h263enc")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 11.0,
        working_set_pages: 128,
        dep_prob: 0.12,
        ..mb2("h264dec")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 10.0,
        stride_bytes: 8,
        working_set_pages: 144,
        dep_prob: 0.15,
        ..mb2("h264enc")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 12.0,
        stride_bytes: 8,
        working_set_pages: 96,
        ..mb2("jpg2000dec")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 12.0,
        stride_bytes: 8,
        working_set_pages: 104,
        ..mb2("jpg2000enc")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 16.0,
        working_set_pages: 72,
        ..mb2("mpeg2dec")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 13.0,
        stride_bytes: 8,
        working_set_pages: 120,
        ..mb2("mpeg2enc")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 14.0,
        working_set_pages: 88,
        ..mb2("mpeg4dec")
    });
    v.push(BenchmarkProfile {
        page_run_mean: 11.0,
        stride_bytes: 8,
        working_set_pages: 136,
        ..mb2("mpeg4enc")
    });

    v
}

/// Finds a profile by its Fig. 4 name.
pub fn benchmark_named(name: &str) -> Option<BenchmarkProfile> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

/// The benchmarks of one suite, in figure order.
pub fn benchmarks_of(suite: Suite) -> Vec<BenchmarkProfile> {
    all_benchmarks()
        .into_iter()
        .filter(|b| b.suite == suite)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_figure4() {
        assert_eq!(benchmarks_of(Suite::SpecInt).len(), 12);
        assert_eq!(benchmarks_of(Suite::SpecFp).len(), 14);
        assert_eq!(benchmarks_of(Suite::MediaBench2).len(), 12);
        assert_eq!(all_benchmarks().len(), 38);
    }

    #[test]
    fn names_are_unique() {
        let all = all_benchmarks();
        let mut names: Vec<&str> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 38);
    }

    #[test]
    fn suite_memory_fractions_follow_the_paper_ordering() {
        // SPEC-INT 45 % > SPEC-FP 40 % > MB2 37 % (Sec. VI-B).
        let avg = |s: Suite| {
            let b = benchmarks_of(s);
            b.iter().map(|p| p.mem_fraction).sum::<f64>() / b.len() as f64
        };
        let (i, f, m) = (
            avg(Suite::SpecInt),
            avg(Suite::SpecFp),
            avg(Suite::MediaBench2),
        );
        assert!(i > f && f > m, "mem fractions: int={i} fp={f} mb2={m}");
        assert!((i - 0.45).abs() < 0.02);
        assert!((m - 0.37).abs() < 0.01);
    }

    #[test]
    fn load_store_ratio_is_about_two_to_one() {
        let all = all_benchmarks();
        let avg_share = all.iter().map(|b| b.load_share).sum::<f64>() / all.len() as f64;
        assert!((avg_share - 2.0 / 3.0).abs() < 0.03, "share = {avg_share}");
    }

    #[test]
    fn mcf_is_the_miss_rate_outlier() {
        let all = all_benchmarks();
        let mcf = all.iter().find(|b| b.name == "mcf").unwrap();
        let max_other_ws = all
            .iter()
            .filter(|b| b.name != "mcf" && b.name != "art")
            .map(|b| b.working_set_pages)
            .max()
            .unwrap();
        assert!(mcf.working_set_pages > 10 * max_other_ws);
        assert!(mcf.page_reuse_prob < 0.1);
    }

    #[test]
    fn mgrid_uses_line_strides() {
        let mgrid = all_benchmarks()
            .into_iter()
            .find(|b| b.name == "mgrid")
            .unwrap();
        assert_eq!(mgrid.stride_bytes, 64, "one access per line => no merging");
    }

    #[test]
    fn gap_is_load_heavy_and_serialized() {
        let gap = all_benchmarks()
            .into_iter()
            .find(|b| b.name == "gap")
            .unwrap();
        assert!((gap.load_fraction() - 0.37).abs() < 0.01);
        assert!(gap.dep_prob >= 0.5);
    }

    #[test]
    fn vaddr_bases_fit_32_bits() {
        for b in all_benchmarks() {
            assert!(b.vaddr_base() < (1 << 32));
            assert_eq!(b.vaddr_base() % (1 << 28), 0);
        }
    }

    #[test]
    fn suite_display_names() {
        assert_eq!(Suite::SpecInt.to_string(), "SPEC-INT");
        assert_eq!(Suite::SpecFp.to_string(), "SPEC-FP");
        assert_eq!(Suite::MediaBench2.to_string(), "MediaBench2");
        assert_eq!(Suite::all().len(), 3);
    }
}
