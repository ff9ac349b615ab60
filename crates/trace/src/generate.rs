//! The deterministic stochastic workload generator.
//!
//! A benchmark is modelled as a small number of concurrent *access streams*
//! (array sweeps, pointer chases, stack traffic). Each stream sits on a page
//! and walks it with the profile's stride for a geometrically distributed
//! run, then moves to another page — re-used from a recent hot set with
//! `page_reuse_prob`, else drawn fresh from the working set. Interleaving
//! between streams (controlled by `stream_switch_prob`) is what produces the
//! "n intermediate accesses to a different page" structure of Fig. 1.
//!
//! Every Bernoulli draw is integer-only. A generator turns each of its
//! probabilities `p` into the threshold `⌈p·2^53⌉` once, when it is built,
//! and `chance` compares a 53-bit draw against it, which equals
//! `gen_bool(p)` on every draw (see `threshold`). The recent hot pages sit
//! in a fixed ring, so a fresh page replaces the oldest without shifting
//! the rest.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use malec_types::addr::VAddr;
use malec_types::params::{LINE_BYTES, PAGE_BYTES};

use crate::inst::TraceInst;
use crate::profile::BenchmarkProfile;

const HOT_SET: usize = 48;

/// The threshold `⌈p·2^53⌉` under which a 53-bit draw `x` satisfies
/// `x·2^-53 < p`, the test `gen_bool(p)` makes: for an integer `x < 2^53`,
/// `x·2^-53` is exact and scaling by `2^53` is exact, so
/// `x·2^-53 < p ⇔ x < p·2^53 ⇔ x < ⌈p·2^53⌉`. A `p` of 1 gives `2^53`,
/// which every draw is under.
pub(crate) fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli draw against a [`threshold`]: `chance(rng, threshold(p))`
/// consumes the one word `rng.gen_bool(p)` does and gives the same answer.
#[inline]
pub(crate) fn chance(rng: &mut SmallRng, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// A profile's probabilities, and the generator's fixed ones, as
/// [`chance`] thresholds.
#[derive(Clone, Copy, Debug)]
struct Thresholds {
    mem: u64,
    load: u64,
    branch: u64,
    mispredict: u64,
    long_op: u64,
    dep: u64,
    addr_dep: u64,
    page_reuse: u64,
    stream_switch: u64,
    /// A fresh page comes from the sequential walk (else a uniform draw).
    sequential: u64,
    /// An access is 8 bytes wide (else 4).
    wide: u64,
    /// A branch tests a recently loaded value.
    branch_on_load: u64,
}

impl Thresholds {
    fn new(profile: &BenchmarkProfile) -> Self {
        Self {
            mem: threshold(profile.mem_fraction),
            load: threshold(profile.load_share),
            branch: threshold(profile.branch_fraction),
            mispredict: threshold(profile.mispredict_rate),
            long_op: threshold(profile.long_op_fraction),
            dep: threshold(profile.dep_prob),
            addr_dep: threshold(profile.addr_dep_prob),
            page_reuse: threshold(profile.page_reuse_prob),
            stream_switch: threshold(profile.stream_switch_prob),
            sequential: threshold(0.5),
            wide: threshold(0.25),
            branch_on_load: threshold(0.6),
        }
    }
}

#[derive(Clone, Debug)]
struct StreamState {
    page: u64,
    offset: u64,
    run_left: u32,
    /// Absolute index of the load that produced this run's base pointer;
    /// every load of the run depends on it (node-field accesses all wait
    /// for the pointer dereference).
    producer: Option<u64>,
}

/// An infinite, deterministic instruction stream for one benchmark profile.
///
/// Two generators constructed with the same profile and seed yield identical
/// streams, which is what makes every figure in this repository reproducible
/// bit-for-bit.
///
/// # Example
///
/// ```
/// use malec_trace::{all_benchmarks, WorkloadGenerator};
///
/// let prof = &all_benchmarks()[0];
/// let a: Vec<_> = WorkloadGenerator::new(prof, 7).take(100).collect();
/// let b: Vec<_> = WorkloadGenerator::new(prof, 7).take(100).collect();
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadGenerator {
    profile: BenchmarkProfile,
    thresholds: Thresholds,
    rng: SmallRng,
    streams: Vec<StreamState>,
    active: usize,
    /// The last `HOT_SET` fresh pages as (page, offset, run), oldest at
    /// `hot_head` once all `HOT_SET` are filled (slot 0 until then).
    hot_pages: [(u64, u64, u32); HOT_SET],
    hot_len: usize,
    hot_head: usize,
    fresh_cursor: u64,
    base_page: u64,
    insts_since_load: u32,
    emitted: u64,
}

impl WorkloadGenerator {
    /// Creates a generator for `profile` with the given seed.
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        let mut h: u64 = seed ^ 0x517c_c1b7_2722_0a95;
        for b in profile.name.bytes() {
            h = h.rotate_left(7) ^ u64::from(b);
        }
        let mut rng = SmallRng::seed_from_u64(h);
        let base_page = profile.vaddr_base() / PAGE_BYTES;
        let ws = u64::from(profile.working_set_pages.max(1));
        let streams = (0..profile.streams.max(1))
            .map(|_| StreamState {
                page: base_page + rng.gen_range(0..ws),
                offset: 0,
                run_left: 1,
                producer: None,
            })
            .collect();
        Self {
            profile: profile.clone(),
            thresholds: Thresholds::new(profile),
            rng,
            streams,
            active: 0,
            hot_pages: [(0, 0, 0); HOT_SET],
            hot_len: 0,
            hot_head: 0,
            fresh_cursor: 0,
            base_page,
            insts_since_load: u32::MAX,
            emitted: 0,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    fn sample_run(&mut self) -> u32 {
        // Geometric-ish run length with the profile's mean, at least 1.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let run = -self.profile.page_run_mean * u.ln();
        run.round().clamp(1.0, 4096.0) as u32
    }

    /// Picks the next page, the offset to enter it at, and the run length.
    /// Re-used (hot) pages are re-entered at their remembered offset *with
    /// their remembered extent*, so repeat visits re-walk exactly the same
    /// cache lines — this is what gives workloads their temporal line reuse
    /// (interrupted array sweeps resume over the same sub-array).
    fn next_page(&mut self) -> (u64, u64, u32) {
        let ws = u64::from(self.profile.working_set_pages.max(1));
        if self.hot_len > 0 && chance(&mut self.rng, self.thresholds.page_reuse) {
            let i = self.rng.gen_range(0..self.hot_len);
            return self.hot_pages[(self.hot_head + i) % HOT_SET];
        }
        // Fresh page: alternate between a sequential working-set walk
        // (array sweeps) and a uniform draw (heap scatter); enter at a
        // random line so lines spread over cache banks and sets.
        let page = if chance(&mut self.rng, self.thresholds.sequential) {
            self.fresh_cursor = (self.fresh_cursor + 1) % ws;
            self.base_page + self.fresh_cursor
        } else {
            self.base_page + self.rng.gen_range(0..ws)
        };
        let offset = self.rng.gen_range(0..PAGE_BYTES / LINE_BYTES) * LINE_BYTES;
        let run = self.sample_run();
        // The fresh page becomes the newest hot page, replacing the oldest
        // once the ring is full.
        if self.hot_len == HOT_SET {
            self.hot_pages[self.hot_head] = (page, offset, run);
            self.hot_head = (self.hot_head + 1) % HOT_SET;
        } else {
            self.hot_pages[self.hot_len] = (page, offset, run);
            self.hot_len += 1;
        }
        (page, offset, run)
    }

    fn next_mem_addr(&mut self) -> (VAddr, bool) {
        // Possibly switch to a different stream.
        if self.streams.len() > 1 && chance(&mut self.rng, self.thresholds.stream_switch) {
            let n = self.streams.len();
            let step = self.rng.gen_range(1..n);
            self.active = (self.active + step) % n;
        }
        // `stride_bytes == 0` means scattered (heap-style) accesses: runs
        // start at irregular (non-line-aligned) offsets and walk word-sized
        // strides. Scattering per *access* instead would deny the workload
        // any line reuse at all.
        let scattered = self.profile.stride_bytes == 0;
        let stride = u64::from(self.profile.stride_bytes).max(8);

        // Borrow dance: sample everything that needs &mut self first.
        let mut new_run = false;
        if self.streams[self.active].run_left == 0 {
            let (page, start, run) = self.next_page();
            let jitter = if scattered {
                self.rng.gen_range(0..8) * 8
            } else {
                0
            };
            let s = &mut self.streams[self.active];
            s.page = page;
            s.offset = (start + jitter) % PAGE_BYTES;
            s.run_left = run;
            new_run = true;
        }
        let s = &mut self.streams[self.active];
        let addr = s.page * PAGE_BYTES + s.offset;
        s.run_left -= 1;
        s.offset = (s.offset + stride) % PAGE_BYTES;
        (VAddr::new(addr), new_run)
    }

    fn gen_load(&mut self) -> TraceInst {
        let (vaddr, new_run) = self.next_mem_addr();
        let size = if chance(&mut self.rng, self.thresholds.wide) {
            8
        } else {
            4
        };
        // Pointer dereferences happen when a stream jumps to a new object
        // (run start); every access of the run then depends on that same
        // pointer, so all of a node's field loads become ready together.
        if new_run {
            self.streams[self.active].producer = if chance(&mut self.rng, self.thresholds.addr_dep)
            {
                let d = self.rng.gen_range(1..8u64).min(self.emitted);
                (d > 0).then(|| self.emitted - d)
            } else {
                None
            };
        }
        let addr_dep = self.streams[self.active].producer.and_then(|p| {
            let dist = self.emitted - p;
            (dist > 0 && dist < 160).then_some(dist as u32)
        });
        TraceInst::Load {
            vaddr,
            size,
            addr_dep,
        }
    }

    fn gen_store(&mut self) -> TraceInst {
        let (vaddr, _) = self.next_mem_addr();
        let size = if chance(&mut self.rng, self.thresholds.wide) {
            8
        } else {
            4
        };
        let data_dep = if chance(&mut self.rng, self.thresholds.dep) {
            Some(self.rng.gen_range(1..6))
        } else {
            None
        };
        TraceInst::Store {
            vaddr,
            size,
            data_dep,
        }
    }

    fn gen_op(&mut self) -> TraceInst {
        if chance(&mut self.rng, self.thresholds.branch) {
            // Branch conditions frequently test recently loaded values.
            let dep = if self.insts_since_load <= 8
                && chance(&mut self.rng, self.thresholds.branch_on_load)
            {
                Some(self.insts_since_load.max(1))
            } else {
                None
            };
            return TraceInst::Branch {
                mispredicted: chance(&mut self.rng, self.thresholds.mispredict),
                dep,
            };
        }
        let latency = if chance(&mut self.rng, self.thresholds.long_op) {
            3
        } else {
            1
        };
        // Consumers preferentially depend on the most recent load: this is
        // the load-to-use chain that makes L1 hit latency matter (the
        // Fig. 4 1-cycle/3-cycle variants).
        let dep = if chance(&mut self.rng, self.thresholds.dep) {
            if self.insts_since_load <= 8 {
                Some(self.insts_since_load.max(1))
            } else {
                Some(self.rng.gen_range(1..6))
            }
        } else {
            None
        };
        TraceInst::Op { latency, dep }
    }
}

impl Iterator for WorkloadGenerator {
    type Item = TraceInst;

    #[inline]
    fn next(&mut self) -> Option<TraceInst> {
        let inst = if chance(&mut self.rng, self.thresholds.mem) {
            if chance(&mut self.rng, self.thresholds.load) {
                self.gen_load()
            } else {
                self.gen_store()
            }
        } else {
            self.gen_op()
        };
        self.insts_since_load = if inst.is_load() {
            0
        } else {
            self.insts_since_load.saturating_add(1)
        };
        self.emitted += 1;
        Some(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{all_benchmarks, Suite};

    fn profile(name: &str) -> BenchmarkProfile {
        all_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("unknown benchmark {name}"))
    }

    fn sample(name: &str, n: usize) -> Vec<TraceInst> {
        WorkloadGenerator::new(&profile(name), 42).take(n).collect()
    }

    /// `chance(threshold(p))` against `gen_bool(p)`: equal on every draw
    /// of one seeded stream, and on the draws just below, at and above the
    /// threshold, for the edge probabilities and every probability of every
    /// profile.
    #[test]
    fn chance_equals_gen_bool_on_every_draw() {
        let half_ulp = 2f64.powi(-53);
        let mut probs = vec![
            0.0,
            1.0,
            0.25,
            1.0 / 3.0,
            half_ulp,
            1.0 - half_ulp,
            0.5,
            0.6,
        ];
        for b in all_benchmarks() {
            probs.extend([
                b.mem_fraction,
                b.load_share,
                b.stream_switch_prob,
                b.page_reuse_prob,
                b.addr_dep_prob,
                b.dep_prob,
                b.long_op_fraction,
                b.branch_fraction,
                b.mispredict_rate,
            ]);
        }
        let unit = |x: u64| x as f64 * (1.0 / (1u64 << 53) as f64);
        for p in probs {
            let t = threshold(p);
            let mut ints = SmallRng::seed_from_u64(2013);
            let mut floats = ints.clone();
            for draw in 0..20_000 {
                assert_eq!(
                    chance(&mut ints, t),
                    floats.gen_bool(p),
                    "p = {p}, draw {draw}"
                );
            }
            for x in [t.saturating_sub(1), t, t + 1] {
                if x < 1 << 53 {
                    assert_eq!(x < t, unit(x) < p, "p = {p}, x = {x}");
                }
            }
        }
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(1.0), 1 << 53);
        assert_eq!(threshold(0.25), 1 << 51);
        assert_eq!(threshold(half_ulp), 1);
        assert_eq!(threshold(1.0 - half_ulp), (1 << 53) - 1);
        assert_eq!(threshold(1.0 / 3.0), 3_002_399_751_580_331);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = sample("gzip", 2000);
        let b = sample("gzip", 2000);
        assert_eq!(a, b);
        let c: Vec<_> = WorkloadGenerator::new(&profile("gzip"), 43)
            .take(2000)
            .collect();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn mem_fraction_matches_profile() {
        for name in ["gzip", "swim", "djpeg", "mcf"] {
            let p = profile(name);
            let insts = sample(name, 50_000);
            let mem = insts.iter().filter(|i| i.is_mem()).count() as f64 / insts.len() as f64;
            assert!(
                (mem - p.mem_fraction).abs() < 0.02,
                "{name}: mem fraction {mem} vs profile {}",
                p.mem_fraction
            );
        }
    }

    #[test]
    fn load_store_ratio_about_two_to_one() {
        let insts = sample("vortex", 50_000);
        let loads = insts.iter().filter(|i| i.is_load()).count() as f64;
        let stores = insts.iter().filter(|i| i.is_store()).count() as f64;
        let ratio = loads / stores;
        assert!((1.7..2.4).contains(&ratio), "load/store ratio {ratio}");
    }

    #[test]
    fn addresses_stay_in_working_set_region() {
        let p = profile("eon");
        let base = p.vaddr_base();
        let span = u64::from(p.working_set_pages) * 4096;
        for inst in sample("eon", 20_000) {
            if let Some(a) = inst.vaddr() {
                assert!(a.raw() >= base && a.raw() < base + span + 4096);
            }
        }
    }

    #[test]
    fn strided_benchmark_walks_lines() {
        // equake strides by 4 bytes: consecutive same-page accesses from the
        // same stream should frequently share a cache line.
        let insts = sample("equake", 30_000);
        let lines: Vec<u64> = insts
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| a.raw() >> 6)
            .collect();
        let same =
            lines.windows(2).filter(|w| w[0] == w[1]).count() as f64 / (lines.len() - 1) as f64;
        assert!(same > 0.3, "equake same-line adjacency too low: {same}");
    }

    #[test]
    fn mgrid_never_repeats_lines_back_to_back() {
        let insts = sample("mgrid", 30_000);
        let lines: Vec<u64> = insts
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| a.raw() >> 6)
            .collect();
        let same =
            lines.windows(2).filter(|w| w[0] == w[1]).count() as f64 / (lines.len() - 1) as f64;
        assert!(same < 0.08, "mgrid should stride whole lines: {same}");
    }

    #[test]
    fn mcf_touches_many_distinct_pages() {
        let insts = sample("mcf", 30_000);
        let pages: std::collections::HashSet<u64> = insts
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| a.raw() >> 12)
            .collect();
        let djpeg_pages: std::collections::HashSet<u64> = sample("djpeg", 30_000)
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| a.raw() >> 12)
            .collect();
        assert!(
            pages.len() > 10 * djpeg_pages.len(),
            "mcf {} pages vs djpeg {}",
            pages.len(),
            djpeg_pages.len()
        );
    }

    #[test]
    fn every_benchmark_generates_all_kinds() {
        for p in all_benchmarks() {
            let insts: Vec<_> = WorkloadGenerator::new(&p, 1).take(20_000).collect();
            assert!(insts.iter().any(|i| i.is_load()), "{} no loads", p.name);
            assert!(insts.iter().any(|i| i.is_store()), "{} no stores", p.name);
            assert!(
                insts.iter().any(|i| matches!(i, TraceInst::Op { .. })),
                "{} no ops",
                p.name
            );
        }
    }

    #[test]
    fn suite_ordering_of_dependency_density() {
        // MB2 streams should be less serialized than SPEC-INT on average.
        let avg_dep = |suite: Suite| {
            let b: Vec<_> = all_benchmarks()
                .into_iter()
                .filter(|p| p.suite == suite)
                .collect();
            b.iter().map(|p| p.dep_prob).sum::<f64>() / b.len() as f64
        };
        assert!(avg_dep(Suite::MediaBench2) < avg_dep(Suite::SpecInt));
    }
}
