//! Composable workload scenarios: multi-phase programs, mixed workloads,
//! and adversarial access patterns.
//!
//! The benchmark profiles of [`crate::profile`] each model one steady-state
//! SimPoint phase. Real programs are not steady-state: they move between
//! phases (decompress, then decode), interleave unrelated access streams
//! (an application plus its allocator plus its runtime), and occasionally
//! behave adversarially towards the very mechanisms MALEC relies on. A
//! [`Scenario`] composes all of these from four segment kinds:
//!
//! * [`SegmentKind::Benchmark`] — any calibrated profile, driven by the
//!   regular [`WorkloadGenerator`];
//! * [`SegmentKind::TlbThrash`] — every load walks a fresh page of a page
//!   pool far larger than the uTLB/TLB, collapsing translation locality
//!   (and with it uWT way-determination coverage);
//! * [`SegmentKind::BankConflict`] — independent loads whose line stride is
//!   a multiple of the bank count, so every parallel access fights for the
//!   same L1 bank;
//! * [`SegmentKind::StoreBurst`] — bursts of same-line stores chased by
//!   same-line loads, pressuring the SB→MB drain path and handing the merge
//!   logic maximal same-line opportunity.
//!
//! Scenarios compose segments in two ways: [`Composition::Phased`] switches
//! the active segment at exact instruction boundaries (cycling after the
//! last phase, so any instruction budget can be drawn), and
//! [`Composition::Mixed`] interleaves weighted blocks of several segments
//! round-robin, modelling concurrent activity. [`Composition::Benchmark`]
//! composes nothing: it is one bare profile under its own name, so the
//! paper's workloads run wherever a scenario does.
//!
//! Everything is **seed-deterministic**: one scenario plus one seed defines
//! one infinite instruction stream, bit-for-bit, forever — the same
//! contract [`WorkloadGenerator`] gives single profiles.
//!
//! # Example
//!
//! ```
//! use malec_trace::scenario::{Composition, Phase, Scenario, SegmentKind};
//! use malec_trace::benchmark_named;
//!
//! let scenario = Scenario::phased(
//!     "warm-then-thrash",
//!     vec![
//!         Phase::new(SegmentKind::Benchmark(benchmark_named("gzip").unwrap()), 2_000),
//!         Phase::new(SegmentKind::TlbThrash(Default::default()), 2_000),
//!     ],
//! );
//! let a: Vec<_> = scenario.generator(7).take(5_000).collect();
//! let b: Vec<_> = scenario.generator(7).take(5_000).collect();
//! assert_eq!(a, b);
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use malec_types::addr::VAddr;

use crate::generate::WorkloadGenerator;
use crate::inst::TraceInst;
use crate::profile::{benchmark_named, BenchmarkProfile};

const PAGE_BYTES: u64 = 4096;
const LINE_BYTES: u64 = 64;

/// Parameters of the TLB-thrashing adversarial pattern.
///
/// The point of this adversary is to starve *translation* locality without
/// starving *cache* locality: each page contributes only
/// [`lines_per_page`](Self::lines_per_page) distinct lines (at a
/// page-dependent line index, so the footprint spreads over sets), keeping
/// the data L1-resident while the page pool cycles far beyond the TLB.
/// Every L1 hit then arrives without way information — the precise failure
/// mode that collapses uWT coverage.
#[derive(Clone, PartialEq, Debug)]
pub struct TlbThrashParams {
    /// Size of the page pool walked by the loads. Anything far above the
    /// 64-entry TLB defeats both translation caches.
    pub pages: u32,
    /// Distinct lines touched per page. `pages * lines_per_page` is the
    /// line footprint; keep it under the L1's line capacity to thrash
    /// translations *without* thrashing the cache.
    pub lines_per_page: u32,
    /// Fraction of instructions that are loads (the rest are single-cycle
    /// ops, keeping the pattern from being pure memory noise).
    pub load_fraction: f64,
}

impl Default for TlbThrashParams {
    fn default() -> Self {
        Self {
            // 256 pages = 4x the 64-entry TLB, 16x the uTLB; one line per
            // page = 256 lines, half the paper L1's 512-line capacity.
            pages: 256,
            lines_per_page: 1,
            load_fraction: 0.6,
        }
    }
}

/// Parameters of the bank-conflict stride pattern.
#[derive(Clone, PartialEq, Debug)]
pub struct BankConflictParams {
    /// Line stride between consecutive loads. A multiple of the L1 bank
    /// count (4 in Table II) pins every access to one bank.
    pub stride_lines: u32,
    /// Pages the conflicting stream wraps over. Keep
    /// `pages * lines_per_page / stride_lines` lines inside one bank's
    /// share of the L1, so arbitration conflicts — not misses — dominate.
    pub pages: u32,
}

impl Default for BankConflictParams {
    fn default() -> Self {
        Self {
            stride_lines: 4,
            // 2 pages at stride 4 = 32 lines, all in one bank, one line
            // per set of that bank: fully resident, purely conflict-bound.
            pages: 2,
        }
    }
}

/// Parameters of the store-burst pattern.
#[derive(Clone, PartialEq, Debug)]
pub struct StoreBurstParams {
    /// Consecutive same-line stores per burst. Every burst collapses into
    /// one merge-buffer entry and forces an MBE write as lines advance;
    /// raise it toward the 24-entry store buffer for maximal SB→MB drain
    /// pressure (at the cost of starving the loads of shared AGUs).
    pub burst: u32,
    /// Loads issued after each burst, all reading one line written
    /// [`lines_back`](Self::lines_back) bursts earlier (maximal same-line
    /// merge opportunity, free of store-forwarding shortcuts).
    pub loads_after: u32,
    /// How many bursts back the post-burst loads read. Anything beyond the
    /// 4-entry merge buffer guarantees the line has drained to the L1, so
    /// the loads exercise the cache-side merge path rather than SB/MB
    /// forwarding.
    pub lines_back: u32,
    /// Non-memory ops separating bursts (lets the drain path breathe just
    /// enough to expose forward-progress bugs rather than hiding them).
    pub gap: u32,
    /// Pages the burst lines cycle through.
    pub pages: u32,
}

impl Default for StoreBurstParams {
    fn default() -> Self {
        // Balanced so both stressed mechanisms actually express: bursts
        // short enough that stores do not monopolize the two shared AGUs
        // (the loads then arrive several per cycle and merge), long enough
        // that every burst still collapses into an MB entry and drains.
        Self {
            burst: 6,
            loads_after: 12,
            lines_back: 8,
            gap: 6,
            pages: 16,
        }
    }
}

/// One workload ingredient of a scenario.
#[derive(Clone, PartialEq, Debug)]
pub enum SegmentKind {
    /// A calibrated benchmark profile (the regular generator).
    Benchmark(BenchmarkProfile),
    /// TLB-thrashing page walks.
    TlbThrash(TlbThrashParams),
    /// Bank-conflict strides.
    BankConflict(BankConflictParams),
    /// Same-line store bursts.
    StoreBurst(StoreBurstParams),
}

impl SegmentKind {
    /// A short label for reports (`gzip`, `tlb_thrash`, …).
    pub fn label(&self) -> &str {
        match self {
            SegmentKind::Benchmark(p) => p.name,
            SegmentKind::TlbThrash(_) => "tlb_thrash",
            SegmentKind::BankConflict(_) => "bank_conflict",
            SegmentKind::StoreBurst(_) => "store_burst",
        }
    }

    /// Builds this segment's infinite generator for `seed`.
    fn generator(&self, seed: u64) -> SegmentGenerator {
        match self {
            SegmentKind::Benchmark(p) => {
                SegmentGenerator::Benchmark(Box::new(WorkloadGenerator::new(p, seed)))
            }
            SegmentKind::TlbThrash(p) => SegmentGenerator::TlbThrash(TlbThrashGen::new(p, seed)),
            SegmentKind::BankConflict(p) => {
                SegmentGenerator::BankConflict(BankConflictGen::new(p, seed))
            }
            SegmentKind::StoreBurst(p) => SegmentGenerator::StoreBurst(StoreBurstGen::new(p, seed)),
        }
    }
}

/// One phase of a phased scenario: a segment active for `insts`
/// instructions.
#[derive(Clone, PartialEq, Debug)]
pub struct Phase {
    /// What runs during the phase.
    pub kind: SegmentKind,
    /// Dynamic instructions before the next phase takes over.
    pub insts: u64,
}

impl Phase {
    /// A phase of `insts` instructions of `kind`.
    pub fn new(kind: SegmentKind, insts: u64) -> Self {
        Self { kind, insts }
    }
}

/// One ingredient of a mixed scenario: a segment receiving `weight` blocks
/// per round-robin cycle.
#[derive(Clone, PartialEq, Debug)]
pub struct MixPart {
    /// What this part generates.
    pub kind: SegmentKind,
    /// Relative share of instruction blocks (≥ 1).
    pub weight: u32,
}

impl MixPart {
    /// A part of the given weight.
    pub fn new(kind: SegmentKind, weight: u32) -> Self {
        Self {
            kind,
            weight: weight.max(1),
        }
    }
}

/// How a scenario's segments combine into one stream.
#[derive(Clone, PartialEq, Debug)]
pub enum Composition {
    /// Segments run back-to-back, switching at exact instruction
    /// boundaries; after the last phase the sequence cycles so the stream
    /// is infinite.
    Phased(Vec<Phase>),
    /// Weighted round-robin interleaving: each round, part *i* contributes
    /// `weight_i` blocks of `block` consecutive instructions.
    Mixed {
        /// The interleaved parts.
        parts: Vec<MixPart>,
        /// Consecutive instructions per block (the interleaving grain).
        block: u32,
    },
    /// One bare benchmark profile: the [`WorkloadGenerator`] stream under
    /// the seed as given (no sub-seed), exactly as `Simulator::run` draws
    /// it.
    Benchmark(BenchmarkProfile),
}

/// A named, composable workload.
#[derive(Clone, PartialEq, Debug)]
pub struct Scenario {
    /// Report / golden-table name.
    pub name: String,
    /// The composition of segments.
    pub composition: Composition,
}

impl Scenario {
    /// A phased scenario.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase is zero-length — such a
    /// scenario has no defined stream, which is a construction error.
    pub fn phased(name: impl Into<String>, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a phased scenario needs phases");
        assert!(
            phases.iter().all(|p| p.insts > 0),
            "phases must be at least one instruction long"
        );
        Self {
            name: name.into(),
            composition: Composition::Phased(phases),
        }
    }

    /// A mixed scenario interleaving `parts` at a `block`-instruction
    /// grain.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or `block` is zero.
    pub fn mixed(name: impl Into<String>, parts: Vec<MixPart>, block: u32) -> Self {
        assert!(!parts.is_empty(), "a mixed scenario needs parts");
        assert!(block > 0, "the interleaving block must be nonzero");
        Self {
            name: name.into(),
            composition: Composition::Mixed { parts, block },
        }
    }

    /// A single-segment scenario (handy for the adversarial patterns).
    pub fn single(name: impl Into<String>, kind: SegmentKind) -> Self {
        Self::phased(name, vec![Phase::new(kind, u64::MAX)])
    }

    /// The bare benchmark `profile`, named after it.
    pub fn benchmark(profile: BenchmarkProfile) -> Self {
        Self {
            name: profile.name.to_owned(),
            composition: Composition::Benchmark(profile),
        }
    }

    /// The segment labels, in composition order.
    pub fn segment_labels(&self) -> Vec<&str> {
        match &self.composition {
            Composition::Phased(phases) => phases.iter().map(|p| p.kind.label()).collect(),
            Composition::Mixed { parts, .. } => parts.iter().map(|p| p.kind.label()).collect(),
            Composition::Benchmark(p) => vec![p.name],
        }
    }

    /// Builds the infinite, deterministic instruction stream of this
    /// scenario for `seed`. Two generators with the same scenario and seed
    /// yield identical streams.
    pub fn generator(&self, seed: u64) -> ScenarioGenerator {
        // Each segment draws from its own sub-seed so reordering segments
        // or changing one segment's parameters cannot silently shift the
        // streams of the others.
        let sub_seed = |i: usize| {
            let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
            for b in self.name.bytes() {
                h = h.rotate_left(5) ^ u64::from(b);
            }
            h ^ ((i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        };
        match &self.composition {
            Composition::Phased(phases) => ScenarioGenerator {
                segments: phases
                    .iter()
                    .enumerate()
                    .map(|(i, p)| p.kind.generator(sub_seed(i)))
                    .collect(),
                schedule: Schedule::Phased {
                    lengths: phases.iter().map(|p| p.insts).collect(),
                    current: 0,
                    left: phases[0].insts,
                },
            },
            Composition::Mixed { parts, block } => {
                let mut slots = Vec::new();
                for (i, part) in parts.iter().enumerate() {
                    for _ in 0..part.weight {
                        slots.push(i);
                    }
                }
                ScenarioGenerator {
                    segments: parts
                        .iter()
                        .enumerate()
                        .map(|(i, p)| p.kind.generator(sub_seed(i)))
                        .collect(),
                    schedule: Schedule::Mixed {
                        slots,
                        block: u64::from(*block),
                        cursor: 0,
                        left: u64::from(*block),
                    },
                }
            }
            Composition::Benchmark(p) => ScenarioGenerator {
                segments: vec![SegmentKind::Benchmark(p.clone()).generator(seed)],
                schedule: Schedule::Phased {
                    lengths: vec![u64::MAX],
                    current: 0,
                    left: u64::MAX,
                },
            },
        }
    }
}

/// The generator of one segment (boxed profile generator to keep the enum
/// small; the adversarial generators are a few words each).
#[derive(Clone, Debug)]
enum SegmentGenerator {
    Benchmark(Box<WorkloadGenerator>),
    TlbThrash(TlbThrashGen),
    BankConflict(BankConflictGen),
    StoreBurst(StoreBurstGen),
}

impl SegmentGenerator {
    fn next_inst(&mut self) -> TraceInst {
        match self {
            SegmentGenerator::Benchmark(g) => g.next().expect("profile generator is infinite"),
            SegmentGenerator::TlbThrash(g) => g.next_inst(),
            SegmentGenerator::BankConflict(g) => g.next_inst(),
            SegmentGenerator::StoreBurst(g) => g.next_inst(),
        }
    }
}

#[derive(Clone, Debug)]
enum Schedule {
    Phased {
        lengths: Vec<u64>,
        current: usize,
        left: u64,
    },
    Mixed {
        slots: Vec<usize>,
        block: u64,
        cursor: usize,
        left: u64,
    },
}

/// The infinite, deterministic instruction stream of one [`Scenario`].
#[derive(Clone, Debug)]
pub struct ScenarioGenerator {
    segments: Vec<SegmentGenerator>,
    schedule: Schedule,
}

impl Iterator for ScenarioGenerator {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        let seg = match &mut self.schedule {
            Schedule::Phased {
                lengths,
                current,
                left,
            } => {
                if *left == 0 {
                    *current = (*current + 1) % lengths.len();
                    *left = lengths[*current];
                }
                *left -= 1;
                *current
            }
            Schedule::Mixed {
                slots,
                block,
                cursor,
                left,
            } => {
                if *left == 0 {
                    *cursor = (*cursor + 1) % slots.len();
                    *left = *block;
                }
                *left -= 1;
                slots[*cursor]
            }
        };
        Some(self.segments[seg].next_inst())
    }
}

/// Region base for the adversarial generators. Benchmark profiles hash
/// into the 256 MiB slots 0–13 of the 32-bit space (`vaddr_base` is
/// `h % 14 << 28`), so slots 14 and 15 are guaranteed free: the TLB
/// thrasher gets all of slot 14 (65536 pages), and slot 15 is split in
/// half between the two small-footprint patterns. Composed scenarios thus
/// never share pages or lines between a benchmark and an adversary.
fn adversarial_base(tag: u8) -> u64 {
    match tag {
        0 => 14 << 28,                    // tlb_thrash
        1 => 15 << 28,                    // bank_conflict
        _ => (15u64 << 28) + (128 << 20), // store_burst
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// TLB-thrashing page walks: every load lands on the *next* page of a pool
/// far larger than both translation caches, so translations (and the way
/// information coupled to them) never survive to be reused.
#[derive(Clone, Debug)]
struct TlbThrashGen {
    params: TlbThrashParams,
    rng: SmallRng,
    base_page: u64,
    cursor: u64,
    stride: u64,
}

impl TlbThrashGen {
    fn new(params: &TlbThrashParams, seed: u64) -> Self {
        // A stride of a few pages defeats any "next page" prefetch-like
        // locality a sequential walk would grant — but it must be coprime
        // with the pool size or the walk silently shrinks to a sub-pool
        // that fits the TLB. `pages` is free-form spec input, so pick the
        // largest of 3/2/1 that is coprime with it.
        let pages = u64::from(params.pages.max(1));
        let stride = [3, 2, 1]
            .into_iter()
            .find(|s| gcd(*s, pages) == 1)
            .expect("1 is coprime with everything");
        Self {
            params: params.clone(),
            rng: SmallRng::seed_from_u64(seed ^ 0x7a5b_17e3_90cd_4421),
            base_page: adversarial_base(0) / PAGE_BYTES,
            cursor: 0,
            stride,
        }
    }

    fn next_inst(&mut self) -> TraceInst {
        if self.rng.gen_bool(self.params.load_fraction) {
            let pages = u64::from(self.params.pages.max(1));
            self.cursor = (self.cursor + self.stride) % pages;
            // Each page owns a page-dependent slice of line indices, so
            // repeat visits re-hit resident lines (translation misses,
            // cache hits) while the footprint spreads over cache sets.
            let lines = u64::from(self.params.lines_per_page.max(1));
            let lip = (self.cursor + self.rng.gen_range(0..lines)) % (PAGE_BYTES / LINE_BYTES);
            let offset = lip * LINE_BYTES + self.rng.gen_range(0..LINE_BYTES / 8) * 8;
            TraceInst::Load {
                vaddr: VAddr::new((self.base_page + self.cursor) * PAGE_BYTES + offset),
                size: 8,
                addr_dep: None,
            }
        } else {
            TraceInst::Op {
                latency: 1,
                dep: None,
            }
        }
    }
}

/// Bank-conflict strides: independent loads all mapping to one L1 bank, so
/// every cycle's worth of parallel issue serializes on bank arbitration.
#[derive(Clone, Debug)]
struct BankConflictGen {
    params: BankConflictParams,
    rng: SmallRng,
    base: u64,
    line_cursor: u64,
}

impl BankConflictGen {
    fn new(params: &BankConflictParams, seed: u64) -> Self {
        Self {
            params: params.clone(),
            rng: SmallRng::seed_from_u64(seed ^ 0x3c6e_f372_fe94_f82b),
            base: adversarial_base(1),
            line_cursor: 0,
        }
    }

    fn next_inst(&mut self) -> TraceInst {
        // Mostly loads: conflicts only hurt when accesses actually contend.
        if self.rng.gen_bool(0.85) {
            let stride = u64::from(self.params.stride_lines.max(1));
            let span_lines = u64::from(self.params.pages.max(1)) * (PAGE_BYTES / LINE_BYTES);
            self.line_cursor = (self.line_cursor + stride) % span_lines;
            let offset = self.rng.gen_range(0..LINE_BYTES / 8) * 8;
            TraceInst::Load {
                vaddr: VAddr::new(self.base + self.line_cursor * LINE_BYTES + offset),
                size: 8,
                addr_dep: None,
            }
        } else {
            TraceInst::Op {
                latency: 1,
                dep: None,
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BurstState {
    Storing(u32),
    Loading(u32),
    Gap(u32),
}

/// Same-line store bursts: `burst` stores walk one line, `loads_after`
/// loads read back the line written `lines_back` bursts earlier (already
/// drained past the merge buffer, so they hit the L1 and merge with each
/// other), `gap` ops separate bursts, then the next line.
#[derive(Clone, Debug)]
struct StoreBurstGen {
    params: StoreBurstParams,
    rng: SmallRng,
    base: u64,
    line: u64,
    span_lines: u64,
    state: BurstState,
}

impl StoreBurstGen {
    fn new(params: &StoreBurstParams, seed: u64) -> Self {
        Self {
            params: params.clone(),
            rng: SmallRng::seed_from_u64(seed ^ 0x94d0_49bb_1331_11eb),
            base: adversarial_base(2),
            line: 0,
            span_lines: u64::from(params.pages.max(1)) * (PAGE_BYTES / LINE_BYTES),
            state: BurstState::Storing(params.burst.max(1)),
        }
    }

    fn addr_in(&mut self, line: u64) -> u64 {
        let offset = self.rng.gen_range(0..LINE_BYTES / 8) * 8;
        self.base + line * LINE_BYTES + offset
    }

    fn next_inst(&mut self) -> TraceInst {
        match self.state {
            BurstState::Storing(left) => {
                self.state = if left <= 1 {
                    BurstState::Loading(self.params.loads_after)
                } else {
                    BurstState::Storing(left - 1)
                };
                let line = self.line;
                let vaddr = VAddr::new(self.addr_in(line));
                TraceInst::Store {
                    vaddr,
                    size: 8,
                    data_dep: None,
                }
            }
            BurstState::Loading(left) => {
                if left == 0 {
                    self.state = BurstState::Gap(self.params.gap);
                    return self.next_inst();
                }
                self.state = BurstState::Loading(left - 1);
                // Read a line old enough to have drained SB and the 4-entry
                // MB: the loads contend for one L1 line together, which is
                // exactly what load merging exists to exploit. The distance
                // is folded into [1, span-1] so it can never wrap onto the
                // line the in-flight burst is writing (a span of one line
                // has no other line to read, the only degenerate case).
                let back = if self.span_lines > 1 {
                    (u64::from(self.params.lines_back.max(1)) - 1) % (self.span_lines - 1) + 1
                } else {
                    0
                };
                let line = (self.line + self.span_lines - back) % self.span_lines;
                let vaddr = VAddr::new(self.addr_in(line));
                TraceInst::Load {
                    vaddr,
                    size: 8,
                    addr_dep: None,
                }
            }
            BurstState::Gap(left) => {
                if left == 0 {
                    self.line = (self.line + 1) % self.span_lines;
                    self.state = BurstState::Storing(self.params.burst.max(1));
                    return self.next_inst();
                }
                self.state = BurstState::Gap(left - 1);
                TraceInst::Op {
                    latency: 1,
                    dep: None,
                }
            }
        }
    }
}

/// The preset scenarios used by the golden tables, the CI smoke run and the
/// example specs: one multi-phase, one mixed, and one per adversarial
/// pattern.
///
/// # Panics
///
/// Panics if a named benchmark profile disappears from
/// [`crate::all_benchmarks`] — the presets are part of the golden contract.
pub fn presets() -> Vec<Scenario> {
    let bench = |name: &str| {
        SegmentKind::Benchmark(benchmark_named(name).unwrap_or_else(|| panic!("profile {name}")))
    };
    vec![
        Scenario::phased(
            "phased_compress_decode",
            vec![
                Phase::new(bench("gzip"), 10_000),
                Phase::new(bench("djpeg"), 10_000),
                Phase::new(bench("mcf"), 5_000),
            ],
        ),
        Scenario::mixed(
            "mixed_int_media_thrash",
            vec![
                MixPart::new(bench("gap"), 2),
                MixPart::new(bench("h263dec"), 2),
                MixPart::new(SegmentKind::TlbThrash(TlbThrashParams::default()), 1),
            ],
            48,
        ),
        Scenario::single(
            "tlb_thrash",
            SegmentKind::TlbThrash(TlbThrashParams::default()),
        ),
        Scenario::single(
            "bank_conflict",
            SegmentKind::BankConflict(BankConflictParams::default()),
        ),
        Scenario::single(
            "store_burst",
            SegmentKind::StoreBurst(StoreBurstParams::default()),
        ),
    ]
}

/// Finds a preset scenario by name.
pub fn preset_named(name: &str) -> Option<Scenario> {
    presets().into_iter().find(|s| s.name == name)
}

mod stable_impls {
    //! [`StableKey`] encodings of the workload types, so a scenario can be
    //! part of a persistent content-addressed cache key. Every field that
    //! shapes the generated instruction stream — and the reported workload
    //! name, which the run summary folds — is covered; enum variants carry
    //! explicit tags. Changing any encoding here invalidates persisted
    //! caches (the cache format version must be bumped alongside).

    use malec_types::stable::{StableHasher, StableKey};

    use super::{
        BankConflictParams, Composition, MixPart, Phase, Scenario, SegmentKind, StoreBurstParams,
        TlbThrashParams,
    };
    use crate::profile::BenchmarkProfile;

    impl StableKey for BenchmarkProfile {
        fn fold(&self, h: &mut StableHasher) {
            // The name identifies the calibrated profile; the parameters are
            // folded too, so retuning a profile in a future version changes
            // the key instead of silently serving stale cached results.
            h.write_str(self.name);
            h.write_str(self.suite.name());
            h.write_f64(self.mem_fraction);
            h.write_f64(self.load_share);
            h.write_u8(self.streams);
            h.write_f64(self.stream_switch_prob);
            h.write_f64(self.page_run_mean);
            h.write_u32(self.stride_bytes);
            h.write_u32(self.working_set_pages);
            h.write_f64(self.page_reuse_prob);
            h.write_f64(self.addr_dep_prob);
            h.write_f64(self.dep_prob);
            h.write_f64(self.long_op_fraction);
            h.write_f64(self.branch_fraction);
            h.write_f64(self.mispredict_rate);
        }
    }

    impl StableKey for TlbThrashParams {
        fn fold(&self, h: &mut StableHasher) {
            h.write_u32(self.pages);
            h.write_u32(self.lines_per_page);
            h.write_f64(self.load_fraction);
        }
    }

    impl StableKey for BankConflictParams {
        fn fold(&self, h: &mut StableHasher) {
            h.write_u32(self.stride_lines);
            h.write_u32(self.pages);
        }
    }

    impl StableKey for StoreBurstParams {
        fn fold(&self, h: &mut StableHasher) {
            h.write_u32(self.burst);
            h.write_u32(self.loads_after);
            h.write_u32(self.lines_back);
            h.write_u32(self.gap);
            h.write_u32(self.pages);
        }
    }

    impl StableKey for SegmentKind {
        fn fold(&self, h: &mut StableHasher) {
            match self {
                SegmentKind::Benchmark(p) => {
                    h.write_u8(0);
                    p.fold(h);
                }
                SegmentKind::TlbThrash(p) => {
                    h.write_u8(1);
                    p.fold(h);
                }
                SegmentKind::BankConflict(p) => {
                    h.write_u8(2);
                    p.fold(h);
                }
                SegmentKind::StoreBurst(p) => {
                    h.write_u8(3);
                    p.fold(h);
                }
            }
        }
    }

    impl StableKey for Phase {
        fn fold(&self, h: &mut StableHasher) {
            self.kind.fold(h);
            h.write_u64(self.insts);
        }
    }

    impl StableKey for MixPart {
        fn fold(&self, h: &mut StableHasher) {
            self.kind.fold(h);
            h.write_u64(u64::from(self.weight));
        }
    }

    impl StableKey for Scenario {
        fn fold(&self, h: &mut StableHasher) {
            // The name feeds both the per-segment sub-seeds and the summary's
            // workload field, so it is part of the behavioral identity.
            h.write_str(&self.name);
            match &self.composition {
                Composition::Phased(phases) => {
                    h.write_u8(0);
                    h.write_u64(phases.len() as u64);
                    for p in phases {
                        p.fold(h);
                    }
                }
                Composition::Mixed { parts, block } => {
                    h.write_u8(1);
                    h.write_u64(parts.len() as u64);
                    for p in parts {
                        p.fold(h);
                    }
                    h.write_u64(u64::from(*block));
                }
                Composition::Benchmark(p) => {
                    h.write_u8(2);
                    p.fold(h);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(s: &Scenario, seed: u64, n: usize) -> Vec<TraceInst> {
        s.generator(seed).take(n).collect()
    }

    #[test]
    fn every_preset_is_seed_deterministic() {
        for s in presets() {
            assert_eq!(take(&s, 11, 4_000), take(&s, 11, 4_000), "{}", s.name);
            assert_ne!(
                take(&s, 11, 4_000),
                take(&s, 12, 4_000),
                "{}: different seeds should differ",
                s.name
            );
        }
    }

    #[test]
    fn a_bare_benchmark_is_the_profile_stream_under_the_given_seed() {
        let gzip = benchmark_named("gzip").unwrap();
        let bare = Scenario::benchmark(gzip.clone());
        assert_eq!(bare.name, "gzip");
        assert_eq!(bare.segment_labels(), ["gzip"]);
        let direct: Vec<TraceInst> = WorkloadGenerator::new(&gzip, 11).take(4_000).collect();
        assert_eq!(take(&bare, 11, 4_000), direct, "no sub-seed");
    }

    #[test]
    fn phased_switches_at_exact_boundaries() {
        let gzip = benchmark_named("gzip").unwrap();
        let scenario = Scenario::phased(
            "boundary",
            vec![
                Phase::new(SegmentKind::Benchmark(gzip.clone()), 100),
                Phase::new(SegmentKind::StoreBurst(StoreBurstParams::default()), 50),
            ],
        );
        // The first 100 instructions must be exactly the profile stream of
        // the phase's sub-seed, untouched by the second phase.
        let insts = take(&scenario, 3, 100);
        let solo = Scenario::phased(
            "boundary",
            vec![Phase::new(SegmentKind::Benchmark(gzip), 100)],
        );
        assert_eq!(insts, take(&solo, 3, 100));
    }

    #[test]
    fn phased_cycles_after_the_last_phase() {
        let scenario = Scenario::phased(
            "cycle",
            vec![
                Phase::new(SegmentKind::TlbThrash(TlbThrashParams::default()), 40),
                Phase::new(SegmentKind::StoreBurst(StoreBurstParams::default()), 40),
            ],
        );
        // Drawing far beyond the phase sum must keep producing instructions.
        let insts = take(&scenario, 5, 1_000);
        assert_eq!(insts.len(), 1_000);
        assert!(insts.iter().any(TraceInst::is_store), "burst phase reached");
        assert!(insts.iter().any(TraceInst::is_load));
    }

    #[test]
    fn mixed_respects_weights_at_block_grain() {
        let scenario = Scenario::mixed(
            "weights",
            vec![
                MixPart::new(SegmentKind::StoreBurst(StoreBurstParams::default()), 3),
                MixPart::new(SegmentKind::TlbThrash(TlbThrashParams::default()), 1),
            ],
            10,
        );
        // One full round = 4 blocks of 10: 30 burst insts then 10 thrash.
        // Stores only ever come from the burst part.
        let insts = take(&scenario, 9, 40);
        assert!(
            insts[..30].iter().any(TraceInst::is_store),
            "burst part leads the round"
        );
        assert!(
            insts[30..].iter().all(|i| !i.is_store()),
            "thrash block contains no stores"
        );
    }

    #[test]
    fn tlb_thrash_cycles_a_pool_beyond_the_tlb_with_a_resident_footprint() {
        let s = preset_named("tlb_thrash").expect("preset exists");
        let insts = take(&s, 2, 20_000);
        let pages: std::collections::HashSet<u64> = insts
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| a.raw() >> 12)
            .collect();
        assert!(
            pages.len() > 200,
            "only {} pages (TLB holds 64)",
            pages.len()
        );
        // The *line* footprint stays small — the data fits the L1 while the
        // translations never fit the TLB.
        let lines: std::collections::HashSet<u64> = insts
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| a.raw() / LINE_BYTES)
            .collect();
        assert!(lines.len() <= 512, "{} lines exceed the L1", lines.len());
    }

    #[test]
    fn store_burst_read_backs_never_hit_the_line_being_written() {
        // Even when lines_back is a multiple of the span, the read-back
        // loads must land on a *different* line than the in-flight burst.
        let s = Scenario::single(
            "wrap",
            SegmentKind::StoreBurst(StoreBurstParams {
                pages: 1,
                lines_back: 64, // == span (1 page * 64 lines)
                ..Default::default()
            }),
        );
        let insts = take(&s, 3, 2_000);
        let mut burst_line = None;
        for i in &insts {
            match i {
                TraceInst::Store { vaddr, .. } => burst_line = Some(vaddr.raw() / LINE_BYTES),
                TraceInst::Load { vaddr, .. } => {
                    assert_ne!(
                        Some(vaddr.raw() / LINE_BYTES),
                        burst_line,
                        "read-back hit the burst line"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn tlb_thrash_visits_the_whole_pool_for_any_pool_size() {
        // The page stride must stay coprime with the pool, or pools
        // divisible by the stride silently shrink to a TLB-sized sub-pool.
        for pages in [96u32, 99, 256, 300] {
            let s = Scenario::single(
                format!("thrash{pages}"),
                SegmentKind::TlbThrash(TlbThrashParams {
                    pages,
                    ..Default::default()
                }),
            );
            let seen: std::collections::HashSet<u64> = take(&s, 2, 20_000)
                .iter()
                .filter_map(|i| i.vaddr())
                .map(|a| a.raw() >> 12)
                .collect();
            assert_eq!(seen.len(), pages as usize, "pool of {pages} not covered");
        }
    }

    #[test]
    fn bank_conflict_pins_one_bank() {
        let s = preset_named("bank_conflict").expect("preset exists");
        let banks: std::collections::HashSet<u64> = take(&s, 2, 5_000)
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| (a.raw() / LINE_BYTES) % 4)
            .collect();
        assert_eq!(banks.len(), 1, "stride 4 must stay on one of 4 banks");
    }

    #[test]
    fn store_burst_walks_lines_in_bursts() {
        let s = preset_named("store_burst").expect("preset exists");
        let insts = take(&s, 2, 5_000);
        let stores = insts.iter().filter(|i| i.is_store()).count();
        let loads = insts.iter().filter(|i| i.is_load()).count();
        assert!(stores > 1_000, "stores come in bursts: {stores}");
        assert!(loads > stores, "read-backs outnumber stores by default");
        // Consecutive memory references overwhelmingly share a line (the
        // store run and the load run each stay on one line).
        let lines: Vec<u64> = insts
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| a.raw() / LINE_BYTES)
            .collect();
        let same =
            lines.windows(2).filter(|w| w[0] == w[1]).count() as f64 / (lines.len() - 1) as f64;
        assert!(same > 0.8, "same-line adjacency only {same}");
    }

    #[test]
    fn adversarial_addresses_fit_32_bits() {
        for s in presets() {
            for inst in take(&s, 1, 20_000) {
                if let Some(a) = inst.vaddr() {
                    assert!(a.raw() < (1 << 32), "{}: {:#x}", s.name, a.raw());
                }
            }
        }
    }

    #[test]
    fn adversarial_regions_are_disjoint_from_every_benchmark_region() {
        use crate::all_benchmarks;
        // Benchmarks hash into slots 0-13; adversaries own slots 14-15.
        for b in all_benchmarks() {
            let end = b.vaddr_base() + u64::from(b.working_set_pages) * PAGE_BYTES + PAGE_BYTES;
            assert!(end <= 14 << 28, "{} reaches the adversarial slots", b.name);
        }
        for (name, kind) in [
            ("tlb_thrash", SegmentKind::TlbThrash(Default::default())),
            (
                "bank_conflict",
                SegmentKind::BankConflict(Default::default()),
            ),
            ("store_burst", SegmentKind::StoreBurst(Default::default())),
        ] {
            let s = Scenario::single(name, kind);
            for inst in take(&s, 1, 10_000) {
                if let Some(a) = inst.vaddr() {
                    assert!(
                        a.raw() >= 14 << 28,
                        "{name}: {:#x} in benchmark space",
                        a.raw()
                    );
                }
            }
        }
        // And the two slot-15 tenants stay in their own halves.
        let bc = Scenario::single("bc", SegmentKind::BankConflict(Default::default()));
        let sb = Scenario::single("sb", SegmentKind::StoreBurst(Default::default()));
        let bc_max = take(&bc, 1, 10_000)
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| a.raw())
            .max()
            .unwrap();
        let sb_min = take(&sb, 1, 10_000)
            .iter()
            .filter_map(|i| i.vaddr())
            .map(|a| a.raw())
            .min()
            .unwrap();
        assert!(
            bc_max < sb_min,
            "slot-15 halves overlap: {bc_max:#x} vs {sb_min:#x}"
        );
    }

    #[test]
    fn preset_names_are_unique_and_lookup_works() {
        let names: Vec<String> = presets().into_iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(preset_named("store_burst").is_some());
        assert!(preset_named("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "needs phases")]
    fn empty_phased_scenario_rejected() {
        let _ = Scenario::phased("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_block_mixed_rejected() {
        let _ = Scenario::mixed(
            "zero",
            vec![MixPart::new(SegmentKind::TlbThrash(Default::default()), 1)],
            0,
        );
    }

    #[test]
    fn segment_labels_follow_composition() {
        let s = preset_named("mixed_int_media_thrash").unwrap();
        assert_eq!(s.segment_labels(), ["gap", "h263dec", "tlb_thrash"]);
    }
}

#[cfg(test)]
mod stable_tests {
    use malec_types::stable::stable_key;

    use super::{preset_named, presets, Phase, Scenario, SegmentKind, TlbThrashParams};

    #[test]
    fn preset_keys_are_distinct_and_reproducible() {
        let keys: Vec<u128> = presets().iter().map(stable_key).collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "two presets share a cache key");
            }
        }
        let again: Vec<u128> = presets().iter().map(stable_key).collect();
        assert_eq!(keys, again, "keys must be stable across derivations");
    }

    #[test]
    fn key_tracks_name_and_structure() {
        let base = preset_named("tlb_thrash").expect("preset");
        let renamed = Scenario::single(
            "tlb_thrash_2",
            SegmentKind::TlbThrash(TlbThrashParams::default()),
        );
        assert_ne!(
            stable_key(&base),
            stable_key(&renamed),
            "the name feeds sub-seeds and the summary, so it must key"
        );
        let longer = Scenario::phased(
            "tlb_thrash",
            vec![Phase::new(
                SegmentKind::TlbThrash(TlbThrashParams::default()),
                1_000,
            )],
        );
        assert_ne!(stable_key(&base), stable_key(&longer), "phase length keys");
        let mut tweaked = TlbThrashParams::default();
        tweaked.pages += 1;
        let tweaked = Scenario::single("tlb_thrash", SegmentKind::TlbThrash(tweaked));
        assert_ne!(stable_key(&base), stable_key(&tweaked), "params key");
    }
}
