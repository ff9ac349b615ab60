//! Behavioral digest and binary codec for [`RunSummary`] — the shared
//! foundation of the golden tables, replay verification, and the
//! `malec-serve` result cache.
//!
//! [`digest`] folds every behavioral field of a summary — core statistics,
//! interface statistics, all energy event counters, the priced energy (bit
//! pattern) and the miss rates (bit patterns) — into a single FNV-1a value.
//! Two summaries digest equal **iff** their behavioral content is
//! bit-identical, which is what lets a content-addressed cache return a
//! stored summary in place of a simulation: the generator is deterministic,
//! so one key maps to one digest forever. The golden tables, replay
//! verification and the cache share this one implementation.
//!
//! [`summary_to_bytes`] / [`summary_from_bytes`] are the compact codec the
//! cache holds every cell in, in memory and in its append-only log. The
//! v4 body:
//!
//! ```text
//! config      str          — LEB128 byte length, then UTF-8 (≤ MAX_STR)
//! benchmark   str
//! suite       u8           — index into the five suite names
//! counters    44 × varint  — LEB128, shortest form, in `u64_fields` order
//! energy      3 × f64      — dynamic, leakage, excluded dynamic
//! structures  u8 count (≤ 64), then per structure: u8 index into
//!             malec_energy::STRUCTURE_NAMES, f64 dynamic, f64 leakage
//! miss rates  3 × f64      — L1, L2, uTLB
//! ```
//!
//! Every `f64` is its raw bit pattern, little-endian, so NaN payloads and
//! `-0.0` survive. A body runs about 200–300 bytes, against about 560–600
//! for v3's fixed-width words. The round trip is lossless, and each value
//! has exactly one encoding: an overlong or overflowing varint, an unknown
//! index and trailing bytes are all `InvalidData`.

use std::io;

use malec_cpu::CoreStats;
use malec_energy::{EnergyBreakdown, EnergyCounters, StructureEnergy, STRUCTURE_NAMES};
use malec_trace::Suite;
use malec_types::stable::fnv1a64;

use crate::metrics::{InterfaceStats, RunSummary};
use crate::source::{REPLAY_SUITE, SCENARIO_SUITE};

/// Every `u64` field of a summary's core statistics, interface statistics
/// and energy counters, in digest/codec order: the one list [`digest`], the
/// codec writer and [`summary_from_bytes`] walk.
fn u64_fields<'a>(
    c: &'a mut CoreStats,
    i: &'a mut InterfaceStats,
    k: &'a mut EnergyCounters,
) -> [&'a mut u64; 44] {
    [
        &mut c.cycles,
        &mut c.committed,
        &mut c.loads,
        &mut c.stores,
        &mut c.branches,
        &mut c.agu_stall_cycles,
        &mut c.issued_ops,
        &mut i.loads_serviced,
        &mut i.merged_loads,
        &mut i.stores_accepted,
        &mut i.mbe_writes,
        &mut i.groups,
        &mut i.group_loads,
        &mut i.reduced_accesses,
        &mut i.conventional_accesses,
        &mut i.held_load_cycles,
        &mut i.translations,
        &mut i.store_translations_shared,
        &mut k.l1_tag_bank_reads,
        &mut k.l1_data_subblock_reads,
        &mut k.l1_data_subblock_writes,
        &mut k.l1_tag_bank_writes,
        &mut k.utlb_lookups,
        &mut k.utlb_fills,
        &mut k.utlb_reverse_lookups,
        &mut k.tlb_lookups,
        &mut k.tlb_fills,
        &mut k.tlb_reverse_lookups,
        &mut k.uwt_reads,
        &mut k.uwt_writes,
        &mut k.uwt_bit_updates,
        &mut k.wt_reads,
        &mut k.wt_writes,
        &mut k.wt_bit_updates,
        &mut k.wdu_lookups,
        &mut k.wdu_writes,
        &mut k.sb_lookups_full,
        &mut k.sb_lookups_page_segment,
        &mut k.sb_lookups_narrow,
        &mut k.mb_lookups_full,
        &mut k.mb_lookups_page_segment,
        &mut k.mb_lookups_narrow,
        &mut k.input_buffer_compares,
        &mut k.arbitration_compares,
    ]
}

/// The values of [`u64_fields`] for `s`.
fn u64_values(s: &RunSummary) -> [u64; 44] {
    let (mut c, mut i, mut k) = (s.core, s.interface, s.counters);
    u64_fields(&mut c, &mut i, &mut k).map(|v| *v)
}

/// FNV-1a digest over every behavioral field of `s`: each name byte, each
/// `u64` field and each priced `f64`'s bit pattern folds in as one word.
pub fn digest(s: &RunSummary) -> u64 {
    let names = s.config.bytes().chain(s.benchmark.bytes()).map(u64::from);
    let bits = [
        s.energy.dynamic,
        s.energy.leakage,
        s.l1_miss_rate,
        s.l2_miss_rate,
        s.utlb_miss_rate,
    ]
    .map(f64::to_bits);
    fnv1a64(names.chain(u64_values(s)).chain(bits))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Strings in a summary are short labels: the spec parser refuses longer
/// scenario names, so every summary the engine produces encodes within it.
/// A longer length in a body is corruption.
pub const MAX_STR: usize = 4096;

/// At most this many energy structures; a larger count is corruption.
const MAX_STRUCTURES: u8 = 64;

/// The suite names a summary can carry, in codec index order. Append
/// only: an index is persisted in every cache body.
const SUITES: [&str; 5] = [
    Suite::SpecInt.name(),
    Suite::SpecFp.name(),
    Suite::MediaBench2.name(),
    SCENARIO_SUITE,
    REPLAY_SUITE,
];

/// The index of `name` in `list`, as one codec byte.
fn index_of(list: &[&str], name: &str, what: &str) -> u8 {
    let i = list
        .iter()
        .position(|&n| n == name)
        .unwrap_or_else(|| panic!("{what} `{name}` is not in its canonical list"));
    i as u8
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= MAX_STR, "a {}-byte summary string", s.len());
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The v4 body of `s` (see the module docs).
///
/// # Panics
///
/// If `s` holds what [`summary_from_bytes`] would refuse: a suite or
/// energy-structure name outside its canonical list, more than 64
/// structures, or a string over [`MAX_STR`] bytes. The simulator produces
/// none of these, and the spec parser bounds scenario names, so a panic
/// here is a bug, raised where the summary is made rather than where it
/// is next read.
pub fn summary_to_bytes(s: &RunSummary) -> Vec<u8> {
    let mut out = Vec::with_capacity(320);
    put_str(&mut out, &s.config);
    put_str(&mut out, &s.benchmark);
    out.push(index_of(&SUITES, s.suite, "suite"));
    for v in u64_values(s) {
        put_varint(&mut out, v);
    }
    put_f64(&mut out, s.energy.dynamic);
    put_f64(&mut out, s.energy.leakage);
    put_f64(&mut out, s.energy.excluded_dynamic);
    let n = s.energy.structures.len();
    assert!(n <= usize::from(MAX_STRUCTURES), "{n} energy structures");
    out.push(n as u8);
    for st in &s.energy.structures {
        out.push(index_of(STRUCTURE_NAMES, st.name, "energy structure"));
        put_f64(&mut out, st.dynamic);
        put_f64(&mut out, st.leakage);
    }
    put_f64(&mut out, s.l1_miss_rate);
    put_f64(&mut out, s.l2_miss_rate);
    put_f64(&mut out, s.utlb_miss_rate);
    out
}

/// A read position in one body.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "summary body is truncated",
            ));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn byte(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// One LEB128 varint in its shortest form.
    fn varint(&mut self) -> io::Result<u64> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(bad("varint overflows u64"));
            }
            value |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return if b == 0 && shift > 0 {
                    Err(bad("overlong varint"))
                } else {
                    Ok(value)
                };
            }
            shift += 7;
        }
    }

    fn f64(&mut self) -> io::Result<f64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.varint()?;
        if len > MAX_STR as u64 {
            return Err(bad(format!(
                "summary string length {len} exceeds {MAX_STR}"
            )));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("summary string is not UTF-8"))
    }

    /// One index byte into `list`.
    fn name(&mut self, list: &[&'static str], what: &str) -> io::Result<&'static str> {
        let i = self.byte()?;
        list.get(usize::from(i))
            .copied()
            .ok_or_else(|| bad(format!("unknown {what} index {i}")))
    }
}

/// Decodes one v4 body, which must be consumed exactly.
///
/// # Errors
///
/// `UnexpectedEof` for a truncated body; `InvalidData` for an overlong or
/// overflowing varint, a string past [`MAX_STR`] or not UTF-8, an unknown
/// suite or structure index, more than 64 structures, or trailing bytes.
pub fn summary_from_bytes(body: &[u8]) -> io::Result<RunSummary> {
    let mut r = Cursor(body);
    let config = r.str()?;
    let benchmark = r.str()?;
    let suite = r.name(&SUITES, "suite")?;

    let (mut core, mut interface, mut counters) = Default::default();
    for slot in u64_fields(&mut core, &mut interface, &mut counters) {
        *slot = r.varint()?;
    }

    let dynamic = r.f64()?;
    let leakage = r.f64()?;
    let excluded_dynamic = r.f64()?;
    let n_structures = r.byte()?;
    if n_structures > MAX_STRUCTURES {
        return Err(bad(format!("implausible structure count {n_structures}")));
    }
    let mut structures = Vec::with_capacity(usize::from(n_structures));
    for _ in 0..n_structures {
        structures.push(StructureEnergy {
            name: r.name(STRUCTURE_NAMES, "energy structure")?,
            dynamic: r.f64()?,
            leakage: r.f64()?,
        });
    }

    let summary = RunSummary {
        config,
        benchmark,
        suite,
        core,
        interface,
        counters,
        energy: EnergyBreakdown {
            dynamic,
            leakage,
            structures,
            excluded_dynamic,
        },
        l1_miss_rate: r.f64()?,
        l2_miss_rate: r.f64()?,
        utlb_miss_rate: r.f64()?,
    };
    if !r.0.is_empty() {
        return Err(bad(format!(
            "{} trailing byte(s) after the summary body",
            r.0.len()
        )));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioSource, Simulator};
    use malec_trace::benchmark_named;
    use malec_trace::scenario::preset_named;
    use malec_trace::splitmix64;
    use malec_types::SimConfig;
    use proptest::prelude::*;

    fn sample(config: SimConfig) -> RunSummary {
        let gzip = benchmark_named("gzip").expect("gzip exists");
        Simulator::new(config).run(&gzip, 3_000, 7)
    }

    /// Field-for-field equality, every `f64` by bit pattern, plus the
    /// digest.
    fn assert_same(back: &RunSummary, s: &RunSummary) {
        assert_eq!(back.config, s.config);
        assert_eq!(back.benchmark, s.benchmark);
        assert_eq!(back.suite, s.suite);
        assert_eq!(back.core, s.core);
        assert_eq!(back.interface, s.interface);
        assert_eq!(back.counters, s.counters);
        let bits = |x: &RunSummary| {
            let e = &x.energy;
            let mut v = vec![e.dynamic, e.leakage, e.excluded_dynamic];
            v.extend([x.l1_miss_rate, x.l2_miss_rate, x.utlb_miss_rate]);
            for st in &e.structures {
                v.extend([st.dynamic, st.leakage]);
            }
            v.into_iter().map(f64::to_bits).collect::<Vec<_>>()
        };
        assert_eq!(bits(back), bits(s));
        let names = |x: &RunSummary| {
            x.energy
                .structures
                .iter()
                .map(|st| st.name)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(back), names(s));
        assert_eq!(digest(back), digest(s), "roundtrip preserves the digest");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = sample(SimConfig::malec());
        let b = sample(SimConfig::malec());
        assert_eq!(digest(&a), digest(&b), "same run, same digest");
        let mut c = a.clone();
        c.counters.utlb_lookups += 1;
        assert_ne!(digest(&a), digest(&c), "one counter flips the digest");
        let mut d = a.clone();
        d.benchmark.push('x');
        assert_ne!(digest(&a), digest(&d), "the workload name is folded");
    }

    #[test]
    fn codec_roundtrip_is_lossless_for_every_interface() {
        for cfg in [
            SimConfig::base1ldst(),
            SimConfig::base2ld1st(),
            SimConfig::malec(),
        ] {
            let s = sample(cfg);
            let bytes = summary_to_bytes(&s);
            assert!(
                bytes.len() < 320,
                "a v4 body is compact: {} bytes",
                bytes.len()
            );
            assert_same(&summary_from_bytes(&bytes).expect("decodes"), &s);
        }
    }

    #[test]
    fn codec_roundtrips_scenario_summaries() {
        let scenario = preset_named("store_burst").expect("preset");
        let s = Simulator::new(SimConfig::malec())
            .run_source(&ScenarioSource::Scenario(scenario), 4_000, 2013)
            .expect("generator sources cannot fail");
        let bytes = summary_to_bytes(&s);
        let back = summary_from_bytes(&bytes).expect("decodes");
        assert_eq!(back.suite, crate::source::SCENARIO_SUITE);
        assert_same(&back, &s);
    }

    /// A splitmix64 stream for drawing test summaries.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }

        /// A NaN with a payload, ±0.0, an infinity or any bit pattern.
        fn float(&mut self) -> f64 {
            let r = self.next();
            f64::from_bits(match r % 6 {
                0 => f64::NAN.to_bits() | (r >> 20 & 0xF_FFFF),
                1 => (-0.0f64).to_bits(),
                2 => 0,
                3 => f64::NEG_INFINITY.to_bits(),
                _ => r,
            })
        }

        /// Empty, `MAX_STR` bytes of two-byte characters, or short.
        fn name(&mut self) -> String {
            match self.next() % 3 {
                0 => String::new(),
                1 => "é".repeat(MAX_STR / 2),
                _ => format!("cell-{}", self.next()),
            }
        }
    }

    /// A summary drawn from `seed`: each counter 0, `u64::MAX`, small or
    /// any; each `f64` from [`Draw::float`]; a random subset of the seven
    /// structures; names from [`Draw::name`]; any of the five suites.
    fn arbitrary(seed: u64) -> RunSummary {
        let mut d = Draw(seed);
        let mut s = sample(SimConfig::malec());
        let (mut c, mut i, mut k) = (s.core, s.interface, s.counters);
        for v in u64_fields(&mut c, &mut i, &mut k) {
            let r = d.next();
            *v = match r % 4 {
                0 => 0,
                1 => u64::MAX,
                2 => r >> 50,
                _ => d.next(),
            };
        }
        (s.core, s.interface, s.counters) = (c, i, k);
        s.energy.dynamic = d.float();
        s.energy.leakage = d.float();
        s.energy.excluded_dynamic = d.float();
        s.l1_miss_rate = d.float();
        s.l2_miss_rate = d.float();
        s.utlb_miss_rate = d.float();
        let mask = d.next();
        s.energy.structures = STRUCTURE_NAMES
            .iter()
            .enumerate()
            .filter(|&(j, _)| mask >> j & 1 == 1)
            .map(|(_, &name)| StructureEnergy {
                name,
                dynamic: d.float(),
                leakage: d.float(),
            })
            .collect();
        s.config = d.name();
        s.benchmark = d.name();
        s.suite = SUITES[(d.next() % SUITES.len() as u64) as usize];
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_codec_roundtrip_is_field_for_field_lossless(seed in proptest::num::u64::ANY) {
            let s = arbitrary(seed);
            let bytes = summary_to_bytes(&s);
            assert_same(&summary_from_bytes(&bytes).expect("decodes"), &s);
            prop_assert_eq!(summary_to_bytes(&summary_from_bytes(&bytes).expect("decodes")), bytes);
        }
    }

    #[test]
    fn the_extremes_round_trip() {
        let mut s = arbitrary(0);
        (s.config, s.benchmark) = (String::new(), "x".repeat(MAX_STR));
        s.core.cycles = u64::MAX;
        s.counters.wt_reads = 0;
        s.energy.structures.clear();
        s.l1_miss_rate = -0.0;
        s.l2_miss_rate = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_same(
            &summary_from_bytes(&summary_to_bytes(&s)).expect("decodes"),
            &s,
        );
        s.energy.structures = STRUCTURE_NAMES
            .iter()
            .map(|&name| StructureEnergy {
                name,
                dynamic: 1.0,
                leakage: -0.0,
            })
            .collect();
        assert_same(
            &summary_from_bytes(&summary_to_bytes(&s)).expect("decodes"),
            &s,
        );
    }

    #[test]
    fn varints_are_shortest_form_leb128() {
        for (v, want) in [
            (0u64, vec![0x00]),
            (1, vec![0x01]),
            (127, vec![0x7f]),
            (128, vec![0x80, 0x01]),
            (300, vec![0xac, 0x02]),
            (u64::MAX, [vec![0xff; 9], vec![0x01]].concat()),
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out, want, "{v}");
            let mut r = Cursor(&out);
            assert_eq!(r.varint().expect("decodes"), v);
            assert!(r.0.is_empty());
        }
    }

    /// A body whose fields up to the counters are valid: config, benchmark
    /// and a suite index, then `rest`.
    fn forged(suite: u8, rest: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        put_str(&mut b, "MALEC");
        put_str(&mut b, "gzip");
        b.push(suite);
        b.extend_from_slice(rest);
        b
    }

    /// The body of `sample` with the structure section replaced by
    /// `structures` (count byte included).
    fn with_structures(structures: &[u8]) -> Vec<u8> {
        let mut s = sample(SimConfig::malec());
        s.energy.structures.clear();
        let mut b = summary_to_bytes(&s);
        let tail = 3 * 8;
        let at = b.len() - tail - 1;
        let rates = b.split_off(at + 1);
        b.truncate(at);
        b.extend_from_slice(structures);
        b.extend_from_slice(&rates);
        b
    }

    fn rejects(body: &[u8], kind: io::ErrorKind, words: &str) {
        let err = summary_from_bytes(body).expect_err("must be refused");
        assert_eq!(err.kind(), kind, "{err}");
        assert!(err.to_string().contains(words), "{err}");
    }

    #[test]
    fn malformed_bodies_are_refused() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        // An overlong varint: 0 written in two bytes.
        rejects(&forged(0, &[0x80, 0x00]), InvalidData, "overlong varint");
        // A varint past u64: ten bytes whose last carries bit 64.
        let past = [vec![0xff; 9], vec![0x02]].concat();
        rejects(&forged(0, &past), InvalidData, "overflows u64");
        let eleven = [vec![0xff; 10], vec![0x01]].concat();
        rejects(&forged(0, &eleven), InvalidData, "overflows u64");
        // Suite indices past the five names.
        rejects(&forged(5, &[]), InvalidData, "unknown suite index 5");
        rejects(&forged(0xff, &[]), InvalidData, "unknown suite index 255");
        // A structure index past the seven names, and a count over 64.
        let f = 0.5f64.to_bits().to_le_bytes();
        let unknown = [&[1u8, 7][..], &f, &f].concat();
        rejects(
            &with_structures(&unknown),
            InvalidData,
            "unknown energy structure index 7",
        );
        rejects(&with_structures(&[65]), InvalidData, "structure count 65");
        assert!(
            summary_from_bytes(&with_structures(&[0])).is_ok(),
            "the splice is sound"
        );
        // A string past MAX_STR, refused before any allocation.
        let mut long = Vec::new();
        put_varint(&mut long, u64::MAX >> 1);
        rejects(&long, InvalidData, "exceeds");
        // Truncation anywhere, and a trailing byte.
        let bytes = summary_to_bytes(&sample(SimConfig::malec()));
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            rejects(&bytes[..cut], UnexpectedEof, "truncated");
        }
        let trailing = [bytes.as_slice(), &[0]].concat();
        rejects(&trailing, InvalidData, "trailing");
    }
}
