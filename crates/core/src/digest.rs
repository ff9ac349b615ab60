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
//! [`summary_to_bytes`] / [`read_summary`] are the compact little-endian codec
//! the cache's append-only log uses to persist summaries across restarts.
//! The round trip is lossless: `read(write(s))` digests identically to `s`.

use std::io::{self, Read, Write};

use malec_cpu::CoreStats;
use malec_energy::{intern_structure_name, EnergyBreakdown, EnergyCounters, StructureEnergy};
use malec_trace::Suite;
use malec_types::stable::fnv1a64;

use crate::metrics::{InterfaceStats, RunSummary};
use crate::source::{REPLAY_SUITE, SCENARIO_SUITE};

/// Every `u64` field of a summary's core statistics, interface statistics
/// and energy counters, in digest/codec order: the one list [`digest`], the
/// codec writer and [`read_summary`] walk.
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

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    write_u64(w, v.to_bits())
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

/// Strings in a summary are short labels; anything longer is corruption,
/// and bounding the length keeps a corrupt log from asking for a huge
/// allocation.
const MAX_STR: u32 = 4096;

fn read_str(r: &mut impl Read) -> io::Result<String> {
    let len = read_u32(r)?;
    if len > MAX_STR {
        return Err(bad(format!(
            "summary string length {len} exceeds {MAX_STR}"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("summary string is not UTF-8"))
}

/// Maps a decoded suite display name back to its canonical `&'static str`.
fn intern_suite(name: &str) -> Option<&'static str> {
    [
        Suite::SpecInt.name(),
        Suite::SpecFp.name(),
        Suite::MediaBench2.name(),
        SCENARIO_SUITE,
        REPLAY_SUITE,
    ]
    .into_iter()
    .find(|&s| s == name)
}

/// Serializes `s` to the compact little-endian wire form.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
fn write_summary(w: &mut impl Write, s: &RunSummary) -> io::Result<()> {
    write_str(w, &s.config)?;
    write_str(w, &s.benchmark)?;
    write_str(w, s.suite)?;
    for v in u64_values(s) {
        write_u64(w, v)?;
    }
    write_f64(w, s.energy.dynamic)?;
    write_f64(w, s.energy.leakage)?;
    write_f64(w, s.energy.excluded_dynamic)?;
    write_u32(w, s.energy.structures.len() as u32)?;
    for st in &s.energy.structures {
        write_str(w, st.name)?;
        write_f64(w, st.dynamic)?;
        write_f64(w, st.leakage)?;
    }
    write_f64(w, s.l1_miss_rate)?;
    write_f64(w, s.l2_miss_rate)?;
    write_f64(w, s.utlb_miss_rate)
}

/// Deserializes one summary written by [`summary_to_bytes`].
///
/// # Errors
///
/// Returns `InvalidData` for unknown suite or structure names (a log
/// written by an incompatible version) and propagates I/O errors —
/// including `UnexpectedEof` for a truncated record.
pub fn read_summary(r: &mut impl Read) -> io::Result<RunSummary> {
    let config = read_str(r)?;
    let benchmark = read_str(r)?;
    let suite_name = read_str(r)?;
    let suite =
        intern_suite(&suite_name).ok_or_else(|| bad(format!("unknown suite `{suite_name}`")))?;

    let (mut core, mut interface, mut counters) = Default::default();
    for slot in u64_fields(&mut core, &mut interface, &mut counters) {
        *slot = read_u64(r)?;
    }

    let dynamic = read_f64(r)?;
    let leakage = read_f64(r)?;
    let excluded_dynamic = read_f64(r)?;
    let n_structures = read_u32(r)?;
    if n_structures > 64 {
        return Err(bad(format!("implausible structure count {n_structures}")));
    }
    let mut structures = Vec::with_capacity(n_structures as usize);
    for _ in 0..n_structures {
        let name = read_str(r)?;
        let name = intern_structure_name(&name)
            .ok_or_else(|| bad(format!("unknown energy structure `{name}`")))?;
        structures.push(StructureEnergy {
            name,
            dynamic: read_f64(r)?,
            leakage: read_f64(r)?,
        });
    }

    Ok(RunSummary {
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
        l1_miss_rate: read_f64(r)?,
        l2_miss_rate: read_f64(r)?,
        utlb_miss_rate: read_f64(r)?,
    })
}

/// Serializes `s` to the compact little-endian wire form.
pub fn summary_to_bytes(s: &RunSummary) -> Vec<u8> {
    let mut buf = Vec::with_capacity(512);
    write_summary(&mut buf, s).expect("writing to a Vec cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScenarioSource, Simulator};
    use malec_trace::benchmark_named;
    use malec_trace::scenario::preset_named;
    use malec_types::SimConfig;

    fn sample(config: SimConfig) -> RunSummary {
        let gzip = benchmark_named("gzip").expect("gzip exists");
        Simulator::new(config).run(&gzip, 3_000, 7)
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
            let back = read_summary(&mut bytes.as_slice()).expect("decodes");
            assert_eq!(back.config, s.config);
            assert_eq!(back.benchmark, s.benchmark);
            assert_eq!(back.suite, s.suite);
            assert_eq!(back.core, s.core);
            assert_eq!(back.interface, s.interface);
            assert_eq!(back.counters, s.counters);
            assert_eq!(back.energy, s.energy);
            assert_eq!(back.l1_miss_rate.to_bits(), s.l1_miss_rate.to_bits());
            assert_eq!(digest(&back), digest(&s), "roundtrip preserves the digest");
        }
    }

    #[test]
    fn codec_roundtrips_scenario_summaries() {
        let scenario = preset_named("store_burst").expect("preset");
        let s = Simulator::new(SimConfig::malec())
            .run_source(&ScenarioSource::Scenario(scenario), 4_000, 2013)
            .expect("generator sources cannot fail");
        let bytes = summary_to_bytes(&s);
        let back = read_summary(&mut bytes.as_slice()).expect("decodes");
        assert_eq!(back.suite, crate::source::SCENARIO_SUITE);
        assert_eq!(digest(&back), digest(&s));
    }

    #[test]
    fn truncated_and_corrupt_records_error_cleanly() {
        let s = sample(SimConfig::malec());
        let bytes = summary_to_bytes(&s);
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                read_summary(&mut &bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        // An unknown suite name is an InvalidData error, not a panic.
        let mut forged = Vec::new();
        write_str(&mut forged, "MALEC").unwrap();
        write_str(&mut forged, "gzip").unwrap();
        write_str(&mut forged, "No-Such-Suite").unwrap();
        forged.extend_from_slice(&[0u8; 8 * 44]);
        let err = read_summary(&mut forged.as_slice()).expect_err("must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_string_is_rejected_without_allocating() {
        let mut forged = Vec::new();
        write_u32(&mut forged, u32::MAX).unwrap();
        let err = read_summary(&mut forged.as_slice()).expect_err("must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
