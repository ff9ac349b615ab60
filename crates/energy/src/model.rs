//! Per-configuration structure instantiation and report building.
//!
//! Following Sec. VI-A of the paper, the accounted structures are the L1
//! data cache (tag and data arrays), uTLB+uWT and TLB+WT (plus the WDU when
//! it substitutes the way tables). LQ, SB and MB energy "is very similar for
//! all analyzed configurations" and is excluded from the headline totals —
//! their counters are still priced and reported separately so the
//! simplification can be inspected.

use malec_types::params::{ADDRESS_BITS, MB_ENTRIES, PAGE, SB_ENTRIES};
use malec_types::{PortConfig, SimConfig, WayDetermination};

use crate::counters::EnergyCounters;
use crate::sram::{CamArray, SramArray, C_CAM};

/// Dynamic/leakage energy attributed to one structure.
#[derive(Clone, PartialEq, Debug)]
pub struct StructureEnergy {
    /// Structure name (e.g. `"L1 tag arrays"`).
    pub name: &'static str,
    /// Dynamic energy over the run (model units).
    pub dynamic: f64,
    /// Leakage energy over the run (model units).
    pub leakage: f64,
}

impl StructureEnergy {
    /// Dynamic + leakage.
    pub fn total(&self) -> f64 {
        self.dynamic + self.leakage
    }
}

/// Evaluated energy of one simulation run.
#[derive(Clone, PartialEq, Debug)]
pub struct EnergyBreakdown {
    /// Total dynamic energy of the accounted structures.
    pub dynamic: f64,
    /// Total leakage energy of the accounted structures.
    pub leakage: f64,
    /// Per-structure split of the accounted totals.
    pub structures: Vec<StructureEnergy>,
    /// Energy of structures the paper excludes (LQ/SB/MB lookups, input
    /// buffer, arbitration comparators) — reported but not in the totals.
    pub excluded_dynamic: f64,
}

impl EnergyBreakdown {
    /// Dynamic + leakage of the accounted structures.
    pub fn total(&self) -> f64 {
        self.dynamic + self.leakage
    }
}

/// The canonical set of structure names [`EnergyModel::evaluate`] can
/// attribute energy to. The summary codec (`malec_core::digest`) writes
/// each structure as its index here and decodes the index back to the
/// `&'static str`, so [`StructureEnergy::name`] stays static even for
/// breakdowns loaded from a persisted result cache. Append only: reordering
/// changes the meaning of every persisted cache body.
pub const STRUCTURE_NAMES: &[&str] = &[
    "L1 tag arrays",
    "L1 data arrays",
    "uTLB",
    "TLB",
    "uWT",
    "WT",
    "WDU",
];

/// Energy model for one [`SimConfig`]: instantiates every accounted array
/// with the configuration's geometry and port counts, then prices an
/// [`EnergyCounters`] ledger.
///
/// # Example
///
/// ```
/// use malec_energy::{EnergyCounters, EnergyModel};
/// use malec_types::SimConfig;
///
/// let base = EnergyModel::for_config(&SimConfig::base1ldst());
/// let malec = EnergyModel::for_config(&SimConfig::malec());
/// let idle = EnergyCounters::default();
/// // MALEC leaks more at idle: the way tables are extra state.
/// assert!(malec.evaluate(&idle, 1000).leakage > base.evaluate(&idle, 1000).leakage);
/// ```
#[derive(Clone, Debug)]
pub struct EnergyModel {
    l1_tag_bank: SramArray,
    l1_data_way: SramArray,
    sub_block_bits: u64,
    l1_banks: u32,
    l1_ways: u32,
    utlb: CamArray,
    utlb_reverse: CamArray,
    tlb: CamArray,
    tlb_reverse: CamArray,
    utlb_entries: u64,
    tlb_entries: u64,
    uwt: Option<SramArray>,
    wt: Option<SramArray>,
    wdu: Option<CamArray>,
    sb_full: CamArray,
    sb_page: CamArray,
    sb_narrow: CamArray,
    mb_full: CamArray,
    mb_page: CamArray,
    mb_narrow: CamArray,
}

impl EnergyModel {
    /// Builds the model for a configuration.
    pub fn for_config(config: &SimConfig) -> Self {
        let page_bits = u64::from(ADDRESS_BITS - PAGE.page_offset_bits());
        let line_offset_bits = u64::from(PAGE.line_offset_bits());
        let in_page_line_bits = u64::from(ADDRESS_BITS) - page_bits - line_offset_bits;
        let cache_ports = config.cache_ports();
        let tlb_ports = config.tlb_ports();
        let tlb_read_ports = tlb_ports.read_capable();

        let l1 = config.l1;
        let tag_bits = u64::from(l1.tag_bits(ADDRESS_BITS));
        let line_bits = l1.line_bytes() * 8;
        // Tag bank: one row per set, all ways' tags (+state bits) in the row.
        let l1_tag_bank = SramArray::new(
            u64::from(l1.sets_per_bank()),
            (tag_bits + 2) * u64::from(l1.ways()),
            cache_ports,
        );
        // Data way: one row per set, a full line per row; sub-blocking means
        // an access activates only `sub_block_bits`-sized slices.
        let l1_data_way = SramArray::new(u64::from(l1.sets_per_bank()), line_bits, cache_ports);

        // TLB payload: physical page id + permission bits.
        let tlb_payload = page_bits + 4;
        let utlb = CamArray::new(
            u64::from(config.utlb_entries),
            page_bits,
            tlb_payload,
            tlb_read_ports,
        );
        let tlb = CamArray::new(
            u64::from(config.tlb_entries),
            page_bits,
            tlb_payload,
            tlb_read_ports,
        );
        // Reverse lookups: separate fully-associative physical tag arrays
        // over the same entries (Sec. VI-A), single-ported.
        let utlb_reverse = CamArray::new(u64::from(config.utlb_entries), page_bits, 0, 1);
        let tlb_reverse = CamArray::new(u64::from(config.tlb_entries), page_bits, 0, 1);

        // Way tables: 2 bits per line in the page, one entry per TLB entry.
        let wt_entry_bits = 2 * u64::from(PAGE.lines_per_page());
        let (uwt, wt, wdu) = match config.way_determination {
            WayDetermination::WayTables | WayDetermination::WayTablesNoFeedback => (
                Some(SramArray::new(
                    u64::from(config.utlb_entries),
                    wt_entry_bits,
                    PortConfig::SINGLE,
                )),
                Some(SramArray::new(
                    u64::from(config.tlb_entries),
                    wt_entry_bits,
                    PortConfig::SINGLE,
                )),
                None,
            ),
            WayDetermination::Wdu(entries) => (
                None,
                None,
                Some(CamArray::new(
                    u64::from(entries.max(1)),
                    // Line-granularity tags: everything above the line offset.
                    u64::from(ADDRESS_BITS) - line_offset_bits,
                    // Payload: validity + way id.
                    3,
                    // Four lookup ports for this MALEC configuration
                    // (Sec. VI-C).
                    4,
                )),
            ),
            WayDetermination::None => (None, None, None),
        };

        // Store/merge buffer lookup structures. Full-width comparators for
        // the baselines; split page-segment + narrow comparators for MALEC.
        let full_cmp_bits = u64::from(ADDRESS_BITS) - 2; // word-aligned
        let narrow_bits = in_page_line_bits + (line_offset_bits - 2);
        let sb_entries = u64::from(SB_ENTRIES);
        let mb_entries = u64::from(MB_ENTRIES);
        let sb_full = CamArray::new(sb_entries, full_cmp_bits, 0, 1);
        let sb_page = CamArray::new(sb_entries, page_bits, 0, 1);
        let sb_narrow = CamArray::new(sb_entries, narrow_bits, 0, 1);
        let mb_full = CamArray::new(mb_entries, full_cmp_bits, 0, 1);
        let mb_page = CamArray::new(mb_entries, page_bits, 0, 1);
        let mb_narrow = CamArray::new(mb_entries, narrow_bits, 0, 1);

        Self {
            l1_tag_bank,
            l1_data_way,
            sub_block_bits: u64::from(l1.sub_block_bits()),
            l1_banks: l1.banks(),
            l1_ways: l1.ways(),
            utlb,
            utlb_reverse,
            tlb,
            tlb_reverse,
            utlb_entries: u64::from(config.utlb_entries),
            tlb_entries: u64::from(config.tlb_entries),
            uwt,
            wt,
            wdu,
            sb_full,
            sb_page,
            sb_narrow,
            mb_full,
            mb_page,
            mb_narrow,
        }
    }

    /// Prices a counter ledger over `cycles` cycles of leakage.
    pub fn evaluate(&self, c: &EnergyCounters, cycles: u64) -> EnergyBreakdown {
        let cyc = cycles as f64;
        let mut structures = Vec::with_capacity(8);

        // --- L1 ---
        let tag_dyn = c.l1_tag_bank_reads as f64 * self.l1_tag_bank.read_energy(u64::MAX)
            + c.l1_tag_bank_writes as f64
                * self.l1_tag_bank.write_energy(self.l1_tag_bank.bits() / 32);
        let tag_leak = self.l1_tag_bank.leakage_per_cycle() * f64::from(self.l1_banks) * cyc;
        structures.push(StructureEnergy {
            name: "L1 tag arrays",
            dynamic: tag_dyn,
            leakage: tag_leak,
        });

        let sub_read = self.l1_data_way.read_energy(self.sub_block_bits);
        let sub_write = self.l1_data_way.write_energy(self.sub_block_bits);
        let data_dyn = c.l1_data_subblock_reads as f64 * sub_read
            + c.l1_data_subblock_writes as f64 * sub_write;
        let data_leak =
            self.l1_data_way.leakage_per_cycle() * f64::from(self.l1_banks * self.l1_ways) * cyc;
        structures.push(StructureEnergy {
            name: "L1 data arrays",
            dynamic: data_dyn,
            leakage: data_leak,
        });

        // --- TLBs (incl. reverse tag arrays) ---
        // Reverse (physical) tag arrays exist only to maintain way-table
        // validity; the baselines and the WDU variant do not pay for them.
        let has_reverse = self.uwt.is_some();
        let utlb_dyn = c.utlb_lookups as f64 * self.utlb.search_energy()
            + c.utlb_fills as f64 * self.utlb.write_energy()
            + c.utlb_reverse_lookups as f64 * self.utlb_reverse.search_tags_only_energy();
        let utlb_leak = (self.utlb.leakage_per_cycle()
            + if has_reverse {
                self.utlb_reverse.leakage_per_cycle()
            } else {
                0.0
            })
            * cyc;
        structures.push(StructureEnergy {
            name: "uTLB",
            dynamic: utlb_dyn,
            leakage: utlb_leak,
        });

        let tlb_dyn = c.tlb_lookups as f64 * self.tlb.search_energy()
            + c.tlb_fills as f64 * self.tlb.write_energy()
            + c.tlb_reverse_lookups as f64 * self.tlb_reverse.search_tags_only_energy();
        let tlb_leak = (self.tlb.leakage_per_cycle()
            + if has_reverse {
                self.tlb_reverse.leakage_per_cycle()
            } else {
                0.0
            })
            * cyc;
        structures.push(StructureEnergy {
            name: "TLB",
            dynamic: tlb_dyn,
            leakage: tlb_leak,
        });

        // --- Way determination ---
        // Way-info reads evaluate 2 bits per bank regardless of how many
        // references the entry services (Sec. V: "the energy consumed to
        // evaluate WT entries is independent of the number of memory
        // references to be serviced in parallel").
        let way_read_bits = u64::from(2 * self.l1_banks);
        if let Some(uwt) = &self.uwt {
            let entry_bits = uwt.bits() / self.utlb_entries;
            let dynamic = c.uwt_reads as f64 * uwt.read_energy(way_read_bits)
                + c.uwt_writes as f64 * uwt.write_energy(entry_bits)
                + c.uwt_bit_updates as f64 * uwt.write_energy(2);
            structures.push(StructureEnergy {
                name: "uWT",
                dynamic,
                leakage: uwt.leakage_per_cycle() * cyc,
            });
        }
        if let Some(wt) = &self.wt {
            let entry_bits = wt.bits() / self.tlb_entries;
            let dynamic = c.wt_reads as f64 * wt.read_energy(way_read_bits)
                + c.wt_writes as f64 * wt.write_energy(entry_bits)
                + c.wt_bit_updates as f64 * wt.write_energy(2);
            structures.push(StructureEnergy {
                name: "WT",
                dynamic,
                leakage: wt.leakage_per_cycle() * cyc,
            });
        }
        if let Some(wdu) = &self.wdu {
            let dynamic = c.wdu_lookups as f64 * wdu.search_energy()
                + c.wdu_writes as f64 * wdu.write_energy();
            structures.push(StructureEnergy {
                name: "WDU",
                dynamic,
                leakage: wdu.leakage_per_cycle() * cyc,
            });
        }

        let dynamic: f64 = structures.iter().map(|s| s.dynamic).sum();
        let leakage: f64 = structures.iter().map(|s| s.leakage).sum();

        // --- Excluded structures (Sec. VI-A) ---
        let excluded_dynamic = c.sb_lookups_full as f64 * self.sb_full.search_tags_only_energy()
            + c.sb_lookups_page_segment as f64 * self.sb_page.search_tags_only_energy()
            + c.sb_lookups_narrow as f64 * self.sb_narrow.search_tags_only_energy()
            + c.mb_lookups_full as f64 * self.mb_full.search_tags_only_energy()
            + c.mb_lookups_page_segment as f64 * self.mb_page.search_tags_only_energy()
            + c.mb_lookups_narrow as f64 * self.mb_narrow.search_tags_only_energy()
            + c.input_buffer_compares as f64 * C_CAM * 20.0
            + c.arbitration_compares as f64 * C_CAM * 6.0;

        EnergyBreakdown {
            dynamic,
            leakage,
            structures,
            excluded_dynamic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_types::LatencyVariant;

    fn one_access_counters() -> EnergyCounters {
        let mut c = EnergyCounters::default();
        c.l1_conventional_read(4, 1);
        c.utlb_lookups = 1;
        c
    }

    #[test]
    fn base2_pays_port_premium_on_dynamic() {
        let c = one_access_counters();
        let e1 = EnergyModel::for_config(&SimConfig::base1ldst()).evaluate(&c, 0);
        let e2 = EnergyModel::for_config(&SimConfig::base2ld1st()).evaluate(&c, 0);
        assert!(
            e2.dynamic > 1.2 * e1.dynamic,
            "multi-ported access should cost noticeably more: {} vs {}",
            e2.dynamic,
            e1.dynamic
        );
    }

    #[test]
    fn base2_pays_port_premium_on_leakage() {
        let idle = EnergyCounters::default();
        let e1 = EnergyModel::for_config(&SimConfig::base1ldst()).evaluate(&idle, 1_000_000);
        let e2 = EnergyModel::for_config(&SimConfig::base2ld1st()).evaluate(&idle, 1_000_000);
        let ratio = e2.leakage / e1.leakage;
        assert!(
            ratio > 1.5 && ratio < 2.0,
            "L1+TLB port leakage premium should land near +80%: {ratio}"
        );
    }

    #[test]
    fn reduced_access_saves_tag_and_way_energy() {
        let model = EnergyModel::for_config(&SimConfig::malec());
        let mut conventional = EnergyCounters::default();
        conventional.l1_conventional_read(4, 2);
        let mut reduced = EnergyCounters::default();
        reduced.l1_reduced_read(2);
        let ec = model.evaluate(&conventional, 0).dynamic;
        let er = model.evaluate(&reduced, 0).dynamic;
        assert!(
            er < 0.35 * ec,
            "reduced access should save well over half: {er} vs {ec}"
        );
    }

    #[test]
    fn malec_way_tables_add_leakage() {
        let idle = EnergyCounters::default();
        let base = EnergyModel::for_config(&SimConfig::base1ldst()).evaluate(&idle, 1_000_000);
        let malec = EnergyModel::for_config(&SimConfig::malec()).evaluate(&idle, 1_000_000);
        assert!(malec.leakage > base.leakage);
        // ... but the WT overhead must stay small relative to the L1.
        assert!(malec.leakage < 1.15 * base.leakage);
    }

    #[test]
    fn uwt_is_a_small_fraction_of_the_interface() {
        // Sec. VI-A: uWT ≈ 0.3 % of leakage and ≈ 2.1 % of dynamic energy.
        let cfg = SimConfig::malec();
        let model = EnergyModel::for_config(&cfg);
        let mut c = EnergyCounters::default();
        // A representative mix: mostly reduced reads with uWT reads.
        for _ in 0..100 {
            c.l1_reduced_read(2);
            c.uwt_reads += 1;
            c.utlb_lookups += 1;
        }
        let b = model.evaluate(&c, 100);
        let uwt = b
            .structures
            .iter()
            .find(|s| s.name == "uWT")
            .expect("uWT present");
        assert!(uwt.leakage / b.leakage < 0.02, "uWT leakage share too big");
        assert!(uwt.dynamic / b.dynamic < 0.12, "uWT dynamic share too big");
    }

    #[test]
    fn wdu_lookups_cost_more_than_wt_reads() {
        let wt_cfg = SimConfig::malec();
        let wdu_cfg = SimConfig::malec().with_way_determination(WayDetermination::Wdu(16));
        let wt_model = EnergyModel::for_config(&wt_cfg);
        let wdu_model = EnergyModel::for_config(&wdu_cfg);
        let wt_c = EnergyCounters {
            uwt_reads: 100,
            ..Default::default()
        };
        let wdu_c = EnergyCounters {
            wdu_lookups: 100,
            ..Default::default()
        };
        let wt_dyn = wt_model.evaluate(&wt_c, 0).dynamic;
        let wdu_dyn = wdu_model.evaluate(&wdu_c, 0).dynamic;
        assert!(
            wdu_dyn > wt_dyn,
            "4-ported WDU lookups should out-cost single-ported WT reads: {wdu_dyn} vs {wt_dyn}"
        );
    }

    #[test]
    fn excluded_structures_do_not_enter_totals() {
        let model = EnergyModel::for_config(&SimConfig::base1ldst());
        let c = EnergyCounters {
            sb_lookups_full: 1000,
            mb_lookups_full: 1000,
            input_buffer_compares: 1000,
            ..Default::default()
        };
        let b = model.evaluate(&c, 0);
        assert_eq!(b.dynamic, 0.0);
        assert!(b.excluded_dynamic > 0.0);
    }

    #[test]
    fn split_sb_lookup_cheaper_than_full() {
        let model = EnergyModel::for_config(&SimConfig::malec());
        let full = EnergyCounters {
            sb_lookups_full: 4,
            ..Default::default()
        };
        let split = EnergyCounters {
            sb_lookups_page_segment: 1,
            sb_lookups_narrow: 4,
            ..Default::default()
        };
        let ef = model.evaluate(&full, 0).excluded_dynamic;
        let es = model.evaluate(&split, 0).excluded_dynamic;
        assert!(
            es < ef,
            "shared page segment should save energy: {es} vs {ef}"
        );
    }

    #[test]
    fn latency_variant_does_not_change_energy_model() {
        let c = one_access_counters();
        let a = EnergyModel::for_config(&SimConfig::malec()).evaluate(&c, 100);
        let b =
            EnergyModel::for_config(&SimConfig::malec().with_latency(LatencyVariant::ThreeCycle))
                .evaluate(&c, 100);
        assert_eq!(a.dynamic, b.dynamic);
        assert_eq!(a.leakage, b.leakage);
    }

    /// Every priced path of every way-determination scheme, bit for bit:
    /// one ledger with each counter nonzero and distinct, evaluated over
    /// 1,000 cycles, with the bits of the totals and of each structure's
    /// two values folded per config. Only the paper bench's md5 reaches the
    /// WDU and no-way-determination paths otherwise.
    #[test]
    fn evaluation_is_pinned_bit_for_bit() {
        let k = EnergyCounters {
            l1_tag_bank_reads: 4_099,
            l1_data_subblock_reads: 16_411,
            l1_data_subblock_writes: 2_053,
            l1_tag_bank_writes: 307,
            utlb_lookups: 3_001,
            utlb_fills: 97,
            utlb_reverse_lookups: 53,
            tlb_lookups: 211,
            tlb_fills: 89,
            tlb_reverse_lookups: 41,
            uwt_reads: 2_741,
            uwt_writes: 79,
            uwt_bit_updates: 613,
            wt_reads: 199,
            wt_writes: 71,
            wt_bit_updates: 401,
            wdu_lookups: 3_313,
            wdu_writes: 521,
            sb_lookups_full: 1_201,
            sb_lookups_page_segment: 367,
            sb_lookups_narrow: 1_409,
            mb_lookups_full: 887,
            mb_lookups_page_segment: 131,
            mb_lookups_narrow: 997,
            input_buffer_compares: 5_003,
            arbitration_compares: 769,
        };
        let malec = |wd| SimConfig::malec().with_way_determination(wd);
        let pinned = [
            ("Base1ldst", SimConfig::base1ldst(), 0x9e72_e0a0_d48e_71a8),
            ("Base2ld1st", SimConfig::base2ld1st(), 0x262d_4538_a43a_8120),
            ("MALEC", SimConfig::malec(), 0xe309_e16b_7c8a_59aa),
            (
                "MALEC WT(no-feedback)",
                malec(WayDetermination::WayTablesNoFeedback),
                0xe309_e16b_7c8a_59aa,
            ),
            (
                "MALEC WDU8",
                malec(WayDetermination::Wdu(8)),
                0xb042_e36b_bb1b_d542,
            ),
            (
                "MALEC WDU16",
                malec(WayDetermination::Wdu(16)),
                0x3a02_75f1_3de9_9aea,
            ),
            (
                "MALEC WDU32",
                malec(WayDetermination::Wdu(32)),
                0x38fc_18e5_00ab_7a43,
            ),
            (
                "MALEC none",
                malec(WayDetermination::None),
                0x9e72_e0a0_d48e_71a8,
            ),
        ];
        let moved: Vec<String> = pinned
            .into_iter()
            .filter_map(|(label, config, want)| {
                let b = EnergyModel::for_config(&config).evaluate(&k, 1_000);
                let mut bits = vec![
                    b.dynamic.to_bits(),
                    b.leakage.to_bits(),
                    b.excluded_dynamic.to_bits(),
                ];
                for s in &b.structures {
                    bits.extend([s.dynamic.to_bits(), s.leakage.to_bits()]);
                }
                let got = malec_types::stable::fnv1a64(bits);
                (got != want).then(|| format!("{label}: {got:#018x} (pinned {want:#018x})"))
            })
            .collect();
        assert!(moved.is_empty(), "energy diverged:\n{}", moved.join("\n"));
    }

    #[test]
    fn breakdown_totals_are_sums() {
        let model = EnergyModel::for_config(&SimConfig::malec());
        let mut c = EnergyCounters::default();
        c.l1_conventional_read(4, 2);
        c.tlb_lookups = 3;
        c.wt_reads = 2;
        c.uwt_writes = 1;
        let b = model.evaluate(&c, 12345);
        let dyn_sum: f64 = b.structures.iter().map(|s| s.dynamic).sum();
        let leak_sum: f64 = b.structures.iter().map(|s| s.leakage).sum();
        assert!((b.dynamic - dyn_sum).abs() < 1e-9);
        assert!((b.leakage - leak_sum).abs() < 1e-9);
        assert!((b.total() - (b.dynamic + b.leakage)).abs() < 1e-9);
    }
}
