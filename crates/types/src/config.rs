//! The analyzed configurations (Table I) and their Fig. 4 latency variants.
//!
//! | Config       | Addr. comp. per cycle | uTLB/TLB ports | Cache ports   |
//! |--------------|-----------------------|----------------|---------------|
//! | `Base1ldst`  | 1 ld/st               | 1 rd/wt        | 1 rd/wt       |
//! | `Base2ld1st` | 2 ld + 1 st           | 1 rd/wt + 2 rd | 1 rd/wt + 1 rd|
//! | `MALEC`      | 1 ld + 2 ld/st        | 1 rd/wt        | 1 rd/wt       |

use crate::error::ConfigError;
use crate::geometry::CacheGeometry;
use crate::params;

/// Which L1 data interface microarchitecture is simulated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InterfaceKind {
    /// Energy-oriented baseline: one load *or* one store per cycle; every
    /// structure single-ported.
    Base1LdSt,
    /// Performance-oriented baseline: up to two loads plus one store per
    /// cycle via physical multi-porting on top of banking.
    Base2Ld1St,
    /// The paper's proposal: page-based access grouping (+ optional
    /// page-based way determination), single-ported structures.
    Malec,
}

impl InterfaceKind {
    /// Human-readable name as used in the paper's figures.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            InterfaceKind::Base1LdSt => "Base1ldst",
            InterfaceKind::Base2Ld1St => "Base2ld1st",
            InterfaceKind::Malec => "MALEC",
        }
    }
}

impl std::fmt::Display for InterfaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// L1 hit latency variant analyzed in Fig. 4 (the baseline latency is
/// 2 cycles; the variants move it by ±1 cycle).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum LatencyVariant {
    /// 1-cycle L1 hit latency (`Base2ld1st_1cycleL1`).
    OneCycle,
    /// The Table II default of 2 cycles.
    #[default]
    TwoCycle,
    /// 3-cycle L1 hit latency (`MALEC_3cycleL1`).
    ThreeCycle,
}

impl LatencyVariant {
    /// The L1 hit latency in cycles.
    pub(crate) const fn l1_latency(self) -> u32 {
        match self {
            LatencyVariant::OneCycle => 1,
            LatencyVariant::TwoCycle => 2,
            LatencyVariant::ThreeCycle => 3,
        }
    }

    /// Suffix used in figure labels ("", "_1cycleL1", "_3cycleL1").
    const fn label_suffix(self) -> &'static str {
        match self {
            LatencyVariant::OneCycle => "_1cycleL1",
            LatencyVariant::TwoCycle => "",
            LatencyVariant::ThreeCycle => "_3cycleL1",
        }
    }
}

/// Which way-determination scheme (if any) assists the MALEC interface.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WayDetermination {
    /// No way information: every access is a conventional parallel
    /// tag + data lookup.
    None,
    /// Page-Based Way Determination: way tables (uWT + WT) coupled to the
    /// TLBs, with the last-entry feedback register enabled (Sec. V).
    #[default]
    WayTables,
    /// Way tables without the "uWT miss but L1 hit" feedback update;
    /// the ablation that drops coverage from ~94 % to ~75 %.
    WayTablesNoFeedback,
    /// Nicolaescu-style Way Determination Unit extended with validity bits,
    /// with the given number of line-granularity entries (8/16/32 in
    /// Sec. VI-C).
    Wdu(u16),
}

impl WayDetermination {
    /// Short label for report rows.
    pub fn label(self) -> String {
        match self {
            WayDetermination::None => "none".to_owned(),
            WayDetermination::WayTables => "WT".to_owned(),
            WayDetermination::WayTablesNoFeedback => "WT(no-feedback)".to_owned(),
            WayDetermination::Wdu(n) => format!("WDU{n}"),
        }
    }
}

/// Read/write port counts of one hardware structure, used both by the timing
/// model (arbitration) and by the energy model (per-port cost scaling).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PortConfig {
    /// Number of shared read/write ports.
    pub rw: u8,
    /// Number of read-only ports.
    pub rd: u8,
}

impl PortConfig {
    /// A single shared read/write port (the energy-efficient default).
    pub const SINGLE: Self = Self { rw: 1, rd: 0 };

    /// Total number of ports.
    pub const fn total(self) -> u8 {
        self.rw + self.rd
    }

    /// Number of ports usable for reads.
    pub const fn read_capable(self) -> u8 {
        self.rw + self.rd
    }
}

impl Default for PortConfig {
    fn default() -> Self {
        Self::SINGLE
    }
}

/// Per-cycle address-computation (AGU) capability of a configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AgwConfig {
    /// AGU slots usable only by loads.
    pub load_only: u8,
    /// AGU slots usable only by stores.
    pub store_only: u8,
    /// AGU slots usable by either.
    pub shared: u8,
}

/// What a simulated configuration varies: the interface kind, its latency
/// variant and MALEC feature toggles (the Sec. VI ablations), and the few
/// sizes the sensitivity checks edit. Everything else is the one Table II
/// machine, read from [`params`].
#[derive(Clone, PartialEq, Debug)]
pub struct SimConfig {
    /// Which interface microarchitecture.
    pub interface: InterfaceKind,
    /// L1 hit-latency variant.
    pub latency: LatencyVariant,
    /// Way-determination scheme (only meaningful for [`InterfaceKind::Malec`]).
    pub way_determination: WayDetermination,
    /// Whether MALEC merges loads to the same cache line (Sec. VI-B measures
    /// its contribution by disabling it).
    pub load_merging: bool,
    /// Whether cache fills avoid the way that a line's WT slot cannot encode
    /// (Sec. V: lines are limited to 3 of 4 ways; toggle for the
    /// sensitivity bench).
    pub restrict_fill_ways: bool,
    /// L1 geometry ([`params::L1`] in Table II).
    pub l1: CacheGeometry,
    /// TLB entries (64 in Table II).
    pub tlb_entries: u16,
    /// Micro-TLB entries (16 in Table II).
    pub utlb_entries: u16,
    /// Reorder-buffer entries (168).
    pub rob_entries: u16,
    /// Number of result buses limiting parallel load completion (4).
    pub result_buses: u8,
    /// Overrides the Table I AGU configuration (used by the Fig. 2a wide
    /// MALEC parameterization: four loads and two stores in parallel).
    pub agu_override: Option<AgwConfig>,
}

impl SimConfig {
    /// The `Base1ldst` configuration from Table I.
    pub fn base1ldst() -> Self {
        Self::paper_defaults(InterfaceKind::Base1LdSt)
    }

    /// The `Base2ld1st` configuration from Table I.
    pub fn base2ld1st() -> Self {
        Self::paper_defaults(InterfaceKind::Base2Ld1St)
    }

    /// The analyzed MALEC configuration from Table I (1 ld + 2 ld/st AGUs,
    /// single-ported structures, way tables with feedback).
    pub fn malec() -> Self {
        Self::paper_defaults(InterfaceKind::Malec)
    }

    /// Applies a latency variant, returning the modified configuration.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyVariant) -> Self {
        self.latency = latency;
        self
    }

    /// Applies a way-determination scheme, returning the modified
    /// configuration.
    #[must_use]
    pub fn with_way_determination(mut self, wd: WayDetermination) -> Self {
        self.way_determination = wd;
        self
    }

    /// Disables or enables load merging, returning the modified
    /// configuration.
    #[must_use]
    pub fn with_load_merging(mut self, enabled: bool) -> Self {
        self.load_merging = enabled;
        self
    }

    fn paper_defaults(interface: InterfaceKind) -> Self {
        Self {
            interface,
            latency: LatencyVariant::TwoCycle,
            way_determination: if matches!(interface, InterfaceKind::Malec) {
                WayDetermination::WayTables
            } else {
                WayDetermination::None
            },
            load_merging: matches!(interface, InterfaceKind::Malec),
            // Sec. V: each line is limited to 3 of the 4 ways so its WT slot
            // can always represent residency; fills steer around the
            // excluded way ("no measurable increase of the L1 miss rate").
            restrict_fill_ways: matches!(interface, InterfaceKind::Malec),
            l1: params::L1,
            tlb_entries: params::TLB_ENTRIES,
            utlb_entries: params::UTLB_ENTRIES,
            rob_entries: params::ROB_ENTRIES,
            result_buses: params::RESULT_BUSES,
            agu_override: None,
        }
    }

    /// The wide MALEC parameterization of Fig. 2a: up to four loads and two
    /// stores per cycle (the figure's demonstration of scalability; the
    /// analyzed Table I configuration uses 1 ld + 2 ld/st).
    pub fn malec_wide() -> Self {
        let mut cfg = Self::paper_defaults(InterfaceKind::Malec);
        cfg.agu_override = Some(AgwConfig {
            load_only: 2,
            store_only: 0,
            shared: 2,
        });
        cfg
    }

    /// Figure label for this configuration (e.g. `MALEC_3cycleL1`).
    pub fn label(&self) -> String {
        format!("{}{}", self.interface.name(), self.latency.label_suffix())
    }

    /// AGU capability per Table I (or the explicit override).
    pub fn agus(&self) -> AgwConfig {
        if let Some(agus) = self.agu_override {
            return agus;
        }
        match self.interface {
            InterfaceKind::Base1LdSt => AgwConfig {
                load_only: 0,
                store_only: 0,
                shared: 1,
            },
            InterfaceKind::Base2Ld1St => AgwConfig {
                load_only: 2,
                store_only: 1,
                shared: 0,
            },
            InterfaceKind::Malec => AgwConfig {
                load_only: 1,
                store_only: 0,
                shared: 2,
            },
        }
    }

    /// TLB/uTLB port configuration per Table I.
    pub fn tlb_ports(&self) -> PortConfig {
        match self.interface {
            InterfaceKind::Base2Ld1St => PortConfig { rw: 1, rd: 2 },
            _ => PortConfig::SINGLE,
        }
    }

    /// L1 cache-bank port configuration per Table I.
    pub fn cache_ports(&self) -> PortConfig {
        match self.interface {
            InterfaceKind::Base2Ld1St => PortConfig { rw: 1, rd: 1 },
            _ => PortConfig::SINGLE,
        }
    }

    /// L1 hit latency in cycles for this variant.
    pub fn l1_latency(&self) -> u32 {
        self.latency.l1_latency()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if structure sizes are zero, the way
    /// determination scheme conflicts with the interface kind, or the L1
    /// line is not the line of the pages and the L2.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tlb_entries == 0 || self.utlb_entries == 0 {
            return Err(ConfigError::new("TLB and uTLB must have entries"));
        }
        if u32::from(self.utlb_entries) > u32::from(self.tlb_entries) {
            return Err(ConfigError::new("uTLB cannot be larger than the TLB"));
        }
        if self.rob_entries == 0 {
            return Err(ConfigError::new("the ROB must have entries"));
        }
        if self.l1.line_bytes() != params::LINE_BYTES {
            return Err(ConfigError::new(
                "the L1 must share the line size of the pages and the L2",
            ));
        }
        if !matches!(self.interface, InterfaceKind::Malec)
            && !matches!(self.way_determination, WayDetermination::None)
        {
            return Err(ConfigError::new(
                "way determination is only modelled for the MALEC interface",
            ));
        }
        if matches!(self.way_determination, WayDetermination::Wdu(0)) {
            return Err(ConfigError::new("WDU needs at least one entry"));
        }
        if self.result_buses == 0 {
            return Err(ConfigError::new("at least one result bus is required"));
        }
        Ok(())
    }

    /// Resolves a figure label (as produced by [`SimConfig::label`]) back
    /// to its configuration: `Base1ldst`, `Base2ld1st`,
    /// `Base2ld1st_1cycleL1`, `MALEC`, or `MALEC_3cycleL1`. This is the
    /// vocabulary scenario sweep specs name configurations with.
    pub fn by_label(label: &str) -> Option<SimConfig> {
        Self::figure4_set()
            .into_iter()
            .find(|cfg| cfg.label() == label)
    }

    /// The five configurations plotted in Fig. 4, in the paper's order:
    /// `Base1ldst`, `Base2ld1st_1cycleL1`, `Base2ld1st`, `MALEC`,
    /// `MALEC_3cycleL1`.
    pub fn figure4_set() -> Vec<SimConfig> {
        vec![
            Self::base1ldst(),
            Self::base2ld1st().with_latency(LatencyVariant::OneCycle),
            Self::base2ld1st(),
            Self::malec(),
            Self::malec().with_latency(LatencyVariant::ThreeCycle),
        ]
    }
}

impl Default for SimConfig {
    /// Defaults to the analyzed MALEC configuration.
    fn default() -> Self {
        Self::malec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_agus() {
        let agus = |load_only, store_only, shared| AgwConfig {
            load_only,
            store_only,
            shared,
        };
        // Base1ldst: 1 memory op a cycle; Base2ld1st: 2 loads + 1 store;
        // MALEC: 3 ops, up to 3 loads or 2 stores.
        assert_eq!(SimConfig::base1ldst().agus(), agus(0, 0, 1));
        assert_eq!(SimConfig::base2ld1st().agus(), agus(2, 1, 0));
        assert_eq!(SimConfig::malec().agus(), agus(1, 0, 2));
    }

    #[test]
    fn table1_ports() {
        let b1 = SimConfig::base1ldst();
        assert_eq!(b1.tlb_ports().total(), 1);
        assert_eq!(b1.cache_ports().total(), 1);
        let b2 = SimConfig::base2ld1st();
        assert_eq!(b2.tlb_ports().read_capable(), 3);
        assert_eq!(b2.cache_ports().read_capable(), 2);
        let m = SimConfig::malec();
        assert_eq!(m.tlb_ports(), PortConfig::SINGLE);
        assert_eq!(m.cache_ports(), PortConfig::SINGLE);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(SimConfig::base1ldst().label(), "Base1ldst");
        assert_eq!(
            SimConfig::base2ld1st()
                .with_latency(LatencyVariant::OneCycle)
                .label(),
            "Base2ld1st_1cycleL1"
        );
        assert_eq!(
            SimConfig::malec()
                .with_latency(LatencyVariant::ThreeCycle)
                .label(),
            "MALEC_3cycleL1"
        );
    }

    #[test]
    fn figure4_set_order() {
        let set = SimConfig::figure4_set();
        let labels: Vec<String> = set.iter().map(SimConfig::label).collect();
        assert_eq!(
            labels,
            [
                "Base1ldst",
                "Base2ld1st_1cycleL1",
                "Base2ld1st",
                "MALEC",
                "MALEC_3cycleL1"
            ]
        );
        for cfg in &set {
            cfg.validate().expect("paper configs validate");
        }
    }

    #[test]
    fn by_label_roundtrips_the_figure4_set() {
        for cfg in SimConfig::figure4_set() {
            assert_eq!(SimConfig::by_label(&cfg.label()), Some(cfg.clone()));
        }
        assert_eq!(SimConfig::by_label("NoSuchConfig"), None);
    }

    #[test]
    fn defaults_validate() {
        SimConfig::default().validate().expect("default validates");
        assert_eq!(SimConfig::default().interface, InterfaceKind::Malec);
        assert_eq!(SimConfig::default().l1_latency(), 2);
    }

    #[test]
    fn validation_rejects_inconsistency() {
        let mut cfg = SimConfig::base1ldst();
        cfg.way_determination = WayDetermination::WayTables;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::malec();
        cfg.utlb_entries = 128;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::malec();
        cfg.way_determination = WayDetermination::Wdu(0);
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::malec();
        cfg.result_buses = 0;
        assert!(cfg.validate().is_err());

        // The pages and the L2 keep the Table II line.
        let mut cfg = SimConfig::malec();
        cfg.l1 = CacheGeometry::new(32 * 1024, 4, 4, 128, 128).expect("valid geometry");
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn way_determination_labels() {
        assert_eq!(WayDetermination::WayTables.label(), "WT");
        assert_eq!(WayDetermination::Wdu(16).label(), "WDU16");
        assert_eq!(
            WayDetermination::WayTablesNoFeedback.label(),
            "WT(no-feedback)"
        );
        assert_eq!(WayDetermination::None.label(), "none");
    }

    #[test]
    fn wide_malec_overrides_agus() {
        let wide = SimConfig::malec_wide();
        wide.validate().expect("wide MALEC validates");
        let agus = wide.agus();
        assert_eq!(agus.load_only + agus.shared, 4, "max loads a cycle");
        assert_eq!(agus.store_only + agus.shared, 2, "max stores a cycle");
        // Ports stay single: that is the whole point of page grouping.
        assert_eq!(wide.tlb_ports(), PortConfig::SINGLE);
        assert_eq!(wide.cache_ports(), PortConfig::SINGLE);
    }

    #[test]
    fn latency_variants() {
        assert_eq!(LatencyVariant::OneCycle.l1_latency(), 1);
        assert_eq!(LatencyVariant::TwoCycle.l1_latency(), 2);
        assert_eq!(LatencyVariant::ThreeCycle.l1_latency(), 3);
        assert_eq!(LatencyVariant::default(), LatencyVariant::TwoCycle);
    }

    #[test]
    fn interface_display() {
        assert_eq!(InterfaceKind::Malec.to_string(), "MALEC");
        assert_eq!(InterfaceKind::Base1LdSt.to_string(), "Base1ldst");
        assert_eq!(InterfaceKind::Base2Ld1St.to_string(), "Base2ld1st");
    }
}
