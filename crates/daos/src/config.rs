//! The six system configurations of the paper's evaluation (§4,
//! "Workloads"): *baseline*, *rec*, *prec*, *thp*, *ethp* and *prcl*.

use daos_mm::clock::{ms, sec, Ns};
use daos_mm::swap::SwapConfig;
use daos_mm::vma::ThpMode;
use daos_monitor::MonitorAttrs;
use daos_schemes::{parse_schemes, Quota, Scheme, SchemeConfig, Watermarks};

use crate::error::DaosError;

/// Which monitoring primitive a configuration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorKind {
    /// Virtual address space of the workload (the paper's `rec`).
    Vaddr,
    /// Entire physical address space of the machine (`prec`).
    Paddr,
}

/// A complete run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Configuration name as in the paper's plots.
    pub name: String,
    /// THP mode for the workload's mappings.
    pub thp: ThpMode,
    /// Whether the kernel's aggressive background promoter runs
    /// (the Linux-original THP behaviour of the `thp` configuration).
    pub khugepaged: bool,
    /// Monitoring, if any.
    pub monitor: Option<MonitorKind>,
    /// Schemes for the engine, each with its quota / watermarks attached
    /// (requires monitoring).
    pub schemes: Vec<SchemeConfig>,
    /// Whether to keep the full aggregation record (Fig. 6 heatmaps).
    pub record: bool,
    /// Swap device.
    pub swap: SwapConfig,
    /// Monitoring attributes.
    pub attrs: MonitorAttrs,
}

impl RunConfig {
    fn base(name: &str) -> Self {
        Self {
            name: name.to_string(),
            thp: ThpMode::Never,
            khugepaged: false,
            monitor: None,
            schemes: Vec::new(),
            record: false,
            swap: SwapConfig::paper_zram(),
            attrs: MonitorAttrs::paper_defaults(),
        }
    }

    /// Start building a configuration from the *baseline* (everything
    /// off); [`RunConfigBuilder::build`] validates the combination.
    pub fn builder(name: &str) -> RunConfigBuilder {
        RunConfigBuilder { config: Self::base(name) }
    }

    /// *baseline*: DAOS disabled, THP off, zram swap.
    pub fn baseline() -> Self {
        Self::base("baseline")
    }

    /// *rec*: baseline + virtual-address monitoring, recording the
    /// workload's access pattern.
    pub fn rec() -> Self {
        Self { monitor: Some(MonitorKind::Vaddr), record: true, ..Self::base("rec") }
    }

    /// *prec*: baseline + physical-address monitoring of the whole guest.
    pub fn prec() -> Self {
        Self { monitor: Some(MonitorKind::Paddr), record: true, ..Self::base("prec") }
    }

    /// *thp*: Linux-original transparent huge pages (aggressive
    /// promotion, no access awareness).
    pub fn thp() -> Self {
        Self { thp: ThpMode::Always, khugepaged: true, ..Self::base("thp") }
    }

    /// *ethp*: the paper's monitoring-based THP scheme — Listing 3
    /// lines 2–3: promote regions with ≥ 5 access samples, demote ≥ 2 MiB
    /// regions idle for ≥ 7 s.
    pub fn ethp() -> Self {
        #[expect(clippy::expect_used, reason = "static scheme string, covered by the config tests")]
        let schemes = parse_schemes(
            "min max 5 max min max hugepage\n\
             2M max min min 7s max nohugepage",
        )
        .expect("static ethp schemes parse");
        Self {
            thp: ThpMode::Madvise,
            monitor: Some(MonitorKind::Vaddr),
            schemes: schemes.into_iter().map(SchemeConfig::from).collect(),
            ..Self::base("ethp")
        }
    }

    /// *prcl*: the paper's monitoring-based proactive reclamation —
    /// Listing 3 line 5: page out ≥ 4 KiB regions idle for ≥ 5 s.
    pub fn prcl() -> Self {
        Self::prcl_with_min_age(sec(5))
    }

    /// *prcl* with a custom idle-age threshold — the aggressiveness knob
    /// the auto-tuner searches over (Figures 4, 5, 8).
    pub fn prcl_with_min_age(min_age: Ns) -> Self {
        Self {
            monitor: Some(MonitorKind::Vaddr),
            schemes: vec![pageout_idle("4K max min min 5s max pageout", min_age).into()],
            ..Self::base("prcl")
        }
    }

    /// *fleet-prcl*: the §4.4 production configuration — one
    /// physical-address monitor per machine feeding the hand-crafted
    /// scheme that pages out whatever went untouched for `min_age`, to
    /// `swap`. What `daos fleet` and Fig. 9 run.
    pub fn fleet_prcl(min_age: Ns, swap: SwapConfig) -> Self {
        Self {
            monitor: Some(MonitorKind::Paddr),
            schemes: vec![pageout_idle("min max min min 30s max pageout", min_age).into()],
            swap,
            ..Self::base("fleet-prcl")
        }
    }

    /// DAMON_RECLAIM: what the prcl idea became as a shipping kernel
    /// module — proactive reclamation with a bandwidth **quota** (so a
    /// mistuned threshold cannot flood the swap device) and free-memory
    /// **watermarks** (so it only runs under pressure and backs off
    /// during emergencies).
    pub fn damon_reclaim() -> Self {
        let mut cfg = Self::prcl();
        cfg.name = "damon_reclaim".into();
        #[expect(clippy::expect_used, reason = "static quota/watermark config, covered by the config tests")]
        let scheme = cfg.schemes.remove(0).scheme
            .configure()
            // 8 MiB per 500 ms reclaim bandwidth cap.
            .quota(Quota { sz_limit: 8 << 20, reset_interval: ms(500) })
            .watermarks(Watermarks::reclaim_defaults())
            .build()
            .expect("static damon_reclaim config is valid");
        cfg.schemes = vec![scheme];
        cfg
    }

    /// All six paper configurations with default parameters, in Fig. 7's
    /// order (baseline first).
    pub fn paper_configs() -> Vec<RunConfig> {
        NAMED[..6].iter().map(|(_, make)| make()).collect()
    }

    /// Every name [`by_name`](Self::by_name) resolves: the six paper
    /// configurations in Fig. 7's order, then `damon_reclaim`.
    pub fn names() -> [&'static str; 7] {
        NAMED.map(|(name, _)| name)
    }

    /// The named configuration with default parameters, by the name the
    /// paper's plots (and `--config`) use.
    pub fn by_name(name: &str) -> Option<RunConfig> {
        NAMED.iter().find(|(n, _)| *n == name).map(|(_, make)| make())
    }
}

/// The one table naming the configurations.
const NAMED: [(&str, fn() -> RunConfig); 7] = [
    ("baseline", RunConfig::baseline),
    ("rec", RunConfig::rec),
    ("prec", RunConfig::prec),
    ("thp", RunConfig::thp),
    ("ethp", RunConfig::ethp),
    ("prcl", RunConfig::prcl),
    ("damon_reclaim", RunConfig::damon_reclaim),
];

/// The static pageout scheme `line` with its idle-age bound replaced.
fn pageout_idle(line: &str, min_age: Ns) -> Scheme {
    #[expect(clippy::expect_used, reason = "static scheme strings, covered by the config tests")]
    let scheme = daos_schemes::parse_scheme_line(line).expect("static pageout scheme parses");
    Scheme { min_age: daos_schemes::Bound::Val(daos_schemes::AgeVal::Time(min_age)), ..scheme }
}

/// Builder for [`RunConfig`]; obtained via [`RunConfig::builder`].
///
/// Starts from the *baseline* configuration (DAOS off, THP off, zram
/// swap, paper monitoring attributes) and validates the combination at
/// [`build`](Self::build): the attributes must be sane, and schemes
/// need a monitor to feed them aggregations.
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    config: RunConfig,
}

impl RunConfigBuilder {
    /// THP mode for the workload's mappings.
    pub fn thp(mut self, mode: ThpMode) -> Self {
        self.config.thp = mode;
        self
    }

    /// Enable monitoring with the given primitive.
    pub fn monitor(mut self, kind: MonitorKind) -> Self {
        self.config.monitor = Some(kind);
        self
    }

    /// Append a scheme (a bare [`Scheme`] or a full [`SchemeConfig`]).
    pub fn scheme(mut self, scheme: impl Into<SchemeConfig>) -> Self {
        self.config.schemes.push(scheme.into());
        self
    }

    /// Keep the full aggregation record.
    pub fn record(mut self, on: bool) -> Self {
        self.config.record = on;
        self
    }

    /// Swap device.
    pub fn swap(mut self, swap: SwapConfig) -> Self {
        self.config.swap = swap;
        self
    }

    /// Monitoring attributes.
    pub fn attrs(mut self, attrs: MonitorAttrs) -> Self {
        self.config.attrs = attrs;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<RunConfig, DaosError> {
        self.config.attrs.validate()?;
        if !self.config.schemes.is_empty() && self.config.monitor.is_none() {
            return Err(DaosError::SchemesWithoutMonitor);
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_schemes::Action;

    #[test]
    fn six_paper_configs() {
        let configs = RunConfig::paper_configs();
        let names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["baseline", "rec", "prec", "thp", "ethp", "prcl"]);
    }

    #[test]
    fn every_name_round_trips() {
        for c in RunConfig::paper_configs() {
            assert_eq!(RunConfig::by_name(&c.name).expect("a paper config resolves").name, c.name);
        }
        for name in RunConfig::names() {
            assert_eq!(RunConfig::by_name(name).expect("a listed name resolves").name, name);
        }
        assert_eq!(RunConfig::names()[6], "damon_reclaim", "after the six paper configs");
        assert!(RunConfig::by_name("warp9").is_none());
    }

    #[test]
    fn fleet_prcl_is_the_production_scheme() {
        let swap = SwapConfig::File { capacity_bytes: 1 << 30 };
        let c = RunConfig::fleet_prcl(sec(30), swap);
        assert_eq!(c.name, "fleet-prcl");
        assert_eq!(c.monitor, Some(MonitorKind::Paddr));
        assert_eq!(c.swap, swap);
        let production = daos_schemes::parse_scheme_line("min max min min 30s max pageout");
        assert_eq!(c.schemes, vec![production.unwrap().into()]);
        let quick = RunConfig::fleet_prcl(ms(20), swap).schemes[0].scheme;
        assert_eq!(quick.min_age, daos_schemes::Bound::Val(daos_schemes::AgeVal::Time(ms(20))));
    }

    #[test]
    fn baseline_disables_everything() {
        let c = RunConfig::baseline();
        assert_eq!(c.thp, ThpMode::Never);
        assert!(!c.khugepaged);
        assert!(c.monitor.is_none());
        assert!(c.schemes.is_empty());
        assert!(matches!(c.swap, SwapConfig::Zram { .. }), "baseline uses zram (§4)");
    }

    #[test]
    fn rec_vs_prec_targets() {
        assert_eq!(RunConfig::rec().monitor, Some(MonitorKind::Vaddr));
        assert_eq!(RunConfig::prec().monitor, Some(MonitorKind::Paddr));
        assert!(RunConfig::rec().record);
    }

    #[test]
    fn thp_is_aggressive_and_blind() {
        let c = RunConfig::thp();
        assert_eq!(c.thp, ThpMode::Always);
        assert!(c.khugepaged);
        assert!(c.monitor.is_none(), "no access awareness");
    }

    #[test]
    fn ethp_has_promotion_and_demotion() {
        let c = RunConfig::ethp();
        assert_eq!(c.schemes.len(), 2);
        assert_eq!(c.schemes[0].scheme.action, Action::Hugepage);
        assert_eq!(c.schemes[1].scheme.action, Action::Nohugepage);
        assert_eq!(c.thp, ThpMode::Madvise);
        assert!(!c.khugepaged);
    }

    #[test]
    fn damon_reclaim_has_quota_and_watermarks() {
        let c = RunConfig::damon_reclaim();
        assert_eq!(c.schemes.len(), 1);
        assert_eq!(c.schemes[0].scheme.action, Action::Pageout);
        let quota = c.schemes[0].quota.expect("bandwidth cap attached");
        assert_eq!(quota.sz_limit, 8 << 20);
        let wm = c.schemes[0].watermarks.expect("watermarks attached");
        assert!(wm.validate().is_ok());
    }

    #[test]
    fn prcl_min_age_is_tunable() {
        let c = RunConfig::prcl_with_min_age(sec(17));
        assert_eq!(c.schemes.len(), 1);
        assert_eq!(c.schemes[0].scheme.action, Action::Pageout);
        assert_eq!(
            c.schemes[0].scheme.min_age,
            daos_schemes::Bound::Val(daos_schemes::AgeVal::Time(sec(17)))
        );
    }

    #[test]
    fn builder_assembles_and_validates() {
        let scheme = daos_schemes::parse_scheme_line("min max min min 2m max pageout").unwrap();
        let c = RunConfig::builder("custom")
            .monitor(MonitorKind::Vaddr)
            .scheme(scheme)
            .record(true)
            .attrs(MonitorAttrs::builder().max_nr_regions(100).build().unwrap())
            .build()
            .unwrap();
        assert_eq!(c.name, "custom");
        assert_eq!(c.schemes.len(), 1);
        assert!(c.record);
        assert_eq!(c.attrs.max_nr_regions, 100);
        // Defaults flow from baseline.
        assert_eq!(c.thp, ThpMode::Never);

        // Schemes without a monitor are rejected.
        let err = RunConfig::builder("broken").scheme(scheme).build().unwrap_err();
        assert!(matches!(err, crate::error::DaosError::SchemesWithoutMonitor));

        // Invalid attributes are rejected with the monitor layer's error.
        let mut bad = MonitorAttrs::paper_defaults();
        bad.max_nr_regions = 1;
        let err = RunConfig::builder("broken").attrs(bad).build().unwrap_err();
        assert!(matches!(err, crate::error::DaosError::Attrs(_)));
    }
}
