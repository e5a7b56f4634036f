//! The run entry point: one builder that scales from a single process
//! to a fleet.
//!
//! A session names *what* to run — a machine, a configuration, a
//! workload spec — and the builder chain adds *how*: a seed, an optional
//! per-tick [`FleetObserver`], and optionally a [`FleetSpec`] that
//! replicates the workload across thousands of processes. Either way the
//! sharded engine ([`crate::fleet`]) runs it; without a fleet spec the
//! fleet is one process.
//!
//! ```no_run
//! use daos::{FleetSpec, RunConfig, Session};
//! use daos_mm::MachineProfile;
//! use daos_workloads::by_path;
//!
//! let machine = MachineProfile::i3_metal();
//! let config = RunConfig::prcl();
//! let spec = by_path("parsec3/freqmine").unwrap();
//!
//! // Single process:
//! let one = Session::new(&machine, &config, &spec).seed(42).execute().unwrap();
//! let result = one.into_single();
//!
//! // The same run, 1024× with 4 tenant label families:
//! let fleet = Session::new(&machine, &config, &spec)
//!     .seed(42)
//!     .fleet(FleetSpec::new(1024).tenants(4))
//!     .execute()
//!     .unwrap();
//! let summary = fleet.fleet.unwrap();
//! println!("{}", summary.render());
//! # let _ = result;
//! ```

use daos_mm::clock::Ns;
use daos_mm::error::MmResult;
use daos_mm::machine::MachineProfile;
use daos_mm::stats::{KernelStats, ProcStats};
use daos_monitor::{MonitorRecord, OverheadStats};
use daos_schemes::SchemeStats;
use daos_workloads::WorkloadSpec;

use crate::config::RunConfig;
use crate::fleet::{FleetEngine, FleetObserver, FleetSpec, FleetSummary};
use crate::profile::WallProfile;

/// Everything one process's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Configuration name.
    pub config: String,
    /// Workload path name.
    pub workload: String,
    /// Machine profile name.
    pub machine: String,
    /// Total virtual runtime (the paper's performance metric).
    pub runtime_ns: Ns,
    /// Time-weighted average RSS (the paper's memory metric).
    pub avg_rss: u64,
    /// Peak RSS.
    pub peak_rss: u64,
    /// Full process statistics.
    pub stats: ProcStats,
    /// Kernel-side statistics of the process's machine.
    pub kstats: KernelStats,
    /// The aggregation record (when `config.record`, on the process
    /// that owns the monitoring plane).
    pub record: Option<MonitorRecord>,
    /// Monitoring overhead counters (on the process that owns a
    /// monitoring plane).
    pub overhead: Option<OverheadStats>,
    /// Per-scheme statistics (likewise).
    pub scheme_stats: Vec<SchemeStats>,
}

impl RunResult {
    /// Monitor CPU utilisation share of one core over the run (the
    /// paper reports ~1.37 % / 1.46 % for rec / prec).
    pub fn monitor_cpu_share(&self) -> f64 {
        self.overhead.map(|o| o.cpu_share(self.runtime_ns)).unwrap_or(0.0)
    }
}

/// The simulated-state digest of a session's runs: 64-bit FNV-1a over one
/// line per process — workload, config, machine, runtime, average and peak
/// RSS, the compact JSON of `stats`, `kstats`, `overhead` and every scheme's
/// stats, and the record's window count. Equal digests mean the runs
/// simulated identically, which is what a speed-only change must keep. The
/// inputs and their rendering are the perf ledger's `sim_digest`, byte for
/// byte, so the two agree on every run.
pub fn digest(runs: &[RunResult]) -> u64 {
    use daos_util::json::ToJson;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in runs {
        let overhead = r.overhead.map(|o| o.to_json().to_string_compact());
        let schemes: Vec<String> =
            r.scheme_stats.iter().map(|s| s.to_json().to_string_compact()).collect();
        let line = format!(
            "{} {} {}|{} {} {}|{}|{}|{:?}|{:?}|{:?}\n",
            r.workload,
            r.config,
            r.machine,
            r.runtime_ns,
            r.avg_rss,
            r.peak_rss,
            r.stats.to_json().to_string_compact(),
            r.kstats.to_json().to_string_compact(),
            overhead,
            schemes,
            r.record.as_ref().map(MonitorRecord::len),
        );
        for &b in line.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything a session produced: one [`RunResult`] per process (a
/// single run is `runs.len() == 1`) plus the [`FleetSummary`].
#[derive(Debug)]
pub struct SessionResult {
    /// Per-process results, in global process order.
    pub runs: Vec<RunResult>,
    /// Fleet-level aggregates; `Some` for every executed session (a
    /// single run is a fleet of one process).
    pub fleet: Option<FleetSummary>,
    /// Host wall time per engine phase, when the session was
    /// [`profiled`](Session::profile_wall).
    pub profile: Option<WallProfile>,
}

impl SessionResult {
    /// The sole result of a single-process session (or the first
    /// process of a fleet).
    #[expect(
        clippy::expect_used,
        reason = "every executed session yields at least one run — nr_processes is clamped to ≥ 1"
    )]
    pub fn into_single(self) -> RunResult {
        self.runs.into_iter().next().expect("session produced no runs")
    }
}

/// Builder for one experiment run — single process or fleet. See the
/// [module docs](self) for the shape; `execute()` consumes the session.
pub struct Session<'a> {
    machine: &'a MachineProfile,
    config: &'a RunConfig,
    spec: &'a WorkloadSpec,
    seed: u64,
    fleet: FleetSpec,
    fleet_observer: Option<&'a mut dyn FleetObserver>,
    profile_wall: bool,
}

impl<'a> Session<'a> {
    /// A session running `spec` under `config` on `machine` (seed 0, no
    /// observer, single process).
    pub fn new(
        machine: &'a MachineProfile,
        config: &'a RunConfig,
        spec: &'a WorkloadSpec,
    ) -> Self {
        Session {
            machine,
            config,
            spec,
            seed: 0,
            fleet: FleetSpec::new(1),
            fleet_observer: None,
            profile_wall: false,
        }
    }

    /// Fix all randomness (workload draws, monitor sampling, region
    /// splits) to `seed`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scale to a fleet: replicate the workload `spec.nr_processes`
    /// times under the sharded engine.
    pub fn fleet(mut self, spec: FleetSpec) -> Self {
        self.fleet = spec;
        self
    }

    /// Observe the run after every tick the observer is
    /// [`due`](FleetObserver::due) for.
    pub fn fleet_observer(mut self, observer: &'a mut dyn FleetObserver) -> Self {
        self.fleet_observer = Some(observer);
        self
    }

    /// With `on`, book the host wall time of every engine phase into
    /// [`SessionResult::profile`] (and each observer's
    /// [`FleetProgress::profile`](crate::FleetProgress::profile)).
    pub fn profile_wall(mut self, on: bool) -> Self {
        self.profile_wall = on;
        self
    }

    /// Run to completion: build the engine, run every shard through the
    /// workload's epochs (from one tick the observer is due for to the
    /// next), collect the per-process results.
    pub fn execute(self) -> MmResult<SessionResult> {
        let started = std::time::Instant::now();
        let (machine, config, spec, seed) = (self.machine, self.config, self.spec, self.seed);
        let mut engine =
            FleetEngine::build(machine, config, spec, self.fleet, seed, self.profile_wall)?;
        engine.run(self.fleet_observer)?;
        let (runs, summary, mut profile) = engine.finish_profiled()?;
        if let Some(profile) = &mut profile {
            profile.wall_ns = started.elapsed().as_nanos() as u64;
        }
        Ok(SessionResult { runs, fleet: Some(summary), profile })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetProgress;
    use daos_mm::clock::{ms, sec};
    use daos_workloads::{Behavior, Suite};

    /// A fast, small workload (~2 s virtual).
    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny",
            suite: Suite::Parsec3,
            footprint: 16 << 20,
            nr_epochs: 2500,
            compute_ns: ms(1),
            behavior: Behavior::MostlyIdle { active_frac: 0.1, apc: 4.0, stray_prob: 0.0 },
        }
    }

    fn machine() -> MachineProfile {
        MachineProfile::i3_metal()
    }

    fn run(
        machine: &MachineProfile,
        config: &RunConfig,
        spec: &WorkloadSpec,
        seed: u64,
    ) -> MmResult<RunResult> {
        Session::new(machine, config, spec).seed(seed).execute().map(SessionResult::into_single)
    }

    #[test]
    fn baseline_run_completes() {
        let r = run(&machine(), &RunConfig::baseline(), &tiny_spec(), 1).unwrap();
        assert!(r.runtime_ns > 0);
        assert_eq!(r.avg_rss, 16 << 20, "everything stays resident");
        assert!(r.record.is_none());
        assert!(r.overhead.is_none());
    }

    #[test]
    fn rec_monitors_with_low_overhead() {
        let base = run(&machine(), &RunConfig::baseline(), &tiny_spec(), 1).unwrap();
        let rec = run(&machine(), &RunConfig::rec(), &tiny_spec(), 1).unwrap();
        let record = rec.record.as_ref().expect("rec records");
        assert!(record.len() > 10, "aggregations recorded: {}", record.len());
        let overhead = rec.overhead.unwrap();
        assert!(overhead.total_checks > 0);
        // Conclusion-3: monitoring costs ~1 % of a CPU and slows the
        // workload by a few percent at most.
        let share = rec.monitor_cpu_share();
        assert!(share < 0.05, "monitor CPU share {share}");
        let slowdown = rec.runtime_ns as f64 / base.runtime_ns as f64;
        assert!(slowdown < 1.06, "rec slowdown {slowdown}");
    }

    #[test]
    fn prec_overhead_independent_of_target_size() {
        // prec monitors the whole machine (2 GiB+) instead of 16 MiB but
        // its check count per tick obeys the same max_nr_regions bound.
        let rec = run(&machine(), &RunConfig::rec(), &tiny_spec(), 1).unwrap();
        let prec = run(&machine(), &RunConfig::prec(), &tiny_spec(), 1).unwrap();
        let ro = rec.overhead.unwrap();
        let po = prec.overhead.unwrap();
        let cap = 2 * RunConfig::prec().attrs.max_nr_regions as u64;
        assert!(po.max_checks_per_tick <= cap);
        assert!(ro.max_checks_per_tick <= cap);
        // Same order of magnitude despite a 100x bigger target.
        assert!(po.avg_checks_per_tick() < 10.0 * ro.avg_checks_per_tick().max(20.0));
    }

    #[test]
    fn prcl_saves_memory_on_idle_workload() {
        let base = run(&machine(), &RunConfig::baseline(), &tiny_spec(), 1).unwrap();
        let prcl =
            run(&machine(), &RunConfig::prcl_with_min_age(sec(1)), &tiny_spec(), 1).unwrap();
        assert!(prcl.kstats.damos_pageouts > 0, "pageouts happened");
        assert!(
            (prcl.avg_rss as f64) < 0.6 * base.avg_rss as f64,
            "90% idle workload: avg RSS {} vs baseline {}",
            prcl.avg_rss,
            base.avg_rss
        );
        // The hot 10 % stays resident, so the slowdown is modest.
        let slowdown = prcl.runtime_ns as f64 / base.runtime_ns as f64;
        assert!(slowdown < 1.25, "slowdown {slowdown}");
    }

    #[test]
    fn thp_and_ethp_runs_complete() {
        let spec = WorkloadSpec {
            footprint: 32 << 20,
            behavior: Behavior::Streaming {
                window_frac: 0.25,
                stride: 2,
                apc: 16.0,
                sweep_period: sec(1),
            },
            ..tiny_spec()
        };
        let base = run(&machine(), &RunConfig::baseline(), &spec, 1).unwrap();
        let thp = run(&machine(), &RunConfig::thp(), &spec, 1).unwrap();
        // Aggressive promotion of the stride-2 workload bloats memory…
        assert!(
            thp.avg_rss as f64 > 1.3 * base.avg_rss as f64,
            "thp bloat: {} vs {}",
            thp.avg_rss,
            base.avg_rss
        );
        // …and speeds it up (TLB reach).
        assert!(thp.runtime_ns < base.runtime_ns, "thp gains");
        let ethp = run(&machine(), &RunConfig::ethp(), &spec, 1).unwrap();
        assert!(ethp.stats.thp_promotions > 0, "ethp promoted hot regions");
        // ethp keeps part of the gain at a fraction of the bloat.
        assert!(ethp.avg_rss < thp.avg_rss, "ethp bloat below thp");
        assert!(ethp.runtime_ns < base.runtime_ns, "ethp still gains");
    }

    #[test]
    fn damon_reclaim_quota_caps_bandwidth() {
        // The unquota'd prcl reclaims the idle 90% almost immediately;
        // DAMON_RECLAIM's 8 MiB / 500 ms quota spreads the same reclaim
        // out, so early-run RSS stays higher (but converges eventually).
        let spec = WorkloadSpec {
            footprint: 48 << 20,
            nr_epochs: 1200, // ~1.6 s virtual: quota binds hard
            ..tiny_spec()
        };
        let prcl = run(&machine(), &RunConfig::prcl_with_min_age(ms(200)), &spec, 3).unwrap();
        let mut reclaim_cfg = RunConfig::damon_reclaim();
        reclaim_cfg.schemes[0].scheme =
            RunConfig::prcl_with_min_age(ms(200)).schemes[0].scheme;
        // Disable the watermarks so only the quota differs (the test
        // machine has no memory pressure).
        reclaim_cfg.schemes[0].watermarks = None;
        let reclaim = run(&machine(), &reclaim_cfg, &spec, 3).unwrap();
        assert!(
            reclaim.avg_rss > prcl.avg_rss + (4 << 20),
            "quota slows reclaim: damon_reclaim avg {} vs prcl avg {}",
            reclaim.avg_rss,
            prcl.avg_rss,
        );
        assert!(reclaim.scheme_stats[0].nr_quota_skips > 0);
        assert!(reclaim.kstats.damos_pageouts > 0, "but it does reclaim");
    }

    /// The observer contract on a one-process session: an always-due
    /// observer is called once per epoch, sees the process's own detail
    /// (from the record's tail under `rec`, from the engine-side window
    /// under `prcl`), and leaves the result untouched.
    #[test]
    fn observer_sees_every_epoch_and_perturbs_nothing() {
        #[derive(Default)]
        struct Counting {
            nr_schemes: usize,
            calls: u64,
            last_tick: u64,
            windows_seen: u64,
            max_wss: u64,
        }
        impl FleetObserver for Counting {
            fn on_tick(&mut self, p: &FleetProgress) {
                self.calls += 1;
                self.last_tick = p.tick;
                assert!(p.now_ns > 0);
                assert_eq!(p.nr_processes, 1);
                let single = p.single.as_ref().expect("a fleet of one shows its process");
                assert!(single.overhead.is_some(), "the config monitors");
                assert_eq!(single.scheme_stats.len(), self.nr_schemes);
                if let Some(w) = &single.last_window {
                    self.windows_seen += 1;
                    self.max_wss = self.max_wss.max(w.hot_bytes_estimate());
                }
            }
        }
        let spec = tiny_spec();
        for config in [RunConfig::rec(), RunConfig::prcl_with_min_age(sec(1))] {
            let mut obs = Counting { nr_schemes: config.schemes.len(), ..Counting::default() };
            let observed = Session::new(&machine(), &config, &spec)
                .seed(1)
                .fleet_observer(&mut obs)
                .execute()
                .unwrap()
                .into_single();
            assert_eq!(obs.calls, spec.nr_epochs, "always due: once per epoch");
            assert_eq!(obs.last_tick, spec.nr_epochs - 1);
            assert!(obs.windows_seen > obs.calls / 2, "windows stick around once seen");
            assert!(obs.max_wss > 0, "the idle workload still has a hot working set");
            // Observation must not change the simulation.
            assert_eq!(run(&machine(), &config, &spec, 1).unwrap(), observed);
        }
    }

    #[test]
    fn deterministic_runs() {
        let a = run(&machine(), &RunConfig::prcl(), &tiny_spec(), 7).unwrap();
        let b = run(&machine(), &RunConfig::prcl(), &tiny_spec(), 7).unwrap();
        assert_eq!(a.runtime_ns, b.runtime_ns);
        assert_eq!(a.avg_rss, b.avg_rss);
        let c = run(&machine(), &RunConfig::prcl(), &tiny_spec(), 8).unwrap();
        assert_ne!(a.runtime_ns, c.runtime_ns, "different seed, different run");
    }
}
