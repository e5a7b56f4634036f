//! Normalised metrics, as plotted in Figures 7 and 8, and the
//! Auto-tuning Runtime wired to the engine ([`tune_prcl`]).

use daos_mm::error::MmResult;
use daos_mm::machine::MachineProfile;
use daos_tuner::{tune, DefaultScore, ScoreInputs, TuneResult, TunerConfig};
use daos_workloads::WorkloadSpec;

use crate::config::RunConfig;
use crate::session::{RunResult, Session, SessionResult};

/// A run's metrics normalised against the baseline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normalized {
    /// `baseline_runtime / runtime` — above 1.0 means faster (Fig. 7's
    /// "Performance" axis).
    pub performance: f64,
    /// `baseline_avg_rss / avg_rss` — above 1.0 means less memory
    /// (Fig. 7's "Memory efficiency" axis).
    pub memory_efficiency: f64,
}

impl Normalized {
    /// Normalise `run` against `baseline`.
    pub fn of(baseline: &RunResult, run: &RunResult) -> Normalized {
        Normalized {
            performance: baseline.runtime_ns as f64 / run.runtime_ns.max(1) as f64,
            memory_efficiency: baseline.avg_rss as f64 / run.avg_rss.max(1) as f64,
        }
    }

    /// Percent change in runtime (positive = slowdown), as the paper
    /// quotes ("78.16% slowdown").
    pub fn slowdown_pct(&self) -> f64 {
        (1.0 / self.performance - 1.0) * 100.0
    }

    /// Percent memory saving (positive = less memory), as the paper
    /// quotes ("91.34% memory saving").
    pub fn memory_saving_pct(&self) -> f64 {
        (1.0 - 1.0 / self.memory_efficiency) * 100.0
    }
}

/// Listing-2 score of `run` against `baseline` (stateless convenience —
/// for the stateful SLA behaviour drive [`DefaultScore`] directly).
pub fn score_vs_baseline(baseline: &RunResult, run: &RunResult) -> f64 {
    DefaultScore::default().score(&score_inputs(baseline, run))
}

/// The [`ScoreInputs`] for a run pair, for callers that need the raw
/// values (e.g. the Fig. 4 sweep with its stateful score function).
pub fn score_inputs(baseline: &RunResult, run: &RunResult) -> ScoreInputs {
    ScoreInputs {
        runtime: run.runtime_ns as f64,
        orig_runtime: baseline.runtime_ns as f64,
        rss: run.avg_rss as f64,
        orig_rss: baseline.avg_rss as f64,
    }
}

/// What [`tune_prcl`] ran and found.
#[derive(Debug, Clone)]
pub struct TunedPrcl {
    /// The untuned reference run every sample is scored against.
    pub baseline: RunResult,
    /// The tuner's samples (`min_age` in seconds, score), fitted curve
    /// and chosen threshold `best_x`.
    pub result: TuneResult,
    /// The validating run of *prcl* at `result.best_x`.
    pub tuned: RunResult,
}

/// The paper's third layer on the engine: auto-tune the *prcl* scheme's
/// `min_age` for `spec` on `machine`. Runs the baseline, lets
/// [`daos_tuner::tune`] sample [`RunConfig::prcl_with_min_age`] over
/// `cfg.range` seconds under one stateful [`DefaultScore`], then
/// validates the chosen threshold; every run uses `seed`. The first
/// failing run is the error.
pub fn tune_prcl(
    machine: &MachineProfile,
    spec: &WorkloadSpec,
    seed: u64,
    cfg: &TunerConfig,
) -> MmResult<TunedPrcl> {
    let run = |config: &RunConfig| {
        Session::new(machine, config, spec).seed(seed).execute().map(SessionResult::into_single)
    };
    let prcl_at = |min_age_s: f64| RunConfig::prcl_with_min_age((min_age_s * 1e9) as u64);
    let baseline = run(&RunConfig::baseline())?;
    let mut score_fn = DefaultScore::default();
    let mut outcome = Ok(());
    let result = tune(cfg, |min_age_s| {
        // After the first failure the remaining samples are skipped.
        match outcome.clone().and_then(|()| run(&prcl_at(min_age_s))) {
            Ok(r) => score_fn.score(&score_inputs(&baseline, &r)),
            Err(e) => {
                outcome = Err(e);
                0.0
            }
        }
    });
    outcome?;
    let tuned = run(&prcl_at(result.best_x))?;
    Ok(TunedPrcl { baseline, result, tuned })
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::stats::{KernelStats, ProcStats};

    fn result(runtime_ns: u64, avg_rss: u64) -> RunResult {
        RunResult {
            config: "x".into(),
            workload: "w".into(),
            machine: "m".into(),
            runtime_ns,
            avg_rss,
            peak_rss: avg_rss,
            stats: ProcStats::default(),
            kstats: KernelStats::default(),
            record: None,
            overhead: None,
            scheme_stats: vec![],
        }
    }

    #[test]
    fn normalisation_directions() {
        let base = result(100, 1000);
        let faster_smaller = result(80, 500);
        let n = Normalized::of(&base, &faster_smaller);
        assert!(n.performance > 1.0);
        assert!(n.memory_efficiency > 1.0);
        assert!((n.performance - 1.25).abs() < 1e-9);
        assert!((n.memory_efficiency - 2.0).abs() < 1e-9);
        assert!((n.memory_saving_pct() - 50.0).abs() < 1e-9);
        assert!(n.slowdown_pct() < 0.0, "speedup = negative slowdown");
    }

    #[test]
    fn slowdown_pct_matches_paper_quoting() {
        let base = result(100, 1000);
        let slow = result(178, 640);
        let n = Normalized::of(&base, &slow);
        assert!((n.slowdown_pct() - 78.0).abs() < 1e-9);
        assert!((n.memory_saving_pct() - 36.0).abs() < 1e-9);
    }

    /// A sample run that cannot fit its workload is `tune_prcl`'s error,
    /// not a panic inside the tuner's closure.
    #[test]
    fn tune_prcl_returns_the_failing_run() {
        use daos_mm::clock::sec;
        use daos_workloads::{Behavior, Suite};
        let mut machine = MachineProfile::i3_metal();
        machine.dram_bytes = 1 << 20;
        let spec = WorkloadSpec {
            name: "too-big",
            suite: Suite::Parsec3,
            // More pages than DRAM plus the zram device can hold.
            footprint: 2 << 30,
            nr_epochs: 10,
            compute_ns: 1_000_000,
            behavior: Behavior::MostlyIdle { active_frac: 0.1, apc: 4.0, stray_prob: 0.0 },
        };
        let cfg = TunerConfig {
            time_limit: sec(40),
            unit_work_time: sec(10),
            range: (0.0, 10.0),
            seed: 1,
        };
        assert!(tune_prcl(&machine, &spec, 1, &cfg).is_err());
    }

    #[test]
    fn score_sign() {
        let base = result(100, 1000);
        let good = result(101, 500); // ~0 perf, 50% saving → ~+25
        let s = score_vs_baseline(&base, &good);
        assert!(s > 20.0 && s < 26.0, "score {s}");
    }
}
