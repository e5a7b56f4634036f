//! Normalised metrics, as plotted in Figures 7 and 8.

use daos_tuner::{DefaultScore, ScoreFn, ScoreInputs};

use crate::session::RunResult;

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
    let mut f = DefaultScore::default();
    f.score(&ScoreInputs {
        runtime: run.runtime_ns as f64,
        orig_runtime: baseline.runtime_ns as f64,
        rss: run.avg_rss as f64,
        orig_rss: baseline.avg_rss as f64,
    })
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

    #[test]
    fn score_sign() {
        let base = result(100, 1000);
        let good = result(101, 500); // ~0 perf, 50% saving → ~+25
        let s = score_vs_baseline(&base, &good);
        assert!(s > 20.0 && s < 26.0, "score {s}");
    }
}


daos_util::json_struct!(Normalized { performance, memory_efficiency });
