//! Score functions unifying performance and memory efficiency (§3.3).
//!
//! The default is the paper's Listing 2: equal weight on performance and
//! memory saving, with an SLA that tolerates at most a 10 % performance
//! drop — samples violating the SLA score as badly as the worst sample
//! seen so far. Scores are reported ×100 (percent points), matching the
//! 5–45 ranges plotted in Figures 4, 5 and 8.


/// Raw measurements of one sample run plus the no-action baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreInputs {
    /// Runtime of the tuned run (any consistent unit).
    pub runtime: f64,
    /// Runtime of the original (no scheme) run.
    pub orig_runtime: f64,
    /// Memory footprint (RSS) of the tuned run.
    pub rss: f64,
    /// Memory footprint of the original run.
    pub orig_rss: f64,
}

impl ScoreInputs {
    /// Performance score: `-(runtime/orig_runtime - 1)` — positive when
    /// the tuned run is faster.
    pub fn pscore(&self) -> f64 {
        -(self.runtime / self.orig_runtime - 1.0)
    }

    /// Memory score: `-(rss/orig_rss - 1)` — positive when memory shrank.
    pub fn mscore(&self) -> f64 {
        -(self.rss / self.orig_rss - 1.0)
    }
}

/// Listing 2 of the paper, verbatim (×100 for percent points):
///
/// ```text
/// pscore = -1 * (runtime / orig_runtime - 1)
/// mscore = -1 * (rss / orig_rss - 1)
/// if pscore > -0.1:
///     score = 0.5 * pscore + 0.5 * mscore
///     prev_scores.append(score)
///     return score
/// return min(prev_scores)
/// ```
///
/// It is stateful: Listing 2 returns the *worst score seen so far* for
/// SLA-violating samples, so one tuning session uses one instance.
#[derive(Debug, Clone)]
pub struct DefaultScore {
    /// SLA floor on `pscore` (−0.1 = at most 10 % slowdown).
    pub sla_pscore_floor: f64,
    /// Weight on performance (memory gets `1 - w`).
    pub perf_weight: f64,
    prev_scores: Vec<f64>,
}

impl Default for DefaultScore {
    fn default() -> Self {
        Self { sla_pscore_floor: -0.1, perf_weight: 0.5, prev_scores: Vec::new() }
    }
}

/// Floor for SLA-violation scores when no valid sample exists yet.
pub const WORST_SCORE: f64 = -100.0;

impl DefaultScore {
    /// Score one sample.
    pub fn score(&mut self, inputs: &ScoreInputs) -> f64 {
        let pscore = inputs.pscore();
        let mscore = inputs.mscore();
        if pscore > self.sla_pscore_floor {
            let score =
                100.0 * (self.perf_weight * pscore + (1.0 - self.perf_weight) * mscore);
            self.prev_scores.push(score);
            score
        } else if self.prev_scores.is_empty() {
            // Listing 2 leaves this case (min of an empty list) undefined;
            // returning the raw weighted score keeps the value informative
            // (and still worse than any SLA-compliant sample's would be in
            // practice, since pscore < -0.1 dominates it).
            (100.0 * (self.perf_weight * pscore + (1.0 - self.perf_weight) * mscore))
                .max(WORST_SCORE)
        } else {
            self.prev_scores.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(runtime: f64, rss: f64) -> ScoreInputs {
        ScoreInputs { runtime, orig_runtime: 100.0, rss, orig_rss: 100.0 }
    }

    #[test]
    fn pscore_mscore_signs() {
        let i = inputs(90.0, 50.0);
        assert!((i.pscore() - 0.1).abs() < 1e-12, "10% faster → +0.1");
        assert!((i.mscore() - 0.5).abs() < 1e-12, "50% smaller → +0.5");
        let worse = inputs(120.0, 150.0);
        assert!(worse.pscore() < 0.0);
        assert!(worse.mscore() < 0.0);
    }

    #[test]
    fn equal_weight_combination() {
        let mut f = DefaultScore::default();
        // Same runtime, 40 % memory saved → score = 0.5*0 + 0.5*0.4 = 20.
        let s = f.score(&inputs(100.0, 60.0));
        assert!((s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn sla_violation_returns_worst_so_far() {
        let mut f = DefaultScore::default();
        let good = f.score(&inputs(100.0, 60.0)); // 20
        let ok = f.score(&inputs(105.0, 80.0)); // 0.5*(-.05)+0.5*.2 = 7.5
        assert!(good > ok);
        // 30 % slowdown violates the 10 % SLA → min of previous = 7.5.
        let bad = f.score(&inputs(130.0, 10.0));
        assert!((bad - ok).abs() < 1e-9);
        // Exactly -0.1 pscore is also a violation (strict >).
        let edge = f.score(&ScoreInputs {
            runtime: 110.0,
            orig_runtime: 100.0,
            rss: 0.0,
            orig_rss: 100.0,
        });
        assert!((edge - ok).abs() < 1e-9);
    }

    #[test]
    fn sla_violation_with_no_history_returns_raw_score() {
        let mut f = DefaultScore::default();
        // 100% slowdown, 99% saving: raw = 100*(0.5*(-1.0)+0.5*0.99).
        let s = f.score(&inputs(200.0, 1.0));
        assert!((s - (-0.5)).abs() < 1e-9, "raw weighted score, got {s}");
        // Catastrophic violations floor at WORST_SCORE.
        let s = DefaultScore::default().score(&inputs(100_000.0, 100.0));
        assert_eq!(s, WORST_SCORE);
    }
}
