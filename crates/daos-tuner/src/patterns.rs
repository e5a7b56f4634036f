//! The six score-vs-aggressiveness patterns of Figure 3 (§3.3).
//!
//! The paper argues that, because performance degrades in a
//! gentle–steep–gentle S-curve as a reclaim action gets more aggressive
//! while memory efficiency improves in the mirror image, a
//! perf+memory score follows one of six shapes. Three "primary" shapes:
//!
//! 1. continuously increases (memory efficiency dominates);
//! 2. increases then decreases, but stays **above** the no-action level;
//! 3. increases then decreases, ending **below** the no-action level;
//!
//! and their three complements (4: continuously decreases; 5: decreases
//! then increases, ending below; 6: decreases then increases, ending
//! above). This module generates canonical curves for each pattern and
//! classifies measured curves into them.


use crate::polyfit::Polynomial;

/// One of the six Fig. 3 score patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScorePattern {
    /// 1: monotonically increasing with aggressiveness.
    Increasing,
    /// 2: rises, then falls, final score still above the no-action score.
    RiseFallAbove,
    /// 3: rises, then falls below the no-action score.
    RiseFallBelow,
    /// 4: monotonically decreasing.
    Decreasing,
    /// 5: falls, then rises but ends below the no-action score.
    FallRiseBelow,
    /// 6: falls, then rises above the no-action score.
    FallRiseAbove,
}

impl ScorePattern {
    /// All six, in the paper's numbering order.
    pub fn all() -> [ScorePattern; 6] {
        [
            ScorePattern::Increasing,
            ScorePattern::RiseFallAbove,
            ScorePattern::RiseFallBelow,
            ScorePattern::Decreasing,
            ScorePattern::FallRiseBelow,
            ScorePattern::FallRiseAbove,
        ]
    }

    /// Paper index (1-based).
    pub fn index(&self) -> usize {
        match self {
            ScorePattern::Increasing => 1,
            ScorePattern::RiseFallAbove => 2,
            ScorePattern::RiseFallBelow => 3,
            ScorePattern::Decreasing => 4,
            ScorePattern::FallRiseBelow => 5,
            ScorePattern::FallRiseAbove => 6,
        }
    }

    /// A canonical curve of this pattern over `t ∈ [0, 1]`
    /// (aggressiveness normalised), with score 0 at `t = 0`.
    pub fn canonical(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        match self {
            ScorePattern::Increasing => 20.0 * t,
            ScorePattern::RiseFallAbove => 25.0 * t * (1.2 - t) / 0.36, // peak 25 at 0.6, ends ~14
            ScorePattern::RiseFallBelow => 100.0 * t * (0.7 - t),       // peak then negative
            ScorePattern::Decreasing => -20.0 * t,
            ScorePattern::FallRiseBelow => -25.0 * t * (1.2 - t) / 0.36,
            ScorePattern::FallRiseAbove => -100.0 * t * (0.7 - t),
        }
    }
}

impl core::fmt::Display for ScorePattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ScorePattern::Increasing => "1: continuously increasing",
            ScorePattern::RiseFallAbove => "2: rise then fall, still better than no action",
            ScorePattern::RiseFallBelow => "3: rise then fall, worse than no action",
            ScorePattern::Decreasing => "4: continuously decreasing",
            ScorePattern::FallRiseBelow => "5: fall then rise, worse than no action",
            ScorePattern::FallRiseAbove => "6: fall then rise, better than no action",
        };
        f.write_str(s)
    }
}

/// Classify a measured score curve.
///
/// `samples` are `(aggressiveness, score)` pairs (any order); the curve is
/// smoothed with a cubic fit before the shape test so per-run noise (the
/// paper notes "random score variations") does not masquerade as extra
/// inflections. Returns `None` for fewer than 4 samples or a degenerate
/// fit.
pub fn classify(samples: &[(f64, f64)]) -> Option<ScorePattern> {
    if samples.len() < 4 {
        return None;
    }
    let mut xs: Vec<f64> = samples.iter().map(|s| s.0).collect();
    xs.sort_by(f64::total_cmp);
    let (lo, hi) = (xs[0], xs[xs.len() - 1]);
    // NaN-safe emptiness check: deliberately NOT `hi <= lo` (NaN must bail).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(hi > lo) {
        return None;
    }
    let poly = Polynomial::fit(samples, 3.min(samples.len() - 1))?;

    // Sample the smoothed curve.
    const GRID: usize = 64;
    let ys: Vec<f64> = (0..=GRID)
        .map(|i| poly.eval(lo + (hi - lo) * i as f64 / GRID as f64))
        .collect();
    let y0 = ys[0];
    let yend = ys[GRID];
    let (max_i, &max_y) = ys
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(core::cmp::Ordering::Equal))?;
    let (min_i, &min_y) = ys
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(core::cmp::Ordering::Equal))?;

    let span = (max_y - min_y).max(1e-12);
    let near = |a: f64, b: f64| (a - b).abs() < 0.05 * span;
    let interior = |i: usize| i > GRID / 16 && i < GRID - GRID / 16;

    // Peak in the interior → rise-then-fall family.
    if interior(max_i) && !near(max_y, y0.max(yend)) {
        return Some(if yend >= y0 {
            ScorePattern::RiseFallAbove
        } else {
            ScorePattern::RiseFallBelow
        });
    }
    // Valley in the interior → fall-then-rise family.
    if interior(min_i) && !near(min_y, y0.min(yend)) {
        return Some(if yend >= y0 {
            ScorePattern::FallRiseAbove
        } else {
            ScorePattern::FallRiseBelow
        });
    }
    // Monotone families.
    Some(if yend >= y0 { ScorePattern::Increasing } else { ScorePattern::Decreasing })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pattern: ScorePattern, noise: f64) -> Vec<(f64, f64)> {
        let mut state = 12345u64;
        (0..=30)
            .map(|i| {
                let t = i as f64 / 30.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let n = ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 2.0 * noise;
                (t, pattern.canonical(t) + n)
            })
            .collect()
    }

    #[test]
    fn canonical_curves_classify_as_themselves() {
        for p in ScorePattern::all() {
            let got = classify(&sample(p, 0.0)).unwrap();
            assert_eq!(got, p, "clean canonical curve of {p}");
        }
    }

    #[test]
    fn classification_robust_to_noise() {
        for p in ScorePattern::all() {
            let got = classify(&sample(p, 1.0)).unwrap();
            assert_eq!(got, p, "noisy curve of {p}");
        }
    }

    #[test]
    fn canonical_start_at_zero() {
        for p in ScorePattern::all() {
            assert!(p.canonical(0.0).abs() < 1e-9, "{p} must start at no-action score 0");
        }
    }

    #[test]
    fn pattern_2_3_end_relation() {
        assert!(ScorePattern::RiseFallAbove.canonical(1.0) > 0.0);
        assert!(ScorePattern::RiseFallBelow.canonical(1.0) < 0.0);
        assert!(ScorePattern::FallRiseAbove.canonical(1.0) > 0.0);
        assert!(ScorePattern::FallRiseBelow.canonical(1.0) < 0.0);
    }

    #[test]
    fn too_few_samples_is_none() {
        assert_eq!(classify(&[(0.0, 1.0), (1.0, 2.0)]), None);
        assert_eq!(classify(&[]), None);
        // Degenerate x range.
        assert_eq!(classify(&[(1.0, 1.0); 6]), None);
    }

    #[test]
    fn indices_match_paper_numbering() {
        let idx: Vec<usize> = ScorePattern::all().iter().map(|p| p.index()).collect();
        assert_eq!(idx, vec![1, 2, 3, 4, 5, 6]);
    }
}
