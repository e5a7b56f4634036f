//! Property tests for the tuner's numerical components.

use daos_tuner::{best_peak, paper_degree, DefaultScore, Polynomial, ScoreInputs};
use daos_util::prop::{btree_set_of, vec_of, TestCaseError};
use daos_util::{prop_assert, proptest};

proptest! {
    cases = 128;

    /// A full-degree fit interpolates its (distinct-x) samples.
    fn full_degree_fit_interpolates(
        xs in btree_set_of(-50i32..50, 2..6),
        ys in vec_of(-100i32..100, 6),
    ) {
        let pts: Vec<(f64, f64)> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| (x as f64, y as f64))
            .collect();
        let poly = Polynomial::fit(&pts, pts.len() - 1)
            .ok_or_else(|| TestCaseError::fail("fit failed"))?;
        for &(x, y) in &pts {
            prop_assert!((poly.eval(x) - y).abs() < 1e-5, "p({x}) = {} vs {y}", poly.eval(x));
        }
    }

    /// The derivative is consistent with finite differences.
    fn derivative_matches_finite_difference(
        coeff_seed in vec_of(-5.0f64..5.0, 3..6),
        x in -10.0f64..10.0,
    ) {
        let pts: Vec<(f64, f64)> = (0..12)
            .map(|i| {
                let t = -10.0 + i as f64 * 2.0;
                let y: f64 = coeff_seed
                    .iter()
                    .enumerate()
                    .map(|(k, c)| c * (t / 10.0).powi(k as i32))
                    .sum();
                (t, y)
            })
            .collect();
        let poly = Polynomial::fit(&pts, coeff_seed.len() - 1)
            .ok_or_else(|| TestCaseError::fail("fit failed"))?;
        let h = 1e-5;
        let fd = (poly.eval(x + h) - poly.eval(x - h)) / (2.0 * h);
        prop_assert!((poly.deriv(x) - fd).abs() < 1e-3, "deriv {} vs fd {}", poly.deriv(x), fd);
    }

    /// best_peak returns a point inside the interval whose value is at
    /// least the curve's value at 64 probe points (within tolerance).
    fn best_peak_is_global_max_on_interval(
        ys in vec_of(-50i32..50, 6),
        lo in -20.0f64..0.0,
        width in 1.0f64..40.0,
    ) {
        let hi = lo + width;
        let pts: Vec<(f64, f64)> = ys
            .iter()
            .enumerate()
            .map(|(i, &y)| (lo + width * i as f64 / 5.0, y as f64))
            .collect();
        let poly = Polynomial::fit(&pts, 3).ok_or_else(|| TestCaseError::fail("fit"))?;
        let peak = best_peak(&poly, lo, hi);
        prop_assert!(peak.x >= lo - 1e-9 && peak.x <= hi + 1e-9);
        for i in 0..=64 {
            let x = lo + width * i as f64 / 64.0;
            prop_assert!(
                poly.eval(x) <= peak.y + 1e-6 + peak.y.abs() * 1e-9,
                "probe {} has {} > peak {}", x, poly.eval(x), peak.y
            );
        }
    }

    /// paper_degree stays within sane bounds for any budget.
    fn paper_degree_bounds(n in 0usize..10_000) {
        let d = paper_degree(n);
        prop_assert!((1..=8).contains(&d));
        if n >= 3 {
            prop_assert!(d <= n / 3 || n / 3 == 0);
        }
    }

    /// Listing-2 invariants: SLA-compliant scores are the weighted sum;
    /// violating scores never exceed the best compliant score seen.
    fn listing2_violations_never_beat_history(
        runs in vec_of((50.0f64..300.0, 1.0f64..200.0), 1..20),
    ) {
        let mut f = DefaultScore::default();
        let mut best_compliant = f64::NEG_INFINITY;
        for (runtime, rss) in runs {
            let inputs = ScoreInputs { runtime, orig_runtime: 100.0, rss, orig_rss: 100.0 };
            let s = f.score(&inputs);
            if inputs.pscore() > -0.1 {
                best_compliant = best_compliant.max(s);
            } else if best_compliant.is_finite() {
                prop_assert!(
                    s <= best_compliant + 1e-9,
                    "violation scored {} above best compliant {}", s, best_compliant
                );
            }
        }
    }
}
