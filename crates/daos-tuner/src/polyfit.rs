//! Least-squares polynomial curve fitting (§3.5: "To get the relationship
//! while mitigating the random score noise, we use polynomial curve
//! fitting. The degree is set as nr_samples/3 to avoid over-fitting.").
//!
//! Implemented with the normal equations on x-values normalised to
//! [-1, 1] (for conditioning), solved by Gaussian elimination with
//! partial pivoting.


/// A fitted polynomial over a normalised domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    /// Coefficients in the *normalised* variable `t`, lowest degree first.
    coeffs: Vec<f64>,
    /// Domain midpoint (for normalisation).
    x_mid: f64,
    /// Domain half-width.
    x_half: f64,
}

impl Polynomial {
    /// Fit a degree-`degree` polynomial to `(x, y)` samples.
    ///
    /// Returns `None` when there are no samples or the system is
    /// degenerate. The effective degree is clamped to `samples.len() - 1`.
    pub fn fit(samples: &[(f64, f64)], degree: usize) -> Option<Polynomial> {
        if samples.is_empty() {
            return None;
        }
        let degree = degree.min(samples.len() - 1);
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, _) in samples {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
        }
        let x_mid = (xmin + xmax) / 2.0;
        let x_half = ((xmax - xmin) / 2.0).max(1e-12);

        let n = degree + 1;
        // Normal equations: A^T A c = A^T y with Vandermonde A in t.
        let mut ata = vec![vec![0.0f64; n]; n];
        let mut aty = vec![0.0f64; n];
        for &(x, y) in samples {
            let t = (x - x_mid) / x_half;
            let mut pow = vec![1.0f64; 2 * n - 1];
            for k in 1..2 * n - 1 {
                pow[k] = pow[k - 1] * t;
            }
            for i in 0..n {
                for j in 0..n {
                    ata[i][j] += pow[i + j];
                }
                aty[i] += pow[i] * y;
            }
        }
        let coeffs = solve(ata, aty)?;
        Some(Polynomial { coeffs, x_mid, x_half })
    }

    /// Evaluate at `x` (original domain).
    pub fn eval(&self, x: f64) -> f64 {
        let t = (x - self.x_mid) / self.x_half;
        // Horner.
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * t + c)
    }

    /// Evaluate the derivative d/dx at `x`.
    pub fn deriv(&self, x: f64) -> f64 {
        let t = (x - self.x_mid) / self.x_half;
        let mut acc = 0.0;
        for (k, &c) in self.coeffs.iter().enumerate().skip(1).rev() {
            acc = acc * t + c * k as f64;
        }
        acc / self.x_half
    }

    /// Degree of the fitted polynomial.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }
}

/// Solve `m x = b` by Gaussian elimination with partial pivoting.
#[allow(clippy::needless_range_loop)] // double-indexing one matrix
fn solve(mut m: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            m[i][col].abs().partial_cmp(&m[j][col].abs()).unwrap_or(core::cmp::Ordering::Equal)
        })?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..n {
            let f = m[row][col] / m[col][col];
            for k in col..n {
                m[row][k] -= f * m[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back-substitute.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= m[row][k] * x[k];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

/// The paper's degree rule: `nr_samples / 3`, at least 1 (a constant fit
/// cannot expose a peak), capped for numerical stability.
pub fn paper_degree(nr_samples: usize) -> usize {
    (nr_samples / 3).clamp(1, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn interpolates_exactly_at_full_degree() {
        let pts = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (4.0, -1.0)];
        let p = Polynomial::fit(&pts, 3).unwrap();
        for &(x, y) in &pts {
            assert_close(p.eval(x), y, 1e-8);
        }
    }

    #[test]
    fn recovers_known_quadratic() {
        // y = 2 - (x-3)^2 sampled on [0,6].
        let pts: Vec<(f64, f64)> =
            (0..=12).map(|i| i as f64 / 2.0).map(|x| (x, 2.0 - (x - 3.0).powi(2))).collect();
        let p = Polynomial::fit(&pts, 2).unwrap();
        assert_close(p.eval(3.0), 2.0, 1e-9);
        assert_close(p.eval(0.0), -7.0, 1e-9);
        assert_close(p.deriv(3.0), 0.0, 1e-9);
        assert_close(p.deriv(5.0), -4.0, 1e-9);
    }

    #[test]
    fn degree_clamped_to_samples() {
        let pts = [(0.0, 1.0), (1.0, 2.0)];
        let p = Polynomial::fit(&pts, 9).unwrap();
        assert_eq!(p.degree(), 1);
        assert_close(p.eval(0.5), 1.5, 1e-9);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(Polynomial::fit(&[], 2).is_none());
        // Single point: degree clamps to 0 → constant fit.
        let p = Polynomial::fit(&[(5.0, 7.0)], 3).unwrap();
        assert_close(p.eval(0.0), 7.0, 1e-9);
        assert_close(p.eval(100.0), 7.0, 1e-9);
    }

    #[test]
    fn all_same_x_does_not_explode() {
        // Duplicate x values: the high-degree system is singular, which
        // must surface as None rather than NaN coefficients.
        let pts = [(2.0, 1.0), (2.0, 3.0), (2.0, 2.0)];
        match Polynomial::fit(&pts, 2) {
            None => {}
            Some(p) => assert!(p.eval(2.0).is_finite()),
        }
    }

    #[test]
    fn paper_degree_rule() {
        assert_eq!(paper_degree(10), 3); // the paper's 10-sample example
        assert_eq!(paper_degree(3), 1);
        assert_eq!(paper_degree(1), 1);
        assert_eq!(paper_degree(100), 8, "capped for stability");
    }
}
