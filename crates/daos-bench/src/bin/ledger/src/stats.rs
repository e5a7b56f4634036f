//! Order statistics and the simulated-state digest.

/// The `p`-th percentile (0–100) of `sorted` by linear interpolation at
/// rank `p/100 × (n + 1)` — the "exclusive" method, so the quartiles of
/// three or more samples equal Python's `statistics.quantiles(v, n=4)`.
/// Ranks outside the sample clamp to its ends. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let rank = p / 100.0 * (n as f64 + 1.0);
    let j = (rank.floor() as usize).clamp(1, n - 1);
    let frac = (rank - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] * (1.0 - frac) + sorted[j] * frac
}

/// Deciles at the ends, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p10: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p10: percentile(&v, 10.0),
            p25: percentile(&v, 25.0),
            p50: percentile(&v, 50.0),
            p75: percentile(&v, 75.0),
            p90: percentile(&v, 90.0),
        }
    }
}

/// Percentile of unsorted nanosecond samples, in the given divisor's unit.
pub fn percentile_ns(samples: &[u64], p: f64, per: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|&ns| ns as f64 / per).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.p25, s.p50, s.p75), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1..=10], n=10)[0] and [8]
        assert!((s.p10 - 1.1).abs() < 1e-12 && (s.p90 - 9.9).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = Summary::of(&[40.0, 10.0, 20.0]);
        assert_eq!((s.p25, s.p50, s.p75), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.p25, s.p50, s.p75), (1.5, 4.0, 12.0));
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 99.0) - 99.99).abs() < 1e-9);
        assert_eq!(percentile_ns(&[3_000, 1_000, 2_000], 50.0, 1e3), 2.0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
