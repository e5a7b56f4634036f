//! The end-to-end auto-tuning driver (§3.5).
//!
//! Given a parameter range (the scheme's aggressiveness knob), a time
//! budget, and a way to evaluate one parameter value (run the workload
//! under the tuned scheme, score the result), the tuner:
//!
//! 1. computes its sample budget `nr_samples = time_limit / unit_work_time`;
//! 2. spends 60 % of it on global random exploration;
//! 3. spends the remaining 40 % around the best sample so far;
//! 4. fits a degree-`nr_samples/3` polynomial to all samples;
//! 5. returns the highest peak of the fitted curve.

use daos_mm::clock::Ns;

use crate::peaks::{best_peak, Peak};
use crate::polyfit::{paper_degree, Polynomial};
use crate::sampler::Sampler;

/// Tuner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerConfig {
    /// Total tuning time budget (virtual time).
    pub time_limit: Ns,
    /// Time one sample takes to evaluate (workload run + stabilisation).
    pub unit_work_time: Ns,
    /// Parameter range searched, inclusive.
    pub range: (f64, f64),
    /// RNG seed for the sampling plan.
    pub seed: u64,
}

impl TunerConfig {
    /// The sample budget the time limit affords.
    pub fn nr_samples(&self) -> usize {
        (self.time_limit / self.unit_work_time.max(1)) as usize
    }
}

/// Everything the tuning run produced.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// All `(parameter, score)` samples in evaluation order; the first
    /// 60 % are the global phase.
    pub samples: Vec<(f64, f64)>,
    /// The fitted trend curve (`None` if fitting failed, e.g. 0 samples).
    pub curve: Option<Polynomial>,
    /// The chosen parameter value.
    pub best_x: f64,
    /// The estimated score at `best_x`.
    pub best_score: f64,
    /// Number of global-phase samples (rest are local).
    pub nr_global: usize,
}

/// Run the tuning procedure; `eval` maps a parameter value to a score
/// (higher is better).
pub fn tune<F: FnMut(f64) -> f64>(cfg: &TunerConfig, mut eval: F) -> TuneResult {
    let budget = cfg.nr_samples();
    let (nr_global, nr_local) = Sampler::split_budget(budget);
    let mut sampler = Sampler::new(cfg.range.0, cfg.range.1, cfg.seed);
    let mut samples: Vec<(f64, f64)> = Vec::with_capacity(budget);
    // Each sample advances the tuner's virtual clock by one unit of work.
    let mut now: Ns = 0;

    for x in sampler.plan_global(nr_global) {
        let score = eval(x);
        now += cfg.unit_work_time;
        daos_trace::trace!(now, TunerSample { x, score, phase: daos_trace::SamplePhase::Global });
        samples.push((x, score));
    }
    let best_so_far = samples
        .iter()
        .copied()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(core::cmp::Ordering::Equal));
    if let Some((bx, _)) = best_so_far {
        for x in sampler.plan_local(bx, nr_local) {
            let score = eval(x);
            now += cfg.unit_work_time;
            daos_trace::trace!(now, TunerSample {
                x,
                score,
                phase: daos_trace::SamplePhase::Local,
            });
            samples.push((x, score));
        }
    }

    let degree = paper_degree(samples.len());
    daos_trace::trace!(now, TunerRefit { degree: degree as u64, nr_samples: samples.len() as u64 });
    let curve = Polynomial::fit(&samples, degree);
    // Search the fitted curve only over the sampled hull: outside it the
    // polynomial is pure extrapolation and its peaks are artefacts.
    let (hull_lo, hull_hi) = samples.iter().fold(
        (f64::INFINITY, f64::NEG_INFINITY),
        |(lo, hi), &(x, _)| (lo.min(x), hi.max(x)),
    );
    let (best_x, best_score) = match &curve {
        Some(poly) if hull_hi > hull_lo => {
            let Peak { x, y } = best_peak(poly, hull_lo, hull_hi);
            (x, y)
        }
        _ => best_so_far.unwrap_or((cfg.range.0, f64::NEG_INFINITY)),
    };
    daos_trace::trace!(now, TunerStep { best_x, best_score });
    // One TunerStep span covers the whole procedure: enter at virtual 0,
    // exit at `now` (the time the sampling budget actually consumed).
    daos_trace::span!(0, TunerStep, now);
    TuneResult { samples, curve, best_x, best_score, nr_global }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::clock::sec;

    fn cfg(nr_samples: u64) -> TunerConfig {
        TunerConfig {
            time_limit: sec(nr_samples * 10),
            unit_work_time: sec(10),
            range: (0.0, 60.0),
            seed: 42,
        }
    }

    #[test]
    fn sample_budget_from_time_limit() {
        assert_eq!(cfg(10).nr_samples(), 10);
        let c = TunerConfig {
            time_limit: sec(95),
            unit_work_time: sec(10),
            range: (0.0, 1.0),
            seed: 0,
        };
        assert_eq!(c.nr_samples(), 9, "truncates to whole samples");
    }

    #[test]
    fn finds_peak_of_smooth_noisy_curve() {
        // The Fig. 5 situation: true peak near min_age 16, noise on top.
        let truth = |x: f64| 25.0 - (x - 16.0).powi(2) / 30.0;
        let mut state = 0u64;
        let mut noisy = |x: f64| {
            // Cheap deterministic noise.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 2.0;
            truth(x) + noise
        };
        let result = tune(&cfg(10), &mut noisy);
        assert_eq!(result.samples.len(), 10);
        assert_eq!(result.nr_global, 6);
        assert!(
            (result.best_x - 16.0).abs() < 8.0,
            "estimated peak {} should be near 16",
            result.best_x
        );
        assert!(result.curve.is_some());
        // The local samples must cluster near the global best.
        let global_best = result.samples[..6]
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        for &(x, _) in &result.samples[6..] {
            assert!((x - global_best).abs() <= 6.0 + 1e-9, "local sample {x} near {global_best}");
        }
    }

    #[test]
    fn monotonic_score_picks_boundary() {
        // Peak search is clamped to the sampled hull, so the chosen value
        // sits at the outermost sample of the better flank — within one
        // global stratum width (60 / 5 global samples = 12) of the true
        // boundary.
        let result = tune(&cfg(9), |x| x); // more aggressive always better
        assert!(result.best_x > 60.0 - 13.0, "best_x {}", result.best_x);
        let result = tune(&cfg(9), |x| -x);
        assert!(result.best_x < 13.0, "best_x {}", result.best_x);
    }

    #[test]
    fn more_samples_improve_estimate() {
        let truth = |x: f64| 20.0 - (x - 30.0).powi(2) / 50.0;
        let mut phase = 0.0f64;
        let mut noisy = |x: f64| {
            phase += 1.7;
            truth(x) + phase.sin() * 3.0
        };
        let coarse = tune(&cfg(6), &mut noisy);
        let fine = tune(&cfg(30), &mut noisy);
        let err_c = (coarse.best_x - 30.0).abs();
        let err_f = (fine.best_x - 30.0).abs();
        assert!(err_f <= err_c + 5.0, "coarse {err_c}, fine {err_f}");
        assert!(err_f < 10.0, "fine estimate err {err_f}");
    }

    #[test]
    fn zero_budget_degrades_gracefully() {
        let result = tune(&cfg(0), |_| panic!("must not evaluate"));
        assert!(result.samples.is_empty());
        assert_eq!(result.best_x, 0.0);
    }

    #[test]
    fn single_sample_budget() {
        let result = tune(&cfg(1), |x| x * 2.0);
        assert_eq!(result.samples.len(), 1);
        assert!(result.best_score.is_finite());
    }

    #[test]
    fn tuner_events_reach_collector() {
        daos_trace::install(daos_trace::Collector::builder().build().unwrap()).unwrap();
        let result = tune(&cfg(10), |x| x);
        let collector = daos_trace::take().unwrap();
        let names: Vec<&str> =
            collector.events().iter().map(|te| te.event.name()).collect();
        assert_eq!(names.iter().filter(|n| **n == "TunerSample").count(), 10);
        assert!(names.contains(&"TunerRefit"));
        assert!(names.contains(&"TunerStep"));
        assert_eq!(collector.registry().gauge("tuner.best_x"), Some(result.best_x));
        assert_eq!(collector.registry().counter("tuner.samples"), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tune(&cfg(10), |x| (x - 20.0).cos() * 10.0);
        let b = tune(&cfg(10), |x| (x - 20.0).cos() * 10.0);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.best_x, b.best_x);
    }
}
