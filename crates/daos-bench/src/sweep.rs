//! The prcl aggressiveness sweep shared by Figures 3, 4 and 5: vary the
//! pageout scheme's `min_age` threshold, score each run with Listing 2.

use daos::{score_inputs, DaosError, Normalized, RunConfig, Session, SessionResult};
use daos_mm::clock::sec;
use daos_mm::MachineProfile;
use daos_tuner::DefaultScore;
use daos_workloads::WorkloadSpec;

use daos_util::pool::par_map;
use crate::report::mean;

/// One sweep sample.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The prcl `min_age` threshold, seconds.
    pub min_age_s: u64,
    /// Listing-2 score (mean over repeats).
    pub score: f64,
    /// Standard deviation of the score over repeats.
    pub score_std: f64,
    /// Normalised performance (mean over repeats).
    pub performance: f64,
    /// Normalised memory efficiency (mean over repeats).
    pub memory_efficiency: f64,
}

/// Sweep `min_age` over `ages_s` for one workload on one machine.
///
/// Evaluation proceeds from the least aggressive setting (largest
/// `min_age`) to the most aggressive, matching the paper's note that
/// "aggressiveness increases from right to left" — Listing 2's stateful
/// SLA clamp then sees safe configurations before risky ones. Returned
/// points are sorted by ascending `min_age`.
///
/// Fails with the first simulation's error if any run rejects its
/// configuration.
pub fn prcl_sweep(
    machine: &MachineProfile,
    spec: &WorkloadSpec,
    ages_s: &[u64],
    repeats: u64,
    seed: u64,
) -> Result<Vec<SweepPoint>, DaosError> {
    // All runs (baseline + each age × repeat) are independent →
    // parallel; scoring is sequential afterwards (stateful SLA).
    let mut ages: Vec<u64> = ages_s.to_vec();
    ages.sort_unstable();
    ages.dedup();

    let mut jobs: Vec<(Option<u64>, u64)> = Vec::new();
    for rep in 0..repeats {
        jobs.push((None, rep)); // baseline
        for &age in &ages {
            jobs.push((Some(age), rep));
        }
    }
    let results = par_map(jobs.clone(), |(age, rep)| {
        let cfg = match age {
            None => RunConfig::baseline(),
            Some(a) => RunConfig::prcl_with_min_age(sec(a)),
        };
        Session::new(machine, &cfg, spec).seed(seed + rep).execute().map(SessionResult::into_single)
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Index results.
    let mut baselines = Vec::new();
    let mut by_age: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for (i, (age, _rep)) in jobs.iter().enumerate() {
        match age {
            None => baselines.push(i),
            Some(a) => by_age.entry(*a).or_default().push(i),
        }
    }

    // Score per repeat, walking ages from least to most aggressive.
    let mut scores: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    let mut norms: std::collections::BTreeMap<u64, Vec<Normalized>> = Default::default();
    for rep in 0..repeats as usize {
        let base = &results[baselines[rep]];
        let mut score_fn = DefaultScore::default();
        for &age in ages.iter().rev() {
            let idx = by_age[&age][rep];
            let r = &results[idx];
            let s = score_fn.score(&score_inputs(base, r));
            scores.entry(age).or_default().push(s);
            norms.entry(age).or_default().push(Normalized::of(base, r));
        }
    }

    Ok(ages
        .iter()
        .map(|&age| {
            let ss = &scores[&age];
            let m = mean(ss.iter().copied());
            let var = mean(ss.iter().map(|s| (s - m) * (s - m)));
            let ns = &norms[&age];
            SweepPoint {
                min_age_s: age,
                score: m,
                score_std: var.sqrt(),
                performance: mean(ns.iter().map(|n| n.performance)),
                memory_efficiency: mean(ns.iter().map(|n| n.memory_efficiency)),
            }
        })
        .collect())
}

/// Convert sweep points to `(aggressiveness, score)` pairs for the
/// Fig. 3 pattern classifier (aggressiveness = 60 − min_age).
pub fn to_aggressiveness_series(points: &[SweepPoint]) -> Vec<(f64, f64)> {
    points.iter().map(|p| (60.0 - p.min_age_s as f64, p.score)).collect()
}
