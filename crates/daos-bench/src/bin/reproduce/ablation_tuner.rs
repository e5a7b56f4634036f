//! Ablation: the paper's tuning strategy (60 % global / 40 % localized
//! sampling + polynomial trend estimation) against two same-budget
//! baselines — a uniform grid search and pure random search — on noisy
//! synthetic score landscapes of the six Fig. 3 shapes.

use daos_bench::report::{mean, write_artifact, Table};
use daos_bench::scale::Scale;
use daos_mm::clock::sec;
use daos_tuner::{tune, Polynomial, ScorePattern, TunerConfig};
use daos_util::rng::SmallRng;

const BUDGET: u64 = 10;
const NOISE: f64 = 2.0;
const TRIALS: u64 = 40;

/// Noisy evaluation of a canonical pattern (aggressiveness t ∈ \[0,60\]).
fn make_eval(pattern: ScorePattern, seed: u64) -> impl FnMut(f64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    move |x: f64| pattern.canonical(x / 60.0) + (rng.random::<f64>() - 0.5) * 2.0 * NOISE
}

/// True optimum of the canonical curve.
fn true_best(pattern: ScorePattern) -> (f64, f64) {
    (0..=600)
        .map(|i| i as f64 / 10.0)
        .map(|x| (x, pattern.canonical(x / 60.0)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
}

/// Regret of one strategy = true optimum score − true score at the
/// strategy's chosen point.
fn regret(pattern: ScorePattern, chosen_x: f64) -> f64 {
    let (_, best) = true_best(pattern);
    best - pattern.canonical(chosen_x / 60.0)
}

fn daos_strategy(pattern: ScorePattern, seed: u64) -> f64 {
    let cfg = TunerConfig {
        time_limit: sec(BUDGET * 10),
        unit_work_time: sec(10),
        range: (0.0, 60.0),
        seed,
    };
    tune(&cfg, make_eval(pattern, seed ^ 0xe7a1)).best_x
}

fn grid_strategy(pattern: ScorePattern, seed: u64) -> f64 {
    // Uniform grid, pick the best raw sample (no fitting).
    let mut eval = make_eval(pattern, seed ^ 0xe7a1);
    (0..BUDGET)
        .map(|i| i as f64 * 60.0 / (BUDGET - 1) as f64)
        .map(|x| (x, eval(x)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
        .0
}

fn random_strategy(pattern: ScorePattern, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut eval = make_eval(pattern, seed ^ 0xe7a1);
    (0..BUDGET)
        .map(|_| rng.random_range(0.0..=60.0))
        .map(|x| (x, eval(x)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
        .0
}

fn grid_fit_strategy(pattern: ScorePattern, seed: u64) -> f64 {
    // Grid + the same polynomial fitting: isolates the contribution of
    // the 60/40 sampling plan from that of the trend estimation.
    let mut eval = make_eval(pattern, seed ^ 0xe7a1);
    let samples: Vec<(f64, f64)> = (0..BUDGET)
        .map(|i| i as f64 * 60.0 / (BUDGET - 1) as f64)
        .map(|x| (x, eval(x)))
        .collect();
    match Polynomial::fit(&samples, daos_tuner::paper_degree(samples.len())) {
        Some(poly) => daos_tuner::best_peak(&poly, 0.0, 60.0).x,
        None => 0.0,
    }
}

pub fn run(_: Scale) {
    println!(
        "Ablation: tuning strategies at equal budget ({BUDGET} samples, noise ±{NOISE}, \
         {TRIALS} trials per landscape)\nmetric: regret = true_best − true(chosen)\n"
    );
    let mut table = Table::new(vec![
        "landscape", "daos (60/40+fit)", "grid+fit", "grid raw", "random raw",
    ]);
    let mut totals = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for pattern in ScorePattern::all() {
        let mut rows = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for t in 0..TRIALS {
            let seed = 1000 + t;
            rows[0].push(regret(pattern, daos_strategy(pattern, seed)));
            rows[1].push(regret(pattern, grid_fit_strategy(pattern, seed)));
            rows[2].push(regret(pattern, grid_strategy(pattern, seed)));
            rows[3].push(regret(pattern, random_strategy(pattern, seed)));
        }
        table.row(vec![
            format!("pattern {}", pattern.index()),
            format!("{:.2}", mean(rows[0].iter().copied())),
            format!("{:.2}", mean(rows[1].iter().copied())),
            format!("{:.2}", mean(rows[2].iter().copied())),
            format!("{:.2}", mean(rows[3].iter().copied())),
        ]);
        for (acc, r) in totals.iter_mut().zip(rows.iter()) {
            acc.extend_from_slice(r);
        }
    }
    table.row(vec![
        "mean".to_string(),
        format!("{:.2}", mean(totals[0].iter().copied())),
        format!("{:.2}", mean(totals[1].iter().copied())),
        format!("{:.2}", mean(totals[2].iter().copied())),
        format!("{:.2}", mean(totals[3].iter().copied())),
    ]);
    print!("{}", table.render());
    println!(
        "\nFindings (honest ablation): trend fitting is the big win — it suppresses the\n\
         ±{NOISE} noise that raw-sample selection chases (compare grid+fit vs grid raw, and\n\
         daos vs random raw). The 60/40 *random* plan, however, underperforms a plain\n\
         uniform grid at this budget on smooth 1-D landscapes: random strata can leave\n\
         the boundary region unsampled, and the peak search never extrapolates beyond\n\
         the sampled hull. The paper's randomized plan buys robustness on landscapes\n\
         whose structure is unknown a priori, not efficiency on smooth ones."
    );
    println!("[artifact] {}", write_artifact("ablation_tuner.csv", &table.to_csv()).unwrap().display());
}
