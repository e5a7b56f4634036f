//! Figure 5: the auto-tuner's trend estimation for parsec3/raytrace —
//! a dense "Measured" sweep, the 10 tuner samples (6 global + 4 local),
//! the polynomial "Estimated" curve, and the chosen peak.

use daos::tune_prcl;
use daos_bench::report::{write_artifact, Table};
use daos_bench::scale::Scale;
use daos_bench::sweep::prcl_sweep;
use daos_mm::clock::sec;
use daos_mm::MachineProfile;
use daos_tuner::TunerConfig;
use daos_workloads::by_path;

pub fn run(_: Scale) {
    let machine = MachineProfile::i3_metal();
    let spec = by_path("parsec3/raytrace").expect("suite workload");
    println!("Figure 5: trend estimation for {} on {}.\n", spec.path_name(), machine.name);

    // Dense measured curve (1 s granularity, as in the paper).
    let ages: Vec<u64> = (0..=60).collect();
    let measured = prcl_sweep(&machine, &spec, &ages, 1, 42).expect("prcl sweep");

    // The tuning session: 10 samples (60 % global + 40 % local).
    let cfg = TunerConfig {
        time_limit: sec(100),
        unit_work_time: sec(10), // → 10 samples
        range: (0.0, 60.0),
        seed: 42,
    };
    let result = tune_prcl(&machine, &spec, 42, &cfg).expect("tuning runs").result;

    let curve = result.curve.as_ref().expect("polynomial fit");
    let mut csv = Table::new(vec!["min_age_s", "measured", "estimated"]);
    for (age, m) in ages.iter().zip(&measured) {
        csv.row(vec![
            age.to_string(),
            format!("{:.3}", m.score),
            format!("{:.3}", curve.eval(*age as f64)),
        ]);
    }
    print!("{}", csv.render());

    println!("\nTuner samples: 60% global, then 40% local around the best global sample:");
    let mut samples = Table::new(vec!["phase", "min_age_s", "score"]);
    for (i, (x, s)) in result.samples.iter().enumerate() {
        let phase = if i < result.nr_global { "global" } else { "local" };
        samples.row(vec![phase.into(), format!("{x:.2}"), format!("{s:.3}")]);
    }
    print!("{}", samples.render());

    let best_measured = measured
        .iter()
        .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
        .unwrap();
    println!(
        "\nestimated peak: min_age {:.1}s (score {:.2}); measured best: min_age {}s (score {:.2})",
        result.best_x, result.best_score, best_measured.min_age_s, best_measured.score
    );
    println!(
        "polynomial degree {} (nr_samples/3 rule), {} samples total",
        curve.degree(),
        result.samples.len()
    );

    println!("[artifact] {}", write_artifact("fig5_curves.csv", &csv.to_csv()).unwrap().display());
    println!("[artifact] {}", write_artifact("fig5_samples.csv", &samples.to_csv()).unwrap().display());
}
