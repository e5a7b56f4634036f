//! Figure 4: scores of the proactive reclamation scheme for varying
//! aggressiveness (min_age 0–60 s) on the Fig. 4 workload panel across
//! the three machines. Also classifies each curve into the Fig. 3
//! patterns (Conclusion-1).

use daos_bench::report::{write_artifact, Table};
use daos_bench::scale::Scale;
use daos_bench::sweep::{prcl_sweep, to_aggressiveness_series};
use daos_tuner::classify;

pub fn run(scale: Scale) {
    let ages = scale.fig4_ages();
    let machines = scale.machines();
    let workloads = scale.fig4_workloads();
    let reps = scale.repeats();
    println!(
        "Figure 4: prcl score vs min_age — {} workloads x {} machines x {} ages x {} repeats\n",
        workloads.len(),
        machines.len(),
        ages.len(),
        reps
    );

    let mut csv = Table::new(vec![
        "workload", "machine", "min_age_s", "score", "score_std", "performance", "memory_efficiency",
    ]);
    let mut patterns = Table::new(vec!["workload", "machine", "fig3 pattern"]);

    for spec in &workloads {
        println!("== {} ==", spec.path_name());
        let mut header = format!("{:>9}", "min_age");
        for m in &machines {
            header.push_str(&format!("  {:>8}", format!("score.{}", &m.name[..1])));
        }
        println!("{header}");
        let mut series_per_machine = Vec::new();
        for machine in &machines {
            let pts = prcl_sweep(machine, spec, &ages, reps, 42).expect("prcl sweep");
            for p in &pts {
                csv.row(vec![
                    spec.path_name(),
                    machine.name.clone(),
                    p.min_age_s.to_string(),
                    format!("{:.2}", p.score),
                    format!("{:.2}", p.score_std),
                    format!("{:.4}", p.performance),
                    format!("{:.4}", p.memory_efficiency),
                ]);
            }
            series_per_machine.push(pts);
        }
        for (i, &age) in ages.iter().enumerate() {
            let mut line = format!("{age:>8}s");
            for pts in &series_per_machine {
                line.push_str(&format!("  {:>8.1}", pts[i].score));
            }
            println!("{line}");
        }
        for (machine, pts) in machines.iter().zip(&series_per_machine) {
            let series = to_aggressiveness_series(pts);
            let label = classify(&series)
                .map(|p| p.to_string())
                .unwrap_or_else(|| "unclassifiable".into());
            println!("  pattern on {}: {}", machine.name, label);
            patterns.row(vec![spec.path_name(), machine.name.clone(), label]);
        }
        println!();
    }

    println!("Conclusion-1 check: every curve falls into one of the 6 patterns.\n");
    print!("{}", patterns.render());
    println!("[artifact] {}", write_artifact("fig4_scores.csv", &csv.to_csv()).unwrap().display());
    println!("[artifact] {}", write_artifact("fig4_patterns.csv", &patterns.to_csv()).unwrap().display());
}
