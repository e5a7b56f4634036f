//! Figure 8: manually-optimized vs auto-tuned prcl schemes on the three
//! machines — the Auto-tuning Runtime finds per-workload/per-machine
//! min_age thresholds with 10 samples and the Listing-2 score function
//! (Conclusion-5).

use daos::{score_vs_baseline, tune_prcl, Normalized, RunConfig, Session, TunedPrcl};
use daos_util::pool::par_map;
use daos_bench::report::{mean, write_artifact, Table};
use daos_bench::scale::Scale;
use daos_mm::clock::sec;
use daos_mm::MachineProfile;
use daos_tuner::TunerConfig;
use daos_workloads::WorkloadSpec;

struct Row {
    workload: String,
    machine: String,
    man: Normalized,
    man_score: f64,
    auto: Normalized,
    auto_score: f64,
    tuned_min_age: f64,
}

fn tune_one(machine: &MachineProfile, spec: &WorkloadSpec) -> Row {
    // Auto-tuning with 10 samples, as in §4.3.
    let cfg = TunerConfig {
        time_limit: sec(100),
        unit_work_time: sec(10),
        range: (0.0, 60.0),
        seed: 42,
    };
    let TunedPrcl { baseline, result, tuned: auto } =
        tune_prcl(machine, spec, 42, &cfg).expect("tuning runs");
    // The manually-written scheme: the paper's Listing-3 thresholds
    // (min_age 5 s), tuned by hand on the i3.metal guest.
    let manual = Session::new(machine, &RunConfig::prcl(), spec)
        .seed(42)
        .execute()
        .expect("manual prcl")
        .into_single();

    Row {
        workload: spec.plot_name(),
        machine: machine.name.clone(),
        man: Normalized::of(&baseline, &manual),
        man_score: score_vs_baseline(&baseline, &manual),
        auto: Normalized::of(&baseline, &auto),
        auto_score: score_vs_baseline(&baseline, &auto),
        tuned_min_age: result.best_x,
    }
}

pub fn run(scale: Scale) {
    let machines = scale.machines();
    let workloads = scale.full_suite();
    println!(
        "Figure 8: manual vs auto-tuned prcl — {} workloads x {} machines, 10 tuning samples each.\n",
        workloads.len(),
        machines.len()
    );

    let mut jobs = Vec::new();
    for machine in &machines {
        for spec in &workloads {
            jobs.push((machine.clone(), *spec));
        }
    }
    let rows: Vec<Row> = par_map(jobs, |(machine, spec)| tune_one(&machine, &spec));

    let mut table = Table::new(vec![
        "workload", "machine", "man_perf", "auto_perf", "man_mem", "auto_mem", "man_score",
        "auto_score", "tuned_min_age_s",
    ]);
    for r in &rows {
        table.row(vec![
            r.workload.clone(),
            r.machine.clone(),
            format!("{:.4}", r.man.performance),
            format!("{:.4}", r.auto.performance),
            format!("{:.4}", r.man.memory_efficiency),
            format!("{:.4}", r.auto.memory_efficiency),
            format!("{:.3}", r.man_score),
            format!("{:.3}", r.auto_score),
            format!("{:.2}", r.tuned_min_age),
        ]);
    }
    print!("{}", table.render());

    println!("\nPer-machine summary (paper: auto-tuning removes ~90% of the manual");
    println!("scheme's slowdown while keeping ~70% of its memory saving):");
    for machine in &machines {
        let ms: Vec<&Row> = rows.iter().filter(|r| r.machine == machine.name).collect();
        let man_drop = mean(ms.iter().map(|r| r.man.slowdown_pct().max(0.0)));
        let auto_drop = mean(ms.iter().map(|r| r.auto.slowdown_pct().max(0.0)));
        let man_save = mean(ms.iter().map(|r| r.man.memory_saving_pct()));
        let auto_save = mean(ms.iter().map(|r| r.auto.memory_saving_pct()));
        let man_score = mean(ms.iter().map(|r| r.man_score));
        let auto_score = mean(ms.iter().map(|r| r.auto_score));
        let removed = if man_drop > 1e-9 { 100.0 * (1.0 - auto_drop / man_drop) } else { 0.0 };
        println!(
            "  {:>10}: perf drop {:.2}% -> {:.2}% ({removed:.0}% removed) | \
             mem saving {:.1}% -> {:.1}% | score {:.2} -> {:.2} ({:+.1}%)",
            machine.name,
            man_drop,
            auto_drop,
            man_save,
            auto_save,
            man_score,
            auto_score,
            100.0 * (auto_score - man_score) / man_score.abs().max(1e-9),
        );
    }
    let worst_man = rows.iter().map(|r| r.man.slowdown_pct()).fold(f64::NEG_INFINITY, f64::max);
    let worst_auto = rows.iter().map(|r| r.auto.slowdown_pct()).fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\nworst-case slowdown: manual {worst_man:.1}% vs auto-tuned {worst_auto:.1}% \
         (paper: 78.2% -> 14.6%)"
    );

    println!("[artifact] {}", write_artifact("fig8_autotune.csv", &table.to_csv()).unwrap().display());
}
