//! Figure 7: normalized performance and memory efficiency of all 24
//! workloads under the monitoring (rec, prec), Linux-original THP (thp),
//! and monitoring-based scheme (ethp, prcl) configurations on i3.metal —
//! the paper's Conclusions 3 and 4.

use daos::{Normalized, RunConfig, RunResult, Session};
use daos_util::pool::par_map;
use daos_bench::report::{mean, r3, write_artifact, Table};
use daos_bench::scale::Scale;
use daos_mm::MachineProfile;

fn main() {
    let scale = Scale::from_env();
    let machine = MachineProfile::i3_metal();
    let workloads = scale.full_suite();
    let configs = RunConfig::paper_configs();
    println!(
        "Figure 7: {} workloads x {} configurations on {}.\n",
        workloads.len(),
        configs.len(),
        machine.name
    );

    // All runs are independent.
    let mut jobs = Vec::new();
    for spec in &workloads {
        for cfg in &configs {
            jobs.push((*spec, cfg.clone()));
        }
    }
    let results: Vec<RunResult> = par_map(jobs, |(spec, cfg)| {
        Session::new(&machine, &cfg, &spec).seed(42).execute().expect("run").into_single()
    });

    let ncfg = configs.len();
    let mut table = Table::new(vec![
        "workload", "metric", "rec", "prec", "thp", "ethp", "prcl",
    ]);
    let mut csv = Table::new(vec![
        "workload", "config", "performance", "memory_efficiency", "monitor_cpu_share",
    ]);
    let mut norms: Vec<Vec<Normalized>> = Vec::new();
    let mut monitor_shares: Vec<f64> = Vec::new();

    for (wi, spec) in workloads.iter().enumerate() {
        let base = &results[wi * ncfg];
        let row: Vec<Normalized> = (1..ncfg)
            .map(|ci| Normalized::of(base, &results[wi * ncfg + ci]))
            .collect();
        table.row(
            std::iter::once(spec.plot_name())
                .chain(std::iter::once("perf".into()))
                .chain(row.iter().map(|n| r3(n.performance)))
                .collect(),
        );
        table.row(
            std::iter::once(String::new())
                .chain(std::iter::once("mem-eff".into()))
                .chain(row.iter().map(|n| r3(n.memory_efficiency)))
                .collect(),
        );
        for (ci, n) in row.iter().enumerate() {
            let r = &results[wi * ncfg + ci + 1];
            csv.row(vec![
                spec.plot_name(),
                configs[ci + 1].name.clone(),
                r3(n.performance),
                r3(n.memory_efficiency),
                format!("{:.4}", r.monitor_cpu_share()),
            ]);
        }
        monitor_shares.push(results[wi * ncfg + 1].monitor_cpu_share()); // rec
        monitor_shares.push(results[wi * ncfg + 2].monitor_cpu_share()); // prec
        norms.push(row);
    }
    print!("{}", table.render());

    // Averages row, as in the paper's rightmost column.
    println!("\naverages (normalized to baseline):");
    for (ci, name) in ["rec", "prec", "thp", "ethp", "prcl"].iter().enumerate() {
        let perf = mean(norms.iter().map(|r| r[ci].performance));
        let mem = mean(norms.iter().map(|r| r[ci].memory_efficiency));
        println!("  {name:>5}: performance {perf:.3}  memory-efficiency {mem:.3}");
    }

    // Conclusion-3: monitoring overhead.
    let rec_perf = mean(norms.iter().map(|r| r[0].performance));
    let prec_perf = mean(norms.iter().map(|r| r[1].performance));
    let worst_rec = norms.iter().map(|r| r[0].performance).fold(f64::INFINITY, f64::min);
    let worst_prec = norms.iter().map(|r| r[1].performance).fold(f64::INFINITY, f64::min);
    println!(
        "\nConclusion-3 — monitoring overhead: avg normalized perf rec {:.3} / prec {:.3} \
         (paper: 0.99/0.99), worst {:.3}/{:.3} (paper: 0.97/0.96); \
         monitor CPU share avg {:.2}% (paper: 1.37%/1.46%)",
        rec_perf,
        prec_perf,
        worst_rec,
        worst_prec,
        100.0 * mean(monitor_shares.iter().copied()),
    );

    // Conclusion-4: scheme benefits, with the paper's headline cases.
    let find = |name: &str| workloads.iter().position(|s| s.path_name() == name);
    if let Some(wi) = find("splash2x/ocean_ncp") {
        let thp = &norms[wi][2];
        let ethp = &norms[wi][3];
        let thp_gain = thp.performance - 1.0;
        let ethp_gain = ethp.performance - 1.0;
        let thp_bloat = 1.0 / thp.memory_efficiency - 1.0;
        let ethp_bloat = 1.0 / ethp.memory_efficiency - 1.0;
        println!(
            "ethp best case (ocean_ncp): thp gain {:.1}% bloat {:.1}% -> ethp gain {:.1}% bloat {:.1}% \
             (preserves {:.0}% of gain, removes {:.0}% of bloat; paper: 46%/80%)",
            thp_gain * 100.0,
            thp_bloat * 100.0,
            ethp_gain * 100.0,
            ethp_bloat * 100.0,
            100.0 * ethp_gain / thp_gain.max(1e-9),
            100.0 * (1.0 - ethp_bloat / thp_bloat.max(1e-9)),
        );
    }
    if let Some(wi) = find("parsec3/freqmine") {
        let prcl = &norms[wi][4];
        println!(
            "prcl best case (freqmine): {:.1}% memory saving at {:.1}% slowdown (paper: 91.3%/0.9%)",
            prcl.memory_saving_pct(),
            prcl.slowdown_pct()
        );
    }
    let prcl_avg_saving = mean(norms.iter().map(|r| r[4].memory_saving_pct()));
    let prcl_avg_slowdown = mean(norms.iter().map(|r| r[4].slowdown_pct()));
    let prcl_worst = norms
        .iter()
        .map(|r| r[4].slowdown_pct())
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "prcl average: {:.1}% memory saving, {:.1}% slowdown; worst-case slowdown {:.1}% \
         (paper: 37.1%/13.7%, worst 78.2%) -> motivates auto-tuning (Fig. 8)",
        prcl_avg_saving, prcl_avg_slowdown, prcl_worst
    );

    println!("[artifact] {}", write_artifact("fig7_overhead_benefit.csv", &csv.to_csv()).unwrap().display());
}
