//! Ablation: the adaptive regions adjustment vs static space-based
//! sampling (§2.2's prior-work baseline) at equal check budgets.
//!
//! A small hot region (1/128th of the target) sits at an arbitrary
//! offset and periodically jumps — the skewed, dynamic pattern the paper
//! says static region division handles poorly. We measure how much of
//! the true hot set each monitor identifies (recall), how much cold
//! memory it mislabels hot (false-hot), and what it costs (checks/tick).

use daos_bench::report::{mean, write_artifact, Table};
use daos_bench::scale::Scale;
use daos_mm::addr::AddrRange;
use daos_mm::clock::{ms, sec};
use daos_monitor::{MonitorAttrs, MonitorCtx, SyntheticPrimitives, SyntheticSpace};

const TARGET: u64 = 256 << 20;
const HOT: u64 = 2 << 20;

struct Outcome {
    recall: f64,
    false_hot_mib: f64,
    checks_per_tick: f64,
}

fn run_monitor(nr_regions: usize, adaptive: bool, seed: u64) -> Outcome {
    let attrs = MonitorAttrs::builder()
        .sampling_interval(ms(5))
        .aggregation_interval(ms(100))
        .regions_update_interval(sec(1))
        // Static mode uses a fixed grid of `nr_regions`; adaptive mode
        // may shrink below it (merging) but never exceed it, so the
        // overhead budget is identical.
        .min_nr_regions(if adaptive { 10.min(nr_regions) } else { nr_regions })
        .max_nr_regions(nr_regions)
        .adaptive(adaptive)
        .build()
        .unwrap();
    let mut env = SyntheticSpace::new(vec![AddrRange::new(0, TARGET)]);
    let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, seed);
    let mut sink = Vec::new();

    let mut recalls = Vec::new();
    let mut false_hots = Vec::new();
    let mut now = 0;
    // 20 s of monitoring; the hot region jumps every 5 s.
    for tick in 0..4000u64 {
        let jump = tick / 1000;
        let hot_start = (TARGET / 7) * (jump + 1) % (TARGET - HOT);
        let hot = AddrRange::new(hot_start & !4095, (hot_start & !4095) + HOT);
        env.touch_range(hot);
        now += attrs.sampling_interval;
        ctx.step(&mut env, now, &mut sink);
        for agg in sink.drain(..) {
            // Skip the windows right after a jump (transients).
            if tick % 1000 < 200 {
                continue;
            }
            let mut hot_found = 0u64;
            let mut false_hot = 0u64;
            for r in &agg.regions {
                if agg.freq_ratio(r) < 0.5 {
                    continue;
                }
                match r.range.intersect(&hot) {
                    Some(i) => {
                        hot_found += i.len();
                        false_hot += r.range.len() - i.len();
                    }
                    None => false_hot += r.range.len(),
                }
            }
            recalls.push(hot_found as f64 / HOT as f64);
            false_hots.push(false_hot as f64 / (1 << 20) as f64);
        }
    }
    Outcome {
        recall: mean(recalls),
        false_hot_mib: mean(false_hots),
        checks_per_tick: ctx.overhead.avg_checks_per_tick(),
    }
}

pub fn run(_: Scale) {
    println!(
        "Ablation: adaptive regions adjustment vs static sampling\n\
         target {} MiB, hot region {} MiB (1/128th), jumping every 5 s\n",
        TARGET >> 20,
        HOT >> 20
    );
    let mut table = Table::new(vec![
        "regions", "mode", "hot recall", "false-hot", "checks/tick",
    ]);
    for nr in [10usize, 50, 200, 1000] {
        for adaptive in [false, true] {
            let o = run_monitor(nr, adaptive, 42);
            table.row(vec![
                nr.to_string(),
                if adaptive { "adaptive" } else { "static" }.to_string(),
                format!("{:.1}%", o.recall * 100.0),
                format!("{:.1} MiB", o.false_hot_mib),
                format!("{:.0}", o.checks_per_tick),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "\nStatic sampling needs region granularity ≤ hot-set size \
         ({} regions here) to see the hot 2 MiB at all;\nthe adaptive \
         mechanism finds it with a fraction of the regions by splitting \
         where the pattern demands.",
        TARGET / HOT
    );
    println!("[artifact] {}", write_artifact("ablation_adaptive.csv", &table.to_csv()).unwrap().display());
}
