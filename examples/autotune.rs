//! Auto-tuning walkthrough: the manually-chosen prcl threshold thrashes a
//! streaming workload; the Auto-tuning Runtime finds a safe, still
//! memory-saving threshold from 10 samples (§3.5 / Fig. 8).
//!
//! ```sh
//! cargo run --release --example autotune [workload]
//! ```

use daos_repro::prelude::*;
use daos_mm::clock::sec;

fn main() {
    let name =
        std::env::args().nth(1).unwrap_or_else(|| "splash2x/ocean_ncp".to_string());
    let spec = by_path(&name).expect("suite workload");
    let machine = MachineProfile::i3_metal();
    println!("auto-tuning the prcl scheme for {} on {}\n", spec.path_name(), machine.name);

    let run = |config: &RunConfig| {
        Session::new(&machine, config, &spec).seed(42).execute().map(SessionResult::into_single)
    };
    let baseline = run(&RunConfig::baseline()).unwrap();
    let manual = run(&RunConfig::prcl()).unwrap();
    let nm = Normalized::of(&baseline, &manual);
    println!(
        "manual scheme (min_age 5s):  {:>5.1}% memory saving, {:>6.2}% slowdown, score {:.1}",
        nm.memory_saving_pct(),
        nm.slowdown_pct(),
        score_vs_baseline(&baseline, &manual)
    );

    // The tuner: 10 samples within the time budget, Listing-2 score.
    let mut score_fn = DefaultScore::default();
    let cfg = TunerConfig {
        time_limit: sec(100),
        unit_work_time: sec(10),
        range: (0.0, 60.0),
        seed: 42,
    };
    println!("\ntuning (10 samples = 6 global + 4 localized):");
    let result = tune(&cfg, |min_age| {
        let r = run(&RunConfig::prcl_with_min_age((min_age * 1e9) as u64)).unwrap();
        let s = score_fn.score(&ScoreInputs {
            runtime: r.runtime_ns as f64,
            orig_runtime: baseline.runtime_ns as f64,
            rss: r.avg_rss as f64,
            orig_rss: baseline.avg_rss as f64,
        });
        println!("  sample min_age {min_age:>5.1}s -> score {s:>7.2}");
        s
    });
    println!(
        "\nfitted degree-{} polynomial; best threshold: min_age {:.1}s",
        result.curve.as_ref().map(|c| c.degree()).unwrap_or(0),
        result.best_x
    );

    let auto = run(&RunConfig::prcl_with_min_age((result.best_x * 1e9) as u64)).unwrap();
    let na = Normalized::of(&baseline, &auto);
    println!(
        "auto-tuned scheme:           {:>5.1}% memory saving, {:>6.2}% slowdown, score {:.1}",
        na.memory_saving_pct(),
        na.slowdown_pct(),
        score_vs_baseline(&baseline, &auto)
    );
    println!(
        "\npaper (Fig. 8): auto-tuning removes ~90% of the manual slowdown while \
         keeping ~70% of the memory saving"
    );
}
