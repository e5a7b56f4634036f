//! Auto-tuning walkthrough: the manually-chosen prcl threshold thrashes a
//! streaming workload; the Auto-tuning Runtime finds a safe, still
//! memory-saving threshold from 10 samples (§3.5 / Fig. 8).
//!
//! ```sh
//! cargo run --release --example autotune [workload]
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "an example owns the terminal")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "an example may stop on a broken invariant")]

use daos_repro::prelude::*;
use daos_mm::clock::sec;

fn main() {
    let name =
        std::env::args().nth(1).unwrap_or_else(|| "splash2x/ocean_ncp".to_string());
    let spec = by_path(&name).expect("suite workload");
    let machine = MachineProfile::i3_metal();
    println!("auto-tuning the prcl scheme for {} on {}\n", spec.path_name(), machine.name);

    // The tuner: 10 samples within the time budget, Listing-2 score.
    let cfg = TunerConfig {
        time_limit: sec(100),
        unit_work_time: sec(10),
        range: (0.0, 60.0),
        seed: 42,
    };
    let TunedPrcl { baseline, result, tuned: auto } =
        tune_prcl(&machine, &spec, 42, &cfg).unwrap();

    let manual =
        Session::new(&machine, &RunConfig::prcl(), &spec).seed(42).execute().unwrap().into_single();
    let nm = Normalized::of(&baseline, &manual);
    println!(
        "manual scheme (min_age 5s):  {:>5.1}% memory saving, {:>6.2}% slowdown, score {:.1}",
        nm.memory_saving_pct(),
        nm.slowdown_pct(),
        score_vs_baseline(&baseline, &manual)
    );

    println!("\ntuning (10 samples = 6 global + 4 localized):");
    for (min_age, s) in &result.samples {
        println!("  sample min_age {min_age:>5.1}s -> score {s:>7.2}");
    }
    println!(
        "\nfitted degree-{} polynomial; best threshold: min_age {:.1}s",
        result.curve.as_ref().map(|c| c.degree()).unwrap_or(0),
        result.best_x
    );

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
