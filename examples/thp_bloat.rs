//! THP memory bloat and the access-aware fix: compare Linux-style
//! aggressive THP against the paper's 2-line `ethp` scheme on a
//! non-contiguous grid workload (the splash2x/ocean_ncp analog).
//!
//! ```sh
//! cargo run --release --example thp_bloat
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "an example owns the terminal")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "an example may stop on a broken invariant")]

use daos_repro::prelude::*;

fn main() {
    let machine = MachineProfile::i3_metal();
    let spec = by_path("splash2x/ocean_ncp").expect("suite workload");
    println!(
        "workload: {} — strided grid sweeps ({} MiB mapped, every 2nd page touched)\n",
        spec.path_name(),
        spec.footprint >> 20
    );

    let run = |config: &RunConfig| {
        Session::new(&machine, config, &spec).seed(42).execute().map(SessionResult::into_single)
    };
    let baseline = run(&RunConfig::baseline()).unwrap();
    let thp = run(&RunConfig::thp()).unwrap();
    let ethp = run(&RunConfig::ethp()).unwrap();

    println!("{:<22} {:>10} {:>12} {:>12}", "config", "runtime", "avg RSS", "THP promos");
    println!("{:-<60}", "");
    for r in [&baseline, &thp, &ethp] {
        println!(
            "{:<22} {:>9.1}s {:>8} MiB {:>12}",
            r.config,
            r.runtime_ns as f64 / 1e9,
            r.avg_rss >> 20,
            r.stats.thp_promotions
        );
    }

    let nt = Normalized::of(&baseline, &thp);
    let ne = Normalized::of(&baseline, &ethp);
    let thp_gain = (nt.performance - 1.0) * 100.0;
    let ethp_gain = (ne.performance - 1.0) * 100.0;
    let thp_bloat = (1.0 / nt.memory_efficiency - 1.0) * 100.0;
    let ethp_bloat = (1.0 / ne.memory_efficiency - 1.0) * 100.0;
    println!("\nLinux THP:  +{thp_gain:.1}% performance, +{thp_bloat:.1}% memory (bloat)");
    println!("DAOS ethp:  +{ethp_gain:.1}% performance, +{ethp_bloat:.1}% memory");
    println!(
        "ethp preserves {:.0}% of the THP gain while removing {:.0}% of the bloat",
        100.0 * ethp_gain / thp_gain.max(1e-9),
        100.0 * (1.0 - ethp_bloat / thp_bloat.max(1e-9)),
    );
    println!("paper (Fig. 7, ocean_ncp): preserves 46% of the gain, removes 80% of the bloat");
    println!("\nthe whole optimisation is these 2 scheme lines (Listing 3):");
    for c in RunConfig::ethp().schemes {
        println!("  {}", c.scheme);
    }
}
