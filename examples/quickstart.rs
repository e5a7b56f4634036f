//! Quickstart: monitor a workload's access pattern, then manage its
//! memory with a one-line scheme — the end-to-end DAOS workflow of
//! Fig. 1, in ~40 lines of user code.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use daos_repro::prelude::*;

fn main() {
    // 1. A machine and a workload (an analog of parsec3/freqmine — a big
    //    FP-tree built up front, of which only ~7 % is ever used again).
    let machine = MachineProfile::i3_metal();
    let spec = by_path("parsec3/freqmine").expect("suite workload");
    println!("workload: {} ({} MiB footprint)", spec.path_name(), spec.footprint >> 20);

    let run = |config: &RunConfig| {
        Session::new(&machine, config, &spec).seed(42).execute().map(SessionResult::into_single)
    };
    // 2. Baseline: no DAOS. The whole footprint stays resident.
    let baseline = run(&RunConfig::baseline()).unwrap();
    println!(
        "baseline: runtime {:.1}s, average RSS {} MiB",
        baseline.runtime_ns as f64 / 1e9,
        baseline.avg_rss >> 20
    );

    // 3. Monitoring only (the paper's `rec`): what does the access
    //    pattern look like? The Data Access Monitor watches the address
    //    space with bounded overhead and reports hot/cold regions.
    let rec = run(&RunConfig::rec()).unwrap();
    let record = rec.record.as_ref().unwrap();
    let last = record.aggregations.last().unwrap();
    let hot_bytes: u64 = last
        .regions
        .iter()
        .filter(|r| last.freq_ratio(r) > 0.5)
        .map(|r| r.range.len())
        .sum();
    println!(
        "monitor:  {} regions; ~{} MiB look hot; monitoring cost {:.2}% of one CPU",
        last.regions.len(),
        hot_bytes >> 20,
        rec.monitor_cpu_share() * 100.0
    );

    // 4. Management: the paper's 1-line proactive reclamation scheme —
    //    "page out regions idle for at least 5 seconds".
    let scheme_text = "4K max min min 5s max pageout";
    let scheme = parse_scheme_line(scheme_text).unwrap();
    println!("scheme:   '{scheme_text}' -> {scheme:?}");

    let prcl = run(&RunConfig::prcl()).unwrap();
    let n = Normalized::of(&baseline, &prcl);
    println!(
        "with scheme: average RSS {} MiB ({:.1}% saved) at {:.2}% slowdown",
        prcl.avg_rss >> 20,
        n.memory_saving_pct(),
        n.slowdown_pct()
    );
    println!(
        "paper (Fig. 7, same workload class): 91.3% memory saving at 0.9% slowdown"
    );
}
