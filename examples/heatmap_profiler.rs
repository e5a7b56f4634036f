//! Access-pattern profiler: record any suite workload with the Data
//! Access Monitor and render its Fig. 6-style heatmap.
//!
//! ```sh
//! cargo run --release --example heatmap_profiler -- splash2x/fft
//! cargo run --release --example heatmap_profiler -- parsec3/dedup
//! ```

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "an example owns the terminal")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "an example may stop on a broken invariant")]

use daos_repro::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "splash2x/fft".to_string());
    let Some(spec) = by_path(&name) else {
        eprintln!("unknown workload '{name}'; available:");
        for s in paper_suite() {
            eprintln!("  {}", s.path_name());
        }
        std::process::exit(1);
    };

    let machine = MachineProfile::i3_metal();
    println!(
        "profiling {} ({} MiB) with the Data Access Monitor (rec config)...\n",
        spec.path_name(),
        spec.footprint >> 20
    );
    let config = RunConfig::rec();
    let session = Session::new(&machine, &config, &spec).seed(42).execute().expect("rec run");
    let result = session.into_single();
    let record = result.record.as_ref().unwrap();

    // Skip the address-space gaps, as the paper's Fig. 6 does.
    let span = biggest_active_span(record).expect("active span");
    let heatmap = Heatmap::from_record(record, span, 76, 20).expect("heatmap");
    print!("{}", heatmap.render_ascii());
    println!(
        "x: 0..{:.0}s   y: {}..{} MiB   intensity: access frequency",
        result.runtime_ns as f64 / 1e9,
        span.start >> 20,
        span.end >> 20
    );
    println!(
        "\n{} aggregation windows; monitoring used {:.2}% of one CPU and slowed the \
         workload {:.2}%",
        record.len(),
        result.monitor_cpu_share() * 100.0,
        100.0 * result.stats.monitor_interference_ns as f64 / result.runtime_ns as f64
    );
}
