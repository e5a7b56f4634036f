//! Figure 9: DAOS on the serverless production system — a hand-crafted
//! scheme pages out everything untouched for 30 s to zram- or file-backed
//! swap, cutting the fleet's memory footprint by ~80 % / ~90 % while the
//! request path keeps running (Conclusion-6).

use daos_bench::fig9::fig9_production;
use daos_bench::report::{write_artifact, Table};
use daos_workloads::FleetConfig;

/// Epochs per worker: about 240 virtual seconds of the default fleet.
const NR_EPOCHS: u64 = 41_000;

fn main() {
    println!("Figure 9: serverless production fleet under the 30s pageout scheme.\n");
    let rows = fig9_production(&FleetConfig::default(), NR_EPOCHS).expect("fleet run");

    let mut table = Table::new(vec![
        "configuration", "normalized RSS memory", "reduction", "monitor CPU", "request slowdown",
    ]);
    let mut csv = Table::new(vec!["configuration", "t_s", "normalized_memory"]);
    for o in &rows {
        table.row(vec![
            o.label.to_string(),
            format!("{:.3}", o.normalized_memory),
            format!("{:.0}%", (1.0 - o.normalized_memory) * 100.0),
            format!("{:.2}%", o.monitor_share * 100.0),
            format!("{:.2}%", o.slowdown * 100.0),
        ]);
        for (t, u) in &o.series {
            csv.row(vec![o.label.to_string(), format!("{t:.0}"), format!("{u:.4}")]);
        }
    }
    print!("{}", table.render());
    println!(
        "\npaper: zram reduces memory bloat by ~80%, file swap by ~90%, at <=2% CPU overhead \
         and negligible request slowdown.\nThe file backend saves more than zram because \
         compressed zram pages still occupy DRAM."
    );
    println!("[artifact] {}", write_artifact("fig9_production.csv", &csv.to_csv()).unwrap().display());
}
