//! Figure 6: data access patterns of the workloads in heatmap format —
//! when (x), which addresses (y), how frequently (intensity) — recorded
//! by the `rec` configuration's Data Access Monitor.

use daos::{biggest_active_span, Heatmap, RunConfig, Session};
use daos_bench::report::write_artifact;
use daos_bench::scale::Scale;
use daos_mm::MachineProfile;

pub fn run(scale: Scale) {
    let machine = MachineProfile::i3_metal();
    println!("Figure 6: access-pattern heatmaps (rec configuration on {}).\n", machine.name);

    let mut all_csv = String::from("workload,time_s,addr_mib,intensity\n");
    for spec in scale.fig4_workloads() {
        let config = RunConfig::rec();
        let session = Session::new(&machine, &config, &spec).seed(42).execute().expect("rec run");
        let r = session.into_single();
        let record = r.record.as_ref().expect("rec records");
        // "we find and visualize the biggest subspace of each workload
        // that shows active access patterns" (§4.1).
        let span = biggest_active_span(record).expect("active span");
        let hm = Heatmap::from_record(record, span, 72, 16).expect("heatmap");
        println!(
            "== {} ==  ({} aggregation windows, {:.0}s runtime, span {} MiB)",
            spec.path_name(),
            record.len(),
            r.runtime_ns as f64 / 1e9,
            span.len() >> 20,
        );
        print!("{}", hm.render_ascii());
        println!(
            "   time {:>3.0}s {:->62} {:>5.0}s  (addr {} - {} MiB)\n",
            hm.time_span.0 as f64 / 1e9,
            ">",
            hm.time_span.1 as f64 / 1e9,
            span.start >> 20,
            span.end >> 20,
        );
        for line in hm.to_csv().lines().skip(1) {
            all_csv.push_str(&format!("{},{}\n", spec.path_name(), line));
        }
    }
    println!("[artifact] {}", write_artifact("fig6_heatmaps.csv", &all_csv).unwrap().display());
    println!("Conclusion-2: hot regions and dynamic pattern changes are visible per workload.");
}
