//! Table 2: AWS EC2 instance types used in the experiments, as machine
//! profiles (plus the derived cost-model parameters the simulation uses).

use daos_bench::report::{write_artifact, Table};
use daos_bench::scale::Scale;
use daos_mm::machine::{MachineProfile, CAPACITY_SCALE};

pub fn run(_: Scale) {
    println!("Table 2: AWS EC2 instance types used in experiments.\n");
    let mut table = Table::new(vec!["Instance type", "CPU", "DRAM"]);
    for m in MachineProfile::paper_machines() {
        table.row(vec![
            m.name.clone(),
            format!("{:.1} GHz x {} vCPUs", m.cpu_ghz, m.nr_cpus),
            format!("{}GiB", (m.dram_bytes * CAPACITY_SCALE) >> 30),
        ]);
    }
    print!("{}", table.render());

    println!("\nDerived simulation cost model (capacities scaled 1/{CAPACITY_SCALE}):\n");
    let mut detail = Table::new(vec![
        "Instance type",
        "sim DRAM",
        "DRAM lat",
        "TLB miss",
        "minor fault",
        "zram load",
        "file swap read",
        "access check",
    ]);
    for m in MachineProfile::paper_machines() {
        detail.row(vec![
            m.name.clone(),
            format!("{} MiB", m.dram_bytes >> 20),
            format!("{:.0} ns", m.dram_latency_ns),
            format!("{:.0} ns", m.tlb_miss_penalty_ns),
            format!("{:.1} us", m.minor_fault_ns as f64 / 1e3),
            format!("{:.0} us", m.zram_load_ns as f64 / 1e3),
            format!("{:.0} us", m.file_swap_read_ns as f64 / 1e3),
            format!("{} ns", m.access_check_ns),
        ]);
    }
    print!("{}", detail.render());
    println!("[artifact] {}", write_artifact("table2_machines.csv", &detail.to_csv()).unwrap().display());
}
