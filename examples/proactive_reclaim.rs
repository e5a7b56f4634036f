//! Proactive reclamation in production style: reclaim the cold memory of
//! a mostly-idle service (the paper's §4.4 serverless scenario), and show
//! how the swap backend changes the true memory saving.
//!
//! ```sh
//! cargo run --release --example proactive_reclaim
//! ```

use daos_repro::prelude::*;
use daos_mm::clock::sec;

/// Machine memory in use (RSS plus the swap device's own DRAM) at every
/// tick from 90 virtual seconds on, as a fraction of `footprint`.
struct SteadyMemory {
    footprint: f64,
    usage: f64,
    n: u64,
}

impl FleetObserver for SteadyMemory {
    fn on_tick(&mut self, p: &FleetProgress) {
        if p.now_ns >= sec(90) {
            let in_use = p.tenants.iter().map(|t| t.total_rss).sum::<u64>() + p.swap_dram_bytes;
            self.usage += in_use as f64 / self.footprint;
            self.n += 1;
        }
    }
}

/// Run the fleet for ~180 virtual seconds under a 30 s idle-pageout
/// scheme on one shared machine; returns (normalized memory usage,
/// virtual runtime).
fn drive(swap: SwapConfig) -> (f64, f64) {
    let workers = FleetConfig::default();
    let footprint = (workers.nr_workers as u64 * workers.worker_footprint) as f64;
    let mut memory = SteadyMemory { footprint, usage: 0.0, n: 0 };
    let result = Session::new(
        &MachineProfile::i3_metal(),
        &RunConfig::fleet_prcl(sec(30), swap),
        &workers.worker_spec(31_000),
    )
    .seed(7)
    .fleet(FleetSpec::new(workers.nr_workers).shard_size(workers.nr_workers))
    .fleet_observer(&mut memory)
    .execute()
    .unwrap();
    (memory.usage / memory.n as f64, result.into_single().runtime_ns as f64)
}

fn main() {
    println!("Serverless fleet: 8 workers x 24 MiB heap, ~90% of it cold.");
    println!("Scheme: 'min max min min 30s max pageout' on the physical address space.\n");

    let (none, base_runtime) = drive(SwapConfig::None);
    let (file, file_runtime) = drive(SwapConfig::serverless_file());
    let (zram, zram_runtime) = drive(SwapConfig::serverless_zram());

    println!("{:<12} {:>18} {:>12}", "swap", "normalized memory", "slowdown");
    println!("{:-<44}", "");
    for (name, usage, runtime) in [
        ("no swap", none, base_runtime),
        ("file swap", file, file_runtime),
        ("zram", zram, zram_runtime),
    ] {
        println!(
            "{:<12} {:>17.0}% {:>11.2}%",
            name,
            usage * 100.0,
            (runtime / base_runtime - 1.0) * 100.0
        );
    }
    println!("\npaper (Fig. 9): zram keeps ~20% (80% reduction), file swap ~10% (90%).");
    println!("zram saves less because compressed pages still live in DRAM.");
}
