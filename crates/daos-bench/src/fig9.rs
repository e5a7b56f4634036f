//! Figure 9, computed on the engine: the §4.4 serverless fleet as one
//! shard of [`FleetConfig::worker_spec`] processes under
//! [`RunConfig::fleet_prcl`] — one physical-address monitor paging out
//! whatever went untouched for 30 s — once per swap back-end. The
//! `fig9_production` binary and the fidelity test call the same function.

use daos::{FleetObserver, FleetProgress, FleetSpec, RunConfig, Session};
use daos_mm::clock::{sec, Ns};
use daos_mm::{MachineProfile, MmResult, SwapConfig};
use daos_workloads::FleetConfig;

/// One swap back-end's outcome.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Row label, as in the paper's plot.
    pub label: &'static str,
    /// Machine memory in use (RSS plus what the swap device keeps in
    /// DRAM) over the all-resident footprint, averaged over the second
    /// half of the run — the steady state.
    pub normalized_memory: f64,
    /// Monitor CPU share of one core.
    pub monitor_share: f64,
    /// Runtime relative to the no-swap run, minus one.
    pub slowdown: f64,
    /// `(virtual seconds, normalized memory)`, one sample per second.
    pub series: Vec<(f64, f64)>,
}

/// The three back-ends, the no-swap reference (the scheme cannot evict
/// anywhere) first.
const BACKENDS: [(&str, SwapConfig); 3] = [
    ("No Swap", SwapConfig::None),
    ("File Swap", SwapConfig::serverless_file()),
    ("ZRAM", SwapConfig::serverless_zram()),
];

/// Samples the machine's memory in use once per virtual second.
struct MemorySeries {
    footprint: f64,
    next_sample: Ns,
    series: Vec<(f64, f64)>,
}

impl FleetObserver for MemorySeries {
    fn on_tick(&mut self, p: &FleetProgress) {
        if p.now_ns >= self.next_sample {
            let in_use = p.tenants.iter().map(|t| t.total_rss).sum::<u64>() + p.swap_dram_bytes;
            self.series.push((p.now_ns as f64 / 1e9, in_use as f64 / self.footprint));
            self.next_sample += sec(1);
        }
    }
}

/// Run `workers` for `nr_epochs` under each back-end: no swap, file
/// swap, zram, in that order.
pub fn fig9_production(workers: &FleetConfig, nr_epochs: u64) -> MmResult<Vec<Fig9Row>> {
    let machine = MachineProfile::i3_metal();
    let spec = workers.worker_spec(nr_epochs);
    let mut rows = Vec::new();
    // The first back-end is the slowdown reference.
    let mut no_swap_runtime = None;
    for (label, swap) in BACKENDS {
        let mut memory = MemorySeries {
            footprint: (workers.nr_workers as u64 * workers.worker_footprint) as f64,
            next_sample: 0,
            series: Vec::new(),
        };
        // The shard is one group; its first process owns the plane.
        let owner = Session::new(&machine, &RunConfig::fleet_prcl(sec(30), swap), &spec)
            .seed(7)
            .fleet(FleetSpec::new(workers.nr_workers).shard_size(workers.nr_workers))
            .fleet_observer(&mut memory)
            .execute()?
            .into_single();
        let reference = *no_swap_runtime.get_or_insert(owner.runtime_ns);
        let half = owner.runtime_ns as f64 / 2e9;
        let tail = memory.series.iter().filter(|(t, _)| *t >= half).map(|(_, m)| *m);
        rows.push(Fig9Row {
            label,
            normalized_memory: crate::report::mean(tail),
            monitor_share: owner.monitor_cpu_share(),
            slowdown: owner.runtime_ns as f64 / reference as f64 - 1.0,
            series: memory.series,
        });
    }
    Ok(rows)
}
