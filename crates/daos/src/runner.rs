//! The per-epoch pipeline: one workload quantum with the monitor and
//! schemes engine in the loop — the Fig. 1 workflow under a
//! deterministic virtual clock — as three crate-internal phase functions
//! ([`workload_phase`], [`monitor_phase`], [`khugepaged_phase`]) that
//! the fleet engine ([`crate::fleet`]) composes per process (vaddr) or
//! per shard (paddr), plus the [`RunResult`] every process ends in.

use daos_mm::access::AccessBatch;
use daos_mm::clock::{sec, Ns};
use daos_mm::error::MmResult;
use daos_mm::process::Pid;
use daos_mm::stats::{KernelStats, ProcStats};
use daos_mm::system::MemorySystem;
use daos_monitor::{
    Aggregation, MonitorAttrs, MonitorCtx, MonitorRecord, OverheadStats, PaddrPrimitives,
    VaddrPrimitives,
};
use daos_schemes::{SchemeStats, SchemesEngine};
use daos_workloads::{SyntheticWorkload, Workload};

use crate::config::MonitorKind;

/// Interval of the background khugepaged promoter in the `thp` config.
pub(crate) const KHUGEPAGED_INTERVAL: Ns = sec(1);

/// Everything one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Configuration name.
    pub config: String,
    /// Workload path name.
    pub workload: String,
    /// Machine profile name.
    pub machine: String,
    /// Total virtual runtime (the paper's performance metric).
    pub runtime_ns: Ns,
    /// Time-weighted average RSS (the paper's memory metric).
    pub avg_rss: u64,
    /// Peak RSS.
    pub peak_rss: u64,
    /// Full process statistics.
    pub stats: ProcStats,
    /// Kernel-side statistics.
    pub kstats: KernelStats,
    /// The aggregation record (when `config.record`).
    pub record: Option<MonitorRecord>,
    /// Monitoring overhead counters (when monitoring ran).
    pub overhead: Option<OverheadStats>,
    /// Per-scheme statistics.
    pub scheme_stats: Vec<SchemeStats>,
}

impl RunResult {
    /// Monitor CPU utilisation share of one core over the run (the
    /// paper reports ~1.37 % / 1.46 % for rec / prec).
    pub fn monitor_cpu_share(&self) -> f64 {
        self.overhead.map(|o| o.cpu_share(self.runtime_ns)).unwrap_or(0.0)
    }
}

/// Monomorphised monitor wrapper: the fleet engine wraps its per-process
/// (vaddr) and per-shard (paddr) contexts in the same type so the phase
/// functions drive both paths.
pub(crate) enum AnyMonitor {
    Vaddr(MonitorCtx<VaddrPrimitives>),
    Paddr(MonitorCtx<PaddrPrimitives>),
}

impl AnyMonitor {
    fn step(&mut self, sys: &mut MemorySystem, now: Ns, sink: &mut Vec<Aggregation>) {
        match self {
            AnyMonitor::Vaddr(ctx) => ctx.step(sys, now, sink),
            AnyMonitor::Paddr(ctx) => ctx.step(sys, now, sink),
        }
    }

    fn take_work_ns(&mut self) -> Ns {
        match self {
            AnyMonitor::Vaddr(ctx) => ctx.take_work_ns(),
            AnyMonitor::Paddr(ctx) => ctx.take_work_ns(),
        }
    }

    pub(crate) fn overhead(&self) -> OverheadStats {
        match self {
            AnyMonitor::Vaddr(ctx) => ctx.overhead,
            AnyMonitor::Paddr(ctx) => ctx.overhead,
        }
    }
}

/// Build the monitoring context `kind` describes, seeded with the
/// fixed monitor stream (`seed ^ 0xda05`). `attrs` is passed
/// separately from the config because the fleet engine divides a global
/// region budget across processes (see [`crate::fleet::FleetSpec`]).
pub(crate) fn build_monitor(
    kind: Option<MonitorKind>,
    attrs: MonitorAttrs,
    sys: &MemorySystem,
    pid: Pid,
    seed: u64,
) -> Option<AnyMonitor> {
    match kind {
        Some(MonitorKind::Vaddr) => Some(AnyMonitor::Vaddr(MonitorCtx::new(
            attrs,
            VaddrPrimitives::new(pid),
            sys,
            sys.now(),
            seed ^ 0xda05,
        ))),
        Some(MonitorKind::Paddr) => Some(AnyMonitor::Paddr(MonitorCtx::new(
            attrs,
            PaddrPrimitives,
            sys,
            sys.now(),
            seed ^ 0xda05,
        ))),
        None => None,
    }
}

/// Epoch phase 1: the workload runs one quantum and its access + compute
/// cost advances the clock.
pub(crate) fn workload_phase(
    sys: &mut MemorySystem,
    pid: Pid,
    wl: &mut SyntheticWorkload,
    idx: u64,
    cpu_scale: f64,
    batches: &mut Vec<AccessBatch>,
) -> MmResult<()> {
    batches.clear();
    let compute_ref = wl.epoch(idx, sys.now(), batches);
    let compute = (compute_ref as f64 * cpu_scale) as Ns;
    let mut cost = compute;
    for b in batches.iter() {
        cost += sys.apply_access(pid, b)?.cost_ns;
    }
    if let Some(st) = sys.proc_stats_mut(pid) {
        st.compute_ns += compute;
    }
    sys.advance(cost);
    Ok(())
}

/// Epoch phases 2–3: the monitor catches up with virtual time and the
/// engine consumes each completed aggregation, with all work charged as
/// interference against `pid`. Each window ends in `record` when there
/// is one and in `last_window` otherwise, so the freshest window is
/// always at hand for observers without a clone.
pub(crate) fn monitor_phase(
    sys: &mut MemorySystem,
    pid: Pid,
    monitor: &mut Option<AnyMonitor>,
    engine: &mut Option<SchemesEngine>,
    record: &mut Option<MonitorRecord>,
    sink: &mut Vec<Aggregation>,
    last_window: &mut Option<Aggregation>,
) {
    let Some(mon) = monitor else { return };
    let now = sys.now();
    mon.step(sys, now, sink);
    let interference = sys.charge_monitor(mon.take_work_ns());
    if interference > 0 {
        if let Some(st) = sys.proc_stats_mut(pid) {
            st.monitor_interference_ns += interference;
        }
        sys.advance(interference);
    }
    for agg in sink.drain(..) {
        if let Some(engine) = engine {
            let pass = engine.on_aggregation(sys, &agg);
            let interference = sys.charge_schemes(pass.work_ns);
            if interference > 0 {
                if let Some(st) = sys.proc_stats_mut(pid) {
                    st.monitor_interference_ns += interference;
                }
                sys.advance(interference);
            }
        }
        match record {
            Some(rec) => rec.push(agg),
            None => *last_window = Some(agg),
        }
    }
}

/// Epoch phase 4: Linux-original THP — aggressive background promotion.
pub(crate) fn khugepaged_phase(
    sys: &mut MemorySystem,
    pid: Pid,
    enabled: bool,
    next_khugepaged: &mut Ns,
) -> MmResult<()> {
    if enabled && sys.now() >= *next_khugepaged {
        let (_, ns) = sys.khugepaged_scan(pid, 1)?;
        let interference = sys.charge_schemes(ns);
        if let Some(st) = sys.proc_stats_mut(pid) {
            st.stall_ns += interference;
        }
        sys.advance(interference);
        *next_khugepaged = sys.now() + KHUGEPAGED_INTERVAL;
    }
    Ok(())
}
