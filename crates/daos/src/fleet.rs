//! The engine: one monitoring plane over one process or thousands.
//!
//! The paper's north star is "heavy traffic from millions of users" —
//! one data-access-aware core driving many workloads cheaply. A
//! [`FleetSpec`] partitions `nr_processes` identical workloads into
//! **shards** of `procs_per_shard`, each shard a self-contained
//! [`MemorySystem`] with its own deterministic clock and seed stream.
//! A single run is a fleet of one: one shard, one process, the plain
//! seed (the seed offsets of shard 0 / process 0 are zero) — there is no
//! other engine.
//!
//! **Building is per shard length, not per shard.** Set-up issues only
//! `All`/`Stride` batches and reclaim is deterministic, so setting up a
//! shard's processes draws from no random stream: every shard of one
//! length starts as the same memory image, whatever its seeds. The
//! engine therefore builds one `ShardImage` per distinct length — at most
//! two, the full shards' and the remainder shard's — and *stamps* every
//! shard from it: copy the image (the last shard of a length takes the
//! image itself, so a fleet of one shard never copies), seed the machine
//! stream with `seed ^ (shard << 21)` and process `p`'s workload stream
//! with `seed ^ (p << 17)`, label the processes with their global
//! indices, and build the planes (seeded `… ^ 0xda05` from the shard's
//! stream for a physical-address plane, from the owner's otherwise) and
//! the collector against the stamped machine. The unit is the shard, not
//! the process, because processes of one spec do *not* start identical:
//! the default fleet maps 32 × 24 MiB onto 512 MiB of DRAM per shard, so
//! about 2.03 M of a 1000 × 50 run's 2.26 M swapouts happen inside
//! set-up, and which pages a process loses depends on its position in
//! the shard.
//!
//! Within a shard, processes are partitioned into **groups**, each
//! watched by at most one monitoring **plane**: a monitor, the schemes
//! engine it feeds, the record it keeps and its freshest window. A
//! virtual-address configuration watches every process through a plane
//! of its own (a group of one — an unmonitored configuration is the same
//! shape without the plane); a physical-address configuration watches
//! the whole machine, so the shard is one group. The plane's
//! interference, ring drops and results belong to the group's first
//! process, its *owner*. Every simulation tick a shard walks its groups
//! once — each member's workload quantum, then the plane's step, then
//! each member's khugepaged scan — which is the Fig. 1 workflow under a
//! deterministic virtual clock.
//!
//! The engine owns its shards. Single-shard (or single-worker) fleets
//! stamp and tick them inline on the caller thread, so a thread-local
//! trace collector observes them directly (it sees a length's set-up
//! once, when the image is built). Otherwise each tick moves every
//! shard into a task of the workspace worker pool
//! ([`daos_util::pool::WorkerPool`], a work-stealing scheduler) and
//! takes it back with the task's result behind a per-tick barrier, so
//! results never depend on worker count — only `steals` in the summary
//! varies.
//!
//! Monitoring cost stays **sub-linear in fleet size** through a global
//! region budget of 64 × the configuration's `max_nr_regions`: each
//! process's `max_nr_regions` is `clamp(budget / nr_processes,
//! min_nr_regions, max_nr_regions)`. DAMON's overhead is bounded by the
//! region count, not the footprint, so capping total regions caps total
//! overhead — per-process overhead *falls* as the fleet grows (the
//! `overhead_per_process_ns()` line in the summary).

use daos_mm::access::AccessBatch;
use daos_mm::clock::{sec, Ns};
use daos_mm::error::{MmError, MmResult};
use daos_mm::machine::MachineProfile;
use daos_mm::process::Pid;
use daos_mm::system::MemorySystem;
use daos_monitor::{
    Aggregation, MonitorAttrs, MonitorCtx, MonitorRecord, OverheadStats, PaddrPrimitives,
    VaddrPrimitives,
};
use daos_schemes::{SchemeStats, SchemeTarget, SchemesEngine};
use daos_trace::Collector;
use daos_util::pool::WorkerPool;
use std::sync::Arc;
use daos_workloads::{instantiate, SyntheticWorkload, Workload, WorkloadSpec};

use crate::config::{MonitorKind, RunConfig};
use crate::session::RunResult;

/// How to scale one run into a fleet. Built with
/// [`FleetSpec::new`]`(nr_processes)` plus chained setters;
/// [`crate::Session::fleet`] consumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Total worker processes (clamped to ≥ 1).
    pub nr_processes: usize,
    /// Processes per shard (per simulated machine; clamped to ≥ 1).
    pub procs_per_shard: usize,
    /// Worker threads ticking shards; 0 = auto (one per CPU, capped).
    pub nr_workers: usize,
    /// Tenant label families published per fleet (clamped to ≥ 1);
    /// process `p` belongs to tenant `p % nr_tenants`, named `t<i>`.
    pub nr_tenants: usize,
    /// Per-shard trace collectors with this ring capacity, enabling the
    /// per-process dropped-event accounting in the summary.
    pub trace_ring: Option<usize>,
}

impl FleetSpec {
    /// A fleet of `nr_processes` with the defaults: 32 processes per
    /// shard, auto workers, one tenant, no tracing.
    pub fn new(nr_processes: usize) -> Self {
        Self {
            nr_processes: nr_processes.max(1),
            procs_per_shard: 32,
            nr_workers: 0,
            nr_tenants: 1,
            trace_ring: None,
        }
    }

    /// Processes per shard (one shard = one simulated machine).
    pub fn shard_size(mut self, n: usize) -> Self {
        self.procs_per_shard = n.max(1);
        self
    }

    /// Worker threads (0 = auto).
    pub fn workers(mut self, n: usize) -> Self {
        self.nr_workers = n;
        self
    }

    /// Tenant count for the per-tenant label families.
    pub fn tenants(mut self, n: usize) -> Self {
        self.nr_tenants = n.max(1);
        self
    }

    /// Enable per-shard trace collectors with ring capacity `cap`.
    pub fn trace_ring(mut self, cap: usize) -> Self {
        self.trace_ring = Some(cap);
        self
    }

    /// Number of shards this spec partitions into.
    pub fn nr_shards(&self) -> usize {
        self.nr_processes.div_ceil(self.procs_per_shard)
    }

    /// The tenant index of global process `p`.
    pub fn tenant_of(&self, p: usize) -> usize {
        p % self.nr_tenants
    }

    /// Per-process monitoring attributes under the global region budget:
    /// `max_nr_regions` becomes `clamp(budget / nr_processes,
    /// min_nr_regions, max_nr_regions)`.
    pub fn effective_attrs(&self, base: &MonitorAttrs) -> MonitorAttrs {
        /// The fleet-wide budget in units of the configuration's own
        /// `max_nr_regions`: a fleet of ≤ 64 processes — a single run
        /// included — monitors with the configuration's attributes, and
        /// total regions stop growing beyond that.
        const BUDGET_FACTOR: usize = 64;
        let per = BUDGET_FACTOR * base.max_nr_regions / self.nr_processes.max(1);
        let mut attrs = *base;
        attrs.max_nr_regions = per.clamp(base.min_nr_regions, base.max_nr_regions);
        attrs
    }
}

/// Per-tenant aggregates, published as `tenant.<i>.*` label families.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name (`t0`, `t1`, ...).
    pub name: String,
    /// Processes in this tenant.
    pub nr_processes: usize,
    /// Current total resident bytes.
    pub total_rss: u64,
    /// Sum of per-process peak RSS, bytes.
    pub peak_rss: u64,
    /// Total monitoring/scheme interference charged, ns.
    pub interference_ns: Ns,
    /// Total major faults.
    pub major_faults: u64,
    /// Total pages swapped out.
    pub swapouts: u64,
}

/// What only a fleet of one process has to show: the single process's
/// own monitoring state, which `daos run --serve` and `daos top` render.
#[derive(Debug, Clone)]
pub struct ProcessDetail {
    /// Time-weighted average RSS so far, bytes.
    pub avg_rss: u64,
    /// The most recent completed aggregation window, if any.
    pub last_window: Option<Aggregation>,
    /// Per-scheme counters so far (empty without a schemes engine).
    pub scheme_stats: Vec<SchemeStats>,
    /// Monitoring overhead counters so far (None without a monitor).
    pub overhead: Option<OverheadStats>,
}

/// Live progress handed to a [`FleetObserver`] after a tick.
#[derive(Debug, Clone)]
pub struct FleetProgress {
    /// Tick just completed (0-based).
    pub tick: u64,
    /// Total ticks the fleet will execute.
    pub nr_ticks: u64,
    /// Virtual clock of the furthest shard.
    pub now_ns: Ns,
    /// Total processes.
    pub nr_processes: usize,
    /// Total monitor CPU work so far, ns.
    pub monitor_work_ns: Ns,
    /// Total trace events dropped so far (all shards).
    pub dropped_events: u64,
    /// DRAM the shards' swap devices occupy themselves
    /// ([`daos_mm::swap::SwapDevice::dram_bytes`]): machine memory in use
    /// is the tenants' `total_rss` plus this.
    pub swap_dram_bytes: u64,
    /// Per-tenant aggregates.
    pub tenants: Vec<TenantStats>,
    /// The process's own detail when the fleet is a single process.
    pub single: Option<ProcessDetail>,
}

/// Hook into a live run, on the driver thread. After every tick
/// [`FleetEngine::run`] asks [`due`](Self::due) and only then builds the
/// O(processes) [`FleetProgress`] for [`on_tick`](Self::on_tick).
pub trait FleetObserver {
    /// One tick (one epoch across every process) finished.
    fn on_tick(&mut self, progress: &FleetProgress);

    /// Whether this observer wants `tick` (0-based) of `nr_ticks`.
    fn due(&self, _tick: u64, _nr_ticks: u64) -> bool {
        true
    }
}

/// Everything a run produced, beyond the per-process [`RunResult`]s.
/// `render()` formats the human-readable summary the `daos fleet`
/// subcommand prints.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Total worker processes.
    pub nr_processes: usize,
    /// Shards (simulated machines).
    pub nr_shards: usize,
    /// Worker threads that ticked the shards (1 = inline).
    pub nr_workers: usize,
    /// Tenant label families.
    pub nr_tenants: usize,
    /// Ticks executed (= epochs per process).
    pub ticks: u64,
    /// Virtual runtime of the slowest shard.
    pub runtime_ns: Ns,
    /// Sum of time-weighted average RSS across processes.
    pub total_avg_rss: u64,
    /// Sum of peak RSS across processes.
    pub total_peak_rss: u64,
    /// Total monitor CPU work across all monitoring contexts, ns.
    pub monitor_work_ns: Ns,
    /// Total access checks performed by all monitors.
    pub monitor_total_checks: u64,
    /// The per-process `max_nr_regions` after budget division.
    pub effective_max_regions: usize,
    /// Trace events dropped per process (global process index; empty
    /// without `trace_ring`). Per-process counts, not a deduplicated
    /// once-per-run warning: every process's loss is visible.
    pub dropped_events: Vec<u64>,
    /// Work-stealing steals across the run (0 when inline; varies with
    /// thread timing — excluded from determinism comparisons).
    pub steals: u64,
    /// Per-tenant aggregates at end of run.
    pub tenants: Vec<TenantStats>,
}

impl FleetSummary {
    /// Monitor CPU work per process — the sub-linearity headline: with
    /// the region budget active this *falls* as the fleet grows.
    pub fn overhead_per_process_ns(&self) -> Ns {
        self.monitor_work_ns / self.nr_processes.max(1) as u64
    }

    /// Total dropped trace events across the fleet.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_events.iter().sum()
    }

    /// Human-readable multi-line summary (the library never prints; the
    /// CLI does).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet    {} procs in {} shards ({} max/shard) on {} worker{}, {} tenant{}\n",
            self.nr_processes,
            self.nr_shards,
            self.nr_processes.div_ceil(self.nr_shards.max(1)),
            self.nr_workers,
            if self.nr_workers == 1 { "" } else { "s" },
            self.nr_tenants,
            if self.nr_tenants == 1 { "" } else { "s" },
        ));
        out.push_str(&format!(
            "time     {} ticks, {:.3} s virtual runtime\n",
            self.ticks,
            self.runtime_ns as f64 / 1e9
        ));
        out.push_str(&format!(
            "memory   avg rss {}, peak rss {}\n",
            fmt_bytes(self.total_avg_rss),
            fmt_bytes(self.total_peak_rss)
        ));
        out.push_str(&format!(
            "monitor  {:.3} ms work, {} checks, {} max regions/proc, {} ns/proc\n",
            self.monitor_work_ns as f64 / 1e6,
            self.monitor_total_checks,
            self.effective_max_regions,
            self.overhead_per_process_ns()
        ));
        if self.steals > 0 {
            out.push_str(&format!("pool     {} steals\n", self.steals));
        }
        for t in &self.tenants {
            out.push_str(&format!(
                "tenant   {}: {} procs, rss {}, peak {}, {} majfaults, {} swapouts\n",
                t.name,
                t.nr_processes,
                fmt_bytes(t.total_rss),
                fmt_bytes(t.peak_rss),
                t.major_faults,
                t.swapouts
            ));
        }
        if !self.dropped_events.is_empty() {
            let lossy: Vec<(usize, u64)> = self
                .dropped_events
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d > 0)
                .map(|(p, &d)| (p, d))
                .collect();
            if lossy.is_empty() {
                out.push_str("trace    no ring overflows\n");
            } else {
                out.push_str(&format!(
                    "trace    {} events dropped across {} procs:",
                    self.total_dropped(),
                    lossy.len()
                ));
                for (i, (p, d)) in lossy.iter().enumerate() {
                    if i == 16 {
                        out.push_str(&format!(" … +{} more", lossy.len() - 16));
                        break;
                    }
                    out.push_str(&format!(" p{p}:{d}"));
                }
                out.push('\n');
            }
        }
        out
    }
}

fn fmt_bytes(b: u64) -> String {
    const UNITS: [(&str, u64); 4] =
        [("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10), ("B", 1)];
    for (name, scale) in UNITS {
        if b >= scale {
            return format!("{:.1} {name}", b as f64 / scale as f64);
        }
    }
    "0 B".to_string()
}

/// Interval of the background khugepaged promoter in the `thp` config.
const KHUGEPAGED_INTERVAL: Ns = sec(1);

/// One worker process resident in a shard.
struct Proc {
    pid: Pid,
    global_idx: usize,
    wl: SyntheticWorkload,
    next_khugepaged: Ns,
    dropped_events: u64,
}

/// Monomorphised monitor: a plane drives either primitive through the
/// same calls.
enum AnyMonitor {
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

    fn overhead(&self) -> OverheadStats {
        match self {
            AnyMonitor::Vaddr(ctx) => ctx.overhead,
            AnyMonitor::Paddr(ctx) => ctx.overhead,
        }
    }
}

/// One monitoring plane: the monitor, the schemes engine consuming its
/// windows, and where the windows end up — in `record` when the
/// configuration records, in `last_window` otherwise, so the freshest
/// window is always at hand for observers without a clone.
struct Plane {
    monitor: AnyMonitor,
    engine: Option<SchemesEngine>,
    record: Option<MonitorRecord>,
    last_window: Option<Aggregation>,
}

impl Plane {
    /// The plane `kind` describes: over `owner`'s address space
    /// (virtual) or the whole machine (physical), sampling from the
    /// fixed monitor stream `seed ^ 0xda05`.
    fn build(
        kind: MonitorKind,
        config: &RunConfig,
        attrs: MonitorAttrs,
        sys: &MemorySystem,
        owner: Pid,
        seed: u64,
    ) -> Plane {
        let (now, seed) = (sys.now(), seed ^ 0xda05);
        let (monitor, target) = match kind {
            MonitorKind::Vaddr => {
                let prim = VaddrPrimitives::new(owner);
                let ctx = MonitorCtx::new(attrs, prim, sys, now, seed);
                (AnyMonitor::Vaddr(ctx), SchemeTarget::Virtual(owner))
            }
            MonitorKind::Paddr => {
                let ctx = MonitorCtx::new(attrs, PaddrPrimitives, sys, now, seed);
                (AnyMonitor::Paddr(ctx), SchemeTarget::Physical)
            }
        };
        Plane {
            monitor,
            engine: (!config.schemes.is_empty())
                .then(|| SchemesEngine::new(target, config.schemes.clone())),
            record: config.record.then(MonitorRecord::new),
            last_window: None,
        }
    }

    /// Epoch phases 2–3: the monitor catches up with virtual time and
    /// the engine consumes each completed window, with all work charged
    /// as interference against `owner`.
    fn step(&mut self, sys: &mut MemorySystem, owner: Pid, sink: &mut Vec<Aggregation>) {
        let now = sys.now();
        self.monitor.step(sys, now, sink);
        let work = sys.charge_monitor(self.monitor.take_work_ns());
        interfere(sys, owner, work);
        for agg in sink.drain(..) {
            if let Some(engine) = &mut self.engine {
                let pass = engine.on_aggregation(sys, &agg);
                let work = sys.charge_schemes(pass.work_ns);
                interfere(sys, owner, work);
            }
            match &mut self.record {
                Some(rec) => rec.push(agg),
                None => self.last_window = Some(agg),
            }
        }
    }

    fn last_window(&self) -> Option<&Aggregation> {
        self.record.as_ref().and_then(|r| r.aggregations.last()).or(self.last_window.as_ref())
    }

    fn scheme_stats(&self) -> Vec<SchemeStats> {
        self.engine.as_ref().map(|e| e.stats().to_vec()).unwrap_or_default()
    }
}

/// Stall `owner` (and the machine's clock) by `ns` of monitoring work.
fn interfere(sys: &mut MemorySystem, owner: Pid, ns: Ns) {
    if ns > 0 {
        if let Some(st) = sys.proc_stats_mut(owner) {
            st.monitor_interference_ns += ns;
        }
        sys.advance(ns);
    }
}

/// Epoch phase 1: the workload runs one quantum and its access + compute
/// cost advances the clock.
fn workload_phase(
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

/// Epoch phase 4: Linux-original THP — aggressive background promotion.
fn khugepaged_phase(
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

/// Processes watched together by at most one [`Plane`]. Never empty;
/// `procs[0]` is the plane's owner.
struct Group {
    procs: Vec<Proc>,
    plane: Option<Plane>,
}

/// One shard: a self-contained simulated machine hosting a slice of the
/// fleet. All per-tick mutation is confined here, so shards tick in
/// parallel with no shared state at all.
struct Shard {
    sys: MemorySystem,
    groups: Vec<Group>,
    sink: Vec<Aggregation>,
    batches: Vec<AccessBatch>,
    cpu_scale: f64,
    khugepaged: bool,
    /// Shard-owned trace collector (`FleetSpec::trace_ring`), installed
    /// thread-locally for the duration of each tick.
    collector: Option<Collector>,
}

/// Attributes the installed collector's ring drops: each
/// [`charge`](Self::charge) books the drops since the previous one.
struct DropMeter {
    tracing: bool,
    seen: u64,
}

impl DropMeter {
    fn dropped_now() -> u64 {
        daos_trace::ring_status().map_or(0, |(_, dropped, _)| dropped)
    }

    fn start(tracing: bool) -> DropMeter {
        DropMeter { tracing, seen: if tracing { Self::dropped_now() } else { 0 } }
    }

    fn charge(&mut self, to: &mut Proc) {
        if self.tracing {
            let now = Self::dropped_now();
            to.dropped_events += now.saturating_sub(self.seen);
            self.seen = now;
        }
    }
}

/// The seed a [`ShardImage`] is built with. Nothing draws from it: a
/// stamped shard replaces both streams before its first tick.
const IMAGE_SEED: u64 = 0;

/// The memory image every shard of one length starts from: a machine
/// with that many processes set up, plus their workloads. Set-up issues
/// only `All`/`Stride` batches and reclaim is deterministic, so building
/// it draws from no random stream and it depends on no seed — only on
/// the machine, the configuration, the workload spec and the *number* of
/// processes sharing the machine (which decides what set-up swaps out).
#[derive(Clone)]
struct ShardImage {
    sys: MemorySystem,
    wls: Vec<SyntheticWorkload>,
}

impl ShardImage {
    /// The one place a shard's processes are set up.
    fn build(
        machine: &MachineProfile,
        config: &RunConfig,
        spec: &WorkloadSpec,
        nr_procs: usize,
    ) -> MmResult<ShardImage> {
        let mut sys = MemorySystem::new(machine.clone(), config.swap, IMAGE_SEED);
        let mut wls = Vec::with_capacity(nr_procs);
        for _ in 0..nr_procs {
            let mut wl = instantiate(*spec, IMAGE_SEED);
            wl.setup(&mut sys, config.thp)?;
            wls.push(wl);
        }
        Ok(ShardImage { sys, wls })
    }
}

impl Shard {
    /// Turn an image into shard `shard_idx`, whose first process is
    /// global process `first_proc`: seed the machine stream with the
    /// shard's seed and each workload's with its process's, label the
    /// processes, and build the planes and the collector against the
    /// stamped machine (they carry their own seeds and only read the
    /// owner's VMAs or the physical space, at virtual time 0).
    fn stamp(
        image: ShardImage,
        config: &RunConfig,
        fleet: &FleetSpec,
        seed: u64,
        shard_idx: usize,
        first_proc: usize,
    ) -> Shard {
        let shard_seed = seed ^ ((shard_idx as u64) << 21);
        let wl_seed = |p: usize| seed ^ ((p as u64) << 17);
        let ShardImage { mut sys, wls } = image;
        sys.reseed(IMAGE_SEED, shard_seed);
        let attrs = fleet.effective_attrs(&config.attrs);
        // A physical-address plane watches the whole machine: the shard
        // is one group, sampled from the shard's stream. Any other
        // configuration makes each process a group of its own.
        let whole_shard = config.monitor == Some(MonitorKind::Paddr);
        let group_len = if whole_shard { wls.len().max(1) } else { 1 };
        let mut procs = wls.into_iter().enumerate().map(|(i, mut wl)| {
            let global_idx = first_proc + i;
            wl.reseed(IMAGE_SEED, wl_seed(global_idx));
            Proc {
                pid: wl.pid(),
                global_idx,
                wl,
                next_khugepaged: KHUGEPAGED_INTERVAL,
                dropped_events: 0,
            }
        });
        let mut groups = Vec::new();
        loop {
            let procs: Vec<Proc> = procs.by_ref().take(group_len).collect();
            let Some(owner) = procs.first() else { break };
            let plane_seed = if whole_shard { shard_seed } else { wl_seed(owner.global_idx) };
            let plane = config
                .monitor
                .map(|kind| Plane::build(kind, config, attrs, &sys, owner.pid, plane_seed));
            groups.push(Group { procs, plane });
        }
        // Ring capacity clamped to ≥ 1 so the builder cannot fail.
        let collector = fleet
            .trace_ring
            .and_then(|cap| Collector::builder().ring_capacity(cap.max(1)).build().ok());
        let cpu_scale = 3.0 / sys.machine().cpu_ghz;
        Shard {
            sys,
            groups,
            sink: Vec::new(),
            batches: Vec::new(),
            cpu_scale,
            khugepaged: config.khugepaged,
            collector,
        }
    }

    /// Advance every resident process by one epoch. With a shard
    /// collector, install it thread-locally for the tick (skipped if the
    /// thread already carries one — e.g. a caller-installed collector on
    /// the inline path keeps precedence) and attribute ring-drop deltas
    /// to the process whose phases produced them.
    fn tick(&mut self, idx: u64) -> MmResult<()> {
        let mut tracing = false;
        if self.collector.is_some() && daos_trace::with_collector(|_| ()).is_none() {
            if let Some(col) = self.collector.take() {
                tracing = daos_trace::install(col).is_ok();
            }
        }
        let result = self.tick_inner(idx, tracing);
        if tracing {
            self.collector = daos_trace::take();
        }
        result
    }

    /// Per group: every member's workload quantum, the plane's step
    /// (its ring drops go to the owner), every member's khugepaged scan.
    fn tick_inner(&mut self, idx: u64, tracing: bool) -> MmResult<()> {
        let mut drops = DropMeter::start(tracing);
        for g in &mut self.groups {
            for p in &mut g.procs {
                workload_phase(
                    &mut self.sys,
                    p.pid,
                    &mut p.wl,
                    idx,
                    self.cpu_scale,
                    &mut self.batches,
                )?;
                drops.charge(p);
            }
            if let Some(plane) = &mut g.plane {
                let owner = &mut g.procs[0];
                plane.step(&mut self.sys, owner.pid, &mut self.sink);
                drops.charge(owner);
            }
            for p in &mut g.procs {
                khugepaged_phase(&mut self.sys, p.pid, self.khugepaged, &mut p.next_khugepaged)?;
                drops.charge(p);
            }
        }
        Ok(())
    }

    fn procs(&self) -> impl Iterator<Item = &Proc> {
        self.groups.iter().flat_map(|g| &g.procs)
    }

    /// Total monitor CPU work accumulated in this shard, ns, plus total
    /// access checks.
    fn monitor_totals(&self) -> (Ns, u64) {
        self.groups.iter().filter_map(|g| g.plane.as_ref()).fold((0, 0), |(work, checks), pl| {
            let o = pl.monitor.overhead();
            (work + o.work_ns, checks + o.total_checks)
        })
    }
}

/// The engine: builds the shards, ticks them (inline or over the worker
/// pool) and assembles per-process [`RunResult`]s plus the
/// [`FleetSummary`]. Normally driven via [`crate::Session`]; the bench
/// harness drives [`tick`](Self::tick) directly to time it.
pub struct FleetEngine {
    shards: Vec<Shard>,
    pool: Option<WorkerPool>,
    spec: FleetSpec,
    config_name: String,
    workload_name: String,
    machine_name: String,
    nr_ticks: u64,
    tick: u64,
    effective_max_regions: usize,
}

impl FleetEngine {
    /// Build the fleet: one `ShardImage` per distinct shard length (the
    /// full shards, and the remainder shard if there is one), every
    /// shard stamped from its length's image — the last one takes the
    /// image itself, so a fleet of one shard never copies. Images are
    /// built on the caller thread; with a pool (more than one shard and
    /// more than one worker) the copies are stamped in pool tasks.
    pub fn new(
        machine: &MachineProfile,
        config: &RunConfig,
        spec: &WorkloadSpec,
        fleet: FleetSpec,
        seed: u64,
    ) -> MmResult<FleetEngine> {
        let nr_shards = fleet.nr_shards();
        let pool = (nr_shards > 1 && fleet.nr_workers != 1)
            .then(|| WorkerPool::new(fleet.nr_workers));
        let per_shard = fleet.procs_per_shard;
        let nr_full = fleet.nr_processes / per_shard;
        let remainder = fleet.nr_processes % per_shard;
        let mut shards = Vec::with_capacity(nr_shards);
        // (first shard, shards, processes per shard) of each length.
        for (first, nr, len) in [(0, nr_full, per_shard), (nr_full, remainder.min(1), remainder)] {
            if nr == 0 {
                continue;
            }
            let last = first + nr - 1;
            let mut image = ShardImage::build(machine, config, spec, len)?;
            let stamp = |image, s: usize| Shard::stamp(image, config, &fleet, seed, s, s * per_shard);
            match &pool {
                Some(pool) if first < last => {
                    let shared = Arc::new(image);
                    let tasks: Vec<_> = (first..last)
                        .map(|s| {
                            let image = Arc::clone(&shared);
                            let config = config.clone();
                            let fleet = fleet.clone();
                            move || {
                                let copy = ShardImage::clone(&image);
                                Shard::stamp(copy, &config, &fleet, seed, s, s * per_shard)
                            }
                        })
                        .collect();
                    shards.extend(pool.run_batch(tasks));
                    // Every task has run and dropped its handle.
                    image = Arc::try_unwrap(shared).unwrap_or_else(|held| ShardImage::clone(&held));
                }
                _ => {
                    for s in first..last {
                        shards.push(stamp(image.clone(), s));
                    }
                }
            }
            shards.push(stamp(image, last));
        }
        let effective_max_regions = fleet.effective_attrs(&config.attrs).max_nr_regions;
        let workload_name = shards
            .first()
            .and_then(|s| s.procs().next().map(|p| p.wl.name()))
            .unwrap_or_else(|| spec.name.to_string());
        Ok(FleetEngine {
            shards,
            pool,
            spec: fleet,
            config_name: config.name.clone(),
            workload_name,
            machine_name: machine.name.clone(),
            nr_ticks: spec.nr_epochs,
            tick: 0,
            effective_max_regions,
        })
    }

    /// The fleet spec this engine runs.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Display name of the replicated workload.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// Ticks the full run will execute (the workload's epoch count).
    pub fn nr_ticks(&self) -> u64 {
        self.nr_ticks
    }

    /// Advance every process in the fleet by one epoch. With a pool,
    /// each shard moves into a work-stealing task and comes back with
    /// its result behind the batch barrier; otherwise shards tick inline
    /// on the caller thread (which keeps a caller-installed trace
    /// collector observing a 1-shard fleet).
    pub fn tick(&mut self) -> MmResult<()> {
        let idx = self.tick;
        match &self.pool {
            Some(pool) => {
                let tasks: Vec<_> = self
                    .shards
                    .drain(..)
                    .map(|mut sh| {
                        move || {
                            let result = sh.tick(idx);
                            (sh, result)
                        }
                    })
                    .collect();
                // Every shard comes home before the first error leaves.
                let mut outcome = Ok(());
                for (sh, result) in pool.run_batch(tasks) {
                    self.shards.push(sh);
                    outcome = outcome.and(result);
                }
                outcome?;
            }
            None => {
                for sh in &mut self.shards {
                    sh.tick(idx)?;
                }
            }
        }
        self.tick += 1;
        Ok(())
    }

    /// Run all remaining ticks, reporting to `observer` after each tick
    /// it says it is [`due`](FleetObserver::due) for.
    pub fn run(&mut self, mut observer: Option<&mut dyn FleetObserver>) -> MmResult<()> {
        while self.tick < self.nr_ticks {
            self.tick()?;
            if let Some(obs) = observer.as_deref_mut() {
                if obs.due(self.tick - 1, self.nr_ticks) {
                    obs.on_tick(&self.progress());
                }
            }
        }
        Ok(())
    }

    /// Aggregate the current fleet state — linear in fleet size, so
    /// [`run`](Self::run) builds it only for a due observer. `&mut`
    /// because reading a process's statistics settles its RSS integral.
    pub fn progress(&mut self) -> FleetProgress {
        let mut now_ns = 0;
        let mut monitor_work_ns = 0;
        let mut dropped_events = 0;
        let mut swap_dram_bytes = 0;
        for sh in &self.shards {
            now_ns = now_ns.max(sh.sys.now());
            monitor_work_ns += sh.monitor_totals().0;
            dropped_events += sh.procs().map(|p| p.dropped_events).sum::<u64>();
            swap_dram_bytes += sh.sys.swap().dram_bytes();
        }
        FleetProgress {
            tick: self.tick.saturating_sub(1),
            nr_ticks: self.nr_ticks,
            now_ns,
            nr_processes: self.spec.nr_processes,
            monitor_work_ns,
            dropped_events,
            swap_dram_bytes,
            tenants: self.tenants(),
            single: self.single_detail(),
        }
    }

    /// The lone process's monitoring state, when the fleet is one
    /// process.
    fn single_detail(&mut self) -> Option<ProcessDetail> {
        let [sh] = self.shards.as_mut_slice() else { return None };
        let [g] = sh.groups.as_slice() else { return None };
        let [p] = g.procs.as_slice() else { return None };
        let now = sh.sys.now();
        let plane = g.plane.as_ref();
        Some(ProcessDetail {
            avg_rss: sh.sys.proc_stats(p.pid)?.avg_rss_bytes(now),
            last_window: plane.and_then(Plane::last_window).cloned(),
            scheme_stats: plane.map(Plane::scheme_stats).unwrap_or_default(),
            overhead: plane.map(|pl| pl.monitor.overhead()),
        })
    }

    /// Per-tenant aggregates of the current fleet state.
    fn tenants(&mut self) -> Vec<TenantStats> {
        let mut tenants: Vec<TenantStats> = (0..self.spec.nr_tenants)
            .map(|i| TenantStats { name: format!("t{i}"), ..TenantStats::default() })
            .collect();
        for Shard { sys, groups, .. } in &mut self.shards {
            for p in groups.iter().flat_map(|g| &g.procs) {
                let t = &mut tenants[self.spec.tenant_of(p.global_idx)];
                t.nr_processes += 1;
                t.total_rss += sys.rss_bytes(p.pid);
                if let Some(st) = sys.proc_stats(p.pid) {
                    t.peak_rss += st.peak_rss_bytes;
                    t.interference_ns += st.monitor_interference_ns;
                    t.major_faults += st.major_faults;
                    t.swapouts += st.swapouts;
                }
            }
        }
        tenants
    }

    /// Consume the engine: per-process [`RunResult`]s (in global process
    /// order) plus the fleet summary. Every process carries its shard's
    /// kernel-side statistics (they are per machine); a plane's record,
    /// overhead and scheme statistics go to its group's owner, which in
    /// a fleet of one is *the* process.
    pub fn finish(mut self) -> MmResult<(Vec<RunResult>, FleetSummary)> {
        let tenants = self.tenants();
        let mut runs = Vec::with_capacity(self.spec.nr_processes);
        let mut runtime_ns = 0;
        let mut monitor_work_ns = 0;
        let mut monitor_total_checks = 0;
        let mut total_avg_rss = 0;
        let mut total_peak_rss = 0;
        let mut dropped_events = self
            .spec
            .trace_ring
            .map(|_| vec![0u64; self.spec.nr_processes])
            .unwrap_or_default();
        let nr_shards = self.shards.len();
        for sh in self.shards {
            let shard_runtime = sh.sys.now();
            runtime_ns = runtime_ns.max(shard_runtime);
            let (work, checks) = sh.monitor_totals();
            monitor_work_ns += work;
            monitor_total_checks += checks;
            let Shard { mut sys, groups, .. } = sh;
            for Group { procs, plane: mut unclaimed } in groups {
                for p in procs {
                    let stats = *sys.proc_stats(p.pid).ok_or(MmError::NoSuchProcess(p.pid))?;
                    // The owner comes first and takes the plane's results.
                    let plane = unclaimed.take();
                    let avg_rss = stats.avg_rss_bytes(shard_runtime);
                    total_avg_rss += avg_rss;
                    total_peak_rss += stats.peak_rss_bytes;
                    if let Some(d) = dropped_events.get_mut(p.global_idx) {
                        *d = p.dropped_events;
                    }
                    runs.push(RunResult {
                        config: self.config_name.clone(),
                        workload: p.wl.name(),
                        machine: self.machine_name.clone(),
                        runtime_ns: shard_runtime,
                        avg_rss,
                        peak_rss: stats.peak_rss_bytes,
                        stats,
                        kstats: sys.kstats,
                        overhead: plane.as_ref().map(|pl| pl.monitor.overhead()),
                        scheme_stats: plane.as_ref().map(Plane::scheme_stats).unwrap_or_default(),
                        record: plane.and_then(|pl| pl.record),
                    });
                }
            }
        }
        let nr_workers = self.pool.as_ref().map_or(1, |p| p.nr_workers());
        let steals = self.pool.as_ref().map_or(0, |p| p.stats().steals);
        let summary = FleetSummary {
            nr_processes: self.spec.nr_processes,
            nr_shards,
            nr_workers,
            nr_tenants: self.spec.nr_tenants,
            ticks: self.tick,
            runtime_ns,
            total_avg_rss,
            total_peak_rss,
            monitor_work_ns,
            monitor_total_checks,
            effective_max_regions: self.effective_max_regions,
            dropped_events,
            steals,
            tenants,
        };
        Ok((runs, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::clock::ms;
    use daos_workloads::{Behavior, FleetConfig, Suite};

    /// Monitoring intervals short enough that windows complete, regions
    /// age and schemes act within a few dozen 5 ms epochs.
    fn fast_attrs() -> MonitorAttrs {
        MonitorAttrs::builder()
            .sampling_interval(ms(1))
            .aggregation_interval(ms(10))
            .regions_update_interval(ms(50))
            .build()
            .unwrap()
    }

    /// Every shape the engine has: the six paper configurations (no
    /// plane, vaddr planes, a paddr plane, khugepaged, the two scheme
    /// sets) with their ages scaled to `fast_attrs`, and `daos fleet`'s
    /// own shard-wide pageout plane.
    fn engine_shapes() -> Vec<RunConfig> {
        let schemes = |text: &str| {
            daos_schemes::parse_schemes(text).unwrap().into_iter().map(Into::into).collect()
        };
        let mut configs = RunConfig::paper_configs();
        for c in &mut configs {
            match c.name.as_str() {
                "ethp" => {
                    c.schemes = schemes(
                        "min max 5 max min max hugepage\n2M max min min 40ms max nohugepage",
                    )
                }
                "prcl" => c.schemes = schemes("4K max min min 20ms max pageout"),
                _ => {}
            }
        }
        configs.push(RunConfig::fleet_prcl(ms(20), daos_mm::swap::SwapConfig::paper_zram()));
        for c in &mut configs {
            c.attrs = fast_attrs();
        }
        configs
    }

    /// One small spec per [`Behavior`].
    fn behaviors() -> Vec<Behavior> {
        vec![
            Behavior::CompactHot { hot_frac: 0.25, apc: 4.0, cold_touch_prob: 0.01 },
            Behavior::PointerChase { random_touches: 48, core_frac: 0.1, apc: 6.0 },
            Behavior::Streaming { window_frac: 0.2, stride: 2, apc: 8.0, sweep_period: ms(150) },
            Behavior::PhaseShift { nr_phases: 3, hot_frac: 0.2, apc: 4.0, phase_len: ms(60) },
            Behavior::Growing { built_by_frac: 0.5, hot_tail_frac: 0.3, apc: 4.0 },
            Behavior::MostlyIdle { active_frac: 0.15, apc: 4.0, stray_prob: 0.3 },
        ]
    }

    /// Stamping shards from one shared image is only a way to build them
    /// faster: for every workload behaviour under every engine shape, a
    /// fleet whose shards were each built from an image of their own
    /// produces the same per-process results and the same summary —
    /// inline and over the pool, with a remainder shard, per-shard trace
    /// rings, and a machine small enough that set-up itself swaps (so
    /// what a process loses depends on its position in the shard).
    #[test]
    fn stamped_shards_equal_separately_built_ones() {
        let mut machine = MachineProfile::i3_metal();
        machine.dram_bytes = 7 << 20;
        let fleet = FleetSpec::new(26).shard_size(4).tenants(3).trace_ring(64);
        let seed = 77;
        for behavior in behaviors() {
            for config in engine_shapes() {
                // khugepaged first runs after one virtual second.
                let nr_epochs = if config.khugepaged { 230 } else { 60 };
                let spec = WorkloadSpec {
                    name: "shape",
                    suite: Suite::Fleet,
                    footprint: 4 << 20,
                    nr_epochs,
                    compute_ns: ms(5),
                    behavior,
                };
                let what = format!("{} under {}", behavior.kind_name(), config.name);
                let finish = |mut engine: FleetEngine| {
                    engine.run(None).unwrap();
                    let (runs, mut summary) = engine.finish().unwrap();
                    // Pool counters vary with worker count and thread timing.
                    summary.nr_workers = 0;
                    summary.steals = 0;
                    (runs, summary)
                };
                let shared = |workers: usize| {
                    FleetEngine::new(&machine, &config, &spec, fleet.clone().workers(workers), seed)
                        .unwrap()
                };
                let mut separate = shared(1);
                separate.shards = (0..fleet.nr_shards())
                    .map(|s| {
                        let first = s * fleet.procs_per_shard;
                        let len = fleet.procs_per_shard.min(fleet.nr_processes - first);
                        let image = ShardImage::build(&machine, &config, &spec, len).unwrap();
                        Shard::stamp(image, &config, &fleet, seed, s, first)
                    })
                    .collect();
                let (runs, summary) = finish(separate);
                assert_eq!(runs.len(), 26);
                assert!(runs.iter().any(|r| r.stats.swapouts > 0), "{what}: no memory pressure");
                for workers in [1, 2] {
                    let (stamped_runs, stamped_summary) = finish(shared(workers));
                    assert!(stamped_runs == runs, "{what}: results differ at workers({workers})");
                    assert_eq!(stamped_summary, summary, "{what}: workers({workers})");
                }
            }
        }
    }

    /// Every event a shard's ring overwrites is charged to one of its
    /// processes — whichever phase overwrote it, under a shard-wide
    /// plane as under per-process ones.
    #[test]
    fn ring_drops_are_all_charged_to_a_process() {
        let mut machine = MachineProfile::i3_metal();
        machine.dram_bytes = 1 << 30;
        let worker = FleetConfig { worker_footprint: 4 << 20, ..FleetConfig::default() };
        let spec = worker.worker_spec(25);
        let attrs = MonitorAttrs::builder()
            .sampling_interval(ms(1))
            .aggregation_interval(ms(10))
            .regions_update_interval(ms(50))
            .build()
            .unwrap();
        let fleet = FleetSpec::new(4).shard_size(4).trace_ring(8);
        for kind in [MonitorKind::Paddr, MonitorKind::Vaddr] {
            let config = RunConfig::builder("drops")
                .monitor(kind)
                .scheme(daos_schemes::parse_scheme_line("4K max min min 20ms max pageout").unwrap())
                .attrs(attrs)
                .build()
                .unwrap();
            let image = ShardImage::build(&machine, &config, &spec, 4).unwrap();
            let mut shard = Shard::stamp(image, &config, &fleet, 3, 0, 0);
            for idx in 0..spec.nr_epochs {
                shard.tick(idx).unwrap();
            }
            let ring_dropped = shard.collector.as_ref().unwrap().ring().dropped();
            assert!(ring_dropped > 0, "{kind:?}: an 8-event ring overflows");
            let charged: u64 = shard.procs().map(|p| p.dropped_events).sum();
            assert_eq!(charged, ring_dropped, "{kind:?}: drops charged vs the ring's own count");
        }
    }
}
