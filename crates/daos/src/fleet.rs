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
//! engine therefore builds one `ShardImage` per distinct length — the
//! first shard's in [`FleetEngine::new`], and a shorter remainder
//! shard's, used once, in its own slot when it first advances — and
//! *stamps* every shard from it: copy the image (the last holder of an
//! image takes the image itself, so a fleet of one shard never copies),
//! seed the machine stream with `seed ^ (shard << 21)` and process `p`'s
//! workload stream with `seed ^ (p << 17)`, label the processes with
//! their global indices, and build the planes (seeded `… ^ 0xda05` from
//! the shard's stream for a physical-address plane, from the owner's
//! otherwise) against the stamped machine. The unit is the shard, not
//! the process, because processes of one spec do *not* start identical:
//! the default fleet maps 32 × 24 MiB onto 512 MiB of DRAM per shard, so
//! about 2.03 M of a 1000 × 50 run's 2.26 M swapouts happen inside
//! set-up, and which pages a process loses depends on its position in
//! the shard. (Those are the shards' *stamped counters*; the host runs
//! set-up once per image.)
//!
//! Within a shard, processes are partitioned into **groups**, each
//! watched by at most one monitoring **plane**: a monitor, the schemes
//! engine it feeds, the record it keeps and its freshest window. A
//! virtual-address configuration watches every process through a plane
//! of its own (a group of one — an unmonitored configuration is the same
//! shape without the plane); a physical-address configuration watches
//! the whole machine, so the shard is one group. The plane's
//! interference and results belong to the group's first process, its
//! *owner*. Every simulation tick a shard walks its groups
//! once — each member's workload quantum, then the plane's step, then
//! each member's khugepaged scan — which is the Fig. 1 workflow under a
//! deterministic virtual clock.
//!
//! **Running is per shard, to the next barrier.** Shards share nothing,
//! so the only thing that ever needs all of them at one tick is somebody
//! looking: a *barrier* is the end of the next tick a [`FleetObserver`]
//! is [`due`](FleetObserver::due) for (a hand-driven [`FleetEngine::tick`]
//! is a barrier after one tick), or the end of the run. The engine keeps
//! one slot per shard and advances the fleet slot by slot: a slot is
//! stamped when it first advances (a remainder's slot builds its image
//! first), ticked straight to the barrier, and — once no due tick
//! remains — *retired* on arrival: its per-process results and its share
//! of the fleet totals stay, the machine goes back to the allocator while
//! it is warm for the next stamp. A fleet nobody is watching is one span,
//! so it never holds more than one live shard per worker (inline, the
//! remainder's image is built only after the last full shard has dropped
//! theirs); an always-due observer gets spans of one tick, every shard
//! live throughout. Each shard executes the same ticks in the same order
//! on its own clock and streams whichever way the spans are cut, so
//! results cannot depend on the schedule
//! (`tests::shard_major_equals_tick_major`).
//!
//! Single-shard (or single-worker) fleets advance inline on the caller
//! thread, so a thread-local trace collector observes them directly: it
//! sees a length's set-up once, when the image is built — the full
//! length's in [`FleetEngine::new`], before any tick, and a remainder's
//! when its slot first advances, after the full shards' ticks of that
//! span — and on a multi-shard fleet it sees a span's events shard after
//! shard, each stamped with its shard's virtual clock. Otherwise each span
//! moves every slot into a task of the workspace worker pool
//! ([`daos_util::pool::WorkerPool`], threads on one shared queue) and
//! takes it back with the task's result behind the batch barrier, so
//! nothing in the results or the summary depends on worker count or
//! thread timing but `nr_workers` itself. Pool tasks run untraced, the
//! remainder's image build included: a collector on a pooled fleet sees
//! the full length's set-up only.
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
use daos_util::pool::WorkerPool;
use std::sync::Arc;
use daos_workloads::{instantiate, SyntheticWorkload, Workload, WorkloadSpec};

use crate::config::{MonitorKind, RunConfig};
use crate::profile::{self, Laps, Phase, Stopwatch, WallProfile};
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
    /// Tenant label families published per fleet (clamped to
    /// `1..=nr_processes`, so no tenant is empty); process `p` belongs to
    /// tenant `p % nr_tenants`, named `t<i>`.
    pub nr_tenants: usize,
}

impl FleetSpec {
    /// A fleet of `nr_processes` with the defaults: 32 processes per
    /// shard, auto workers, one tenant.
    pub fn new(nr_processes: usize) -> Self {
        Self {
            nr_processes: nr_processes.max(1),
            procs_per_shard: 32,
            nr_workers: 0,
            nr_tenants: 1,
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

    /// Tenant count for the per-tenant label families, at most one per
    /// process.
    pub fn tenants(mut self, n: usize) -> Self {
        self.nr_tenants = n.clamp(1, self.nr_processes);
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
    /// DRAM the shards' swap devices occupy themselves
    /// ([`daos_mm::swap::SwapDevice::dram_bytes`]): machine memory in use
    /// is the tenants' `total_rss` plus this.
    pub swap_dram_bytes: u64,
    /// Per-tenant aggregates.
    pub tenants: Vec<TenantStats>,
    /// The process's own detail when the fleet is a single process.
    pub single: Option<ProcessDetail>,
    /// Host wall time per engine phase so far, when the run is profiled
    /// ([`crate::Session::profile_wall`]); `wall_ns` is 0.
    pub profile: Option<WallProfile>,
}

/// Hook into a live run, on the driver thread. [`FleetEngine::run`]
/// asks [`due`](Self::due) *ahead of time* — it runs every shard
/// straight to the next due tick — and only then builds the
/// O(processes) [`FleetProgress`] for [`on_tick`](Self::on_tick), which
/// is called exactly once per due tick, in order, with `progress.tick`
/// equal to it.
pub trait FleetObserver {
    /// One tick (one epoch across every process) finished.
    fn on_tick(&mut self, progress: &FleetProgress);

    /// Whether this observer wants `tick` (0-based) of `nr_ticks`. Must
    /// be a pure function of its arguments: it is asked about ticks that
    /// have not run yet, and may be asked about one more than once.
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
    /// Always 0: the pool is one shared queue and has nothing to steal.
    /// Kept only for the frozen perf ledger's `fleet.steals` lane, and
    /// goes with it (ROADMAP item 3).
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
/// windows, the record that encodes each of them when the configuration
/// records, and the freshest window itself, kept for observers.
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
    /// as interference against `owner` — a lap of [`Phase::Monitor`],
    /// then one of [`Phase::Schemes`], when profiling.
    fn step(
        &mut self,
        sys: &mut MemorySystem,
        owner: Pid,
        sink: &mut Vec<Aggregation>,
        watch: &mut Option<Stopwatch>,
    ) {
        let now = sys.now();
        self.monitor.step(sys, now, sink);
        let work = sys.charge_monitor(self.monitor.take_work_ns());
        interfere(sys, owner, work);
        profile::lap(watch, Phase::Monitor);
        for agg in sink.drain(..) {
            if let Some(engine) = &mut self.engine {
                let pass = engine.on_aggregation(sys, &agg);
                let work = sys.charge_schemes(pass.work_ns);
                interfere(sys, owner, work);
            }
            if let Some(rec) = &mut self.record {
                rec.push(&agg);
            }
            self.last_window = Some(agg);
        }
        profile::lap(watch, Phase::Schemes);
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
fn khugepaged_phase(sys: &mut MemorySystem, pid: Pid, next_khugepaged: &mut Ns) -> MmResult<()> {
    if sys.now() >= *next_khugepaged {
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
/// parallel — or one after the other, each through many ticks — with no
/// shared state at all.
struct Shard {
    sys: MemorySystem,
    groups: Vec<Group>,
    sink: Vec<Aggregation>,
    batches: Vec<AccessBatch>,
    cpu_scale: f64,
    khugepaged: bool,
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

/// What building, stamping and retiring a shard need besides its image,
/// shared with the pool tasks that do all three.
struct Recipe {
    machine: MachineProfile,
    config: RunConfig,
    spec: WorkloadSpec,
    fleet: FleetSpec,
    seed: u64,
}

/// One shard's share of everything the engine reports about the fleet
/// as a whole; shards add up (`now_ns` is the furthest clock).
#[derive(Default)]
struct Totals {
    now_ns: Ns,
    monitor_work_ns: Ns,
    monitor_total_checks: u64,
    swap_dram_bytes: u64,
    tenants: Vec<TenantStats>,
}

impl Totals {
    fn new(nr_tenants: usize) -> Totals {
        let tenants = (0..nr_tenants)
            .map(|i| TenantStats { name: format!("t{i}"), ..TenantStats::default() })
            .collect();
        Totals { tenants, ..Totals::default() }
    }

    fn add(&mut self, other: &Totals) {
        self.now_ns = self.now_ns.max(other.now_ns);
        self.monitor_work_ns += other.monitor_work_ns;
        self.monitor_total_checks += other.monitor_total_checks;
        self.swap_dram_bytes += other.swap_dram_bytes;
        for (t, o) in self.tenants.iter_mut().zip(&other.tenants) {
            t.nr_processes += o.nr_processes;
            t.total_rss += o.total_rss;
            t.peak_rss += o.peak_rss;
            t.interference_ns += o.interference_ns;
            t.major_faults += o.major_faults;
            t.swapouts += o.swapouts;
        }
    }
}

/// What a shard leaves behind when it retires: its processes' results
/// and its share of the fleet totals as of its last tick.
struct Retired {
    runs: Vec<RunResult>,
    totals: Totals,
}

impl Shard {
    /// Turn an image into shard `shard_idx` of `recipe`'s fleet: seed the
    /// machine stream with the shard's seed and each workload's with its
    /// process's, label the processes with their global indices, and
    /// build the planes against the stamped machine (they carry their
    /// own seeds and only read the owner's VMAs or the physical space,
    /// at virtual time 0).
    fn stamp(image: ShardImage, recipe: &Recipe, shard_idx: usize) -> Shard {
        let Recipe { config, fleet, seed, .. } = recipe;
        let first_proc = shard_idx * fleet.procs_per_shard;
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
            Proc { pid: wl.pid(), global_idx, wl, next_khugepaged: KHUGEPAGED_INTERVAL }
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
        let cpu_scale = 3.0 / sys.machine().cpu_ghz;
        Shard {
            sys,
            groups,
            sink: Vec::new(),
            batches: Vec::new(),
            cpu_scale,
            khugepaged: config.khugepaged,
        }
    }

    /// Advance every resident process by one epoch. Per group: every
    /// member's workload quantum, the plane's step, every member's
    /// khugepaged scan — each ending a lap of its [`Phase`] when
    /// profiling.
    fn tick(&mut self, idx: u64, watch: &mut Option<Stopwatch>) -> MmResult<()> {
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
            }
            profile::lap(watch, Phase::Workload);
            if let Some(plane) = &mut g.plane {
                plane.step(&mut self.sys, g.procs[0].pid, &mut self.sink, watch);
            }
            if self.khugepaged {
                for p in &mut g.procs {
                    khugepaged_phase(&mut self.sys, p.pid, &mut p.next_khugepaged)?;
                }
                profile::lap(watch, Phase::Khugepaged);
            }
        }
        Ok(())
    }

    /// Add this shard's current share of the fleet totals to `acc`.
    fn add_totals(&mut self, fleet: &FleetSpec, acc: &mut Totals) {
        let Shard { sys, groups, .. } = self;
        acc.now_ns = acc.now_ns.max(sys.now());
        acc.swap_dram_bytes += sys.swap().dram_bytes();
        for plane in groups.iter().filter_map(|g| g.plane.as_ref()) {
            let overhead = plane.monitor.overhead();
            acc.monitor_work_ns += overhead.work_ns;
            acc.monitor_total_checks += overhead.total_checks;
        }
        for p in groups.iter().flat_map(|g| &g.procs) {
            let t = &mut acc.tenants[fleet.tenant_of(p.global_idx)];
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

    /// Take the results out of a shard that will not tick again: one
    /// [`RunResult`] per process in process order. Every process carries
    /// its shard's kernel-side statistics (they are per machine); a
    /// plane's record, overhead and scheme statistics go to its group's
    /// owner, which in a fleet of one is *the* process. The shard is
    /// untouched if this fails.
    fn retire(&mut self, recipe: &Recipe) -> MmResult<Retired> {
        // Debug builds recount the machine's incremental state at the end
        // of every shard's life (DESIGN §5).
        debug_assert_eq!(self.sys.audit(), Ok(()), "a retiring shard fails its audit");
        let mut totals = Totals::new(recipe.fleet.nr_tenants);
        self.add_totals(&recipe.fleet, &mut totals);
        let Shard { sys, groups, .. } = self;
        // Everything that can fail comes before anything is taken.
        let mut all_stats = groups
            .iter()
            .flat_map(|g| &g.procs)
            .map(|p| sys.proc_stats(p.pid).copied().ok_or(MmError::NoSuchProcess(p.pid)))
            .collect::<MmResult<Vec<_>>>()?
            .into_iter();
        let mut runs = Vec::with_capacity(all_stats.len());
        for Group { procs, plane: mut unclaimed } in groups.drain(..) {
            for (p, stats) in procs.into_iter().zip(all_stats.by_ref()) {
                // The owner comes first and takes the plane's results.
                let plane = unclaimed.take();
                runs.push(RunResult {
                    config: recipe.config.name.clone(),
                    workload: p.wl.name(),
                    machine: recipe.machine.name.clone(),
                    runtime_ns: totals.now_ns,
                    avg_rss: stats.avg_rss_bytes(totals.now_ns),
                    peak_rss: stats.peak_rss_bytes,
                    stats,
                    kstats: sys.kstats,
                    overhead: plane.as_ref().map(|pl| pl.monitor.overhead()),
                    scheme_stats: plane.as_ref().map(Plane::scheme_stats).unwrap_or_default(),
                    // Finished: the record keeps what it uses, not its
                    // doubling slack, for as long as the result lives.
                    record: plane.and_then(|pl| pl.record).map(|mut record| {
                        record.shrink_to_fit();
                        record
                    }),
                });
            }
        }
        Ok(Retired { runs, totals })
    }
}

/// Where one shard is in its life: an image of this many processes to
/// build, an image to stamp, a machine that ticks, or the results it left
/// behind. The live machine is boxed, so a slot is as small as a retired
/// row and not the size of a whole `Shard`.
enum Slot {
    Unbuilt(usize),
    Pending(Arc<ShardImage>),
    Live(Box<Shard>),
    Retired(Retired),
}

impl Slot {
    /// Bring shard `shard_idx` from tick `from` to `barrier`: build its
    /// image if it has none, stamp it if it is still an image (the last
    /// holder of an image takes it, so a fleet of one shard never
    /// copies), tick it, and retire it if `retire`. The slot comes back
    /// whatever happens; one that fails stays where it was, or live. With
    /// `profiling`, so do the laps of its phases, one after the other
    /// from the start of the advance.
    fn advance(
        self,
        recipe: &Recipe,
        shard_idx: usize,
        from: u64,
        barrier: u64,
        retire: bool,
        profiling: bool,
    ) -> (Slot, MmResult<()>, Option<Laps>) {
        let mut watch = Stopwatch::start(profiling);
        let stamp = |image, watch: &mut Option<Stopwatch>| {
            let shard = Box::new(Shard::stamp(image, recipe, shard_idx));
            profile::lap(watch, Phase::Stamp);
            shard
        };
        let mut shard = match self {
            Slot::Unbuilt(nr_procs) => {
                let Recipe { machine, config, spec, .. } = recipe;
                let built = ShardImage::build(machine, config, spec, nr_procs);
                profile::lap(&mut watch, Phase::Build);
                match built {
                    Ok(image) => stamp(image, &mut watch),
                    Err(e) => return (Slot::Unbuilt(nr_procs), Err(e), watch.map(|w| w.laps)),
                }
            }
            Slot::Pending(image) => stamp(Arc::unwrap_or_clone(image), &mut watch),
            Slot::Live(shard) => shard,
            retired @ Slot::Retired(_) => return (retired, Ok(()), None),
        };
        let ticked = (from..barrier).try_for_each(|idx| shard.tick(idx, &mut watch));
        let retired = ticked.and_then(|()| {
            let retiring = || {
                let row = shard.retire(recipe);
                profile::lap(&mut watch, Phase::Retire);
                row
            };
            retire.then(retiring).transpose()
        });
        let (slot, result) = match retired {
            Ok(Some(row)) => {
                drop(shard);
                profile::lap(&mut watch, Phase::Drop);
                (Slot::Retired(row), Ok(()))
            }
            Ok(None) => {
                // Debug builds recount a shard that stays live too, at each
                // barrier that passes a power-of-two tick: O(log ticks)
                // audits per run. One per barrier would be one per tick
                // for a run observed every tick (DESIGN §5).
                if from.checked_ilog2() != barrier.checked_ilog2() {
                    debug_assert_eq!(shard.sys.audit(), Ok(()), "a live shard fails its audit");
                }
                (Slot::Live(shard), Ok(()))
            }
            Err(e) => (Slot::Live(shard), Err(e)),
        };
        (slot, result, watch.map(|w| w.laps))
    }
}

/// The engine: builds the shard images, brings every shard to the next
/// barrier (inline or over the worker pool) and assembles per-process
/// [`RunResult`]s plus the [`FleetSummary`]. Normally driven via
/// [`crate::Session`]; the bench harness drives [`tick`](Self::tick)
/// directly to time it.
pub struct FleetEngine {
    slots: Vec<Slot>,
    pool: Option<WorkerPool>,
    recipe: Arc<Recipe>,
    nr_ticks: u64,
    tick: u64,
    /// The driver thread's laps, when profiling.
    laps: Option<Stopwatch>,
    /// The shards' laps, summed as their slots come home.
    shard_laps: Laps,
}

impl FleetEngine {
    /// Build the fleet: the first shard's `ShardImage`, on the caller
    /// thread, and one slot per shard — pending on that image for every
    /// shard of its length, unbuilt for the remainder shard if there is
    /// one. Nothing is stamped until the fleet first advances.
    pub fn new(
        machine: &MachineProfile,
        config: &RunConfig,
        spec: &WorkloadSpec,
        fleet: FleetSpec,
        seed: u64,
    ) -> MmResult<FleetEngine> {
        Self::build(machine, config, spec, fleet, seed, false)
    }

    /// [`new`](Self::new), booking host wall time per [`Phase`] when
    /// `profiling` (see [`Self::finish_profiled`]).
    pub(crate) fn build(
        machine: &MachineProfile,
        config: &RunConfig,
        spec: &WorkloadSpec,
        fleet: FleetSpec,
        seed: u64,
        profiling: bool,
    ) -> MmResult<FleetEngine> {
        let mut laps = Stopwatch::start(profiling);
        let nr_shards = fleet.nr_shards();
        let pool = (nr_shards > 1 && fleet.nr_workers != 1)
            .then(|| WorkerPool::new(fleet.nr_workers));
        // `nr` shards of `len` processes, then `remainder` processes.
        let len = fleet.procs_per_shard.min(fleet.nr_processes);
        let (nr, remainder) = (fleet.nr_processes / len, fleet.nr_processes % len);
        // The one image built here: a set-up that cannot fit fails the
        // construction. A remainder's set-up is the first `remainder`
        // steps of this one, so it cannot fail, and its image is used
        // once: its slot builds it when it first advances (on the pool
        // when pooled, and inline only after the last shard of this
        // length has dropped this image).
        let mut image = ShardImage::build(machine, config, spec, len)?;
        if nr > 1 {
            // Copied nr - 1 times: share what the copies rarely write.
            image.sys.freeze();
        }
        let image = Arc::new(image);
        let mut slots = Vec::with_capacity(nr_shards);
        slots.extend((0..nr).map(|_| Slot::Pending(Arc::clone(&image))));
        if remainder > 0 {
            slots.push(Slot::Unbuilt(remainder));
        }
        profile::lap(&mut laps, Phase::Build);
        let recipe = Recipe {
            machine: machine.clone(),
            config: config.clone(),
            spec: *spec,
            fleet,
            seed,
        };
        Ok(FleetEngine {
            slots,
            pool,
            recipe: Arc::new(recipe),
            nr_ticks: spec.nr_epochs,
            tick: 0,
            laps,
            shard_laps: Laps::default(),
        })
    }

    /// Ticks the full run will execute (the workload's epoch count).
    pub fn nr_ticks(&self) -> u64 {
        self.nr_ticks
    }

    /// Bring every shard to `barrier`, one shard at a time: shard after
    /// shard on the caller thread (which keeps a caller-installed trace
    /// collector observing), or with a pool one queued task per
    /// slot, which takes the slot and brings it home with its result
    /// behind the batch barrier. With `retire` a shard leaves only its
    /// results behind as soon as it arrives.
    fn advance_to(&mut self, barrier: u64, retire: bool) -> MmResult<()> {
        let (from, recipe, profiling) = (self.tick, &self.recipe, self.laps.is_some());
        let slots = std::mem::take(&mut self.slots).into_iter().enumerate();
        let homes: Vec<(Slot, MmResult<()>, Option<Laps>)> = match &self.pool {
            Some(pool) => {
                let tasks = slots.map(|(s, slot)| {
                    let recipe = Arc::clone(recipe);
                    move || slot.advance(&recipe, s, from, barrier, retire, profiling)
                });
                profile::timed(&mut self.laps, Phase::Barrier, || pool.run_batch(tasks.collect()))
            }
            None => slots
                .map(|(s, slot)| slot.advance(recipe, s, from, barrier, retire, profiling))
                .collect(),
        };
        // Every slot comes home before the first error leaves.
        let mut outcome = Ok(());
        for (slot, result, laps) in homes {
            self.slots.push(slot);
            outcome = outcome.and(result);
            if let Some(laps) = laps {
                self.shard_laps.add(&laps);
            }
        }
        outcome?;
        self.tick = barrier;
        Ok(())
    }

    /// Advance every process in the fleet by one epoch, keeping every
    /// shard live: the tick-major schedule, for callers that look at the
    /// fleet between ticks themselves.
    pub fn tick(&mut self) -> MmResult<()> {
        self.advance_to(self.tick + 1, false)
    }

    /// Run all remaining ticks, reporting to `observer` after each tick
    /// it says it is [`due`](FleetObserver::due) for. Each shard runs
    /// straight to the next due tick; once none remains, shards retire
    /// as they finish.
    pub fn run(&mut self, mut observer: Option<&mut dyn FleetObserver>) -> MmResult<()> {
        let nr_ticks = self.nr_ticks;
        while self.tick < nr_ticks {
            let due = observer
                .as_deref()
                .and_then(|obs| (self.tick..nr_ticks).find(|&t| obs.due(t, nr_ticks)));
            match (due, observer.as_deref_mut()) {
                (Some(tick), Some(obs)) => {
                    self.advance_to(tick + 1, false)?;
                    obs.on_tick(&self.progress());
                }
                _ => self.advance_to(nr_ticks, true)?,
            }
        }
        Ok(())
    }

    /// The fleet totals over every slot, live or retired.
    fn totals(&mut self) -> Totals {
        let fleet = &self.recipe.fleet;
        let mut acc = Totals::new(fleet.nr_tenants);
        for slot in &mut self.slots {
            match slot {
                // `progress` stamps and `finish` retires before folding.
                Slot::Unbuilt(_) | Slot::Pending(_) => {}
                Slot::Live(shard) => shard.add_totals(fleet, &mut acc),
                Slot::Retired(row) => acc.add(&row.totals),
            }
        }
        acc
    }

    /// Aggregate the current fleet state — linear in fleet size, so
    /// [`run`](Self::run) builds it only for a due observer. `&mut`
    /// because reading a process's statistics settles its RSS integral.
    /// Retired shards count as of their last tick, so after a run that
    /// retired them this is the fleet's final state; `single` is `None`
    /// once its process has retired.
    pub fn progress(&mut self) -> FleetProgress {
        if matches!(self.slots.first(), Some(Slot::Pending(_))) {
            // Nothing has run yet: stamp the fleet where it stands. No
            // tick and no retirement, so nothing that can fail.
            let stamped = self.advance_to(self.tick, false);
            debug_assert!(stamped.is_ok());
        }
        profile::restart(&mut self.laps);
        let totals = self.totals();
        let single = self.single_detail();
        profile::lap(&mut self.laps, Phase::Progress);
        FleetProgress {
            tick: self.tick.saturating_sub(1),
            nr_ticks: self.nr_ticks,
            now_ns: totals.now_ns,
            nr_processes: self.recipe.fleet.nr_processes,
            monitor_work_ns: totals.monitor_work_ns,
            swap_dram_bytes: totals.swap_dram_bytes,
            tenants: totals.tenants,
            single,
            profile: self.profile(),
        }
    }

    /// The laps so far as a [`WallProfile`] (`wall_ns` 0), when profiling.
    fn profile(&self) -> Option<WallProfile> {
        self.laps.map(|driver| WallProfile {
            wall_ns: 0,
            nr_workers: self.pool.as_ref().map_or(1, |p| p.nr_workers()),
            driver: driver.laps,
            shards: self.shard_laps,
        })
    }

    /// The lone process's monitoring state, when the fleet is one
    /// live process.
    fn single_detail(&mut self) -> Option<ProcessDetail> {
        let [Slot::Live(sh)] = self.slots.as_mut_slice() else { return None };
        let [g] = sh.groups.as_slice() else { return None };
        let [p] = g.procs.as_slice() else { return None };
        let now = sh.sys.now();
        let plane = g.plane.as_ref();
        Some(ProcessDetail {
            avg_rss: sh.sys.proc_stats(p.pid)?.avg_rss_bytes(now),
            last_window: plane.and_then(|pl| pl.last_window.clone()),
            scheme_stats: plane.map(Plane::scheme_stats).unwrap_or_default(),
            overhead: plane.map(|pl| pl.monitor.overhead()),
        })
    }

    /// Consume the engine: retire what is still live, then concatenate
    /// the per-process [`RunResult`]s (in global process order) and fold
    /// the fleet summary.
    pub fn finish(self) -> MmResult<(Vec<RunResult>, FleetSummary)> {
        self.finish_profiled().map(|(runs, summary, _)| (runs, summary))
    }

    /// [`finish`](Self::finish), plus the run's [`WallProfile`] (with
    /// `wall_ns` 0) when the engine was built profiling.
    pub(crate) fn finish_profiled(
        mut self,
    ) -> MmResult<(Vec<RunResult>, FleetSummary, Option<WallProfile>)> {
        self.advance_to(self.tick, true)?;
        let totals = self.totals();
        let fleet = &self.recipe.fleet;
        let mut runs = Vec::with_capacity(fleet.nr_processes);
        for slot in std::mem::take(&mut self.slots) {
            if let Slot::Retired(row) = slot {
                runs.extend(row.runs);
            }
        }
        let summary = FleetSummary {
            nr_processes: fleet.nr_processes,
            nr_shards: fleet.nr_shards(),
            nr_workers: self.pool.as_ref().map_or(1, |p| p.nr_workers()),
            nr_tenants: fleet.nr_tenants,
            ticks: self.tick,
            runtime_ns: totals.now_ns,
            total_avg_rss: runs.iter().map(|r| r.avg_rss).sum(),
            total_peak_rss: runs.iter().map(|r| r.peak_rss).sum(),
            monitor_work_ns: totals.monitor_work_ns,
            monitor_total_checks: totals.monitor_total_checks,
            effective_max_regions: fleet.effective_attrs(&self.recipe.config.attrs).max_nr_regions,
            steals: 0,
            tenants: totals.tenants,
        };
        let mut profile = self.profile();
        if let Some(profile) = &mut profile {
            profile::timed(&mut self.laps, Phase::Drop, || drop(self.pool.take()));
            profile.driver = self.laps.map_or_else(Laps::default, |w| w.laps);
        }
        Ok((runs, summary, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use daos_mm::clock::ms;
    use daos_workloads::{Behavior, Suite};

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

    /// The oracle fleet: 26 processes in shards of 4 (six full shards
    /// and a remainder shard of 2), three tenants, on a machine small
    /// enough that set-up itself swaps (so what a process loses depends
    /// on its position in the shard).
    fn oracle_fleet() -> (MachineProfile, FleetSpec) {
        let mut machine = MachineProfile::i3_metal();
        machine.dram_bytes = 7 << 20;
        (machine, FleetSpec::new(26).shard_size(4).tenants(3))
    }

    fn oracle_spec(behavior: Behavior, config: &RunConfig) -> WorkloadSpec {
        WorkloadSpec {
            name: "shape",
            suite: Suite::Fleet,
            footprint: 4 << 20,
            // khugepaged first runs after one virtual second.
            nr_epochs: if config.khugepaged { 230 } else { 60 },
            compute_ns: ms(5),
            behavior,
        }
    }

    /// A finished engine's results, without the worker count it was
    /// asked for — the one summary field that differs across pools.
    fn finish(engine: FleetEngine) -> (Vec<RunResult>, FleetSummary) {
        let (runs, mut summary) = engine.finish().unwrap();
        summary.nr_workers = 0;
        (runs, summary)
    }

    /// The engine keeps one slot per shard for the whole run, so a slot
    /// costs what its largest inline variant does: the live machine is
    /// boxed, and a slot stays near a retired row's size.
    #[test]
    fn a_slot_does_not_hold_a_shard_inline() {
        let slot = std::mem::size_of::<Slot>();
        assert!(slot <= 96, "a slot is {slot} bytes");
    }

    /// Stamping shards from one shared (frozen) image, and building a
    /// remainder's image in its slot, are only ways to build them faster:
    /// for every workload behaviour under every engine shape, a fleet
    /// whose shards were each built from an image of their own produces
    /// the same per-process results and the same summary — inline and
    /// over the pool, for the oracle fleet (six shards share one image,
    /// the remainder's slot builds its own) and for three shards (two
    /// share one, the third's slot builds its own).
    #[test]
    fn stamped_shards_equal_separately_built_ones() {
        let (machine, oracle) = oracle_fleet();
        let three = FleetSpec::new(10).shard_size(4).tenants(3);
        for behavior in behaviors() {
            for config in engine_shapes() {
                for fleet in [&oracle, &three] {
                    stamped_equals_separate(&machine, &config, behavior, fleet);
                }
            }
        }
    }

    fn stamped_equals_separate(
        machine: &MachineProfile,
        config: &RunConfig,
        behavior: Behavior,
        fleet: &FleetSpec,
    ) {
        let (spec, seed) = (oracle_spec(behavior, config), 77);
        let (kind, n) = (behavior.kind_name(), fleet.nr_processes);
        let what = format!("{kind} under {}, {n} processes", config.name);
        let shared = |workers: usize| {
            FleetEngine::new(machine, config, &spec, fleet.clone().workers(workers), seed).unwrap()
        };
        let mut separate = shared(1);
        separate.slots = (0..fleet.nr_shards())
            .map(|s| {
                let first = s * fleet.procs_per_shard;
                let len = fleet.procs_per_shard.min(fleet.nr_processes - first);
                let image = ShardImage::build(machine, config, &spec, len).unwrap();
                Slot::Pending(Arc::new(image))
            })
            .collect();
        separate.run(None).unwrap();
        let (runs, summary) = finish(separate);
        assert_eq!(runs.len(), n);
        assert!(runs.iter().any(|r| r.stats.swapouts > 0), "{what}: no memory pressure");
        for workers in [1, 2] {
            let mut stamped = shared(workers);
            stamped.run(None).unwrap();
            let (stamped_runs, stamped_summary) = finish(stamped);
            assert!(stamped_runs == runs, "{what}: results differ at workers({workers})");
            assert_eq!(stamped_summary, summary, "{what}: workers({workers})");
        }
    }

    /// What one shard writes stays its own: after a shard stamped from a
    /// frozen image has run and reclaimed (pressure reclaim consumes the
    /// shared LRU base; it and schemes free frames of shared slabs), the
    /// image and a sibling stamped from it still equal the same built
    /// afresh, and the shard equals one stamped from a fresh image and
    /// run alike.
    #[test]
    fn a_running_shard_leaves_its_frozen_image_alone() {
        let (machine, fleet) = oracle_fleet();
        for behavior in behaviors() {
            for config in engine_shapes() {
                let spec = oracle_spec(behavior, &config);
                let what = format!("{} under {}", behavior.kind_name(), config.name);
                let recipe = Recipe {
                    machine: machine.clone(),
                    config: config.clone(),
                    spec,
                    fleet: fleet.clone(),
                    seed: 5,
                };
                let fresh = || ShardImage::build(&machine, &config, &spec, 4).unwrap();
                let run = |mut shard: Shard| {
                    (0..spec.nr_epochs).for_each(|idx| shard.tick(idx, &mut None).unwrap());
                    shard
                };
                let mut frozen = fresh();
                frozen.sys.freeze();
                let image = Arc::new(frozen);
                let first = run(Shard::stamp((*image).clone(), &recipe, 0));
                let reclaims =
                    |sys: &MemorySystem| sys.kstats.pressure_reclaims + sys.kstats.damos_pageouts;
                assert!(reclaims(&first.sys) > reclaims(&image.sys), "{what}: no reclaim");
                assert!(image.sys == fresh().sys, "{what}: the image moved");
                let sibling = Shard::stamp((*image).clone(), &recipe, 1);
                assert!(sibling.sys == Shard::stamp(fresh(), &recipe, 1).sys, "{what}: sibling");
                assert!(first.sys == run(Shard::stamp(fresh(), &recipe, 0)).sys, "{what}: shard");
            }
        }
    }

    /// Only an image that several slots hold is frozen, page arrays
    /// included: a single run, a fleet of one shard per length and a
    /// remainder shard keep the owned layout, and several equal shards
    /// share.
    #[test]
    fn only_an_image_several_slots_hold_is_frozen() {
        let (machine, _) = oracle_fleet();
        let config = RunConfig::baseline();
        let spec = oracle_spec(behaviors()[0], &config);
        for (fleet, shares) in [
            (FleetSpec::new(1), vec![false]),
            (FleetSpec::new(6).shard_size(4), vec![false; 2]),
            (FleetSpec::new(12).shard_size(4), vec![true; 3]),
            (FleetSpec::new(10).shard_size(4), vec![true, true, false]),
        ] {
            let what = format!("{} in shards of {}", fleet.nr_processes, fleet.procs_per_shard);
            let mut engine = FleetEngine::new(&machine, &config, &spec, fleet, 1).unwrap();
            engine.progress();
            let shared: Vec<(bool, bool)> = engine
                .slots
                .iter()
                .map(|slot| match slot {
                    Slot::Live(shard) => (shard.sys.is_shared(), shard.sys.shares_page_arrays()),
                    _ => panic!("{what}: progress stamps every slot"),
                })
                .collect();
            let expected: Vec<(bool, bool)> = shares.iter().map(|&s| (s, s)).collect();
            assert_eq!(shared, expected, "{what}: (shared, page arrays shared) per shard");
        }
    }

    /// A fleet with a remainder builds one image in `FleetEngine::new`,
    /// which every full shard holds, and the remainder's slot builds its
    /// own when it first advances: two `build` laps in all, inline and
    /// over the pool, and as many `stamp` laps as shards.
    #[test]
    fn a_remainder_shard_builds_its_own_image_in_its_slot() {
        let (machine, _) = oracle_fleet();
        let config = RunConfig::baseline();
        let spec = oracle_spec(behaviors()[0], &config);
        for workers in [1, 2] {
            let fleet = FleetSpec::new(10).shard_size(4).workers(workers);
            let engine = FleetEngine::build(&machine, &config, &spec, fleet, 1, true).unwrap();
            let built = engine.profile().map(|p| p.calls(Phase::Build));
            assert_eq!(built, Some(1), "workers({workers}): one image in new");
            let [Slot::Pending(a), Slot::Pending(b), Slot::Unbuilt(2)] = engine.slots.as_slice()
            else {
                panic!("workers({workers}): two shards on the image, the remainder unbuilt")
            };
            assert!(Arc::ptr_eq(a, b), "workers({workers}): one image");
            let (runs, _, profile) = engine.finish_profiled().unwrap();
            assert_eq!(runs.len(), 10);
            let profile = profile.unwrap();
            assert_eq!(profile.calls(Phase::Build), 2, "workers({workers})");
            assert_eq!(profile.calls(Phase::Stamp), 3, "workers({workers})");
        }
    }

    /// A caller-installed collector sees a length's set-up where its
    /// image is built. `FleetEngine::new` builds the full length's only,
    /// so a fleet with a remainder traces what one without does. A pooled
    /// first tick adds nothing, the remainder's build included (pool
    /// tasks run untraced); an inline one traces the full shards' tick,
    /// then the remainder's set-up — what a fleet of just the remainder
    /// traces in `new` (it swaps: 2 × 4 MiB on 7 MiB of DRAM) — then the
    /// remainder's tick.
    #[test]
    fn a_collector_sees_the_remainders_set_up_only_inline() {
        let (machine, _) = oracle_fleet();
        let config = RunConfig::baseline();
        let spec = oracle_spec(behaviors()[0], &config);
        // The exported events, without the export's header line.
        let traced = |nr: usize, workers: usize, ticks: u64| {
            daos_trace::install(daos_trace::Collector::builder().build().unwrap()).unwrap();
            let fleet = FleetSpec::new(nr).shard_size(4).workers(workers);
            let mut engine = FleetEngine::new(&machine, &config, &spec, fleet, 1).unwrap();
            (0..ticks).for_each(|_| engine.tick().unwrap());
            let export = daos_trace::export_collector(&daos_trace::take().unwrap());
            export.lines().filter(|l| !l.starts_with('#')).map(str::to_owned).collect::<Vec<_>>()
        };
        for workers in [1, 2] {
            let built = traced(8, workers, 0);
            assert!(!built.is_empty(), "workers({workers}): the full image's set-up swaps");
            assert_eq!(traced(10, workers, 0), built, "workers({workers}): one image in new");
        }
        assert_eq!(traced(10, 2, 1), traced(8, 2, 0), "a pooled tick is untraced");
        let remainder = traced(2, 1, 0);
        assert!(!remainder.is_empty());
        let inline = traced(10, 1, 1);
        let full_shards = traced(8, 1, 1);
        let in_order = [&full_shards[..], &remainder[..]].concat();
        assert!(inline.starts_with(&in_order), "inline order");
        assert!(inline.len() > full_shards.len() + remainder.len(), "the remainder's tick");
    }

    /// What an observer is shown, minus `single` (a fleet has none).
    type Seen = (u64, Ns, Ns, u64, Vec<TenantStats>);

    fn seen(p: &FleetProgress) -> Seen {
        let tenants = p.tenants.clone();
        (p.tick, p.now_ns, p.monitor_work_ns, p.swap_dram_bytes, tenants)
    }

    /// Due every `every`-th tick and the last one (the obs publisher's
    /// rule; `every == 0` is never due), recording what it is shown and
    /// how often it is asked.
    struct Recording {
        every: u64,
        seen: Vec<Seen>,
        asked: std::cell::Cell<u64>,
    }

    impl Recording {
        fn every(every: u64) -> Recording {
            Recording { every, seen: Vec::new(), asked: std::cell::Cell::new(0) }
        }

        fn wants(&self, tick: u64, nr_ticks: u64) -> bool {
            self.every != 0 && (tick % self.every == 0 || tick + 1 == nr_ticks)
        }
    }

    impl FleetObserver for Recording {
        fn due(&self, tick: u64, nr_ticks: u64) -> bool {
            self.asked.set(self.asked.get() + 1);
            self.wants(tick, nr_ticks)
        }

        fn on_tick(&mut self, p: &FleetProgress) {
            assert!(self.wants(p.tick, p.nr_ticks), "shown tick {} without being due", p.tick);
            self.seen.push(seen(p));
        }
    }

    /// The schedule is not observable. Tick-major — every shard live,
    /// `tick()` by hand, `progress()` after each — is the reference; for
    /// every workload behaviour under every engine shape, inline and
    /// over the pool, `run` without an observer (one span, shards retire
    /// as they finish) and with one due every tick, every 7th and the
    /// last, or never must produce the same results and summary, show
    /// the observer exactly what the reference reported at those ticks,
    /// and leave `progress()` reporting the reference's final state.
    #[test]
    fn shard_major_equals_tick_major() {
        let (machine, fleet) = oracle_fleet();
        let seed = 77;
        for behavior in behaviors() {
            for config in engine_shapes() {
                let spec = oracle_spec(behavior, &config);
                let nr_ticks = spec.nr_epochs;
                for workers in [1, 2, 8] {
                    let (kind, name) = (behavior.kind_name(), &config.name);
                    let what = format!("{kind} under {name} at workers({workers})");
                    let engine = || {
                        let fleet = fleet.clone().workers(workers);
                        FleetEngine::new(&machine, &config, &spec, fleet, seed).unwrap()
                    };
                    let mut by_hand = engine();
                    let reference: Vec<Seen> = (0..nr_ticks)
                        .map(|_| {
                            by_hand.tick().unwrap();
                            seen(&by_hand.progress())
                        })
                        .collect();
                    let expected = finish(by_hand);
                    assert!(expected.0.iter().any(|r| r.stats.swapouts > 0), "{what}: no pressure");
                    for every in [None, Some(1), Some(7), Some(0)] {
                        let mut obs = every.map(Recording::every);
                        let mut engine = engine();
                        engine.run(obs.as_mut().map(|o| o as &mut dyn FleetObserver)).unwrap();
                        let last = seen(&engine.progress());
                        assert_eq!(Some(&last), reference.last(), "{what}, {every:?}: final state");
                        assert!(finish(engine) == expected, "{what}, {every:?}: results differ");
                        if let Some(obs) = obs {
                            let due: Vec<Seen> = reference
                                .iter()
                                .filter(|r| obs.wants(r.0, nr_ticks))
                                .cloned()
                                .collect();
                            assert!(obs.seen == due, "{what}, {every:?}: the observer's view");
                        }
                    }
                }
            }
        }
    }

    /// `due` is asked ahead of time — about ticks that have not run, and
    /// more than once — while `on_tick` is called exactly once per due
    /// tick, in order, with that tick's progress.
    #[test]
    fn observer_is_shown_each_due_tick_exactly_once() {
        let (machine, fleet) = oracle_fleet();
        let config = RunConfig::baseline();
        let spec = oracle_spec(behaviors()[0], &config);
        let nr_ticks = spec.nr_epochs;
        for publish_every in [1, 7, nr_ticks + 1] {
            let mut obs = Recording::every(publish_every);
            Session::new(&machine, &config, &spec)
                .fleet(fleet.clone().workers(2))
                .fleet_observer(&mut obs)
                .execute()
                .unwrap();
            let due: Vec<u64> = (0..nr_ticks).filter(|&t| obs.wants(t, nr_ticks)).collect();
            let shown: Vec<u64> = obs.seen.iter().map(|s| s.0).collect();
            assert_eq!(shown, due, "publish_every {publish_every}");
            assert!(obs.asked.get() >= nr_ticks, "every tick is asked about, some twice");
        }
    }

    /// A shard whose set-up cannot fit fails the build with the
    /// substrate's own error, inline and with a pool already spawned
    /// (which is joined, not left hanging).
    #[test]
    fn set_up_that_cannot_fit_is_out_of_memory() {
        let (machine, fleet) = oracle_fleet();
        let mut config = RunConfig::baseline();
        config.swap = daos_mm::swap::SwapConfig::None;
        let spec = oracle_spec(behaviors()[0], &config);
        for workers in [1, 2] {
            let fleet = fleet.clone().workers(workers);
            let built = FleetEngine::new(&machine, &config, &spec, fleet, 1);
            assert_eq!(built.err(), Some(MmError::OutOfMemory), "workers({workers})");
        }
    }

    /// An error inside one shard's span fails the run with that error,
    /// and every slot still comes home: the failing shard live, the rest
    /// retired (they had no due tick left), the engine droppable.
    #[test]
    fn a_failing_shard_fails_the_run_and_every_slot_comes_home() {
        let (machine, fleet) = oracle_fleet();
        let config = RunConfig::baseline();
        let spec = oracle_spec(behaviors()[0], &config);
        for workers in [1, 2] {
            let spec_w = fleet.clone().workers(workers);
            let mut engine = FleetEngine::new(&machine, &config, &spec, spec_w, 1).unwrap();
            engine.tick().unwrap();
            let middle = fleet.nr_shards() / 2;
            let Slot::Live(shard) = &mut engine.slots[middle] else { panic!("ticked: live") };
            // A process this shard's machine never spawned.
            shard.groups[0].procs[0].pid = 4096;
            assert_eq!(engine.run(None), Err(MmError::NoSuchProcess(4096)), "workers({workers})");
            assert_eq!(engine.slots.len(), fleet.nr_shards());
            for (s, slot) in engine.slots.iter().enumerate() {
                match slot {
                    Slot::Live(_) => assert_eq!(s, middle, "only the failing shard stays live"),
                    Slot::Retired(_) => assert_ne!(s, middle),
                    Slot::Unbuilt(_) | Slot::Pending(_) => panic!("shard {s} never ran"),
                }
            }
            drop(engine);
        }
    }
}
