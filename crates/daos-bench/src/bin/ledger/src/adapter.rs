//! The one file of the ledger that names the repository's types and
//! functions. Everything else sees [`Input`], [`Outcome`] and the spans
//! and counts this file records — so when the repository's run API is
//! unified (ROADMAP item 2) the benchmark needs this file amended, not a
//! rewrite.
//!
//! Two ways through every workload: [`run`] goes through the doors a
//! user goes through (`Session`, `par_map`, `FleetPublisher`, `ObsServer`)
//! and is what the end-to-end metrics time; [`run_traced`] re-composes the
//! same work from the layers' public functions with a span around each
//! call, and must end in the same [`Outcome::digest`].

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use daos::{
    FleetEngine, FleetObserver, FleetSpec, MonitorKind, Normalized, RunConfig, RunResult, Session,
};
use daos_mm::clock::{sec, Ns};
use daos_mm::{MachineProfile, MemorySystem, MmError, MmResult, Pid, ProcStats, SwapConfig};
use daos_monitor::{
    Aggregation, MonitorCtx, MonitorRecord, PaddrPrimitives, Primitives, VaddrPrimitives,
};
use daos_obs::{Endpoint, FleetPublisher, HttpClient, ObsConfig, ObsServer, Publisher};
use daos_schemes::{parse_scheme_line, SchemeTarget, SchemesEngine};
use daos_tuner::{tune, ScorePattern, TunerConfig};
use daos_util::json::ToJson;
pub use daos_util::json::{parse as parse_json, Json};
use daos_util::pool::par_map;
use daos_workloads::{by_path, instantiate, FleetConfig, Workload, WorkloadSpec};

use crate::host;
use crate::lanes;
use crate::span::Tracer;
use crate::stats::Fnv;

/// One process under one configuration.
#[derive(Clone)]
pub struct SingleInput {
    machine: MachineProfile,
    config: RunConfig,
    spec: WorkloadSpec,
    seed: u64,
}

/// `daos fleet` with its defaults: the `fleet-prcl` physical-address
/// configuration over zram, shards of 32, four tenants.
pub struct FleetInput {
    machine: MachineProfile,
    config: RunConfig,
    spec: WorkloadSpec,
    fleet: FleetSpec,
    seed: u64,
    served: bool,
}

/// The generated inputs of one workload — all the program ever receives.
pub enum Input {
    Single(SingleInput),
    Grid(Vec<SingleInput>),
    Fleet(FleetInput),
}

fn named_config(name: &str) -> Result<RunConfig, String> {
    RunConfig::paper_configs()
        .into_iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("no paper configuration named '{name}'"))
}

fn suite_spec(path: &str) -> Result<WorkloadSpec, String> {
    by_path(path).ok_or_else(|| format!("no suite workload named '{path}'"))
}

impl Input {
    pub fn single(workload: &str, config: &str, seed: u64) -> Result<Input, String> {
        Ok(Input::Single(SingleInput {
            machine: MachineProfile::i3_metal(),
            config: named_config(config)?,
            spec: suite_spec(workload)?,
            seed,
        }))
    }

    /// Every workload under each of the six paper configurations, in
    /// Fig. 7's order.
    pub fn grid(workloads: &[&str], seed: u64) -> Result<Input, String> {
        let mut cells = Vec::new();
        for path in workloads {
            let spec = suite_spec(path)?;
            for config in RunConfig::paper_configs() {
                cells.push(SingleInput { machine: MachineProfile::i3_metal(), config, spec, seed });
            }
        }
        Ok(Input::Grid(cells))
    }

    pub fn fleet(
        processes: usize,
        epochs: u64,
        workers: usize,
        served: bool,
        seed: u64,
    ) -> Result<Input, String> {
        let scheme =
            parse_scheme_line("min max min min 30s max pageout").map_err(|e| e.to_string())?;
        let config = RunConfig::builder("fleet-prcl")
            .monitor(MonitorKind::Paddr)
            .scheme(scheme)
            .swap(SwapConfig::Zram { capacity_bytes: 256 << 20, compression_ratio: 9.0 })
            .build()
            .map_err(|e| e.to_string())?;
        Ok(Input::Fleet(FleetInput {
            machine: MachineProfile::i3_metal(),
            config,
            spec: FleetConfig::default().worker_spec(epochs),
            fleet: FleetSpec::new(processes).shard_size(32).workers(workers).tenants(4),
            seed,
            served,
        }))
    }

    /// Simulated processes × epochs one run steps through.
    pub fn proc_epochs(&self) -> f64 {
        match self {
            Input::Single(i) => i.spec.nr_epochs as f64,
            Input::Grid(cells) => cells.iter().map(|c| c.spec.nr_epochs as f64).sum(),
            Input::Fleet(f) => f.fleet.nr_processes as f64 * f.spec.nr_epochs as f64,
        }
    }

    pub fn processes(&self) -> f64 {
        match self {
            Input::Single(_) => 1.0,
            Input::Grid(cells) => cells.len() as f64,
            Input::Fleet(f) => f.fleet.nr_processes as f64,
        }
    }
}

/// Client-side log of one served run's scraper.
#[derive(Default)]
pub struct Scrapes {
    /// Latency of each good request, per endpoint of `SCRAPES`.
    pub latencies_ns: [Vec<u64>; 3],
    pub attempted: u64,
    /// Non-200, timed out, unparsable — or, once, a client-side request
    /// count that disagrees with the server's.
    pub failed: u64,
    spans: Vec<(usize, Instant, Instant)>,
}

/// What one run produced. Dropping it is part of the run's wall time.
pub struct Outcome {
    runs: Vec<RunResult>,
    pub scrapes: Option<Scrapes>,
}

/// Mean absolute error, in percentage points, against the paper's four
/// single-cell headline numbers.
const PAPER_FREQMINE_PRCL_SAVING: f64 = 91.3;
const PAPER_FREQMINE_PRCL_SLOWDOWN: f64 = 0.9;
const PAPER_OCEAN_ETHP_GAIN_KEPT: f64 = 46.0;
const PAPER_OCEAN_ETHP_BLOAT_REMOVED: f64 = 80.0;

impl Outcome {
    /// Σ over processes of simulated runtime, seconds.
    pub fn sim_s(&self) -> f64 {
        self.runs.iter().map(|r| r.runtime_ns as f64).sum::<f64>() / 1e9
    }

    /// FNV-1a over the canonical rendering of every process's simulated
    /// results. Equal digests mean the runs simulated identically.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for r in &self.runs {
            let overhead = r.overhead.map(|o| o.to_json().to_string_compact());
            let schemes: Vec<String> =
                r.scheme_stats.iter().map(|s| s.to_json().to_string_compact()).collect();
            let line = format!(
                "{} {} {}|{} {} {}|{}|{}|{:?}|{:?}|{:?}\n",
                r.workload,
                r.config,
                r.machine,
                r.runtime_ns,
                r.avg_rss,
                r.peak_rss,
                r.stats.to_json().to_string_compact(),
                r.kstats.to_json().to_string_compact(),
                overhead,
                schemes,
                r.record.as_ref().map(MonitorRecord::len),
            );
            h.write(line.as_bytes());
        }
        h.finish()
    }

    fn cell(&self, workload: &str, config: &str) -> Option<&RunResult> {
        self.runs.iter().find(|r| r.workload == workload && r.config == config)
    }

    /// `None` unless the outcome holds the freqmine and ocean_ncp cells.
    pub fn paper_err_pp(&self) -> Option<f64> {
        let cell = |w, c| self.cell(w, c);
        let prcl = Normalized::of(
            cell("parsec3/freqmine", "baseline")?,
            cell("parsec3/freqmine", "prcl")?,
        );
        let base = cell("splash2x/ocean_ncp", "baseline")?;
        let thp = Normalized::of(base, cell("splash2x/ocean_ncp", "thp")?);
        let ethp = Normalized::of(base, cell("splash2x/ocean_ncp", "ethp")?);
        let gain = |n: &Normalized| n.performance - 1.0;
        let bloat = |n: &Normalized| 1.0 / n.memory_efficiency - 1.0;
        let gain_kept = 100.0 * gain(&ethp) / gain(&thp).max(1e-9);
        let bloat_removed = 100.0 * (1.0 - bloat(&ethp) / bloat(&thp).max(1e-9));
        let errs = [
            prcl.memory_saving_pct() - PAPER_FREQMINE_PRCL_SAVING,
            prcl.slowdown_pct() - PAPER_FREQMINE_PRCL_SLOWDOWN,
            gain_kept - PAPER_OCEAN_ETHP_GAIN_KEPT,
            bloat_removed - PAPER_OCEAN_ETHP_BLOAT_REMOVED,
        ];
        Some(errs.iter().map(|e| e.abs()).sum::<f64>() / errs.len() as f64)
    }

    /// Simulated work counts, summed over processes. They repeat exactly
    /// per seed and must not move under a speed-only change.
    fn record_counts(&self, tr: &mut Tracer) {
        for r in &self.runs {
            tr.count("mm.major_faults", r.stats.major_faults as f64);
            tr.count("mm.swapouts", r.stats.swapouts as f64);
            tr.count("mm.thp_promotions", r.stats.thp_promotions as f64);
            if let Some(o) = r.overhead {
                tr.count("monitor.checks", o.total_checks as f64);
                tr.count("monitor.windows", o.nr_aggregations as f64);
                tr.count("monitor.sim_work_ms", o.work_ns as f64 / 1e6);
            }
            for s in &r.scheme_stats {
                tr.count("schemes.regions_tried", s.nr_tried as f64);
                tr.count("schemes.regions_applied", s.nr_applied as f64);
                tr.count("schemes.bytes_applied", s.sz_applied as f64);
                tr.count("schemes.quota_skips", s.nr_quota_skips as f64);
            }
        }
        if let Some(err) = self.paper_err_pp() {
            tr.count("grid.paper_err_pp", err);
        }
    }
}

fn session(i: &SingleInput) -> Result<RunResult, String> {
    Session::new(&i.machine, &i.config, &i.spec)
        .seed(i.seed)
        .execute()
        .map(|r| r.into_single())
        .map_err(|e| e.to_string())
}

/// One full run through the user's entry points, untraced.
pub fn run(input: &Input) -> Result<Outcome, String> {
    match input {
        Input::Single(i) => Ok(Outcome { runs: vec![session(i)?], scrapes: None }),
        Input::Grid(cells) => {
            let runs = par_map(cells.iter().collect(), session);
            Ok(Outcome { runs: runs.into_iter().collect::<Result<_, _>>()?, scrapes: None })
        }
        Input::Fleet(f) if !f.served => {
            let result = Session::new(&f.machine, &f.config, &f.spec)
                .seed(f.seed)
                .fleet(f.fleet.clone())
                .execute()
                .map_err(|e| e.to_string())?;
            Ok(Outcome { runs: result.runs, scrapes: None })
        }
        Input::Fleet(f) => run_served(f, None),
    }
}

/// The same run with a span around every call into a layer.
pub fn run_traced(input: &Input, tr: &mut Tracer) -> Result<Outcome, String> {
    tr.peak("host.threads_max", host::threads_now());
    let outcome = match input {
        Input::Single(i) => {
            let run = composed(i, tr).map_err(|e| e.to_string())?;
            Outcome { runs: vec![run], scrapes: None }
        }
        Input::Grid(cells) => {
            let par = tr.enter("pool.par_map");
            let proto = &*tr;
            let done = par_map(cells.iter().collect(), |cell: &SingleInput| {
                let mut local = proto.child();
                let job = local.enter(lanes::cell_span(&cell.config.name));
                let threads = host::threads_now();
                let run = composed(cell, &mut local);
                local.exit(job);
                (run, local, threads)
            });
            let mut runs = Vec::new();
            for (run, local, threads) in done {
                tr.absorb(local);
                tr.peak("host.threads_max", threads);
                runs.push(run.map_err(|e| e.to_string())?);
            }
            tr.exit(par);
            Outcome { runs, scrapes: None }
        }
        Input::Fleet(f) if !f.served => Outcome { runs: fleet_traced(f, tr, None)?, scrapes: None },
        Input::Fleet(f) => run_served(f, Some(tr))?,
    };
    outcome.record_counts(tr);
    Ok(outcome)
}

fn stats_of(sys: &mut MemorySystem, pid: Pid) -> MmResult<&mut ProcStats> {
    sys.proc_stats_mut(pid).ok_or(MmError::NoSuchProcess(pid))
}

/// `execute_single`'s epoch loop, re-composed from public calls only.
fn composed(i: &SingleInput, tr: &mut Tracer) -> MmResult<RunResult> {
    match i.config.monitor {
        None => composed_with(i, None::<fn(Pid) -> VaddrPrimitives>, tr),
        Some(MonitorKind::Vaddr) => composed_with(i, Some(VaddrPrimitives::new), tr),
        Some(MonitorKind::Paddr) => composed_with(i, Some(|_: Pid| PaddrPrimitives), tr),
    }
}

fn composed_with<P: Primitives<Env = MemorySystem>>(
    i: &SingleInput,
    primitives: Option<impl FnOnce(Pid) -> P>,
    tr: &mut Tracer,
) -> MmResult<RunResult> {
    const KHUGEPAGED_INTERVAL: Ns = sec(1);
    let (config, seed) = (&i.config, i.seed);
    let run = tr.enter("run");

    let setup = tr.enter("setup");
    let mut sys = tr.span("mm.new", || MemorySystem::new(i.machine.clone(), config.swap, seed));
    let mut wl = instantiate(i.spec, seed);
    let pid = tr.span("workloads.setup", || wl.setup(&mut sys, config.thp))?;
    let mut monitor = tr.span("monitor.new", || {
        primitives.map(|p| MonitorCtx::new(config.attrs, p(pid), &sys, sys.now(), seed ^ 0xda05))
    });
    let mut engine = (!config.schemes.is_empty()).then(|| {
        let target = match config.monitor {
            Some(MonitorKind::Paddr) => SchemeTarget::Physical,
            _ => SchemeTarget::Virtual(pid),
        };
        SchemesEngine::new(target, config.schemes.clone())
    });
    tr.exit(setup);

    let mut record = config.record.then(MonitorRecord::new);
    let mut sink: Vec<Aggregation> = Vec::new();
    let mut batches = Vec::new();
    let mut next_khugepaged = KHUGEPAGED_INTERVAL;
    let cpu_scale = 3.0 / i.machine.cpu_ghz;
    let nr_epochs = wl.nr_epochs();
    let mut nr_batches = 0u64;

    let mut t = Instant::now();
    for idx in 0..nr_epochs {
        batches.clear();
        let compute_ref = wl.epoch(idx, sys.now(), &mut batches);
        t = tr.fold_since("workloads.epoch", t);

        let compute = (compute_ref as f64 * cpu_scale) as Ns;
        let mut cost = compute;
        for b in &batches {
            cost += sys.apply_access(pid, b)?.cost_ns;
        }
        nr_batches += batches.len() as u64;
        t = tr.fold_since("mm.apply_access", t);
        stats_of(&mut sys, pid)?.compute_ns += compute;
        sys.advance(cost);

        if let Some(mon) = &mut monitor {
            t = tr.fold_since("mm.advance", t);
            let now = sys.now();
            mon.step(&mut sys, now, &mut sink);
            t = tr.fold_since("monitor.step", t);
            let interference = sys.charge_monitor(mon.take_work_ns());
            if interference > 0 {
                stats_of(&mut sys, pid)?.monitor_interference_ns += interference;
                sys.advance(interference);
            }
            for agg in sink.drain(..) {
                if let Some(engine) = &mut engine {
                    t = tr.fold_since("mm.advance", t);
                    let pass = engine.on_aggregation(&mut sys, &agg);
                    t = tr.fold_since("schemes.apply", t);
                    let interference = sys.charge_schemes(pass.work_ns);
                    if interference > 0 {
                        stats_of(&mut sys, pid)?.monitor_interference_ns += interference;
                        sys.advance(interference);
                    }
                }
                if let Some(rec) = &mut record {
                    rec.push(agg);
                }
            }
        }

        if config.khugepaged && sys.now() >= next_khugepaged {
            t = tr.fold_since("mm.advance", t);
            let (_, ns) = sys.khugepaged_scan(pid, 1)?;
            t = tr.fold_since("mm.khugepaged", t);
            let interference = sys.charge_schemes(ns);
            stats_of(&mut sys, pid)?.stall_ns += interference;
            sys.advance(interference);
            next_khugepaged = sys.now() + KHUGEPAGED_INTERVAL;
        }
        t = tr.fold_since("mm.advance", t);
    }

    let runtime_ns = sys.now();
    let stats = *sys.proc_stats(pid).ok_or(MmError::NoSuchProcess(pid))?;
    let result = RunResult {
        config: config.name.clone(),
        workload: wl.name(),
        machine: i.machine.name.clone(),
        runtime_ns,
        avg_rss: stats.avg_rss_bytes(runtime_ns),
        peak_rss: stats.peak_rss_bytes,
        stats,
        kstats: sys.kstats,
        record,
        overhead: monitor.as_ref().map(|m| m.overhead),
        scheme_stats: engine.map(|e| e.stats().to_vec()).unwrap_or_default(),
    };
    tr.span("mm.drop", || drop((sys, wl, monitor)));
    tr.exit(run);
    tr.count("workloads.epochs", nr_epochs as f64);
    tr.count("workloads.batches", nr_batches as f64);
    Ok(result)
}

/// The fleet engine driven phase by phase. A fleet tick cannot be split
/// by layer from outside the engine, so the spans stop at the tick.
fn fleet_traced(
    f: &FleetInput,
    tr: &mut Tracer,
    mut observer: Option<&mut FleetPublisher>,
) -> Result<Vec<RunResult>, String> {
    let run = tr.enter("run");
    let mut engine = tr
        .span("fleet.build", || {
            FleetEngine::new(&f.machine, &f.config, &f.spec, f.fleet.clone(), f.seed)
        })
        .map_err(|e| e.to_string())?;
    tr.peak("host.threads_max", host::threads_now());
    for _ in 0..engine.nr_ticks() {
        tr.span("fleet.tick", || engine.tick()).map_err(|e| e.to_string())?;
        if let Some(obs) = observer.as_deref_mut() {
            let progress = tr.span("fleet.progress", || engine.progress());
            tr.span("obs.on_tick", || obs.on_tick(&progress));
        }
    }
    let (runs, summary) = tr.span("fleet.finish", || engine.finish()).map_err(|e| e.to_string())?;
    if let Some(obs) = observer {
        tr.span("obs.finalize", || obs.finalize(&summary));
    }
    tr.count("fleet.steals", summary.steals as f64);
    tr.exit(run);
    Ok(runs)
}

/// What the scraper cycles through on its one keep-alive connection,
/// with [`SCRAPE_THINK`] between requests: (path, the server's counter
/// for it, the span a good request is recorded as).
const SCRAPES: [(&str, Endpoint, &str); 3] = [
    ("/metrics", Endpoint::Metrics, "obs.scrape.metrics"),
    ("/snapshot", Endpoint::Snapshot, "obs.scrape.snapshot"),
    ("/query?metric=daos_fleet_nr_processes", Endpoint::Query, "obs.scrape.query"),
];
const SCRAPE_THINK: Duration = Duration::from_millis(2);
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

fn body_parses(endpoint: usize, body: &str) -> bool {
    match endpoint {
        0 => daos_obs::prom::parse_exposition(body).is_ok(),
        _ => parse_json(body).is_ok(),
    }
}

/// Closed-loop scraper: the next request goes out `SCRAPE_THINK` after
/// the previous answer was parsed. Starts once the first snapshot is
/// published (before that `/query` has no such metric yet).
fn scrape(addr: SocketAddr, publisher: &Publisher, stop: &AtomicBool) -> Scrapes {
    let mut log = Scrapes::default();
    // ordering: Relaxed — the flag publishes no data; the scope's join
    // orders everything the scraper wrote before the driver reads it.
    let stopped = || stop.load(Ordering::Relaxed);
    while publisher.snapshot().seq == 0 && !stopped() {
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut client = None;
    'scraping: loop {
        for (i, (path, ..)) in SCRAPES.iter().enumerate() {
            if stopped() {
                break 'scraping;
            }
            if client.is_none() {
                client = HttpClient::connect(addr, SCRAPE_TIMEOUT).ok();
            }
            let start = Instant::now();
            let answer = client.as_mut().map(|c| c.get(path));
            let end = Instant::now();
            log.attempted += 1;
            match answer {
                Some(Ok(resp)) if resp.status == 200 && body_parses(i, &resp.body) => {
                    log.latencies_ns[i].push((end - start).as_nanos() as u64);
                    log.spans.push((i, start, end));
                }
                _ => {
                    log.failed += 1;
                    client = None;
                }
            }
            std::thread::sleep(SCRAPE_THINK);
        }
    }
    log
}

/// `daos fleet --serve`: server bound, publisher attached to every tick,
/// one scraper reading beside the writes, then finalize and shutdown.
/// With a tracer the engine is driven phase by phase instead of through
/// `Session`.
fn run_served(f: &FleetInput, mut tr: Option<&mut Tracer>) -> Result<Outcome, String> {
    let publisher = Publisher::new();
    let bind_start = Instant::now();
    let mut server = ObsServer::bind_with(
        "127.0.0.1:0",
        publisher.clone(),
        ObsConfig { workers: 2, ..ObsConfig::default() },
    )
    .map_err(|e| format!("bind: {e}"))?;
    if let Some(tr) = tr.as_deref_mut() {
        tr.record("obs.bind", bind_start, Instant::now());
    }
    let addr = server.addr();
    let mut obs = FleetPublisher::new(
        publisher.clone(),
        &f.config.name,
        &f.spec.path_name(),
        &f.machine.name,
        1,
    );
    let stop = AtomicBool::new(false);
    let (runs, scrapes) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| scrape(addr, &publisher, &stop));
        let runs = match tr.as_deref_mut() {
            Some(tr) => fleet_traced(f, tr, Some(&mut obs)),
            None => Session::new(&f.machine, &f.config, &f.spec)
                .seed(f.seed)
                .fleet(f.fleet.clone())
                .fleet_observer(&mut obs)
                .execute()
                .map_err(|e| e.to_string())
                .map(|result| {
                    if let Some(summary) = &result.fleet {
                        obs.finalize(summary);
                    }
                    result.runs
                }),
        };
        // ordering: Relaxed — see `scrape`; the join below synchronizes.
        stop.store(true, Ordering::Relaxed);
        let scrapes = scraper.join().map_err(|_| "scraper panicked".to_string());
        (runs, scrapes)
    });
    let runs = runs?;
    let mut scrapes = scrapes?;

    // The server's own count must agree with what the client sent.
    let served: u64 = SCRAPES.iter().map(|&(_, ep, _)| server.requests_total(ep)).sum();
    if served != scrapes.attempted {
        scrapes.failed += 1;
        eprintln!("ledger: client sent {} requests, server counted {served}", scrapes.attempted);
    }
    if let Some(tr) = tr {
        for (endpoint, start, end) in std::mem::take(&mut scrapes.spans) {
            tr.record(SCRAPES[endpoint].2, start, end);
        }
        tr.count("obs.requests", scrapes.attempted as f64);
        tr.count("obs.failed_requests", scrapes.failed as f64);
        let snap = publisher.snapshot();
        let text = tr.span("obs.render_metrics", || {
            daos_obs::prom::render_with(&snap, Some(&server.telemetry()))
        });
        tr.count("obs.metrics_bytes", text.len() as f64);
        tr.count("obs.publishes", snap.seq as f64);
        tr.count("obs.rejected_503", server.rejected_total() as f64);
        tr.span("obs.shutdown", || server.shutdown());
    } else {
        server.shutdown();
    }
    Ok(Outcome { runs, scrapes: Some(scrapes) })
}

/// The `daos-trace` lanes: one `Session` run with a collector installed,
/// then its export and re-parse.
pub fn trace_pass(input: &Input, tr: &mut Tracer) -> Result<(), String> {
    let Input::Single(i) = input else {
        return Ok(());
    };
    let collector = daos_trace::Collector::builder().build().map_err(|e| e.to_string())?;
    daos_trace::install(collector).map_err(|e| e.to_string())?;
    let run = tr.span("trace.session_on", || session(i));
    let collector = daos_trace::take().ok_or("collector vanished")?;
    run?;
    tr.count("trace.events", collector.ring().total_pushed() as f64);
    tr.count("trace.dropped", collector.ring().dropped() as f64);
    let jsonl = tr.span("trace.export", || daos_trace::export_collector(&collector));
    tr.count("trace.export_mib", jsonl.len() as f64 / (1 << 20) as f64);
    tr.span("trace.parse", || daos_trace::parse_export(&jsonl)).map_err(|e| e.to_string())?;
    Ok(())
}

/// The `daos-tuner` lane: `tune()` over a closed-form score curve, so
/// only the tuner's own sampling and curve fitting are timed.
pub fn tuner_pass(seed: u64, tr: &mut Tracer) {
    let cfg =
        TunerConfig { time_limit: sec(600), unit_work_time: sec(10), range: (0.0, 60.0), seed };
    let mut evals = 0u64;
    let result = tr.span("tuner.tune", || {
        tune(&cfg, |x| {
            evals += 1;
            ScorePattern::RiseFallAbove.canonical(x / 60.0)
        })
    });
    std::hint::black_box(result);
    tr.count("tuner.evals", evals as f64);
}
