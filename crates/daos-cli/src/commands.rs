//! Subcommand implementations. Every subcommand that runs a workload —
//! `run`, `trace`, `record`, `schemes`, `fleet` and `top <workload>` —
//! resolves its inputs once into a `Launch` and hands it to
//! `execute`, the one place that installs a trace collector, binds
//! `--serve`, attaches a publisher and runs the [`Session`].

use std::fs;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use daos::{
    biggest_active_span, score_vs_baseline, tune_prcl, DaosError, FleetSpec, Heatmap, Normalized,
    RunConfig, RunResult, Session, SessionResult, TunedPrcl, WallProfile,
};
use daos_mm::clock::sec;
use daos_mm::{MachineProfile, SwapConfig};
use daos_monitor::MonitorRecord;
use daos_obs::{Dashboard, FleetPublisher, ObsServer, ObsSnapshot, Publisher};
use daos_schemes::{parse_scheme_line, parse_schemes};
use daos_trace::{Collector, DEFAULT_RING_CAPACITY};
use daos_tuner::TunerConfig;
use daos_util::json::{FromJson, ToJson};
use daos_workloads::{by_path, paper_suite, FleetConfig, WorkloadSpec};

use crate::args::Args;

fn lookup(args: &Args) -> Result<WorkloadSpec, DaosError> {
    let name = args
        .pos(0)
        .ok_or_else(|| DaosError::usage("missing workload argument (see `daos list`)"))?;
    by_path(name)
        .ok_or_else(|| DaosError::usage(format!("unknown workload '{name}' (see `daos list`)")))
}

/// One of the paper's named configurations, by plot name.
fn named_config(name: &str) -> Result<RunConfig, DaosError> {
    RunConfig::by_name(name).ok_or_else(|| {
        DaosError::usage(format!("unknown config '{name}' ({})", RunConfig::names().join(" | ")))
    })
}

/// A usage error naming the first of the options `keys` that `args`
/// holds: there, each would do nothing, `why`.
fn reject(args: &Args, keys: &[&str], why: &str) -> Result<(), DaosError> {
    match keys.iter().find(|&&key| args.opt(key).is_some() || args.flag(key)) {
        Some(key) => Err(DaosError::usage(format!("--{key} does nothing {why}"))),
        None => Ok(()),
    }
}

/// What a subcommand runs, resolved from its arguments once.
struct Launch {
    /// The workload, with `--epochs` applied.
    spec: WorkloadSpec,
    machine: MachineProfile,
    config: RunConfig,
    seed: u64,
    fleet: FleetSpec,
}

impl Launch {
    /// One process of the workload `args` names, cut to `--epochs`, under
    /// `--config` or else `config`, on `--machine` with `--seed`.
    fn of(args: &Args, config: RunConfig) -> Result<Launch, DaosError> {
        let mut spec = lookup(args)?;
        spec.nr_epochs = args.opt_count("epochs", spec.nr_epochs)?.min(spec.nr_epochs);
        let config = match args.opt("config") {
            Some(name) => named_config(name)?,
            None => config,
        };
        let (machine, seed) = (args.machine()?, args.seed()?);
        Ok(Launch { spec, machine, config, seed, fleet: FleetSpec::new(1) })
    }
}

/// What [`execute`] hands back.
struct Ran {
    result: SessionResult,
    /// The collector the run traced into, taken back.
    collector: Option<Collector>,
    /// The `--serve` endpoint, still serving the final snapshot.
    server: Option<ObsServer>,
}

/// Run `launch` to completion: the one place the CLI builds a
/// [`Session`]. With `ring`, a trace collector of that capacity is
/// installed on the calling thread for the run and taken back on every
/// exit path. With `--serve ADDR`, an [`ObsServer`] over `publisher` (a
/// new one if `None`) is bound there first. Given either, a
/// [`FleetPublisher`] publishes the run every `--publish-every` ticks and
/// its final snapshot; the collector lends it its registry and ring tail.
fn execute(
    args: &Args,
    launch: &Launch,
    ring: Option<usize>,
    mut publisher: Option<Publisher>,
) -> Result<Ran, DaosError> {
    let publish_every: u64 = args.opt_count("publish-every", 1)?;
    let server = match (args.opt("serve"), publisher.is_some()) {
        (Some(addr), _) => {
            let publisher = publisher.get_or_insert_with(Publisher::new).clone();
            let server =
                ObsServer::bind(addr, publisher).map_err(|e| DaosError::io(addr, e))?;
            // Status goes to stderr: stdout may be the trace itself.
            eprintln!("serving observability on {}", server.addr());
            Some(server)
        }
        (None, true) => None,
        (None, false) => {
            reject(args, &["publish-every", "linger"], "without --serve")?;
            None
        }
    };
    let mut obs = publisher.map(|publisher| {
        let (config, machine) = (&launch.config.name, &launch.machine.name);
        FleetPublisher::new(publisher, config, &launch.spec.path_name(), machine, publish_every)
    });
    let mut session = Session::new(&launch.machine, &launch.config, &launch.spec)
        .seed(launch.seed)
        .fleet(launch.fleet.clone())
        .profile_wall(args.flag("profile-wall"));
    if let Some(obs) = &mut obs {
        session = session.fleet_observer(obs);
    }
    if let Some(ring) = ring {
        daos_trace::install(Collector::builder().ring_capacity(ring).build()?)?;
    }
    let ran = session.execute();
    if let (Ok(result), Some(obs)) = (&ran, &mut obs) {
        obs.finalize(result.fleet.as_ref().expect("every session carries a summary"));
    }
    // Taken back even if the run failed, so a retry on this thread does
    // not hit AlreadyInstalled.
    let collector = ring.and_then(|_| daos_trace::take());
    // Once, with the final count: not per publish or export, which would
    // repeat the warning with stale numbers.
    if let Some(ring) = collector.as_ref().map(Collector::ring).filter(|r| r.dropped() > 0) {
        eprintln!(
            "warning: ring overflowed — {} events dropped (capacity {}); \
             re-run with a larger --ring to keep the full stream",
            ring.dropped(),
            ring.capacity()
        );
    }
    Ok(Ran { result: ran?, collector, server })
}

/// With `--linger`, keep `server` serving the final snapshot until the
/// process is killed (how `scripts/verify.sh` probes a live server).
fn linger(args: &Args, server: Option<&ObsServer>) {
    let Some(server) = server.filter(|_| args.flag("linger")) else { return };
    eprintln!("run complete; serving final snapshot on {} until killed", server.addr());
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

/// `daos list`
pub fn list() -> Result<(), DaosError> {
    println!("{:<26} {:>9} {:>10}  behaviour", "workload", "footprint", "epochs");
    for spec in paper_suite() {
        println!(
            "{:<26} {:>6} MiB {:>10}  {}",
            spec.path_name(),
            spec.footprint >> 20,
            spec.nr_epochs,
            spec.behavior.kind_name(),
        );
    }
    Ok(())
}

/// `daos record <workload>`: the run's complete in-memory record (it
/// never drops a window, unlike the bounded ring behind `daos trace`),
/// written as the trace events the monitor streams for it.
pub fn record(args: &Args) -> Result<(), DaosError> {
    let paddr = args.flag("paddr");
    let launch = Launch::of(args, if paddr { RunConfig::prec() } else { RunConfig::rec() })?;
    println!(
        "recording {} on {} ({} monitoring)...",
        launch.spec.path_name(),
        launch.machine.name,
        if paddr { "physical-address" } else { "virtual-address" }
    );
    let result = execute(args, &launch, None, None)?.result.into_single();
    let record = result.record.as_ref().expect("recording config");
    let out = args.opt("out").unwrap_or("daos.record.jsonl");
    let jsonl = daos_trace::events_to_jsonl(&daos_report::record_to_events(record));
    fs::write(out, jsonl).map_err(|e| DaosError::io(out, e))?;
    println!(
        "wrote {} aggregation windows ({:.0}s of monitoring) to {out}",
        record.len(),
        result.runtime_ns as f64 / 1e9
    );
    println!(
        "monitoring cost: {:.2}% of one CPU, {:.2}% workload slowdown",
        result.monitor_cpu_share() * 100.0,
        100.0 * result.stats.monitor_interference_ns as f64 / result.runtime_ns as f64
    );
    Ok(())
}

/// Load the trace document at `args.pos(0)` — a `daos trace` export or
/// a `daos record` file, the one format every report subcommand reads.
fn load_doc(args: &Args) -> Result<daos_trace::TraceDoc, DaosError> {
    let path =
        args.pos(0).ok_or_else(|| DaosError::usage("missing record or trace file argument"))?;
    let text = fs::read_to_string(path).map_err(|e| DaosError::io(path, e))?;
    Ok(daos_trace::parse_export(&text)?)
}

/// The monitor record held by the file at `args.pos(0)`.
fn load_record(args: &Args) -> Result<MonitorRecord, DaosError> {
    let doc = load_doc(args)?;
    warn_if_truncated(&doc);
    Ok(daos_report::record_from_doc(&doc))
}

fn warn_if_truncated(doc: &daos_trace::TraceDoc) {
    if doc.dropped > 0 {
        eprintln!(
            "warning: trace is incomplete — {} events were dropped by a ring of {}; \
             derived views cover only the surviving window",
            doc.dropped, doc.ring_capacity
        );
    }
}

/// With `--json`, `view` as one line of compact JSON; else `text()`.
fn print_view(args: &Args, view: &impl ToJson, text: impl FnOnce() -> String) {
    if args.flag("json") {
        println!("{}", view.to_json().to_string_compact());
    } else {
        print!("{}", text());
    }
}

/// `daos report heatmap <FILE>`
pub fn report_heatmap(args: &Args) -> Result<(), DaosError> {
    let rows: usize = args.opt_count("rows", 16)?;
    let cols: usize = args.opt_count("cols", 72)?;
    let record = load_record(args)?;
    let span = biggest_active_span(&record)
        .ok_or_else(|| DaosError::usage("record shows no activity"))?;
    let hm = Heatmap::from_record(&record, span, cols, rows)
        .ok_or_else(|| DaosError::usage("empty record"))?;
    print_view(args, &hm, || {
        let (from, to) = (hm.time_span.0 as f64 / 1e9, hm.time_span.1 as f64 / 1e9);
        let (lo, hi) = (span.start >> 20, span.end >> 20);
        format!("{}x: {from:.0}..{to:.0}s   y: {lo}..{hi} MiB\n", hm.render_ascii())
    });
    Ok(())
}

/// `daos report wss <FILE>`: the time series with its percentile
/// table, or with `--distribution` the damo-style distribution alone.
pub fn report_wss(args: &Args) -> Result<(), DaosError> {
    let record = load_record(args)?;
    let tl = daos_report::WssTimeline::from_record(&record);
    let distribution = args.flag("distribution");
    print_view(args, &tl, || if distribution { tl.render_distribution() } else { tl.render() });
    Ok(())
}

/// `daos report summary <FILE>`
pub fn report_summary(args: &Args) -> Result<(), DaosError> {
    let doc = load_doc(args)?;
    print!("{}", daos_report::Summary::of(&doc).render());
    Ok(())
}

/// `daos report schemes <FILE>`
pub fn report_schemes(args: &Args) -> Result<(), DaosError> {
    let doc = load_doc(args)?;
    warn_if_truncated(&doc);
    let timelines = daos_report::scheme_timelines(&doc.events);
    print_view(args, &timelines, || daos_report::schemes::render_all(&doc));
    Ok(())
}

/// `daos report profile <FILE>`
pub fn report_profile(args: &Args) -> Result<(), DaosError> {
    let doc = load_doc(args)?;
    warn_if_truncated(&doc);
    print!("{}", daos_report::Profile::of(&doc).render());
    Ok(())
}

/// `daos schemes <workload> --schemes-file FILE | --scheme LINE`
pub fn schemes(args: &Args) -> Result<(), DaosError> {
    let mut launch = Launch::of(args, RunConfig::baseline())?;
    let schemes = match (args.opt("schemes-file"), args.opt("scheme")) {
        (Some(path), _) => {
            let text = fs::read_to_string(path).map_err(|e| DaosError::io(path, e))?;
            parse_schemes(&text)?
        }
        (None, Some(line)) => vec![parse_scheme_line(line)?],
        (None, None) => {
            return Err(DaosError::usage("need --schemes-file FILE or --scheme 'LINE'"))
        }
    };
    println!(
        "running {} under {} scheme(s) on {}:",
        launch.spec.path_name(),
        schemes.len(),
        launch.machine.name
    );
    for s in &schemes {
        println!("  {s}");
    }
    let baseline = execute(args, &launch, None, None)?.result.into_single();
    let schemes = schemes.into_iter().map(Into::into).collect();
    launch.config = RunConfig { name: "schemes".into(), record: false, schemes, ..RunConfig::rec() };
    let result = execute(args, &launch, None, None)?.result.into_single();
    let n = Normalized::of(&baseline, &result);
    println!("\nruntime: {:.1}s (baseline {:.1}s, {:+.2}% change)",
        result.runtime_ns as f64 / 1e9,
        baseline.runtime_ns as f64 / 1e9,
        n.slowdown_pct());
    println!("avg RSS: {} MiB (baseline {} MiB, {:.1}% saved)",
        result.avg_rss >> 20,
        baseline.avg_rss >> 20,
        n.memory_saving_pct());
    println!("score (Listing 2): {:.2}", score_vs_baseline(&baseline, &result));
    print_scheme_stats(&result);
    Ok(())
}

fn print_run_summary(result: &RunResult) {
    println!(
        "ran {} under '{}' on {}: {:.1}s virtual runtime, avg RSS {} MiB, peak {} MiB",
        result.workload,
        result.config,
        result.machine,
        result.runtime_ns as f64 / 1e9,
        result.avg_rss >> 20,
        result.peak_rss >> 20,
    );
    if result.overhead.is_some() {
        println!("monitoring cost: {:.2}% of one CPU", result.monitor_cpu_share() * 100.0);
    }
    print_scheme_stats(result);
}

/// What each scheme tried and applied over the run, one line a scheme.
fn print_scheme_stats(result: &RunResult) {
    for (i, st) in result.scheme_stats.iter().enumerate() {
        println!(
            "scheme {i}: tried {} regions / {} MiB, applied {} / {} MiB",
            st.nr_tried,
            st.sz_tried >> 20,
            st.nr_applied,
            st.sz_applied >> 20
        );
    }
}

/// The `--profile-wall` table, under its own header, the process's
/// peak resident set under it where `/proc` reports one, and under that
/// what a recording run's record holds of the host heap.
fn print_profile(profile: Option<&WallProfile>, record: Option<&MonitorRecord>) {
    if let Some(profile) = profile {
        print!("host wall time by engine phase:\n{}", profile.render());
        if let Some(kib) = peak_rss_kib() {
            println!("peak RSS {:.1} MiB (VmHWM)", kib as f64 / 1024.0);
        }
        if let Some(record) = record {
            let regions: usize = record.windows().map(|a| a.regions.len()).sum();
            let bytes = record.heap_bytes();
            println!(
                "record {} windows, {regions} regions, {bytes} bytes ({:.2} B a region)",
                record.len(),
                bytes as f64 / regions.max(1) as f64
            );
        }
    }
}

/// This process's peak resident set so far, KiB: `VmHWM` in
/// `/proc/self/status`.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `daos run <workload>`: one configuration, summarised. With
/// `--serve ADDR` the run also exposes the live observability endpoint
/// (`/metrics`, `/snapshot`, `/events`, `/healthz`); without it, no
/// publisher, server thread or collector is ever constructed.
pub fn run_cmd(args: &Args) -> Result<(), DaosError> {
    let launch = Launch::of(args, RunConfig::prcl())?;
    let ring = args.opt_count("ring", DEFAULT_RING_CAPACITY)?;
    // Serving implies telemetry: a collector gives `/metrics` and
    // `/events` a registry and ring to publish.
    let ring = match args.opt("serve") {
        Some(_) => Some(ring),
        None => {
            reject(args, &["ring"], "without --serve")?;
            None
        }
    };
    let ran = execute(args, &launch, ring, None)?;
    let mut result = ran.result;
    let profile = result.profile.take();
    let result = result.into_single();
    print_run_summary(&result);
    print_profile(profile.as_ref(), result.record.as_ref());
    linger(args, ran.server.as_ref());
    Ok(())
}

/// `daos top`'s frame loop and what it draws with.
struct Frames {
    dash: Dashboard,
    refresh: Duration,
    /// Frames to draw before stopping; 0 = until the run finishes.
    iterations: u64,
    plain: bool,
}

impl Frames {
    /// The one frame loop, for both `top` modes: draw each published
    /// snapshot `next` returns until one is finished, `next` says its
    /// feed has ended, or `--iterations` frames are drawn. True when it
    /// drew the feed to its end.
    fn watch(
        &mut self,
        mut next: impl FnMut() -> Result<(Arc<ObsSnapshot>, bool), DaosError>,
    ) -> Result<bool, DaosError> {
        let mut shown = 0u64;
        loop {
            let (snap, ended) = next()?;
            if snap.seq > 0 {
                let frame = self.dash.frame(&snap);
                if self.plain {
                    print!("{frame}");
                } else {
                    // ANSI clear-screen + cursor-home, then the fresh frame.
                    print!("\x1b[2J\x1b[H{frame}");
                }
                let _ = std::io::stdout().flush();
                shown += 1;
            }
            if ended || snap.finished {
                return Ok(true);
            }
            if self.iterations > 0 && shown >= self.iterations {
                return Ok(false);
            }
            thread::sleep(self.refresh);
        }
    }
}

/// `daos top <ADDR | workload>`: live dashboard. A `host:port` argument
/// attaches to a running `--serve` endpoint over `/snapshot`; a workload
/// name runs it in-process and watches it live.
pub fn top(args: &Args) -> Result<(), DaosError> {
    let target = args.pos(0).ok_or_else(|| {
        DaosError::usage("daos top needs an ADDR (host:port) or a workload (see `daos list`)")
    })?;
    let frames = Frames {
        dash: Dashboard::new(),
        refresh: Duration::from_millis(args.opt_num("refresh", 500u64)?),
        iterations: args.opt_num("iterations", 0)?,
        plain: args.flag("plain"),
    };
    match target.parse::<SocketAddr>() {
        Ok(addr) => {
            let run_options = ["config", "machine", "seed", "epochs", "ring", "publish-every"];
            reject(args, &run_options, "when daos top attaches to a served run")?;
            top_remote(addr, frames)
        }
        Err(_) => top_workload(args, frames),
    }
}

/// `GET path` from a served run, decoded.
fn get_json<T: FromJson>(addr: SocketAddr, path: &str) -> Result<T, DaosError> {
    let resp = daos_obs::http::http_get(addr, path, Duration::from_secs(5))
        .map_err(|e| DaosError::io(addr.to_string(), e))?;
    if resp.status != 200 {
        let status = resp.status;
        return Err(DaosError::usage(format!("GET {path} from {addr} returned status {status}")));
    }
    Ok(T::from_json(&daos_util::json::parse(&resp.body)?)?)
}

/// `daos top ADDR`: frames fed by `GET /snapshot`, after the WSS series
/// the run retained so the first frame shows a full sparkline
/// (best-effort: without one the sparkline starts cold).
fn top_remote(addr: SocketAddr, mut frames: Frames) -> Result<(), DaosError> {
    let wss = get_json::<daos_obs::QueryResult>(addr, "/query?metric=daos_obs_wss_bytes");
    if let Ok(wss) = wss {
        frames.dash.backfill(&wss.points.iter().map(|&(_, v)| v as u64).collect::<Vec<_>>());
    }
    frames.watch(|| Ok((Arc::new(get_json(addr, "/snapshot")?), false)))?;
    Ok(())
}

/// `daos top <workload>`: the run executes on a thread of its own —
/// the collector is thread-local, so `execute` installs it there, where
/// the publisher snapshots it — and frames are fed by that publisher.
fn top_workload(args: &Args, mut frames: Frames) -> Result<(), DaosError> {
    let launch = Launch::of(args, RunConfig::prcl())?;
    let ring = args.opt_count("ring", DEFAULT_RING_CAPACITY)?;
    let publisher = Publisher::new();
    let mut next = || {
        let ended = publisher.is_finished();
        Ok((publisher.snapshot(), ended))
    };
    thread::scope(|s| {
        let run = s.spawn(|| {
            let ran = execute(args, &launch, Some(ring), Some(publisher.clone()));
            // Every exit path ends the frame loop, failures included.
            publisher.finish();
            ran.map(drop)
        });
        let drawn_to_end = frames.watch(&mut next)?;
        run.join().map_err(|_| DaosError::usage("run thread panicked"))??;
        // One last frame so the DONE state is what remains on screen.
        if !drawn_to_end {
            frames.watch(&mut next)?;
        }
        Ok(())
    })
}

/// `daos trace <workload>`: run a workload with the telemetry collector
/// installed and emit the event stream as JSONL (stdout or `--out`).
/// With `--serve ADDR`, also expose the live observability endpoint for
/// the duration of the run.
pub fn trace(args: &Args) -> Result<(), DaosError> {
    let launch = Launch::of(args, RunConfig::prcl())?;
    let ring = args.opt_count("ring", DEFAULT_RING_CAPACITY)?;
    let ran = execute(args, &launch, Some(ring), None)?;
    let result = ran.result.into_single();
    let collector = ran.collector.as_ref().expect("execute takes back the collector it installs");

    let jsonl = daos_trace::export_collector(collector);
    match args.opt("out") {
        Some(path) => {
            fs::write(path, &jsonl).map_err(|e| DaosError::io(path, e))?;
            println!(
                "traced {} under '{}': {} events ({} dropped) over {:.1}s -> {path}",
                launch.spec.path_name(),
                launch.config.name,
                collector.events().len(),
                collector.ring().dropped(),
                result.runtime_ns as f64 / 1e9,
            );
            if let Some(h) = collector.registry().hist(daos_trace::keys::MONITOR_CHECKS_PER_TICK)
            {
                println!(
                    "monitor: {} ticks, max {} checks/tick (bound {})",
                    h.count(),
                    h.max(),
                    2 * launch.config.attrs.max_nr_regions
                );
            }
        }
        // Bare `daos trace` streams the JSONL itself, pipeline-friendly.
        None => print!("{jsonl}"),
    }
    linger(args, ran.server.as_ref());
    Ok(())
}

/// `daos tune <workload>`
pub fn tune(args: &Args) -> Result<(), DaosError> {
    let spec = lookup(args)?;
    let machine = args.machine()?;
    let seed = args.seed()?;
    let range_str = args.opt("range").unwrap_or("0:60");
    let (lo, hi) = range_str
        .split_once(':')
        .and_then(|(a, b)| Some((a.parse::<f64>().ok()?, b.parse::<f64>().ok()?)))
        .filter(|(lo, hi)| lo.is_finite() && hi.is_finite() && lo < hi)
        .ok_or_else(|| {
            DaosError::usage(format!("bad --range '{range_str}' (expected LO:HI, finite, LO < HI)"))
        })?;
    let samples: u64 = args.opt_count("samples", 10)?;

    println!(
        "tuning prcl min_age over [{lo}, {hi}]s for {} on {} ({samples} samples)...",
        spec.path_name(),
        machine.name
    );
    let cfg = TunerConfig {
        time_limit: sec(samples * 10),
        unit_work_time: sec(10),
        range: (lo, hi),
        seed,
    };
    let TunedPrcl { baseline, result, tuned } = tune_prcl(&machine, &spec, seed, &cfg)?;
    for (min_age, s) in &result.samples {
        println!("  min_age {min_age:>6.1}s -> score {s:>8.2}");
    }
    println!("\nbest threshold: min_age {:.1}s (estimated score {:.2})", result.best_x, result.best_score);
    let n = Normalized::of(&baseline, &tuned);
    println!(
        "validated: {:.1}% memory saving at {:+.2}% runtime change (score {:.2})",
        n.memory_saving_pct(),
        n.slowdown_pct(),
        score_vs_baseline(&baseline, &tuned)
    );
    Ok(())
}

/// `daos fleet`: the §4.4 serverless production scenario at fleet
/// scale. One serverless worker spec is replicated `--processes` times
/// under the sharded fleet engine (the [`Session`] API), with
/// physical-address monitoring under a fleet-wide region budget and the
/// paper's pageout scheme applied batched per shard. Prints the fleet
/// summary: per-tenant aggregates and monitoring overhead per process.
/// With `--serve ADDR` the run publishes one snapshot per fleet, whose
/// `/metrics` exposition carries per-tenant label families.
pub fn fleet(args: &Args) -> Result<(), DaosError> {
    let machine = args.machine()?;
    let swap = match args.opt("swap").unwrap_or("zram") {
        "zram" => SwapConfig::serverless_zram(),
        "file" => SwapConfig::serverless_file(),
        "none" => SwapConfig::None,
        other => {
            return Err(DaosError::usage(format!("unknown swap '{other}' (zram | file | none)")))
        }
    };
    let min_age: u64 = args.opt_num("min-age", 30)?;
    // A fleet of nothing is a typo, not a request: `FleetSpec` would
    // quietly run one of each, and an empty mapping fails mid-set-up.
    let processes: usize = args.opt_count("processes", 256)?;
    let epochs: u64 = args.opt_count("epochs", 60)?;
    let shard_size: usize = args.opt_count("shard-size", 32)?;
    let workers: usize = args.opt_num("workers", 0)?;
    let tenants: usize = args.opt_count("tenants", 4)?;
    // The default four tenants shrink to fit a smaller fleet; asking for
    // more tenants than processes asks for empty ones.
    if args.opt("tenants").is_some() && tenants > processes {
        return Err(DaosError::usage(format!(
            "--tenants {tenants} exceeds --processes {processes}: a tenant would have no processes"
        )));
    }
    let fleet_cfg = FleetConfig::default();
    let footprint: u64 = args.opt_count("footprint", fleet_cfg.worker_footprint >> 20)?;

    // The production configuration: physical-address monitoring feeding
    // the pageout scheme, unless --config picks a named paper config.
    let config = match args.opt("config") {
        Some(name) => {
            let mut c = named_config(name)?;
            c.swap = swap;
            c
        }
        None => RunConfig::fleet_prcl(sec(min_age), swap),
    };
    let spec = FleetConfig { worker_footprint: footprint << 20, ..fleet_cfg }.worker_spec(epochs);

    let fleet = FleetSpec::new(processes).shard_size(shard_size).workers(workers).tenants(tenants);
    let launch = Launch { spec, machine, config, seed: args.seed()?, fleet };

    println!(
        "fleet: {processes} serverless workers x {epochs} epochs under '{}' on {} \
         ({} shards, {} tenants, {:?})...",
        launch.config.name,
        launch.machine.name,
        launch.fleet.nr_shards(),
        launch.fleet.nr_tenants,
        launch.config.swap,
    );

    let ran = execute(args, &launch, None, None)?;
    let summary = ran.result.fleet.expect("every session carries a summary");
    print!("{}", summary.render());
    print_profile(ran.result.profile.as_ref(), None);
    linger(args, ran.server.as_ref());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(sub: &str, s: &str) -> Args {
        Args::parse(sub, s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn list_prints_suite() {
        assert!(list().is_ok());
    }

    #[test]
    fn lookup_errors_are_friendly() {
        let err = lookup(&args("run", "parsec3/quake")).unwrap_err();
        assert!(err.to_string().contains("unknown workload"));
        let err = lookup(&args("run", "")).unwrap_err();
        assert!(err.to_string().contains("missing workload"));
    }

    #[test]
    fn report_on_missing_file_errors() {
        let err = report_wss(&args("report wss", "/no/such/file.rec")).unwrap_err();
        assert!(err.to_string().contains("file.rec"));
        let err = report_heatmap(&args("report heatmap", "/no/such/file.rec")).unwrap_err();
        assert!(err.to_string().contains("file.rec"));
    }

    /// Write what `daos record` writes for a small library-built run.
    fn write_record_file(name: &str) -> std::path::PathBuf {
        let spec = daos_workloads::WorkloadSpec {
            name: "cli-test",
            suite: daos_workloads::Suite::Parsec3,
            footprint: 8 << 20,
            nr_epochs: 600,
            compute_ns: 1_000_000,
            behavior: daos_workloads::Behavior::CompactHot {
                hot_frac: 0.25,
                apc: 4.0,
                cold_touch_prob: 0.0,
            },
        };
        let machine = daos_mm::MachineProfile::i3_metal();
        let config = RunConfig::rec();
        let result =
            Session::new(&machine, &config, &spec).seed(1).execute().unwrap().into_single();
        let events = daos_report::record_to_events(result.record.as_ref().unwrap());
        let path = std::env::temp_dir().join(name);
        fs::write(&path, daos_trace::events_to_jsonl(&events)).unwrap();
        path
    }

    #[test]
    fn reports_work_on_a_real_record_file() {
        let path = write_record_file("daos_cli_test.record.jsonl");
        let path_str = path.to_str().unwrap();

        assert!(report_wss(&args("report wss", path_str)).is_ok());
        assert!(report_wss(&args("report wss", &format!("{path_str} --distribution"))).is_ok());
        assert!(report_wss(&args("report wss", &format!("{path_str} --json"))).is_ok());
        let sized = format!("{path_str} --rows 6 --cols 20");
        assert!(report_heatmap(&args("report heatmap", &sized)).is_ok());
        assert!(report_heatmap(&args("report heatmap", &format!("{path_str} --json"))).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn schemes_requires_a_scheme_source() {
        let err = schemes(&args("schemes", "parsec3/freqmine")).unwrap_err();
        assert!(err.to_string().contains("--schemes-file"));
        let err = schemes(&args("schemes", "parsec3/freqmine --scheme bogus")).unwrap_err();
        assert!(err.to_string().contains("expected 7 fields"));
    }

    #[test]
    fn trace_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join("daos_cli_trace_test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        trace(&args("trace", &format!(
            "parsec3/freqmine --config rec --epochs 40 --out {path_str}"
        )))
        .unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let events = daos_trace::parse_export(&text).unwrap().events;
        assert!(!events.is_empty(), "trace produced no events");
        let _ = fs::remove_file(&path);

        // The message lists exactly the names the library resolves.
        let err = trace(&args("trace", "parsec3/freqmine --config warp9")).unwrap_err();
        let known = RunConfig::names().join(" | ");
        assert_eq!(err.to_string(), format!("unknown config 'warp9' ({known})"));
    }

    #[test]
    fn reports_work_on_a_trace_file() {
        // Record a trace, then drive every report subcommand from it.
        let path = std::env::temp_dir().join("daos_cli_report_trace.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        trace(&args("trace", &format!(
            "parsec3/freqmine --config prcl --epochs 60 --out {path_str}"
        )))
        .unwrap();

        assert!(report_wss(&args("report wss", &path_str)).is_ok());
        assert!(report_wss(&args("report wss", &format!("{path_str} --distribution"))).is_ok());
        let sized = format!("{path_str} --rows 6 --cols 20");
        assert!(report_heatmap(&args("report heatmap", &sized)).is_ok());
        assert!(report_heatmap(&args("report heatmap", &format!("{path_str} --json"))).is_ok());
        assert!(report_summary(&args("report summary", &path_str)).is_ok());
        assert!(report_schemes(&args("report schemes", &path_str)).is_ok());
        assert!(report_profile(&args("report profile", &path_str)).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn summary_schemes_profile_accept_a_record_file() {
        // A record file is a trace with only monitor-window events: the
        // trace views load it and say what it does not hold.
        let path = write_record_file("daos_cli_record_as_trace.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        assert!(report_summary(&args("report summary", &path_str)).is_ok());
        assert!(report_schemes(&args("report schemes", &path_str)).is_ok());
        assert!(report_profile(&args("report profile", &path_str)).is_ok());

        let doc = load_doc(&args("report summary", &path_str)).unwrap();
        let _ = fs::remove_file(&path);
        assert!(!daos_report::record_from_doc(&doc).is_empty());
        let summary = daos_report::Summary::of(&doc).render();
        assert!(summary.contains("metrics trailer: absent"), "{summary}");
        let schemes = daos_report::schemes::render_all(&doc);
        assert!(schemes.contains("no per-scheme events"), "{schemes}");
        let profile = daos_report::Profile::of(&doc).render();
        assert!(profile.contains("no spans recorded"), "{profile}");
    }

    /// `run --serve` and `top <workload>` reach the run through the same
    /// `execute`: on one `Launch` they give the same runs and publish the
    /// same final snapshot, one over `/snapshot`, one to a publisher.
    #[test]
    fn one_launch_runs_alike_served_and_watched() {
        let line = "parsec3/freqmine --config rec --epochs 40";
        let served = args("run", &format!("{line} --serve 127.0.0.1:0"));
        let launch = Launch::of(&served, RunConfig::prcl()).unwrap();
        let ring = Some(DEFAULT_RING_CAPACITY);
        let ran = execute(&served, &launch, ring, None).unwrap();
        let server = ran.server.as_ref().expect("--serve binds a server");
        let resp = daos_obs::http::http_get(server.addr(), "/snapshot", Duration::from_secs(5));
        let served_snapshot = resp.unwrap().body;

        let publisher = Publisher::new();
        let watched = execute(&args("top", line), &launch, ring, Some(publisher.clone())).unwrap();
        assert!(watched.server.is_none());
        assert_eq!(ran.result.runs, watched.result.runs);
        let snapshot = publisher.snapshot();
        assert!(snapshot.finished && publisher.is_finished());
        assert_eq!(served_snapshot, snapshot.to_json().to_string_compact());
    }

    /// A run that fails mid-way still takes its collector back: the next
    /// `execute` on the thread installs its own.
    #[test]
    fn a_failed_run_leaves_no_collector_installed() {
        let line = args("run", "parsec3/freqmine --config rec --epochs 40");
        let fits = Launch::of(&line, RunConfig::prcl()).unwrap();
        let mut too_big = Launch::of(&line, RunConfig::prcl()).unwrap();
        too_big.machine = MachineProfile::test_tiny();
        too_big.config.swap = SwapConfig::None;
        too_big.spec.footprint = 2 * too_big.machine.dram_bytes;
        let err = execute(&line, &too_big, Some(DEFAULT_RING_CAPACITY), None).err();
        let err = err.map(|e| e.to_string());
        assert!(err.as_deref().is_some_and(|e| e.contains("out of memory")), "{err:?}");
        let ran = execute(&line, &fits, Some(DEFAULT_RING_CAPACITY), None).unwrap();
        assert!(!ran.collector.expect("the run's own collector").events().is_empty());
    }

    #[test]
    fn fleet_rejects_unknown_swap() {
        let err = fleet(&args("fleet", "--swap tape")).unwrap_err();
        assert!(err.to_string().contains("unknown swap"));
    }

    #[test]
    fn fleet_rejects_zero_sizes() {
        for option in ["processes", "shard-size", "tenants", "footprint", "epochs"] {
            let err = fleet(&args("fleet", &format!("--epochs 1 --{option} 0"))).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--{option} 0: {err}");
            assert!(err.to_string().contains(&format!("--{option}")), "--{option} 0: {err}");
        }
    }

    #[test]
    fn zero_epochs_rings_and_heatmap_sizes_are_usage_errors() {
        type Cmd = fn(&Args) -> Result<(), DaosError>;
        // `top --ring 0` hung before it was rejected up front; the binary
        // test runs it under a deadline.
        let cases: [(Cmd, &str, &str, &str); 7] = [
            (run_cmd, "run", "parsec3/freqmine --epochs 1 --ring 0", "--ring"),
            (trace, "trace", "parsec3/freqmine --epochs 1 --ring 0", "--ring"),
            (run_cmd, "run", "parsec3/freqmine --epochs 0", "--epochs"),
            (trace, "trace", "parsec3/freqmine --epochs 0", "--epochs"),
            (top, "top", "parsec3/freqmine --epochs 0 --plain --iterations 1", "--epochs"),
            (report_heatmap, "report heatmap", "/no/such/file.jsonl --rows 0", "--rows"),
            (report_heatmap, "report heatmap", "/no/such/file.jsonl --cols 0", "--cols"),
        ];
        for (cmd, sub, line, option) in cases {
            let err = cmd(&args(sub, line)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{line}: {err}");
            assert_eq!(err.to_string(), format!("{option} must be at least 1"), "{line}");
        }
    }

    #[test]
    fn fleet_small_run_succeeds() {
        // The smallest interesting fleet: two shards and two tenants,
        // then a named config override.
        let line = "--processes 4 --epochs 6 --shard-size 2 --tenants 2";
        fleet(&args("fleet", line)).unwrap();
        let line = "--processes 2 --epochs 4 --config prcl --swap none";
        fleet(&args("fleet", line)).unwrap();
        let err = fleet(&args("fleet", "--config warp9")).unwrap_err();
        assert!(err.to_string().contains("unknown config"));
    }

    #[test]
    fn tune_range_parsing() {
        for range in ["backwards", "10:5", "5:5", "nan:5", "0:inf"] {
            let line = format!("parsec3/freqmine --range {range}");
            let err = tune(&args("tune", &line)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "--range {range}: {err}");
            assert!(err.to_string().contains("--range"), "--range {range}: {err}");
        }
    }

    #[test]
    fn tune_rejects_a_zero_sample_budget() {
        let err = tune(&args("tune", "parsec3/freqmine --samples 0")).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--samples"), "{err}");
    }
}
