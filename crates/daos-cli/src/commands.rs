//! Subcommand implementations.

use std::fs;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use daos::{
    biggest_active_span, score_vs_baseline, tune_prcl, DaosError, FleetSpec, Heatmap, Normalized,
    RunConfig, RunResult, Session, SessionResult, TunedPrcl, WallProfile,
};
use daos_mm::clock::sec;
use daos_mm::{MachineProfile, SwapConfig};
use daos_obs::{Dashboard, FleetPublisher, ObsServer, ObsSnapshot, Publisher};
use daos_schemes::{parse_scheme_line, parse_schemes};
use daos_tuner::TunerConfig;
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
    let spec = lookup(args)?;
    let machine = args.machine()?;
    let config = if args.flag("paddr") { RunConfig::prec() } else { RunConfig::rec() };
    println!(
        "recording {} on {} ({} monitoring)...",
        spec.path_name(),
        machine.name,
        if args.flag("paddr") { "physical-address" } else { "virtual-address" }
    );
    let session = Session::new(&machine, &config, &spec).seed(args.seed()?);
    let result = session.execute()?.into_single();
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
fn load_record(args: &Args) -> Result<daos_monitor::MonitorRecord, DaosError> {
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

/// `daos report heatmap <FILE>`
pub fn report_heatmap(args: &Args) -> Result<(), DaosError> {
    let rows: usize = args.opt_count("rows", 16)?;
    let cols: usize = args.opt_count("cols", 72)?;
    let record = load_record(args)?;
    let span = biggest_active_span(&record)
        .ok_or_else(|| DaosError::usage("record shows no activity"))?;
    let hm = Heatmap::from_record(&record, span, cols, rows)
        .ok_or_else(|| DaosError::usage("empty record"))?;
    if args.flag("json") {
        use daos_util::json::ToJson;
        println!("{}", hm.to_json().to_string_compact());
        return Ok(());
    }
    print!("{}", hm.render_ascii());
    println!(
        "x: {:.0}..{:.0}s   y: {}..{} MiB",
        hm.time_span.0 as f64 / 1e9,
        hm.time_span.1 as f64 / 1e9,
        span.start >> 20,
        span.end >> 20
    );
    Ok(())
}

/// `daos report wss <FILE>`: the time series with its percentile
/// table, or with `--distribution` the damo-style distribution alone.
pub fn report_wss(args: &Args) -> Result<(), DaosError> {
    let record = load_record(args)?;
    let tl = daos_report::WssTimeline::from_record(&record);
    if args.flag("json") {
        use daos_util::json::ToJson;
        println!("{}", tl.to_json().to_string_compact());
        return Ok(());
    }
    if args.flag("distribution") {
        print!("{}", tl.render_distribution());
    } else {
        print!("{}", tl.render());
    }
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
    if args.flag("json") {
        use daos_util::json::ToJson;
        println!(
            "{}",
            daos_report::scheme_timelines(&doc.events).to_json().to_string_compact()
        );
        return Ok(());
    }
    print!("{}", daos_report::schemes::render_all(&doc));
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
    let spec = lookup(args)?;
    let machine = args.machine()?;
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
    println!("running {} under {} scheme(s) on {}:", spec.path_name(), schemes.len(), machine.name);
    for s in &schemes {
        println!("  {s}");
    }
    let seed = args.seed()?;
    let run = |config: &RunConfig| {
        Session::new(&machine, config, &spec).seed(seed).execute().map(SessionResult::into_single)
    };
    let baseline = run(&RunConfig::baseline())?;
    let mut config = RunConfig::rec();
    config.name = "schemes".into();
    config.record = false;
    config.schemes = schemes.into_iter().map(Into::into).collect();
    let result = run(&config)?;
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
    for (i, st) in result.scheme_stats.iter().enumerate() {
        println!(
            "scheme {i}: tried {} regions / {} MiB, applied {} / {} MiB",
            st.nr_tried,
            st.sz_tried >> 20,
            st.nr_applied,
            st.sz_applied >> 20
        );
    }
    Ok(())
}

/// Run `fleet` processes of `spec` under `config` to completion. With
/// `--serve ADDR`, first bind the observability server there, attach a
/// [`FleetPublisher`] under the run's identity and publish the final
/// snapshot; a trace collector the caller installed lends the published
/// snapshots its registry and ring tail.
fn execute(
    args: &Args,
    machine: &MachineProfile,
    config: &RunConfig,
    spec: &WorkloadSpec,
    fleet: FleetSpec,
) -> Result<(SessionResult, Option<ObsServer>), DaosError> {
    let session = Session::new(machine, config, spec)
        .seed(args.seed()?)
        .fleet(fleet)
        .profile_wall(args.flag("profile-wall"));
    let Some(addr) = args.opt("serve") else {
        return Ok((session.execute()?, None));
    };
    let publish_every: u64 = args.opt_num("publish-every", 1)?;
    let publisher = Publisher::new();
    let server =
        ObsServer::bind(addr, publisher.clone()).map_err(|e| DaosError::io(addr, e))?;
    println!("serving observability on {}", server.addr());
    let mut obs = FleetPublisher::new(
        publisher,
        &config.name,
        &spec.path_name(),
        &machine.name,
        publish_every,
    );
    let result = session.fleet_observer(&mut obs).execute()?;
    obs.finalize(result.fleet.as_ref().expect("every session carries a summary"));
    Ok((result, Some(server)))
}

/// With `--linger`, keep the endpoint serving the final snapshot until
/// the process is killed (how `scripts/verify.sh` probes a live server).
fn maybe_linger(args: &Args, server: &ObsServer) {
    if !args.flag("linger") {
        return;
    }
    println!("run complete; serving final snapshot on {} until killed", server.addr());
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

/// Warn about trace-ring overflow with the final dropped count: called
/// once, after the run, not per publish or export, which would repeat the
/// message with stale intermediate numbers.
fn warn_ring_overflow(ring: &daos_trace::Ring) {
    let (dropped, capacity) = (ring.dropped(), ring.capacity());
    if dropped == 0 {
        return;
    }
    eprintln!(
        "warning: ring overflowed — {dropped} events dropped (capacity {capacity}); \
         re-run with a larger --ring to keep the full stream"
    );
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

/// The `--profile-wall` table, under its own header, and the process's
/// peak resident set under it where `/proc` reports one.
fn print_profile(profile: Option<&WallProfile>) {
    if let Some(profile) = profile {
        print!("host wall time by engine phase:\n{}", profile.render());
        if let Some(kib) = peak_rss_kib() {
            println!("peak RSS {:.1} MiB (VmHWM)", kib as f64 / 1024.0);
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
    let mut spec = lookup(args)?;
    let machine = args.machine()?;
    let config = named_config(args.opt("config").unwrap_or("prcl"))?;
    let epochs: u64 = args.opt_count("epochs", spec.nr_epochs)?;
    spec.nr_epochs = epochs.min(spec.nr_epochs);
    let ring: usize = args.opt_count("ring", daos_trace::DEFAULT_RING_CAPACITY)?;

    // Serving implies telemetry: install a collector so `/metrics` and
    // `/events` have a registry and ring to publish.
    if args.opt("serve").is_some() {
        daos_trace::install(daos_trace::Collector::builder().ring_capacity(ring).build()?)?;
    }
    let ran = execute(args, &machine, &config, &spec, FleetSpec::new(1));
    let collector = daos_trace::take();
    let (mut result, server) = ran?;
    let profile = result.profile.take();
    print_run_summary(&result.into_single());
    print_profile(profile.as_ref());
    if let Some(collector) = collector {
        warn_ring_overflow(collector.ring());
    }
    if let Some(server) = &server {
        maybe_linger(args, server);
    }
    Ok(())
}

fn show_frame(dash: &mut Dashboard, snap: &ObsSnapshot, plain: bool) {
    let frame = dash.frame(snap);
    if plain {
        print!("{frame}");
    } else {
        // ANSI clear-screen + cursor-home, then the fresh frame.
        print!("\x1b[2J\x1b[H{frame}");
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

/// `daos top <ADDR | workload>`: live dashboard. A `host:port` argument
/// attaches to a running `--serve` endpoint over `/snapshot`; a workload
/// name runs it in-process and watches it live.
pub fn top(args: &Args) -> Result<(), DaosError> {
    let target = args.pos(0).ok_or_else(|| {
        DaosError::usage("daos top needs an ADDR (host:port) or a workload (see `daos list`)")
    })?;
    let refresh = Duration::from_millis(args.opt_num("refresh", 500u64)?);
    let iterations: u64 = args.opt_num("iterations", 0)?; // 0 = until the run finishes
    let plain = args.flag("plain");
    match target.parse::<SocketAddr>() {
        Ok(addr) => top_remote(addr, refresh, iterations, plain),
        Err(_) => top_inprocess(args, refresh, iterations, plain),
    }
}

/// Pull the retained WSS series from `/query` so the first remote frame
/// shows a full sparkline. Best-effort: older servers without the
/// endpoint (or an empty history) just start cold.
fn backfill_wss(dash: &mut Dashboard, addr: SocketAddr) {
    use daos_util::json::FromJson;
    let path = "/query?metric=daos_obs_wss_bytes";
    let Ok(resp) = daos_obs::http::http_get(addr, path, Duration::from_secs(5)) else {
        return;
    };
    if resp.status != 200 {
        return;
    }
    let Ok(v) = daos_util::json::parse(&resp.body) else { return };
    let Ok(answer) = daos_obs::QueryResult::from_json(&v) else { return };
    let values: Vec<u64> = answer.points.iter().map(|&(_, v)| v as u64).collect();
    dash.backfill(&values);
}

fn top_remote(
    addr: SocketAddr,
    refresh: Duration,
    iterations: u64,
    plain: bool,
) -> Result<(), DaosError> {
    use daos_util::json::FromJson;
    let mut dash = Dashboard::new();
    backfill_wss(&mut dash, addr);
    let mut shown = 0u64;
    loop {
        let resp = daos_obs::http::http_get(addr, "/snapshot", Duration::from_secs(5))
            .map_err(|e| DaosError::io(addr.to_string(), e))?;
        if resp.status != 200 {
            return Err(DaosError::usage(format!(
                "GET /snapshot from {addr} returned status {}",
                resp.status
            )));
        }
        let snap = ObsSnapshot::from_json(&daos_util::json::parse(&resp.body)?)?;
        show_frame(&mut dash, &snap, plain);
        shown += 1;
        if snap.finished || (iterations > 0 && shown >= iterations) {
            return Ok(());
        }
        thread::sleep(refresh);
    }
}

fn top_inprocess(
    args: &Args,
    refresh: Duration,
    iterations: u64,
    plain: bool,
) -> Result<(), DaosError> {
    let mut spec = lookup(args)?;
    let machine = args.machine()?;
    let seed = args.seed()?;
    let config = named_config(args.opt("config").unwrap_or("prcl"))?;
    let epochs: u64 = args.opt_count("epochs", spec.nr_epochs)?;
    spec.nr_epochs = epochs.min(spec.nr_epochs);
    let ring: usize = args.opt_count("ring", daos_trace::DEFAULT_RING_CAPACITY)?;
    let publish_every: u64 = args.opt_num("publish-every", 1)?;
    let collector = daos_trace::Collector::builder().ring_capacity(ring).build()?;

    let publisher = Publisher::new();
    let worker = {
        let publisher = publisher.clone();
        thread::spawn(move || {
            let run = || -> Result<(), DaosError> {
                // The collector is thread-local: install on the run thread
                // so the publisher snapshots this run's registry and ring.
                daos_trace::install(collector)?;
                let mut obs = FleetPublisher::new(
                    publisher.clone(),
                    &config.name,
                    &spec.path_name(),
                    &machine.name,
                    publish_every,
                );
                let ran = Session::new(&machine, &config, &spec)
                    .seed(seed)
                    .fleet_observer(&mut obs)
                    .execute();
                if let Ok(result) = &ran {
                    obs.finalize(result.fleet.as_ref().expect("every session carries a summary"));
                }
                daos_trace::take();
                ran.map(drop).map_err(DaosError::from)
            };
            let ran = run();
            // Every exit path ends the dashboard loop, failures included.
            publisher.finish();
            ran
        })
    };

    let mut dash = Dashboard::new();
    let mut shown = 0u64;
    loop {
        let finished = publisher.is_finished();
        let snap = publisher.snapshot();
        if snap.seq > 0 {
            show_frame(&mut dash, &snap, plain);
            shown += 1;
        }
        if finished || (iterations > 0 && shown >= iterations) {
            break;
        }
        thread::sleep(refresh);
    }
    worker.join().map_err(|_| DaosError::usage("run thread panicked"))??;
    // One last frame so the DONE state is what remains on screen.
    let snap = publisher.snapshot();
    if snap.seq > 0 {
        show_frame(&mut dash, &snap, plain);
    }
    Ok(())
}

/// `daos trace <workload>`: run a workload with the telemetry collector
/// installed and emit the event stream as JSONL (stdout or `--out`).
/// With `--serve ADDR`, also expose the live observability endpoint for
/// the duration of the run.
pub fn trace(args: &Args) -> Result<(), DaosError> {
    let mut spec = lookup(args)?;
    let machine = args.machine()?;
    let config = named_config(args.opt("config").unwrap_or("prcl"))?;
    let ring: usize = args.opt_count("ring", daos_trace::DEFAULT_RING_CAPACITY)?;
    let epochs: u64 = args.opt_count("epochs", spec.nr_epochs)?;
    spec.nr_epochs = epochs.min(spec.nr_epochs);

    daos_trace::install(daos_trace::Collector::builder().ring_capacity(ring).build()?)?;
    // Take the collector back even if the run fails, so a retry in the
    // same process does not hit AlreadyInstalled.
    let ran = execute(args, &machine, &config, &spec, FleetSpec::new(1));
    let collector = daos_trace::take().expect("collector installed above");
    let (result, server) = ran?;
    let result = result.into_single();

    let jsonl = daos_trace::export_collector(&collector);
    warn_ring_overflow(collector.ring());
    match args.opt("out") {
        Some(path) => {
            fs::write(path, &jsonl).map_err(|e| DaosError::io(path, e))?;
            println!(
                "traced {} under '{}': {} events ({} dropped) over {:.1}s -> {path}",
                spec.path_name(),
                config.name,
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
                    2 * config.attrs.max_nr_regions
                );
            }
        }
        // Bare `daos trace` streams the JSONL itself, pipeline-friendly.
        None => print!("{jsonl}"),
    }
    if let Some(server) = &server {
        maybe_linger(args, server);
    }
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
/// summary: per-tenant aggregates, monitoring overhead per process, and
/// per-process trace-ring drop counts (with `--ring`). With
/// `--serve ADDR` the run publishes one snapshot per fleet, whose
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

    let mut fleet_spec =
        FleetSpec::new(processes).shard_size(shard_size).workers(workers).tenants(tenants);
    let ring: usize = args.opt_num("ring", 0)?;
    if ring > 0 {
        fleet_spec = fleet_spec.trace_ring(ring);
    }

    println!(
        "fleet: {processes} serverless workers x {epochs} epochs under '{}' on {} \
         ({} shards, {} tenants, {:?})...",
        config.name,
        machine.name,
        fleet_spec.nr_shards(),
        fleet_spec.nr_tenants,
        config.swap,
    );

    let (result, server) = execute(args, &machine, &config, &spec, fleet_spec)?;
    let summary = result.fleet.expect("every session carries a summary");
    print!("{}", summary.render());
    print_profile(result.profile.as_ref());
    if let Some(server) = &server {
        maybe_linger(args, server);
    }
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
        // The smallest interesting fleet: two shards, a tiny trace ring
        // (so the drop path is exercised) and a named config override.
        let line = "--processes 4 --epochs 6 --shard-size 2 --tenants 2 --ring 32";
        fleet(&args("fleet", line)).unwrap();
        // On `fleet`, `--ring 0` means "no ring", not a usage error.
        let line = "--processes 2 --epochs 4 --config prcl --swap none --ring 0";
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
