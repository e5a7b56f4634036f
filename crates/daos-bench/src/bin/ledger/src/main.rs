//! `ledger` — the repository's benchmark: six named workloads, the
//! end-to-end metrics a user of `daos run` / `daos fleet` / a figure
//! binary waits on, and per-layer lanes, behind one command. See the
//! README beside this package for the tables and the method.
//!
//! It is a deterministic-simulator benchmark: *simulated* time is what
//! the runs report as their runtime, *host* time is what `Instant` says
//! here, and every metric's unit names which one it is.

mod adapter;
mod catalog;
mod compare;
mod host;
mod lanes;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use adapter::{Input, Json};
use catalog::{Better, Stat, Workload};
use span::Tracer;
use stats::{percentile_ns, Summary};

const USAGE: &str =
    "usage: ledger [--seed N] [--quick] [--out FILE]        run every workload, print the artifact
       ledger --workload NAME [--seed N] [--quick]      run one workload
              [--seconds N] [--trace 0|1]               ... as the benchmark driver does
       ledger --compare A.json B.json                   verdict per (workload, metric)";

/// Reference walks timed before and again after a workload's traced pass.
const REF_WALKS: usize = 4;

/// Exit code of a `--compare` that found a metric `worse`, as the
/// repository's `--check` gates use.
const EX_DATAERR: u8 = 65;

#[derive(Default)]
struct Args {
    seed: u64,
    workload: Option<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
    quick: bool,
    /// Measure for this long instead of a fixed number of repeats.
    seconds: Option<f64>,
    /// `Some(false)`: the untraced pass only; `Some(true)`: the traced
    /// pass only; `None`: both.
    trace: Option<bool>,
    /// Internal: be one cold child (inputs, one run, report, exit).
    cold: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { seed: 42, ..Args::default() };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--workload" => args.workload = Some(value("a workload name")?),
            "--out" => args.out = Some(value("a file")?),
            "--compare" => args.compare = Some((value("two artifacts")?, value("two artifacts")?)),
            "--quick" => args.quick = true,
            "--cold" => args.cold = true,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare::run(a, b),
        (None, Some(name)) => match catalog::workload(name) {
            None => {
                let known: Vec<_> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("ledger: no workload '{name}'; there are {}", known.join(", "));
                return ExitCode::from(2);
            }
            Some(w) if args.cold => cold_child(w, args.seed),
            Some(w) => one_workload(w, &args),
        },
        (None, None) => every_workload(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A cold child: build the inputs, run once, report, exit. Its parent
/// times it from spawn to exit.
fn cold_child(w: &Workload, seed: u64) -> Result<ExitCode, String> {
    let input = (w.input)(seed)?;
    let outcome = adapter::run(&input)?;
    let digest = outcome.digest();
    drop(outcome);
    let rss = host::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?;
    println!("{{\"digest\":\"{digest:016x}\",\"peak_rss_mib\":{rss}}}");
    Ok(ExitCode::SUCCESS)
}

/// Everything measured on one workload.
#[derive(Default)]
struct Measured {
    attempted: u64,
    failed: u64,
    /// Each failed operation, named; also printed on stderr.
    problems: Vec<String>,
    digest: u64,
    end_to_end: BTreeMap<&'static str, Vec<f64>>,
    lanes: BTreeMap<&'static str, Vec<f64>>,
}

impl Measured {
    fn fail(&mut self, what: String) {
        eprintln!("ledger: FAILED {what}");
        self.failed += 1;
        self.problems.push(what);
    }

    /// Every HTTP request of a served run is an operation of its own.
    fn count_scrapes(&mut self, outcome: &adapter::Outcome, run: &str) {
        if let Some(scrapes) = &outcome.scrapes {
            self.attempted += scrapes.attempted;
            if scrapes.failed > 0 {
                self.failed += scrapes.failed - 1;
                self.fail(format!("{run}: {} scrapes failed", scrapes.failed));
            }
        }
    }

    /// Catalog and measurement must agree: every metric each workload has
    /// was measured, and nothing was measured that the catalog lacks.
    fn check_names(&mut self, untraced: bool) {
        let missing = catalog::END_TO_END
            .iter()
            .filter(|e| untraced && e.everywhere && !self.end_to_end.contains_key(e.name))
            .map(|e| format!("{} was not measured", e.name));
        let unknown = self
            .lanes
            .keys()
            .filter(|k| catalog::lane(k).is_none())
            .map(|k| format!("lane {k} is not in the catalog"));
        for problem in missing.chain(unknown).collect::<Vec<_>>() {
            self.fail(problem);
        }
    }
}

/// When a pass stops repeating.
#[derive(Clone, Copy)]
enum Budget {
    Repeats(usize),
    /// At least `min` repeats, then until the time is up.
    Seconds(f64, usize),
}

impl Budget {
    fn done(self, repeats: usize, since: Instant) -> bool {
        match self {
            Budget::Repeats(n) => repeats >= n,
            Budget::Seconds(s, min) => repeats >= min && since.elapsed().as_secs_f64() >= s,
        }
    }
}

fn one_workload(w: &Workload, args: &Args) -> Result<ExitCode, String> {
    let started = Instant::now();
    let (untraced, traced) = (args.trace != Some(true), args.trace != Some(false));
    let mut m = Measured::default();
    let ref_before = if traced { host::ref_walk_ms(REF_WALKS) } else { Vec::new() };

    // Cold children first, while this process is still small.
    let mut cold_digests = Vec::new();
    if untraced {
        for _ in 0..if args.quick { 1 } else { w.cold_children } {
            m.attempted += 1;
            match spawn_cold(w, args.seed) {
                Ok((wall_s, rss_mib, digest)) => {
                    m.end_to_end.entry("setup_s").or_default().push(wall_s);
                    m.end_to_end.entry("peak_rss_mib").or_default().push(rss_mib);
                    cold_digests.push(digest);
                }
                Err(e) => m.fail(format!("cold child of {}: {e}", w.name)),
            }
        }
    }

    // Every run must reproduce one digest: the cold children's, or —
    // where there are none, and always outside --quick — a warm-up run's,
    // which also lets caches fill and lazy set-up finish before timing.
    let input = (w.input)(args.seed)?;
    let mut digests = cold_digests;
    if !args.quick || digests.is_empty() {
        digests.push(adapter::run(&input)?.digest());
    }
    m.digest = digests[0];
    if let Some(d) = digests.iter().find(|&&d| d != m.digest) {
        m.fail(format!("cold children and warm-up disagree: {d:016x} and {:016x}", m.digest));
    }

    if untraced {
        let budget = match (args.seconds, args.quick) {
            (Some(s), _) => Budget::Seconds(s, 3),
            (None, true) => Budget::Repeats(2),
            (None, false) => Budget::Repeats(w.repeats),
        };
        timed_pass(&input, budget, &mut m);
    }
    if traced {
        let budget = match (args.seconds, args.quick) {
            (Some(s), _) => Budget::Seconds(s, 2),
            (None, true) => Budget::Repeats(1),
            (None, false) => Budget::Repeats(w.traced_repeats),
        };
        let tracer = traced_pass(w, &input, args.seed, budget, &mut m);
        let path = format!("results/ledger_trace.{}.jsonl", w.name);
        let written = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        if let Err(e) = written {
            m.fail(format!("writing {path}: {e}"));
        }
        let host_ref = m.lanes.entry("host.ref_ms").or_default();
        host_ref.extend(ref_before);
        host_ref.extend(host::ref_walk_ms(REF_WALKS));
        m.lanes.entry("host.nproc").or_default().push(host::nproc() as f64);
    }
    m.check_names(untraced);
    if untraced {
        m.end_to_end.insert("failed_share", vec![m.failed as f64 / m.attempted.max(1) as f64]);
    }

    let doc = report(w, args, &m, started.elapsed());
    println!("{}", doc.to_string_compact());
    Ok(if m.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn spawn_cold(w: &Workload, seed: u64) -> Result<(f64, f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string(), "--cold"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let doc = adapter::parse_json(String::from_utf8_lossy(&out.stdout).trim())
        .map_err(|e| e.to_string())?;
    let digest: String = doc.field("digest").map_err(|e| e.to_string())?;
    let digest = u64::from_str_radix(&digest, 16).map_err(|e| e.to_string())?;
    let rss: f64 = doc.field("peak_rss_mib").map_err(|e| e.to_string())?;
    Ok((wall_s, rss, digest))
}

/// The untraced, closed-loop pass the end-to-end metrics come from: the
/// next run starts when the previous one finished and its results were
/// dropped. Every run is a sample; which statistic of them a metric
/// reports is the catalog's [`Stat`].
fn timed_pass(input: &Input, budget: Budget, m: &mut Measured) {
    let since = Instant::now();
    let mut repeats = 0;
    while !budget.done(repeats, since) {
        repeats += 1;
        m.attempted += 1;
        let start = Instant::now();
        let outcome = adapter::run(input);
        let ran = start.elapsed();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                m.fail(format!("timed run {repeats}: {e}"));
                continue;
            }
        };
        let (digest, sim_s) = (outcome.digest(), outcome.sim_s());
        if let Some(err) = outcome.paper_err_pp() {
            m.end_to_end.entry("paper_err_pp").or_default().push(err);
        }
        m.count_scrapes(&outcome, &format!("timed run {repeats}"));
        if let Some(scrapes) = &outcome.scrapes {
            let pooled: Vec<u64> = scrapes.latencies_ns.iter().flatten().copied().collect();
            let p50 = percentile_ns(&pooled, 50.0, 1e6);
            m.end_to_end.entry("scrape_ms_p50").or_default().push(p50);
        }
        let start = Instant::now();
        drop(outcome);
        let wall = (ran + start.elapsed()).as_secs_f64();
        if digest != m.digest {
            m.fail(format!(
                "timed run {repeats} simulated {digest:016x}, the reference run {:016x}",
                m.digest
            ));
        }
        m.end_to_end.entry("wall_ms_p10").or_default().push(wall * 1e3);
        m.end_to_end.entry("sim_s_per_wall_s").or_default().push(sim_s / wall);
    }
}

/// The traced pass the per-layer lanes come from. Each repeat runs the
/// workload twice — through the user's doors (`driver.session`) and
/// re-composed with spans (`driver.composed`) — so the difference between
/// the two is the tracing overhead.
fn traced_pass(w: &Workload, input: &Input, seed: u64, budget: Budget, m: &mut Measured) -> Tracer {
    let mut tr = Tracer::new();
    let since = Instant::now();
    let mut repeats = 0;
    while !budget.done(repeats, since) {
        repeats += 1;
        let run = tr.begin_run();
        type Pass = fn(&Input, &mut Tracer) -> Result<adapter::Outcome, String>;
        let passes: [(&str, &str, Pass); 2] = [
            ("driver.session", "driver.session.drop", |input, _| adapter::run(input)),
            ("driver.composed", "driver.composed.drop", adapter::run_traced),
        ];
        for (span, drop_span, pass) in passes {
            m.attempted += 1;
            let id = tr.enter(span);
            let outcome = pass(input, &mut tr);
            tr.exit(id);
            match outcome {
                Ok(outcome) => {
                    let digest = outcome.digest();
                    m.count_scrapes(&outcome, &format!("{span} of traced repeat {repeats}"));
                    tr.span(drop_span, || drop(outcome));
                    if digest != m.digest {
                        m.fail(format!(
                            "{span} of traced repeat {repeats} simulated {digest:016x}, the reference run {:016x}",
                            m.digest
                        ));
                    }
                }
                Err(e) => m.fail(format!("{span} of traced repeat {repeats}: {e}")),
            }
        }
        if w.collector_pass {
            if let Err(e) = adapter::trace_pass(input, &mut tr) {
                m.fail(format!("collector pass of traced repeat {repeats}: {e}"));
            }
        }
        adapter::tuner_pass(seed, &mut tr);
        for (name, v) in
            lanes::of_run(&tr, run, input.processes(), input.proc_epochs(), host::nproc())
        {
            m.lanes.entry(name).or_default().push(v);
        }
    }
    tr
}

/// The statistic of `s` a metric reports as its value.
fn value_of(s: &Summary, stat: Stat, better: Better) -> f64 {
    match (stat, better) {
        (Stat::Median, _) => s.p50,
        (Stat::FastDecile, Better::Lower) => s.p10,
        (Stat::FastDecile, Better::Higher) => s.p90,
    }
}

fn metric_json(layer: &str, unit: &str, value: f64, s: &Summary, contract: bool) -> Json {
    let mut fields =
        vec![("value".to_string(), Json::F64(value)), ("unit".into(), Json::Str(unit.into()))];
    if !contract {
        fields.push(("p25".into(), Json::F64(s.p25)));
        fields.push(("p50".into(), Json::F64(s.p50)));
        fields.push(("p75".into(), Json::F64(s.p75)));
        fields.push(("n".into(), Json::U64(s.n as u64)));
        fields.push(("layer".into(), Json::Str(layer.into())));
    }
    Json::Object(fields)
}

/// The table on stderr, and the JSON object for stdout: with `--trace`
/// given exactly what the benchmark contract wants (every catalog name
/// of the pass, nothing else), otherwise the workload's full entry of
/// the artifact.
fn report(w: &Workload, args: &Args, m: &Measured, took: Duration) -> Json {
    let contract = args.trace.is_some();
    let mut metrics = Vec::new();
    eprintln!("{}: {}", w.name, w.why);
    eprintln!(
        "  {:<30} {:>14} {:<12} {:>14} {:>14} {:>14} {:>4}  layer",
        "metric", "value", "unit", "p25", "median", "p75", "n"
    );
    let mut row = |layer: &str, name: &str, unit: &str, stat: Stat, better, samples: &[f64]| {
        let s = Summary::of(samples);
        let value = value_of(&s, stat, better);
        eprintln!(
            "  {name:<30} {value:>14.4} {unit:<12} {:>14.4} {:>14.4} {:>14.4} {:>4}  {layer}",
            s.p25, s.p50, s.p75, s.n
        );
        metrics.push((name.to_string(), metric_json(layer, unit, value, &s, contract)));
    };
    if args.trace != Some(true) {
        // The contract line carries the metrics every workload has; the
        // artifact also those only this one has.
        for e in catalog::END_TO_END.iter().filter(|e| e.everywhere || !contract) {
            if let Some(samples) = m.end_to_end.get(e.name) {
                row("end_to_end", e.name, e.unit, e.stat, e.better, samples);
            }
        }
    }
    if args.trace != Some(false) {
        for &(name, unit, better) in catalog::LANES.iter() {
            let mut row =
                |samples| row(catalog::layer_of(name), name, unit, Stat::Median, better, samples);
            match m.lanes.get(name) {
                Some(samples) => row(samples),
                // The contract wants every lane on every run: one that
                // does not apply to this workload reads 0 there, and is
                // left out of the artifact.
                None if contract => row(&[0.0]),
                None => {}
            }
        }
    }
    eprintln!(
        "  {} operations, {} failed, sim_digest {:016x}, {:.1} s",
        m.attempted,
        m.failed,
        m.digest,
        took.as_secs_f64()
    );
    let mut fields = vec![
        ("correct".to_string(), Json::Bool(m.failed == 0)),
        ("attempted".into(), Json::U64(m.attempted.max(1))),
        ("failed".into(), Json::U64(m.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ];
    if !contract {
        let problems = m.problems.iter().map(|p| Json::Str(p.clone())).collect();
        fields.extend([
            ("sim_digest".to_string(), Json::Str(format!("{:016x}", m.digest))),
            ("seed".into(), Json::U64(args.seed)),
            ("quick".into(), Json::Bool(args.quick)),
            ("in_benchmark_json".into(), Json::Bool(w.in_benchmark_json)),
            ("child_wall_s".into(), Json::F64(took.as_secs_f64())),
            ("problems".into(), Json::Array(problems)),
        ]);
    }
    Json::Object(fields)
}

/// The whole ledger: one child per workload, so that host peak memory
/// and cold set-up are per workload, merged into one artifact.
fn every_workload(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in catalog::WORKLOADS.iter() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{}: the child printed nothing", w.name))
            .and_then(|line| adapter::parse_json(line).map_err(|e| format!("{}: {e}", w.name)))?;
        all_correct &= out.status.success() && doc.field::<bool>("correct").unwrap_or(false);
        workloads.push((w.name.to_string(), doc));
    }
    let artifact = Json::Object(vec![
        ("schema".to_string(), Json::Str("daos-ledger/1".into())),
        ("seed".into(), Json::U64(args.seed)),
        ("quick".into(), Json::Bool(args.quick)),
        ("nproc".into(), Json::U64(host::nproc() as u64)),
        ("thread_cap".into(), Json::U64(host::thread_cap() as u64)),
        ("wall_s".into(), Json::F64(started.elapsed().as_secs_f64())),
        ("correct".into(), Json::Bool(all_correct)),
        ("workloads".into(), Json::Object(workloads)),
    ])
    .to_string_compact();
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{artifact}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{artifact}");
    eprintln!(
        "ledger: {} workloads in {:.1} s",
        catalog::WORKLOADS.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
