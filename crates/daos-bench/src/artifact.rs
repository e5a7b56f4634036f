//! Bench-artifact machinery shared by the `pipeline`, `fleet_bench` and
//! `obs_bench` binaries: artifact JSON assembly, the committed-baseline
//! regression gate that `scripts/verify.sh` drives via `--check
//! --baseline`, and [`bench_main`], the one `main` all three share.

use std::ffi::OsString;
use std::io::Write;
use std::path::PathBuf;

use daos_util::bench::Timing;
use daos_util::json::Json;
use daos_util::pool::WorkerPool;

/// How far past its baseline a gated lane may read before the gate
/// fails, in percent. Min-of-N moves only with a systematic slowdown,
/// so this holds on a shared machine and still catches a real
/// regression; it changes only in a diff that says so.
pub const GATE_MARGIN_PCT: f64 = 50.0;

/// One [`Timing`] as the artifact's per-bench JSON object.
pub fn timing_json(t: &Timing) -> Json {
    Json::Object(vec![
        ("median_ns".into(), Json::F64(t.median_ns)),
        ("min_ns".into(), Json::F64(t.min_ns)),
        ("max_ns".into(), Json::F64(t.max_ns)),
        ("iters".into(), Json::U64(t.iters)),
    ])
}

/// The host's available parallelism, recorded in every artifact: a
/// baseline only gates runs on a comparable machine.
fn nproc() -> Json {
    Json::U64(WorkerPool::default_parallelism() as u64)
}

/// The full artifact document for a harness run.
pub fn artifact_doc(bench: &str, samples: usize, results: &[(String, Timing)]) -> Json {
    let results: Vec<(String, Json)> =
        results.iter().map(|(name, t)| (name.clone(), timing_json(t))).collect();
    Json::Object(vec![
        ("bench".into(), Json::Str(bench.into())),
        ("samples".into(), Json::U64(samples as u64)),
        ("nproc".into(), nproc()),
        ("results".into(), Json::Object(results)),
    ])
}

/// A measured latency distribution plus sustained rate — the
/// per-endpoint result shape of the `obs_bench` load harness.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    /// Median request latency (the gated statistic of a load lane).
    pub p50_ns: f64,
    /// 95th-percentile request latency.
    pub p95_ns: f64,
    /// 99th-percentile request latency.
    pub p99_ns: f64,
    /// Fastest request.
    pub min_ns: f64,
    /// Slowest request.
    pub max_ns: f64,
    /// Sustained requests per second over the whole storm.
    pub rps: f64,
    /// Requests measured.
    pub iters: u64,
}

/// Aggregate raw per-request latencies plus the storm's wall time into
/// a [`LoadStats`]. Returns `None` for an empty sample set.
pub fn load_stats(mut lat_ns: Vec<u64>, wall_ns: u64) -> Option<LoadStats> {
    if lat_ns.is_empty() {
        return None;
    }
    lat_ns.sort_unstable();
    let pct = |p: f64| -> f64 {
        let idx = ((p / 100.0) * (lat_ns.len() - 1) as f64).round() as usize;
        lat_ns[idx.min(lat_ns.len() - 1)] as f64
    };
    Some(LoadStats {
        p50_ns: pct(50.0),
        p95_ns: pct(95.0),
        p99_ns: pct(99.0),
        min_ns: lat_ns[0] as f64,
        max_ns: lat_ns[lat_ns.len() - 1] as f64,
        rps: lat_ns.len() as f64 / (wall_ns.max(1) as f64 / 1e9),
        iters: lat_ns.len() as u64,
    })
}

/// One [`LoadStats`] as the artifact's per-bench JSON object; its
/// `p50_ns` key is what marks a load lane for [`gated_ns`].
pub fn load_json(s: &LoadStats) -> Json {
    Json::Object(vec![
        ("p50_ns".into(), Json::F64(s.p50_ns)),
        ("p95_ns".into(), Json::F64(s.p95_ns)),
        ("p99_ns".into(), Json::F64(s.p99_ns)),
        ("min_ns".into(), Json::F64(s.min_ns)),
        ("max_ns".into(), Json::F64(s.max_ns)),
        ("rps".into(), Json::F64(s.rps)),
        ("iters".into(), Json::U64(s.iters)),
    ])
}

/// The full artifact document for a load-harness run (the
/// `obs_bench` shape: [`LoadStats`] per endpoint instead of
/// [`Timing`] per bench).
pub fn load_artifact_doc(bench: &str, results: &[(String, LoadStats)]) -> Json {
    let results: Vec<(String, Json)> =
        results.iter().map(|(name, s)| (name.clone(), load_json(s))).collect();
    Json::Object(vec![
        ("bench".into(), Json::Str(bench.into())),
        ("nproc".into(), nproc()),
        ("results".into(), Json::Object(results)),
    ])
}

/// Artifact output path: the `DAOS_BENCH_OUT` override, or `file` in
/// the working directory — never the checkout the binary was built
/// from, whose committed baseline a run from elsewhere would overwrite.
pub fn out_path(file: &str) -> PathBuf {
    out_path_with(std::env::var_os("DAOS_BENCH_OUT"), file)
}

/// [`out_path`] for a given value of `DAOS_BENCH_OUT`.
fn out_path_with(bench_out: Option<OsString>, file: &str) -> PathBuf {
    bench_out.map_or_else(|| PathBuf::from(file), PathBuf::from)
}

/// Parse an artifact's text into JSON.
pub fn parse_artifact(text: &str) -> Result<Json, String> {
    daos_util::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))
}

/// The one statistic the gate compares for `bench`, if the artifact has
/// it: a load lane's `p50_ns` (a request storm's minimum is one lucky
/// request), a timing lane's `min_ns` (min-of-N moves only with a
/// systematic slowdown, where the median moves with scheduler noise).
pub fn gated_ns(doc: &Json, bench: &str) -> Option<f64> {
    let lane = doc.get("results").and_then(|r| r.get(bench))?;
    match lane.get("p50_ns").or_else(|| lane.get("min_ns")) {
        Some(Json::F64(v)) => Some(*v),
        Some(Json::U64(v)) => Some(*v as f64),
        _ => None,
    }
}

/// One gated comparison against the committed baseline.
pub struct GateCheck {
    /// The gated bench name.
    pub bench: String,
    /// The fresh [`gated_ns`].
    pub got_ns: f64,
    /// The baseline's.
    pub reference_ns: f64,
    /// The pass bound: baseline plus [`GATE_MARGIN_PCT`].
    pub bound_ns: f64,
}

impl GateCheck {
    /// Whether this bench exceeded its bound.
    pub fn regressed(&self) -> bool {
        self.got_ns > self.bound_ns
    }
}

/// Compare every gated lane's [`gated_ns`] in `doc` against `base` with
/// a [`GATE_MARGIN_PCT`] allowance. `Err` names the first bench either
/// artifact is missing the statistic for.
pub fn gate(doc: &Json, base: &Json, gated: &[&str]) -> Result<Vec<GateCheck>, String> {
    gated
        .iter()
        .map(|&bench| {
            let got_ns = gated_ns(doc, bench)
                .ok_or_else(|| format!("artifact has no gate statistic for {bench}"))?;
            let reference_ns = gated_ns(base, bench)
                .ok_or_else(|| format!("baseline has no gate statistic for {bench}"))?;
            let bound_ns = reference_ns * (1.0 + GATE_MARGIN_PCT / 100.0);
            Ok(GateCheck { bench: bench.to_string(), got_ns, reference_ns, bound_ns })
        })
        .collect()
}

/// The value following `flag` in `argv`, if any.
pub fn flag_value<'a>(argv: &'a [String], flag: &str) -> Option<&'a str> {
    argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(|s| s.as_str())
}

/// Why a bench binary stops early: its exit code and the message for
/// stderr.
type Failure = (i32, String);

fn read_artifact(name: &str, path: &str) -> Result<Json, Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| (74, format!("{name} --check: cannot read {path}: {e}")))?;
    parse_artifact(&text).map_err(|e| (65, format!("{name} --check: {path} is {e}")))
}

/// `<name> --check FILE [--baseline BASE]`: 0 iff FILE parses as a
/// bench artifact and (when a baseline is given) no `gated` lane's
/// [`gated_ns`] exceeds the baseline's by more than [`GATE_MARGIN_PCT`];
/// 65 on a regression — the verify.sh perf gate.
fn check(
    name: &str,
    gated: &[&str],
    argv: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<i32, Failure> {
    let path = flag_value(argv, "--check")
        .ok_or_else(|| (64, format!("{name} --check needs a file argument")))?;
    let doc = read_artifact(name, path)?;
    let Some(base_path) = flag_value(argv, "--baseline") else { return Ok(0) };
    let base = read_artifact(name, base_path)?;
    let checks = gate(&doc, &base, gated)
        .map_err(|e| (65, format!("{name} --check: {e}")))?;
    let mut code = 0;
    for c in &checks {
        // A closed pipe must not turn a verdict into a panic.
        let _ = if c.regressed() {
            code = 65;
            writeln!(
                err,
                "{name} --check: {} regressed: {:.0} ns > {:.0} ns \
                 (baseline {:.0} ns + {GATE_MARGIN_PCT}% margin)",
                c.bench, c.got_ns, c.bound_ns, c.reference_ns
            )
        } else {
            writeln!(
                out,
                "{name} --check: {} ok: {:.0} ns <= {:.0} ns",
                c.bench, c.got_ns, c.bound_ns
            )
        };
    }
    Ok(code)
}

/// Measure through `run()` and write the artifact it returns to
/// `BENCH_<its "bench" field>.json` ([`out_path`]), once it re-parses
/// and carries the gate statistic for every `gated` bench.
fn measure(
    name: &str,
    gated: &[&str],
    out: &mut dyn Write,
    run: impl FnOnce() -> Json,
) -> Result<i32, Failure> {
    let doc = run();
    let text = doc.to_string_compact();
    parse_artifact(&text).map_err(|e| (70, format!("{name}: generated artifact is {e}")))?;
    for bench in gated {
        gated_ns(&doc, bench).ok_or_else(|| {
            (70, format!("{name}: generated artifact has no gate statistic for {bench}"))
        })?;
    }
    let bench: String = doc.field("bench").unwrap_or_default();
    let path = out_path(&format!("BENCH_{bench}.json"));
    std::fs::write(&path, format!("{text}\n"))
        .map_err(|e| (74, format!("{name}: cannot write {}: {e}", path.display())))?;
    let _ = writeln!(out, "[artifact] {}", path.display());
    Ok(0)
}

/// The `main` of the bench binary `name`, as its exit code: `--check`
/// gates an artifact against a baseline, anything else measures and
/// writes the artifact. Verdicts and the artifact path go to `out`,
/// failures to `err` — the binary hands in its stdout and stderr, this
/// library never prints.
pub fn bench_main(
    name: &str,
    gated: &[&str],
    out: &mut dyn Write,
    err: &mut dyn Write,
    run: impl FnOnce() -> Json,
) -> i32 {
    let argv: Vec<String> = std::env::args().collect();
    let result = if argv.iter().any(|a| a == "--check") {
        check(name, gated, &argv, out, err)
    } else {
        measure(name, gated, out, run)
    };
    result.unwrap_or_else(|(code, message)| {
        let _ = writeln!(err, "{message}");
        code
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_goes_to_the_override_or_the_working_directory() {
        let set = out_path_with(Some("/tmp/x.json".into()), "BENCH_t.json");
        assert_eq!(set, PathBuf::from("/tmp/x.json"));
        assert_eq!(out_path_with(None, "BENCH_t.json"), PathBuf::from("BENCH_t.json"));
    }

    /// A timing artifact whose median is noisy (3× the min).
    fn artifact(min: f64) -> Json {
        parse_artifact(&format!(
            r#"{{"bench":"t","results":{{"a/b":{{"median_ns":{},"min_ns":{min},"iters":3}}}}}}"#,
            3.0 * min
        ))
        .unwrap()
    }

    #[test]
    fn gate_compares_the_min_of_a_timing_lane() {
        let fresh = artifact(150.0);
        let base = artifact(100.0);
        assert_eq!(gated_ns(&fresh, "a/b"), Some(150.0));
        assert_eq!(gated_ns(&fresh, "a/missing"), None);

        assert!(gate(&fresh, &base, &["a/missing"]).is_err());
    }

    #[test]
    fn the_gate_margin_is_fifty_percent() {
        let base = artifact(1000.0);
        let at_bound = gate(&artifact(1500.0), &base, &["a/b"]).unwrap();
        assert_eq!(at_bound[0].bound_ns, 1500.0);
        assert!(!at_bound[0].regressed(), "exactly baseline x 1.5 passes");
        let past = gate(&artifact(1501.0), &base, &["a/b"]).unwrap();
        assert!(past[0].regressed(), "baseline x 1.5 + 1 ns regresses");
    }

    #[test]
    fn artifact_doc_round_trips() {
        let t = Timing { median_ns: 1.5, min_ns: 1.0, max_ns: 2.0, iters: 7 };
        let doc = artifact_doc("demo", 3, &[("x/y".into(), t)]);
        let text = doc.to_string_compact();
        let back = parse_artifact(&text).unwrap();
        assert_eq!(gated_ns(&back, "x/y"), Some(1.0));
        assert!(back.field::<u64>("nproc").unwrap() >= 1);
    }

    #[test]
    fn load_stats_percentiles_and_gateable_artifact() {
        assert!(load_stats(vec![], 1).is_none());
        // 1..=100 ns over a 10 µs wall: nearest-rank percentiles on the
        // sorted samples, rps from the wall clock.
        let lat: Vec<u64> = (1..=100).collect();
        let s = load_stats(lat, 10_000).unwrap();
        assert_eq!(s.p50_ns, 51.0);
        assert_eq!(s.p95_ns, 95.0);
        assert_eq!(s.p99_ns, 99.0);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.max_ns, 100.0);
        assert_eq!(s.iters, 100);
        assert!((s.rps - 1e7).abs() < 1e-6, "100 reqs / 10 µs = 1e7 rps");

        // The load artifact round-trips and is gated on its p50, not on
        // its min, through the same `gate` as the timing artifacts.
        let doc = load_artifact_doc("obs", &[("obs/metrics".into(), s)]);
        let back = parse_artifact(&doc.to_string_compact()).unwrap();
        assert_eq!(gated_ns(&back, "obs/metrics"), Some(51.0));
        let checks = gate(&back, &back, &["obs/metrics"]).unwrap();
        assert!(!checks[0].regressed(), "an artifact never regresses against itself");
    }

    #[test]
    fn flag_values_parse() {
        let argv: Vec<String> =
            ["bin", "--check", "f.json", "--baseline"].iter().map(|s| s.to_string()).collect();
        assert_eq!(flag_value(&argv, "--check"), Some("f.json"));
        assert_eq!(flag_value(&argv, "--baseline"), None, "a flag with no value");
    }
}
