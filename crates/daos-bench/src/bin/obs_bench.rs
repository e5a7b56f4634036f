//! The obs plane under fire: storms of concurrent keep-alive clients
//! hammer a live `ObsServer`'s `/metrics`, `/snapshot`, `/events`,
//! `/statusz`, and `/query` (metric-history) endpoints, recording
//! sustained RPS and p50/p95/p99 request latency
//! per endpoint into `BENCH_obs.json` at the repo root as the
//! regression baseline. Before writing, the harness cross-checks the
//! server's own `daos_obs_http_requests_total{endpoint=...}`
//! self-telemetry against the client-side request counts — the artifact
//! is only committed if the server counted every request.
//!
//! `obs_bench --quick` shrinks the storm for CI smoke runs;
//! `DAOS_BENCH_OUT` overrides the output path;
//! `--check FILE [--baseline BASE --margin PCT]` gates the committed
//! baseline exactly like `pipeline --check` (exit 65 on a regression).

use daos_bench::artifact::{self, LoadStats};
use daos_obs::http::{http_get, HttpClient};
use daos_obs::{prom, ObsConfig, ObsServer, ObsSnapshot, Publisher};
use daos_trace::{Collector, Event, Registry};
use daos_util::json::Json;
use std::time::{Duration, Instant};

/// The latencies gated against the committed baseline (on `p50_ns`,
/// the storm's median).
const GATED: [&str; 5] =
    ["obs/metrics", "obs/snapshot", "obs/events", "obs/statusz", "obs/query"];

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A publisher that looks like a real finished run: a snapshot with a
/// populated registry (scheme counters, per-tenant aggregates, span
/// histograms) and a synced event tail, so every endpoint serves
/// realistic payloads. Finished means `/events` drains and terminates —
/// one bounded request per storm iteration.
fn synthetic_publisher() -> Publisher {
    let mut reg = Registry::new();
    reg.counter_add("monitor.work_ns", 48_000_000);
    reg.counter_add("monitor.nr_checks", 120_000);
    for i in 0..4u32 {
        reg.counter_add(&format!("scheme.{i}.nr_applied"), 100 + i as u64 * 37);
        reg.counter_add(&format!("scheme.{i}.sz_applied"), (64 << 20) + ((i as u64) << 12));
    }
    for t in 0..16u32 {
        reg.counter_add(&format!("tenant.t{t}.rss_bytes"), (t as u64 + 1) << 24);
        reg.counter_add(&format!("tenant.t{t}.nr_processes"), 8);
    }
    for v in 0..4096u64 {
        reg.hist_record("span.sample_ns", v * 13 % 100_000);
    }
    let publisher = Publisher::new();
    publisher.publish(ObsSnapshot {
        seq: 1,
        config: "obs-bench".into(),
        workload: "synthetic".into(),
        machine: "bench".into(),
        epoch: 99,
        nr_epochs: 100,
        now_ns: 1_000_000_000,
        wss_bytes: 512 << 20,
        registry: reg,
        ..Default::default()
    });
    let mut c = Collector::builder().ring_capacity(1024).build().expect("collector");
    for at in 0..512u64 {
        c.record(at * 1000, Event::RegionSplit { before: at, after: at + 1 });
    }
    publisher.sync_ring(c.ring());
    publisher.finish();
    publisher
}

/// One storm: `clients` threads, each issuing `requests` sequential
/// requests to `path` and timing every one. Keep-alive clients hold one
/// connection for all their requests; one-shot storms (`/events`, whose
/// chunked stream always ends with the connection) reconnect per
/// request. Returns the merged latency distribution.
fn storm(
    addr: std::net::SocketAddr,
    path: &'static str,
    clients: usize,
    requests: usize,
    keep_alive: bool,
) -> LoadStats {
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(requests);
                let mut client = keep_alive
                    .then(|| HttpClient::connect(addr, CLIENT_TIMEOUT).expect("connect"));
                for _ in 0..requests {
                    let t0 = Instant::now();
                    let resp = match &mut client {
                        Some(c) => c.get(path).expect("request"),
                        None => http_get(addr, path, CLIENT_TIMEOUT).expect("request"),
                    };
                    assert_eq!(resp.status, 200, "{path} under load");
                    assert!(!resp.body.is_empty(), "{path} served a body");
                    lat.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                }
                lat
            })
        })
        .collect();
    let mut all = Vec::with_capacity(clients * requests);
    for w in workers {
        all.extend(w.join().expect("storm client panicked"));
    }
    let wall = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    artifact::load_stats(all, wall).expect("non-empty storm")
}

/// One scrape of `/metrics`, returning the server's own
/// `daos_obs_http_requests_total` per endpoint label. A single scrape
/// keeps the counts consistent: what it reports is the state *before*
/// the scrape request itself.
fn server_side_counts(addr: std::net::SocketAddr) -> Vec<(String, u64)> {
    let resp = http_get(addr, "/metrics", CLIENT_TIMEOUT).expect("scrape /metrics");
    let samples = prom::parse_exposition(&resp.body).unwrap_or_else(|e| {
        eprintln!("obs_bench: /metrics is not valid exposition: {e}");
        std::process::exit(70);
    });
    samples
        .iter()
        .filter(|s| s.name == "daos_obs_http_requests_total")
        .filter_map(|s| match s.labels.as_slice() {
            [(k, v)] if k == "endpoint" => Some((v.clone(), s.value as u64)),
            _ => None,
        })
        .collect()
}

/// Storm every endpoint of a live server and return the artifact.
fn measure(quick: bool) -> Json {
    let (clients, requests) = if quick { (20, 5) } else { (200, 25) };

    let publisher = synthetic_publisher();
    let server = ObsServer::bind_with(
        "127.0.0.1:0",
        publisher,
        ObsConfig { workers: 4, max_connections: 512, ..ObsConfig::default() },
    )
    .unwrap_or_else(|e| {
        eprintln!("obs_bench: cannot bind the obs server: {e}");
        std::process::exit(74);
    });
    let addr = server.addr();
    println!(
        "obs_bench: {clients} clients x {requests} requests per endpoint \
         against {addr} (4 workers)"
    );

    // Keep-alive storms for the snapshot-backed endpoints; `/events` is
    // one request per connection by design (chunked, Connection: close).
    let plan: [(&str, &str, bool); 5] = [
        ("obs/metrics", "/metrics", true),
        ("obs/snapshot", "/snapshot", true),
        ("obs/events", "/events", false),
        ("obs/statusz", "/statusz", true),
        ("obs/query", "/query?metric=daos_obs_seq", true),
    ];
    let mut results: Vec<(String, LoadStats)> = Vec::new();
    for (bench, path, keep_alive) in plan {
        let stats = storm(addr, path, clients, requests, keep_alive);
        println!(
            "{bench}: {:.0} req/s sustained, p50 {:.0} ns, p95 {:.0} ns, p99 {:.0} ns \
             ({} requests)",
            stats.rps, stats.p50_ns, stats.p95_ns, stats.p99_ns, stats.iters
        );
        results.push((bench.to_string(), stats));
    }

    // The server must have counted exactly what the clients sent; the
    // final verification scrape reports the pre-scrape totals, so every
    // endpoint — /metrics included — pins to clients * requests.
    let expected = (clients * requests) as u64;
    let counts = server_side_counts(addr);
    for endpoint in ["metrics", "snapshot", "events", "statusz", "query"] {
        let counted =
            counts.iter().find(|(e, _)| e == endpoint).map(|(_, n)| *n).unwrap_or(0);
        if counted != expected {
            eprintln!(
                "obs_bench: server counted {counted} {endpoint} requests, \
                 clients sent {expected} — refusing to write the artifact"
            );
            std::process::exit(70);
        }
    }
    println!("obs_bench: server-side request totals match client-side counts");

    artifact::load_artifact_doc("obs", quick, &results)
}

fn main() {
    let (mut out, mut err) = (std::io::stdout(), std::io::stderr());
    std::process::exit(artifact::bench_main("obs_bench", &GATED, &mut out, &mut err, measure));
}
