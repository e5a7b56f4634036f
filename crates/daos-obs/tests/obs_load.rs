//! Load-shaped integration tests for the worker-pool obs server: a
//! keep-alive client storm whose client-side request count is
//! equality-pinned to the server's `daos_obs_http_requests_total`
//! self-telemetry, explicit 503 backpressure at saturation, shutdown
//! under live load, and an `/events` streamer that frees its pump when
//! the client vanishes mid-stream.

use daos_obs::http::{http_get, HttpClient};
use daos_obs::{prom, Endpoint, ObsConfig, ObsServer, ObsSnapshot, Publisher};
use std::thread;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(10);

fn serve(cfg: ObsConfig) -> (ObsServer, Publisher) {
    let publisher = Publisher::new();
    publisher.publish(ObsSnapshot { seq: 1, epoch: 4, nr_epochs: 8, ..Default::default() });
    let server = ObsServer::bind_with("127.0.0.1:0", publisher.clone(), cfg).unwrap();
    (server, publisher)
}

/// Poll `cond` until it holds or `deadline` elapses.
fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn keepalive_storm_counts_match_client_side_exactly() {
    const CLIENTS: usize = 12;
    const REQUESTS: usize = 20;
    let (server, _publisher) = serve(ObsConfig { workers: 4, ..Default::default() });
    let addr = server.addr();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            thread::spawn(move || {
                let mut client = HttpClient::connect(addr, T).unwrap();
                let mut ok = 0usize;
                for _ in 0..REQUESTS {
                    let resp = client.get("/snapshot").unwrap();
                    assert_eq!(resp.status, 200);
                    assert!(!resp.body.is_empty());
                    ok += 1;
                }
                ok
            })
        })
        .collect();
    let client_side: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(client_side, CLIENTS * REQUESTS, "every storm request succeeded");

    // The server's own count is *equal* to the client-side count — no
    // lost or double-counted requests.
    assert_eq!(server.requests_total(Endpoint::Snapshot), client_side as u64);
    // Each connection's 2nd..Nth request is a keep-alive reuse.
    assert_eq!(
        server.telemetry().counter("obs.server.keepalive_reuse_total"),
        (CLIENTS * (REQUESTS - 1)) as u64
    );
    assert_eq!(server.rejected_total(), 0, "default bound admits the whole storm");

    // And the same number self-reports through /metrics as the
    // daos_obs_http_* label family.
    let metrics = http_get(addr, "/metrics", T).unwrap();
    assert_eq!(metrics.status, 200);
    let samples = prom::parse_exposition(&metrics.body).unwrap();
    let snapshot_total = samples
        .iter()
        .find(|s| {
            s.name == "daos_obs_http_requests_total"
                && s.labels == vec![("endpoint".to_string(), "snapshot".to_string())]
        })
        .expect("snapshot family present");
    assert_eq!(snapshot_total.value, client_side as f64);
    // The latency histogram family saw the same traffic.
    let hist_count = samples
        .iter()
        .find(|s| {
            s.name == "daos_obs_http_request_ns_count"
                && s.labels == vec![("endpoint".to_string(), "snapshot".to_string())]
        })
        .expect("latency family present");
    assert_eq!(hist_count.value, client_side as f64);
}

#[test]
fn saturation_returns_503_with_retry_after_then_recovers() {
    let (server, _publisher) = serve(ObsConfig { workers: 2, max_connections: 2 });
    let addr = server.addr();

    // Two keep-alive clients occupy the whole admission budget.
    let mut a = HttpClient::connect(addr, T).unwrap();
    let mut b = HttpClient::connect(addr, T).unwrap();
    assert_eq!(a.get("/healthz").unwrap().status, 200);
    assert_eq!(b.get("/healthz").unwrap().status, 200);
    assert_eq!(server.telemetry().gauge("obs.server.in_flight"), Some(2.0));

    // The next connection is answered 503 + Retry-After, not hung.
    let resp = http_get(addr, "/healthz", T).unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(server.rejected_total() >= 1);

    // Still saturated: the held connections keep working the whole time.
    assert_eq!(a.get("/snapshot").unwrap().status, 200);

    // Releasing one admits new clients again once the server reaps it.
    drop(b);
    assert!(
        eventually(T, || matches!(http_get(addr, "/healthz", T), Ok(r) if r.status == 200)),
        "a freed slot re-admits connections"
    );
}

#[test]
fn shutdown_under_live_load_joins_cleanly() {
    let (mut server, _publisher) = serve(ObsConfig { workers: 3, ..Default::default() });
    let addr = server.addr();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            thread::spawn(move || {
                // Hammer until the server goes away; short timeouts keep
                // the post-shutdown error prompt.
                let timeout = Duration::from_secs(2);
                let mut served = 0usize;
                loop {
                    let Ok(mut client) = HttpClient::connect(addr, timeout) else { break };
                    loop {
                        match client.get("/metrics") {
                            Ok(resp) if resp.status == 200 => served += 1,
                            _ => break,
                        }
                    }
                }
                served
            })
        })
        .collect();

    // Let the storm build, then pull the plug mid-flight.
    assert!(eventually(T, || server.requests_total(Endpoint::Metrics) > 20));
    server.shutdown();
    let total: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(total > 20, "the storm was really in flight: {total}");
    assert!(http_get(addr, "/healthz", Duration::from_millis(500)).is_err());
}

#[test]
fn events_client_vanishing_mid_stream_frees_the_pump() {
    use daos_trace::{Collector, Event};
    // One worker: if the dead stream pinned it forever, nothing else
    // could ever be served.
    let (server, publisher) = serve(ObsConfig { workers: 1, ..Default::default() });
    let addr = server.addr();

    let mut c = Collector::builder().ring_capacity(64).build().unwrap();
    let mut at = 0u64;
    c.record(at, Event::RegionSplit { before: 0, after: 1 });
    publisher.sync_ring(c.ring());

    // Open a raw /events stream, read the response head, then vanish.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(T)).unwrap();
        raw.write_all(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut head = [0u8; 64];
        let n = raw.read(&mut head).unwrap();
        assert!(n > 0, "stream started");
    } // dropped: client is gone, server doesn't know yet

    assert!(
        eventually(T, || {
            // Fresh events force the streamer to write into the dead
            // socket; the write error closes it and frees the pump.
            at += 1;
            c.record(at, Event::RegionSplit { before: at, after: at + 1 });
            publisher.sync_ring(c.ring());
            server.telemetry().gauge("obs.server.in_flight") == Some(0.0)
        }),
        "write error reaps the dead stream"
    );
    // The single worker is live again.
    let resp = http_get(addr, "/healthz", T).unwrap();
    assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));
    assert_eq!(server.requests_total(Endpoint::Events), 1, "the dead stream was recorded");
}
