//! The observability endpoint: an HTTP/1.1 server over a [`Publisher`],
//! built on a **fixed set of pump threads** instead of a thread per
//! connection.
//! Routes:
//!
//! - `GET /metrics` — [`prom::exposition`] of the latest snapshot as
//!   Prometheus text, the server's own telemetry included as
//!   `daos_obs_http_*{endpoint=...}` and `daos_obs_server_*` families
//! - `GET /snapshot` — the full [`ObsSnapshot`](crate::ObsSnapshot) as compact JSON
//! - `GET /events` — chunked live JSONL tail of the trace ring; streams
//!   until the run finishes, then drains and terminates
//! - `GET /healthz` — liveness probe (`ok`)
//! - `GET /statusz` — the same telemetry's `obs.server.*` /
//!   `obs.http.*` / `obs.history.*` keys as compact JSON (in-flight,
//!   accepted/rejected, per-endpoint p50/p99)
//! - `GET /query?metric=…[&since=…]` — one series' retained samples
//!   from the metric history as JSON points
//!
//! `HEAD` works everywhere (headers only); malformed requests get a
//! `400`; other methods get a `405`.
//!
//! ## Serving model
//!
//! Accepted connections join a shared queue; `workers` threads
//! ("pumps") take turns serving one request per connection pass, so a
//! fixed number of threads multiplexes every keep-alive connection.
//! A pump peeks each connection with a short timeout: data ready means
//! one full request is served (and the connection requeued), idle
//! connections are requeued until `KEEPALIVE_IDLE` (10 s) expires.
//! When [`ObsConfig::max_connections`] connections are already open, the
//! accept loop answers `503` with `Retry-After` and closes — saturation
//! is explicit backpressure, never an unbounded thread spawn. A live
//! `/events` stream pins its pump until the run finishes or the client
//! goes away (write errors exit the stream promptly).

use crate::http::{
    finish_chunked, read_request, start_chunked, write_chunk, write_response_with,
    Request, ResponseOpts,
};
use crate::prom;
use crate::publisher::Publisher;
use daos_trace::{Histogram, Registry};
use daos_util::json::{Json, ToJson};
use daos_util::pool::WorkerPool;
use daos_util::sync::{lock, wait_timeout};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often `/events` polls the publisher for fresh events.
const EVENTS_POLL: Duration = Duration::from_millis(50);

/// How long a pump waits on one idle connection's socket for the next
/// request before requeueing it and moving on.
const PEEK_TIMEOUT: Duration = Duration::from_millis(2);

/// How long an idle pump parks on the connection queue before
/// re-checking the stop flag.
const PUMP_IDLE: Duration = Duration::from_millis(50);

/// How long the accept loop waits for a rejected connection's request
/// before answering `503` — reading the request first keeps the
/// response from racing the client's write (a close with unread input
/// turns into a RST that can discard the 503 before the client sees
/// it).
const REJECT_DRAIN: Duration = Duration::from_millis(100);

/// Socket read timeout once a request has started arriving.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Socket write timeout (responses and `/events` chunks).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long an idle keep-alive connection is kept before closing.
const KEEPALIVE_IDLE: Duration = Duration::from_secs(10);

/// Tuning for the obs server's pump threads and admission policy.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Pump threads serving requests; `0` picks
    /// `default_parallelism` clamped to `[2, 8]`.
    pub workers: usize,
    /// Open-connection bound; the accept loop answers `503` beyond it.
    pub max_connections: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { workers: 0, max_connections: 256 }
    }
}

impl ObsConfig {
    fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            WorkerPool::default_parallelism().clamp(2, 8)
        } else {
            self.workers
        }
    }
}

/// The endpoints the server distinguishes in its self-telemetry; the
/// label value in `daos_obs_http_*{endpoint=...}` families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/healthz`.
    Healthz,
    /// `/metrics`.
    Metrics,
    /// `/snapshot`.
    Snapshot,
    /// `/events`.
    Events,
    /// `/statusz`.
    Statusz,
    /// `/query`.
    Query,
    /// Anything else (404s and non-GET/HEAD methods).
    Other,
}

const NR_ENDPOINTS: usize = 7;

/// One row per endpoint, in discriminant order: the request path it
/// answers (none for `Other`) and its `endpoint` label value (the
/// `obs.http.<key>.*` registry segment).
const ENDPOINTS: [(Endpoint, &str, &str); NR_ENDPOINTS] = [
    (Endpoint::Healthz, "/healthz", "healthz"),
    (Endpoint::Metrics, "/metrics", "metrics"),
    (Endpoint::Snapshot, "/snapshot", "snapshot"),
    (Endpoint::Events, "/events", "events"),
    (Endpoint::Statusz, "/statusz", "statusz"),
    (Endpoint::Query, "/query", "query"),
    (Endpoint::Other, "", "other"),
];

#[derive(Default)]
struct EndpointStats {
    requests: AtomicU64,
    request_ns: Mutex<Histogram>,
}

/// The server's self-telemetry: lock-free counters plus one mutexed
/// log2 latency histogram per endpoint, exported as registry keys on
/// demand so the handlers share no lock on the hot path. Each update is
/// self-contained, so the histograms recover from poison.
pub(crate) struct ServerStats {
    endpoints: [EndpointStats; NR_ENDPOINTS],
    accepted: AtomicU64,
    rejected: AtomicU64,
    bad_requests: AtomicU64,
    keepalive_reuse: AtomicU64,
    in_flight: AtomicU64,
    queued: AtomicU64,
    workers: usize,
    max_connections: usize,
}

impl ServerStats {
    fn new(workers: usize, max_connections: usize) -> ServerStats {
        ServerStats {
            endpoints: std::array::from_fn(|_| EndpointStats::default()),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            keepalive_reuse: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            workers,
            max_connections,
        }
    }

    fn record(&self, ep: Endpoint, started: Instant) {
        let s = &self.endpoints[ep as usize];
        // ordering: Relaxed — monotonic telemetry counter; readers only
        // ever observe it through point-in-time registry snapshots.
        s.requests.fetch_add(1, Ordering::Relaxed);
        lock(&s.request_ns).record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Write the telemetry into `reg` as `obs.http.<endpoint>.*` /
    /// `obs.server.*` keys. Every endpoint's request counter is there
    /// from the start, so the exported name set does not depend on the
    /// traffic so far; its histogram appears with its first request.
    pub(crate) fn export(&self, reg: &mut Registry) {
        // ordering: Relaxed throughout — monotonic counters and
        // advisory gauges read for a point-in-time scrape; exactness
        // across concurrent requests is not required.
        let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
        for (s, (_, _, key)) in self.endpoints.iter().zip(ENDPOINTS) {
            let requests = read(&s.requests);
            reg.counter_add(&format!("obs.http.{key}.requests_total"), requests);
            if requests > 0 {
                reg.hist_insert(&format!("obs.http.{key}.request_ns"), &lock(&s.request_ns));
            }
        }
        reg.counter_add("obs.server.accepted_total", read(&self.accepted));
        reg.counter_add("obs.server.rejected_total", read(&self.rejected));
        reg.counter_add("obs.server.bad_requests_total", read(&self.bad_requests));
        reg.counter_add("obs.server.keepalive_reuse_total", read(&self.keepalive_reuse));
        reg.gauge_set("obs.server.in_flight", read(&self.in_flight) as f64);
        reg.gauge_set("obs.server.queued_connections", read(&self.queued) as f64);
        reg.gauge_set("obs.server.workers", self.workers as f64);
        reg.gauge_set("obs.server.max_connections", self.max_connections as f64);
    }
}

/// One accepted connection moving through the queue between pump turns.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Requests already answered on this connection (keep-alive reuse).
    served: u64,
    idle_since: Instant,
}

struct Inner {
    publisher: Publisher,
    cfg: ObsConfig,
    stats: Arc<ServerStats>,
    stop: AtomicBool,
    queue: Mutex<VecDeque<Conn>>,
    queue_cv: Condvar,
}

impl Inner {
    fn close(&self, conn: Conn) {
        drop(conn);
        // ordering: Relaxed — in_flight is an advisory admission gauge;
        // a slightly stale value only shifts the 503 boundary by one.
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    fn requeue(&self, conn: Conn) {
        let mut q = lock(&self.queue);
        q.push_back(conn);
        // ordering: Relaxed — advisory queue-depth gauge.
        self.stats.queued.store(q.len() as u64, Ordering::Relaxed);
        drop(q);
        self.queue_cv.notify_one();
    }

    /// The `/statusz` body: the telemetry's `obs.server.*`,
    /// `obs.history.*` and per-endpoint `obs.http.*` keys as compact
    /// JSON, plus whether the run has finished.
    fn statusz(&self) -> String {
        let reg = self.publisher.telemetry();
        let counter = |key: &str| Json::U64(reg.counter(key));
        let gauge = |key: &str| Json::U64(reg.gauge(key).unwrap_or(0.0) as u64);
        let mut endpoints = Vec::new();
        for (_, _, key) in ENDPOINTS {
            let Some(h) = reg.hist(&format!("obs.http.{key}.request_ns")) else {
                continue;
            };
            endpoints.push((
                key.to_string(),
                Json::Object(vec![
                    ("requests_total".into(), counter(&format!("obs.http.{key}.requests_total"))),
                    ("p50_ns".into(), Json::U64(h.percentile(50.0))),
                    ("p99_ns".into(), Json::U64(h.percentile(99.0))),
                ]),
            ));
        }
        Json::Object(vec![
            ("workers".into(), gauge("obs.server.workers")),
            ("max_connections".into(), gauge("obs.server.max_connections")),
            ("in_flight".into(), gauge("obs.server.in_flight")),
            ("queued_connections".into(), gauge("obs.server.queued_connections")),
            ("accepted_total".into(), counter("obs.server.accepted_total")),
            ("rejected_total".into(), counter("obs.server.rejected_total")),
            ("bad_requests_total".into(), counter("obs.server.bad_requests_total")),
            ("keepalive_reuse_total".into(), counter("obs.server.keepalive_reuse_total")),
            ("tail_events".into(), gauge("obs.tail_len")),
            ("finished".into(), Json::Bool(self.publisher.is_finished())),
            ("history_series".into(), gauge("obs.history.series")),
            ("history_samples".into(), counter("obs.history.samples_total")),
            ("history_dropped_series".into(), counter("obs.history.dropped_series_total")),
            ("endpoints".into(), Json::Object(endpoints)),
        ])
        .to_string_compact()
    }
}

/// A running observability server: a fixed set of pump threads
/// multiplexing keep-alive connections, with explicit 503 backpressure
/// and per-endpoint self-telemetry. Binding spawns the pumps and the
/// accept loop on background threads; dropping (or
/// [`shutdown`](Self::shutdown)) stops and joins them all.
pub struct ObsServer {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    pumps: Vec<JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `publisher` with the default [`ObsConfig`].
    pub fn bind(addr: &str, publisher: Publisher) -> io::Result<ObsServer> {
        Self::bind_with(addr, publisher, ObsConfig::default())
    }

    /// Bind with explicit tuning. The actually bound address is
    /// [`addr`](Self::addr).
    pub fn bind_with(
        addr: &str,
        publisher: Publisher,
        cfg: ObsConfig,
    ) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.effective_workers();
        let stats = Arc::new(ServerStats::new(workers, cfg.max_connections));
        publisher.attach_server(stats.clone());
        let inner = Arc::new(Inner {
            publisher,
            stats,
            cfg,
            stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
        });
        // Built before the first spawn, so a spawn that fails drops it:
        // `shutdown` stops and joins whatever already started.
        let mut server = ObsServer { addr, inner, accept_thread: None, pumps: Vec::new() };
        for i in 0..workers {
            let inner = server.inner.clone();
            let handle = thread::Builder::new()
                .name(format!("daos-obs-pump-{i}"))
                .spawn(move || pump(&inner))?;
            server.pumps.push(handle);
        }
        let inner = server.inner.clone();
        server.accept_thread = Some(
            thread::Builder::new()
                .name("daos-obs-accept".into())
                .spawn(move || accept_loop(listener, inner))?,
        );
        Ok(server)
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake every pump, and join the accept loop and
    /// the pumps. Live `/events` streams notice the flag within
    /// one poll interval.
    pub fn shutdown(&mut self) {
        // ordering: Release pairs with the Acquire loads in the accept
        // loop, the pumps, and the event streamers; the flag is the only
        // state they synchronize on.
        self.inner.stop.store(true, Ordering::Release);
        self.inner.queue_cv.notify_all();
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The pumps exit on the stop flag; in-progress turns finish
        // their current request.
        for t in self.pumps.drain(..) {
            let _ = t.join();
        }
        // Close connections still parked in the queue so keep-alive
        // clients see EOF now instead of a read timeout later.
        lock(&self.inner.queue).clear();
        // ordering: Relaxed — advisory queue-depth gauge.
        self.inner.stats.queued.store(0, Ordering::Relaxed);
    }

    /// The obs plane's telemetry as a [`Registry`] (`obs.http.*` /
    /// `obs.server.*` / `obs.history.*` keys) — the `extra` that
    /// `/metrics` hands to [`prom::exposition`].
    pub fn telemetry(&self) -> Registry {
        self.inner.publisher.telemetry()
    }

    /// Requests served on `ep` so far.
    pub fn requests_total(&self, ep: Endpoint) -> u64 {
        // ordering: Relaxed — telemetry counter read.
        self.inner.stats.endpoints[ep as usize].requests.load(Ordering::Relaxed)
    }

    /// Connections answered `503` at the admission gate.
    pub fn rejected_total(&self) -> u64 {
        // ordering: Relaxed — telemetry counter read.
        self.inner.stats.rejected.load(Ordering::Relaxed)
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    for conn in listener.incoming() {
        // ordering: Acquire pairs with the Release store in `shutdown`.
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // ordering: Relaxed — in_flight is an advisory admission gauge;
        // racing a close only shifts the 503 boundary by one connection.
        if inner.stats.in_flight.load(Ordering::Relaxed) >= inner.cfg.max_connections as u64 {
            // ordering: Relaxed — monotonic telemetry counter.
            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            let _ = stream.set_read_timeout(Some(REJECT_DRAIN));
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let _ = stream.set_nodelay(true);
            let _ = read_request(&mut BufReader::new(&stream));
            let _ = write_response_with(
                &mut (&stream),
                503,
                "text/plain",
                "obs server saturated\n",
                ResponseOpts { retry_after: Some(1), ..Default::default() },
            );
            continue;
        }
        if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
            continue;
        }
        // Chunked `/events` frames and pipelined keep-alive turns are
        // many small writes; Nagle + delayed ACK would serialize them at
        // ~40ms each.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else { continue };
        // ordering: Relaxed — monotonic telemetry counter.
        inner.stats.accepted.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — advisory admission gauge; over-admitting
        // by a racing accept is acceptable backpressure slack.
        inner.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        inner.requeue(Conn {
            stream,
            reader: BufReader::new(read_half),
            served: 0,
            idle_since: Instant::now(),
        });
    }
}

/// One pump thread's serve loop: pop a connection, give it one turn,
/// repeat until shutdown.
fn pump(inner: &Inner) {
    loop {
        let mut q = lock(&inner.queue);
        let conn = loop {
            // ordering: Acquire pairs with the Release store in
            // `shutdown`.
            if inner.stop.load(Ordering::Acquire) {
                return;
            }
            if let Some(c) = q.pop_front() {
                // ordering: Relaxed — advisory queue-depth gauge.
                inner.stats.queued.store(q.len() as u64, Ordering::Relaxed);
                break c;
            }
            q = wait_timeout(&inner.queue_cv, q, PUMP_IDLE);
        };
        drop(q);
        serve_turn(conn, inner);
    }
}

/// Give one connection one turn: serve a request if bytes are ready,
/// requeue if idle, close on EOF/expiry/error.
fn serve_turn(mut conn: Conn, inner: &Inner) {
    // Pipelined bytes already buffered count as ready; otherwise peek
    // the socket briefly so one idle connection can't hold the pump.
    if conn.reader.buffer().is_empty() {
        let _ = conn.stream.set_read_timeout(Some(PEEK_TIMEOUT));
        let mut probe = [0u8; 1];
        match conn.stream.peek(&mut probe) {
            Ok(0) => return inner.close(conn), // clean EOF
            Ok(_) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if conn.idle_since.elapsed() >= KEEPALIVE_IDLE {
                    return inner.close(conn);
                }
                return inner.requeue(conn);
            }
            Err(_) => return inner.close(conn),
        }
    }
    // A request has started arriving: block for the rest of it under the
    // full read timeout.
    let _ = conn.stream.set_read_timeout(Some(READ_TIMEOUT));
    let started = Instant::now();
    let req = match read_request(&mut conn.reader) {
        Ok(Some(req)) => req,
        Ok(None) => return inner.close(conn),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            // ordering: Relaxed — monotonic telemetry counter.
            inner.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            // Framing is untrustworthy after a parse error: answer and
            // close rather than hunt for the next request boundary.
            let _ = write_response_with(
                &mut conn.stream,
                400,
                "text/plain",
                "bad request\n",
                ResponseOpts::default(),
            );
            return inner.close(conn);
        }
        Err(_) => return inner.close(conn),
    };
    if conn.served > 0 {
        // ordering: Relaxed — monotonic telemetry counter.
        inner.stats.keepalive_reuse.fetch_add(1, Ordering::Relaxed);
    }
    match route(&mut conn, &req, inner, started) {
        Ok(true) => {
            conn.served += 1;
            conn.idle_since = Instant::now();
            inner.requeue(conn);
        }
        Ok(false) | Err(_) => inner.close(conn),
    }
}

/// Serve one request; `Ok(true)` keeps the connection alive.
fn route(conn: &mut Conn, req: &Request, inner: &Inner, started: Instant) -> io::Result<bool> {
    // Stats are recorded *before* the response write throughout: once a
    // client has read its response, the server has provably counted the
    // request — the equality pin the load tests and obs_bench rely on.
    // (`/metrics` renders its body first, so a scrape still reports the
    // totals from before itself.)
    let head = req.method == "HEAD";
    if req.method != "GET" && !head {
        let body = "only GET and HEAD are supported\n";
        inner.stats.record(Endpoint::Other, started);
        write_response_with(
            &mut conn.stream,
            405,
            "text/plain",
            body,
            ResponseOpts { keep_alive: req.keep_alive, ..Default::default() },
        )?;
        return Ok(req.keep_alive);
    }
    let path = req.path.split('?').next().unwrap_or("");
    let ep = ENDPOINTS.iter().find(|row| row.1 == path).map_or(Endpoint::Other, |row| row.0);
    let (status, ctype, body) = match ep {
        Endpoint::Healthz => (200, "text/plain", "ok\n".to_string()),
        Endpoint::Metrics => {
            let body = prom::render_with(
                &inner.publisher.snapshot(),
                Some(&inner.publisher.telemetry()),
            );
            (200, "text/plain; version=0.0.4", body)
        }
        Endpoint::Snapshot => (
            200,
            "application/json",
            inner.publisher.snapshot().to_json().to_string_compact(),
        ),
        Endpoint::Statusz => (200, "application/json", inner.statusz()),
        Endpoint::Query => {
            let (status, body) = query_response(&inner.publisher, &req.path);
            let ctype = if status == 200 { "application/json" } else { "text/plain" };
            (status, ctype, body)
        }
        Endpoint::Events => {
            if head {
                inner.stats.record(Endpoint::Events, started);
                write_response_with(
                    &mut conn.stream,
                    200,
                    "application/jsonl",
                    "",
                    ResponseOpts { keep_alive: req.keep_alive, head_only: true, retry_after: None },
                )?;
                return Ok(req.keep_alive);
            }
            // Record before the terminal chunk so the count lands ahead
            // of the client seeing the stream complete.
            let streamed = stream_events(&mut conn.stream, inner);
            inner.stats.record(Endpoint::Events, started);
            streamed?;
            finish_chunked(&mut conn.stream)?;
            // The chunked stream announced `Connection: close`.
            return Ok(false);
        }
        Endpoint::Other => (404, "text/plain", "unknown path\n".to_string()),
    };
    inner.stats.record(ep, started);
    write_response_with(
        &mut conn.stream,
        status,
        ctype,
        &body,
        ResponseOpts { keep_alive: req.keep_alive, head_only: head, retry_after: None },
    )?;
    Ok(req.keep_alive)
}

/// Minimal `%XX` percent-decoding for query parameter values — labelled
/// metric names contain `{`, `"`, and `=`, which clients must escape to
/// keep the `k=v&` split unambiguous. Malformed escapes pass through
/// verbatim.
fn percent_decode(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'%' && i + 2 < b.len() {
            if let (Some(hi), Some(lo)) =
                ((b[i + 1] as char).to_digit(16), (b[i + 2] as char).to_digit(16))
            {
                out.push((hi * 16 + lo) as u8);
                i += 3;
                continue;
            }
        }
        out.push(b[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Answer `GET /query`: parse the parameters out of the raw request path
/// and run them against the publisher's metric history. Returns
/// `(status, body)` — `400` for malformed parameters, `404` for a metric
/// the history has never seen.
fn query_response(publisher: &Publisher, raw_path: &str) -> (u16, String) {
    let qs = raw_path.split_once('?').map(|(_, q)| q).unwrap_or("");
    let mut metric = None;
    let mut since = 0u64;
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let v = percent_decode(v);
        match k {
            "metric" => metric = Some(v),
            "since" => match v.parse() {
                Ok(n) => since = n,
                Err(_) => return (400, "bad since: expected u64 nanoseconds\n".into()),
            },
            _ => return (400, format!("unknown parameter: {k}\n")),
        }
    }
    let Some(metric) = metric else {
        return (400, "missing required parameter: metric\n".into());
    };
    match publisher.query(&metric, since) {
        Some(result) => (200, result.to_json().to_string_compact()),
        None => (404, format!("unknown metric: {metric}\n")),
    }
}

/// Stream the live event tail as chunked JSONL: one event object per
/// line, new lines as the publisher syncs them, terminating once the run
/// is finished (after a final drain) or the server shuts down. A write
/// error (stalled or vanished client) exits promptly — the socket's
/// write timeout bounds every chunk — freeing the pump for other
/// connections.
fn stream_events(stream: &mut TcpStream, inner: &Inner) -> io::Result<()> {
    start_chunked(stream, "application/jsonl")?;
    let mut cursor = 0u64;
    loop {
        let finished = inner.publisher.is_finished();
        let (events, next) = inner.publisher.events_since(cursor);
        if !events.is_empty() {
            let mut batch = String::new();
            for ev in &events {
                batch.push_str(&ev.to_json().to_string_compact());
                batch.push('\n');
            }
            write_chunk(stream, &batch)?;
            cursor = next;
        }
        // Checking `finished` before the drain guarantees the final
        // events published before the flag flipped were sent. The caller
        // writes the terminal chunk (after recording stats).
        // ordering: Acquire pairs with the Release store in `shutdown`.
        if finished || inner.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        thread::sleep(EVENTS_POLL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{http_get, HttpClient};
    use crate::snapshot::ObsSnapshot;
    use daos_trace::{Collector, Event};
    use daos_util::json::FromJson;
    use std::time::Duration;

    const T: Duration = Duration::from_secs(10);

    fn server_with_state() -> (ObsServer, Publisher) {
        let publisher = Publisher::new();
        publisher.publish(ObsSnapshot {
            seq: 3,
            config: "rec".into(),
            epoch: 9,
            nr_epochs: 10,
            wss_bytes: 1 << 20,
            ..Default::default()
        });
        let server = ObsServer::bind("127.0.0.1:0", publisher.clone()).unwrap();
        (server, publisher)
    }

    #[test]
    fn healthz_metrics_and_snapshot_respond() {
        let (server, _publisher) = server_with_state();
        let addr = server.addr();

        let health = http_get(addr, "/healthz", T).unwrap();
        assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));

        let metrics = http_get(addr, "/metrics", T).unwrap();
        assert_eq!(metrics.status, 200);
        let samples = prom::parse_exposition(&metrics.body).unwrap();
        assert!(samples.iter().any(|s| s.name == "daos_obs_seq" && s.value == 3.0));
        // The server observes itself: the healthz hit above shows up.
        assert!(
            samples.iter().any(|s| {
                s.name == "daos_obs_http_requests_total"
                    && s.labels == vec![("endpoint".to_string(), "healthz".to_string())]
                    && s.value == 1.0
            }),
            "self-telemetry folds into /metrics: {}",
            metrics.body
        );

        let snap = http_get(addr, "/snapshot", T).unwrap();
        assert_eq!(snap.status, 200);
        let parsed =
            ObsSnapshot::from_json(&daos_util::json::parse(&snap.body).unwrap()).unwrap();
        assert_eq!((parsed.seq, parsed.epoch, parsed.wss_bytes), (3, 9, 1 << 20));

        assert!(samples.iter().any(|s| s.name == "daos_obs_events_missed_total"));
        assert!(samples.iter().any(|s| s.name == "daos_obs_tail_len"));

        // The alert engine is gone: its path is one more unknown path.
        assert_eq!(http_get(addr, "/nope", T).unwrap().status, 404);
        assert_eq!(http_get(addr, "/alerts", T).unwrap().status, 404);
        assert_eq!(server.requests_total(Endpoint::Other), 2);
    }

    #[test]
    fn statusz_reports_server_state() {
        let (server, _publisher) = server_with_state();
        let _ = http_get(server.addr(), "/healthz", T).unwrap();
        let resp = http_get(server.addr(), "/statusz", T).unwrap();
        assert_eq!(resp.status, 200);
        let v = daos_util::json::parse(&resp.body).unwrap();
        assert_eq!(v.field::<u64>("rejected_total").unwrap(), 0);
        assert!(v.field::<u64>("accepted_total").unwrap() >= 2);
        assert!(v.field::<u64>("workers").unwrap() >= 2);
        let endpoints = v.get("endpoints").unwrap();
        let healthz = endpoints.get("healthz").unwrap();
        assert_eq!(healthz.field::<u64>("requests_total").unwrap(), 1);
    }

    #[test]
    fn head_and_bad_requests_are_answered() {
        let (server, _publisher) = server_with_state();
        let mut client = HttpClient::connect(server.addr(), T).unwrap();
        let head = client.request("HEAD", "/metrics").unwrap();
        assert_eq!(head.status, 200);
        assert!(head.body.is_empty());
        assert!(
            head.header("content-length").unwrap().parse::<usize>().unwrap() > 0,
            "HEAD announces the length it would have sent"
        );
        // A keep-alive HEAD leaves the connection usable.
        let next = client.get("/healthz").unwrap();
        assert_eq!((next.status, next.body.as_str()), (200, "ok\n"));
        assert_eq!(client.request("POST", "/metrics").unwrap().status, 405);

        // A malformed request line gets 400, not a silent close.
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(T)).unwrap();
        raw.write_all(b"utter nonsense\r\n\r\n").unwrap();
        let mut resp = String::new();
        raw.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400 Bad Request"), "{resp}");
        assert_eq!(server.telemetry().counter("obs.server.bad_requests_total"), 1);
    }

    /// Send `head`, then `piece` over and over until `total` bytes are
    /// out or the server stops taking them; what came back, if the
    /// server's close did not reset it away.
    fn flood(addr: SocketAddr, head: &[u8], piece: &[u8], total: usize) -> String {
        use std::io::{Read, Write};
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(T)).unwrap();
        raw.set_write_timeout(Some(T)).unwrap();
        let mut sent = raw.write_all(head).map_or(total, |()| 0);
        while sent < total && raw.write_all(piece).is_ok() {
            sent += piece.len();
        }
        let mut resp = String::new();
        let _ = raw.read_to_string(&mut resp);
        resp
    }

    #[test]
    fn a_head_without_end_gets_400_not_an_unbounded_buffer() {
        let (server, _publisher) = server_with_state();
        let addr = server.addr();
        let bad = || server.telemetry().counter("obs.server.bad_requests_total");
        let floods: [(&[u8], &[u8]); 2] = [
            (b"", &[b'A'; 4096]),                   // 1 MiB request line, no newline
            (b"GET /healthz HTTP/1.1\r\n", b"X: y\r\n"), // headers without end
        ];
        for (i, (head, piece)) in floods.into_iter().enumerate() {
            let resp = flood(addr, head, piece, 1 << 20);
            // The 400 can be lost to the reset that closing on unread
            // input causes; the counter cannot.
            assert!(resp.is_empty() || resp.starts_with("HTTP/1.1 400 Bad Request"), "{resp}");
            assert_eq!(bad(), i as u64 + 1, "refused at the cap, not at the read timeout");
            let health = http_get(addr, "/healthz", T).unwrap();
            assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
        }
    }

    #[test]
    fn events_stream_drains_tail_then_terminates_on_finish() {
        let (server, publisher) = server_with_state();
        let mut c = Collector::builder().ring_capacity(16).build().unwrap();
        for at in 0..4u64 {
            c.record(at * 100, Event::RegionSplit { before: at, after: at + 1 });
        }
        publisher.sync_ring(c.ring());
        publisher.finish();

        let resp = http_get(server.addr(), "/events", T).unwrap();
        assert_eq!(resp.status, 200);
        let lines: Vec<&str> = resp.body.lines().collect();
        assert_eq!(lines.len(), 4, "all synced events stream out: {:?}", resp.body);
        for line in lines {
            let ev = daos_trace::TimedEvent::from_json(
                &daos_util::json::parse(line).unwrap(),
            )
            .unwrap();
            assert!(matches!(ev.event, Event::RegionSplit { .. }));
        }
    }

    #[test]
    fn query_serves_history_and_rejects_bad_params() {
        let (server, publisher) = server_with_state();
        for seq in 4..10u64 {
            publisher.publish(ObsSnapshot {
                seq,
                now_ns: seq * 1_000,
                wss_bytes: seq * 10,
                ..Default::default()
            });
        }
        let addr = server.addr();

        let resp = http_get(addr, "/query?metric=daos_obs_wss_bytes", T).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = daos_util::json::parse(&resp.body).unwrap();
        assert_eq!(v.field::<String>("metric").unwrap(), "daos_obs_wss_bytes");
        let Some(Json::Array(points)) = v.get("points") else {
            panic!("points missing: {}", resp.body);
        };
        assert!(!points.is_empty());
        let Some(Json::Array(last)) = points.last() else { panic!() };
        assert_eq!((last[0].clone(), last[1].clone()), (Json::U64(9_000), Json::F64(90.0)));

        // `%XX` escapes in the metric name decode before lookup.
        let escaped = http_get(addr, "/query?metric=daos%5Fobs%5Fseq", T).unwrap();
        assert_eq!(escaped.status, 200, "{}", escaped.body);

        assert_eq!(http_get(addr, "/query", T).unwrap().status, 400);
        let agg = http_get(addr, "/query?metric=daos_obs_seq&agg=last", T).unwrap();
        assert_eq!((agg.status, agg.body.as_str()), (400, "unknown parameter: agg\n"));
        let since = http_get(addr, "/query?metric=daos_obs_seq&since=8000", T).unwrap();
        assert_eq!(since.body, r#"{"metric":"daos_obs_seq","points":[[8000,8.0],[9000,9.0]]}"#);
        assert_eq!(http_get(addr, "/query?metric=daos_obs_seq&since=abc", T).unwrap().status, 400);
        assert_eq!(http_get(addr, "/query?metric=never_recorded", T).unwrap().status, 404);
    }

    #[test]
    fn server_counters_feed_the_history() {
        let (server, publisher) = server_with_state();
        let _ = http_get(server.addr(), "/healthz", T).unwrap();
        // The telemetry is sampled at publish time, after the hit above.
        publisher.publish(ObsSnapshot { seq: 4, now_ns: 4_000, ..Default::default() });
        let resp =
            http_get(server.addr(), "/query?metric=daos_obs_server_accepted_total", T).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let v = daos_util::json::parse(&resp.body).unwrap();
        let Some(Json::Array(points)) = v.get("points") else { panic!("{}", resp.body) };
        let Some(Json::Array(last)) = points.last() else { panic!() };
        assert!(matches!(last[1], Json::F64(n) if n >= 1.0), "{}", resp.body);
    }

    const QUERY_TOKENS: &[&str] = &[
        "/query", "?", "&", "=", "metric", "since", "agg", "daos_obs_seq", "daos_obs_wss_bytes",
        "%", "%7B", "%zz", "%f", "%00", "0", "2000", "18446744073709551616",
    ];

    daos_util::proptest! {
        cases = 512;

        // `/query`'s parameter parsing and percent-decoding over
        // arbitrary bytes: a status the route knows, and a body no
        // larger than the series plus an echo of the input.
        fn query_response_survives_arbitrary_paths(raw in daos_util::prop::fuzz_bytes(QUERY_TOKENS)) {
            let publisher = Publisher::new();
            for seq in 1..=3u64 {
                publisher.publish(ObsSnapshot { seq, now_ns: seq * 1_000, ..Default::default() });
            }
            let path = String::from_utf8_lossy(&raw);
            let (status, body) = query_response(&publisher, &path);
            daos_util::prop_assert!(matches!(status, 200 | 400 | 404), "{status}");
            daos_util::prop_assert!(body.len() <= 3 * path.len() + 128, "{body}");
        }
    }

    #[test]
    fn shutdown_stops_the_accept_loop() {
        let (mut server, _publisher) = server_with_state();
        let addr = server.addr();
        server.shutdown();
        // Idempotent, and the port no longer serves.
        server.shutdown();
        assert!(http_get(addr, "/healthz", Duration::from_millis(500)).is_err());
    }
}
