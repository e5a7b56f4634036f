//! # daos-obs — the live observability plane
//!
//! Everything needed to watch a DAOS simulation while it runs, built on
//! `std` only (per the workspace's hermetic zero-dependency rule):
//!
//! - [`snapshot::ObsSnapshot`] — one published view of a run: epoch
//!   progress, working-set estimate, the latest aggregation window,
//!   per-scheme stats, monitoring overhead, and a full metrics-registry
//!   snapshot; JSON-round-trippable via `daos-util`.
//! - [`publisher::Publisher`] — the shared state between the simulation
//!   thread and any number of readers. Publishing is an `Arc` swap;
//!   readers clone the `Arc` and always see an internally consistent
//!   snapshot. A bounded event tail with global sequence numbers feeds
//!   live `/events` subscribers.
//! - [`prom::exposition`] — the one function that decides which
//!   numbers are exported and under which names: the snapshot's scalars
//!   as `obs.*` keys, the snapshot's registry, and the plane's own
//!   telemetry (server counters and per-endpoint histograms, event-tail
//!   and history accounting) in one registry. `/metrics` renders it,
//!   every publish records it into the history behind `/query`, and
//!   `/statusz` is a JSON view of its `obs.server.*` / `obs.http.*` /
//!   `obs.history.*` keys — so the three cannot disagree about what
//!   exists.
//! - [`publisher::FleetPublisher`] — the [`daos::FleetObserver`] that
//!   builds and publishes snapshots every N ticks from inside the run
//!   loop (and a final one via
//!   [`finalize`](publisher::FleetPublisher::finalize)), for a single
//!   run and a fleet alike: a single run is exported as a fleet of one
//!   process in tenant `t0`.
//! - [`server::ObsServer`] — an HTTP/1.1 endpoint on
//!   `std::net::TcpListener` built on a fixed set of pump threads
//!   multiplexing keep-alive connections, serving
//!   `GET /metrics` (the exposition as Prometheus text), `/snapshot`
//!   (JSON), `/events` (chunked live JSONL), `/healthz`, `/statusz`
//!   (the server's own state as JSON) and `/query`. Saturation is
//!   explicit: past [`server::ObsConfig::max_connections`] the accept
//!   loop answers `503` with `Retry-After`.
//! - [`history::MetricHistory`] — the store behind `GET /query`: every
//!   publish's exposition is flattened into prometheus-style series
//!   (labels included), each keeping its newest samples, exact, in one
//!   fixed-capacity ring. The plane exports numbers and leaves judging
//!   them to whoever scrapes it; there is no rule engine.
//! - [`top::Dashboard`] — the `daos top` frame renderer (WSS sparkline,
//!   hottest regions, scheme quota state, span p50/p95), backfilling
//!   its sparkline from `/query` when watching a remote server.
//! - [`http::http_get`] / [`http::HttpClient`] — the std-only blocking
//!   clients (one-shot and persistent keep-alive) used by `daos top
//!   ADDR`, the tests, the `obs_bench` load generator, and the
//!   `obs-get` verify helper.
//!
//! Every mutex in the plane (the snapshot, the event tail, the
//! history, the connection queue, the per-endpoint latency histograms)
//! is taken through `daos_util::sync::lock`, the
//! workspace's one funnel: each guards state whose updates are
//! self-contained, so it recovers from poison, and each is a leaf —
//! debug builds assert that nothing is acquired under it.
//!
//! The whole plane is opt-in: without `--serve`, `daos run` never
//! constructs a publisher and the run loop's observation hook stays a
//! single untaken branch.

pub mod history;
pub mod http;
pub mod prom;
pub mod publisher;
pub mod server;
pub mod snapshot;
pub mod top;

pub use history::{MetricHistory, QueryResult};
pub use http::{http_get, HttpClient};
pub use publisher::{FleetPublisher, Publisher, DEFAULT_TAIL_CAPACITY};
pub use server::{Endpoint, ObsConfig, ObsServer};
pub use snapshot::ObsSnapshot;
pub use top::Dashboard;
