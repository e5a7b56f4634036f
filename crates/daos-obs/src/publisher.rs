//! The shared-state publisher: the simulation thread periodically swaps
//! a fresh [`ObsSnapshot`] behind an `Arc` and appends the trace ring's
//! newest events to a bounded tail; server threads and the in-process
//! dashboard read both without ever blocking the sim loop for more than
//! a pointer swap.
//!
//! Every publish also records [`prom::exposition`] of the snapshot —
//! the same registry `/metrics` renders — into the bounded
//! [`MetricHistory`] behind `/query`.

use crate::history::{MetricHistory, QueryResult};
use crate::prom;
use crate::server::ServerStats;
use crate::snapshot::ObsSnapshot;
use daos::{FleetObserver, FleetProgress, FleetSummary, Phase, TenantStats, WallProfile};
use daos_trace::{Registry, Ring, TimedEvent};
use daos_util::sync::lock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on the live event tail (events). 8Ki timed events is a
/// few hundred KiB — enough for a dashboard's "recent activity" view
/// without letting a slow subscriber pin the whole run in memory.
pub const DEFAULT_TAIL_CAPACITY: usize = 8 * 1024;

/// Bounded live tail of the trace ring. Its own [`Ring`] numbers the
/// events it was handed (`total_pushed`), so each `/events` subscriber
/// keeps its own cursor, and counts the ones it evicted (`dropped`).
struct Tail {
    events: Ring,
    /// Collector-ring events accounted for so far (its `total_pushed` at
    /// the last sync).
    seen: u64,
    /// Events the collector's ring overwrote before a sync copied them.
    overwritten: u64,
}

impl Tail {
    /// Global sequence number of the oldest event held.
    fn first_seq(&self) -> u64 {
        self.events.total_pushed() - self.events.len() as u64
    }

    /// Events lost to subscribers: collector-ring overwrites between
    /// syncs plus tail evictions.
    fn missed(&self) -> u64 {
        self.overwritten + self.events.dropped()
    }
}

/// The retention state, advanced on every publish.
struct ObsState {
    history: MetricHistory,
    /// The bound server's counters, so every publish records them into
    /// the history without a scrape round-trip.
    server: Option<Arc<ServerStats>>,
}

// Poison recovery through `lock` is safe for all three: the snapshot is
// a whole-`Arc` swap, the tail's every exit path leaves it internally
// consistent (worst case: events a poisoned sync already counted
// re-sync as missed), and the history only appends.
struct Shared {
    snap: Mutex<Arc<ObsSnapshot>>,
    tail: Mutex<Tail>,
    obs: Mutex<ObsState>,
    finished: AtomicBool,
}

/// Handle to the shared observability state. Clones are cheap and all
/// refer to the same state; the sim side calls [`publish`](Self::publish)
/// / [`sync_ring`](Self::sync_ring), readers call
/// [`snapshot`](Self::snapshot) / [`events_since`](Self::events_since).
#[derive(Clone)]
pub struct Publisher {
    shared: Arc<Shared>,
}

impl Default for Publisher {
    fn default() -> Self {
        Self::new()
    }
}

impl Publisher {
    /// A publisher with an empty snapshot and the default tail bound.
    pub fn new() -> Publisher {
        Self::with_tail_capacity(DEFAULT_TAIL_CAPACITY)
    }

    /// A publisher whose event tail holds at most `cap` events.
    pub fn with_tail_capacity(cap: usize) -> Publisher {
        Publisher {
            shared: Arc::new(Shared {
                snap: Mutex::new(Arc::new(ObsSnapshot::default())),
                tail: Mutex::new(Tail { events: Ring::new(cap.max(1)), seen: 0, overwritten: 0 }),
                obs: Mutex::new(ObsState {
                    history: MetricHistory::new(),
                    server: None,
                }),
                finished: AtomicBool::new(false),
            }),
        }
    }

    /// Swap in a new snapshot (the Arc-swap: readers holding the old
    /// `Arc` keep a consistent view, new readers see the new one), after
    /// recording its exposition into the metric history.
    pub fn publish(&self, snap: ObsSnapshot) {
        let samples = prom::flatten_registry(&prom::exposition(&snap, Some(&self.telemetry())));
        lock(&self.shared.obs).history.record(snap.seq, snap.now_ns, &samples);
        *lock(&self.shared.snap) = Arc::new(snap);
    }

    /// Everything the obs plane reports about itself, as registry keys:
    /// event-tail accounting (`obs.events_missed_total`, `obs.tail_len`),
    /// history accounting (`obs.history.*`) and, once a server is bound,
    /// its `obs.server.*` / `obs.http.<endpoint>.*` counters and
    /// histograms. This is the `extra` every reader hands to
    /// [`prom::exposition`].
    pub(crate) fn telemetry(&self) -> Registry {
        let mut reg = Registry::new();
        {
            let tail = lock(&self.shared.tail);
            reg.counter_add("obs.events_missed_total", tail.missed());
            reg.gauge_set("obs.tail_len", tail.events.len() as f64);
        }
        let server = {
            let obs = lock(&self.shared.obs);
            reg.gauge_set("obs.history.series", obs.history.series_count() as f64);
            reg.counter_add("obs.history.samples_total", obs.history.samples_recorded());
            reg.counter_add("obs.history.dropped_series_total", obs.history.dropped_series());
            obs.server.clone()
        };
        if let Some(stats) = server {
            stats.export(&mut reg);
        }
        reg
    }

    /// Hand over the bound server's counters (replacing any previous
    /// server's), to be exported through [`telemetry`](Self::telemetry).
    pub(crate) fn attach_server(&self, stats: Arc<ServerStats>) {
        lock(&self.shared.obs).server = Some(stats);
    }

    /// Answer a `/query`: see [`MetricHistory::query`].
    pub fn query(&self, metric: &str, since: u64) -> Option<QueryResult> {
        lock(&self.shared.obs).history.query(metric, since)
    }

    /// The current snapshot (cheap: one `Arc` clone under the lock).
    pub fn snapshot(&self) -> Arc<ObsSnapshot> {
        lock(&self.shared.snap).clone()
    }

    /// Pull the ring's events-since-last-sync into the shared tail. Only
    /// the new suffix is copied, so the cost is proportional to emission
    /// rate, not ring size.
    pub fn sync_ring(&self, ring: &Ring) {
        let mut tail = lock(&self.shared.tail);
        let total = ring.total_pushed();
        let new = total.saturating_sub(tail.seen);
        if new == 0 {
            return;
        }
        // Events the ring already overwrote before we got here are gone.
        let take = (new as usize).min(ring.len());
        tail.overwritten += new - take as u64;
        for ev in ring.tail(take) {
            tail.events.push(ev);
        }
        tail.seen = total;
    }

    /// Events with global sequence numbers `>= cursor`, plus the cursor
    /// to pass next time. A subscriber starting at 0 gets the whole
    /// surviving tail.
    pub fn events_since(&self, cursor: u64) -> (Vec<TimedEvent>, u64) {
        let tail = lock(&self.shared.tail);
        let skip = cursor.saturating_sub(tail.first_seq()) as usize;
        (tail.events.iter().skip(skip).copied().collect(), tail.events.total_pushed())
    }

    /// Mark the run complete: `/events` streams terminate once drained
    /// and dashboards render a final DONE frame.
    pub fn finish(&self) {
        // ordering: Release pairs with the Acquire load in
        // `is_finished`: a streamer that observes the flag also sees
        // every event published before `finish` was called.
        self.shared.finished.store(true, Ordering::Release);
    }

    /// Whether [`finish`](Self::finish) was called.
    pub fn is_finished(&self) -> bool {
        // ordering: Acquire pairs with the Release store in `finish`.
        self.shared.finished.load(Ordering::Acquire)
    }
}

/// A registry snapshot of the calling thread's installed collector, or
/// an empty registry.
fn current_registry() -> Registry {
    daos_trace::registry_snapshot().unwrap_or_default()
}

/// Events the calling thread's installed collector has overwritten.
fn ring_dropped() -> u64 {
    daos_trace::ring_status().map_or(0, |(_, dropped, _)| dropped)
}

/// The [`FleetObserver`] that publishes **one snapshot per run** every
/// `publish_every` ticks (and on the final tick). The registry is the
/// calling thread's trace-collector registry (empty without one) plus
/// run totals as `fleet.*` counters and per-tenant aggregates as
/// `tenant.<name>.*` counters, which `/metrics` folds into
/// `daos_tenant_*{tenant="..."}` label families — a single run is a
/// fleet of one process in tenant `t0`, and is exported as such. A
/// single process also shows its own monitoring state: the freshest
/// aggregation window with its working-set estimate, scheme stats,
/// monitor overhead, and its time-weighted average RSS in
/// `avg_rss_bytes`; for a fleet `avg_rss_bytes` carries the *current*
/// total RSS. `peak_rss_bytes` is the summed per-process peaks. A
/// profiled run ([`daos::Session::profile_wall`]) adds its host wall time
/// per engine phase as `engine.phase.<phase>.wall_ns`, which `/metrics`
/// folds into `daos_engine_phase_wall_ns{phase="..."}`.
pub struct FleetPublisher {
    publisher: Publisher,
    config: String,
    workload: String,
    machine: String,
    publish_every: u64,
    seq: u64,
    /// The freshest engine profile a tick showed, if the run is profiled.
    profile: Option<WallProfile>,
}

impl FleetPublisher {
    /// Observer publishing through `publisher` under the given run
    /// identity, once per `publish_every` ticks (min 1).
    pub fn new(
        publisher: Publisher,
        config: &str,
        workload: &str,
        machine: &str,
        publish_every: u64,
    ) -> FleetPublisher {
        FleetPublisher {
            publisher,
            config: config.to_string(),
            workload: workload.to_string(),
            machine: machine.to_string(),
            publish_every: publish_every.max(1),
            seq: 0,
            profile: None,
        }
    }

    /// The one snapshot constructor. It adds what every snapshot shares
    /// — the next `seq`, the run identity, the calling thread's
    /// registry plus the `fleet.*` totals, the `tenant.<name>.*`
    /// aggregates and any `engine.phase.<phase>.*` wall times, and the
    /// thread collector's ring drops on top of the
    /// engine's — to `rest`, where a live tick and the end of the run
    /// put what they each know.
    fn build(
        &mut self,
        fleet: &[(&str, u64)],
        tenants: &[TenantStats],
        rest: ObsSnapshot,
    ) -> ObsSnapshot {
        self.seq += 1;
        let mut registry = current_registry();
        for (field, value) in fleet {
            registry.counter_add(&format!("fleet.{field}"), *value);
        }
        for t in tenants {
            let mut add = |field: &str, v: u64| {
                registry.counter_add(&format!("tenant.{}.{field}", t.name), v);
            };
            add("nr_processes", t.nr_processes as u64);
            add("rss_bytes", t.total_rss);
            add("peak_rss_bytes", t.peak_rss);
            add("interference_ns", t.interference_ns);
            add("major_faults", t.major_faults);
            add("swapouts", t.swapouts);
        }
        if let Some(profile) = &self.profile {
            for phase in Phase::ALL {
                let key = format!("engine.phase.{}.wall_ns", phase.name());
                registry.counter_add(&key, profile.phase_ns(phase));
            }
        }
        ObsSnapshot {
            seq: self.seq,
            config: self.config.clone(),
            workload: self.workload.clone(),
            machine: self.machine.clone(),
            registry,
            dropped_events: rest.dropped_events + ring_dropped(),
            ..rest
        }
    }

    /// Publish the end-of-run snapshot from the [`FleetSummary`] and
    /// mark the publisher finished. Call after the session returns, with
    /// the run's collector (if any) still installed, so the registry
    /// snapshot covers the whole run. A single process's window, scheme
    /// stats and overhead stay as the final tick published them.
    pub fn finalize(&mut self, summary: &FleetSummary) {
        let fleet = [
            ("nr_processes", summary.nr_processes as u64),
            ("nr_shards", summary.nr_shards as u64),
            ("nr_workers", summary.nr_workers as u64),
            ("ticks", summary.ticks),
            ("monitor_work_ns", summary.monitor_work_ns),
            ("monitor_total_checks", summary.monitor_total_checks),
            ("overhead_per_process_ns", summary.overhead_per_process_ns()),
            ("effective_max_regions", summary.effective_max_regions as u64),
            ("dropped_events", summary.total_dropped()),
        ];
        let last = self.publisher.snapshot();
        let snap = self.build(
            &fleet,
            &summary.tenants,
            ObsSnapshot {
                epoch: summary.ticks.saturating_sub(1),
                nr_epochs: summary.ticks,
                now_ns: summary.runtime_ns,
                wss_bytes: last.wss_bytes,
                peak_rss_bytes: summary.total_peak_rss,
                avg_rss_bytes: summary.total_avg_rss,
                last_window: last.last_window.clone(),
                schemes: last.schemes.clone(),
                overhead: last.overhead,
                dropped_events: summary.total_dropped(),
                finished: true,
                ..Default::default()
            },
        );
        self.publisher.publish(snap);
        self.publisher.finish();
    }
}

impl FleetObserver for FleetPublisher {
    fn due(&self, tick: u64, nr_ticks: u64) -> bool {
        tick % self.publish_every == 0 || tick + 1 == nr_ticks
    }

    fn on_tick(&mut self, p: &FleetProgress) {
        // A caller ticking the engine by hand may hand over every tick.
        if !self.due(p.tick, p.nr_ticks) {
            return;
        }
        self.profile.clone_from(&p.profile);
        let fleet = [
            ("nr_processes", p.nr_processes as u64),
            ("monitor_work_ns", p.monitor_work_ns),
            ("dropped_events", p.dropped_events),
        ];
        let single = p.single.as_ref();
        let last_window = single.and_then(|s| s.last_window.clone());
        let total_rss: u64 = p.tenants.iter().map(|t| t.total_rss).sum();
        let snap = self.build(
            &fleet,
            &p.tenants,
            ObsSnapshot {
                epoch: p.tick,
                nr_epochs: p.nr_ticks,
                now_ns: p.now_ns,
                wss_bytes: last_window.as_ref().map_or(0, |w| w.hot_bytes_estimate()),
                peak_rss_bytes: p.tenants.iter().map(|t| t.peak_rss).sum(),
                avg_rss_bytes: single.map_or(total_rss, |s| s.avg_rss),
                last_window,
                schemes: single.map(|s| s.scheme_stats.clone()).unwrap_or_default(),
                overhead: single.and_then(|s| s.overhead),
                dropped_events: p.dropped_events,
                ..Default::default()
            },
        );
        daos_trace::with_collector(|c| self.publisher.sync_ring(c.ring()));
        self.publisher.publish(snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_trace::{Collector, Event};

    fn missed(p: &Publisher) -> u64 {
        p.telemetry().counter("obs.events_missed_total")
    }

    fn ev(at: u64) -> TimedEvent {
        TimedEvent { at, event: Event::RegionSplit { before: at, after: at + 1 } }
    }

    #[test]
    fn publish_swaps_and_old_readers_keep_their_view() {
        let p = Publisher::new();
        let before = p.snapshot();
        assert_eq!(before.seq, 0);
        p.publish(ObsSnapshot { seq: 1, wss_bytes: 42, ..Default::default() });
        let after = p.snapshot();
        assert_eq!((after.seq, after.wss_bytes), (1, 42));
        // The Arc held from before the swap still shows the old state.
        assert_eq!(before.seq, 0);
    }

    #[test]
    fn ring_sync_copies_only_the_new_suffix_and_counts_misses() {
        let p = Publisher::with_tail_capacity(4);
        let mut c = Collector::builder().ring_capacity(8).build().unwrap();
        for at in 0..3 {
            c.record(at, ev(at).event);
        }
        p.sync_ring(c.ring());
        let (evs, cursor) = p.events_since(0);
        assert_eq!(evs.len(), 3);
        assert_eq!(cursor, 3);
        // No new events: sync is a no-op, cursor unchanged.
        p.sync_ring(c.ring());
        let (evs, cursor2) = p.events_since(cursor);
        assert!(evs.is_empty());
        assert_eq!(cursor2, 3);
        // Three more events: only those arrive; tail cap 4 evicts 2.
        for at in 3..6 {
            c.record(at, ev(at).event);
        }
        p.sync_ring(c.ring());
        let (evs, cursor3) = p.events_since(cursor);
        assert_eq!(evs.iter().map(|e| e.at).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(cursor3, 6);
        assert_eq!(missed(&p), 2, "tail evictions are accounted");
        // A stale cursor below the tail window clamps to what survives.
        let (evs, _) = p.events_since(0);
        assert_eq!(evs.len(), 4);
    }

    #[test]
    fn ring_overwrites_between_syncs_are_missed_not_duplicated() {
        let p = Publisher::new();
        let mut c = Collector::builder().ring_capacity(2).build().unwrap();
        for at in 0..5 {
            c.record(at, ev(at).event);
        }
        p.sync_ring(c.ring());
        let (evs, _) = p.events_since(0);
        assert_eq!(evs.iter().map(|e| e.at).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(missed(&p), 3, "events the ring overwrote are counted, once");
    }

    #[test]
    fn publish_records_history_and_serves_queries() {
        let p = Publisher::new();
        for seq in 1..=5u64 {
            let mut reg = Registry::new();
            reg.counter_add("fleet.nr_processes", 256);
            p.publish(ObsSnapshot {
                seq,
                now_ns: seq * 1_000,
                wss_bytes: seq * 4096,
                registry: reg,
                ..Default::default()
            });
        }
        let q = p.query("daos_obs_wss_bytes", 0).expect("series recorded");
        assert_eq!(q.points.len(), 5);
        assert_eq!(q.points.last(), Some(&(5_000, 5.0 * 4096.0)));
        let f = p.query("daos_fleet_nr_processes", 0).unwrap();
        assert!(f.points.iter().all(|&(_, v)| v == 256.0));
        let t = p.telemetry();
        assert!(t.gauge("obs.history.series").unwrap() >= 2.0);
        assert!(t.counter("obs.history.samples_total") >= 10);
        assert_eq!(t.counter("obs.history.dropped_series_total"), 0);
        // Re-publishing the same seq is deduplicated.
        p.publish(ObsSnapshot { seq: 5, now_ns: 5_000, wss_bytes: 99, ..Default::default() });
        assert_eq!(p.query("daos_obs_wss_bytes", 0).unwrap().points.len(), 5);
    }

    #[test]
    fn finish_flag_flips_once() {
        let p = Publisher::new();
        assert!(!p.is_finished());
        p.finish();
        assert!(p.is_finished());
        let clone = p.clone();
        assert!(clone.is_finished(), "clones share state");
    }
}
