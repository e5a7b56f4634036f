//! End-to-end pin of the observability plane: a real workload run with
//! the collector installed, published through an [`ObsServer`] on an
//! ephemeral port, scraped back over HTTP — and the scraped counters
//! must **equal** the end-of-run `OverheadStats`, not merely resemble
//! them.

use std::collections::BTreeSet;
use std::time::Duration;

use daos::{FleetObserver, FleetProgress, FleetSpec, Phase, RunConfig, Session};
use daos_mm::MachineProfile;
use daos_obs::http::http_get;
use daos_obs::prom::{parse_exposition, Sample};
use daos_obs::{Dashboard, FleetPublisher, ObsServer, ObsSnapshot, Publisher};
use daos_util::json::{FromJson, ToJson};
use daos_workloads::{by_path, FleetConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

fn sample<'a>(samples: &'a [Sample], name: &str) -> &'a Sample {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .unwrap_or_else(|| panic!("metric {name} missing from exposition"))
}

#[test]
fn live_endpoints_agree_with_the_finished_run() {
    // A short but real monitored run, observed tick by tick.
    let machine = MachineProfile::i3_metal();
    let config = RunConfig::rec();
    let mut spec = by_path("parsec3/freqmine").expect("workload exists");
    spec.nr_epochs = 120;

    daos_trace::install(daos_trace::Collector::builder().build().unwrap())
        .expect("no collector leaked from another test in this binary");
    let publisher = Publisher::new();
    let mut server =
        ObsServer::bind("127.0.0.1:0", publisher.clone()).expect("bind ephemeral port");
    let mut obs = FleetPublisher::new(publisher, &config.name, &spec.path_name(), &machine.name, 1);

    let session = Session::new(&machine, &config, &spec).seed(42).fleet_observer(&mut obs);
    let session = session.execute().expect("run");
    obs.finalize(session.fleet.as_ref().expect("every session carries a summary"));
    let result = session.into_single();
    let collector = daos_trace::take().expect("collector still installed");
    let overhead = result.overhead.expect("rec config monitors");

    // /healthz answers.
    let health = http_get(server.addr(), "/healthz", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    // /metrics is valid Prometheus text: every line is # HELP, # TYPE,
    // or `name{labels} value` — parse_exposition rejects anything else.
    let metrics = http_get(server.addr(), "/metrics", TIMEOUT).expect("metrics");
    assert_eq!(metrics.status, 200);
    let samples = parse_exposition(&metrics.body).expect("exposition parses");
    assert!(!samples.is_empty());

    // The equality pin: the live counters ARE the run's own accounting.
    assert_eq!(sample(&samples, "daos_monitor_work_ns").value, overhead.work_ns as f64);
    assert_eq!(sample(&samples, "daos_obs_epoch").value, (spec.nr_epochs - 1) as f64);
    assert_eq!(sample(&samples, "daos_obs_finished").value, 1.0);
    assert_eq!(
        sample(&samples, "daos_obs_dropped_events").value,
        collector.ring().dropped() as f64
    );

    // /snapshot round-trips through the in-tree JSON codec.
    let snapshot = http_get(server.addr(), "/snapshot", TIMEOUT).expect("snapshot");
    assert_eq!(snapshot.status, 200);
    let json = daos_util::json::parse(&snapshot.body).expect("snapshot body is JSON");
    let snap = ObsSnapshot::from_json(&json).expect("snapshot decodes");
    assert!(snap.finished);
    assert_eq!(snap.workload, spec.path_name());
    assert_eq!(snap.config, config.name);
    assert_eq!(snap.overhead, Some(overhead));
    assert_eq!(snap.to_json().to_string_compact(), json.to_string_compact());

    // /events is a finite JSONL stream once the run has finished, and
    // every line is a decodable event.
    let events = http_get(server.addr(), "/events", TIMEOUT).expect("events");
    assert_eq!(events.status, 200);
    let lines: Vec<&str> = events.body.lines().collect();
    assert!(!lines.is_empty(), "a monitored run publishes events");
    for line in &lines {
        let ev = daos_util::json::parse(line).expect("event line is JSON");
        daos_trace::TimedEvent::from_json(&ev).expect("event line decodes");
    }

    // Unknown paths 404, without wedging the server.
    let missing = http_get(server.addr(), "/nope", TIMEOUT).expect("404 path");
    assert_eq!(missing.status, 404);

    server.shutdown();
}

/// The committed golden `tests/golden/<name>`.
fn golden(name: &str) -> String {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `daos run parsec3/freqmine --config rec --epochs 200 --seed 42
/// --serve`, in process: the final snapshot carries the pinned scalar
/// fields, last window, scheme stats and overhead; its registry (what
/// `/metrics` renders) is a superset of the pinned one — it gains the
/// `fleet.*` totals and tenant `t0`'s aggregates, a single run being a
/// fleet of one; and `daos top` renders the pinned final frame from it.
#[test]
fn served_single_run_keeps_its_picture() {
    let pinned_json = daos_util::json::parse(&golden("run_rec_snapshot.json")).expect("golden");
    let pinned = ObsSnapshot::from_json(&pinned_json).expect("golden snapshot decodes");

    let machine = MachineProfile::i3_metal();
    let config = RunConfig::rec();
    let mut spec = by_path("parsec3/freqmine").expect("workload exists");
    spec.nr_epochs = 200;
    daos_trace::install(daos_trace::Collector::builder().build().unwrap())
        .expect("no collector leaked from another test in this binary");
    let publisher = Publisher::new();
    let mut obs =
        FleetPublisher::new(publisher.clone(), &config.name, &spec.path_name(), &machine.name, 1);
    let session = Session::new(&machine, &config, &spec).seed(42).fleet_observer(&mut obs);
    let summary = session.execute().expect("run").fleet.expect("every session carries a summary");
    obs.finalize(&summary);
    daos_trace::take().expect("collector still installed");
    let snap = publisher.snapshot();

    let scalars = |s: &ObsSnapshot| {
        let mut s = s.clone();
        s.registry = daos_trace::Registry::new();
        s
    };
    assert_eq!(scalars(&snap), scalars(&pinned));
    for (key, value) in pinned.registry.counters() {
        assert_eq!(snap.registry.counter(key), value, "counter {key} moved");
    }
    for (key, value) in pinned.registry.gauges() {
        let now = snap.registry.gauges().find(|(k, _)| *k == key);
        assert_eq!(now, Some((key, value)), "gauge {key} moved");
    }
    for (key, hist) in pinned.registry.hists() {
        let now = snap.registry.hists().find(|(k, _)| *k == key);
        assert_eq!(now, Some((key, hist)), "histogram {key} moved");
    }
    assert_eq!(snap.registry.counter("fleet.nr_processes"), 1);
    assert_eq!(snap.registry.counter("tenant.t0.nr_processes"), 1);
    assert_eq!(Dashboard::new().frame(&snap), golden("run_rec_top_frame.txt"));
}

/// A 24-process fleet published at `publish_every = 10`: the engine
/// builds its O(processes) progress only for the ticks the publisher is
/// due for (counted through a wrapping observer — every `on_tick` is one
/// `progress()`), and the last-tick and final snapshots are the pinned
/// ones, field for field.
#[test]
fn fleet_progress_is_built_only_when_the_publisher_is_due() {
    struct Counting<'a> {
        inner: &'a mut FleetPublisher,
        built: u64,
    }
    impl FleetObserver for Counting<'_> {
        fn due(&self, tick: u64, nr_ticks: u64) -> bool {
            self.inner.due(tick, nr_ticks)
        }
        fn on_tick(&mut self, progress: &FleetProgress) {
            self.built += 1;
            self.inner.on_tick(progress);
        }
    }
    let snapshot_json = |publisher: &Publisher| format!("{}\n", publisher.snapshot().to_json());

    let machine = MachineProfile::i3_metal();
    let config = RunConfig::prcl();
    let workers = FleetConfig { worker_footprint: 4 << 20, ..FleetConfig::default() };
    let spec = workers.worker_spec(25);
    let publisher = Publisher::new();
    let mut obs =
        FleetPublisher::new(publisher.clone(), &config.name, &spec.path_name(), &machine.name, 10);
    let mut counting = Counting { inner: &mut obs, built: 0 };
    let result = Session::new(&machine, &config, &spec)
        .seed(15)
        .fleet(FleetSpec::new(24).shard_size(4).workers(1).tenants(3))
        .fleet_observer(&mut counting)
        .execute()
        .expect("fleet run");

    // Ticks 0, 10, 20 and the final one — not one per tick.
    assert_eq!(counting.built, 4);
    assert!(counting.built <= spec.nr_epochs.div_ceil(10) + 1);
    assert_eq!(publisher.snapshot().seq, counting.built);
    assert_eq!(snapshot_json(&publisher), golden("fleet24_last_tick_snapshot.json"));
    obs.finalize(result.fleet.as_ref().expect("every session carries a summary"));
    assert_eq!(snapshot_json(&publisher), golden("fleet24_final_snapshot.json"));
}

/// `/metrics`, `/query` and `/statusz` read one exposition, so they
/// agree on what exists: after a finalized served run every
/// non-histogram sample on `/metrics` is a `/query` series, every
/// histogram is there as its `_p50`/`_p99` projections, and the history
/// holds nothing else (counted through `/statusz`).
#[test]
fn metrics_and_query_share_one_name_set() {
    let percent_encode = |key: &str| -> String {
        key.bytes()
            .map(|b| match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' => (b as char).to_string(),
                _ => format!("%{b:02X}"),
            })
            .collect()
    };
    let machine = MachineProfile::i3_metal();
    let mut freqmine = by_path("parsec3/freqmine").expect("workload exists");
    freqmine.nr_epochs = 60;
    let workers = FleetConfig { worker_footprint: 4 << 20, ..FleetConfig::default() };
    let runs = [
        (RunConfig::rec(), freqmine, FleetSpec::new(1)),
        (
            RunConfig::prcl(),
            workers.worker_spec(25),
            FleetSpec::new(24).shard_size(4).workers(1).tenants(3),
        ),
    ];
    for (config, spec, fleet) in runs {
        let publisher = Publisher::new();
        let server = ObsServer::bind("127.0.0.1:0", publisher.clone()).expect("bind");
        let addr = server.addr();
        let mut obs =
            FleetPublisher::new(publisher, &config.name, &spec.path_name(), &machine.name, 5);
        let result = Session::new(&machine, &config, &spec)
            .seed(15)
            .fleet(fleet)
            .fleet_observer(&mut obs)
            .execute()
            .expect("run");
        obs.finalize(result.fleet.as_ref().expect("every session carries a summary"));

        let metrics = http_get(addr, "/metrics", TIMEOUT).expect("metrics");
        let samples = parse_exposition(&metrics.body).expect("exposition parses");
        let hist_families: BTreeSet<&str> =
            samples.iter().filter_map(|s| s.name.strip_suffix("_bucket")).collect();
        // `(family, suffix)` when the sample is one line of a histogram.
        let hist_part = |s: &Sample| {
            ["_bucket", "_sum", "_count"].into_iter().find_map(|suffix| {
                let base = s.name.strip_suffix(suffix)?;
                hist_families.contains(base).then(|| (base.to_string(), suffix))
            })
        };
        let mut series = BTreeSet::new();
        for s in &samples {
            match hist_part(s) {
                Some((base, "_count")) => {
                    for p in ["_p50", "_p99"] {
                        series.insert(Sample { name: format!("{base}{p}"), ..s.clone() }.key());
                    }
                }
                Some(_) => {}
                None => {
                    series.insert(s.key());
                }
            }
        }
        assert!(series.contains("daos_obs_monitor_share_permille"), "{series:?}");
        for key in &series {
            let path = format!("/query?metric={}", percent_encode(key));
            let resp = http_get(addr, &path, TIMEOUT).expect("query");
            assert_eq!(resp.status, 200, "{key} is on /metrics but not on /query");
        }
        let statusz = http_get(addr, "/statusz", TIMEOUT).expect("statusz");
        let held: u64 = daos_util::json::parse(&statusz.body)
            .expect("statusz is JSON")
            .field("history_series")
            .expect("history_series");
        assert_eq!(held, series.len() as u64, "the history holds a series /metrics lacks");
    }
}

/// A ring far too small for what is recorded into it: the drops are
/// what an outside scraper would see — `daos_obs_dropped_events` on
/// `/query`, flat, rising while the ring overflows, flat again — and
/// `/events` carries only what survived.
#[test]
fn ring_overflow_is_a_rising_dropped_events_series() {
    use daos_trace::{Collector, Event};
    let publisher = Publisher::new();
    let server = ObsServer::bind("127.0.0.1:0", publisher.clone()).unwrap();
    let mut c = Collector::builder().ring_capacity(16).build().unwrap();
    let publish = |seq: u64, c: &Collector| {
        publisher.sync_ring(c.ring());
        publisher.publish(ObsSnapshot {
            seq,
            now_ns: seq * 1_000_000_000,
            dropped_events: c.ring().dropped(),
            ..Default::default()
        });
    };
    publish(1, &c);
    for at in 0..40u64 {
        c.record(at, Event::RegionSplit { before: at, after: at + 1 });
    }
    assert!(c.ring().dropped() > 0, "the ring must actually overflow");
    publish(2, &c);
    for at in 40..64u64 {
        c.record(at, Event::RegionSplit { before: at, after: at + 1 });
    }
    publish(3, &c);
    publish(4, &c);
    publish(5, &c);
    publisher.finish();

    let resp = http_get(server.addr(), "/query?metric=daos_obs_dropped_events", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let answer = daos_util::json::parse(&resp.body).expect("query body is JSON");
    let answer = daos_obs::QueryResult::from_json(&answer).expect("query body decodes");
    let values: Vec<f64> = answer.points.iter().map(|&(_, v)| v).collect();
    assert_eq!(values.len(), 5, "{}", resp.body);
    assert_eq!(values[0], 0.0);
    assert!(values[1] > 0.0 && values[2] > values[1], "rising: {values:?}");
    assert_eq!(values[3], values[2], "flat after: {values:?}");
    assert_eq!(values[4], values[3], "flat after: {values:?}");

    let events = http_get(server.addr(), "/events", TIMEOUT).unwrap();
    assert_eq!(events.body.lines().count(), 32, "two syncs of a 16-slot ring");
}

#[test]
fn serve_free_run_allocates_no_publisher() {
    // The zero-overhead pin from the CLI side: a plain session touches
    // neither collector nor publisher, so global trace state stays off.
    let machine = MachineProfile::i3_metal();
    let mut spec = by_path("parsec3/freqmine").expect("workload exists");
    spec.nr_epochs = 40;
    assert!(!daos_trace::enabled());
    let config = RunConfig::baseline();
    let result = Session::new(&machine, &config, &spec).seed(7).execute().expect("run");
    assert!(result.into_single().runtime_ns > 0);
    assert!(!daos_trace::enabled(), "plain runs must not install a collector");
}

/// A profiled run exports its host wall time per engine phase as one
/// labelled family, `daos_engine_phase_wall_ns{phase}`: a sample per
/// phase, as of the last tick published, so never more than the run's
/// own final profile. An unprofiled run exports no such family.
#[test]
fn a_profiled_run_exports_its_engine_phases() {
    let machine = MachineProfile::i3_metal();
    let config = RunConfig::prcl();
    let workers = FleetConfig { worker_footprint: 4 << 20, ..FleetConfig::default() };
    let spec = workers.worker_spec(10);
    for profiled in [true, false] {
        let publisher = Publisher::new();
        let server = ObsServer::bind("127.0.0.1:0", publisher.clone()).expect("bind");
        let mut obs =
            FleetPublisher::new(publisher, &config.name, &spec.path_name(), &machine.name, 1);
        let result = Session::new(&machine, &config, &spec)
            .seed(3)
            .fleet(FleetSpec::new(8).shard_size(4).workers(2))
            .profile_wall(profiled)
            .fleet_observer(&mut obs)
            .execute()
            .expect("run");
        obs.finalize(result.fleet.as_ref().expect("every session carries a summary"));
        let metrics = http_get(server.addr(), "/metrics", TIMEOUT).expect("metrics");
        let samples = parse_exposition(&metrics.body).expect("exposition parses");
        let phases: Vec<&Sample> =
            samples.iter().filter(|s| s.name == "daos_engine_phase_wall_ns").collect();
        let Some(profile) = result.profile else {
            assert!(!profiled && phases.is_empty(), "unprofiled: {phases:?}");
            continue;
        };
        assert_eq!(phases.len(), Phase::ALL.len(), "{phases:?}");
        let scraped = |phase: Phase| {
            let label = vec![("phase".to_string(), phase.name().to_string())];
            phases.iter().find(|s| s.labels == label).map(|s| s.value)
        };
        for phase in Phase::ALL {
            let ns = scraped(phase).unwrap_or_else(|| panic!("no {phase:?} in {phases:?}"));
            assert!(ns <= profile.phase_ns(phase) as f64, "{phase:?}: {ns}");
        }
        assert!(scraped(Phase::Workload) > Some(0.0), "{phases:?}");
    }
}
