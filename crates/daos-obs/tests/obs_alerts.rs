//! End-to-end alerting: a deliberately overflowed trace ring drives the
//! default `trace_ring_drop_rate` rule through its full hysteresis
//! cycle (ok → pending → firing → resolved → ok), the transitions
//! stream on `/events` as first-class trace events, `/query` serves the
//! series that crossed the threshold, and `/alerts` reports the rule.

use daos::{FleetSpec, RunConfig, Session};
use daos_mm::MachineProfile;
use daos_obs::http::http_get;
use daos_obs::{FleetPublisher, ObsServer, ObsSnapshot, Publisher};
use daos_workloads::FleetConfig;
use daos_trace::{AlertStateTag, Collector, Event, TimedEvent};
use daos_util::json::{FromJson, Json};
use std::time::Duration;

const T: Duration = Duration::from_secs(10);

#[test]
fn ring_overflow_fires_and_resolves_the_drop_rate_alert() {
    let publisher = Publisher::new();
    publisher.install_default_rules();
    let server = ObsServer::bind("127.0.0.1:0", publisher.clone()).unwrap();
    let addr = server.addr();

    // A ring far too small for the workload: everything past 16 drops.
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

    publish(1, &c); // baseline: no drops yet
    for at in 0..40u64 {
        c.record(at, Event::RegionSplit { before: at, after: at + 1 });
    }
    assert!(c.ring().dropped() > 0, "the ring must actually overflow");
    publish(2, &c); // drop rate goes positive -> pending
    for at in 40..64u64 {
        c.record(at, Event::RegionSplit { before: at, after: at + 1 });
    }
    publish(3, &c); // second breached interval -> firing
    publish(4, &c); // drops flat again -> resolved
    publish(5, &c); // still flat -> back to ok
    publisher.finish();

    // /alerts knows the rule and the cycle's transition count.
    let alerts = http_get(addr, "/alerts", T).unwrap();
    assert_eq!(alerts.status, 200);
    assert!(alerts.body.contains("\"rule\":\"trace_ring_drop_rate\""), "{}", alerts.body);
    assert!(alerts.body.contains("\"transitions\":4"), "{}", alerts.body);

    // /events carries the four transitions, in order, exactly once.
    let events = http_get(addr, "/events", T).unwrap();
    assert_eq!(events.status, 200);
    let mut transitions = Vec::new();
    for line in events.body.lines() {
        let ev = TimedEvent::from_json(&daos_util::json::parse(line).unwrap()).unwrap();
        if let Event::AlertTransition { from, to, value, .. } = ev.event {
            transitions.push((from, to, value));
        }
    }
    let cycle: Vec<(AlertStateTag, AlertStateTag)> =
        transitions.iter().map(|(f, t, _)| (*f, *t)).collect();
    assert_eq!(
        cycle,
        vec![
            (AlertStateTag::Ok, AlertStateTag::Pending),
            (AlertStateTag::Pending, AlertStateTag::Firing),
            (AlertStateTag::Firing, AlertStateTag::Resolved),
            (AlertStateTag::Resolved, AlertStateTag::Ok),
        ],
        "{}",
        events.body
    );
    // The firing transition carries the positive drop rate that drove it.
    assert!(transitions[1].2 > 0.0, "{transitions:?}");

    // /query serves the series that crossed: flat, rising, flat again.
    let resp =
        http_get(addr, "/query?metric=daos_obs_dropped_events&agg=last", T).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = daos_util::json::parse(&resp.body).unwrap();
    let Some(Json::Array(points)) = v.get("points") else {
        panic!("points missing: {}", resp.body);
    };
    let values: Vec<f64> = points
        .iter()
        .map(|p| match p {
            Json::Array(pair) => match pair[1] {
                Json::F64(v) => v,
                ref other => panic!("non-f64 value: {other:?}"),
            },
            other => panic!("non-pair point: {other:?}"),
        })
        .collect();
    assert_eq!(values.len(), 5, "{}", resp.body);
    assert_eq!(values[0], 0.0);
    assert!(values[1] > 0.0 && values[2] > values[1], "rising: {values:?}");
    assert_eq!(values[3], values[2], "flat after: {values:?}");
    assert_eq!(values[4], values[3], "flat after: {values:?}");

    // The overhead rule watches fleets of any size, not only a fleet of
    // one: a monitored 4-process fleet gives it a number to compare.
    let machine = MachineProfile::i3_metal();
    let config = RunConfig::prcl();
    let spec = FleetConfig { worker_footprint: 4 << 20, ..FleetConfig::default() }.worker_spec(25);
    let publisher = Publisher::new();
    let mut obs =
        FleetPublisher::new(publisher.clone(), &config.name, &spec.path_name(), &machine.name, 5);
    Session::new(&machine, &config, &spec)
        .seed(15)
        .fleet(FleetSpec::new(4).workers(1))
        .fleet_observer(&mut obs)
        .execute()
        .expect("fleet run");
    let statuses = publisher.alert_statuses();
    let overhead = statuses
        .iter()
        .find(|s| s.rule.name == "monitor_overhead_permille")
        .expect("default rule installed");
    assert!(overhead.value.is_some_and(|v| v > 0.0), "{overhead:?}");
}
