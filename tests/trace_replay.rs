//! Integration: the exported JSONL event log is a faithful replay
//! source. Running a workload with the collector installed, exporting
//! the stream, and re-parsing it must re-derive the monitor's Fig. 7
//! overhead bound (`max checks/tick <= 2 * max_nr_regions`) — the same
//! number the runner reports through `OverheadStats`.

use daos::{RunConfig, Session};
use daos_mm::MachineProfile;
use daos_trace::{parse_export, Collector, Event};
use daos_workloads::by_path;

#[test]
fn jsonl_replay_rederives_fig7_overhead_bound() {
    let machine = MachineProfile::i3_metal();
    let mut spec = by_path("parsec3/freqmine").unwrap();
    spec.nr_epochs = 1_500; // shortened run; the bound is per-tick, not per-run

    // Generous ring: losing early ticks to overwrite would understate
    // the replayed maximum.
    let collector = Collector::builder().ring_capacity(1 << 18).build().unwrap();
    daos_trace::install(collector).unwrap();
    let run_result = Session::new(&machine, &RunConfig::prcl(), &spec).seed(42).execute();
    let collector = daos_trace::take().expect("collector installed above");
    let result = run_result.unwrap().into_single();
    assert_eq!(collector.ring().dropped(), 0, "ring too small for a faithful replay");

    // Export and re-parse: the JSONL round trip is the replay source.
    let jsonl = daos_trace::export_collector(&collector);
    let events = parse_export(&jsonl).unwrap().events;
    assert!(!events.is_empty());

    let max_checks = events
        .iter()
        .filter_map(|t| match t.event {
            Event::SamplingTick { checks, .. } => Some(checks),
            _ => None,
        })
        .max()
        .expect("a prcl run must emit sampling ticks");

    // The replayed maximum is the runner's reported maximum…
    let overhead = result.overhead.expect("prcl monitors, so overhead is recorded");
    assert_eq!(max_checks, overhead.max_checks_per_tick);

    // …and both respect the paper's bound: each region costs at most
    // one mkold and one young check per tick.
    let bound = 2 * RunConfig::prcl().attrs.max_nr_regions as u64;
    assert!(
        max_checks <= bound,
        "max {max_checks} checks/tick exceeds Fig. 7 bound {bound}"
    );

    // The metrics registry agrees with the event stream on tick count.
    let ticks = events
        .iter()
        .filter(|t| matches!(t.event, Event::SamplingTick { .. }))
        .count() as u64;
    let hist = collector
        .registry()
        .hist(daos_trace::keys::MONITOR_CHECKS_PER_TICK)
        .expect("monitor records its per-tick histogram");
    assert_eq!(ticks, hist.count());
    assert_eq!(max_checks, hist.max());
}
