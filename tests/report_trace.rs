//! Integration: the offline report pipeline is *exact*. A record
//! rebuilt from a trace equals the record the runner kept in memory, a
//! heatmap driven from the trace equals the in-memory Fig. 6 heatmap
//! cell-for-cell, and a run without the collector emits zero span
//! events (the zero-overhead pin, observed end to end).

use daos::{biggest_active_span, Heatmap, RunConfig, Session};
use daos_mm::MachineProfile;
use daos_report::{record_from_doc, Profile, Summary};
use daos_trace::{parse_export, Collector, Event};
use daos_workloads::by_path;

fn traced_run(seed: u64) -> (daos::RunResult, Collector) {
    let machine = MachineProfile::i3_metal();
    let mut spec = by_path("parsec3/freqmine").unwrap();
    spec.nr_epochs = 1_000;
    let collector = Collector::builder().ring_capacity(1 << 20).build().unwrap();
    daos_trace::install(collector).unwrap();
    let run_result = Session::new(&machine, &RunConfig::rec(), &spec).seed(seed).execute();
    let collector = daos_trace::take().expect("collector installed above");
    (run_result.unwrap().into_single(), collector)
}

#[test]
fn trace_rebuilt_record_equals_the_in_memory_record() {
    let (result, collector) = traced_run(7);
    assert_eq!(collector.ring().dropped(), 0, "ring too small for an exact rebuild");

    // Full offline path: export -> parse -> rebuild.
    let doc = parse_export(&daos_trace::export_collector(&collector)).unwrap();
    assert!(doc.is_complete());
    let rebuilt = record_from_doc(&doc);
    let live = result.record.as_ref().expect("rec config records");
    assert_eq!(live, &rebuilt, "trace-rebuilt record diverged from the in-memory one");

    // Therefore the Fig. 6 heatmap is identical cell-for-cell.
    let span = biggest_active_span(live).expect("freqmine shows activity");
    let from_live = Heatmap::from_record(live, span, 24, 12).unwrap();
    let trace_span = biggest_active_span(&rebuilt).expect("trace holds complete windows");
    let from_trace = Heatmap::from_record(&rebuilt, trace_span, 24, 12).unwrap();
    assert_eq!(from_live.cells, from_trace.cells);
    assert_eq!(from_live.time_span, from_trace.time_span);
    assert_eq!(from_live.addr_span, from_trace.addr_span);

    // And the summary sees a consistent document.
    let summary = Summary::of(&doc);
    assert!(summary.is_complete());
    assert_eq!(summary.nr_events, doc.events.len() as u64);
}

/// THP promotion and demotion, end to end: `daos report summary` of
/// `daos trace splash2x/ocean_ncp --seed 42 --epochs 2000` under `ethp`
/// (the scheme promotes and demotes) and under `thp` (khugepaged
/// promotes), pinned event kind by event kind, `ThpPromote` and
/// `ThpDemote` included.
#[test]
fn thp_runs_trace_the_pinned_event_counts() {
    let machine = MachineProfile::i3_metal();
    let mut spec = by_path("splash2x/ocean_ncp").unwrap();
    spec.nr_epochs = 2_000;
    for config in [RunConfig::ethp(), RunConfig::thp()] {
        daos_trace::install(Collector::builder().build().unwrap()).unwrap();
        let ran = Session::new(&machine, &config, &spec).seed(42).execute();
        let collector = daos_trace::take().expect("collector installed above");
        ran.unwrap();
        let doc = parse_export(&daos_trace::export_collector(&collector)).unwrap();
        let path = format!(
            "{}/tests/golden/trace_summary_ocean_ncp_{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            config.name
        );
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(Summary::of(&doc).render(), pinned, "{}", config.name);
    }
}

#[test]
fn profile_cross_checks_overhead_and_sees_all_phases() {
    let (result, collector) = traced_run(11);
    let doc = parse_export(&daos_trace::export_collector(&collector)).unwrap();
    let profile = Profile::of(&doc);

    // Sample spans must sum to exactly the monitor's own accounting.
    assert!(profile.overhead_consistent(), "{}", profile.render());
    let overhead = result.overhead.expect("rec config monitors");
    assert_eq!(profile.sample_span_ns, overhead.work_ns);

    // A monitoring run exercises sample + aggregate + split/merge.
    let names: Vec<&str> = profile.phases.iter().map(|p| p.phase.key_name()).collect();
    for want in ["sample", "aggregate", "split_merge"] {
        assert!(names.contains(&want), "missing phase {want} in {names:?}");
    }
}

#[test]
fn disabled_collection_emits_zero_span_events() {
    // Same workload, no collector installed: the spans' bodies still run
    // (they ARE the cost model) but no events may exist anywhere.
    let machine = MachineProfile::i3_metal();
    let mut spec = by_path("parsec3/freqmine").unwrap();
    spec.nr_epochs = 300;
    assert!(!daos_trace::enabled());
    let result = Session::new(&machine, &RunConfig::rec(), &spec).seed(3).execute().unwrap();
    assert!(result.into_single().record.is_some(), "the run itself is unaffected");

    // An empty trace document reports exactly that: zero spans.
    let doc = parse_export("").unwrap();
    let profile = Profile::of(&doc);
    assert!(profile.phases.is_empty());
    assert!(profile.render().contains("no spans recorded"));
}

#[test]
fn span_events_nest_enter_before_exit() {
    let (_, collector) = traced_run(5);
    let events = collector.events();
    let mut open: Vec<daos_trace::Phase> = Vec::new();
    let mut seen = 0u64;
    for te in &events {
        match te.event {
            Event::SpanEnter { phase } => open.push(phase),
            Event::SpanExit { phase, dur_ns } => {
                let entered = open.pop().expect("exit without enter");
                assert_eq!(entered, phase, "spans must close in LIFO order");
                let _ = dur_ns;
                seen += 1;
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
    assert!(seen > 0, "a monitored run must record spans");
}
