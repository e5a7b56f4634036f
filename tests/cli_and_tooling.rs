//! Tooling-level integration: record files, WSS reports and the scheme
//! DSL driving real runs end to end.

use daos::{RunConfig, Session};
use daos_mm::addr::AddrRange;
use daos_mm::clock::ms;
use daos_mm::{AccessBatch, MachineProfile, MemorySystem, SwapConfig, ThpMode};
use daos_monitor::{Aggregation, MonitorRecord, RegionInfo};
use daos_report::{record_from_doc, record_from_events, record_to_events, WssTimeline};
use daos_trace::{events_to_jsonl, parse_export, Collector};
use daos_workloads::{by_path, Behavior, Suite, WorkloadSpec};

fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "tooling",
        suite: Suite::Parsec3,
        footprint: 16 << 20,
        nr_epochs: 1500,
        compute_ns: ms(1),
        behavior: Behavior::CompactHot { hot_frac: 0.25, apc: 4.0, cold_touch_prob: 0.0 },
    }
}

/// What `daos record` writes for `record`, read back the way every
/// `daos report` kind reads its input.
fn through_a_record_file(record: &MonitorRecord) -> MonitorRecord {
    let text = events_to_jsonl(&record_to_events(record));
    record_from_doc(&parse_export(&text).expect("a record file is a trace export"))
}

#[test]
fn record_file_roundtrip_preserves_analysis_results() {
    let machine = MachineProfile::i3_metal();
    let (config, spec) = (RunConfig::rec(), small_spec());
    let result = Session::new(&machine, &config, &spec).seed(3).execute().unwrap().into_single();
    let record = result.record.unwrap();

    let reloaded = through_a_record_file(&record);
    assert_eq!(record, reloaded);

    // Analyses computed on the reloaded record agree exactly.
    let wss_a = WssTimeline::from_record(&record);
    let wss_b = WssTimeline::from_record(&reloaded);
    assert_eq!(wss_a, wss_b);
    // The hot quarter of 16 MiB is 4 MiB; the median WSS estimate should
    // sit in that ballpark.
    let median = wss_a.percentile(50.0);
    assert!(
        (2 << 20..8 << 20).contains(&median),
        "median WSS {} vs true hot set 4 MiB",
        median
    );

    let span_a = daos::biggest_active_span(&record).unwrap();
    let span_b = daos::biggest_active_span(&reloaded).unwrap();
    assert_eq!(span_a, span_b);
}

/// One record, three routes: the session's in-memory record, the
/// monitor's own event stream, and the file `daos record` writes.
#[test]
fn one_record_three_routes_equal() {
    let machine = MachineProfile::i3_metal();
    let spec = by_path("parsec3/freqmine").unwrap();
    for config in [RunConfig::rec(), RunConfig::prec()] {
        let collector = Collector::builder().ring_capacity(1 << 20).build().unwrap();
        daos_trace::install(collector).unwrap();
        let ran = Session::new(&machine, &config, &spec).seed(42).execute();
        let collector = daos_trace::take().expect("collector installed above");
        assert_eq!(collector.ring().dropped(), 0, "{}: ring too small", config.name);
        let record = ran.unwrap().into_single().record.expect("a recording config");
        assert!(record.len() > 100, "{}: {} windows", config.name, record.len());

        assert_eq!(record_from_events(&record_to_events(&record)), record, "{}", config.name);
        assert_eq!(record_from_events(&collector.events()), record, "{}", config.name);
        assert_eq!(through_a_record_file(&record), record, "{}", config.name);
    }

    // What no run produces: a window with no regions between two that
    // have some, and counters at the top of their `u32` range.
    let window = |at, regions| Aggregation {
        at,
        regions,
        max_nr_accesses: u32::MAX,
        aggregation_interval: ms(100),
    };
    let full = RegionInfo { range: AddrRange::new(0, u64::MAX), nr_accesses: u32::MAX, age: u32::MAX };
    let mut record = MonitorRecord::new();
    record.push(window(ms(100), vec![full]));
    record.push(window(ms(200), vec![]));
    record.push(window(u64::MAX, vec![full, RegionInfo { age: 0, ..full }]));
    assert_eq!(record_to_events(&record).len(), 3 + 3);
    assert_eq!(record_from_events(&record_to_events(&record)), record);
    assert_eq!(through_a_record_file(&record), record);
}

#[test]
fn watermarked_reclaim_only_fires_under_pressure() {
    use daos_schemes::{
        parse_scheme_line, SchemeTarget, SchemesEngine, WatermarkMetric, Watermarks,
    };
    let mut machine = MachineProfile::i3_metal();
    machine.dram_bytes = 64 << 20;
    let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), 4);
    let pid = sys.spawn();
    let idle = sys.mmap(pid, 16 << 20, ThpMode::Never).unwrap();
    sys.apply_access(pid, &AccessBatch::all(idle, 1.0)).unwrap();
    for p in idle.pages() {
        sys.check_accessed_clear(pid, p);
    }

    let scheme = parse_scheme_line("min max min min min max pageout").unwrap();
    let config = scheme
        .configure()
        .watermarks(Watermarks {
            metric: WatermarkMetric::FreeMemPermille,
            high: 600,
            mid: 500,
            low: 50,
        })
        .build()
        .unwrap();
    let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![config]);
    let agg = daos_monitor::Aggregation {
        at: 0,
        regions: vec![daos_monitor::RegionInfo {
            range: idle,
            nr_accesses: 0,
            age: 100,
        }],
        max_nr_accesses: 20,
        aggregation_interval: ms(100),
    };

    // 75% free: dormant.
    let pass = engine.on_aggregation(&mut sys, &agg);
    assert_eq!(pass.paged_out, 0);

    // Allocate another 24 MiB → 37% free: the scheme wakes and reclaims.
    let pressure = sys.mmap(pid, 24 << 20, ThpMode::Never).unwrap();
    sys.apply_access(pid, &AccessBatch::all(pressure, 1.0)).unwrap();
    let pass = engine.on_aggregation(&mut sys, &agg);
    assert_eq!(pass.paged_out, 16 << 20, "idle area reclaimed under pressure");
}

/// The zero-dependency policy, as Cargo's own resolver states it: a
/// package that is not an in-tree path dependency gets a `source = `
/// line in the lockfile, and the committed one has none.
#[test]
fn committed_lockfile_resolves_every_package_in_tree() {
    let lock = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.lock"))
        .expect("the root Cargo.lock is committed");
    assert!(lock.contains("name = \"daos-util\""), "not this workspace's lockfile");
    let foreign: Vec<&str> = lock.lines().filter(|l| l.starts_with("source = ")).collect();
    assert!(foreign.is_empty(), "packages resolved from outside the tree: {foreign:?}");
}
