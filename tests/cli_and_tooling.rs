//! Tooling-level integration: record files, WSS reports and the scheme
//! DSL driving real runs end to end.

use daos::{record_from_csv, record_to_csv, RunConfig, Session, WssReport};
use daos_mm::clock::ms;
use daos_mm::{AccessBatch, MachineProfile, MemorySystem, SwapConfig, ThpMode};
use daos_workloads::{Behavior, Suite, WorkloadSpec};

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

#[test]
fn record_file_roundtrip_preserves_analysis_results() {
    let machine = MachineProfile::i3_metal();
    let (config, spec) = (RunConfig::rec(), small_spec());
    let result = Session::new(&machine, &config, &spec).seed(3).execute().unwrap().into_single();
    let record = result.record.unwrap();

    let csv = record_to_csv(&record);
    let reloaded = record_from_csv(&csv).unwrap();
    assert_eq!(record, reloaded);

    // Analyses computed on the reloaded record agree exactly.
    let wss_a = WssReport::from_record(&record);
    let wss_b = WssReport::from_record(&reloaded);
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
