//! Engine cross-validation: a fleet of one must reproduce the pinned
//! single-run goldens (results and byte-stable trace), a shard-wide
//! plane over several processes its own golden, and fleets must
//! stay deterministic regardless of worker count, keep per-process drop
//! accounting, and show sub-linear monitoring overhead.

use daos::{FleetSpec, FleetSummary, MonitorKind, RunConfig, Session};
use daos_mm::clock::ms;
use daos_mm::MachineProfile;
use daos_monitor::MonitorAttrs;
use daos_schemes::parse_scheme_line;
use daos_trace::Collector;
use daos_workloads::{by_path, FleetConfig, WorkloadSpec};

fn small_machine() -> MachineProfile {
    let mut m = MachineProfile::i3_metal();
    m.dram_bytes = 1 << 30;
    m
}

fn small_worker(nr_epochs: u64) -> WorkloadSpec {
    let cfg = FleetConfig { worker_footprint: 4 << 20, ..FleetConfig::default() };
    cfg.worker_spec(nr_epochs)
}

/// The committed golden `tests/golden/<name>`: what a single-process
/// run of the small-worker spec produces.
/// The monitor's share of the fleet's CPU time, in ‰ — the number the
/// paper's Conclusion 3 bounds at 5 % of one CPU per process.
fn monitor_share_permille(s: &FleetSummary) -> u64 {
    s.monitor_work_ns * 1000 / (s.nr_processes as u64 * s.runtime_ns)
}

fn golden(name: &str) -> String {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A single run is a fleet of one: for every paper configuration, vaddr
/// and paddr alike, a session without a fleet spec reproduces the pinned
/// single-run `RunResult`.
#[test]
fn fleet_of_one_equals_single_run() {
    let machine = small_machine();
    let spec = small_worker(40);
    for config in RunConfig::paper_configs() {
        let pinned = golden(&format!("single_run_{}.txt", config.name));
        let session = Session::new(&machine, &config, &spec).seed(42).execute().unwrap();
        assert_eq!(session.runs.len(), 1);
        assert_eq!(
            format!("{:#?}\n", session.runs[0]),
            pinned,
            "session of one diverged from the pinned single run under config {}",
            config.name
        );
        let summary = session.fleet.expect("every session carries a summary");
        assert_eq!(summary.nr_processes, 1);
        assert_eq!(summary.runtime_ns, session.runs[0].runtime_ns);
    }
}

/// A fleet of one runs inline on the caller thread, so a
/// caller-installed trace collector sees the pinned single-run event
/// stream, byte for byte.
#[test]
fn fleet_of_one_trace_is_byte_stable() {
    let machine = small_machine();
    let spec = small_worker(30);
    let config = RunConfig::prcl();

    daos_trace::install(Collector::builder().build().unwrap()).unwrap();
    Session::new(&machine, &config, &spec).seed(7).execute().unwrap();
    let trace = daos_trace::export_collector(&daos_trace::take().unwrap());
    assert_eq!(
        trace,
        golden("single_run_prcl_seed7_trace.jsonl"),
        "session-of-one trace diverged from the pinned single run"
    );
}

/// A shard-wide plane over more than one process: under a recording
/// physical-address configuration with a pageout scheme, each shard's
/// record, scheme stats and overhead land on its first process (`None` /
/// empty on the rest). All 12 results plus the summary are pinned, at
/// either worker count. Intervals are shortened so that windows complete
/// and the scheme pages out within 25 epochs.
#[test]
fn paddr_fleet_of_twelve_matches_golden() {
    let machine = small_machine();
    let spec = small_worker(25);
    let attrs = MonitorAttrs::builder()
        .sampling_interval(ms(1))
        .aggregation_interval(ms(10))
        .regions_update_interval(ms(50))
        .build()
        .unwrap();
    let config = RunConfig::builder("prec-pageout")
        .monitor(MonitorKind::Paddr)
        .scheme(parse_scheme_line("4K max min min 20ms max pageout").unwrap())
        .record(true)
        .attrs(attrs)
        .build()
        .unwrap();
    let pinned = golden("fleet_paddr12.txt");
    for workers in [1, 2] {
        let session = Session::new(&machine, &config, &spec)
            .seed(15)
            .fleet(FleetSpec::new(12).shard_size(4).workers(workers).tenants(3))
            .execute()
            .unwrap();
        let mut summary = session.fleet.expect("every session carries a summary");
        assert_eq!(summary.nr_workers, workers);
        assert!(monitor_share_permille(&summary) <= 50, "paddr monitor over the 5 % bound");
        // The golden is one file for both worker counts.
        summary.nr_workers = 0;
        assert_eq!(
            format!("{:#?}\n{:#?}\n", session.runs, summary),
            pinned,
            "paddr fleet of 12 diverged from the golden at workers({workers})"
        );
    }
}

/// Worker count is a performance knob, never a results knob: per-process
/// results and the summary (but for `nr_workers` itself) are identical whether
/// the shards are stamped and ticked inline or over a pool of two or of
/// eight, remainder shard included.
#[test]
fn fleet_results_independent_of_worker_count() {
    let machine = small_machine();
    let spec = small_worker(25);
    let config = RunConfig::prcl();
    let fleet = |workers: usize| {
        Session::new(&machine, &config, &spec)
            .seed(1234)
            .fleet(FleetSpec::new(26).shard_size(4).workers(workers).tenants(3))
            .execute()
            .unwrap()
    };
    let serial = fleet(1);
    let s = serial.fleet.unwrap();
    assert_eq!((s.nr_workers, s.nr_shards), (1, 7));
    assert!(monitor_share_permille(&s) <= 50, "vaddr monitor over the 5 % bound");
    for workers in [2, 8] {
        let parallel = fleet(workers);
        assert_eq!(serial.runs, parallel.runs, "workers({workers}) changed per-process results");
        let mut p = parallel.fleet.unwrap();
        assert_eq!(p.nr_workers, workers);
        p.nr_workers = s.nr_workers;
        assert_eq!(s, p, "workers({workers}) changed the summary");
    }
}

/// Same seed, same everything: a fleet run is reproducible.
#[test]
fn fleet_runs_are_deterministic() {
    let machine = small_machine();
    let spec = small_worker(20);
    let config = RunConfig::prcl();
    let go = || {
        Session::new(&machine, &config, &spec)
            .seed(99)
            .fleet(FleetSpec::new(10).shard_size(3).workers(2))
            .execute()
            .unwrap()
    };
    let a = go();
    let b = go();
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.fleet.unwrap().tenants, b.fleet.unwrap().tenants);
}

/// The region budget makes per-process monitoring overhead fall as the
/// fleet grows (the sub-linearity acceptance criterion, in miniature).
#[test]
fn monitoring_overhead_is_sublinear_in_fleet_size() {
    let machine = small_machine();
    let spec = small_worker(12);
    let config = RunConfig::prcl();
    let per_proc = |n: usize| {
        let s = Session::new(&machine, &config, &spec)
            .seed(5)
            .fleet(FleetSpec::new(n).shard_size(8))
            .execute()
            .unwrap()
            .fleet
            .unwrap();
        assert_eq!(s.nr_processes, n);
        s.overhead_per_process_ns()
    };
    let at_small = per_proc(8);
    let at_large = per_proc(128);
    assert!(
        at_large <= at_small,
        "overhead per process grew with the fleet: {at_small} ns @8 vs {at_large} ns @128"
    );
}

/// With per-shard trace rings, drop counts are reported per process —
/// not collapsed into one once-per-run warning.
#[test]
fn per_process_drop_counts_survive_in_summary() {
    let machine = small_machine();
    let spec = small_worker(15);
    let config = RunConfig::prcl();
    let summary = Session::new(&machine, &config, &spec)
        .seed(3)
        .fleet(FleetSpec::new(6).shard_size(2).workers(2).trace_ring(8))
        .execute()
        .unwrap()
        .fleet
        .unwrap();
    assert_eq!(summary.dropped_events.len(), 6, "one drop counter per process");
    let lossy = summary.dropped_events.iter().filter(|&&d| d > 0).count();
    assert!(
        lossy >= 2,
        "expected multiple processes to overflow an 8-event ring, got {:?}",
        summary.dropped_events
    );
    let rendered = summary.render();
    assert!(rendered.contains("events dropped across"), "summary renders drops:\n{rendered}");
}

/// The budget clamp leaves a catalog workload's attrs untouched at N=1
/// and the builder clamps degenerate values.
#[test]
fn fleet_spec_defaults_and_clamps() {
    let spec = FleetSpec::new(0);
    assert_eq!(spec.nr_processes, 1);
    assert_eq!(spec.nr_shards(), 1);
    let spec = FleetSpec::new(100).shard_size(0).tenants(0);
    assert_eq!(spec.procs_per_shard, 1);
    assert_eq!(spec.nr_tenants, 1);
    assert_eq!(spec.nr_shards(), 100);

    // More tenants than processes would publish empty tenants.
    assert_eq!(FleetSpec::new(3).tenants(4).nr_tenants, 3);
    assert_eq!(FleetSpec::new(10).tenants(20).nr_tenants, 10);

    let attrs = daos_monitor::MonitorAttrs::paper_defaults();
    assert_eq!(FleetSpec::new(1).effective_attrs(&attrs), attrs, "N=1 attrs unchanged");
    let squeezed = FleetSpec::new(100_000).effective_attrs(&attrs);
    assert_eq!(squeezed.max_nr_regions, attrs.min_nr_regions, "huge fleets hit the floor");
}

/// A session without a fleet spec is a fleet of one — summary
/// included — and works on a catalog workload.
#[test]
fn session_without_fleet_spec_is_a_fleet_of_one() {
    let machine = small_machine();
    let config = RunConfig::rec();
    let spec = by_path("parsec3/blackscholes").unwrap();
    let mut small = spec;
    small.footprint = 8 << 20;
    small.nr_epochs = 20;
    let plain = Session::new(&machine, &config, &small).seed(11).execute().unwrap();
    let explicit = Session::new(&machine, &config, &small)
        .seed(11)
        .fleet(FleetSpec::new(1))
        .execute()
        .unwrap();
    assert_eq!(plain.runs, explicit.runs);
    assert_eq!(plain.fleet, explicit.fleet);
    let summary = plain.fleet.expect("every session carries a summary");
    assert_eq!((summary.nr_processes, summary.nr_shards, summary.nr_workers), (1, 1, 1));
    assert_eq!(summary.ticks, small.nr_epochs);
}
