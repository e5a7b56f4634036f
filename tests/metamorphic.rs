//! Metamorphic relations: two runs of the same engine whose results
//! must agree by construction, so no oracle is needed. Each relation
//! holds exactly, on the whole `RunResult` less its scheme statistics.

use daos::{MonitorKind, RunConfig, RunResult, Session, SessionResult};
use daos_mm::clock::sec;
use daos_schemes::{parse_scheme_line, Scheme, SchemeStats, WatermarkMetric, Watermarks};
use daos_workloads::{by_path, WorkloadSpec};

const WORKLOADS: [&str; 6] = [
    "parsec3/freqmine",
    "splash2x/ocean_ncp",
    "parsec3/canneal",
    "parsec3/dedup",
    "splash2x/fft",
    "parsec3/raytrace",
];

/// Epochs each workload is cut to.
const EPOCHS: u64 = 1_500;

fn line(scheme: &str) -> Scheme {
    parse_scheme_line(scheme).expect("static scheme parses")
}

/// The vaddr monitor alone; every case adds schemes to it and nothing else.
fn unschemed() -> RunConfig {
    RunConfig::builder("metamorphic").monitor(MonitorKind::Vaddr).build().unwrap()
}

fn run(config: &RunConfig, spec: &WorkloadSpec, seed: u64) -> RunResult {
    let machine = daos_mm::MachineProfile::i3_metal();
    let session = Session::new(&machine, config, spec).seed(seed).execute();
    session.map(SessionResult::into_single).unwrap()
}

/// A scheme that matches nothing, acts only by counting, or is never
/// activated leaves the run as the monitor alone left it: ROADMAP
/// item 13's relations (a) prcl with a `min_age` beyond the run, (b) a
/// `stat` scheme, (c) a pageout scheme whose watermark band never
/// activates — each also pinned by its own scheme statistics.
#[test]
fn inert_schemes_leave_the_run_unschemed() {
    let never = Watermarks { metric: WatermarkMetric::FreeMemPermille, high: 0, mid: 0, low: 0 };
    let dormant = Scheme::any(daos_schemes::Action::Pageout).configure().watermarks(never);
    let cases: [(&str, RunConfig, fn(&SchemeStats) -> bool); 3] = [
        (
            "(a) prcl, min_age 10,000 s",
            RunConfig { schemes: RunConfig::prcl_with_min_age(sec(10_000)).schemes, ..unschemed() },
            |st| st.nr_tried == 0,
        ),
        (
            "(b) stat",
            RunConfig { schemes: vec![line("min max min max min max stat").into()], ..unschemed() },
            |st| st.nr_applied > 0,
        ),
        (
            "(c) pageout under a 0/0/0 watermark band",
            RunConfig { schemes: vec![dormant.build().unwrap()], ..unschemed() },
            |st| st.nr_tried == 0,
        ),
    ];
    for path in WORKLOADS {
        let spec = WorkloadSpec { nr_epochs: EPOCHS, ..by_path(path).expect("paper workload") };
        for seed in [42, 7] {
            let plain = run(&unschemed(), &spec, seed);
            for (name, config, stats_hold) in &cases {
                let mut schemed = run(config, &spec, seed);
                let stats = std::mem::take(&mut schemed.scheme_stats);
                assert_eq!(schemed, plain, "{name} on {path} @ {seed} moved the run");
                let [stats] = stats.as_slice() else {
                    panic!("{name} on {path} @ {seed}: one scheme, one stats row");
                };
                assert!(stats_hold(stats), "{name} on {path} @ {seed}: {stats:?}");
            }
        }
    }
}
