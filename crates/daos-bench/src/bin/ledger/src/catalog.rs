//! What the ledger runs and what it reports: the six workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! lanes. `BENCHMARK.json` lists the same names — of the workloads, the
//! four the benchmark driver runs; a unit test holds the two together.

use crate::adapter::Input;
use crate::host;

pub struct Workload {
    pub name: &'static str,
    /// Why it is in the benchmark (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Timed repeats of a full ledger run (a `--seconds` budget overrides).
    pub repeats: usize,
    /// Repeats of the traced pass.
    pub traced_repeats: usize,
    /// Cold children, each timed from spawn to exit (`--quick` runs one).
    pub cold_children: usize,
    /// Also time one run with a `daos-trace` collector installed.
    pub collector_pass: bool,
    /// Listed in `BENCHMARK.json`, so run by the benchmark driver. Its time
    /// limit pays for four workloads with windows long enough to be steady
    /// on a shared two-core host; the other two run two busy threads across
    /// a barrier every tick and are the ledger's own.
    pub in_benchmark_json: bool,
    /// Generate the inputs from the seed.
    pub input: fn(u64) -> Result<Input, String>,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "run_idle_prcl",
        why: "daos run of parsec3/freqmine under prcl: mostly idle, mm apply_access is ~90% of host time, monitor ~6%",
        repeats: 40,
        traced_repeats: 5,
        cold_children: 5,
        collector_pass: false,
        in_benchmark_json: true,
        input: |seed| Input::single("parsec3/freqmine", "prcl", seed),
    },
    Workload {
        name: "run_stream_ethp",
        why: "daos run of splash2x/ocean_ncp under ethp: streaming and THP-promoting, monitor step and mm each ~47%",
        repeats: 30,
        traced_repeats: 5,
        cold_children: 5,
        collector_pass: true,
        in_benchmark_json: true,
        input: |seed| Input::single("splash2x/ocean_ncp", "ethp", seed),
    },
    Workload {
        name: "fig7_grid",
        why: "4 workloads x 6 paper configs through par_map: figure proxy; only user of par_map, khugepaged, paddr, recording",
        repeats: 5,
        traced_repeats: 2,
        cold_children: 3,
        collector_pass: false,
        in_benchmark_json: true,
        input: |seed| {
            Input::grid(
                &["parsec3/freqmine", "splash2x/ocean_ncp", "parsec3/canneal", "parsec3/dedup"],
                seed,
            )
        },
    },
    Workload {
        name: "fleet_wide",
        why: "daos fleet 1000 procs x 50 epochs on 1 worker: build-dominated (~60% in FleetEngine::new), ticks ~40%",
        repeats: 20,
        traced_repeats: 5,
        cold_children: 5,
        collector_pass: false,
        in_benchmark_json: true,
        // One worker on purpose: the page-fault-bound build drifts far
        // more between sets when two threads fault at once.
        input: |seed| Input::fleet(1000, 50, 1, false, seed),
    },
    Workload {
        name: "fleet_long",
        why: "daos fleet 256 procs x 600 epochs on min(nproc,2) workers: tick-dominated (~85%), pool barrier every tick",
        repeats: 25,
        traced_repeats: 5,
        cold_children: 5,
        collector_pass: false,
        in_benchmark_json: false,
        input: |seed| Input::fleet(256, 600, host::thread_cap(), false, seed),
    },
    Workload {
        name: "fleet_served",
        why: "fleet_long with FleetPublisher, ObsServer and one scraper attached: reads beside writes, progress() every tick",
        repeats: 25,
        traced_repeats: 5,
        cold_children: 5,
        collector_pass: false,
        in_benchmark_json: false,
        input: |seed| Input::fleet(256, 600, host::thread_cap(), true, seed),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before `--compare` says `worse`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// As a share of the first artifact's median.
    Share(f64),
    /// In the metric's own unit.
    Abs(f64),
}

/// Which statistic of a window's samples is the metric's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stat {
    Median,
    /// The fastest decile: p10 of a lower-is-better metric, p90 of a
    /// higher-is-better one. Neighbours on a shared host only ever slow a
    /// run down, in bursts of seconds; the fast end of a window is the
    /// program's own cost and repeats where the median does not.
    FastDecile,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub stat: Stat,
    pub bound: Bound,
    /// Emitted by every workload, and so listed under `end_to_end` in
    /// `BENCHMARK.json`, whose contract wants every such metric on every
    /// run. The others exist on one workload only; the ledger gates them
    /// all the same in `--compare`.
    pub everywhere: bool,
}

use Better::{Higher, Lower};
use Bound::{Abs, Share};
use Stat::{FastDecile, Median};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    stat: Stat,
    bound: Bound,
    everywhere: bool,
) -> EndToEnd {
    EndToEnd { name, unit, better, stat, bound, everywhere }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("sim_s_per_wall_s", "sim_s/host_s", Higher, FastDecile, Share(0.25), true),
    e2e("wall_ms_p10", "ms", Lower, FastDecile, Share(0.25), true),
    e2e("setup_s", "s", Lower, Median, Share(0.25), true),
    e2e("peak_rss_mib", "MiB", Lower, Median, Share(0.10), true),
    e2e("failed_share", "ratio", Lower, Median, Abs(0.0), false),
    e2e("paper_err_pp", "pp", Lower, Median, Abs(1.0), false),
    e2e("scrape_ms_p50", "ms", Lower, Median, Share(0.25), false),
];

/// One per-layer lane: (name, unit, better). The layer is the name's
/// prefix; see [`layer_of`]. Host times are `ms`/`us`/`ns`; `count`,
/// `bytes`, `pp` and `sim_ms` lanes are simulated and repeat exactly
/// per seed.
pub type Lane = (&'static str, &'static str, Better);

pub const LANES: [Lane; 83] = [
    ("workloads.setup_ms", "ms", Lower),
    ("workloads.epoch_ms", "ms", Lower),
    ("workloads.epochs", "count", Lower),
    ("workloads.batches", "count", Lower),
    ("mm.new_ms", "ms", Lower),
    ("mm.apply_access_ms", "ms", Lower),
    ("mm.apply_access_calls", "count", Lower),
    ("mm.ns_per_batch", "ns", Lower),
    ("mm.advance_ms", "ms", Lower),
    ("mm.khugepaged_ms", "ms", Lower),
    ("mm.drop_ms", "ms", Lower),
    ("mm.major_faults", "count", Lower),
    ("mm.swapouts", "count", Lower),
    ("mm.thp_promotions", "count", Higher),
    ("monitor.new_ms", "ms", Lower),
    ("monitor.step_ms", "ms", Lower),
    ("monitor.steps", "count", Lower),
    ("monitor.checks", "count", Lower),
    ("monitor.windows", "count", Lower),
    ("monitor.host_ns_per_check", "ns", Lower),
    ("monitor.sim_work_ms", "sim_ms", Lower),
    ("schemes.apply_ms", "ms", Lower),
    ("schemes.passes", "count", Lower),
    ("schemes.regions_tried", "count", Lower),
    ("schemes.regions_applied", "count", Higher),
    ("schemes.apply_ratio", "ratio", Higher),
    ("schemes.bytes_applied", "bytes", Higher),
    ("schemes.quota_skips", "count", Lower),
    ("driver.session_ms", "ms", Lower),
    ("driver.composed_ms", "ms", Lower),
    ("driver.trace_overhead_pct", "%", Lower),
    ("driver.glue_ms", "ms", Lower),
    ("driver.attributed_pct", "%", Higher),
    ("driver.host_ns_per_proc_epoch", "ns", Lower),
    ("grid.cell_ms.baseline", "ms", Lower),
    ("grid.cell_ms.rec", "ms", Lower),
    ("grid.cell_ms.prec", "ms", Lower),
    ("grid.cell_ms.thp", "ms", Lower),
    ("grid.cell_ms.ethp", "ms", Lower),
    ("grid.cell_ms.prcl", "ms", Lower),
    ("grid.paper_err_pp", "pp", Lower),
    ("fleet.build_ms", "ms", Lower),
    ("fleet.build_ns_per_proc", "ns", Lower),
    ("fleet.ticks_ms", "ms", Lower),
    ("fleet.tick_us_p50", "us", Lower),
    ("fleet.tick_us_p99", "us", Lower),
    ("fleet.tick_ns_per_proc", "ns", Lower),
    ("fleet.progress_us_p50", "us", Lower),
    ("fleet.finish_ms", "ms", Lower),
    ("fleet.results_drop_ms", "ms", Lower),
    ("fleet.steals", "count", Lower),
    ("pool.par_map_ms", "ms", Lower),
    ("pool.jobs", "count", Lower),
    ("pool.job_ms_sum", "ms", Lower),
    ("pool.job_ms_max", "ms", Lower),
    ("pool.efficiency", "ratio", Higher),
    ("obs.bind_ms", "ms", Lower),
    ("obs.on_tick_us_p50", "us", Lower),
    ("obs.on_tick_calls", "count", Lower),
    ("obs.publishes", "count", Lower),
    ("obs.publish_ratio", "ratio", Higher),
    ("obs.render_metrics_us", "us", Lower),
    ("obs.metrics_bytes", "bytes", Lower),
    ("obs.scrape_metrics_us_p50", "us", Lower),
    ("obs.scrape_snapshot_us_p50", "us", Lower),
    ("obs.scrape_query_us_p50", "us", Lower),
    ("obs.scrape_ms_p50", "ms", Lower),
    ("obs.scrape_us_p99", "us", Lower),
    ("obs.requests", "count", Higher),
    ("obs.failed_requests", "count", Lower),
    ("obs.rejected_503", "count", Lower),
    ("obs.shutdown_ms", "ms", Lower),
    ("trace.on_overhead_pct", "%", Lower),
    ("trace.events", "count", Lower),
    ("trace.dropped", "count", Lower),
    ("trace.export_ms", "ms", Lower),
    ("trace.export_mib", "MiB", Lower),
    ("trace.parse_ms", "ms", Lower),
    ("tuner.tune_us", "us", Lower),
    ("tuner.evals", "count", Lower),
    ("host.ref_ms", "ms", Lower),
    ("host.nproc", "count", Higher),
    ("host.threads_max", "count", Lower),
];

pub fn lane(name: &str) -> Option<&'static Lane> {
    LANES.iter().find(|l| l.0 == name)
}

/// The crate a lane measures.
pub fn layer_of(lane: &str) -> &'static str {
    match lane.split('.').next().unwrap_or("") {
        "workloads" => "daos-workloads",
        "mm" => "daos-mm",
        "monitor" => "daos-monitor",
        "schemes" => "daos-schemes",
        "driver" | "grid" | "fleet" => "daos",
        "pool" => "daos-util",
        "obs" => "daos-obs",
        "trace" => "daos-trace",
        "tuner" => "daos-tuner",
        _ => "host",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{parse_json as parse, Json};
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(LANES.iter().map(|l| l.0));
        for name in all {
            assert!(well_formed(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(LANES.iter().map(|l| l.1)) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(!well_formed(".x") && !well_formed("a b") && !well_formed(""));
        assert!(LANES.iter().all(|l| layer_of(l.0) != "host" || l.0.starts_with("host.")));
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, Json)> {
        let entries = doc.get(key).expect(key).as_array().expect("array");
        entries.iter().map(|e| (e.field::<String>("name").expect("name"), e.clone())).collect()
    }

    /// The contract run prints exactly the catalog's names (see
    /// `contract_line`), so catalog == BENCHMARK.json, in both
    /// directions, is what keeps emitted and listed names identical.
    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let doc = benchmark_json();
        let names = |key| listed(&doc, key).into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        let driven: Vec<&str> =
            WORKLOADS.iter().filter(|w| w.in_benchmark_json).map(|w| w.name).collect();
        assert_eq!(names("workloads"), driven);
        let everywhere: Vec<&str> =
            END_TO_END.iter().filter(|m| m.everywhere).map(|m| m.name).collect();
        assert_eq!(names("end_to_end"), everywhere);
        assert_eq!(names("per_layer"), LANES.iter().map(|l| l.0).collect::<Vec<_>>());

        for (name, entry) in listed(&doc, "workloads") {
            assert_eq!(entry.field::<String>("why").unwrap(), workload(&name).unwrap().why);
        }
        for (name, entry) in listed(&doc, "end_to_end") {
            let m = END_TO_END.iter().find(|m| m.name == name).unwrap();
            assert_eq!(entry.field::<String>("unit").unwrap(), m.unit);
            assert_eq!(entry.field::<String>("better").unwrap(), m.better.as_str());
            assert_eq!(Bound::Share(entry.field::<f64>("bound").unwrap()), m.bound);
        }
        for (name, entry) in listed(&doc, "per_layer") {
            let l = lane(&name).unwrap();
            assert_eq!(entry.field::<String>("unit").unwrap(), l.1);
            assert_eq!(entry.field::<String>("better").unwrap(), l.2.as_str());
        }
    }
}
