//! From one traced repeat's spans and counts to the per-layer lanes of
//! [`crate::catalog::LANES`]. A lane whose spans the workload never
//! opened is left out.

use crate::span::Tracer;
use crate::stats::percentile_ns;

/// Spans the ledger's own driver code owns; their self time is the glue
/// no layer accounts for.
fn is_glue(name: &str) -> bool {
    matches!(name, "driver.composed" | "run" | "setup") || name.starts_with("grid.cell.")
}

/// A grid cell's job span, named after its configuration, and the lane
/// the cells of that configuration average into.
const GRID_CONFIGS: [(&str, &str); 6] = [
    ("grid.cell.baseline", "grid.cell_ms.baseline"),
    ("grid.cell.rec", "grid.cell_ms.rec"),
    ("grid.cell.prec", "grid.cell_ms.prec"),
    ("grid.cell.thp", "grid.cell_ms.thp"),
    ("grid.cell.ethp", "grid.cell_ms.ethp"),
    ("grid.cell.prcl", "grid.cell_ms.prcl"),
];

/// The job span of a grid cell under configuration `config`.
pub fn cell_span(config: &str) -> &'static str {
    let known =
        GRID_CONFIGS.iter().find(|(span, _)| span.strip_prefix("grid.cell.") == Some(config));
    known.map_or("grid.cell.other", |(span, _)| span)
}

const SCRAPES: [(&str, &str); 3] = [
    ("obs.scrape.metrics", "obs.scrape_metrics_us_p50"),
    ("obs.scrape.snapshot", "obs.scrape_snapshot_us_p50"),
    ("obs.scrape.query", "obs.scrape_query_us_p50"),
];

/// Lanes of traced repeat `run`. `processes` and `proc_epochs` size the
/// per-process figures; `par_workers` is how many threads `par_map` had.
pub fn of_run(
    tr: &Tracer,
    run: u32,
    processes: f64,
    proc_epochs: f64,
    par_workers: usize,
) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let ns = |span: &str| {
        let (total, n) = tr.total(run, span);
        (n > 0).then_some(total as f64)
    };
    let calls = |span: &str| Some(tr.total(run, span).1 as f64).filter(|&n| n > 0.0);
    let count = |name: &str| tr.count_of(run, name);
    let p_us = |span: &str, p: f64| {
        let d = tr.durations(run, span);
        (!d.is_empty()).then(|| percentile_ns(&d, p, 1e3))
    };
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    };
    let mut put = |name: &'static str, v: Option<f64>| out.extend(v.map(|v| (name, v)));
    let ms = |span: &str| ns(span).map(|t| t / 1e6);

    put("workloads.setup_ms", ms("workloads.setup"));
    put("workloads.epoch_ms", ms("workloads.epoch"));
    put("workloads.epochs", count("workloads.epochs"));
    put("workloads.batches", count("workloads.batches"));

    put("mm.new_ms", ms("mm.new"));
    put("mm.apply_access_ms", ms("mm.apply_access"));
    put("mm.apply_access_calls", count("workloads.batches"));
    put("mm.ns_per_batch", ratio(ns("mm.apply_access"), count("workloads.batches")));
    put("mm.advance_ms", ms("mm.advance"));
    put("mm.khugepaged_ms", ms("mm.khugepaged"));
    put("mm.drop_ms", ms("mm.drop"));
    put("mm.major_faults", count("mm.major_faults"));
    put("mm.swapouts", count("mm.swapouts"));
    put("mm.thp_promotions", count("mm.thp_promotions"));

    put("monitor.new_ms", ms("monitor.new"));
    put("monitor.step_ms", ms("monitor.step"));
    put("monitor.steps", calls("monitor.step"));
    put("monitor.checks", count("monitor.checks"));
    put("monitor.windows", count("monitor.windows"));
    put("monitor.host_ns_per_check", ratio(ns("monitor.step"), count("monitor.checks")));
    put("monitor.sim_work_ms", count("monitor.sim_work_ms"));

    put("schemes.apply_ms", ms("schemes.apply"));
    put("schemes.passes", calls("schemes.apply"));
    put("schemes.regions_tried", count("schemes.regions_tried"));
    put("schemes.regions_applied", count("schemes.regions_applied"));
    put(
        "schemes.apply_ratio",
        ratio(count("schemes.regions_applied"), count("schemes.regions_tried")),
    );
    put("schemes.bytes_applied", count("schemes.bytes_applied"));
    put("schemes.quota_skips", count("schemes.quota_skips"));

    // The driver: both passes' walls include dropping the results, as the
    // end-to-end wall does.
    let drop_of = |pass: &str| ns(pass).map(|t| t + ns(&format!("{pass}.drop")).unwrap_or(0.0));
    let session = drop_of("driver.session");
    let composed = drop_of("driver.composed");
    put("driver.session_ms", session.map(|t| t / 1e6));
    put("driver.composed_ms", composed.map(|t| t / 1e6));
    put("driver.trace_overhead_pct", ratio(composed, session).map(|r| (r - 1.0) * 100.0));
    // Thread time of the cells on the grid (its wall is shared by the
    // pool's threads), the composed wall everywhere else.
    let cells: f64 = GRID_CONFIGS.iter().filter_map(|(span, _)| ns(span)).sum();
    let on_grid = cells > 0.0;
    let glue: f64 = tr
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.run == run && is_glue(s.name) && !(on_grid && s.name == "driver.composed")
        })
        .map(|(id, _)| tr.self_ns(id) as f64)
        .sum();
    let base = if on_grid { Some(cells) } else { composed };
    put("driver.glue_ms", base.map(|_| glue / 1e6));
    put("driver.attributed_pct", ratio(Some(glue), base).map(|g| (1.0 - g) * 100.0));
    put("driver.host_ns_per_proc_epoch", ratio(base, Some(proc_epochs)));

    for (span, lane) in GRID_CONFIGS {
        put(lane, ratio(ns(span), calls(span)).map(|t| t / 1e6));
    }
    put("grid.paper_err_pp", count("grid.paper_err_pp"));

    put("fleet.build_ms", ms("fleet.build"));
    put("fleet.build_ns_per_proc", ratio(ns("fleet.build"), Some(processes)));
    put("fleet.ticks_ms", ms("fleet.tick"));
    put("fleet.tick_us_p50", p_us("fleet.tick", 50.0));
    put("fleet.tick_us_p99", p_us("fleet.tick", 99.0));
    put(
        "fleet.tick_ns_per_proc",
        ratio(ns("fleet.tick"), calls("fleet.tick").map(|ticks| ticks * processes)),
    );
    put("fleet.progress_us_p50", p_us("fleet.progress", 50.0));
    put("fleet.finish_ms", ms("fleet.finish"));
    put("fleet.results_drop_ms", ns("fleet.build").and(ms("driver.composed.drop")));
    put("fleet.steals", count("fleet.steals"));

    if on_grid {
        let jobs: f64 = GRID_CONFIGS.iter().filter_map(|(span, _)| calls(span)).sum();
        let longest = GRID_CONFIGS.iter().map(|(span, _)| tr.max(run, span)).max().unwrap_or(0);
        put("pool.par_map_ms", ms("pool.par_map"));
        put("pool.jobs", Some(jobs));
        put("pool.job_ms_sum", Some(cells / 1e6));
        put("pool.job_ms_max", Some(longest as f64 / 1e6));
        let threads = (par_workers as f64).min(jobs);
        put("pool.efficiency", ratio(Some(cells), ns("pool.par_map").map(|w| w * threads)));
    }

    put("obs.bind_ms", ms("obs.bind"));
    put("obs.on_tick_us_p50", p_us("obs.on_tick", 50.0));
    put("obs.on_tick_calls", calls("obs.on_tick"));
    put("obs.publishes", count("obs.publishes"));
    // Every publish but the final one came from an `on_tick` call.
    put("obs.publish_ratio", ratio(count("obs.publishes").map(|p| p - 1.0), calls("obs.on_tick")));
    put("obs.render_metrics_us", ns("obs.render_metrics").map(|t| t / 1e3));
    put("obs.metrics_bytes", count("obs.metrics_bytes"));
    let mut pooled = Vec::new();
    for (span, lane) in SCRAPES {
        put(lane, p_us(span, 50.0));
        pooled.extend(tr.durations(run, span));
    }
    if !pooled.is_empty() {
        put("obs.scrape_ms_p50", Some(percentile_ns(&pooled, 50.0, 1e6)));
        put("obs.scrape_us_p99", Some(percentile_ns(&pooled, 99.0, 1e3)));
    }
    put("obs.requests", count("obs.requests"));
    put("obs.failed_requests", count("obs.failed_requests"));
    put("obs.rejected_503", count("obs.rejected_503"));
    put("obs.shutdown_ms", ms("obs.shutdown"));

    put(
        "trace.on_overhead_pct",
        ratio(ns("trace.session_on"), ns("driver.session")).map(|r| (r - 1.0) * 100.0),
    );
    put("trace.events", count("trace.events"));
    put("trace.dropped", count("trace.dropped"));
    put("trace.export_ms", ms("trace.export"));
    put("trace.export_mib", count("trace.export_mib"));
    put("trace.parse_ms", ms("trace.parse"));

    put("tuner.tune_us", ns("tuner.tune").map(|t| t / 1e3));
    put("tuner.evals", count("tuner.evals"));
    put("host.threads_max", count("host.threads_max"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn every_derived_lane_is_in_the_catalog() {
        // A run that opened every span and set every count once.
        let mut tr = Tracer::new();
        let run = tr.begin_run();
        let spans = [
            "workloads.setup",
            "workloads.epoch",
            "mm.new",
            "mm.apply_access",
            "mm.advance",
            "mm.khugepaged",
            "mm.drop",
            "monitor.new",
            "monitor.step",
            "schemes.apply",
            "driver.session",
            "driver.session.drop",
            "driver.composed",
            "driver.composed.drop",
            "fleet.build",
            "fleet.tick",
            "fleet.progress",
            "fleet.finish",
            "pool.par_map",
            "obs.bind",
            "obs.on_tick",
            "obs.render_metrics",
            "obs.shutdown",
            "trace.session_on",
            "trace.export",
            "trace.parse",
            "tuner.tune",
        ];
        let grid = GRID_CONFIGS.iter().map(|g| g.0);
        let scrapes = SCRAPES.iter().map(|s| s.0);
        for name in spans.into_iter().chain(grid).chain(scrapes) {
            tr.span(name, || std::thread::sleep(std::time::Duration::from_micros(50)));
        }
        let counts = [
            "workloads.epochs",
            "workloads.batches",
            "mm.major_faults",
            "mm.swapouts",
            "mm.thp_promotions",
            "monitor.checks",
            "monitor.windows",
            "monitor.sim_work_ms",
            "schemes.regions_tried",
            "schemes.regions_applied",
            "schemes.bytes_applied",
            "schemes.quota_skips",
            "grid.paper_err_pp",
            "fleet.steals",
            "obs.publishes",
            "obs.metrics_bytes",
            "obs.requests",
            "obs.failed_requests",
            "obs.rejected_503",
            "trace.events",
            "trace.dropped",
            "trace.export_mib",
            "tuner.evals",
            "host.threads_max",
        ];
        for name in counts {
            tr.count(name, 2.0);
        }
        let lanes = of_run(&tr, run, 4.0, 8.0, 2);
        for (name, _) in &lanes {
            assert!(catalog::lane(name).is_some(), "{name} is not in the catalog");
        }
        // The whole catalog but the two lanes the process, not the run, reports.
        let missing: Vec<_> = catalog::LANES
            .iter()
            .map(|l| l.0)
            .filter(|n| !lanes.iter().any(|(have, _)| have == n))
            .collect();
        assert_eq!(missing, ["host.ref_ms", "host.nproc"]);
    }

    #[test]
    fn glue_is_the_self_time_of_driver_spans() {
        let mut tr = Tracer::new();
        let run = tr.begin_run();
        let nap = || std::thread::sleep(std::time::Duration::from_millis(2));
        let composed = tr.enter("driver.composed");
        nap();
        tr.span("mm.new", nap);
        tr.exit(composed);
        let lanes = of_run(&tr, run, 1.0, 1.0, 1);
        let get = |n: &str| lanes.iter().find(|l| l.0 == n).map(|l| l.1).unwrap();
        let (total, glue, mm) =
            (get("driver.composed_ms"), get("driver.glue_ms"), get("mm.new_ms"));
        assert!((total - glue - mm).abs() < 1e-6, "{total} = {glue} + {mm}");
        assert!((get("driver.attributed_pct") - 100.0 * mm / total).abs() < 1e-6);
    }
}
