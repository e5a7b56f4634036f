//! Extension experiment: DAMON_LRU_SORT — access-aware LRU sorting (what
//! the engine's COLD/WILLNEED hints became in kernel 6.0). Under memory
//! pressure, proactively sorting hot regions to the active head and cold
//! regions to the inactive tail means pressure reclaim finds the right
//! victims immediately instead of discovering them by trial eviction.

use daos_bench::report::{write_artifact, Table};
use daos_mm::access::AccessBatch;
use daos_mm::addr::AddrRange;
use daos_mm::{MachineProfile, MemorySystem, SwapConfig, ThpMode};
use daos_monitor::{MonitorAttrs, MonitorCtx, VaddrPrimitives};
use daos_schemes::{parse_schemes, SchemeTarget, SchemesEngine};

/// Run a hot/cold workload under DRAM pressure, optionally with the
/// LRU_SORT schemes. Returns (major faults of the hot set, runtime s).
fn pressured_run(lru_sort: bool) -> (u64, f64) {
    // 24 MiB footprint, 16 MiB DRAM: something must always be swapped.
    let mut machine = MachineProfile::i3_metal();
    machine.dram_bytes = 16 << 20;
    let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), 21);
    let pid = sys.spawn();
    let region = sys.mmap(pid, 24 << 20, ThpMode::Never).unwrap();
    let hot = AddrRange::new(region.start, region.start + (6 << 20));
    let cold = AddrRange::new(hot.end, region.end);

    let mut engine = lru_sort.then(|| {
        let schemes = parse_schemes(
            // Warm regions to the active head; long-idle ones to the tail.
            "min max 1 max min max lru_prio\n\
             min max min min 1s max lru_deprio",
        )
        .unwrap();
        SchemesEngine::new(SchemeTarget::Virtual(pid), schemes)
    });
    let mut monitor = lru_sort
        .then(|| MonitorCtx::new(MonitorAttrs::paper_defaults(), VaddrPrimitives::new(pid), &sys, 0, 5));
    let mut sink = Vec::new();

    // Build the working set: hot first so naive FIFO order puts the hot
    // pages at the *front* of the reclaim queue (the worst case LRU_SORT
    // fixes). Cold pages are touched once, then only scanned rarely.
    sys.apply_access(pid, &AccessBatch::all(hot, 2.0)).unwrap();
    sys.apply_access(pid, &AccessBatch::all(cold, 1.0)).unwrap();

    let mut hot_majors = 0u64;
    for epoch in 0..4000u64 {
        let mut cost = 1_000_000u64;
        // The hot set is only *periodically* re-touched: between touches
        // its accessed bits go stale, so naive reclaim cannot tell it
        // from cold memory — the gap access-aware sorting closes.
        if epoch % 50 == 0 {
            let before = sys.proc_stats(pid).unwrap().major_faults;
            let out = sys.apply_access(pid, &AccessBatch::all(hot, 4.0)).unwrap();
            hot_majors += sys.proc_stats(pid).unwrap().major_faults - before;
            cost += out.cost_ns;
        }
        // Continuous cold churn forces eviction decisions every epoch.
        {
            let o = sys.apply_access(pid, &AccessBatch::random(cold, 512, 1.0)).unwrap();
            cost += o.cost_ns;
        }
        sys.advance(cost);
        // The one epoch loop outside the engine: this access script (a
        // hot set re-touched every 50th epoch over cold churn) is not a
        // `WorkloadSpec`, and a `Behavior` variant for one extension
        // experiment is a capability nobody else needs.
        if let (Some(mon), Some(eng)) = (&mut monitor, &mut engine) {
            let now = sys.now();
            mon.step(&mut sys, now, &mut sink);
            let i = sys.charge_monitor(mon.take_work_ns());
            sys.advance(i);
            for agg in sink.drain(..) {
                let pass = eng.on_aggregation(&mut sys, &agg);
                let i2 = sys.charge_schemes(pass.work_ns);
                sys.advance(i2);
            }
        }
    }
    (hot_majors, sys.now() as f64 / 1e9)
}

fn main() {
    println!(
        "Extension: DAMON_LRU_SORT — 24 MiB workload on 16 MiB DRAM.\n\
         The hot 6 MiB is re-touched only every ~100 ms, so its accessed bits are\n\
         stale whenever reclaim inspects them; 18 MiB of cold memory is churned\n\
         continuously. Naive reclaim cannot tell the two apart — the monitor can.\n"
    );
    let (majors_plain, runtime_plain) = pressured_run(false);
    let (majors_sorted, runtime_sorted) = pressured_run(true);

    let mut table = Table::new(vec!["config", "hot-set major faults", "total runtime"]);
    table.row(vec![
        "pressure reclaim only".to_string(),
        majors_plain.to_string(),
        format!("{runtime_plain:.1}s"),
    ]);
    table.row(vec![
        "with lru_prio/lru_deprio".to_string(),
        majors_sorted.to_string(),
        format!("{runtime_sorted:.1}s"),
    ]);
    print!("{}", table.render());
    println!(
        "\nWith sorting, reclaim victims come from the monitored-cold side: the hot\n\
         working set suffers {}x fewer refaults (the latency-critical metric this\n\
         mechanism exists for). The cost lands on the cold churn — its faults grow,\n\
         and with them total runtime — which is the right trade whenever the hot set\n\
         is the service's critical path. Honest caveat: where hot pages are touched\n\
         faster than reclaim scans them, plain second-chance reclaim already wins\n\
         and sorting adds nothing (we measured exactly that with a hot set touched\n\
         every epoch).",
        majors_plain.max(1) / majors_sorted.max(1)
    );
    println!("[artifact] {}", write_artifact("ext_lru_sort.csv", &table.to_csv()).unwrap().display());
}
