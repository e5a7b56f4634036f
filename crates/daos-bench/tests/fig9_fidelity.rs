//! Fidelity gate for the README's Fig. 9 headline (−90 % file swap,
//! −80 % zram): the function the `fig9_production` binary prints, on a
//! fleet small enough for a debug build.

use daos_bench::fig9::fig9_production;
use daos_workloads::FleetConfig;

#[test]
fn fig9_reductions_match_the_paper() {
    // 4 workers × 8 MiB for about 170 virtual seconds.
    let workers = FleetConfig { nr_workers: 4, worker_footprint: 8 << 20, ..FleetConfig::default() };
    let rows = fig9_production(&workers, 70_000).unwrap();
    let [none, file, zram] = rows.as_slice() else { panic!("three back-ends, got {}", rows.len()) };
    assert_eq!((none.label, file.label, zram.label), ("No Swap", "File Swap", "ZRAM"));

    for (row, paper_reduction_pct) in [(none, 0.0), (file, 90.0), (zram, 80.0)] {
        let reduction_pct = (1.0 - row.normalized_memory) * 100.0;
        assert!(
            (reduction_pct - paper_reduction_pct).abs() <= 3.0,
            "{}: reduction {reduction_pct:.1}% vs the paper's {paper_reduction_pct}%",
            row.label
        );
        assert!(
            row.monitor_share <= 0.02,
            "{}: monitor CPU {:.2}%",
            row.label,
            row.monitor_share * 100.0
        );
        assert!(row.slowdown <= 0.01, "{}: slowdown {:.2}%", row.label, row.slowdown * 100.0);
        assert!(row.series.len() > 100, "{}: one sample per virtual second", row.label);
    }
    assert!(
        file.normalized_memory < zram.normalized_memory,
        "compressed zram pages still occupy DRAM"
    );
}
