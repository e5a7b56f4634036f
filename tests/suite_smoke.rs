//! Whole-suite smoke: every one of the 24 workload analogs runs through
//! the full monitored pipeline (truncated) without error, stays within
//! its declared footprint, and is observable by the monitor.

use daos::{RunConfig, Session};
use daos_mm::MachineProfile;
use daos_workloads::paper_suite;

#[test]
fn all_24_workloads_run_monitored() {
    let machine = MachineProfile::i3_metal();
    for mut spec in paper_suite() {
        // Truncate for test time; behaviour machinery is identical.
        spec.nr_epochs = spec.nr_epochs.min(400);
        let r = Session::new(&machine, &RunConfig::rec(), &spec)
            .seed(17)
            .execute()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.path_name()))
            .into_single();
        assert!(r.runtime_ns > 0, "{}", spec.path_name());
        assert!(
            r.peak_rss <= spec.footprint + (1 << 20),
            "{}: peak RSS {} exceeds footprint {}",
            spec.path_name(),
            r.peak_rss,
            spec.footprint
        );
        let record = r.record.expect("rec records");
        assert!(!record.is_empty(), "{}: no aggregations", spec.path_name());
        // The monitor saw *some* activity on every workload.
        let active = record
            .aggregations
            .iter()
            .any(|a| a.regions.iter().any(|reg| reg.nr_accesses > 0));
        assert!(active, "{}: monitor saw no accesses", spec.path_name());
        // Overhead bound held.
        let o = r.overhead.unwrap();
        assert!(
            o.max_checks_per_tick <= 2 * RunConfig::rec().attrs.max_nr_regions as u64,
            "{}: {} checks/tick",
            spec.path_name(),
            o.max_checks_per_tick
        );
    }
}
