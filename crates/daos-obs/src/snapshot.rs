//! The published unit of live observability: everything `daos top` and
//! the HTTP endpoints need about a running simulation, as one owned,
//! JSON-round-trippable value.

use daos_monitor::{Aggregation, OverheadStats};
use daos_schemes::SchemeStats;
use daos_trace::Registry;
use daos_util::json_struct;

/// One published view of a live run. The sim loop builds a fresh
/// snapshot every publish interval and swaps it behind an `Arc`; readers
/// (HTTP handlers, the in-process dashboard) clone the `Arc` and never
/// block the publisher.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Publish sequence number (1-based; 0 = nothing published yet).
    pub seq: u64,
    /// Configuration name (`rec`, `prcl`, ...).
    pub config: String,
    /// Workload path name.
    pub workload: String,
    /// Machine profile name.
    pub machine: String,
    /// Last completed epoch (0-based).
    pub epoch: u64,
    /// Total epochs the run will execute.
    pub nr_epochs: u64,
    /// Virtual clock at publish time.
    pub now_ns: u64,
    /// Working-set-size estimate of the last aggregation window.
    pub wss_bytes: u64,
    /// Peak resident-set size so far.
    pub peak_rss_bytes: u64,
    /// Time-weighted average resident-set size so far.
    pub avg_rss_bytes: u64,
    /// The most recent completed aggregation window (region list).
    pub last_window: Option<Aggregation>,
    /// Per-scheme counters.
    pub schemes: Vec<SchemeStats>,
    /// Monitoring overhead counters (None when nothing monitors).
    pub overhead: Option<OverheadStats>,
    /// Snapshot of the trace metrics registry (empty when the run has no
    /// collector installed).
    pub registry: Registry,
    /// Events the trace ring overwrote so far.
    pub dropped_events: u64,
    /// Whether the run has completed (the final snapshot sets this).
    pub finished: bool,
}

json_struct!(ObsSnapshot {
    seq, config, workload, machine, epoch, nr_epochs, now_ns, wss_bytes,
    peak_rss_bytes, avg_rss_bytes, last_window, schemes, overhead, registry,
    dropped_events, finished,
});

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::addr::AddrRange;
    use daos_monitor::RegionInfo;
    use daos_util::json::{FromJson, ToJson};

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut reg = Registry::new();
        reg.counter_add("monitor.work_ns", 1234);
        reg.gauge_set("tuner.best_x", 2.5);
        reg.hist_record("span.sample_ns", 400);
        let snap = ObsSnapshot {
            seq: 7,
            config: "rec".into(),
            workload: "parsec3/freqmine".into(),
            machine: "i3.metal".into(),
            epoch: 41,
            nr_epochs: 100,
            now_ns: 5_000_000_000,
            wss_bytes: 4 << 20,
            peak_rss_bytes: 16 << 20,
            avg_rss_bytes: 12 << 20,
            last_window: Some(Aggregation {
                at: 5_000_000_000,
                regions: vec![RegionInfo {
                    range: AddrRange::new(0x1000, 0x400000),
                    nr_accesses: 12,
                    age: 3,
                }],
                max_nr_accesses: 20,
                aggregation_interval: 100_000_000,
            }),
            schemes: vec![SchemeStats { nr_tried: 5, sz_tried: 1 << 20, ..Default::default() }],
            overhead: Some(OverheadStats { total_checks: 99, ..Default::default() }),
            registry: reg,
            dropped_events: 0,
            finished: false,
        };
        let back = ObsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        let empty = ObsSnapshot::from_json(&ObsSnapshot::default().to_json()).unwrap();
        assert_eq!(empty, ObsSnapshot::default());
    }
}
