//! Monitoring-overhead accounting.
//!
//! The paper's core claim about the monitor is an **upper-bound guarantee**:
//! per sampling interval at most `max_nr_regions` pages are checked, no
//! matter how large the monitored memory is. These counters let the test
//! suite and the Fig. 7 harness verify that bound and report CPU usage.

use daos_mm::clock::Ns;

/// Cumulative overhead counters for one monitoring context.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OverheadStats {
    /// Total access-check operations (mkold + young) performed.
    pub total_checks: u64,
    /// Largest number of checks in any single sampling tick.
    pub max_checks_per_tick: u64,
    /// Number of sampling ticks processed.
    pub nr_ticks: u64,
    /// Number of aggregation windows completed.
    pub nr_aggregations: u64,
    /// Total CPU time the monitor consumed.
    pub work_ns: Ns,
}

impl OverheadStats {
    /// Average checks per sampling tick.
    pub fn avg_checks_per_tick(&self) -> f64 {
        if self.nr_ticks == 0 {
            0.0
        } else {
            self.total_checks as f64 / self.nr_ticks as f64
        }
    }

    /// Monitor CPU utilisation of one core over `elapsed` virtual time —
    /// the paper reports 1.37 % (rec) / 1.46 % (prec) for this metric.
    pub fn cpu_share(&self, elapsed: Ns) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.work_ns as f64 / elapsed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages() {
        let s = OverheadStats {
            total_checks: 100,
            nr_ticks: 10,
            work_ns: 50,
            ..Default::default()
        };
        assert_eq!(s.avg_checks_per_tick(), 10.0);
        assert_eq!(s.cpu_share(1000), 0.05);
        assert_eq!(OverheadStats::default().avg_checks_per_tick(), 0.0);
        assert_eq!(OverheadStats::default().cpu_share(0), 0.0);
    }
}


daos_util::json_struct!(OverheadStats {
    total_checks, max_checks_per_tick, nr_ticks, nr_aggregations, work_ns,
});
