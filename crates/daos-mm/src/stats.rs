//! Per-process and system-wide accounting.


use crate::clock::Ns;

/// Counters accumulated for one process over its lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProcStats {
    /// Anonymous minor faults (first touch of a page).
    pub minor_faults: u64,
    /// Major faults (page had to be read back from swap).
    pub major_faults: u64,
    /// Pages written to swap on behalf of this process.
    pub swapouts: u64,
    /// Pages read back from swap.
    pub swapins: u64,
    /// Pure compute time charged by the workload, ns.
    pub compute_ns: Ns,
    /// Memory-access time (DRAM latency + TLB walks), ns.
    pub access_ns: Ns,
    /// Stall time in fault handling / direct reclaim / THP allocation, ns.
    pub stall_ns: Ns,
    /// Slowdown attributed to monitoring-thread interference, ns.
    pub monitor_interference_ns: Ns,
    /// Highest resident-set size observed, bytes.
    pub peak_rss_bytes: u64,
    /// Integral of RSS over virtual time, byte·ns — used for average RSS,
    /// which is the memory-footprint metric in the paper's score function.
    pub rss_time_integral: u128,
    /// Huge-page promotions applied to this process's chunks.
    pub thp_promotions: u64,
    /// Huge-page demotions (splits).
    pub thp_demotions: u64,
}

impl ProcStats {
    /// Average RSS over `elapsed` nanoseconds of virtual time.
    pub fn avg_rss_bytes(&self, elapsed: Ns) -> u64 {
        if elapsed == 0 {
            0
        } else {
            (self.rss_time_integral / elapsed as u128) as u64
        }
    }
}

/// Kernel-side (not charged to any process) accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// CPU time spent in the access monitor (sampling + aggregation), ns.
    pub monitor_ns: Ns,
    /// CPU time spent applying schemes (walking regions, pageout, THP), ns.
    pub schemes_ns: Ns,
    /// CPU time in background/kswapd-style reclaim, ns.
    pub reclaim_ns: Ns,
    /// Asynchronous swap-device write time (not charged to any process).
    pub swap_write_ns: Ns,
    /// Pages reclaimed by memory pressure (not DAMOS).
    pub pressure_reclaims: u64,
    /// Pages paged out by DAMOS PAGEOUT.
    pub damos_pageouts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_rss_integral() {
        let mut s = ProcStats::default();
        // 100 bytes resident for 10 ns, then 300 bytes for 10 ns.
        s.rss_time_integral += 100u128 * 10;
        s.rss_time_integral += 300u128 * 10;
        assert_eq!(s.avg_rss_bytes(20), 200);
        assert_eq!(s.avg_rss_bytes(0), 0);
    }
}


daos_util::json_struct!(ProcStats {
    minor_faults, major_faults, swapouts, swapins, compute_ns, access_ns,
    stall_ns, monitor_interference_ns, peak_rss_bytes, rss_time_integral,
    thp_promotions, thp_demotions,
});
daos_util::json_struct!(KernelStats {
    monitor_ns, schemes_ns, reclaim_ns, swap_write_ns, pressure_reclaims,
    damos_pageouts,
});
