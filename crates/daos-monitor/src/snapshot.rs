//! Aggregation results delivered to users (the paper's user-registered
//! callback data: "the access frequency and recency of each region").

use daos_mm::addr::AddrRange;
use daos_mm::clock::Ns;

use crate::region::RegionInfo;

/// One aggregation window's monitoring result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregation {
    /// Virtual time the window closed.
    pub at: Ns,
    /// Merged regions with their access counters and ages.
    pub regions: Vec<RegionInfo>,
    /// Maximum possible value of `nr_accesses` this window (for
    /// normalising counters to access-frequency ratios).
    pub max_nr_accesses: u32,
    /// Aggregation interval length (for converting ages to time).
    pub aggregation_interval: Ns,
}

impl Aggregation {
    /// Access-frequency ratio (0..=1) of a region in this window.
    pub fn freq_ratio(&self, r: &RegionInfo) -> f64 {
        if self.max_nr_accesses == 0 {
            0.0
        } else {
            r.nr_accesses as f64 / self.max_nr_accesses as f64
        }
    }

    /// Total monitored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.range.len()).sum()
    }

    /// Sum of `len × freq_ratio` — a working-set-size estimate.
    pub fn hot_bytes_estimate(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| (r.range.len() as f64 * self.freq_ratio(r)) as u64)
            .sum()
    }
}

/// A log of aggregations, as produced by the paper's `rec`/`prec`
/// configurations and consumed by the Fig. 6 heatmap renderer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MonitorRecord {
    /// All aggregation windows, in time order.
    pub aggregations: Vec<Aggregation>,
}

impl MonitorRecord {
    /// Empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one window.
    pub fn push(&mut self, a: Aggregation) {
        self.aggregations.push(a);
    }

    /// Number of recorded windows.
    pub fn len(&self) -> usize {
        self.aggregations.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.aggregations.is_empty()
    }

    /// Time span `(first, last)` covered by the record.
    pub fn time_span(&self) -> Option<(Ns, Ns)> {
        Some((self.aggregations.first()?.at, self.aggregations.last()?.at))
    }

    /// The union of all observed region ranges (for axis scaling).
    pub fn address_span(&self) -> Option<AddrRange> {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for a in &self.aggregations {
            for r in &a.regions {
                lo = lo.min(r.range.start);
                hi = hi.max(r.range.end);
            }
        }
        (lo < hi).then_some(AddrRange::new(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(start: u64, end: u64, nr: u32, age: u32) -> RegionInfo {
        RegionInfo { range: AddrRange::new(start, end), nr_accesses: nr, age }
    }

    #[test]
    fn ratios_and_totals() {
        let a = Aggregation {
            at: 100,
            regions: vec![info(0, 0x1000, 10, 3), info(0x1000, 0x3000, 0, 7)],
            max_nr_accesses: 20,
            aggregation_interval: 50,
        };
        assert_eq!(a.freq_ratio(&a.regions[0]), 0.5);
        assert_eq!(a.freq_ratio(&a.regions[1]), 0.0);
        assert_eq!(a.total_bytes(), 0x3000);
        assert_eq!(a.hot_bytes_estimate(), 0x800);
    }

    #[test]
    fn record_spans() {
        let mut rec = MonitorRecord::new();
        assert!(rec.is_empty());
        assert_eq!(rec.time_span(), None);
        assert_eq!(rec.address_span(), None);
        for t in [10, 20, 30] {
            rec.push(Aggregation {
                at: t,
                regions: vec![info(0x1000 * t, 0x1000 * t + 0x1000, 1, 0)],
                max_nr_accesses: 20,
                aggregation_interval: 10,
            });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.time_span(), Some((10, 30)));
        assert_eq!(rec.address_span(), Some(AddrRange::new(0xa000, 0x1f000)));
    }

    #[test]
    fn zero_max_accesses_safe() {
        let a = Aggregation {
            at: 0,
            regions: vec![info(0, 0x1000, 5, 0)],
            max_nr_accesses: 0,
            aggregation_interval: 1,
        };
        assert_eq!(a.freq_ratio(&a.regions[0]), 0.0);
    }
}


daos_util::json_struct!(Aggregation {
    at, regions, max_nr_accesses, aggregation_interval,
});
