//! `report wss`: the working-set-size time series of a trace, with the
//! paper's percentile framing (the WSS view `damo report wss` ships).

use daos_monitor::MonitorRecord;
use daos_trace::Ns;
use daos_util::json_struct;

/// Working-set size per aggregation window, in time order, plus the
/// derived distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct WssTimeline {
    /// Window close times (virtual ns), one per sample.
    pub at: Vec<Ns>,
    /// Per-window working-set estimates, bytes, parallel to `at`.
    pub wss: Vec<u64>,
}

json_struct!(WssTimeline { at, wss });

impl WssTimeline {
    /// Compute the timeline from a (possibly trace-rebuilt) record.
    pub fn from_record(record: &MonitorRecord) -> WssTimeline {
        WssTimeline {
            at: record.aggregations.iter().map(|a| a.at).collect(),
            wss: record.aggregations.iter().map(|a| a.hot_bytes_estimate()).collect(),
        }
    }

    /// The given percentile (0–100) of the per-window estimates.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.wss.is_empty() {
            return 0;
        }
        let mut sorted = self.wss.clone();
        sorted.sort_unstable();
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Mean working-set size.
    pub fn mean(&self) -> u64 {
        if self.wss.is_empty() {
            0
        } else {
            (self.wss.iter().map(|&s| s as u128).sum::<u128>() / self.wss.len() as u128) as u64
        }
    }

    fn percentile_table(&self, percentiles: &[f64]) -> String {
        let mut out = String::from("percentile   wss\n");
        for &p in percentiles {
            out.push_str(&format!("{:>9.0}% {:>8} KiB\n", p, self.percentile(p) >> 10));
        }
        out.push_str(&format!("{:>10} {:>8} KiB\n", "mean", self.mean() >> 10));
        out
    }

    /// Render the damo-style distribution table alone
    /// (`report wss --distribution`).
    pub fn render_distribution(&self) -> String {
        self.percentile_table(&[0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0])
    }

    /// Render the series and the p25/p50/p75/p95 percentile table.
    pub fn render(&self) -> String {
        if self.wss.is_empty() {
            return "no aggregation windows recorded in this trace (monitoring disabled, \
                    or the run ended before a window closed)\n"
                .to_string();
        }
        let mut out = String::new();
        out.push_str(&format!("working-set size over {} windows\n", self.wss.len()));
        out.push_str("      t(s)   wss(KiB)\n");
        for (at, wss) in self.at.iter().zip(&self.wss) {
            out.push_str(&format!("{:>10.2} {:>10}\n", *at as f64 / 1e9, wss >> 10));
        }
        out.push('\n');
        out.push_str(&self.percentile_table(&[25.0, 50.0, 75.0, 95.0]));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::addr::AddrRange;
    use daos_monitor::{Aggregation, RegionInfo};

    fn record() -> MonitorRecord {
        let mut rec = MonitorRecord::new();
        for t in 1..=4u64 {
            rec.push(Aggregation {
                at: t * 1_000_000_000,
                regions: vec![RegionInfo {
                    range: AddrRange::new(0, t << 20),
                    nr_accesses: 20,
                    age: 0,
                }],
                max_nr_accesses: 20,
                aggregation_interval: 100,
            });
        }
        rec
    }

    #[test]
    fn timeline_follows_the_record() {
        let tl = WssTimeline::from_record(&record());
        assert_eq!(tl.at, vec![1_000_000_000, 2_000_000_000, 3_000_000_000, 4_000_000_000]);
        assert_eq!(tl.wss, vec![1 << 20, 2 << 20, 3 << 20, 4 << 20]);
        let out = tl.render();
        assert!(out.starts_with("working-set size over 4 windows\n"));
        assert!(out.contains("      1.00       1024\n"), "{out}");
        assert!(out.contains("       50%"), "{out}");
        assert!(out.contains("mean"), "{out}");
    }

    #[test]
    fn empty_record_states_no_windows() {
        let tl = WssTimeline::from_record(&MonitorRecord::new());
        let out = tl.render();
        assert!(out.contains("no aggregation windows recorded"), "{out}");
        assert!(!out.contains("percentile"), "{out}");
    }

    #[test]
    fn wss_report_percentiles() {
        // Five windows, each 1 MiB at 100% + 3 MiB at 0% → 1 MiB.
        let mut rec = MonitorRecord::new();
        for t in 1..=5u64 {
            rec.push(Aggregation {
                at: t * 1_000_000_000,
                regions: vec![
                    RegionInfo { range: AddrRange::new(0, 1 << 20), nr_accesses: 20, age: t as u32 },
                    RegionInfo { range: AddrRange::new(1 << 20, 4 << 20), nr_accesses: 0, age: 10 },
                ],
                max_nr_accesses: 20,
                aggregation_interval: 100_000_000,
            });
        }
        let wss = WssTimeline::from_record(&rec);
        assert_eq!(wss.wss.len(), 5);
        assert_eq!(wss.percentile(50.0), 1 << 20);
        assert_eq!(wss.mean(), 1 << 20);
        assert_eq!(wss.percentile(0.0), wss.percentile(100.0));
        let rendered = wss.render_distribution();
        assert!(rendered.starts_with("percentile   wss\n        0%     1024 KiB\n"), "{rendered}");
        assert!(rendered.ends_with("      mean     1024 KiB\n"), "{rendered}");
    }

    #[test]
    fn wss_empty_record() {
        let wss = WssTimeline::from_record(&MonitorRecord::new());
        assert_eq!(wss.percentile(50.0), 0);
        assert_eq!(wss.mean(), 0);
    }
}
