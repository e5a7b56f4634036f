//! The `daos top` frame renderer: a pure function from a sequence of
//! [`ObsSnapshot`]s to text frames (the CLI wraps it in ANSI
//! clear-and-home for live refresh, or prints frames plainly with
//! `--plain`). Shows run progress, a WSS sparkline over the recent
//! publish history, the hottest monitored regions, per-scheme
//! quota/throttle state, and span p50/p95 from the log2 histograms.

use crate::snapshot::ObsSnapshot;
use daos_trace::{keys, Phase};
use std::collections::VecDeque;

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Sparkline width (publish intervals of history).
const SPARK_WIDTH: usize = 48;
/// Hottest regions shown per frame.
const TOP_REGIONS: usize = 8;

/// Render `values` (oldest first) as a fixed-height sparkline scaled to
/// the window's own maximum. All-zero input renders as all-low.
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0).max(1);
    values
        .iter()
        .map(|&v| {
            let idx = ((v as u128 * (SPARKS.len() as u128 - 1)) + max as u128 / 2) / max as u128;
            SPARKS[idx as usize]
        })
        .collect()
}

/// `1.5G`, `23.4M`, `512K`, `17B` — compact byte counts for table cells.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [(&str, u64); 4] =
        [("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10), ("B", 1)];
    for (suffix, scale) in UNITS {
        if b >= scale {
            let whole = b / scale;
            return if scale > 1 && whole < 100 {
                format!("{}.{}{}", whole, (b % scale) * 10 / scale, suffix)
            } else {
                format!("{whole}{suffix}")
            };
        }
    }
    "0B".into()
}

/// Compact durations: `1.2s`, `34ms`, `560us`, `789ns`.
pub fn fmt_ns(ns: u64) -> String {
    const UNITS: [(&str, u64); 3] = [("s", 1_000_000_000), ("ms", 1_000_000), ("us", 1_000)];
    for (suffix, scale) in UNITS {
        if ns >= scale {
            let whole = ns / scale;
            return if whole < 100 {
                format!("{}.{}{}", whole, (ns % scale) * 10 / scale, suffix)
            } else {
                format!("{whole}{suffix}")
            };
        }
    }
    format!("{ns}ns")
}

/// Stateful frame renderer: remembers the WSS of each snapshot it has
/// seen (by publish `seq`, so repeated polls of one snapshot don't
/// stutter the sparkline).
#[derive(Default)]
pub struct Dashboard {
    wss_history: VecDeque<u64>,
    last_seq: u64,
}

impl Dashboard {
    /// A dashboard with the default layout.
    pub fn new() -> Dashboard {
        Dashboard::default()
    }

    /// Seed the WSS sparkline from an already-recorded series (oldest
    /// first) — `daos top ADDR` pulls
    /// `/query?metric=daos_obs_wss_bytes` so the first frame
    /// shows history instead of a single dot. Keeps the newest
    /// `SPARK_WIDTH` values; later [`frame`](Self::frame) calls append
    /// as usual.
    pub fn backfill(&mut self, values: &[u64]) {
        values.iter().for_each(|&v| self.push_wss(v));
    }

    /// Append one WSS value to the sparkline history, keeping the newest
    /// `SPARK_WIDTH`.
    fn push_wss(&mut self, wss: u64) {
        if self.wss_history.len() == SPARK_WIDTH {
            self.wss_history.pop_front();
        }
        self.wss_history.push_back(wss);
    }

    /// Render one frame. Feeding the same snapshot (same `seq`) again
    /// re-renders without extending the sparkline history.
    pub fn frame(&mut self, snap: &ObsSnapshot) -> String {
        if snap.seq != self.last_seq {
            self.last_seq = snap.seq;
            self.push_wss(snap.wss_bytes);
        }
        let mut out = String::new();
        self.header(&mut out, snap);
        self.wss(&mut out, snap);
        self.regions(&mut out, snap);
        self.schemes(&mut out, snap);
        self.spans(&mut out, snap);
        out
    }

    fn header(&self, out: &mut String, snap: &ObsSnapshot) {
        let state = if snap.finished { "DONE" } else { "LIVE" };
        out.push_str(&format!(
            "daos top — {} | workload {} | machine {} | {}\n",
            none_if_empty(&snap.config),
            none_if_empty(&snap.workload),
            none_if_empty(&snap.machine),
            state,
        ));
        let total = snap.nr_epochs.max(1);
        let done = if snap.finished { total } else { (snap.epoch + 1).min(total) };
        let width = 32usize;
        let filled = (done as u128 * width as u128 / total as u128) as usize;
        out.push_str(&format!(
            "epoch {:>4}/{:<4} [{}{}] t={} | rss peak {} avg {}\n",
            done,
            total,
            "#".repeat(filled),
            "-".repeat(width - filled),
            fmt_ns(snap.now_ns),
            fmt_bytes(snap.peak_rss_bytes),
            fmt_bytes(snap.avg_rss_bytes),
        ));
        if snap.dropped_events > 0 {
            out.push_str(&format!("trace ring dropped {} events\n", snap.dropped_events));
        }
    }

    fn wss(&self, out: &mut String, snap: &ObsSnapshot) {
        let history: Vec<u64> = self.wss_history.iter().copied().collect();
        out.push_str(&format!(
            "\nwss {:>8}  {}\n",
            fmt_bytes(snap.wss_bytes),
            sparkline(&history),
        ));
    }

    fn regions(&self, out: &mut String, snap: &ObsSnapshot) {
        let Some(window) = &snap.last_window else {
            out.push_str("\nregions: no aggregation window published yet\n");
            return;
        };
        let mut hottest: Vec<_> = window.regions.iter().collect();
        hottest.sort_by(|a, b| {
            b.nr_accesses.cmp(&a.nr_accesses).then(a.range.start.cmp(&b.range.start))
        });
        out.push_str(&format!(
            "\nhottest regions ({} of {}, window @{})\n",
            hottest.len().min(TOP_REGIONS),
            window.regions.len(),
            fmt_ns(window.at),
        ));
        out.push_str("  #  start              size     heat  age\n");
        for (i, r) in hottest.iter().take(TOP_REGIONS).enumerate() {
            let heat = bar(r.nr_accesses as u64, window.max_nr_accesses.max(1) as u64, 5);
            out.push_str(&format!(
                "  {:<2} {:#016x} {:>8}  {:<5} {:>3}\n",
                i,
                r.range.start,
                fmt_bytes(r.range.len()),
                heat,
                r.age,
            ));
        }
    }

    fn schemes(&self, out: &mut String, snap: &ObsSnapshot) {
        if snap.schemes.is_empty() {
            out.push_str("\nschemes: none active\n");
            return;
        }
        out.push_str("\nscheme  tried      applied     quota-skips\n");
        for (i, s) in snap.schemes.iter().enumerate() {
            out.push_str(&format!(
                "  {:<4} {:>4}/{:>7} {:>4}/{:>7} {:>6}{}\n",
                i,
                s.nr_tried,
                fmt_bytes(s.sz_tried),
                s.nr_applied,
                fmt_bytes(s.sz_applied),
                s.nr_quota_skips,
                if s.nr_quota_skips > 0 { "  [throttled]" } else { "" },
            ));
        }
    }

    fn spans(&self, out: &mut String, snap: &ObsSnapshot) {
        let mut rows = Vec::new();
        for phase in Phase::ALL {
            if let Some((_, h)) =
                snap.registry.hists().find(|(k, _)| *k == keys::span(phase))
            {
                if h.count() > 0 {
                    rows.push((phase, h.percentile(50.0), h.percentile(95.0), h.count()));
                }
            }
        }
        if rows.is_empty() {
            out.push_str("\nspans: no span histograms (tracing disabled?)\n");
            return;
        }
        out.push_str("\nphase         p50       p95     count\n");
        for (phase, p50, p95, count) in rows {
            out.push_str(&format!(
                "  {:<12}{:>7}{:>10}{:>9}\n",
                phase.key_name(),
                fmt_ns(p50),
                fmt_ns(p95),
                count,
            ));
        }
    }
}

fn none_if_empty(s: &str) -> &str {
    if s.is_empty() {
        "(unnamed)"
    } else {
        s
    }
}

fn bar(value: u64, max: u64, width: usize) -> String {
    let filled = (value as u128 * width as u128 / max.max(1) as u128) as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::addr::AddrRange;
    use daos_monitor::{Aggregation, RegionInfo};
    use daos_schemes::SchemeStats;
    use daos_trace::Registry;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(17), "17B");
        assert_eq!(fmt_bytes(1536), "1.5K");
        assert_eq!(fmt_bytes(23 << 20 | 400 << 10), "23.3M");
        assert_eq!(fmt_bytes(512 << 10), "512K");
        assert_eq!(fmt_ns(789), "789ns");
        assert_eq!(fmt_ns(560_000), "560us");
        assert_eq!(fmt_ns(34_000_000), "34.0ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.2s");
        assert_eq!(sparkline(&[0, 0, 0]), "▁▁▁");
        let line = sparkline(&[0, 50, 100]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.ends_with('█'));
    }

    fn busy_snapshot(seq: u64, wss: u64) -> ObsSnapshot {
        let mut reg = Registry::new();
        for v in [100u64, 200, 400, 800] {
            reg.hist_record(&keys::span(Phase::Sample), v);
        }
        ObsSnapshot {
            seq,
            config: "rec".into(),
            workload: "w".into(),
            machine: "m".into(),
            epoch: seq.saturating_sub(1),
            nr_epochs: 10,
            now_ns: seq * 1_000_000,
            wss_bytes: wss,
            last_window: Some(Aggregation {
                at: seq * 1_000_000,
                regions: vec![
                    RegionInfo { range: AddrRange::new(0x1000, 0x3000), nr_accesses: 9, age: 2 },
                    RegionInfo { range: AddrRange::new(0x3000, 0x9000), nr_accesses: 1, age: 7 },
                ],
                max_nr_accesses: 10,
                aggregation_interval: 100_000_000,
            }),
            schemes: vec![SchemeStats {
                nr_tried: 4,
                sz_tried: 1 << 20,
                nr_applied: 2,
                sz_applied: 1 << 19,
                nr_quota_skips: 1,
            }],
            registry: reg,
            ..Default::default()
        }
    }

    #[test]
    fn frame_shows_every_section_and_history_grows_per_seq() {
        let mut dash = Dashboard::new();
        let frame1 = dash.frame(&busy_snapshot(1, 1 << 20));
        assert!(frame1.contains("daos top — rec"), "{frame1}");
        assert!(frame1.contains("LIVE"));
        assert!(frame1.contains("hottest regions (2 of 2"));
        assert!(frame1.contains("[throttled]"));
        assert!(frame1.contains("sample"));
        assert!(frame1.contains("wss"));
        // Same seq re-rendered: sparkline history does not grow.
        dash.frame(&busy_snapshot(1, 1 << 20));
        assert_eq!(dash.wss_history.len(), 1);
        dash.frame(&busy_snapshot(2, 2 << 20));
        assert_eq!(dash.wss_history.len(), 2);
        // Hottest region is listed before the colder one.
        let hot = frame1.find("0x00000000001000").unwrap();
        let cold = frame1.find("0x00000000003000").unwrap();
        assert!(hot < cold);
    }

    #[test]
    fn backfill_seeds_the_sparkline_and_clamps_to_width() {
        let mut dash = Dashboard::new();
        let values: Vec<u64> = (1..=SPARK_WIDTH as u64 + 2).collect();
        dash.backfill(&values);
        assert_eq!(dash.wss_history, &values[2..]);
        // The next live frame appends after the backfilled history.
        dash.frame(&busy_snapshot(1, 99));
        assert_eq!(dash.wss_history, [&values[3..], &[99]].concat());
    }

    /// `daos top ADDR`'s first frame after more publishes than the
    /// history retains: `/query` answers with the newest `RAW_CAPACITY`
    /// publishes, one sample each, so the sparkline's 48 columns are the
    /// newest 48 publishes — not 39 ten-publish rollups followed by 9
    /// single publishes drawn at one spacing, as the tiered store gave.
    #[test]
    fn backfill_from_query_is_the_newest_consecutive_publishes() {
        use crate::history::{QueryResult, RAW_CAPACITY};
        use daos_util::json::FromJson;
        const PUBLISHES: u64 = 1_159;
        let publisher = crate::Publisher::new();
        for seq in 1..=PUBLISHES {
            let (now_ns, wss_bytes) = (seq * 1_000, seq);
            publisher.publish(ObsSnapshot { seq, now_ns, wss_bytes, ..Default::default() });
        }
        let server = crate::ObsServer::bind("127.0.0.1:0", publisher).unwrap();
        let resp = crate::http_get(
            server.addr(),
            "/query?metric=daos_obs_wss_bytes",
            std::time::Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let answer = QueryResult::from_json(&daos_util::json::parse(&resp.body).unwrap()).unwrap();
        assert!(answer.points.iter().all(|&(at, v)| at == v as u64 * 1_000), "{}", resp.body);
        let values: Vec<u64> = answer.points.iter().map(|&(_, v)| v as u64).collect();
        let newest = |n: usize| (PUBLISHES + 1 - n as u64..=PUBLISHES).collect::<Vec<u64>>();
        assert_eq!(values, newest(RAW_CAPACITY));
        let mut dash = Dashboard::new();
        dash.backfill(&values);
        assert_eq!(dash.wss_history, newest(SPARK_WIDTH));
    }

    #[test]
    fn empty_snapshot_renders_placeholders_not_panics() {
        let mut dash = Dashboard::new();
        let frame = dash.frame(&ObsSnapshot::default());
        assert!(frame.contains("no aggregation window"));
        assert!(frame.contains("schemes: none active"));
        assert!(frame.contains("no span histograms"));
    }

    #[test]
    fn finished_snapshot_shows_done_and_full_bar() {
        let mut dash = Dashboard::new();
        let mut snap = busy_snapshot(10, 1 << 20);
        snap.finished = true;
        let frame = dash.frame(&snap);
        assert!(frame.contains("DONE"));
        assert!(frame.contains("epoch   10/10"));
        assert!(frame.contains(&"#".repeat(32)), "progress bar is full: {frame}");
    }
}
