//! Access-pattern heatmaps (Fig. 6): time on the x-axis, address on the
//! y-axis, access frequency as intensity — rendered from a
//! [`MonitorRecord`].

use daos_mm::addr::AddrRange;
use daos_mm::clock::Ns;
use daos_monitor::MonitorRecord;

/// A rasterised heatmap.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Number of time bins (columns).
    pub nr_cols: usize,
    /// Number of address bins (rows; row 0 = lowest address).
    pub nr_rows: usize,
    /// Time span covered.
    pub time_span: (Ns, Ns),
    /// Address span covered.
    pub addr_span: AddrRange,
    /// Access-frequency ratio per cell, row-major, 0.0..=1.0.
    pub cells: Vec<f64>,
}

impl Heatmap {
    /// Rasterise a record into `nr_cols × nr_rows` cells over the given
    /// address span (pass [`biggest_active_span`] output to skip the
    /// address-space gaps, as §4.1 does).
    pub fn from_record(
        record: &MonitorRecord,
        addr_span: AddrRange,
        nr_cols: usize,
        nr_rows: usize,
    ) -> Option<Heatmap> {
        let (t0, t1) = record.time_span()?;
        if addr_span.is_empty() || nr_cols == 0 || nr_rows == 0 {
            return None;
        }
        let mut cells = vec![0.0f64; nr_cols * nr_rows];
        let mut weights = vec![0.0f64; nr_cols * nr_rows];
        let t_len = (t1 - t0).max(1) as f64;
        let a_len = addr_span.len() as f64;
        for agg in &record.aggregations {
            let col = (((agg.at - t0) as f64 / t_len) * (nr_cols - 1).max(1) as f64) as usize;
            let col = col.min(nr_cols - 1);
            for r in &agg.regions {
                let Some(isect) = r.range.intersect(&addr_span) else { continue };
                let freq = agg.freq_ratio(r);
                let row_lo =
                    (((isect.start - addr_span.start) as f64 / a_len) * nr_rows as f64) as usize;
                let row_hi = ((((isect.end - addr_span.start) as f64 / a_len)
                    * nr_rows as f64)
                    .ceil() as usize)
                    .min(nr_rows);
                for row in row_lo..row_hi.max(row_lo + 1).min(nr_rows) {
                    let idx = row * nr_cols + col;
                    cells[idx] += freq * isect.len() as f64;
                    weights[idx] += isect.len() as f64;
                }
            }
        }
        for (c, w) in cells.iter_mut().zip(&weights) {
            if *w > 0.0 {
                *c /= *w;
            }
        }
        Some(Heatmap { nr_cols, nr_rows, time_span: (t0, t1), addr_span, cells })
    }

    /// Cell accessor (row 0 = lowest address).
    pub fn cell(&self, row: usize, col: usize) -> f64 {
        self.cells[row * self.nr_cols + col]
    }

    /// Render as ASCII art (top row = highest address, like Fig. 6).
    pub fn render_ascii(&self) -> String {
        const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let mut out = String::with_capacity((self.nr_cols + 1) * self.nr_rows);
        for row in (0..self.nr_rows).rev() {
            for col in 0..self.nr_cols {
                let v = self.cell(row, col).clamp(0.0, 1.0);
                let idx = (v * (SHADES.len() - 1) as f64).round() as usize;
                out.push(SHADES[idx]);
            }
            out.push('\n');
        }
        out
    }

    /// Serialise as CSV: `time_s,addr_mib,intensity` triples (gnuplot-
    /// friendly, like the paper's plotting pipeline).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,addr_mib,intensity\n");
        let (t0, t1) = self.time_span;
        for row in 0..self.nr_rows {
            for col in 0..self.nr_cols {
                let t = t0 as f64
                    + (t1 - t0) as f64 * col as f64 / (self.nr_cols - 1).max(1) as f64;
                let a = self.addr_span.start as f64
                    + self.addr_span.len() as f64 * row as f64 / self.nr_rows as f64;
                out.push_str(&format!(
                    "{:.2},{:.2},{:.4}\n",
                    t / 1e9,
                    a / (1 << 20) as f64,
                    self.cell(row, col)
                ));
            }
        }
        out
    }
}

/// The biggest actively-accessed contiguous span of a record — the
/// paper's Fig. 6 workaround for the stack/heap/mmap gaps: "we find and
/// visualize the biggest subspace of each workload that shows active
/// access patterns".
pub fn biggest_active_span(record: &MonitorRecord) -> Option<AddrRange> {
    // Collect spans of regions that ever showed accesses, then merge
    // adjacent/overlapping ones and pick the widest.
    let mut active: Vec<AddrRange> = Vec::new();
    for agg in &record.aggregations {
        for r in &agg.regions {
            if r.nr_accesses > 0 {
                active.push(r.range);
            }
        }
    }
    if active.is_empty() {
        return record.address_span();
    }
    active.sort_by_key(|r| r.start);
    let mut merged: Vec<AddrRange> = Vec::new();
    for r in active {
        match merged.last_mut() {
            // Bridge gaps of less than 1/8th of the accumulated span —
            // sampled regions are patchy.
            Some(last) if r.start <= last.end + last.len() / 8 => {
                last.end = last.end.max(r.end);
            }
            _ => merged.push(r),
        }
    }
    merged.into_iter().max_by_key(|r| r.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::clock::sec;
    use daos_monitor::{Aggregation, RegionInfo};

    fn record_hot_low_half() -> MonitorRecord {
        let mut rec = MonitorRecord::new();
        for i in 0..10u64 {
            rec.push(Aggregation {
                at: sec(i),
                regions: vec![
                    RegionInfo {
                        range: AddrRange::new(0, 1 << 20),
                        nr_accesses: 18,
                        age: 0,
                    },
                    RegionInfo {
                        range: AddrRange::new(1 << 20, 2 << 20),
                        nr_accesses: 0,
                        age: 5,
                    },
                ],
                max_nr_accesses: 20,
                aggregation_interval: sec(1),
            });
        }
        rec
    }

    /// Mean intensity of rows `rows`, every column.
    fn mean_of_rows(hm: &Heatmap, rows: std::ops::Range<usize>) -> f64 {
        let cells: Vec<f64> =
            rows.flat_map(|r| (0..hm.nr_cols).map(move |c| hm.cell(r, c))).collect();
        cells.iter().sum::<f64>() / cells.len() as f64
    }

    #[test]
    fn heatmap_shows_hot_bottom_half() {
        let rec = record_hot_low_half();
        let hm = Heatmap::from_record(&rec, AddrRange::new(0, 2 << 20), 10, 8).unwrap();
        let (bottom, top) = (mean_of_rows(&hm, 0..4), mean_of_rows(&hm, 4..8));
        assert!(bottom > 0.8, "bottom {bottom}");
        assert!(top < 0.05, "top {top}");
        let ascii = hm.render_ascii();
        assert_eq!(ascii.lines().count(), 8);
        assert!(ascii.contains('@') || ascii.contains('%'));
    }

    #[test]
    fn csv_has_header_and_cells() {
        let rec = record_hot_low_half();
        let hm = Heatmap::from_record(&rec, AddrRange::new(0, 2 << 20), 4, 4).unwrap();
        let csv = hm.to_csv();
        assert!(csv.starts_with("time_s,addr_mib,intensity\n"));
        assert_eq!(csv.lines().count(), 1 + 16);
    }

    #[test]
    fn empty_record_gives_none() {
        let rec = MonitorRecord::new();
        assert!(Heatmap::from_record(&rec, AddrRange::new(0, 1 << 20), 4, 4).is_none());
    }

    #[test]
    fn single_snapshot_record_rasterises() {
        // One aggregation window: every access lands in one column, the
        // degenerate t0 == t1 time span must not divide by zero.
        let mut rec = MonitorRecord::new();
        rec.push(Aggregation {
            at: sec(3),
            regions: vec![RegionInfo {
                range: AddrRange::new(0, 1 << 20),
                nr_accesses: 10,
                age: 0,
            }],
            max_nr_accesses: 20,
            aggregation_interval: sec(1),
        });
        let hm = Heatmap::from_record(&rec, AddrRange::new(0, 1 << 20), 4, 4).unwrap();
        assert_eq!(hm.time_span, (sec(3), sec(3)));
        assert!(hm.cells.iter().all(|&c| (0.0..=1.0).contains(&c)));
        // The single window maps to column 0; it must carry the signal.
        assert!(hm.cell(0, 0) > 0.4, "cell(0,0) = {}", hm.cell(0, 0));
    }

    #[test]
    fn zero_width_span_and_zero_cells_give_none() {
        let rec = record_hot_low_half();
        let zero = AddrRange::new(1 << 20, 1 << 20);
        assert!(Heatmap::from_record(&rec, zero, 4, 4).is_none());
        let span = AddrRange::new(0, 2 << 20);
        assert!(Heatmap::from_record(&rec, span, 0, 4).is_none());
        assert!(Heatmap::from_record(&rec, span, 4, 0).is_none());
    }

    daos_util::proptest! {
        cases = 64;

        /// Whatever the record shape, every rasterised cell is a valid
        /// frequency ratio: a weighted average of `freq_ratio` values
        /// can never leave 0.0..=1.0.
        fn cells_stay_normalised(
            nr_windows in 1u64..12,
            nr_regions in 1u64..6,
            stride in 1u64..(4 << 20),
            accesses in 0u32..40,
            nr_cols in 1usize..24,
            nr_rows in 1usize..16,
        ) {
            let mut rec = MonitorRecord::new();
            for w in 0..nr_windows {
                let mut regions = Vec::new();
                for r in 0..nr_regions {
                    // Deterministic per-(window, region) variation,
                    // respecting the monitor invariant
                    // `nr_accesses <= max_nr_accesses`.
                    let acc = (accesses as u64 + w * 7 + r * 3) % 21;
                    regions.push(RegionInfo {
                        range: AddrRange::new(r * stride, (r + 1) * stride),
                        nr_accesses: acc as u32,
                        age: (w % 5) as u32,
                    });
                }
                rec.push(Aggregation {
                    at: sec(w),
                    regions,
                    max_nr_accesses: 20,
                    aggregation_interval: sec(1),
                });
            }
            let span = biggest_active_span(&rec).expect("non-empty record");
            if let Some(hm) = Heatmap::from_record(&rec, span, nr_cols, nr_rows) {
                daos_util::prop_assert!(
                    hm.cells.iter().all(|&c| (0.0..=1.0).contains(&c) && c.is_finite()),
                    "cell out of range: {:?}",
                    hm.cells.iter().find(|c| !(0.0..=1.0).contains(*c))
                );
                daos_util::prop_assert_eq!(hm.cells.len(), nr_cols * nr_rows);
            }
        }
    }

    #[test]
    fn biggest_active_span_skips_gaps() {
        let mut rec = MonitorRecord::new();
        rec.push(Aggregation {
            at: 0,
            regions: vec![
                // Small active area low.
                RegionInfo { range: AddrRange::new(0, 1 << 20), nr_accesses: 5, age: 0 },
                // Huge *idle* area (a gap-spanning region).
                RegionInfo {
                    range: AddrRange::new(1 << 20, 1 << 40),
                    nr_accesses: 0,
                    age: 9,
                },
                // Big active area high (e.g. the heap).
                RegionInfo {
                    range: AddrRange::new(1 << 40, (1 << 40) + (64 << 20)),
                    nr_accesses: 9,
                    age: 0,
                },
            ],
            max_nr_accesses: 20,
            aggregation_interval: sec(1),
        });
        let span = biggest_active_span(&rec).unwrap();
        assert_eq!(span.start, 1 << 40, "picks the big active subspace");
        assert!(span.len() >= 64 << 20);
    }
}


daos_util::json_struct!(Heatmap {
    nr_cols, nr_rows, time_span, addr_span, cells,
});
