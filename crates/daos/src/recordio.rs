//! Monitor-record (de)serialisation — the `rec` configuration's
//! record-file format, and the working-set-size report derived from it
//! (the user-space tooling around the paper's kernel interface).
//!
//! The format is line-oriented CSV so records can be re-plotted with any
//! tool: `at_ns,start,end,nr_accesses,age,max_nr_accesses,aggr_ns`.

use daos_mm::addr::AddrRange;
use daos_monitor::{Aggregation, MonitorRecord, RegionInfo};

/// Header line of the record CSV format.
pub const RECORD_HEADER: &str = "at_ns,start,end,nr_accesses,age,max_nr_accesses,aggr_ns";

/// Why a record file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// A CSV line does not have exactly 7 comma-separated fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// How many fields were found.
        got: usize,
    },
    /// A CSV field failed to parse as a number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
}

impl core::fmt::Display for RecordError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecordError::FieldCount { line, got } => {
                write!(f, "line {line}: expected 7 fields, got {got}")
            }
            RecordError::BadNumber { line, token } => {
                write!(f, "line {line}: bad number '{token}'")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Serialise a record to CSV.
pub fn record_to_csv(record: &MonitorRecord) -> String {
    let mut out = String::with_capacity(64 * record.len() + 64);
    out.push_str(RECORD_HEADER);
    out.push('\n');
    for agg in &record.aggregations {
        for r in &agg.regions {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                agg.at,
                r.range.start,
                r.range.end,
                r.nr_accesses,
                r.age,
                agg.max_nr_accesses,
                agg.aggregation_interval,
            ));
        }
    }
    out
}

/// Parse a record back from CSV (inverse of [`record_to_csv`]).
pub fn record_from_csv(text: &str) -> Result<MonitorRecord, RecordError> {
    let mut record = MonitorRecord::new();
    let mut current: Option<Aggregation> = None;
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line == RECORD_HEADER {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 {
            return Err(RecordError::FieldCount { line: ln + 1, got: fields.len() });
        }
        let parse = |i: usize| -> Result<u64, RecordError> {
            fields[i].parse::<u64>().map_err(|_| RecordError::BadNumber {
                line: ln + 1,
                token: fields[i].to_string(),
            })
        };
        let at = parse(0)?;
        let info = RegionInfo {
            range: AddrRange::new(parse(1)?, parse(2)?),
            nr_accesses: parse(3)? as u32,
            age: parse(4)? as u32,
        };
        let max_nr = parse(5)? as u32;
        let aggr = parse(6)?;
        match &mut current {
            Some(agg) if agg.at == at => agg.regions.push(info),
            _ => {
                if let Some(done) = current.take() {
                    record.push(done);
                }
                current = Some(Aggregation {
                    at,
                    regions: vec![info],
                    max_nr_accesses: max_nr,
                    aggregation_interval: aggr,
                });
            }
        }
    }
    if let Some(done) = current {
        record.push(done);
    }
    Ok(record)
}

/// A working-set-size report (the tooling's `wss` view): the
/// distribution of per-window hot-byte estimates over the record.
#[derive(Debug, Clone, PartialEq)]
pub struct WssReport {
    /// Per-window working-set estimates, bytes, in time order.
    pub samples: Vec<u64>,
}

impl WssReport {
    /// Compute the report from a record.
    pub fn from_record(record: &MonitorRecord) -> WssReport {
        WssReport {
            samples: record.aggregations.iter().map(|a| a.hot_bytes_estimate()).collect(),
        }
    }

    /// The given percentile (0–100) of the WSS distribution.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Mean working-set size.
    pub fn mean(&self) -> u64 {
        if self.samples.is_empty() {
            0
        } else {
            (self.samples.iter().map(|&s| s as u128).sum::<u128>()
                / self.samples.len() as u128) as u64
        }
    }

    /// Render the damo-style percentile table.
    pub fn render(&self) -> String {
        let mut out = String::from("percentile   wss\n");
        for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            out.push_str(&format!("{:>9.0}% {:>8} KiB\n", p, self.percentile(p) >> 10));
        }
        out.push_str(&format!("{:>10} {:>8} KiB\n", "mean", self.mean() >> 10));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::clock::{ms, sec};

    fn sample_record() -> MonitorRecord {
        let mut rec = MonitorRecord::new();
        for t in 1..=5u64 {
            rec.push(Aggregation {
                at: sec(t),
                regions: vec![
                    RegionInfo {
                        range: AddrRange::new(0, 1 << 20),
                        nr_accesses: 20,
                        age: t as u32,
                    },
                    RegionInfo {
                        range: AddrRange::new(1 << 20, 4 << 20),
                        nr_accesses: 0,
                        age: 10,
                    },
                ],
                max_nr_accesses: 20,
                aggregation_interval: ms(100),
            });
        }
        rec
    }

    #[test]
    fn csv_roundtrip_is_lossless() {
        let rec = sample_record();
        let csv = record_to_csv(&rec);
        let back = record_from_csv(&csv).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn csv_parse_errors() {
        assert!(record_from_csv("1,2,3\n").is_err());
        assert!(record_from_csv("a,b,c,d,e,f,g\n").is_err());
        assert!(record_from_csv("").unwrap().is_empty());
        assert!(record_from_csv(RECORD_HEADER).unwrap().is_empty());
    }

    #[test]
    fn wss_report_percentiles() {
        let rec = sample_record();
        let wss = WssReport::from_record(&rec);
        assert_eq!(wss.samples.len(), 5);
        // Every window: 1 MiB at 100% + 3 MiB at 0% → 1 MiB.
        assert_eq!(wss.percentile(50.0), 1 << 20);
        assert_eq!(wss.mean(), 1 << 20);
        assert_eq!(wss.percentile(0.0), wss.percentile(100.0));
        let rendered = wss.render();
        assert!(rendered.contains("1024 KiB"));
    }

    #[test]
    fn wss_empty_record() {
        let wss = WssReport::from_record(&MonitorRecord::new());
        assert_eq!(wss.percentile(50.0), 0);
        assert_eq!(wss.mean(), 0);
    }
}
