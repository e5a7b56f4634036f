//! The metric history behind `/query`: every published
//! [`ObsSnapshot`](crate::ObsSnapshot) is flattened into prometheus-style
//! series names (the same name mangling and label folding `/metrics`
//! uses, so `daos_tenant_rss_bytes{tenant="t3"}` is queryable verbatim)
//! and each series keeps its newest [`RAW_CAPACITY`] samples, exact, in
//! one ring.
//!
//! Memory is bounded on both axes: per series by the ring capacity,
//! across series by [`MAX_SERIES`] (series past the cap are counted in
//! [`MetricHistory::dropped_series`], never stored) — 512 series × 256
//! samples × 16 B ≈ 2 MiB worst case. A query returns the retained
//! samples with `at >= since`, oldest first, one per publish; anything
//! older is gone, and judging the numbers is left to whoever scrapes
//! them.

use std::collections::{BTreeMap, VecDeque};

/// Exact samples kept per series.
pub const RAW_CAPACITY: usize = 256;

/// Distinct series the store will hold before dropping new names.
pub const MAX_SERIES: usize = 512;

/// One `/query` answer: the series name and its retained `(at, value)`
/// samples, oldest first. The body is its JSON — `{"metric":…,
/// "points":[[at,value],…]}` — and decodes back with `from_json`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The queried series name.
    pub metric: String,
    /// `(at, value)` samples, oldest first, `at >= since`.
    pub points: Vec<(u64, f64)>,
}

daos_util::json_struct!(QueryResult { metric, points });

/// The store: one ring of samples per flattened metric name, bounded in
/// series count and per-series retention.
#[derive(Debug)]
pub struct MetricHistory {
    series: BTreeMap<String, VecDeque<(u64, f64)>>,
    max_series: usize,
    cap: usize,
    /// Publish `seq` last recorded, so re-publishing one snapshot (or a
    /// dashboard poll racing a publish) cannot duplicate samples.
    last_seq: u64,
    dropped_series: u64,
    samples_recorded: u64,
}

impl Default for MetricHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricHistory {
    /// A store with the default bounds.
    pub fn new() -> MetricHistory {
        Self::with_limits(MAX_SERIES, RAW_CAPACITY)
    }

    /// A store with explicit bounds (each ≥ 1).
    fn with_limits(max_series: usize, cap: usize) -> MetricHistory {
        MetricHistory {
            series: BTreeMap::new(),
            max_series,
            cap,
            last_seq: 0,
            dropped_series: 0,
            samples_recorded: 0,
        }
    }

    /// Record one publish: `samples` are `(series name, value)` pairs
    /// stamped `at`. A `seq` equal to the previous record's is a
    /// re-publish and is ignored; `seq` 0 (hand-built snapshots) is
    /// always recorded.
    pub fn record(&mut self, seq: u64, at: u64, samples: &[(String, f64)]) {
        if seq != 0 && seq == self.last_seq {
            return;
        }
        self.last_seq = seq;
        for (name, value) in samples {
            if !value.is_finite() {
                continue;
            }
            let nr_series = self.series.len();
            let ring = match self.series.get_mut(name) {
                Some(ring) => ring,
                None if nr_series >= self.max_series => {
                    self.dropped_series += 1;
                    continue;
                }
                None => self.series.entry(name.clone()).or_default(),
            };
            if ring.len() == self.cap {
                ring.pop_front();
            }
            ring.push_back((at, *value));
            self.samples_recorded += 1;
        }
    }

    /// Distinct series currently stored.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// New series refused because [`MAX_SERIES`] was reached.
    pub fn dropped_series(&self) -> u64 {
        self.dropped_series
    }

    /// Total samples appended across all series.
    pub fn samples_recorded(&self) -> u64 {
        self.samples_recorded
    }

    /// Answer one query: the retained samples of `metric` with
    /// `at >= since`, oldest first. `None` when the series does not
    /// exist.
    pub fn query(&self, metric: &str, since: u64) -> Option<QueryResult> {
        let ring = self.series.get(metric)?;
        let points = ring.iter().copied().filter(|(at, _)| *at >= since).collect();
        Some(QueryResult { metric: metric.to_string(), points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_util::prop::vec_of;
    use daos_util::{prop_assert, prop_assert_eq, proptest};

    fn one(name: &str, v: f64) -> Vec<(String, f64)> {
        vec![(name.to_string(), v)]
    }

    fn latest(h: &MetricHistory, metric: &str) -> Option<(u64, f64)> {
        h.query(metric, 0)?.points.last().copied()
    }

    #[test]
    fn repeated_seq_is_deduplicated() {
        let mut h = MetricHistory::new();
        h.record(1, 100, &one("m", 1.0));
        h.record(1, 100, &one("m", 1.0));
        h.record(2, 200, &one("m", 2.0));
        assert_eq!(h.query("m", 0).unwrap().points.len(), 2);
        assert_eq!(latest(&h, "m"), Some((200, 2.0)));
        assert!(h.query("nope", 0).is_none());
    }

    #[test]
    fn series_cap_drops_new_names_not_old_data() {
        let mut h = MetricHistory::with_limits(2, 8);
        h.record(1, 100, &[("a".into(), 1.0), ("b".into(), 2.0), ("c".into(), 3.0)]);
        assert_eq!(h.series_count(), 2);
        assert_eq!(h.dropped_series(), 1);
        h.record(2, 200, &one("a", 4.0));
        assert_eq!(latest(&h, "a"), Some((200, 4.0)));
        assert!(latest(&h, "c").is_none());
    }

    #[test]
    fn non_finite_samples_are_refused() {
        let mut h = MetricHistory::new();
        h.record(1, 100, &[("m".into(), f64::NAN), ("m".into(), f64::INFINITY)]);
        assert_eq!(h.series_count(), 0);
    }

    proptest! {
        cases = 128;

        // The whole contract of `/query`: for any record sequence (any
        // timestamps, repeated and zero `seq`s, non-finite values) and
        // any `since`, the answer is exactly the last `cap` accepted
        // samples with `at >= since`, oldest first.
        fn query_returns_exactly_the_retained_samples(
            cap in 1usize..12,
            records in vec_of((0u64..6, 0u64..400, 0u64..50), 0usize..80),
            since in 0u64..450,
        ) {
            let mut h = MetricHistory::with_limits(4, cap);
            let mut accepted: Vec<(u64, f64)> = Vec::new();
            let mut last_seq = 0;
            for &(seq, at, v) in &records {
                // One draw in 50 is a value the store must refuse.
                let value = if v == 0 { f64::NAN } else { v as f64 };
                h.record(seq, at, &[("m".to_string(), value)]);
                if seq != 0 && seq == last_seq {
                    continue;
                }
                last_seq = seq;
                if value.is_finite() {
                    accepted.push((at, value));
                }
            }
            prop_assert_eq!(h.samples_recorded(), accepted.len() as u64);
            let retained = &accepted[accepted.len().saturating_sub(cap)..];
            let want: Vec<(u64, f64)> =
                retained.iter().copied().filter(|(at, _)| *at >= since).collect();
            match h.query("m", since) {
                Some(q) => {
                    prop_assert!(q.points.len() <= cap);
                    prop_assert_eq!(q.points, want);
                }
                None => prop_assert!(accepted.is_empty()),
            }
        }
    }
}
