//! The embedded time-series store behind `/query`: every published
//! [`ObsSnapshot`](crate::ObsSnapshot) is flattened into prometheus-style
//! series names (the same name mangling and label folding `/metrics`
//! uses, so `daos_tenant_rss_bytes{tenant="t3"}` is queryable verbatim)
//! and appended to fixed-capacity ring series with tiered downsampling:
//!
//! - **raw** — the last [`RAW_CAPACITY`] samples, exact;
//! - **t10** — one [`Rollup`] (min/max/mean/last) per 10 raw samples,
//!   the last [`ROLLUP_CAPACITY`] of them;
//! - **t100** — one rollup per 100 raw samples, same capacity.
//!
//! Memory is bounded on both axes: per-series by the ring capacities,
//! across series by [`MAX_SERIES`] (series past the cap are counted in
//! [`MetricHistory::dropped_series`], never stored). With the defaults
//! that is ≤ 512 series × (256 raw points + 2×256 rollups) ≈ a few MiB
//! worst case, and retention spans 256 / 2 560 / 25 600 publishes per
//! tier.
//!
//! A query picks the shallowest tier that still covers `since` and
//! splices newer, finer points on top (rollups never hide the samples
//! recorded after them), so recent data is always exact and old data
//! degrades to rollups instead of vanishing.

use daos_util::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Exact samples kept per series.
pub const RAW_CAPACITY: usize = 256;

/// Rollups kept per downsampling tier.
pub const ROLLUP_CAPACITY: usize = 256;

/// Distinct series the store will hold before dropping new names.
pub const MAX_SERIES: usize = 512;

/// Raw samples folded into one tier-1 rollup.
const T10: u64 = 10;

/// Raw samples folded into one tier-2 rollup.
const T100: u64 = 100;

/// One downsampled bucket: the envelope and endpoints of the raw
/// samples it covers. `at` is the timestamp of the bucket's last
/// sample, so rollup timestamps splice cleanly against finer tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rollup {
    /// Timestamp of the newest sample in the bucket.
    pub at: u64,
    /// Smallest sample value in the bucket.
    pub min: f64,
    /// Largest sample value in the bucket.
    pub max: f64,
    /// Arithmetic mean of the bucket's samples.
    pub mean: f64,
    /// The newest sample value in the bucket.
    pub last: f64,
    /// Samples folded in.
    pub count: u64,
}

/// In-progress rollup accumulator; flushes every `width` raw samples.
#[derive(Debug, Clone, Copy)]
struct Acc {
    width: u64,
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
    last: f64,
    at: u64,
}

impl Acc {
    fn new(width: u64) -> Acc {
        Acc { width, count: 0, min: 0.0, max: 0.0, sum: 0.0, last: 0.0, at: 0 }
    }

    /// Add one raw sample; returns the finished rollup when the bucket
    /// closes.
    fn push(&mut self, at: u64, value: f64) -> Option<Rollup> {
        if self.count == 0 {
            (self.min, self.max, self.sum) = (value, value, value);
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            self.sum += value;
        }
        self.count += 1;
        self.last = value;
        self.at = at;
        if self.count < self.width {
            return None;
        }
        let done = Rollup {
            at: self.at,
            min: self.min,
            max: self.max,
            mean: self.sum / self.count as f64,
            last: self.last,
            count: self.count,
        };
        self.count = 0;
        Some(done)
    }
}

/// One metric's retained history across the three tiers.
#[derive(Debug)]
struct Series {
    raw: VecDeque<(u64, f64)>,
    t10: VecDeque<Rollup>,
    t100: VecDeque<Rollup>,
    acc10: Acc,
    acc100: Acc,
    /// Samples ever recorded — lets a query see whether a tier still
    /// holds the whole history (nothing evicted) without timestamps.
    total: u64,
}

impl Series {
    fn new() -> Series {
        Series {
            raw: VecDeque::new(),
            t10: VecDeque::new(),
            t100: VecDeque::new(),
            acc10: Acc::new(T10),
            acc100: Acc::new(T100),
            total: 0,
        }
    }

    fn push(&mut self, at: u64, value: f64, raw_cap: usize, rollup_cap: usize) {
        self.total += 1;
        if self.raw.len() == raw_cap {
            self.raw.pop_front();
        }
        self.raw.push_back((at, value));
        if let Some(r) = self.acc10.push(at, value) {
            if self.t10.len() == rollup_cap {
                self.t10.pop_front();
            }
            self.t10.push_back(r);
        }
        if let Some(r) = self.acc100.push(at, value) {
            if self.t100.len() == rollup_cap {
                self.t100.pop_front();
            }
            self.t100.push_back(r);
        }
    }
}

/// How a query projects each rollup (raw points are their own value
/// under every aggregator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Bucket minimum.
    Min,
    /// Bucket maximum.
    Max,
    /// Bucket mean.
    Mean,
    /// Newest value in the bucket (the default).
    Last,
}

impl Agg {
    /// Parse the `agg=` query parameter.
    pub fn parse(s: &str) -> Option<Agg> {
        match s {
            "min" => Some(Agg::Min),
            "max" => Some(Agg::Max),
            "mean" => Some(Agg::Mean),
            "last" => Some(Agg::Last),
            _ => None,
        }
    }

    /// The parameter spelling (`min` | `max` | `mean` | `last`).
    pub fn name(self) -> &'static str {
        match self {
            Agg::Min => "min",
            Agg::Max => "max",
            Agg::Mean => "mean",
            Agg::Last => "last",
        }
    }

    fn project(self, r: &Rollup) -> f64 {
        match self {
            Agg::Min => r.min,
            Agg::Max => r.max,
            Agg::Mean => r.mean,
            Agg::Last => r.last,
        }
    }
}

/// One `/query` answer: the series name, the deepest tier consulted,
/// and `(at, value)` points oldest-first.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The queried series name.
    pub metric: String,
    /// Deepest tier the answer drew from (`raw` | `t10` | `t100`).
    pub tier: &'static str,
    /// The aggregator applied to rollups.
    pub agg: Agg,
    /// `(at, value)` points, oldest first, `at >= since`.
    pub points: Vec<(u64, f64)>,
}

impl ToJson for QueryResult {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("metric".into(), Json::Str(self.metric.clone())),
            ("tier".into(), Json::Str(self.tier.into())),
            ("agg".into(), Json::Str(self.agg.name().into())),
            (
                "points".into(),
                Json::Array(
                    self.points
                        .iter()
                        .map(|(at, v)| Json::Array(vec![Json::U64(*at), Json::F64(*v)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The store: one `Series` per flattened metric name, bounded in
/// series count and per-series retention.
#[derive(Debug)]
pub struct MetricHistory {
    series: BTreeMap<String, Series>,
    max_series: usize,
    raw_cap: usize,
    rollup_cap: usize,
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
        Self::with_limits(MAX_SERIES, RAW_CAPACITY, ROLLUP_CAPACITY)
    }

    /// A store with explicit bounds (each clamped to ≥ 1).
    pub fn with_limits(max_series: usize, raw_cap: usize, rollup_cap: usize) -> MetricHistory {
        MetricHistory {
            series: BTreeMap::new(),
            max_series: max_series.max(1),
            raw_cap: raw_cap.max(1),
            rollup_cap: rollup_cap.max(1),
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
            if !self.series.contains_key(name) {
                if self.series.len() >= self.max_series {
                    self.dropped_series += 1;
                    continue;
                }
                self.series.insert(name.clone(), Series::new());
            }
            // lint: allow(panic, the entry was just inserted above)
            let s = self.series.get_mut(name).expect("series present");
            s.push(at, *value, self.raw_cap, self.rollup_cap);
            self.samples_recorded += 1;
        }
    }

    /// The newest raw value of `metric`, if the series exists — the
    /// alert engine's sample source.
    pub fn latest(&self, metric: &str) -> Option<(u64, f64)> {
        self.series.get(metric)?.raw.back().copied()
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

    /// Answer one query: points of `metric` with `at >= since`, drawn
    /// from the shallowest tier that still covers `since`, rollups
    /// projected through `agg` and finer points spliced on top.
    /// `None` when the series does not exist.
    pub fn query(&self, metric: &str, since: u64, agg: Agg) -> Option<QueryResult> {
        let s = self.series.get(metric)?;
        // A tier "covers" the window when it still holds every sample
        // ever recorded (no eviction yet) or its oldest entry predates
        // `since`. Prefer the shallowest covering tier — exact beats
        // downsampled.
        let raw_covers = s.raw.len() as u64 == s.total
            || s.raw.front().is_some_and(|(at, _)| *at <= since);
        let t10_covers = s.t10.len() as u64 == s.total / T10
            || s.t10.front().is_some_and(|r| r.at <= since)
            || s.t100.is_empty();
        let mut points: Vec<(u64, f64)> = Vec::new();
        let tier = if raw_covers {
            points.extend(s.raw.iter().copied().filter(|(at, _)| *at >= since));
            "raw"
        } else if t10_covers {
            let edge = splice(&mut points, s.t10.iter(), since, 0, agg);
            points.extend(s.raw.iter().copied().filter(|(at, _)| *at > edge && *at >= since));
            "t10"
        } else {
            let edge = splice(&mut points, s.t100.iter(), since, 0, agg);
            let edge = splice(&mut points, s.t10.iter(), since, edge, agg);
            points.extend(s.raw.iter().copied().filter(|(at, _)| *at > edge && *at >= since));
            "t100"
        };
        Some(QueryResult { metric: metric.to_string(), tier, agg, points })
    }
}

/// Append `agg`-projected rollups newer than `after` and `>= since`;
/// returns the newest timestamp covered (for the next-finer splice).
fn splice<'a>(
    out: &mut Vec<(u64, f64)>,
    rollups: impl Iterator<Item = &'a Rollup>,
    since: u64,
    after: u64,
    agg: Agg,
) -> u64 {
    let mut edge = after;
    for r in rollups {
        if r.at <= after {
            continue;
        }
        edge = r.at;
        if r.at >= since {
            out.push((r.at, agg.project(r)));
        }
    }
    edge
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_util::{prop_assert, proptest};

    fn one(name: &str, v: f64) -> Vec<(String, f64)> {
        vec![(name.to_string(), v)]
    }

    fn fill(h: &mut MetricHistory, n: u64, f: impl Fn(u64) -> f64) {
        for i in 1..=n {
            h.record(i, i * 100, &one("m", f(i)));
        }
    }

    #[test]
    fn raw_tier_answers_recent_queries_exactly() {
        let mut h = MetricHistory::new();
        fill(&mut h, 20, |i| i as f64);
        let r = h.query("m", 500, Agg::Last).unwrap();
        assert_eq!(r.tier, "raw");
        assert_eq!(r.points.first(), Some(&(500, 5.0)));
        assert_eq!(r.points.len(), 16);
        assert!(h.query("nope", 0, Agg::Last).is_none());
    }

    #[test]
    fn repeated_seq_is_deduplicated() {
        let mut h = MetricHistory::new();
        h.record(1, 100, &one("m", 1.0));
        h.record(1, 100, &one("m", 1.0));
        h.record(2, 200, &one("m", 2.0));
        assert_eq!(h.query("m", 0, Agg::Last).unwrap().points.len(), 2);
        assert_eq!(h.latest("m"), Some((200, 2.0)));
    }

    #[test]
    fn rollups_close_every_ten_and_hundred_samples() {
        let mut h = MetricHistory::with_limits(8, 4, 64);
        fill(&mut h, 230, |i| i as f64);
        let s = &h.series["m"];
        assert_eq!(s.raw.len(), 4, "raw ring caps");
        assert_eq!(s.t10.len(), 23);
        assert_eq!(s.t100.len(), 2);
        let r = &s.t10[0];
        assert_eq!((r.min, r.max, r.last, r.count), (1.0, 10.0, 10.0, 10));
        assert!((r.mean - 5.5).abs() < 1e-9);
        // Old windows fall back to the rollup tiers.
        let q = h.query("m", 100, Agg::Mean).unwrap();
        assert_eq!(q.tier, "t10");
        assert!(q.points.windows(2).all(|w| w[0].0 < w[1].0));
        // 23 closed rollups; the last covers samples 221..=230.
        assert_eq!(q.points.len(), 23);
        assert_eq!(q.points.last(), Some(&(23_000, 225.5)));
    }

    #[test]
    fn deep_history_uses_t100_and_splices_finer_tiers() {
        let mut h = MetricHistory::with_limits(8, 16, 8);
        fill(&mut h, 2_037, |i| (i % 7) as f64);
        let q = h.query("m", 0, Agg::Max).unwrap();
        assert_eq!(q.tier, "t100");
        assert!(q.points.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", q.points);
        // 8 t100 rollups (up to sample 2000), then the t10 rollups past
        // them (2010, 2020, 2030), then the raw tail (2031..=2037).
        assert_eq!(q.points.len(), 8 + 3 + 7);
        assert_eq!(q.points.last(), Some(&(203_700, (2_037 % 7) as f64)));
    }

    #[test]
    fn series_cap_drops_new_names_not_old_data() {
        let mut h = MetricHistory::with_limits(2, 8, 8);
        h.record(1, 100, &[("a".into(), 1.0), ("b".into(), 2.0), ("c".into(), 3.0)]);
        assert_eq!(h.series_count(), 2);
        assert_eq!(h.dropped_series(), 1);
        h.record(2, 200, &one("a", 4.0));
        assert_eq!(h.latest("a"), Some((200, 4.0)));
        assert!(h.latest("c").is_none());
    }

    #[test]
    fn non_finite_samples_are_refused() {
        let mut h = MetricHistory::new();
        h.record(1, 100, &[("m".into(), f64::NAN), ("m".into(), f64::INFINITY)]);
        assert_eq!(h.series_count(), 0);
    }

    proptest! {
        cases = 64;

        // Satellite: rollup envelope discipline — min ≤ mean ≤ max on
        // every rollup of both tiers, and each tier's envelope nests
        // inside the raw samples' global envelope.
        fn rollup_envelope_holds_across_tiers(
            n in 1u64..600,
            scale in 1u64..1000,
            jitter in 0u64..97,
        ) {
            let mut h = MetricHistory::with_limits(4, 32, 64);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for i in 1..=n {
                let v = ((i * scale + jitter) % 1013) as f64;
                lo = lo.min(v);
                hi = hi.max(v);
                h.record(i, i * 10, &[("m".to_string(), v)]);
            }
            let s = &h.series["m"];
            for r in s.t10.iter().chain(s.t100.iter()) {
                prop_assert!(r.min <= r.mean + 1e-9 && r.mean <= r.max + 1e-9);
                prop_assert!(r.min >= lo && r.max <= hi);
                prop_assert!(r.last >= r.min && r.last <= r.max);
            }
        }

        // Satellite: a query over a downsampled window never fabricates
        // values outside the raw envelope, under every aggregator.
        fn query_never_leaves_the_raw_envelope(
            n in 101u64..900,
            scale in 1u64..1000,
            since in 0u64..5_000,
        ) {
            let mut h = MetricHistory::with_limits(4, 16, 16);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for i in 1..=n {
                let v = ((i * scale) % 769) as f64;
                lo = lo.min(v);
                hi = hi.max(v);
                h.record(i, i * 10, &[("m".to_string(), v)]);
            }
            for agg in [Agg::Min, Agg::Max, Agg::Mean, Agg::Last] {
                let q = h.query("m", since, agg).unwrap();
                for (at, v) in &q.points {
                    prop_assert!(*at >= since);
                    prop_assert!(*v >= lo - 1e-9 && *v <= hi + 1e-9);
                }
                let ats: Vec<u64> = q.points.iter().map(|p| p.0).collect();
                prop_assert!(ats.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
