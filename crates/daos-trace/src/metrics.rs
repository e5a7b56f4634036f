//! The metrics registry: named counters (monotonic `u64`), gauges
//! (last-write-wins `f64`), and log2-bucketed histograms. With a collector
//! installed for a whole run the registry agrees exactly with the layers'
//! own stats structs (`OverheadStats`, `SchemeStats`) — pinned by a test
//! in each layer.

use daos_util::json::{FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;

/// Log2-bucketed histogram of `u64` samples. Bucket `0` holds zeros;
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`. Exact `count`, `sum`,
/// `min` and `max` are kept alongside the buckets so derived stats (mean,
/// peak) do not suffer bucket quantisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// The bucket index for `v`.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold `other` into `self`: bucket-wise addition with the exact
    /// `count`/`sum`/`min`/`max` sidecars combined. Merging an empty
    /// histogram is a no-op (the empty-`min` sentinel never leaks).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (b, c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(bucket_index, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect()
    }

    /// The `p`-th percentile (0–100) of the distribution, estimated from
    /// the log2 buckets: the sample of the matching rank is placed at
    /// the midpoint of its bucket's `[2^(i-1), 2^i)` range, then clamped
    /// to the exact `[min, max]` — so the estimate is within a factor of
    /// ~1.5 of the true sample and p0/p100 are exact. Returns 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * (self.count - 1) as f64).round() as u64;
        if rank == 0 {
            return self.min();
        }
        if rank == self.count - 1 {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                let estimate = if i == 0 {
                    0
                } else {
                    let lo = 1u64 << (i - 1);
                    lo + lo / 2
                };
                return estimate.clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("count".into(), self.count.to_json()),
            ("sum".into(), self.sum.to_json()),
            ("min".into(), self.min().to_json()),
            ("max".into(), self.max.to_json()),
            ("buckets".into(), self.nonzero_buckets().to_json()),
        ])
    }
}

impl FromJson for Histogram {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let count: u64 = v.field("count")?;
        if count == 0 {
            return Ok(Histogram::default());
        }
        let mut h = Histogram {
            buckets: [0; 65],
            count,
            sum: v.field("sum")?,
            min: v.field("min")?,
            max: v.field("max")?,
        };
        for (i, c) in v.field::<Vec<(u64, u64)>>("buckets")? {
            let i = usize::try_from(i)
                .ok()
                .filter(|&i| i < h.buckets.len())
                .ok_or_else(|| JsonError::msg(format!("histogram bucket index {i} out of range")))?;
            h.buckets[i] = c;
        }
        Ok(h)
    }
}

/// Named metrics, keyed by dotted-path strings (`"monitor.work_ns"`).
/// Keys are created on first write; reads of absent counters return 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter `name`.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(n),
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Set the gauge `name`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Record `v` into the histogram `name`.
    pub fn hist_record(&mut self, name: &str, v: u64) {
        match self.hists.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::default();
                h.record(v);
                self.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Fold a whole pre-aggregated histogram into `name`, merging with
    /// any existing series — how subsystems that aggregate off-registry
    /// (e.g. the obs server's per-endpoint telemetry, held in atomics
    /// and mutexed histograms) materialize a `Registry` on demand.
    pub fn hist_insert(&mut self, name: &str, h: &Histogram) {
        match self.hists.get_mut(name) {
            Some(mine) => mine.merge(h),
            None => {
                self.hists.insert(name.to_string(), h.clone());
            }
        }
    }

    /// Counter value (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if ever written.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if ever written.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Merge `other` into `self`: counters add, gauges are last-write-
    /// wins (`other` wins), histograms fold bucket-wise. Used by the obs
    /// plane to combine a run's registry snapshot with the HTTP server's
    /// self-telemetry into one `/metrics` exposition.
    pub fn merge(&mut self, other: &Registry) {
        for (key, value) in other.counters() {
            self.counter_add(key, value);
        }
        for (key, value) in other.gauges() {
            self.gauge_set(key, value);
        }
        for (key, h) in other.hists() {
            self.hist_insert(key, h);
        }
    }

    /// All counters, sorted by key.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by key.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, sorted by key.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl ToJson for Registry {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("counters".into(), self.counters.to_json()),
            ("gauges".into(), self.gauges.to_json()),
            ("histograms".into(), self.hists.to_json()),
        ])
    }
}

impl FromJson for Registry {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // Unknown sibling keys (the exporter's `dropped_events` /
        // `ring_capacity` trailer fields) are deliberately ignored.
        Ok(Registry {
            counters: v.field("counters")?,
            gauges: v.field("gauges")?,
            hists: v.field("histograms")?,
        })
    }
}

/// Well-known registry keys written by the collector's event mirror
/// and read by `daos trace`'s summary, `report profile`, `daos top` and
/// the layers' registry-equals-stats tests — kept in one place so
/// producer and consumer cannot drift.
pub mod keys {
    /// Histogram of young-bit checks per sampling tick (count = ticks,
    /// sum = total checks, max = the Fig. 7 bound witness).
    pub const MONITOR_CHECKS_PER_TICK: &str = "monitor.checks_per_tick";
    /// Total monitor kernel work in virtual ns.
    pub const MONITOR_WORK_NS: &str = "monitor.work_ns";
    /// Aggregation windows closed.
    pub const MONITOR_AGGREGATIONS: &str = "monitor.aggregations";
    /// Adaptive split passes that changed the region count.
    pub const MONITOR_SPLITS: &str = "monitor.splits";
    /// Merge passes that changed the region count.
    pub const MONITOR_MERGES: &str = "monitor.merges";
    /// Watermark activation flips across all schemes.
    pub const SCHEMES_WMARK_TRANSITIONS: &str = "schemes.watermark_transitions";

    /// Per-scheme counter key, e.g. `scheme.0.nr_applied`.
    pub fn scheme(idx: u32, field: &str) -> String {
        format!("scheme.{idx}.{field}")
    }

    /// Per-phase span-duration histogram key, e.g. `span.sample_ns`
    /// (written by the collector on every `SpanExit`).
    pub fn span(phase: crate::event::Phase) -> String {
        format!("span.{}_ns", phase.key_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_keeps_exact_extremes() {
        let mut h = Histogram::default();
        for v in [5, 0, 1000, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1008);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (2, 1), (3, 1), (10, 1)]);
    }

    #[test]
    fn registry_defaults_and_writes() {
        let mut r = Registry::new();
        assert_eq!(r.counter("absent"), 0);
        r.counter_add("a.b", 2);
        r.counter_add("a.b", 3);
        r.gauge_set("g", 1.5);
        r.hist_record("h", 9);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.gauge("g"), Some(1.5));
        assert_eq!(r.hist("h").unwrap().count(), 1);
    }

    #[test]
    fn scheme_key_shape() {
        assert_eq!(keys::scheme(2, "nr_tried"), "scheme.2.nr_tried");
        assert_eq!(keys::span(crate::Phase::SchemeApply), "span.scheme_apply_ns");
    }

    #[test]
    fn percentiles_from_log2_buckets() {
        assert_eq!(Histogram::default().percentile(50.0), 0);
        let mut h = Histogram::default();
        for v in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 1000, 1000] {
            h.record(v);
        }
        // p0/p100 hit the exact extreme ranks; p50 lands in bucket
        // [64,128) → midpoint 96, clamped into [100, 1000].
        assert_eq!(h.percentile(0.0), 100);
        assert_eq!(h.percentile(100.0), 1000);
        assert_eq!(h.percentile(50.0), 100);
        // p90 of 11 samples is rank 9 → the first 1000 outlier's bucket
        // [512,1024) → midpoint 768.
        assert_eq!(h.percentile(90.0), 768);
        let mut zeros = Histogram::default();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.percentile(95.0), 0);
    }

    #[test]
    fn registries_merge_counters_gauges_and_histograms() {
        let mut a = Registry::new();
        a.counter_add("c.x", 5);
        a.gauge_set("g.x", 1.0);
        a.hist_record("h.x", 8);
        let mut b = Registry::new();
        b.counter_add("c.x", 7);
        b.counter_add("c.y", 1);
        b.gauge_set("g.x", 2.0);
        b.hist_record("h.x", 100);
        b.hist_record("h.y", 3);
        a.merge(&b);
        assert_eq!(a.counter("c.x"), 12);
        assert_eq!(a.counter("c.y"), 1);
        assert_eq!(a.gauge("g.x"), Some(2.0), "gauges are last-write-wins");
        let h = a.hist("h.x").unwrap();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (2, 108, 8, 100));
        assert_eq!(a.hist("h.y").unwrap().count(), 1);
        // Merging an empty histogram keeps the empty-min sentinel intact.
        let mut h = Histogram::default();
        h.merge(&Histogram::default());
        assert_eq!(h, Histogram::default());
        h.record(4);
        let mut full = Histogram::default();
        full.record(9);
        full.merge(&h);
        assert_eq!((full.count(), full.min(), full.max()), (2, 4, 9));
    }

    #[test]
    fn histogram_json_roundtrip() {
        let mut h = Histogram::default();
        for v in [0u64, 7, 7, 900, u64::MAX] {
            h.record(v);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        let empty = Histogram::from_json(&Histogram::default().to_json()).unwrap();
        assert_eq!(empty, Histogram::default(), "empty min sentinel survives");
    }

    #[test]
    fn registry_json_roundtrip_ignores_trailer_extras() {
        let mut r = Registry::new();
        r.counter_add("a.b", 5);
        r.gauge_set("g", -1.5);
        r.hist_record("h", 300);
        let Json::Object(mut fields) = r.to_json() else { panic!("object") };
        fields.push(("dropped_events".into(), 7u64.to_json()));
        let back = Registry::from_json(&Json::Object(fields)).unwrap();
        assert_eq!(back, r);
    }
}
