//! Memory management schemes: three condition pairs + an action (§3.2).
//!
//! "A scheme is constructed with 3 conditions (min/max size of the target
//! region, min/max access frequency of the target region, and min/max age
//! of the target region) and a memory operation action."

use daos_mm::clock::{format_ns, Ns};
use daos_monitor::{Aggregation, RegionInfo};

use crate::action::Action;

/// A condition bound: an explicit value or the `min`/`max` wildcard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound<T> {
    /// No lower constraint (`min` in the DSL).
    Unbounded,
    /// An explicit bound value.
    Val(T),
}

impl<T> Bound<T> {
    /// The wrapped value if explicit.
    pub fn value(&self) -> Option<&T> {
        match self {
            Bound::Unbounded => None,
            Bound::Val(v) => Some(v),
        }
    }
}

/// Access-frequency values can be given as a percentage of the maximum
/// possible access count (`80%`) or as a raw sample count (`5`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FreqVal {
    /// Percent of `max_nr_accesses` (0–100).
    Percent(f64),
    /// Raw `nr_accesses` samples.
    Samples(u32),
}

impl FreqVal {
    /// Resolve to a sample-count threshold for a window with the given
    /// maximum access count.
    pub fn to_samples(&self, max_nr_accesses: u32) -> f64 {
        match self {
            FreqVal::Percent(p) => p / 100.0 * max_nr_accesses as f64,
            FreqVal::Samples(s) => *s as f64,
        }
    }
}

/// Region ages can be given in aggregation intervals (`7`) or wall time
/// (`5s`, `2m`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgeVal {
    /// Raw age counter (aggregation intervals).
    Intervals(u32),
    /// Virtual time.
    Time(Ns),
}

impl AgeVal {
    /// Resolve to an interval count given the aggregation interval.
    pub fn to_intervals(&self, aggregation_interval: Ns) -> f64 {
        match self {
            AgeVal::Intervals(i) => *i as f64,
            AgeVal::Time(ns) => *ns as f64 / aggregation_interval.max(1) as f64,
        }
    }
}

/// One memory management scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheme {
    /// Minimum region size in bytes (`Unbounded` = no minimum).
    pub min_sz: Bound<u64>,
    /// Maximum region size in bytes.
    pub max_sz: Bound<u64>,
    /// Minimum access frequency.
    pub min_freq: Bound<FreqVal>,
    /// Maximum access frequency.
    pub max_freq: Bound<FreqVal>,
    /// Minimum age.
    pub min_age: Bound<AgeVal>,
    /// Maximum age.
    pub max_age: Bound<AgeVal>,
    /// Action to apply to matching regions.
    pub action: Action,
}

impl Scheme {
    /// A scheme matching every region.
    pub fn any(action: Action) -> Self {
        Self {
            min_sz: Bound::Unbounded,
            max_sz: Bound::Unbounded,
            min_freq: Bound::Unbounded,
            max_freq: Bound::Unbounded,
            min_age: Bound::Unbounded,
            max_age: Bound::Unbounded,
            action,
        }
    }

    /// Builder: set the size bounds (bytes).
    pub fn sz(mut self, min: Option<u64>, max: Option<u64>) -> Self {
        self.min_sz = min.map_or(Bound::Unbounded, Bound::Val);
        self.max_sz = max.map_or(Bound::Unbounded, Bound::Val);
        self
    }

    /// Builder: set frequency bounds.
    pub fn freq(mut self, min: Option<FreqVal>, max: Option<FreqVal>) -> Self {
        self.min_freq = min.map_or(Bound::Unbounded, Bound::Val);
        self.max_freq = max.map_or(Bound::Unbounded, Bound::Val);
        self
    }

    /// Builder: set age bounds.
    pub fn age(mut self, min: Option<AgeVal>, max: Option<AgeVal>) -> Self {
        self.min_age = min.map_or(Bound::Unbounded, Bound::Val);
        self.max_age = max.map_or(Bound::Unbounded, Bound::Val);
        self
    }

    /// Whether a region from the given aggregation window fulfils all
    /// three conditions (inclusive bounds, as in the kernel).
    pub fn matches(&self, r: &RegionInfo, agg: &Aggregation) -> bool {
        self.window_bounds(agg).admit(r)
    }

    /// The three conditions resolved against `agg`: percentages become
    /// sample counts and times become intervals once per window, not once
    /// per region.
    pub(crate) fn window_bounds(&self, agg: &Aggregation) -> WindowBounds {
        let (max_nr, interval) = (agg.max_nr_accesses, agg.aggregation_interval);
        let freq = |b: &Bound<FreqVal>, open| b.value().map_or(open, |v| v.to_samples(max_nr));
        let age = |b: &Bound<AgeVal>, open| b.value().map_or(open, |v| v.to_intervals(interval));
        let sz = |b: &Bound<u64>, open| b.value().map_or(open, |v| *v);
        WindowBounds {
            sz: [sz(&self.min_sz, 0), sz(&self.max_sz, u64::MAX)],
            freq: [freq(&self.min_freq, f64::NEG_INFINITY), freq(&self.max_freq, f64::INFINITY)],
            age: [age(&self.min_age, f64::NEG_INFINITY), age(&self.max_age, f64::INFINITY)],
        }
    }
}

/// A scheme's `[min, max]` pairs for one aggregation window. A wildcard is
/// the type's extreme, which no value falls outside, so an unbounded side
/// admits everything — as skipping its comparison did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowBounds {
    sz: [u64; 2],
    freq: [f64; 2],
    age: [f64; 2],
}

impl WindowBounds {
    /// Whether region `r` lies inside all three pairs.
    #[inline]
    pub(crate) fn admit(&self, r: &RegionInfo) -> bool {
        let inside = |x, [lo, hi]: [f64; 2]| !(x < lo || x > hi);
        let sz = r.range.len();
        !(sz < self.sz[0] || sz > self.sz[1])
            && inside(r.nr_accesses as f64, self.freq)
            && inside(r.age as f64, self.age)
    }
}

fn fmt_sz(b: &Bound<u64>, wildcard: &str) -> String {
    match b {
        Bound::Unbounded => wildcard.to_string(),
        Bound::Val(v) => {
            const G: u64 = 1 << 30;
            const M: u64 = 1 << 20;
            const K: u64 = 1 << 10;
            if *v >= G && v % G == 0 {
                format!("{}G", v / G)
            } else if *v >= M && v % M == 0 {
                format!("{}M", v / M)
            } else if *v >= K && v % K == 0 {
                format!("{}K", v / K)
            } else {
                format!("{v}B")
            }
        }
    }
}

fn fmt_freq(b: &Bound<FreqVal>, wildcard: &str) -> String {
    match b {
        Bound::Unbounded => wildcard.to_string(),
        Bound::Val(FreqVal::Percent(p)) => format!("{p}%"),
        Bound::Val(FreqVal::Samples(s)) => format!("{s}"),
    }
}

fn fmt_age(b: &Bound<AgeVal>, wildcard: &str) -> String {
    match b {
        Bound::Unbounded => wildcard.to_string(),
        Bound::Val(AgeVal::Intervals(i)) => format!("{i}"),
        Bound::Val(AgeVal::Time(ns)) => format_ns(*ns),
    }
}

impl core::fmt::Display for Scheme {
    /// Render in the DSL line format (parseable back by the parser).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} {} {} {} {} {} {}",
            fmt_sz(&self.min_sz, "min"),
            fmt_sz(&self.max_sz, "max"),
            fmt_freq(&self.min_freq, "min"),
            fmt_freq(&self.max_freq, "max"),
            fmt_age(&self.min_age, "min"),
            fmt_age(&self.max_age, "max"),
            self.action
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::addr::AddrRange;
    use daos_mm::clock::{ms, sec};

    fn agg_with(regions: Vec<RegionInfo>) -> Aggregation {
        Aggregation {
            at: 0,
            regions,
            max_nr_accesses: 20,
            aggregation_interval: ms(100),
        }
    }

    fn region(sz: u64, nr: u32, age: u32) -> RegionInfo {
        RegionInfo { range: AddrRange::new(0, sz), nr_accesses: nr, age }
    }

    #[test]
    fn any_matches_everything() {
        let s = Scheme::any(Action::Stat);
        let agg = agg_with(vec![]);
        assert!(s.matches(&region(4096, 0, 0), &agg));
        assert!(s.matches(&region(1 << 30, 20, 1000), &agg));
    }

    #[test]
    fn size_bounds_inclusive() {
        let s = Scheme::any(Action::Stat).sz(Some(8192), Some(16384));
        let agg = agg_with(vec![]);
        assert!(!s.matches(&region(4096, 0, 0), &agg));
        assert!(s.matches(&region(8192, 0, 0), &agg));
        assert!(s.matches(&region(16384, 0, 0), &agg));
        assert!(!s.matches(&region(16385, 0, 0), &agg));
    }

    #[test]
    fn freq_percent_resolves_against_window_max() {
        // 80% of 20 samples = 16.
        let s = Scheme::any(Action::Stat).freq(Some(FreqVal::Percent(80.0)), None);
        let agg = agg_with(vec![]);
        assert!(!s.matches(&region(4096, 15, 0), &agg));
        assert!(s.matches(&region(4096, 16, 0), &agg));
    }

    #[test]
    fn freq_samples_raw() {
        let s = Scheme::any(Action::Stat).freq(Some(FreqVal::Samples(5)), None);
        let agg = agg_with(vec![]);
        assert!(!s.matches(&region(4096, 4, 0), &agg));
        assert!(s.matches(&region(4096, 5, 0), &agg));
    }

    #[test]
    fn age_time_resolves_against_aggregation_interval() {
        // 2s at 100ms windows = 20 intervals.
        let s = Scheme::any(Action::Stat).age(Some(AgeVal::Time(sec(2))), None);
        let agg = agg_with(vec![]);
        assert!(!s.matches(&region(4096, 0, 19), &agg));
        assert!(s.matches(&region(4096, 0, 20), &agg));
    }

    #[test]
    fn prcl_scheme_semantics() {
        // "page out memory regions not accessed ≥ 2 minutes" (Listing 1).
        let s = Scheme::any(Action::Pageout)
            .freq(None, Some(FreqVal::Samples(0)))
            .age(Some(AgeVal::Time(2 * daos_mm::clock::MINUTE)), None);
        let agg = agg_with(vec![]);
        // 2 min at 100 ms windows = 1200 intervals.
        assert!(s.matches(&region(4096, 0, 1200), &agg));
        assert!(!s.matches(&region(4096, 0, 1199), &agg));
        assert!(!s.matches(&region(4096, 1, 1200), &agg), "accessed regions excluded");
        assert_eq!(s.action, Action::Pageout);
    }

    #[test]
    fn display_format() {
        let s = Scheme::any(Action::Pageout)
            .sz(Some(2 << 20), None)
            .freq(Some(FreqVal::Percent(80.0)), None)
            .age(Some(AgeVal::Time(sec(60))), None);
        assert_eq!(s.to_string(), "2M max 80% max 1m max pageout");
    }
}
