//! Monitoring attributes (the paper's §3.1 knobs).

use daos_mm::clock::{ms, sec, Ns};
use std::fmt;

/// Why a [`MonitorAttrs`] configuration is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrsError {
    /// `sampling_interval` is zero.
    ZeroSamplingInterval,
    /// `aggregation_interval` is shorter than `sampling_interval`.
    AggregationBelowSampling,
    /// `min_nr_regions` is below the floor of 3 (an aggregation needs at
    /// least three regions to express a split).
    TooFewRegions(usize),
    /// `max_nr_regions` is below `min_nr_regions`.
    MaxBelowMin {
        /// The configured lower bound.
        min: usize,
        /// The configured (smaller) upper bound.
        max: usize,
    },
}

impl fmt::Display for AttrsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrsError::ZeroSamplingInterval => write!(f, "sampling_interval must be > 0"),
            AttrsError::AggregationBelowSampling => {
                write!(f, "aggregation_interval must be >= sampling_interval")
            }
            AttrsError::TooFewRegions(n) => {
                write!(f, "min_nr_regions must be >= 3 (got {n})")
            }
            AttrsError::MaxBelowMin { min, max } => {
                write!(f, "max_nr_regions ({max}) must be >= min_nr_regions ({min})")
            }
        }
    }
}

impl std::error::Error for AttrsError {}

/// The five user-set monitoring parameters.
///
/// The paper's evaluation uses 5 ms sampling, 100 ms aggregation, 1 s
/// regions update, and a 10..1000 regions range (§4, "Workloads").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorAttrs {
    /// Interval between access checks of each region's sample page.
    pub sampling_interval: Ns,
    /// Interval after which per-region access counters are aggregated,
    /// reported, and reset.
    pub aggregation_interval: Ns,
    /// Interval after which the monitoring target (e.g. the VMA set) is
    /// re-examined for changes such as `mmap()`.
    pub regions_update_interval: Ns,
    /// Lower bound on the number of regions (accuracy floor).
    pub min_nr_regions: usize,
    /// Upper bound on the number of regions (overhead ceiling).
    pub max_nr_regions: usize,
    /// Whether the adaptive regions adjustment (random split + similarity
    /// merge) runs. Disabling it degrades the monitor to *static*
    /// space-based sampling — the prior-work baseline the paper's
    /// adaptive mechanism improves on (§2.2); exposed for ablation.
    pub adaptive: bool,
}

impl Default for MonitorAttrs {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

impl MonitorAttrs {
    /// The configuration used throughout the paper's evaluation.
    pub fn paper_defaults() -> Self {
        Self {
            sampling_interval: ms(5),
            aggregation_interval: ms(100),
            regions_update_interval: sec(1),
            min_nr_regions: 10,
            max_nr_regions: 1000,
            adaptive: true,
        }
    }

    /// Maximum value one region's access counter can reach in one
    /// aggregation window (= samples per window).
    pub fn max_nr_accesses(&self) -> u32 {
        (self.aggregation_interval / self.sampling_interval.max(1)) as u32
    }

    /// The merge-similarity threshold the adaptive adjustment uses:
    /// 10 % of the maximum possible access count, as in the kernel
    /// implementation.
    pub fn merge_threshold(&self) -> u32 {
        (self.max_nr_accesses() / 10).max(1)
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), AttrsError> {
        if self.sampling_interval == 0 {
            return Err(AttrsError::ZeroSamplingInterval);
        }
        if self.aggregation_interval < self.sampling_interval {
            return Err(AttrsError::AggregationBelowSampling);
        }
        if self.min_nr_regions < 3 {
            return Err(AttrsError::TooFewRegions(self.min_nr_regions));
        }
        if self.max_nr_regions < self.min_nr_regions {
            return Err(AttrsError::MaxBelowMin {
                min: self.min_nr_regions,
                max: self.max_nr_regions,
            });
        }
        Ok(())
    }

    /// Start building attributes from [`paper_defaults`](Self::paper_defaults);
    /// [`AttrsBuilder::build`] validates the result.
    pub fn builder() -> AttrsBuilder {
        AttrsBuilder { attrs: Self::paper_defaults() }
    }
}

/// Builder for [`MonitorAttrs`]; every field starts at the paper's
/// evaluation value, and [`build`](Self::build) rejects inconsistent
/// combinations (e.g. `min_nr_regions > max_nr_regions`) with a typed
/// [`AttrsError`].
#[derive(Debug, Clone)]
pub struct AttrsBuilder {
    attrs: MonitorAttrs,
}

impl AttrsBuilder {
    /// Interval between access checks (must be > 0).
    pub fn sampling_interval(mut self, ns: Ns) -> Self {
        self.attrs.sampling_interval = ns;
        self
    }

    /// Aggregation window length (must be ≥ the sampling interval).
    pub fn aggregation_interval(mut self, ns: Ns) -> Self {
        self.attrs.aggregation_interval = ns;
        self
    }

    /// Target re-examination interval.
    pub fn regions_update_interval(mut self, ns: Ns) -> Self {
        self.attrs.regions_update_interval = ns;
        self
    }

    /// Lower bound on the region count (≥ 3).
    pub fn min_nr_regions(mut self, n: usize) -> Self {
        self.attrs.min_nr_regions = n;
        self
    }

    /// Upper bound on the region count (≥ the lower bound).
    pub fn max_nr_regions(mut self, n: usize) -> Self {
        self.attrs.max_nr_regions = n;
        self
    }

    /// Enable/disable the adaptive regions adjustment.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.attrs.adaptive = on;
        self
    }

    /// Validate and produce the attributes.
    pub fn build(self) -> Result<MonitorAttrs, AttrsError> {
        self.attrs.validate()?;
        Ok(self.attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_evaluation_setup() {
        let a = MonitorAttrs::paper_defaults();
        assert_eq!(a.sampling_interval, ms(5));
        assert_eq!(a.aggregation_interval, ms(100));
        assert_eq!(a.regions_update_interval, sec(1));
        assert_eq!(a.min_nr_regions, 10);
        assert_eq!(a.max_nr_regions, 1000);
        assert_eq!(a.max_nr_accesses(), 20);
        assert_eq!(a.merge_threshold(), 2);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut a = MonitorAttrs::paper_defaults();
        a.sampling_interval = 0;
        assert!(a.validate().is_err());

        let mut a = MonitorAttrs::paper_defaults();
        a.aggregation_interval = a.sampling_interval / 2;
        assert!(a.validate().is_err());

        let mut a = MonitorAttrs::paper_defaults();
        a.min_nr_regions = 2;
        assert!(a.validate().is_err());

        let mut a = MonitorAttrs::paper_defaults();
        a.max_nr_regions = a.min_nr_regions - 1;
        assert!(a.validate().is_err());
    }

    #[test]
    fn builder_validates_at_build() {
        let a = MonitorAttrs::builder()
            .sampling_interval(ms(10))
            .aggregation_interval(ms(200))
            .min_nr_regions(20)
            .max_nr_regions(500)
            .adaptive(false)
            .build()
            .unwrap();
        assert_eq!(a.sampling_interval, ms(10));
        assert_eq!(a.max_nr_accesses(), 20);
        assert!(!a.adaptive);
        // Defaults flow through untouched.
        assert_eq!(a.regions_update_interval, sec(1));

        let err = MonitorAttrs::builder()
            .min_nr_regions(100)
            .max_nr_regions(50)
            .build()
            .unwrap_err();
        assert_eq!(err, AttrsError::MaxBelowMin { min: 100, max: 50 });
        assert!(err.to_string().contains("max_nr_regions"));

        assert_eq!(
            MonitorAttrs::builder().sampling_interval(0).build().unwrap_err(),
            AttrsError::ZeroSamplingInterval
        );
    }

    #[test]
    fn merge_threshold_floor_is_one() {
        let mut a = MonitorAttrs::paper_defaults();
        a.aggregation_interval = a.sampling_interval; // 1 sample/window
        assert_eq!(a.max_nr_accesses(), 1);
        assert_eq!(a.merge_threshold(), 1);
    }
}
