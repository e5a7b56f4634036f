//! A monitoring region: the unit of the paper's space-based sampling.

use daos_mm::addr::AddrRange;

/// One monitored region: adjacent pages assumed to share an access
/// frequency, with its access counter and age.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Byte range covered by the region.
    pub range: AddrRange,
    /// Positive access checks in the current aggregation window.
    pub nr_accesses: u32,
    /// `nr_accesses` of the previous window — the aging mechanism
    /// compares against this to decide whether the pattern changed.
    pub last_nr_accesses: u32,
    /// Number of aggregation intervals the region's access frequency has
    /// stayed (roughly) the same. Reset when the pattern shifts.
    pub age: u32,
    /// Page currently being sampled (set by `prepare`, consumed by
    /// `check`); `None` when no sample is outstanding.
    pub sampling_addr: Option<u64>,
}

impl Region {
    /// Fresh region over `range` with zeroed counters.
    pub fn new(range: AddrRange) -> Self {
        Self {
            range,
            nr_accesses: 0,
            last_nr_accesses: 0,
            age: 0,
            sampling_addr: None,
        }
    }

    /// Size in bytes.
    #[inline]
    pub fn sz(&self) -> u64 {
        self.range.len()
    }

    /// Number of whole pages (the split-point granularity).
    #[inline]
    pub fn nr_pages(&self) -> u64 {
        self.range.nr_pages()
    }
}

/// Immutable per-region view handed to callbacks/schemes at aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionInfo {
    /// Region address range.
    pub range: AddrRange,
    /// Access counter for the finished window.
    pub nr_accesses: u32,
    /// Age in aggregation intervals.
    pub age: u32,
}

impl From<&Region> for RegionInfo {
    fn from(r: &Region) -> Self {
        Self { range: r.range, nr_accesses: r.nr_accesses, age: r.age }
    }
}

daos_util::json_struct!(RegionInfo { range, nr_accesses, age });
