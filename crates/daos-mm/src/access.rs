//! Workload → substrate access descriptions.
//!
//! Workloads describe one epoch of memory behaviour as a set of
//! [`AccessBatch`]es. The substrate walks the selected pages, sets PTE
//! accessed bits, services faults, and charges the machine-dependent cost.
//! This is the fidelity level DAMON itself observes — *which pages are
//! touched when* — so the monitoring and scheme code paths are exercised
//! exactly as on real hardware.


use crate::addr::AddrRange;

/// Which pages of the batch's range are touched this epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TouchPattern {
    /// Every page in the range.
    All,
    /// Every `n`-th page (stride in pages; `Stride(1)` == `All`).
    Stride(u32),
    /// `count` uniformly random pages (with replacement) in the range.
    Random {
        /// Number of random page draws.
        count: u32,
    },
}

/// One epoch's worth of accesses to one address range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessBatch {
    /// Target virtual address range.
    pub range: AddrRange,
    /// Page-selection pattern within the range.
    pub pattern: TouchPattern,
    /// Average number of CPU loads/stores issued to each touched page —
    /// a pure cost multiplier capturing access intensity (a page scanned
    /// once is cheaper than a page hammered in a loop).
    pub accesses_per_page: f32,
}

impl AccessBatch {
    /// Touch every page of `range` once each, `apc` accesses per page.
    pub fn all(range: AddrRange, apc: f32) -> Self {
        Self { range, pattern: TouchPattern::All, accesses_per_page: apc }
    }

    /// Touch every `stride`-th page.
    pub fn stride(range: AddrRange, stride: u32, apc: f32) -> Self {
        Self { range, pattern: TouchPattern::Stride(stride.max(1)), accesses_per_page: apc }
    }

    /// Touch `count` random pages.
    pub fn random(range: AddrRange, count: u32, apc: f32) -> Self {
        Self { range, pattern: TouchPattern::Random { count }, accesses_per_page: apc }
    }
}

/// Result of applying one batch: how much work it turned into.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Pages actually touched.
    pub touched_pages: u64,
    /// Touched pages that were mapped by a huge chunk.
    pub touched_huge: u64,
    /// Minor faults taken.
    pub minor_faults: u64,
    /// Major faults taken (swap-ins).
    pub major_faults: u64,
    /// Total nanoseconds charged (access + fault + reclaim stall).
    pub cost_ns: u64,
}
