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
    /// Each page independently with the given probability.
    Prob(f32),
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

    /// Touch each page with probability `p`.
    pub fn prob(range: AddrRange, p: f32, apc: f32) -> Self {
        Self { range, pattern: TouchPattern::Prob(p.clamp(0.0, 1.0)), accesses_per_page: apc }
    }

    /// Touch `count` random pages.
    pub fn random(range: AddrRange, count: u32, apc: f32) -> Self {
        Self { range, pattern: TouchPattern::Random { count }, accesses_per_page: apc }
    }

    /// Expected number of page touches this batch will make.
    pub fn expected_touches(&self) -> f64 {
        let pages = self.range.nr_pages() as f64;
        match self.pattern {
            TouchPattern::All => pages,
            TouchPattern::Stride(n) => (pages / n as f64).ceil(),
            TouchPattern::Prob(p) => pages * p as f64,
            TouchPattern::Random { count } => {
                // Distinct pages hit by `count` draws with replacement.
                let c = count as f64;
                if pages == 0.0 {
                    0.0
                } else {
                    pages * (1.0 - (1.0 - 1.0 / pages).powf(c))
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    fn range(pages: u64) -> AddrRange {
        AddrRange::new(0x10000, 0x10000 + pages * PAGE_SIZE)
    }

    #[test]
    fn expected_touches_all_and_stride() {
        assert_eq!(AccessBatch::all(range(10), 1.0).expected_touches(), 10.0);
        assert_eq!(AccessBatch::stride(range(10), 2, 1.0).expected_touches(), 5.0);
        assert_eq!(AccessBatch::stride(range(10), 3, 1.0).expected_touches(), 4.0);
        // stride 0 coerced to 1
        assert_eq!(AccessBatch::stride(range(4), 0, 1.0).expected_touches(), 4.0);
    }

    #[test]
    fn expected_touches_prob_clamped() {
        let b = AccessBatch::prob(range(100), 1.5, 1.0);
        assert_eq!(b.expected_touches(), 100.0);
        let b = AccessBatch::prob(range(100), -0.5, 1.0);
        assert_eq!(b.expected_touches(), 0.0);
    }

    #[test]
    fn expected_touches_random_saturates() {
        let few = AccessBatch::random(range(1000), 10, 1.0).expected_touches();
        assert!((9.9..=10.0).contains(&few), "{few}");
        let many = AccessBatch::random(range(10), 10_000, 1.0).expected_touches();
        assert!(many > 9.99 && many <= 10.0);
    }
}
