//! Scheme address filters: restrict where a scheme's action may land.
//!
//! This mirrors mainline DAMOS's address-range filters (another of the
//! engine extensions the paper anticipates): operators deploy a global
//! scheme but fence off ranges that must never be touched (e.g. a
//! latency-critical arena), or confine an aggressive scheme to one area.

use daos_mm::addr::AddrRange;

/// Whether matching the filter allows or rejects the action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    /// The action may only touch bytes inside the filter range.
    Allow,
    /// The action must not touch bytes inside the filter range.
    Reject,
}

/// One address filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrFilter {
    /// The filtered range.
    pub range: AddrRange,
    /// Allow-list or deny-list semantics.
    pub mode: FilterMode,
}

impl AddrFilter {
    /// Confine actions to `range`.
    pub fn allow(range: AddrRange) -> Self {
        Self { range, mode: FilterMode::Allow }
    }

    /// Protect `range` from actions.
    pub fn reject(range: AddrRange) -> Self {
        Self { range, mode: FilterMode::Reject }
    }
}

/// Apply a filter chain to a candidate action range, yielding the
/// sub-ranges the action may actually touch (in address order).
pub fn apply_filters(candidate: AddrRange, filters: &[AddrFilter]) -> Vec<AddrRange> {
    let mut allowed = vec![candidate];
    for f in filters {
        let mut next = Vec::with_capacity(allowed.len() + 1);
        for r in allowed {
            match f.mode {
                FilterMode::Allow => {
                    if let Some(i) = r.intersect(&f.range) {
                        next.push(i);
                    }
                }
                FilterMode::Reject => {
                    // Keep the parts of r outside the rejected range.
                    if r.start < f.range.start {
                        next.push(AddrRange::new(r.start, r.end.min(f.range.start)));
                    }
                    if r.end > f.range.end {
                        next.push(AddrRange::new(r.start.max(f.range.end), r.end));
                    }
                }
            }
        }
        allowed = next;
        if allowed.is_empty() {
            break;
        }
    }
    allowed.retain(|r| !r.is_empty());
    allowed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: u64, b: u64) -> AddrRange {
        AddrRange::new(a, b)
    }

    #[test]
    fn no_filters_passes_through() {
        assert_eq!(apply_filters(r(0, 100), &[]), vec![r(0, 100)]);
    }

    #[test]
    fn allow_clips_to_range() {
        let out = apply_filters(r(0, 100), &[AddrFilter::allow(r(40, 200))]);
        assert_eq!(out, vec![r(40, 100)]);
        let out = apply_filters(r(0, 100), &[AddrFilter::allow(r(200, 300))]);
        assert!(out.is_empty());
    }

    #[test]
    fn reject_splits_around_range() {
        let out = apply_filters(r(0, 100), &[AddrFilter::reject(r(40, 60))]);
        assert_eq!(out, vec![r(0, 40), r(60, 100)]);
        // Rejection covering everything removes the candidate.
        let out = apply_filters(r(0, 100), &[AddrFilter::reject(r(0, 100))]);
        assert!(out.is_empty());
        // Rejection at the edges trims.
        let out = apply_filters(r(10, 100), &[AddrFilter::reject(r(0, 20))]);
        assert_eq!(out, vec![r(20, 100)]);
    }

    #[test]
    fn filters_chain() {
        // Allow [0,80), then protect [20,40).
        let out = apply_filters(
            r(0, 100),
            &[AddrFilter::allow(r(0, 80)), AddrFilter::reject(r(20, 40))],
        );
        assert_eq!(out, vec![r(0, 20), r(40, 80)]);
    }

    #[test]
    fn disjoint_allow_after_reject() {
        let out = apply_filters(
            r(0, 100),
            &[AddrFilter::reject(r(40, 60)), AddrFilter::allow(r(50, 100))],
        );
        assert_eq!(out, vec![r(60, 100)]);
    }
}
