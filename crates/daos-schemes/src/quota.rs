//! Action quotas — the aggressiveness limiter.
//!
//! This is the extension the paper gestures at ("We plan to support more
//! actions in the future"); in mainline DAMON it became the
//! quotas/prioritisation mechanism. A quota caps how many bytes a scheme
//! may act on per reset interval, and when the cap binds, regions are
//! prioritised (colder-first for reclaim-like actions, hotter-first for
//! promotion-like ones) so the budget goes to the best candidates.

use daos_mm::clock::Ns;
use daos_monitor::{Aggregation, RegionInfo};

use crate::action::Action;

/// A byte budget per reset interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quota {
    /// Maximum bytes the scheme may affect per interval.
    pub sz_limit: u64,
    /// Budget reset interval (virtual time).
    pub reset_interval: Ns,
}

/// Runtime state of a quota.
#[derive(Debug, Clone, Copy)]
pub struct QuotaState {
    quota: Quota,
    used: u64,
    next_reset: Ns,
}

impl QuotaState {
    /// Fresh state starting at time `now`.
    pub fn new(quota: Quota, now: Ns) -> Self {
        Self { quota, used: 0, next_reset: now + quota.reset_interval }
    }

    /// Roll the window if due. O(1) however far `now` has jumped: the
    /// next boundary is computed by division, keeping it on the grid
    /// anchored at construction time. A `reset_interval` of zero
    /// (rejected by `SchemeConfigBuilder::build`, but reachable through a
    /// hand-built `Quota`) degrades to "reset every call" instead of the
    /// infinite loop the old `while`-increment implementation span into.
    pub fn maybe_reset(&mut self, now: Ns) {
        if now < self.next_reset {
            return;
        }
        self.used = 0;
        let interval = self.quota.reset_interval;
        if interval == 0 {
            self.next_reset = now;
            return;
        }
        let periods = (now - self.next_reset) / interval + 1;
        self.next_reset += periods * interval;
    }

    /// Bytes still available this window.
    pub fn remaining(&self) -> u64 {
        self.quota.sz_limit.saturating_sub(self.used)
    }

    /// Consume budget; returns how many of `bytes` fit.
    pub fn consume(&mut self, bytes: u64) -> u64 {
        let granted = bytes.min(self.remaining());
        self.used += granted;
        granted
    }
}

/// Priority of a region for a given action, higher = act first.
///
/// Reclaim-flavoured actions (PAGEOUT, COLD) prefer old, rarely accessed
/// regions; promotion-flavoured ones (HUGEPAGE, WILLNEED) prefer hot
/// regions. This mirrors DAMOS's per-action priority functions.
pub fn region_priority(action: Action, r: &RegionInfo, agg: &Aggregation) -> f64 {
    let freq = agg.freq_ratio(r); // 0..=1
    let age = r.age as f64;
    match action {
        Action::Pageout | Action::Cold | Action::Nohugepage | Action::LruDeprio => {
            (1.0 - freq) * (1.0 + age)
        }
        Action::Hugepage | Action::Willneed | Action::LruPrio => freq * (1.0 + age),
        Action::Stat => 0.0,
    }
}

/// Sort matching regions by descending priority for the action.
pub fn prioritize(action: Action, regions: &mut [RegionInfo], agg: &Aggregation) {
    regions.sort_by(|a, b| {
        region_priority(action, b, agg)
            .partial_cmp(&region_priority(action, a, agg))
            .unwrap_or(core::cmp::Ordering::Equal)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::addr::AddrRange;

    #[test]
    fn quota_budget_and_reset() {
        let q = Quota { sz_limit: 100, reset_interval: 10 };
        let mut st = QuotaState::new(q, 0);
        assert_eq!(st.consume(60), 60);
        assert_eq!(st.consume(60), 40, "clamped to remaining");
        assert_eq!(st.remaining(), 0);
        st.maybe_reset(9);
        assert_eq!(st.remaining(), 0, "not yet due");
        st.maybe_reset(10);
        assert_eq!(st.remaining(), 100, "window rolled");
        st.maybe_reset(45);
        assert_eq!(st.remaining(), 100);
    }

    #[test]
    fn zero_reset_interval_terminates() {
        // Regression: `reset_interval == 0` used to make `maybe_reset`
        // increment `next_reset` by zero forever (an infinite loop the
        // first time any scheme with such a quota fired).
        let q = Quota { sz_limit: 100, reset_interval: 0 };
        let mut st = QuotaState::new(q, 5);
        st.maybe_reset(5); // old code hung here
        assert_eq!(st.remaining(), 100);
        assert_eq!(st.consume(40), 40);
        st.maybe_reset(6); // degenerate quota resets every call
        assert_eq!(st.remaining(), 100);
    }

    #[test]
    fn reset_stays_on_grid_after_large_jump() {
        // A quota window that starts mid-stream (first aggregation at
        // t > 0) must keep its boundaries anchored to construction time,
        // however far virtual time jumps between resets.
        let q = Quota { sz_limit: 100, reset_interval: 10 };
        let mut st = QuotaState::new(q, 3); // boundaries at 13, 23, 33, ...
        st.consume(100);
        st.maybe_reset(12);
        assert_eq!(st.remaining(), 0, "not due before the first boundary");
        st.maybe_reset(1_000_007); // ~10^5 windows at once, O(1)
        assert_eq!(st.remaining(), 100);
        st.consume(100);
        st.maybe_reset(1_000_012);
        assert_eq!(st.remaining(), 0, "still inside the window ending at 1_000_013");
        st.maybe_reset(1_000_013);
        assert_eq!(st.remaining(), 100, "grid preserved across the jump");
    }

    #[test]
    fn pageout_prefers_cold_old_regions() {
        let agg = Aggregation {
            at: 0,
            regions: vec![],
            max_nr_accesses: 20,
            aggregation_interval: 1,
        };
        let hot_young = RegionInfo {
            range: AddrRange::new(0, 4096),
            nr_accesses: 18,
            age: 1,
        };
        let cold_old = RegionInfo {
            range: AddrRange::new(4096, 8192),
            nr_accesses: 0,
            age: 50,
        };
        let mut v = vec![hot_young, cold_old];
        prioritize(Action::Pageout, &mut v, &agg);
        assert_eq!(v[0].range.start, 4096, "cold+old first for pageout");
        prioritize(Action::Hugepage, &mut v, &agg);
        assert_eq!(v[0].range.start, 0, "hot first for promotion");
    }
}
