//! Per-scheme statistics, as exposed by the kernel implementation
//! (`nr_tried`/`sz_tried`/`nr_applied`/`sz_applied`).


/// Counters for one scheme's activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchemeStats {
    /// Regions that fulfilled the scheme's conditions.
    pub nr_tried: u64,
    /// Total bytes of those regions.
    pub sz_tried: u64,
    /// Regions on which the action had an effect.
    pub nr_applied: u64,
    /// Bytes the action affected (paged out, promoted, ...).
    pub sz_applied: u64,
    /// Regions skipped because the quota was exhausted.
    pub nr_quota_skips: u64,
}

impl SchemeStats {
    /// Record a region that matched the conditions.
    pub fn tried(&mut self, bytes: u64) {
        self.nr_tried += 1;
        self.sz_tried += bytes;
    }

    /// Record an action application affecting `bytes`.
    pub fn applied(&mut self, bytes: u64) {
        self.nr_applied += 1;
        self.sz_applied += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = SchemeStats::default();
        s.tried(4096);
        s.tried(8192);
        s.applied(4096);
        assert_eq!(s.nr_tried, 2);
        assert_eq!(s.sz_tried, 12288);
        assert_eq!(s.nr_applied, 1);
        assert_eq!(s.sz_applied, 4096);
    }
}


daos_util::json_struct!(SchemeStats {
    nr_tried, sz_tried, nr_applied, sz_applied, nr_quota_skips,
});
