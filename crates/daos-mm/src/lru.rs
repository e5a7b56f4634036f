//! Two-list (active/inactive) page LRU, the kernel mechanism the paper
//! cites as Linux's recency machinery (§2.2: "the Linux kernel transforms
//! the periodic access check results to recency information using its two
//! LRU lists mechanism").
//!
//! Pages enter the inactive list when first mapped, are promoted to the
//! active list when referenced again, and are reclaimed from the inactive
//! tail. DAMOS's `COLD` action deactivates pages (moves them to the
//! inactive tail) so pressure reclaim takes them first.
//!
//! The implementation uses generation-stamped entries with lazy deletion:
//! each queued entry carries the page's `lru_gen` at enqueue time; entries
//! whose generation no longer matches the PTE are skipped on pop. This
//! keeps every operation O(1) amortised without intrusive links.

use std::collections::VecDeque;

use crate::process::Pid;

/// Which list a queued entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LruList {
    /// Recently-referenced pages; scanned only under sustained pressure.
    Active,
    /// Reclaim candidates; evicted from the tail.
    Inactive,
}

/// A queued page reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LruEntry {
    /// Owning process.
    pub pid: Pid,
    /// Page-aligned virtual address.
    pub addr: u64,
    /// Generation stamp; must match the PTE's `lru_gen` to be live.
    pub gen: u32,
}

/// The two-list LRU.
#[derive(Debug, Default)]
pub struct Lru {
    active: VecDeque<LruEntry>,
    inactive: VecDeque<LruEntry>,
}

/// A copy keeps the original's capacity: a derived clone is exactly
/// full, so the first insert into a copy of a warmed-up machine would
/// regrow (and move) a multi-MiB deque.
impl Clone for Lru {
    fn clone(&self) -> Self {
        let copy = |q: &VecDeque<LruEntry>| {
            let mut out = VecDeque::with_capacity(q.capacity());
            out.extend(q);
            out
        };
        Lru { active: copy(&self.active), inactive: copy(&self.inactive) }
    }
}

impl Lru {
    /// Empty LRU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a newly mapped (or re-referenced) page on the given list's
    /// head. The caller must have bumped the PTE's `lru_gen` to `gen`.
    pub fn insert(&mut self, list: LruList, pid: Pid, addr: u64, gen: u32) {
        let e = LruEntry { pid, addr, gen };
        match list {
            LruList::Active => self.active.push_front(e),
            LruList::Inactive => self.inactive.push_front(e),
        }
    }

    /// Queue a page at the inactive *tail* — the very next reclaim victim.
    /// Used by DAMOS `COLD`.
    pub fn deactivate_to_tail(&mut self, pid: Pid, addr: u64, gen: u32) {
        self.inactive.push_back(LruEntry { pid, addr, gen });
    }

    /// Pop the best eviction candidate from the inactive tail. The caller
    /// validates the generation against the PTE and calls again on a stale
    /// hit; `validate` does both in one step.
    pub fn pop_inactive(&mut self) -> Option<LruEntry> {
        self.inactive.pop_back()
    }

    /// Pop the oldest active entry (for active-list shrinking).
    pub fn pop_active(&mut self) -> Option<LruEntry> {
        self.active.pop_back()
    }

    /// Whether both lists are (apparently) empty.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty() && self.inactive.is_empty()
    }

    /// Drop all queued entries (e.g. after process teardown in tests).
    pub fn clear(&mut self) {
        self.active.clear();
        self.inactive.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_inactive() {
        let mut lru = Lru::new();
        lru.insert(LruList::Inactive, 1, 0x1000, 1);
        lru.insert(LruList::Inactive, 1, 0x2000, 1);
        // Tail pop returns the *oldest* insert.
        assert_eq!(lru.pop_inactive().unwrap().addr, 0x1000);
        assert_eq!(lru.pop_inactive().unwrap().addr, 0x2000);
        assert!(lru.pop_inactive().is_none());
    }

    #[test]
    fn deactivate_to_tail_is_next_victim() {
        let mut lru = Lru::new();
        lru.insert(LruList::Inactive, 1, 0x1000, 1);
        lru.deactivate_to_tail(1, 0x9000, 2);
        assert_eq!(lru.pop_inactive().unwrap().addr, 0x9000);
    }

    #[test]
    fn lists_are_independent() {
        let mut lru = Lru::new();
        lru.insert(LruList::Active, 1, 0xa000, 1);
        lru.insert(LruList::Inactive, 1, 0xb000, 1);
        assert_eq!(lru.pop_active().unwrap().addr, 0xa000);
        assert_eq!(lru.pop_inactive().unwrap().addr, 0xb000);
        assert!(lru.is_empty());
    }

    #[test]
    fn clone_keeps_order_and_headroom() {
        let mut lru = Lru::new();
        for i in 0..100 {
            lru.insert(LruList::Inactive, 1, i * 0x1000, 1);
        }
        let mut copy = lru.clone();
        assert!(copy.inactive.capacity() >= lru.inactive.capacity());
        assert_eq!(copy.inactive, lru.inactive);
        assert_eq!(copy.pop_inactive(), lru.pop_inactive());
    }

    #[test]
    fn clear_empties() {
        let mut lru = Lru::new();
        lru.insert(LruList::Active, 1, 0, 0);
        lru.clear();
        assert!(lru.is_empty());
    }
}
