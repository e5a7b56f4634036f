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
//! keeps every operation O(1) amortised without intrusive links. Stale
//! entries are also dropped in bulk: the machine retains only the live
//! ones once the lists outgrow a bound on its resident pages, so they stay
//! in proportion to what is resident.
//!
//! A [`frozen`](Lru::freeze) LRU — a fleet's shard image, which many
//! shards copy — keeps each list's entries in one read-only shared base.
//! A copy shares the base, consumes it from the tail by index, and queues
//! its own pushes in deques of its own around it, so copying a list of
//! 131,072 entries costs a reference count, not 2 MiB.

use std::collections::VecDeque;
use std::sync::Arc;

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

/// One list, front (newest) to back (next victim): `head`, then the
/// shared base's first `base_len` entries, then `tail`. Never frozen, the
/// base is empty and `head` is the whole list — today's plain deque.
#[derive(Debug, Clone, Default)]
struct Queue {
    head: VecDeque<LruEntry>,
    base: Arc<VecDeque<LruEntry>>,
    base_len: usize,
    tail: VecDeque<LruEntry>,
}

impl Queue {
    #[inline]
    fn push_front(&mut self, e: LruEntry) {
        self.head.push_front(e);
    }

    #[inline]
    fn push_back(&mut self, e: LruEntry) {
        if self.base_len == 0 && self.tail.is_empty() {
            self.head.push_back(e);
        } else {
            self.tail.push_back(e);
        }
    }

    #[inline]
    fn pop_back(&mut self) -> Option<LruEntry> {
        if let Some(e) = self.tail.pop_back() {
            return Some(e);
        }
        if self.base_len > 0 {
            self.base_len -= 1;
            return Some(self.base[self.base_len]);
        }
        self.head.pop_back()
    }

    fn iter(&self) -> impl Iterator<Item = &LruEntry> {
        self.head.iter().chain(self.base.range(..self.base_len)).chain(&self.tail)
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn len(&self) -> usize {
        self.head.len() + self.base_len + self.tail.len()
    }

    /// Move every entry into a new shared base (without copying the
    /// deque of a list that was never frozen), trimmed to its length: it
    /// never grows again.
    fn freeze(&mut self) {
        let mut base = std::mem::take(&mut self.head);
        if self.base_len > 0 || !self.tail.is_empty() {
            base.extend(self.iter());
        }
        base.shrink_to_fit();
        *self = Queue { base_len: base.len(), base: Arc::new(base), ..Queue::default() };
    }

    /// Keep only the entries `keep` accepts, in order, in a plain deque of
    /// this list's own: `head` in place, then what `keep` accepts of a
    /// shared base (let go, not written) and of `tail`.
    fn retain(&mut self, mut keep: impl FnMut(&LruEntry) -> bool) {
        let mut head = std::mem::take(&mut self.head);
        head.retain(|e| keep(e));
        head.extend(self.iter().filter(|e| keep(e)));
        *self = Queue { head, ..Queue::default() };
    }
}

/// The two-list LRU. Two LRUs are equal when their lists hold the same
/// entries in the same order, frozen or not.
#[derive(Debug, Clone, Default)]
pub struct Lru {
    active: Queue,
    inactive: Queue,
}

impl PartialEq for Lru {
    fn eq(&self, other: &Self) -> bool {
        self.active.iter().eq(other.active.iter()) && self.inactive.iter().eq(other.inactive.iter())
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

    /// Entries queued on both lists, live or stale.
    pub(crate) fn len(&self) -> usize {
        self.active.len() + self.inactive.len()
    }

    /// Keep only the entries `keep` accepts, each list in its order. A
    /// list that shares a frozen base gets a deque of its own.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&LruEntry) -> bool) {
        self.active.retain(&mut keep);
        self.inactive.retain(&mut keep);
    }

    /// Every queued entry, live or stale, with its list.
    pub fn entries(&self) -> impl Iterator<Item = (LruList, LruEntry)> + '_ {
        let active = self.active.iter().map(|e| (LruList::Active, *e));
        active.chain(self.inactive.iter().map(|e| (LruList::Inactive, *e)))
    }

    /// Move both lists into shared bases, so that copies of this LRU
    /// share them instead of copying them.
    pub fn freeze(&mut self) {
        self.active.freeze();
        self.inactive.freeze();
    }

    /// Whether a list holds a shared base (this LRU, or what it was
    /// copied from, was frozen).
    pub fn is_shared(&self) -> bool {
        !self.active.base.is_empty() || !self.inactive.base.is_empty()
    }

    /// Drop all queued entries (e.g. after process teardown in tests).
    pub fn clear(&mut self) {
        self.active = Queue::default();
        self.inactive = Queue::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_util::prop::{vec_of, Just, StrategyExt};
    use daos_util::{one_of, prop_assert, prop_assert_eq, proptest};

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

    /// A copy of a frozen LRU consumes the shared base without touching
    /// the original, and equality sees through the layout.
    #[test]
    fn a_frozen_copy_shares_and_leaves_the_original_alone() {
        let mut lru = Lru::new();
        for i in 0..100 {
            lru.insert(LruList::Inactive, 1, i * 0x1000, 1);
        }
        let owned = lru.clone();
        lru.freeze();
        assert!(lru.is_shared() && !owned.is_shared());
        assert_eq!(lru, owned);
        let mut copy = lru.clone();
        assert!(Arc::ptr_eq(&copy.inactive.base, &lru.inactive.base), "shared, not copied");
        assert_eq!(copy.pop_inactive().unwrap().addr, 0);
        copy.insert(LruList::Inactive, 1, 0xf000, 2);
        assert_eq!(lru, owned, "the original did not move");
        assert_ne!(copy, owned);
    }

    #[test]
    fn clear_empties() {
        let mut lru = Lru::new();
        lru.insert(LruList::Active, 1, 0, 0);
        lru.freeze();
        lru.clear();
        assert!(lru.is_empty() && !lru.is_shared());
    }

    #[derive(Debug, Clone)]
    enum Op {
        PushFront,
        PushBack,
        PopBack,
        /// Freeze the list and go on with a copy of it.
        Freeze,
        /// Keep the entries whose address hashes, under the seed, to an
        /// even number.
        Retain(u64),
    }

    proptest! {
        cases = 256;

        // One list against a `VecDeque` oracle: whatever the pushes, pops,
        // freezes and retains, every pop answers what the oracle's does and
        // the list reads front to back as the oracle; a frozen list is left
        // exactly as it was frozen by everything its copy does, a retain
        // included, and holds no more room than entries.
        fn queue_matches_a_deque_across_freezes(
            ops in vec_of(
                one_of![
                    Just(Op::PushFront),
                    Just(Op::PushBack),
                    Just(Op::PopBack),
                    Just(Op::Freeze),
                    (0u64..u64::MAX).prop_map(Op::Retain),
                ],
                0..200,
            ),
        ) {
            let mut queue = Queue::default();
            let mut oracle = VecDeque::new();
            let mut frozen: Vec<(Queue, Vec<LruEntry>)> = Vec::new();
            for (i, op) in ops.into_iter().enumerate() {
                let e = LruEntry { pid: 1, addr: i as u64 * 0x1000, gen: i as u32 };
                match op {
                    Op::PushFront => {
                        queue.push_front(e);
                        oracle.push_front(e);
                    }
                    Op::PushBack => {
                        queue.push_back(e);
                        oracle.push_back(e);
                    }
                    Op::PopBack => prop_assert_eq!(queue.pop_back(), oracle.pop_back()),
                    Op::Freeze => {
                        queue.freeze();
                        prop_assert_eq!(queue.base.capacity(), queue.base.len(), "trimmed");
                        frozen.push((queue.clone(), oracle.iter().copied().collect()));
                    }
                    Op::Retain(seed) => {
                        let keep =
                            |e: &LruEntry| (e.addr ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0;
                        queue.retain(keep);
                        oracle.retain(keep);
                    }
                }
                prop_assert!(queue.iter().eq(oracle.iter()), "after op {i}");
                prop_assert_eq!(queue.is_empty(), oracle.is_empty());
                prop_assert_eq!(queue.len(), oracle.len());
            }
            for (image, entries) in frozen {
                prop_assert!(image.iter().eq(entries.iter()), "a frozen list moved");
            }
        }
    }
}
