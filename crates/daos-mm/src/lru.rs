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
//! An entry is 12 bytes: the page packed as in an rmap entry, and its
//! generation. A [`frozen`](Lru::freeze) LRU — a fleet's shard image,
//! which many shards copy — keeps each list's entries in one read-only
//! shared base. A copy shares the base, consumes it from the tail by
//! index, and queues its own pushes in deques of its own around it, so
//! copying a list of 131,072 entries costs a reference count, not
//! 1.5 MiB.
//!
//! Entries come and go a run at a time: a fault round queues its pages
//! with one run insert (exactly one `insert` each), and reclaim reads the
//! tail run — the entries at a list's tail that share a (process, 2 MiB
//! chunk), a frozen base in place — and then drops as many of it as it
//! judged. Each part of a list is stored back first, next victim at index
//! 0, so a run pushed on the front is one `extend`, and a deque that
//! empties starts over at the front of its buffer.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::addr::PAGES_PER_HUGE;
use crate::frame::{pack_page, unpack_page};
use crate::process::Pid;

/// Which list a queued entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LruList {
    /// Recently-referenced pages; scanned only under sustained pressure.
    Active,
    /// Reclaim candidates; evicted from the tail.
    Inactive,
}

/// A queued page reference, 12 bytes: the page word of an rmap entry
/// ([`crate::frame::FrameMeta`]) in two halves, so that it aligns to 4,
/// and a generation stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LruEntry {
    word: [u32; 2],
    gen: u32,
}

impl LruEntry {
    #[inline]
    pub(crate) fn new(pid: Pid, addr: u64, gen: u32) -> Self {
        let word = pack_page(pid, addr);
        Self { word: [word as u32, (word >> 32) as u32], gen }
    }

    #[inline]
    fn word(self) -> u64 {
        self.word[0] as u64 | (self.word[1] as u64) << 32
    }

    #[inline]
    fn page(self) -> (Pid, u64) {
        unpack_page(self.word())
    }

    /// The (process, aligned 2 MiB chunk) the page is in, as one word:
    /// two entries share a chunk exactly when their keys are equal.
    #[inline]
    pub(crate) fn chunk_key(self) -> u64 {
        self.word() >> PAGES_PER_HUGE.trailing_zeros()
    }

    /// Owning process.
    #[inline]
    pub fn pid(self) -> Pid {
        self.page().0
    }

    /// Page-aligned virtual address.
    #[inline]
    pub fn addr(self) -> u64 {
        self.page().1
    }

    /// Generation stamp; must match the PTE's `lru_gen` to be live.
    #[inline]
    pub fn gen(self) -> u32 {
        self.gen
    }
}

/// One list, front (newest) to back (next victim): `head`, then the
/// shared base's entries not yet consumed, then `tail`. Each part is
/// stored back first — its next victim at index 0 — so that a run pushed
/// on the front is one `extend` and the back is consumed from index 0 up
/// (the base by index, `base_at`). Never frozen, the base is empty and
/// `head` is the whole list.
#[derive(Debug, Clone, Default)]
struct Queue {
    head: VecDeque<LruEntry>,
    base: Arc<VecDeque<LruEntry>>,
    base_at: usize,
    tail: VecDeque<LruEntry>,
}

impl Queue {
    #[inline]
    fn push_back(&mut self, e: LruEntry) {
        if self.base_at == self.base.len() && self.tail.is_empty() {
            self.head.push_front(e);
        } else {
            self.tail.push_front(e);
        }
    }

    /// `entries` pushed on the front one after the other: the last is
    /// the new front.
    #[inline]
    fn push_front_run(&mut self, entries: impl ExactSizeIterator<Item = LruEntry>) {
        self.head.extend(entries);
    }

    /// The part the back entry is in — `tail`, else what is left of the
    /// base, else `head` — back first.
    #[inline]
    fn back_part(&self) -> std::collections::vec_deque::Iter<'_, LruEntry> {
        if !self.tail.is_empty() {
            self.tail.iter()
        } else if self.base_at < self.base.len() {
            self.base.range(self.base_at..)
        } else {
            self.head.iter()
        }
    }

    /// The back run, next pop first: the entries at the back of the back
    /// part that share the back entry's chunk. A shared base is read in
    /// place.
    #[inline]
    fn back_run(&self) -> impl Iterator<Item = LruEntry> + Clone + '_ {
        let part = self.back_part();
        let key = part.clone().next().map(|e| e.chunk_key());
        part.copied().take_while(move |e| Some(e.chunk_key()) == key)
    }

    /// Drop `n` entries off the back — at most the back run: what `n`
    /// [`Self::pop_back`]s would take, with a shared base consumed by
    /// index. A deque emptied starts over at the front of its buffer, so
    /// a list that reclaim keeps emptying — the inactive list under
    /// pressure — writes the same few cache lines, not a path through
    /// the whole buffer its longest moment left it.
    #[inline]
    fn drop_back(&mut self, n: usize) {
        let part = if !self.tail.is_empty() {
            &mut self.tail
        } else if self.base_at < self.base.len() {
            self.base_at += n;
            return;
        } else {
            &mut self.head
        };
        if n == part.len() {
            part.clear();
        } else {
            part.drain(..n);
        }
    }

    #[inline]
    fn pop_back(&mut self) -> Option<LruEntry> {
        let e = self.back_part().next().copied();
        self.drop_back(e.is_some() as usize);
        e
    }

    /// Front to back.
    fn iter(&self) -> impl Iterator<Item = &LruEntry> {
        let base = self.base.range(self.base_at..).rev();
        self.head.iter().rev().chain(base).chain(self.tail.iter().rev())
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn len(&self) -> usize {
        self.head.len() + self.base.len() - self.base_at + self.tail.len()
    }

    /// Move every entry into a new shared base (without copying the
    /// deque of a list that was never frozen), trimmed to its length: it
    /// never grows again.
    fn freeze(&mut self) {
        let base = if self.base_at == self.base.len() && self.tail.is_empty() {
            std::mem::take(&mut self.head)
        } else {
            let rest = self.base.range(self.base_at..).chain(&self.head);
            self.tail.iter().chain(rest).copied().collect()
        };
        let mut base = base;
        base.shrink_to_fit();
        *self = Queue { base: Arc::new(base), ..Queue::default() };
    }

    /// Keep only the entries `keep` accepts, in order, in a plain deque of
    /// this list's own: `head` in place, then what `keep` accepts of a
    /// shared base (let go, not written) and of `tail`, put behind it.
    fn retain(&mut self, mut keep: impl FnMut(&LruEntry) -> bool) {
        let mut head = std::mem::take(&mut self.head);
        head.retain(|e| keep(e));
        let behind = self.tail.iter().chain(self.base.range(self.base_at..));
        for &e in behind.rev().filter(|e| keep(e)) {
            head.push_front(e);
        }
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

    fn queue(&self, list: LruList) -> &Queue {
        match list {
            LruList::Active => &self.active,
            LruList::Inactive => &self.inactive,
        }
    }

    fn queue_mut(&mut self, list: LruList) -> &mut Queue {
        match list {
            LruList::Active => &mut self.active,
            LruList::Inactive => &mut self.inactive,
        }
    }

    /// Record a newly mapped (or re-referenced) page on the given list's
    /// head: the one-entry case of `Self::insert_run`. The caller must
    /// have bumped the PTE's `lru_gen` to `gen`.
    pub fn insert(&mut self, list: LruList, pid: Pid, addr: u64, gen: u32) {
        self.insert_run(list, std::iter::once(LruEntry::new(pid, addr, gen)));
    }

    /// Queue `entries` on the given list's head in order — exactly one
    /// [`Self::insert`] each, so the last is the new head — with one
    /// reservation for the run.
    pub(crate) fn insert_run(
        &mut self,
        list: LruList,
        entries: impl ExactSizeIterator<Item = LruEntry>,
    ) {
        self.queue_mut(list).push_front_run(entries);
    }

    /// The list's tail run, next victim first: the entries at its tail
    /// that share one (process, 2 MiB chunk), so that reclaim resolves
    /// their page table once. A run never spans two of a list's parts (a
    /// copy's own tail, a frozen base, its own head), and is read in place.
    pub(crate) fn tail_run(&self, list: LruList) -> impl Iterator<Item = LruEntry> + Clone + '_ {
        self.queue(list).back_run()
    }

    /// Take the first `n` entries of the list's [`Self::tail_run`] off the
    /// list, as `n` pops would (a frozen base is consumed by index).
    pub(crate) fn drop_tail(&mut self, list: LruList, n: usize) {
        self.queue_mut(list).drop_back(n);
    }

    /// Queue a page at the inactive *tail* — the very next reclaim victim.
    /// Used by DAMOS `COLD`.
    pub fn deactivate_to_tail(&mut self, pid: Pid, addr: u64, gen: u32) {
        self.inactive.push_back(LruEntry::new(pid, addr, gen));
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
        assert_eq!(lru.pop_inactive().unwrap().addr(), 0x1000);
        assert_eq!(lru.pop_inactive().unwrap().addr(), 0x2000);
        assert!(lru.pop_inactive().is_none());
    }

    #[test]
    fn deactivate_to_tail_is_next_victim() {
        let mut lru = Lru::new();
        lru.insert(LruList::Inactive, 1, 0x1000, 1);
        lru.deactivate_to_tail(1, 0x9000, 2);
        assert_eq!(lru.pop_inactive().unwrap().addr(), 0x9000);
    }

    #[test]
    fn lists_are_independent() {
        let mut lru = Lru::new();
        lru.insert(LruList::Active, 1, 0xa000, 1);
        lru.insert(LruList::Inactive, 1, 0xb000, 1);
        assert_eq!(lru.pop_active().unwrap().addr(), 0xa000);
        assert_eq!(lru.pop_inactive().unwrap().addr(), 0xb000);
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
        assert_eq!(copy.pop_inactive().unwrap().addr(), 0);
        copy.insert(LruList::Inactive, 1, 0xf000, 2);
        assert_eq!(lru, owned, "the original did not move");
        assert_ne!(copy, owned);
    }

    #[test]
    fn lru_entry_is_12_bytes() {
        assert_eq!((std::mem::size_of::<LruEntry>(), std::mem::align_of::<LruEntry>()), (12, 4));
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
        /// Push this many entries on the front as one run.
        PushFrontRun(u8),
        /// Read the back run and drop this many of it (at most all).
        DropRun(u8),
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
                    (0u8..6).prop_map(Op::PushFrontRun),
                    (0u8..8).prop_map(Op::DropRun),
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
                // 131 pages apart: about four entries to a chunk.
                let e = LruEntry::new(1, i as u64 * 131 * 0x1000, i as u32);
                match op {
                    Op::PushFront => {
                        queue.push_front_run(std::iter::once(e));
                        oracle.push_front(e);
                    }
                    Op::PushBack => {
                        queue.push_back(e);
                        oracle.push_back(e);
                    }
                    Op::PopBack => prop_assert_eq!(queue.pop_back(), oracle.pop_back()),
                    Op::PushFrontRun(nr) => {
                        // Every third run lands in the chunk the last one did.
                        let run: Vec<LruEntry> = (0..nr as u64)
                            .map(|j| LruEntry::new(1, (i as u64 / 3 * 512 + j) * 0x1000, i as u32))
                            .collect();
                        queue.push_front_run(run.iter().copied());
                        run.iter().for_each(|&e| oracle.push_front(e));
                    }
                    Op::DropRun(nr) => {
                        // The back run is a prefix of what the pops return,
                        // all of one chunk, and never empty on a non-empty
                        // list.
                        let run: Vec<LruEntry> = queue.back_run().collect();
                        let back: Vec<LruEntry> = oracle.iter().rev().take(run.len()).copied().collect();
                        prop_assert_eq!(&run, &back);
                        prop_assert!(run.iter().all(|e| e.chunk_key() == run[0].chunk_key()));
                        prop_assert_eq!(run.is_empty(), oracle.is_empty());
                        let nr = (nr as usize).min(run.len());
                        queue.drop_back(nr);
                        oracle.truncate(oracle.len() - nr);
                    }
                    Op::Freeze => {
                        queue.freeze();
                        prop_assert_eq!(queue.base.capacity(), queue.base.len(), "trimmed");
                        frozen.push((queue.clone(), oracle.iter().copied().collect()));
                    }
                    Op::Retain(seed) => {
                        let keep =
                            |e: &LruEntry| (e.addr() ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 0;
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
