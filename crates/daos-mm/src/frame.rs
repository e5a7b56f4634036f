//! Physical page-frame allocator.
//!
//! Frames are fixed 4 KiB units identified by a dense `FrameId`. The
//! allocator also stores the reverse-mapping metadata (`rmap`): which
//! `(process, virtual address)` currently owns each frame. That is exactly
//! the information the paper's physical-address monitoring primitive needs
//! ("uses the mappings from physical address to virtual addresses (rmap)
//! instead of struct vma", §3.1). An entry is 8 bytes, the pid packed
//! above the page number: pids stay below [`PID_LIMIT`] and mappings
//! below [`USER_ADDR_END`], x86-64's 47-bit line.
//!
//! Metadata is held in lazily materialised slabs of [`SLAB_FRAMES`]
//! entries. A machine with 128 GiB of DRAM has ~33 M frames; eagerly
//! building a `Vec<FrameMeta>` (plus a full free list) for all of them
//! made `FrameAllocator::new` the dominant cost of constructing a
//! simulated machine. Frames are instead handed out from a watermark
//! (`next_fresh`) in ascending order — identical to the old free-list
//! order — and a slab's metadata exists only once a frame in it has been
//! allocated at least once. Freed frames go to a LIFO recycle list and
//! are preferred over fresh ones, preserving the kernel-like reuse
//! behaviour the old allocator had.
//!
//! Frames come and go a run at a time — a fault run's pages
//! ([`FrameAllocator::alloc_run`]), a reclaim run's victims
//! ([`FrameAllocator::free_run`]) — in exactly the order one call per
//! frame would take them; [`FrameAllocator::alloc`] and
//! [`FrameAllocator::free`] are the one-frame cases.
//!
//! A [`frozen`](FrameAllocator::freeze) allocator — a fleet's shard
//! image — turns its slabs into shared read-only blocks: a copy shares
//! them and copies a slab into a block of its own only on its first
//! write to that slab (a shard of the default fleet writes 2 of 32).

use std::sync::Arc;

use crate::addr::{PAGE_SHIFT, PAGE_SIZE, USER_ADDR_END};
use crate::error::AuditError;
use crate::process::{Pid, PID_LIMIT};

/// Identifier of a physical page frame (dense, 0-based).
pub type FrameId = u32;

/// Frames of metadata per lazily-allocated slab (16 MiB of DRAM each).
pub const SLAB_FRAMES: usize = 4096;

/// Bits of a packed page word below its pid: the page number of an
/// address under [`USER_ADDR_END`].
const PAGE_NR_BITS: u32 = USER_ADDR_END.trailing_zeros() - PAGE_SHIFT;

/// A page `(pid, page-aligned address)` as one word, the pid above the
/// page number. With the pid under [`PID_LIMIT`] it is never all ones.
#[inline]
pub(crate) fn pack_page(pid: Pid, addr: u64) -> u64 {
    debug_assert!(pid < PID_LIMIT && addr < USER_ADDR_END && addr % PAGE_SIZE == 0);
    (pid as u64) << PAGE_NR_BITS | addr >> PAGE_SHIFT
}

/// The page a [`pack_page`] word names.
#[inline]
pub(crate) fn unpack_page(word: u64) -> (Pid, u64) {
    ((word >> PAGE_NR_BITS) as Pid, (word & ((1 << PAGE_NR_BITS) - 1)) << PAGE_SHIFT)
}

/// Per-frame metadata: the rmap entry, 8 bytes — the owning pid packed
/// above the page number, all ones for a free frame rather than an
/// `Option` tag. (Whether the CPU used the page since it was mapped is a bit of
/// the mapping's PTE — see [`crate::vma::Pte::touched`] — not of the
/// frame.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta(u64);

impl FrameMeta {
    const FREE: FrameMeta = FrameMeta(u64::MAX);

    /// Owning `(process, page-aligned virtual address)` when mapped.
    #[inline]
    pub fn owner(self) -> Option<(Pid, u64)> {
        (self != Self::FREE).then(|| unpack_page(self.0))
    }
}

/// One slab's metadata: a block of the allocator's own, a frozen
/// image's shared block, or neither while no frame in it was ever handed
/// out (every frame then reads [`FrameMeta::FREE`]). Never both.
#[derive(Debug, Clone, Default)]
struct Slab {
    own: Option<Box<[FrameMeta]>>,
    shared: Option<Arc<Box<[FrameMeta]>>>,
}

impl Slab {
    #[inline]
    fn metas(&self) -> Option<&[FrameMeta]> {
        self.own.as_deref().or(self.shared.as_deref().map(|b| &b[..]))
    }
}

/// A slab's first write: its own block — the shared one if nothing else
/// holds it any more, a copy of it if something does, and materialised
/// all-FREE if there is none. Out of line, so the write path keeps a
/// small frame.
#[cold]
#[inline(never)]
fn first_write(shared: Option<Arc<Box<[FrameMeta]>>>) -> Box<[FrameMeta]> {
    match shared {
        Some(block) => Arc::unwrap_or_clone(block),
        None => vec![FrameMeta::FREE; SLAB_FRAMES].into_boxed_slice(),
    }
}

/// A dense allocator over a fixed number of physical frames, with
/// slab-lazy metadata. Two allocators are equal when they hand out the
/// same frames next and every frame has the same owner, however their
/// slabs are held.
#[derive(Debug)]
pub struct FrameAllocator {
    capacity: usize,
    /// Lazily materialised metadata slabs of [`SLAB_FRAMES`] frames each.
    slabs: Vec<Slab>,
    /// LIFO recycle list of freed frames, preferred over fresh ones.
    free: Vec<FrameId>,
    /// Next never-allocated frame; all frames `>= next_fresh` outside
    /// `free` are virgin and implicitly [`FrameMeta::FREE`].
    next_fresh: FrameId,
}

/// A copy keeps the recycle list's capacity (a derived clone is exactly
/// full and would regrow on the first `free`).
impl Clone for FrameAllocator {
    fn clone(&self) -> Self {
        let mut free = Vec::with_capacity(self.free.capacity());
        free.extend_from_slice(&self.free);
        Self {
            capacity: self.capacity,
            slabs: self.slabs.clone(),
            free,
            next_fresh: self.next_fresh,
        }
    }
}

impl FrameAllocator {
    /// Build an allocator managing `capacity_bytes` of physical memory.
    /// O(capacity / SLAB_FRAMES), not O(capacity).
    pub fn new(capacity_bytes: u64) -> Self {
        let nr = (capacity_bytes / PAGE_SIZE) as usize;
        Self {
            capacity: nr,
            slabs: vec![Slab::default(); nr.div_ceil(SLAB_FRAMES)],
            free: Vec::new(),
            next_fresh: 0,
        }
    }

    /// Total number of frames.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently free frames.
    #[inline]
    pub fn nr_free(&self) -> usize {
        self.capacity - self.next_fresh as usize + self.free.len()
    }

    /// Number of currently allocated frames.
    #[inline]
    pub fn nr_used(&self) -> usize {
        self.capacity() - self.nr_free()
    }

    /// Bytes of physical memory in use.
    #[inline]
    pub fn used_bytes(&self) -> u64 {
        self.nr_used() as u64 * PAGE_SIZE
    }

    /// Metadata slot for `id`, giving its slab a block of its own on
    /// the first write.
    #[inline]
    fn meta_mut(&mut self, id: FrameId) -> &mut FrameMeta {
        let Slab { own, shared } = &mut self.slabs[id as usize / SLAB_FRAMES];
        let own = own.get_or_insert_with(|| first_write(shared.take()));
        &mut own[id as usize % SLAB_FRAMES]
    }

    /// Metadata for `id` without materialising (virgin slabs read FREE).
    #[inline]
    fn meta(&self, id: FrameId) -> FrameMeta {
        match self.slabs.get(id as usize / SLAB_FRAMES).and_then(Slab::metas) {
            Some(metas) => metas[id as usize % SLAB_FRAMES],
            None => FrameMeta::FREE,
        }
    }

    /// Turn every slab's own block into a shared one, so that copies of
    /// this allocator share the metadata until they write it.
    pub fn freeze(&mut self) {
        for slab in &mut self.slabs {
            if let Some(own) = slab.own.take() {
                slab.shared = Some(Arc::new(own));
            }
        }
    }

    /// Whether any slab is still a shared block.
    pub fn is_shared(&self) -> bool {
        self.slabs.iter().any(|s| s.shared.is_some())
    }

    /// Allocate one frame for `(pid, vaddr)`: the one-page case of
    /// [`Self::alloc_run`]. Returns `None` when DRAM is exhausted — the
    /// caller is expected to reclaim and retry.
    #[inline]
    pub fn alloc(&mut self, pid: Pid, vaddr: u64) -> Option<FrameId> {
        let mut frame = [0];
        (self.alloc_run(pid, &[vaddr], &mut frame) == 1).then_some(frame[0])
    }

    /// Allocate frames for the pages `addrs` of `pid`, in order, while any
    /// are free: writes them to the front of `frames` and returns how many.
    /// They are exactly the frames one [`Self::alloc`] per page would hand
    /// out — recycled frames first, LIFO, then fresh ones in ascending
    /// order — so a run of faults and a loop of single ones map the same
    /// pages to the same frames.
    #[inline]
    pub fn alloc_run(&mut self, pid: Pid, addrs: &[u64], frames: &mut [FrameId]) -> usize {
        let nr = addrs.len().min(self.nr_free());
        for (frame, &addr) in frames[..nr].iter_mut().zip(addrs) {
            let id = self.free.pop().unwrap_or_else(|| {
                self.next_fresh += 1;
                self.next_fresh - 1
            });
            *self.meta_mut(id) = FrameMeta(pack_page(pid, addr));
            *frame = id;
        }
        nr
    }

    /// Release a frame back to the free pool: the one-frame case of
    /// [`Self::free_run`].
    #[inline]
    pub fn free(&mut self, id: FrameId) {
        self.free_run(&[id]);
    }

    /// Release `ids` back to the free pool, in order: what one
    /// [`Self::free`] per frame does, so the next allocations reuse the
    /// last of them first.
    ///
    /// # Panics
    /// Panics (in debug builds) if a frame is already free — that would
    /// be a double-free bug in the substrate.
    #[inline]
    pub fn free_run(&mut self, ids: &[FrameId]) {
        for &id in ids {
            debug_assert!(self.meta(id).owner().is_some(), "double free of frame {id}");
            *self.meta_mut(id) = FrameMeta::FREE;
            self.free.push(id);
        }
    }

    /// The rmap lookup: owner of a frame, if mapped.
    #[inline]
    pub fn owner(&self, id: FrameId) -> Option<(Pid, u64)> {
        self.meta(id).owner()
    }

    /// Recount the allocator's own books (for [`crate::MemorySystem::audit`]):
    /// no frame is on the recycle list twice, every frame on it — and
    /// every frame never handed out — is unowned, and the owned frames are
    /// exactly [`Self::nr_used`]. An owned frame is then never a free one.
    pub fn audit(&self) -> Result<(), AuditError> {
        let mut free = self.free.clone();
        free.sort_unstable();
        if let Some(w) = free.windows(2).find(|w| w[0] == w[1]) {
            return Err(AuditError::FreeTwice { frame: w[0] });
        }
        if let Some(&frame) = free.iter().find(|id| self.owner(**id).is_some()) {
            return Err(AuditError::FreeOwned { frame, owner: self.owner(frame) });
        }
        let mut owned = 0;
        for (i, slab) in self.slabs.iter().enumerate() {
            // Only a materialised slab can hold an owner.
            let Some(slab) = slab.metas() else { continue };
            for (j, _) in slab.iter().enumerate().filter(|(_, m)| m.owner().is_some()) {
                let frame = (i * SLAB_FRAMES + j) as FrameId;
                if frame >= self.next_fresh {
                    return Err(AuditError::VirginOwned { frame });
                }
                owned += 1;
            }
        }
        if owned != self.nr_used() {
            return Err(AuditError::OwnedFrames { owned, used: self.nr_used() });
        }
        Ok(())
    }

    /// Iterate over `(frame, meta)` of all frames; the physical-address
    /// monitoring primitive walks this. Virgin slabs yield FREE metadata.
    pub fn iter(&self) -> impl Iterator<Item = (FrameId, FrameMeta)> + '_ {
        (0..self.capacity as FrameId).map(|id| (id, self.meta(id)))
    }
}

impl PartialEq for FrameAllocator {
    fn eq(&self, other: &Self) -> bool {
        // Frames at and above `next_fresh` were never handed out: FREE.
        self.capacity == other.capacity
            && self.next_fresh == other.next_fresh
            && self.free == other.free
            && (0..self.next_fresh).all(|id| self.meta(id) == other.meta(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruEntry;
    use crate::process::{MMAP_BASE, STACK_BASE};
    use daos_util::prop::{any_bool, select, vec_of, StrategyExt, TestCaseResult};
    use daos_util::{one_of, prop_assert, prop_assert_eq, proptest};

    #[test]
    fn alloc_free_roundtrip() {
        let mut fa = FrameAllocator::new(16 * PAGE_SIZE);
        assert_eq!(fa.capacity(), 16);
        assert_eq!(fa.nr_free(), 16);
        let f = fa.alloc(1, 0x1000).unwrap();
        assert_eq!(fa.nr_used(), 1);
        assert_eq!(fa.owner(f), Some((1, 0x1000)));
        fa.free(f);
        assert_eq!(fa.nr_free(), 16);
        assert_eq!(fa.owner(f), None);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut fa = FrameAllocator::new(2 * PAGE_SIZE);
        assert!(fa.alloc(1, 0).is_some());
        assert!(fa.alloc(1, PAGE_SIZE).is_some());
        assert!(fa.alloc(1, 2 * PAGE_SIZE).is_none());
    }

    #[test]
    fn fresh_frames_are_handed_out_in_order() {
        let mut fa = FrameAllocator::new(4 * PAGE_SIZE);
        let ids: Vec<FrameId> = (0..4).map(|i| fa.alloc(1, i * PAGE_SIZE).unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "fresh allocation order is dense ascending");
    }

    #[test]
    fn freed_frame_is_reused_lifo() {
        let mut fa = FrameAllocator::new(4 * PAGE_SIZE);
        let a = fa.alloc(1, 0).unwrap();
        let _b = fa.alloc(1, PAGE_SIZE).unwrap();
        fa.free(a);
        let c = fa.alloc(2, 0x9000).unwrap();
        assert_eq!(c, a, "LIFO reuse of the freshest frame");
        assert_eq!(fa.owner(c), Some((2, 0x9000)));
    }

    proptest! {
        cases = 256;

        // A run alloc hands out what one `alloc` per page would, a run
        // free takes back what one `free` per frame would: the same frames
        // in the same order, recycled ones LIFO before fresh ones, the run
        // cut short where DRAM runs out, and the same owners after.
        fn runs_match_one_call_per_frame(
            ops in vec_of((any_bool(), 0usize..40, 0u64..u64::MAX), 1..40),
        ) {
            let mut by_run = FrameAllocator::new(64 * PAGE_SIZE);
            let mut by_one = by_run.clone();
            let mut held: Vec<FrameId> = Vec::new();
            for (i, &(alloc, nr, seed)) in ops.iter().enumerate() {
                if alloc {
                    let addrs: Vec<u64> = (0..nr as u64).map(|p| (i as u64 * 64 + p) * PAGE_SIZE).collect();
                    let mut frames = vec![0; nr];
                    let got = by_run.alloc_run(3, &addrs, &mut frames);
                    let want: Vec<FrameId> = addrs.iter().map_while(|&a| by_one.alloc(3, a)).collect();
                    prop_assert_eq!(&frames[..got], &want[..], "op {i}");
                    held.extend(want);
                } else {
                    // Free `nr` held frames picked by the seed, in its order.
                    let mut picked = Vec::new();
                    for j in 0..nr.min(held.len()) {
                        let at = (seed.rotate_left(j as u32 * 7) % held.len() as u64) as usize;
                        picked.push(held.swap_remove(at));
                    }
                    by_run.free_run(&picked);
                    picked.iter().for_each(|&f| by_one.free(f));
                }
                prop_assert!(by_run == by_one, "after op {i}");
                prop_assert_eq!(by_run.audit(), Ok(()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_panics() {
        let mut fa = FrameAllocator::new(PAGE_SIZE);
        let f = fa.alloc(1, 0).unwrap();
        fa.free(f);
        fa.free(f);
    }

    #[test]
    fn frame_meta_is_8_bytes() {
        assert_eq!(std::mem::size_of::<FrameMeta>(), 8);
    }

    /// The edges of what a page word holds: the smallest and largest pid,
    /// and the heap's base, the stack's and the last user page.
    const PIDS: [Pid; 2] = [0, PID_LIMIT - 1];
    const ADDRS: [u64; 3] = [MMAP_BASE, STACK_BASE, USER_ADDR_END - PAGE_SIZE];

    /// `(pid, addr)` reads back the same from an rmap entry and an LRU
    /// entry, and its rmap entry is not the free marker.
    fn round_trips(pid: Pid, addr: u64) -> TestCaseResult {
        let meta = FrameMeta(pack_page(pid, addr));
        prop_assert!(meta != FrameMeta::FREE, "pid {pid} page {addr:#x} packs to FREE");
        prop_assert_eq!(meta.owner(), Some((pid, addr)));
        let e = LruEntry::new(pid, addr, u32::MAX);
        prop_assert_eq!((e.pid(), e.addr(), e.gen()), (pid, addr, u32::MAX));
        Ok(())
    }

    #[test]
    fn the_edges_round_trip() {
        for (pid, addr) in PIDS.into_iter().flat_map(|pid| ADDRS.map(|addr| (pid, addr))) {
            round_trips(pid, addr).unwrap();
        }
    }

    proptest! {
        cases = 256;

        fn a_page_round_trips_through_both_entries(
            pid in one_of![select(PIDS.to_vec()), 0..PID_LIMIT],
            addr in one_of![
                select(ADDRS.to_vec()),
                (0..USER_ADDR_END / PAGE_SIZE).prop_map(|page| page * PAGE_SIZE),
            ],
        ) {
            round_trips(pid, addr)?;
        }
    }

    #[test]
    fn construction_is_slab_lazy() {
        // 1 GiB of frames: only slab pointers, no metadata yet.
        let fa = FrameAllocator::new(1 << 30);
        assert!(fa.slabs.iter().all(|s| s.metas().is_none()));
        assert_eq!(fa.nr_free(), fa.capacity());
        // Reads of virgin frames see FREE metadata without materialising.
        assert_eq!(fa.owner(123_456), None);
    }

    /// A copy of a frozen allocator shares every slab until it writes
    /// one, then owns that one slab; the original never moves.
    #[test]
    fn a_frozen_copy_copies_a_slab_on_its_first_write() {
        let mut fa = FrameAllocator::new(SLAB_FRAMES as u64 * 2 * PAGE_SIZE);
        let ids: Vec<FrameId> =
            (0..SLAB_FRAMES as u64 + 2).map(|i| fa.alloc(1, i * PAGE_SIZE).unwrap()).collect();
        let owned = fa.clone();
        fa.freeze();
        assert!(fa.is_shared() && !owned.is_shared());
        assert_eq!(fa, owned);
        let mut copy = fa.clone();
        copy.free(ids[SLAB_FRAMES]);
        assert!(copy.slabs[0].shared.is_some() && copy.slabs[1].own.is_some());
        assert_eq!(copy.owner(ids[SLAB_FRAMES]), None);
        let neighbour = (1, (SLAB_FRAMES as u64 + 1) * PAGE_SIZE);
        assert_eq!(copy.owner(ids[SLAB_FRAMES + 1]), Some(neighbour), "copied, not cleared");
        assert_eq!(copy.owner(ids[0]), Some((1, 0)), "the untouched slab reads through");
        assert_eq!(fa, owned, "the frozen original did not move");
        assert_ne!(copy, owned);
        assert_eq!(copy.audit(), Ok(()));
    }

    #[test]
    fn iter_covers_virgin_and_used_frames() {
        let mut fa = FrameAllocator::new(SLAB_FRAMES as u64 * 2 * PAGE_SIZE);
        let f = fa.alloc(7, 0x4000).unwrap();
        let mapped: Vec<FrameId> =
            fa.iter().filter(|(_, m)| m.owner().is_some()).map(|(id, _)| id).collect();
        assert_eq!(mapped, vec![f]);
        assert_eq!(fa.iter().count(), fa.capacity());
    }
}
