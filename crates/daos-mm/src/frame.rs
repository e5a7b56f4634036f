//! Physical page-frame allocator.
//!
//! Frames are fixed 4 KiB units identified by a dense `FrameId`. The
//! allocator also stores the reverse-mapping metadata (`rmap`): which
//! `(process, virtual address)` currently owns each frame. That is exactly
//! the information the paper's physical-address monitoring primitive needs
//! ("uses the mappings from physical address to virtual addresses (rmap)
//! instead of struct vma", §3.1).
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
//! A [`frozen`](FrameAllocator::freeze) allocator — a fleet's shard
//! image — turns its slabs into shared read-only blocks: a copy shares
//! them and copies a slab into a block of its own only on its first
//! write to that slab (a shard of the default fleet writes 2 of 32).

use std::sync::Arc;

use crate::addr::PAGE_SIZE;
use crate::error::AuditError;
use crate::process::Pid;

/// Identifier of a physical page frame (dense, 0-based).
pub type FrameId = u32;

/// Frames of metadata per lazily-allocated slab (16 MiB of DRAM each).
pub const SLAB_FRAMES: usize = 4096;

/// Per-frame metadata: the rmap entry, 16 bytes — the owning process and
/// page-aligned virtual address, with [`Pid::MAX`] for a free frame
/// rather than an `Option` tag. (Whether the CPU used the page since it
/// was mapped is a bit of the mapping's PTE — see
/// [`crate::vma::Pte::touched`] — not of the frame.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    pid: Pid,
    addr: u64,
}

impl FrameMeta {
    const FREE: FrameMeta = FrameMeta { pid: Pid::MAX, addr: 0 };

    /// Owning `(process, page-aligned virtual address)` when mapped.
    #[inline]
    pub fn owner(self) -> Option<(Pid, u64)> {
        (self.pid != Pid::MAX).then_some((self.pid, self.addr))
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

    /// Allocate one frame for `(pid, vaddr)`. Returns `None` when DRAM is
    /// exhausted — the caller is expected to reclaim and retry. Recycled
    /// frames are reused LIFO before fresh ones are broken in ascending
    /// order.
    #[inline]
    pub fn alloc(&mut self, pid: Pid, vaddr: u64) -> Option<FrameId> {
        debug_assert_ne!(pid, Pid::MAX, "pid {pid} marks a free frame");
        let id = match self.free.pop() {
            Some(id) => id,
            None if (self.next_fresh as usize) < self.capacity => {
                let id = self.next_fresh;
                self.next_fresh += 1;
                id
            }
            None => return None,
        };
        *self.meta_mut(id) = FrameMeta { pid, addr: vaddr };
        Some(id)
    }

    /// Release a frame back to the free pool.
    ///
    /// # Panics
    /// Panics (in debug builds) if the frame is already free — that would
    /// be a double-free bug in the substrate.
    #[inline]
    pub fn free(&mut self, id: FrameId) {
        debug_assert!(self.meta(id).owner().is_some(), "double free of frame {id}");
        *self.meta_mut(id) = FrameMeta::FREE;
        self.free.push(id);
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
    fn frame_meta_is_16_bytes() {
        assert_eq!(std::mem::size_of::<FrameMeta>(), 16);
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
