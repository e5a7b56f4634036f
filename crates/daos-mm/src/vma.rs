//! Virtual memory areas and page-table entries.
//!
//! Each process owns a sorted set of [`Vma`]s. A VMA stores the state of
//! each 4 KiB page — read and written as a [`Pte`] — plus per-2 MiB-chunk
//! THP state. The PTE `accessed` bit is the hardware feature the paper's
//! monitoring primitives read and clear (§3.1: "accessed bits in page
//! table entries").
//!
//! ## Sparse page table
//!
//! PTEs live in a two-level table: 2 MiB chunks of 512 pages, aligned
//! to *absolute* 2 MiB boundaries (so a page-table chunk coincides with
//! the THP chunk covering the same addresses), materialised only when a
//! page in the chunk first leaves the `None` state. A fresh VMA costs
//! O(chunks) pointers instead of O(pages) PTEs, which is what lets
//! 10⁶–10⁸-page address spaces exist without a dense `Vec<Pte>` per VMA.
//!
//! The page table is its own count: how many pages of a range, a chunk or
//! the whole VMA are resident or swapped is a masked popcount of the
//! bitmaps, taken when asked for ([`Vma::nr_resident_in`]). Those counts,
//! the scans for resident or swapped pages ([`Vma::collect_resident_in`],
//! [`Vma::collect_swapped_in`]) and a scheme's pageout ([`Vma::pageout_in`])
//! skip missing chunks and, inside a chunk, every 64-page word with no bit
//! set, so paging out an already-evicted region is O(words touched), not
//! O(pages in range). The huge flags sit on the same chunk grid, one per
//! slot.
//!
//! ## State transitions
//!
//! Every library path — fault, reclaim, a scheme's pageout, LRU, THP
//! promotion and demotion — changes a page's state through five
//! primitives, each one resolve of the chunk (a range's worth for
//! `pageout_in`), bit operations on the four bitmaps and writes to
//! `backing`/`lru_gen`:
//!
//! * [`Vma::map_run`] — `None | Swapped → Resident(frame)` for a run of
//!   pages of one chunk, for a fault round (mapped accessed and touched),
//!   a prefetch or a promotion's filler (neither): the bitmaps by the
//!   run's word masks, `backing` and `lru_gen` in one loop.
//!   [`Vma::map_page`] is its one-page case. Materialises the chunk. May
//!   assume the pages are distinct and not resident (asserted in debug
//!   builds) and nothing else: it overwrites both state bits, both flags
//!   and the backing, so whatever a stale entry held is gone. A
//!   promotion maps the chunk's holes (`Vma::chunk_holes`, read off its
//!   `resident` words) as one run.
//! * [`Vma::bump_resident`] — the LRU's requeue: a generation bump,
//!   optionally matching a queued stamp first and clearing `accessed`.
//!   Assumes nothing; on an absent chunk, a non-resident page or a stale
//!   stamp it writes nothing.
//! * [`Vma::reclaim_page`] — the reclaim verdict (stale / second chance /
//!   cold) and, for a cold page, `Resident → Swapped(slot)` in the same
//!   resolve. Reads `backing` as a frame only under a set `resident` bit —
//!   all the canonical form promises — and leaves the form intact: the
//!   evicted page has `swapped` set, `resident`, `accessed` and `touched`
//!   clear, and the slot as backing. When the swap device refuses the
//!   store, the page keeps everything but the verdict's generation bump.
//! * [`Vma::pageout_in`] — a scheme's pageout of a range: exactly
//!   `reclaim_page(addr, None, store)` over its resident pages, ascending,
//!   done a word at a time. Per word, the referenced pages (`resident &
//!   accessed` in the range) have `accessed` cleared by one mask, and the
//!   cold ones go `Resident → Swapped(store()?)` lowest bit first, each
//!   `(addr, frame)` pushed for the caller to free; `resident`, `swapped`
//!   and `touched` then move by one mask of the evicted bits. The first
//!   failed store ends the walk: that page and every later one keep
//!   everything, their `accessed` bits included, because the referenced
//!   mask is cut below the failing bit.
//! * [`Vma::split_huge`] — a huge chunk back to base pages: the huge flag
//!   cleared and, a word at a time, every `resident & !touched` page to
//!   `None` with `accessed` clear, its generation bumped and its frame
//!   handed to the caller, ascending.
//!
//! Reclaim judges an LRU tail run through a `ChunkRun` — the chunk
//! resolved once (`Vma::chunk_run`), then per entry the requeue and the
//! verdict that `bump_resident` and `reclaim_page` are the one-page cases
//! of; a fault round reads its pages' states and maps them through one.
//!
//! None of them materialises a chunk it does not map a page into, so a
//! probe of untouched memory stays allocation-free. [`Vma::with_pte`] —
//! load the page as a [`Pte`], run a closure, scatter it back in
//! canonical form — is no library path's: it is the tests' setter for
//! any state, and `tests/walker_differential.rs` holds each primitive to
//! a `with_pte` closure (and `pageout_in` to `reclaim_page` looped over
//! the resident pages).
//!
//! ## PTE layout
//!
//! A chunk is structure-of-arrays. The four things a page *is* — resident,
//! swapped, accessed, touched — are four bitmaps of eight `u64` words, one
//! bit per page, 256 bytes in the chunk itself; what a page *has* sits
//! behind the chunk's pointer to one per-page array of 8-byte slots:
//! `backing` (the frame id of a resident page, the swap slot of a swapped
//! one, both 32 bits) beside the LRU generation — every path that touches
//! one touches the other — 4 KiB per 512 pages. [`Pte`] is the by-value
//! view of one page that `get` assembles and `set` scatters back; nothing
//! stores one. The commonest thing a workload does — re-touching resident
//! pages — and every scan for them therefore reads and writes words, 64
//! pages at a time, and never the per-page arrays.
//!
//! *What a copy shares.* A chunk holds its arrays as an `own | shared`
//! pair, like a frame slab's metadata: a `Box` of its own, or an
//! `Arc<Box<…>>`. `Vma::freeze` — run on a fleet's shard image by
//! `MemorySystem::freeze` — moves every chunk's own box into a read-only
//! shared one, copying nothing, so the bitmaps, 256 bytes, are what
//! stamping a fleet shard copies per chunk. A copy takes arrays of its
//! own on its first write to them (`#[cold]`): the shared box itself if
//! nothing else holds it, else a copy. The bitmaps stay each
//! copy's own: every resident touch and every access check writes them.
//! The touch walker, the sampling sweep and `pageout_in`'s masks never go
//! near the arrays, so a shard copies a chunk's arrays only when it maps,
//! evicts, requeues or splits one of its pages: a 50-epoch shard of the
//! default fleet writes the arrays of 43–47 of its image's 384 chunks, and
//! the bitmaps of 101–108.
//!
//! A chunk is kept in canonical form, which [`Vma::check_layout`]
//! checks: `resident` and `swapped` are disjoint, and a page in neither
//! has `backing == 0`. Derived equality on [`Vma`] is then a logical
//! comparison, however a chunk's arrays are held (a shard stamped from an
//! image equals one built separately). `accessed`, `touched` and the
//! generation are stored as written whatever the state. A word operation
//! may assume only what the canonical form gives it: a bit of `resident`
//! is a page with a frame, whatever its other bits say.
//!
//! `touched` — "the CPU has used this page since it was mapped", what
//! `demote_huge` reads to tell a promotion's filler subpages from real
//! data — is a property of the mapping, written by the same word
//! operation that writes `accessed`. Every transition into `Resident`
//! states it (a fault maps a touched page; promotion filler and `willneed`
//! prefetch map untouched ones) and it is cleared when the page leaves
//! `Resident`.
//!
//! ## The chunk-at-a-time walker
//!
//! [`Vma::touch_run`] is the one function that walks `All`/`Stride`
//! batches. Its contract: pages are visited in ascending address order
//! from the page holding `range.start`, every `stride`-th page, while
//! the page address is below `range.end`; a resident page gets `accessed`
//! and `touched` set and is counted (as huge when its chunk is — the flag
//! is read once per 2 MiB chunk, and is `false` for the partial chunks at
//! an unaligned VMA's ends, which [`Vma::set_huge`] refuses); a
//! non-resident page is pushed on the fault list, in visit order, without
//! being changed; an unmaterialised chunk queues its whole span without
//! reading a PTE. No state changes, and no chunk is materialised.
//!
//! Per chunk the walk is word operations. The *visit mask* of a word has
//! a bit per page the run visits: the run's pages `[lo, hi)` of the chunk,
//! thinned to every `stride`-th from `lo`. When the stride divides 64 the
//! thinning is one constant pattern shifted to `lo`'s phase, the same in
//! every word (all ones at stride 1); otherwise the eight words are built
//! once per chunk by stepping through the run. Then `hit = resident &
//! visit` is or-ed into `accessed` and `touched` and counted by popcount,
//! and `visit & !resident` is the faults. Chunks ascend, words ascend
//! within a chunk, and a word's set bits are taken lowest first, so the
//! fault list is in visit order.
//!
//! *The whole-chunk path.* Most of a run is whole chunks: at a stride that
//! divides 64, a chunk entered at a page `lo < stride` and left at its end
//! has the one visit mask `pattern << lo` in all eight words, so the walk
//! is a fixed eight-word body — `hit = resident & visit`, or-ed into
//! `accessed` and `touched`, popcounted. The fault list is built in a
//! second pass, and only when the count falls short of eight times the
//! mask's popcount: some visited page is not resident. The chunk advance
//! is a shift (a stride that divides 64 is a power of two). A partial
//! chunk — the run's first and last, an unaligned VMA's ends — and every
//! other stride take the general path above.
//!
//! A flag write bypasses [`Vma::with_pte`]: on an absent chunk there is
//! no resident page to touch and no set bit to clear, so neither the
//! load → `f` → store round trip nor a materialisation could change
//! anything the in-place word write does not.

use crate::access::AccessOutcome;
use crate::addr::{
    huge_align_down, huge_align_up, AddrRange, HUGE_PAGE_SIZE, PAGES_PER_HUGE, PAGE_SHIFT,
    PAGE_SIZE,
};
use crate::error::MmResult;
use crate::frame::FrameId;
use crate::process::{swap_sample, SampleColumns};
use crate::swap::SwapSlot;
use std::sync::Arc;

/// Pages per page-table chunk (one chunk = one aligned 2 MiB span).
pub const PT_CHUNK_PAGES: usize = PAGES_PER_HUGE as usize;
/// 64-page words per chunk bitmap.
const PT_WORDS: usize = PT_CHUNK_PAGES / 64;
/// Regions per chunk slot, over the regions left to sweep, from which
/// the sampling sweep walks a VMA by chunk run ([`Vma::sweep_run`]). A
/// sparser set keeps the per-pair loop: its regions mostly span chunks or
/// sit alone in one, and a run's set-up and exit would cost more than the
/// chunk resolves they save.
const RUN_DENSITY: usize = 2;

/// Backing state of one virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PteState {
    /// Never faulted in (or unmapped by reclaim of a clean page).
    None,
    /// Mapped to a physical frame.
    Resident(FrameId),
    /// Contents live in a swap slot.
    Swapped(SwapSlot),
}

/// One simulated page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Where the page's data lives.
    pub state: PteState,
    /// Hardware accessed ("young") bit — set on every CPU touch, cleared
    /// by the monitor's access checks and by LRU aging.
    pub accessed: bool,
    /// Whether the CPU used the page since it was mapped. Promotion
    /// filler and prefetched pages start `false`; `demote_huge` frees
    /// resident subpages of a huge chunk that still read `false`.
    pub touched: bool,
    /// Generation stamp used by the lazy LRU lists to invalidate stale
    /// queue entries; bumped on every map/unmap/list move.
    pub lru_gen: u32,
}

impl Pte {
    const EMPTY: Pte = Pte { state: PteState::None, accessed: false, touched: false, lru_gen: 0 };

    /// Whether the page occupies a physical frame.
    #[inline]
    pub fn is_resident(&self) -> bool {
        matches!(self.state, PteState::Resident(_))
    }
}

/// What [`Vma::reclaim_page`] found a reclaim candidate to be, and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reclaimed {
    /// Not resident, or queued under another generation: nothing changed.
    Stale,
    /// Referenced since the last check: the accessed bit is now clear and
    /// the page stays, under this generation.
    Referenced(u32),
    /// Cold: the page is in swap now, and this frame is the caller's to
    /// free.
    Evicted(FrameId),
}

/// One chunk of a VMA's page table, resolved once for a run of LRU
/// entries whose pages are in it (`Vma::chunk_run`): reclaim requeues
/// and judges each entry in turn with a bit test and a write or two, and
/// never looks the chunk up again. Every page passed must be in the chunk
/// and in the VMA. An absent chunk holds no resident page: every entry is
/// stale, and nothing is materialised.
pub(crate) struct ChunkRun<'a> {
    base: u64,
    chunk: &'a mut Option<Box<PteChunk>>,
}

impl ChunkRun<'_> {
    /// The page's index in the chunk and its word and bit.
    #[inline]
    fn at(&self, addr: u64) -> (usize, usize, u64) {
        debug_assert_eq!(huge_align_down(addr), self.base, "{addr:#x} is not in the run's chunk");
        let pi = Vma::page_in_chunk(addr);
        (pi, pi / 64, 1u64 << (pi % 64))
    }

    /// The state of the page at `addr` ([`Vma::state`]).
    #[inline]
    pub(crate) fn state(&self, addr: u64) -> PteState {
        let (pi, w, bit) = self.at(addr);
        let Some(c) = self.chunk.as_deref() else { return PteState::None };
        if c.resident[w] & bit != 0 {
            PteState::Resident(c.pages.get()[pi].backing)
        } else if c.swapped[w] & bit != 0 {
            PteState::Swapped(SwapSlot(c.pages.get()[pi].backing))
        } else {
            PteState::None
        }
    }

    /// [`Vma::map_run`], the chunk materialised if it is not yet.
    #[inline]
    pub(crate) fn map(&mut self, addrs: &[u64], frames: &[FrameId], by_cpu: bool, gens: &mut [u32]) {
        let c = self.chunk.get_or_insert_with(PteChunk::new);
        // The run's pages as a mask of each word, and the words it spans.
        #[expect(clippy::reversed_empty_ranges, reason = "an empty span the loop widens")]
        let (mut run, mut words) = ([0u64; PT_WORDS], PT_WORDS..0);
        let pages = c.pages.get_mut();
        for ((&addr, &frame), gen) in addrs.iter().zip(frames).zip(gens) {
            debug_assert_eq!(huge_align_down(addr), self.base, "{addr:#x} is not in the run's chunk");
            let pi = Vma::page_in_chunk(addr);
            let (w, bit) = (pi / 64, 1u64 << (pi % 64));
            debug_assert_eq!((c.resident[w] | run[w]) & bit, 0, "map_run over a resident page");
            run[w] |= bit;
            words = words.start.min(w)..words.end.max(w + 1);
            pages[pi].backing = frame;
            pages[pi].lru_gen = pages[pi].lru_gen.wrapping_add(1);
            *gen = pages[pi].lru_gen;
        }
        for w in words {
            let bits = run[w];
            let flag = if by_cpu { bits } else { 0 };
            c.resident[w] |= bits;
            c.swapped[w] &= !bits;
            c.accessed[w] = (c.accessed[w] & !bits) | flag;
            c.touched[w] = (c.touched[w] & !bits) | flag;
        }
    }

    /// [`Vma::bump_resident`] on the page at `addr`.
    #[inline]
    pub(crate) fn requeue(
        &mut self,
        addr: u64,
        queued_gen: Option<u32>,
        clear_accessed: bool,
    ) -> Option<u32> {
        let (pi, w, bit) = self.at(addr);
        let c = self.chunk.as_deref_mut()?;
        if c.resident[w] & bit == 0 || queued_gen.is_some_and(|gen| gen != c.pages.get()[pi].lru_gen) {
            return None;
        }
        if clear_accessed {
            c.accessed[w] &= !bit;
        }
        let pages = c.pages.get_mut();
        pages[pi].lru_gen = pages[pi].lru_gen.wrapping_add(1);
        Some(pages[pi].lru_gen)
    }

    /// Judge one reclaim candidate and, when it is cold, evict it —
    /// `Resident → Swapped(store()?)`.
    ///
    /// `lru_gen` is `Some(stamp)` for an entry popped off the LRU: a stamp
    /// that is not the page's generation makes it [`Reclaimed::Stale`],
    /// and a live entry's verdict bumps the generation (a second chance
    /// requeues the page under the new one; a cold page is bumped again by
    /// the eviction). `None` is a scheme's pageout of a page it found
    /// resident: no queue entry, so a second chance leaves the generation
    /// alone. `store` is called for a cold page only; when it fails the
    /// page stays resident as the verdict left it and the error is
    /// returned.
    #[inline]
    pub(crate) fn judge(
        &mut self,
        addr: u64,
        lru_gen: Option<u32>,
        store: impl FnOnce() -> MmResult<SwapSlot>,
    ) -> MmResult<Reclaimed> {
        let (pi, w, bit) = self.at(addr);
        let Some(c) = self.chunk.as_deref_mut() else { return Ok(Reclaimed::Stale) };
        if c.resident[w] & bit == 0 || lru_gen.is_some_and(|gen| gen != c.pages.get()[pi].lru_gen) {
            return Ok(Reclaimed::Stale);
        }
        if lru_gen.is_some() {
            let pages = c.pages.get_mut();
            pages[pi].lru_gen = pages[pi].lru_gen.wrapping_add(1);
        }
        if c.accessed[w] & bit != 0 {
            c.accessed[w] &= !bit;
            return Ok(Reclaimed::Referenced(c.pages.get()[pi].lru_gen));
        }
        let swap_slot = store()?;
        c.resident[w] &= !bit;
        c.swapped[w] |= bit;
        c.touched[w] &= !bit;
        let pages = c.pages.get_mut();
        let frame = std::mem::replace(&mut pages[pi].backing, swap_slot.0);
        pages[pi].lru_gen = pages[pi].lru_gen.wrapping_add(1);
        Ok(Reclaimed::Evicted(frame))
    }
}

/// One materialised 2 MiB span of the page table, structure-of-arrays
/// (see "PTE layout" in the module docs): the four bitmaps, and the page
/// arrays behind a pointer. Bit `pi % 64` of word `pi / 64` is page `pi`.
#[derive(Debug, Clone, PartialEq)]
struct PteChunk {
    resident: [u64; PT_WORDS],
    swapped: [u64; PT_WORDS],
    accessed: [u64; PT_WORDS],
    touched: [u64; PT_WORDS],
    pages: Pages,
}

/// What one page *has*, its two words side by side: every path that
/// reads or writes one of them for a page — a fault, a reclaim verdict, a
/// split — touches the other, so a page costs one cache line, not two.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PageSlot {
    /// Frame id of a resident page, swap slot of a swapped one, else 0.
    backing: u32,
    lru_gen: u32,
}

/// What a page *has*, per page of one chunk.
type PageArrays = [PageSlot; PT_CHUNK_PAGES];

/// Every entry 0: what a chunk's arrays read before its first write.
static NO_PAGES: PageArrays = [PageSlot { backing: 0, lru_gen: 0 }; PT_CHUNK_PAGES];

/// A chunk's page arrays: a block of its own, a frozen VMA's shared
/// block, or neither while no entry was ever written (every entry then
/// reads 0). Never both. Two are equal when they read the same, however
/// they are held.
#[derive(Debug, Clone, Default)]
struct Pages {
    own: Option<Box<PageArrays>>,
    shared: Option<Arc<Box<PageArrays>>>,
}

impl Pages {
    #[inline]
    fn get(&self) -> &PageArrays {
        self.own.as_deref().or(self.shared.as_deref().map(|b| &**b)).unwrap_or(&NO_PAGES)
    }

    #[inline]
    fn get_mut(&mut self) -> &mut PageArrays {
        self.own.get_or_insert_with(|| first_write(self.shared.take()))
    }

    /// Let copies share the arrays, moved and not copied, until they
    /// write them.
    fn freeze(&mut self) {
        if let Some(own) = self.own.take() {
            self.shared = Some(Arc::new(own));
        }
    }
}

impl PartialEq for Pages {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

/// A chunk's first write to its page arrays: its own block — the shared
/// one if nothing else holds it any more, a copy of it if something does,
/// and all-zero if there is none. Out of line, so the write paths keep a
/// small frame.
#[cold]
#[inline(never)]
fn first_write(shared: Option<Arc<Box<PageArrays>>>) -> Box<PageArrays> {
    match shared {
        Some(block) => Arc::unwrap_or_clone(block),
        None => Box::new([PageSlot { backing: 0, lru_gen: 0 }; PT_CHUNK_PAGES]),
    }
}

impl PteChunk {
    fn new() -> Box<Self> {
        Box::new(PteChunk {
            resident: [0; PT_WORDS],
            swapped: [0; PT_WORDS],
            accessed: [0; PT_WORDS],
            touched: [0; PT_WORDS],
            pages: Pages::default(),
        })
    }

    /// Page `pi`, assembled.
    #[inline]
    fn get(&self, pi: usize) -> Pte {
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        let pages = self.pages.get();
        let state = if self.resident[w] & bit != 0 {
            PteState::Resident(pages[pi].backing)
        } else if self.swapped[w] & bit != 0 {
            PteState::Swapped(SwapSlot(pages[pi].backing))
        } else {
            PteState::None
        };
        Pte {
            state,
            accessed: self.accessed[w] & bit != 0,
            touched: self.touched[w] & bit != 0,
            lru_gen: pages[pi].lru_gen,
        }
    }

    /// Scatter `pte` over page `pi`, in canonical form. The caller
    /// accounts for the state change.
    #[inline]
    fn set(&mut self, pi: usize, pte: Pte) {
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        let put = |word: &mut u64, on: bool| *word = (*word & !bit) | if on { bit } else { 0 };
        let (resident, swapped, backing) = match pte.state {
            PteState::None => (false, false, 0),
            PteState::Resident(frame) => (true, false, frame),
            PteState::Swapped(slot) => (false, true, slot.0),
        };
        put(&mut self.resident[w], resident);
        put(&mut self.swapped[w], swapped);
        put(&mut self.accessed[w], pte.accessed);
        put(&mut self.touched[w], pte.touched);
        let pages = self.pages.get_mut();
        pages[pi].backing = backing;
        pages[pi].lru_gen = pte.lru_gen;
    }

    /// The walker on a whole chunk whose visit mask is `visit` in every
    /// word: touch the resident pages it visits and return how many; push
    /// the others, ascending, as `page(pi)` on `faults` — a second pass
    /// that runs only when the count says some visited page is missing.
    #[inline]
    fn touch_every_word(
        &mut self,
        visit: u64,
        faults: &mut Vec<u64>,
        page: impl Fn(usize) -> u64,
    ) -> u64 {
        let mut nr = 0u64;
        for w in 0..PT_WORDS {
            let hit = self.resident[w] & visit;
            self.accessed[w] |= hit;
            self.touched[w] |= hit;
            nr += hit.count_ones() as u64;
        }
        if nr < PT_WORDS as u64 * visit.count_ones() as u64 {
            for w in 0..PT_WORDS {
                faults.extend(bits(visit & !self.resident[w]).map(|b| page(w * 64 + b)));
            }
        }
        nr
    }
}

/// The set bit positions of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// The bits of word `w` whose pages lie in `[lo, hi)` (page indices in
/// the chunk; the word must hold at least one of them).
#[inline]
fn word_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let (s, e) = (lo.max(w * 64) - w * 64, hi.min(w * 64 + 64) - w * 64);
    (u64::MAX >> (64 - (e - s))) << s
}

/// Per-VMA transparent-huge-page policy, mirroring
/// `MADV_HUGEPAGE`/`MADV_NOHUGEPAGE` plus the system-wide "always" mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThpMode {
    /// Huge pages are never used for this VMA.
    Never,
    /// The kernel aggressively promotes any 2 MiB-aligned chunk with at
    /// least one resident page (the behaviour Kwon et al. criticise).
    Always,
    /// Promotion happens only when explicitly requested (DAMOS HUGEPAGE).
    Madvise,
}

/// A contiguous virtual mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Vma {
    /// Byte range covered; always page-aligned.
    pub range: AddrRange,
    /// THP policy for this area.
    pub thp: ThpMode,
    /// Sparse page table: one optional chunk per aligned 2 MiB span
    /// overlapping the VMA. Slot 0 covers `huge_align_down(range.start)`.
    chunks: Vec<Option<Box<PteChunk>>>,
    /// Huge flag per chunk slot, indexed like `chunks`; only a slot the
    /// VMA covers whole is ever set ([`Vma::set_huge`]).
    huge: Vec<bool>,
}

impl Vma {
    /// Create a VMA over `range` (must be page-aligned and non-empty).
    pub fn new(range: AddrRange, thp: ThpMode) -> Self {
        debug_assert!(range.start.is_multiple_of(PAGE_SIZE) && range.end.is_multiple_of(PAGE_SIZE));
        debug_assert!(!range.is_empty());
        let nr_slots =
            ((huge_align_up(range.end) - huge_align_down(range.start)) / HUGE_PAGE_SIZE) as usize;
        let chunks = (0..nr_slots).map(|_| None).collect();
        Self { range, thp, chunks, huge: vec![false; nr_slots] }
    }

    /// Start of the (absolute-aligned) chunk grid.
    #[inline]
    fn grid_base(&self) -> u64 {
        huge_align_down(self.range.start)
    }

    /// Chunk-slot index of `addr`.
    #[inline]
    fn slot(&self, addr: u64) -> usize {
        debug_assert!(self.range.contains(addr));
        ((addr - self.grid_base()) / HUGE_PAGE_SIZE) as usize
    }

    /// Page index of `addr` within its chunk.
    #[inline]
    fn page_in_chunk(addr: u64) -> usize {
        ((addr & (HUGE_PAGE_SIZE - 1)) >> PAGE_SHIFT) as usize
    }

    /// Make copies of this VMA share every chunk's page arrays until they
    /// write them (each copy's bitmaps are its own).
    pub(crate) fn freeze(&mut self) {
        self.chunks.iter_mut().flatten().for_each(|c| c.pages.freeze());
    }

    /// Whether some chunk still reads its page arrays from a frozen VMA's.
    pub(crate) fn is_shared(&self) -> bool {
        self.chunks.iter().flatten().any(|c| c.pages.shared.is_some())
    }

    /// The PTE covering `addr`, by value (missing chunks read as empty).
    #[inline]
    pub fn pte(&self, addr: u64) -> Pte {
        match &self.chunks[self.slot(addr)] {
            Some(c) => c.get(Self::page_in_chunk(addr)),
            None => Pte::EMPTY,
        }
    }

    /// Read-modify-write the PTE covering `addr` through `f`. The chunk is
    /// materialised only if `f` actually changes the entry, so probing an
    /// untouched page stays allocation-free. The tests' setter for any
    /// page state: the library changes pages only through the transition
    /// primitives (see the module docs).
    pub fn with_pte<R>(&mut self, addr: u64, f: impl FnOnce(&mut Pte) -> R) -> R {
        let (slot, pi) = (self.slot(addr), Self::page_in_chunk(addr));
        let chunk = &mut self.chunks[slot];
        let mut pte = chunk.as_deref().map_or(Pte::EMPTY, |c| c.get(pi));
        let r = f(&mut pte);
        if chunk.is_some() || pte != Pte::EMPTY {
            chunk.get_or_insert_with(PteChunk::new).set(pi, pte);
        }
        r
    }

    /// Whether the page at `addr` is resident at generation `gen`: an LRU
    /// entry stamped `gen` is live. The generation is read first — a stale
    /// entry mostly fails there, on one cache line.
    #[inline]
    pub(crate) fn is_resident_at(&self, addr: u64, gen: u32) -> bool {
        let Some(c) = self.chunks[self.slot(addr)].as_deref() else { return false };
        let pi = Self::page_in_chunk(addr);
        c.pages.get()[pi].lru_gen == gen && c.resident[pi / 64] & (1 << (pi % 64)) != 0
    }

    /// Clear the accessed bit of the page at `addr`; returns whether it was
    /// set. An unmaterialised chunk holds no set bit, so this writes the
    /// bit in place — what [`Vma::with_pte`] would conclude after its round
    /// trip.
    #[inline]
    pub fn clear_accessed(&mut self, addr: u64) -> bool {
        let slot = self.slot(addr);
        let Some(c) = self.chunks[slot].as_deref_mut() else { return false };
        let pi = Self::page_in_chunk(addr);
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        let was = c.accessed[w] & bit != 0;
        c.accessed[w] &= !bit;
        was
    }

    /// The monitor's access op on two pages of this VMA: whether the page
    /// at `old` was accessed, then clear the bit of the page at `new`
    /// (`None` skips that half). Each half is one chunk-word operation, and
    /// neither asks whether the two pages share a chunk: a sweep alternates
    /// between the two cases region by region, so that branch would
    /// mispredict to save one chunk lookup (DESIGN §12 has the numbers).
    #[inline]
    pub(crate) fn access(&mut self, old: Option<u64>, new: Option<u64>) -> bool {
        let was = old.is_some_and(|addr| {
            let Some(c) = self.chunks[self.slot(addr)].as_deref() else { return false };
            let pi = Self::page_in_chunk(addr);
            c.accessed[pi / 64] & (1 << (pi % 64)) != 0
        });
        if let Some(addr) = new {
            self.clear_accessed(addr);
        }
        was
    }

    /// The sampling sweep's kernel ([`crate::process::PteCursor::sweep`])
    /// over the leading regions of `cols` that end inside this VMA; the
    /// first must start in it. Per region: draw `new = next(start, end)`,
    /// swap it into the sample column, count `old`'s accessed bit and clear
    /// `new`'s. The one test of the VMA per region is `end ≤ range.end`: a
    /// region that ends inside the VMA also starts in it (the first does,
    /// and regions ascend), and so do its samples. Returns how many regions
    /// it swept and adds their checks to `checks`.
    ///
    /// A dense set — at least [`RUN_DENSITY`] regions left per chunk slot —
    /// is walked by (VMA, 2 MiB chunk) run. Where a region and the next
    /// both end inside the region's chunk, a run opens: the chunk is
    /// resolved once, and each region that ends inside both the chunk and
    /// the VMA reads `old`'s bit and clears `new`'s in the chunk's
    /// `accessed` words, one compare per region ending the run. An absent
    /// chunk reads as zero words: `old` reads false, `new` clears nothing,
    /// and the checks still count. A region that spans chunks, or shares
    /// its chunk with no neighbour, takes the per-pair [`Self::access`]
    /// (a chunk resolve per page), and so does every region of a sparse
    /// set, so a sparse set keeps its per-pair cost. The count of regions
    /// left includes those of later VMAs: an early VMA may be walked by run
    /// although sparse, which costs time, never a bit.
    #[inline]
    pub(crate) fn sweep_run(
        &mut self,
        cols: SampleColumns<'_>,
        next: &mut impl FnMut(u64, u64) -> u64,
        checks: &mut u64,
    ) -> usize {
        let end_of_vma = self.range.end;
        let n = cols.starts.len();
        if n < RUN_DENSITY * self.chunks.len() {
            // A loop of its own: run code in the same loop spills its
            // registers and slows a sparse set (DESIGN §12, *Rejected*).
            let mut swept = 0;
            let bounds = cols.starts.iter().zip(cols.ends);
            for (((&start, &end), sample), nr) in bounds.zip(cols.samples).zip(cols.nr_accesses) {
                if end > end_of_vma {
                    break;
                }
                let (old, new) = swap_sample(sample, next(start, end));
                *checks += old.is_some() as u64 + new.is_some() as u64;
                *nr += self.access(old, new) as u32;
                swept += 1;
            }
            return swept;
        }
        let (starts, ends) = (cols.starts, &cols.ends[..n]);
        let (samples, nrs) = (&mut cols.samples[..n], &mut cols.nr_accesses[..n]);
        let mut i = 0;
        while i < n {
            let (start, end) = (starts[i], ends[i]);
            if end > end_of_vma {
                break;
            }
            let chunk_end = huge_align_down(start) + HUGE_PAGE_SIZE;
            if ends.get(i + 1).is_none_or(|&e| e > chunk_end) {
                let (old, new) = swap_sample(&mut samples[i], next(start, end));
                *checks += old.is_some() as u64 + new.is_some() as u64;
                nrs[i] += self.access(old, new) as u32;
                i += 1;
                continue;
            }
            let run_end = chunk_end.min(end_of_vma);
            let mut absent = [0u64; PT_WORDS];
            let slot = self.slot(start);
            let words = self.chunks[slot].as_deref_mut().map_or(&mut absent, |c| &mut c.accessed);
            let word_bit = |addr: u64| {
                debug_assert!(addr >= start && addr < run_end, "{addr:#x} is not in the run");
                let pi = Self::page_in_chunk(addr);
                (pi / 64, 1u64 << (pi % 64))
            };
            loop {
                let (old, new) = swap_sample(&mut samples[i], next(starts[i], ends[i]));
                *checks += old.is_some() as u64 + new.is_some() as u64;
                let was = old.is_some_and(|addr| {
                    let (w, bit) = word_bit(addr);
                    words[w] & bit != 0
                });
                if let Some(addr) = new {
                    let (w, bit) = word_bit(addr);
                    words[w] &= !bit;
                }
                nrs[i] += was as u32;
                i += 1;
                if i == n || ends[i] > run_end {
                    break;
                }
            }
        }
        i
    }

    /// Single-page touch (the `Random` pattern, which has no run
    /// to amortise over): if `addr` is resident, set its accessed and
    /// touched bits and return `true`; otherwise `false`, without
    /// materialising anything — a fault will.
    #[inline]
    pub fn touch_resident(&mut self, addr: u64) -> bool {
        let slot = self.slot(addr);
        let Some(c) = self.chunks[slot].as_deref_mut() else { return false };
        let pi = Self::page_in_chunk(addr);
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        let hit = c.resident[w] & bit;
        c.accessed[w] |= hit;
        c.touched[w] |= hit;
        hit != 0
    }

    /// Touch every `stride`-th page of `range ∩ vma`, one 2 MiB chunk at
    /// a time (see the module docs for the contract). Resident pages are
    /// touched in place; the rest are pushed on `faults` in visit order.
    /// `out.touched_pages` / `out.touched_huge` count the former.
    pub fn touch_run(
        &mut self,
        range: &AddrRange,
        stride: u32,
        faults: &mut Vec<u64>,
        out: &mut AccessOutcome,
    ) {
        let Some(isect) = self.range.intersect(range) else { return };
        let stride = stride.max(1) as usize;
        let step = stride as u64 * PAGE_SIZE;
        // A stride that divides 64 is a power of two: every `stride`-th bit
        // from bit 0 is then the same pattern in every word, and a count
        // of pages divides by a shift.
        let periodic = (64 % stride == 0).then(|| {
            let pattern = if stride == 64 { 1 } else { u64::MAX / ((1u64 << stride) - 1) };
            (pattern, stride.trailing_zeros())
        });
        let mut addr = isect.page_aligned().start;
        while addr < isect.end {
            let chunk_base = huge_align_down(addr);
            // Pages `[lo, hi)` of this chunk are inside the run.
            let lo = Self::page_in_chunk(addr);
            let hi = (isect.end.min(chunk_base + HUGE_PAGE_SIZE) - chunk_base)
                .div_ceil(PAGE_SIZE) as usize;
            let slot = self.slot(addr);
            let huge = self.huge[slot];
            let page = |pi: usize| chunk_base + pi as u64 * PAGE_SIZE;
            let nr = match (self.chunks[slot].as_deref_mut(), periodic) {
                // The whole chunk at `lo`'s phase: one visit mask for all
                // eight words.
                (Some(c), Some((pattern, _))) if lo < stride && hi == PT_CHUNK_PAGES => {
                    c.touch_every_word(pattern << lo, faults, page)
                }
                (Some(c), _) => {
                    let words = lo / 64..hi.div_ceil(64);
                    let mut visit = [0u64; PT_WORDS];
                    match periodic {
                        Some((pattern, _)) => words.clone().for_each(|w| {
                            visit[w] = (pattern << (lo % stride)) & word_mask(w, lo, hi)
                        }),
                        None => (lo..hi).step_by(stride).for_each(|pi| visit[pi / 64] |= 1 << (pi % 64)),
                    }
                    let mut nr = 0u64;
                    for w in words {
                        let hit = c.resident[w] & visit[w];
                        c.accessed[w] |= hit;
                        c.touched[w] |= hit;
                        nr += hit.count_ones() as u64;
                        faults.extend(bits(visit[w] & !c.resident[w]).map(|b| page(w * 64 + b)));
                    }
                    nr
                }
                (None, _) => {
                    faults.extend((lo..hi).step_by(stride).map(page));
                    0
                }
            };
            out.touched_pages += nr;
            out.touched_huge += if huge { nr } else { 0 };
            let visited = match periodic {
                Some((_, shift)) => (hi - lo + stride - 1) >> shift,
                None => (hi - lo).div_ceil(stride),
            };
            addr += visited as u64 * step;
        }
    }

    // ---- state transitions in place (see the module docs) ----------

    /// `None | Swapped → Resident(frame)`: a fault (`by_cpu`: the page is
    /// mapped accessed and touched) or a prefetch (neither) — the one-page
    /// case of [`Self::map_run`]. Returns the page's new generation. The
    /// page must not be resident.
    pub fn map_page(&mut self, addr: u64, frame: FrameId, by_cpu: bool) -> u32 {
        let mut gen = [0];
        self.map_run(&[addr], &[frame], by_cpu, &mut gen);
        gen[0]
    }

    /// `None | Swapped → Resident(frames[i])` for each page `addrs[i]` of
    /// one chunk, writing its new generation to `gens[i]`: what one
    /// [`Self::map_page`] per page does, with the chunk resolved (and
    /// materialised) once, the four bitmaps written a word at a time by
    /// the run's mask, and `backing` and `lru_gen` in one loop. The pages
    /// must be distinct and none resident.
    pub fn map_run(&mut self, addrs: &[u64], frames: &[FrameId], by_cpu: bool, gens: &mut [u32]) {
        if let Some(&first) = addrs.first() {
            self.chunk_run(first).map(addrs, frames, by_cpu, gens);
        }
    }

    /// Requeue a resident page: bump its generation (invalidating every
    /// queued LRU entry) and return the new one, clearing the accessed bit
    /// when `clear_accessed` (deactivation ages the page). `None`, and
    /// nothing written, when the page is not resident or — given
    /// `queued_gen`, the stamp of the LRU entry being revalidated — was
    /// queued under another generation. The one-page case of
    /// `ChunkRun::requeue`.
    pub fn bump_resident(
        &mut self,
        addr: u64,
        queued_gen: Option<u32>,
        clear_accessed: bool,
    ) -> Option<u32> {
        self.chunk_run(addr).requeue(addr, queued_gen, clear_accessed)
    }

    /// Judge one reclaim candidate and, when it is cold, evict it —
    /// `Resident → Swapped(store()?)` — in the same resolve: the one-page
    /// case of the run judge, `ChunkRun::judge`, which says what
    /// `lru_gen` and `store` mean.
    pub fn reclaim_page(
        &mut self,
        addr: u64,
        lru_gen: Option<u32>,
        store: impl FnOnce() -> MmResult<SwapSlot>,
    ) -> MmResult<Reclaimed> {
        self.chunk_run(addr).judge(addr, lru_gen, store)
    }

    /// The chunk holding `addr`, resolved once for a run of requeues and
    /// judgments of its pages (`ChunkRun`).
    #[inline]
    pub(crate) fn chunk_run(&mut self, addr: u64) -> ChunkRun<'_> {
        let slot = self.slot(addr);
        ChunkRun { base: huge_align_down(addr), chunk: &mut self.chunks[slot] }
    }

    /// A scheme's pageout of `range ∩ vma`: exactly
    /// [`reclaim_page`](Self::reclaim_page)`(addr, None, store)` over its
    /// resident pages, ascending, until a store fails — done a word at a
    /// time. Referenced pages have `accessed` cleared by one mask; cold
    /// pages go `Resident → Swapped(store()?)` in address order, each
    /// `(addr, frame)` pushed on `evicted` (the frames are the caller's to
    /// free). The first failed store leaves that page and every later one
    /// untouched, their `accessed` bits included, and is the error.
    #[inline]
    pub fn pageout_in(
        &mut self,
        range: &AddrRange,
        evicted: &mut Vec<(u64, FrameId)>,
        mut store: impl FnMut() -> MmResult<SwapSlot>,
    ) -> MmResult<()> {
        let mut result = Ok(());
        'chunks: for (slot, chunk_base, lo, hi) in self.spans(range) {
            let Some(c) = self.chunks[slot].as_deref_mut() else { continue };
            for w in lo / 64..hi.div_ceil(64) {
                // The word's resident pages in the range: all judged,
                // unless a store fails first.
                let mut judged = c.resident[w] & word_mask(w, lo, hi);
                if judged == 0 {
                    continue;
                }
                let mut out = 0u64;
                for b in bits(judged & !c.accessed[w]) {
                    let swap_slot = match store() {
                        Ok(swap_slot) => swap_slot,
                        Err(e) => {
                            judged &= (1 << b) - 1;
                            result = Err(e);
                            break;
                        }
                    };
                    let (pi, pages) = (w * 64 + b, c.pages.get_mut());
                    let frame = std::mem::replace(&mut pages[pi].backing, swap_slot.0);
                    evicted.push((chunk_base + pi as u64 * PAGE_SIZE, frame));
                    pages[pi].lru_gen = pages[pi].lru_gen.wrapping_add(1);
                    out |= 1 << b;
                }
                c.accessed[w] &= !judged;
                c.resident[w] &= !out;
                c.swapped[w] |= out;
                c.touched[w] &= !out;
                if result.is_err() {
                    break 'chunks;
                }
            }
        }
        result
    }

    /// Split the aligned 2 MiB chunk at `chunk_addr`: clear its huge flag
    /// and return every resident page the CPU never touched — a
    /// promotion's filler, a prefetched page — to `None`, with `accessed`
    /// clear and its generation bumped, pushing its frame on `freed` in
    /// ascending address order. The frames are the caller's to free.
    pub fn split_huge(&mut self, chunk_addr: u64, freed: &mut Vec<FrameId>) {
        self.set_huge(chunk_addr, false);
        let slot = self.slot(chunk_addr);
        let Some(c) = self.chunks[slot].as_deref_mut() else { return };
        for w in 0..PT_WORDS {
            let filler = c.resident[w] & !c.touched[w];
            c.resident[w] &= !filler;
            c.accessed[w] &= !filler;
            for pi in bits(filler).map(|b| w * 64 + b) {
                let pages = c.pages.get_mut();
                freed.push(std::mem::take(&mut pages[pi].backing));
                pages[pi].lru_gen = pages[pi].lru_gen.wrapping_add(1);
            }
        }
    }

    /// Iterate `(page_addr, pte)` over every *mapped* (resident or
    /// swapped) page, skipping unmaterialised chunks entirely.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let base = self.grid_base();
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_deref().map(|c| (i, c)))
            .flat_map(move |(i, c)| {
                let chunk_base = base + i as u64 * HUGE_PAGE_SIZE;
                (0..PT_WORDS)
                    .flat_map(|w| bits(c.resident[w] | c.swapped[w]).map(move |b| w * 64 + b))
                    .map(move |pi| (chunk_base + pi as u64 * PAGE_SIZE, c.get(pi)))
            })
    }

    /// The chunk slots `range ∩ vma` overlaps, ascending, each with its
    /// base address and its pages `[lo, hi)` inside the range. Borrows
    /// nothing, so a caller may write the chunks as it goes.
    fn spans(&self, range: &AddrRange) -> impl Iterator<Item = (usize, u64, usize, usize)> + use<> {
        let base = self.grid_base();
        let aligned = self.range.intersect(range).map(|r| r.page_aligned());
        let slots = aligned.map_or(0..0, |r| {
            let lo = ((r.start - base) / HUGE_PAGE_SIZE) as usize;
            lo..((r.end - base).div_ceil(HUGE_PAGE_SIZE) as usize).min(self.chunks.len())
        });
        let r = aligned.unwrap_or(AddrRange::empty());
        slots.map(move |slot| {
            let chunk_base = base + slot as u64 * HUGE_PAGE_SIZE;
            let lo = (r.start.max(chunk_base) - chunk_base) as usize >> PAGE_SHIFT;
            let hi = (r.end.min(chunk_base + HUGE_PAGE_SIZE) - chunk_base) as usize >> PAGE_SHIFT;
            (slot, chunk_base, lo, hi)
        })
    }

    /// Push the addresses of all resident pages in `range ∩ vma` onto
    /// `out`, in address order. Missing chunks are skipped, and so is
    /// every 64-page word with no resident page.
    pub fn collect_resident_in(&self, range: &AddrRange, out: &mut Vec<u64>) {
        self.collect_in(range, out, |c| &c.resident);
    }

    /// Push the addresses of all swapped pages in `range ∩ vma` onto
    /// `out`, in address order, skipping swap-free words the same way.
    pub fn collect_swapped_in(&self, range: &AddrRange, out: &mut Vec<u64>) {
        self.collect_in(range, out, |c| &c.swapped);
    }

    /// The pages of `range ∩ vma` whose bit is set in the bitmap `of`
    /// picks, pushed on `out` in address order.
    fn collect_in(
        &self,
        range: &AddrRange,
        out: &mut Vec<u64>,
        of: impl Fn(&PteChunk) -> &[u64; PT_WORDS],
    ) {
        for (slot, chunk_base, lo, hi) in self.spans(range) {
            let Some(c) = self.chunks[slot].as_deref() else { continue };
            for w in lo / 64..hi.div_ceil(64) {
                let page = |b| chunk_base + (w * 64 + b) as u64 * PAGE_SIZE;
                out.extend(bits(of(c)[w] & word_mask(w, lo, hi)).map(page));
            }
        }
    }

    /// How many pages of `range ∩ vma` have their bit set in the bitmap
    /// `of` picks: a masked popcount per word, over the same spans and
    /// words as [`Vma::collect_resident_in`].
    fn count_in(&self, range: &AddrRange, of: impl Fn(&PteChunk) -> &[u64; PT_WORDS]) -> u64 {
        let mut nr = 0;
        for (slot, _, lo, hi) in self.spans(range) {
            let Some(c) = self.chunks[slot].as_deref() else { continue };
            let word = |w: usize| (of(c)[w] & word_mask(w, lo, hi)).count_ones() as u64;
            nr += (lo / 64..hi.div_ceil(64)).map(word).sum::<u64>();
        }
        nr
    }

    /// Resident pages in `range ∩ vma`.
    pub fn nr_resident_in(&self, range: &AddrRange) -> u64 {
        self.count_in(range, |c| &c.resident)
    }

    /// Swapped pages in `range ∩ vma`.
    pub fn nr_swapped_in(&self, range: &AddrRange) -> u64 {
        self.count_in(range, |c| &c.swapped)
    }

    /// Resident pages in the VMA: its RSS contribution.
    pub fn nr_resident(&self) -> usize {
        self.nr_resident_in(&self.range) as usize
    }

    /// Swapped pages in the VMA.
    pub fn nr_swapped(&self) -> usize {
        self.nr_swapped_in(&self.range) as usize
    }

    /// Resident pages in the aligned 2 MiB chunk at `chunk_addr` (the
    /// page-table chunk grid coincides with the THP chunk grid).
    pub fn chunk_nr_resident(&self, chunk_addr: u64) -> u64 {
        self.nr_resident_in(&AddrRange::new(chunk_addr, chunk_addr + HUGE_PAGE_SIZE))
    }

    /// Swapped pages in the aligned 2 MiB chunk at `chunk_addr`.
    pub fn chunk_nr_swapped(&self, chunk_addr: u64) -> u64 {
        self.nr_swapped_in(&AddrRange::new(chunk_addr, chunk_addr + HUGE_PAGE_SIZE))
    }

    /// The pages of the aligned 2 MiB chunk at `chunk_addr` that are not
    /// resident, ascending: the clear bits of its `resident` words, or
    /// every page of a chunk never materialised.
    pub(crate) fn chunk_holes(&self, chunk_addr: u64) -> impl Iterator<Item = u64> + '_ {
        let chunk = self.chunks[self.slot(chunk_addr)].as_deref();
        let word = move |w: usize| chunk.map_or(u64::MAX, |c| !c.resident[w]);
        (0..PT_WORDS)
            .flat_map(move |w| bits(word(w)).map(move |b| w * 64 + b))
            .map(move |pi| chunk_addr + pi as u64 * PAGE_SIZE)
    }

    // ---- huge-page chunk bookkeeping -------------------------------

    /// Whether the page at `addr` is huge-mapped: it is inside the VMA and
    /// its chunk slot is flagged.
    pub fn is_huge(&self, addr: u64) -> bool {
        self.range.contains(addr) && self.huge[self.slot(addr)]
    }

    /// Mark the aligned 2 MiB chunk at `chunk_addr` huge (true) or split
    /// (false). Returns the previous state, or `None`, changing nothing,
    /// unless the VMA covers the chunk whole.
    pub fn set_huge(&mut self, chunk_addr: u64, huge: bool) -> Option<bool> {
        let whole = chunk_addr.is_multiple_of(HUGE_PAGE_SIZE)
            && self.range.start <= chunk_addr
            && chunk_addr + HUGE_PAGE_SIZE <= self.range.end;
        let slot = whole.then(|| self.slot(chunk_addr))?;
        Some(std::mem::replace(&mut self.huge[slot], huge))
    }

    /// Iterate addresses of all aligned 2 MiB chunks inside `range ∩ vma`.
    pub fn chunks_in(&self, range: &AddrRange) -> impl Iterator<Item = u64> + use<> {
        let isect = self.range.intersect(range).unwrap_or(AddrRange::empty());
        let first = huge_align_up(isect.start);
        (first..huge_align_down(isect.end).max(first)).step_by(HUGE_PAGE_SIZE as usize)
    }

    /// Bytes of this VMA currently mapped by huge chunks.
    pub fn huge_bytes(&self) -> u64 {
        self.huge.iter().filter(|h| **h).count() as u64 * HUGE_PAGE_SIZE
    }

    /// The layout invariant: `Err` says which chunk word breaks it unless
    /// every chunk is in canonical form ("PTE layout" in the module docs).
    pub fn check_layout(&self) -> Result<(), String> {
        for (slot, c) in self.chunks.iter().enumerate() {
            let Some(c) = c.as_deref() else { continue };
            for w in 0..PT_WORDS {
                if c.resident[w] & c.swapped[w] != 0 {
                    return Err(format!("chunk {slot} word {w}: a page is resident and swapped"));
                }
                let pages = c.pages.get();
                if bits(!(c.resident[w] | c.swapped[w])).any(|b| pages[w * 64 + b].backing != 0) {
                    return Err(format!("chunk {slot} word {w}: an unmapped page keeps a backing"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MmError;
    use daos_util::prop::{any_bool, vec_of, Just, StrategyExt};
    use daos_util::{one_of, prop_assert, prop_assert_eq, proptest};

    fn mb(n: u64) -> u64 {
        n << 20
    }

    #[test]
    fn chunk_is_at_most_6656_bytes() {
        assert!(std::mem::size_of::<PteChunk>() <= 6_656, "{}", std::mem::size_of::<PteChunk>());
    }

    #[test]
    fn vma_pte_indexing() {
        let mut vma = Vma::new(AddrRange::new(mb(4), mb(8)), ThpMode::Never);
        vma.with_pte(mb(4), |p| p.accessed = true);
        assert!(vma.pte(mb(4)).accessed);
        assert!(!vma.pte(mb(4) + PAGE_SIZE).accessed);
        assert_eq!(vma.nr_resident(), 0);
    }

    #[test]
    fn fresh_vma_materialises_no_chunks() {
        let vma = Vma::new(AddrRange::new(0, mb(512)), ThpMode::Never);
        assert!(vma.chunks.iter().all(|c| c.is_none()), "page table starts empty");
        // Reading any PTE stays allocation-free.
        assert_eq!(vma.pte(mb(100)).state, PteState::None);
    }

    #[test]
    fn probe_without_change_stays_sparse() {
        let mut vma = Vma::new(AddrRange::new(0, mb(8)), ThpMode::Never);
        // A monitor-style check of an untouched page must not materialise.
        let was = vma.with_pte(mb(3), |p| {
            let was = p.accessed;
            p.accessed = false;
            was
        });
        assert!(!was);
        assert!(!vma.clear_accessed(mb(5)), "the in-place flag write reads an absent chunk as clear");
        assert!(vma.chunks.iter().all(|c| c.is_none()));
        vma.with_pte(mb(5), |p| p.accessed = true);
        assert!(vma.clear_accessed(mb(5)) && !vma.pte(mb(5)).accessed);
    }

    #[test]
    fn counters_track_state_transitions() {
        let mut vma = Vma::new(AddrRange::new(mb(1), mb(5)), ThpMode::Never);
        let a = mb(1);
        let b = mb(3) + 17 * PAGE_SIZE;
        vma.with_pte(a, |p| p.state = PteState::Resident(7));
        vma.with_pte(b, |p| p.state = PteState::Resident(8));
        assert_eq!(vma.nr_resident(), 2);
        assert_eq!(vma.nr_swapped(), 0);
        vma.with_pte(a, |p| p.state = PteState::Swapped(SwapSlot(0)));
        assert_eq!(vma.nr_resident(), 1);
        assert_eq!(vma.nr_swapped(), 1);
        vma.with_pte(a, |p| p.state = PteState::None);
        vma.with_pte(b, |p| p.state = PteState::None);
        assert_eq!(vma.nr_resident(), 0);
        assert_eq!(vma.nr_swapped(), 0);
        vma.check_layout().unwrap();
    }

    #[test]
    fn touch_resident_fast_path() {
        let mut vma = Vma::new(AddrRange::new(0, mb(4)), ThpMode::Never);
        assert!(!vma.touch_resident(mb(1)), "hole: fault path");
        assert!(vma.chunks.iter().all(|c| c.is_none()), "miss must not materialise");
        vma.with_pte(mb(1), |p| p.state = PteState::Resident(3));
        assert!(vma.touch_resident(mb(1)));
        let pte = vma.pte(mb(1));
        assert!(pte.accessed && pte.touched, "touch sets the accessed and touched bits");
        vma.check_layout().unwrap();
    }

    #[test]
    fn collect_resident_skips_empty_spans() {
        // 8 MiB VMA; make exactly two pages resident, far apart.
        let mut vma = Vma::new(AddrRange::new(0, mb(8)), ThpMode::Never);
        for (i, addr) in [(1u32, mb(1)), (2u32, mb(7) + 3 * PAGE_SIZE)] {
            vma.with_pte(addr, |p| p.state = PteState::Resident(i));
        }
        let mut out = Vec::new();
        vma.collect_resident_in(&AddrRange::new(0, mb(8)), &mut out);
        assert_eq!(out, vec![mb(1), mb(7) + 3 * PAGE_SIZE]);
        out.clear();
        vma.collect_resident_in(&AddrRange::new(mb(2), mb(6)), &mut out);
        assert!(out.is_empty());
        vma.check_layout().unwrap();
    }

    #[test]
    fn collect_swapped_finds_swap_entries() {
        let mut vma = Vma::new(AddrRange::new(mb(2), mb(6)), ThpMode::Never);
        vma.with_pte(mb(3), |p| p.state = PteState::Swapped(SwapSlot(9)));
        let mut out = Vec::new();
        vma.collect_swapped_in(&AddrRange::new(0, u64::MAX), &mut out);
        assert_eq!(out, vec![mb(3)]);
        out.clear();
        vma.collect_swapped_in(&AddrRange::new(mb(4), mb(6)), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_counters_align_with_thp_chunks() {
        // Unaligned VMA: [1 MiB, 6 MiB); THP chunks are [2,4) and [4,6).
        let mut vma = Vma::new(AddrRange::new(mb(1), mb(6)), ThpMode::Always);
        vma.with_pte(mb(2) + 5 * PAGE_SIZE, |p| p.state = PteState::Resident(1));
        vma.with_pte(mb(3), |p| p.state = PteState::Resident(2));
        vma.with_pte(mb(4), |p| p.state = PteState::Swapped(SwapSlot(1)));
        assert_eq!(vma.chunk_nr_resident(mb(2)), 2);
        assert_eq!(vma.chunk_nr_swapped(mb(2)), 0);
        assert_eq!(vma.chunk_nr_resident(mb(4)), 0);
        assert_eq!(vma.chunk_nr_swapped(mb(4)), 1);
    }

    fn nr_chunks(vma: &Vma) -> usize {
        vma.chunks_in(&AddrRange::new(0, u64::MAX)).count()
    }

    #[test]
    fn chunk_accounting_aligned_vma() {
        let vma = Vma::new(AddrRange::new(mb(2), mb(8)), ThpMode::Always);
        assert_eq!(nr_chunks(&vma), 3);
        assert_eq!(vma.chunks_in(&vma.range).next(), Some(mb(2)));
    }

    #[test]
    fn chunk_accounting_unaligned_vma() {
        // [1 MiB, 6 MiB): aligned chunks are [2,4) and [4,6) → 2 chunks.
        let vma = Vma::new(AddrRange::new(mb(1), mb(6)), ThpMode::Always);
        assert_eq!(nr_chunks(&vma), 2);
        assert_eq!(vma.chunks_in(&vma.range).next(), Some(mb(2)));
    }

    #[test]
    fn tiny_vma_has_no_chunks() {
        let mut vma = Vma::new(AddrRange::new(mb(1), mb(1) + PAGE_SIZE), ThpMode::Always);
        assert_eq!(nr_chunks(&vma), 0);
        assert_eq!(vma.set_huge(0, true), None);
        assert!(!vma.is_huge(mb(1)));
    }

    #[test]
    fn thp_flags_only_on_whole_chunks_of_an_unaligned_vma() {
        // [1 MiB, 7 MiB): slots [0,2) and [6,8) are partial, [2,4) and
        // [4,6) whole. Every page resident, the chunk at 4 MiB huge.
        let mut vma = Vma::new(AddrRange::new(mb(1), mb(7)), ThpMode::Always);
        for (frame, addr) in vma.range.pages().enumerate() {
            vma.map_page(addr, frame as FrameId + 1, false);
        }
        assert_eq!(vma.set_huge(0, true), None, "partial first slot");
        assert_eq!(vma.set_huge(mb(6), true), None, "partial last slot");
        assert_eq!(vma.set_huge(mb(4), true), Some(false));
        let partial = AddrRange::new(0, mb(2)).pages().chain(AddrRange::new(mb(6), mb(8)).pages());
        for addr in partial {
            assert!(!vma.is_huge(addr), "{addr:#x} is in a partial slot");
        }
        assert!(!vma.is_huge(mb(8)), "past the last slot");
        let mut out = AccessOutcome::default();
        let mut faults = Vec::new();
        let range = vma.range;
        vma.touch_run(&range, 1, &mut faults, &mut out);
        assert!(faults.is_empty());
        assert_eq!(out.touched_pages, vma.range.nr_pages());
        assert_eq!(out.touched_huge, PAGES_PER_HUGE, "only the huge chunk's pages");
    }

    #[test]
    fn check_layout_finds_a_broken_chunk() {
        let fresh = || {
            let mut vma = Vma::new(AddrRange::new(mb(2), mb(4)), ThpMode::Never);
            vma.with_pte(mb(2), |p| p.state = PteState::Resident(5));
            vma.check_layout().unwrap();
            vma
        };
        fn chunk(vma: &mut Vma) -> &mut PteChunk {
            vma.chunks[0].as_deref_mut().unwrap()
        }

        let mut both = fresh();
        chunk(&mut both).swapped[0] |= 1;
        assert!(both.check_layout().unwrap_err().contains("resident and swapped"));

        let mut stale = fresh();
        chunk(&mut stale).pages.get_mut()[3].backing = 9;
        assert!(stale.check_layout().unwrap_err().contains("keeps a backing"));
    }

    #[test]
    fn set_huge_roundtrip() {
        let mut vma = Vma::new(AddrRange::new(mb(2), mb(8)), ThpMode::Always);
        assert_eq!(vma.set_huge(mb(4), true), Some(false));
        assert!(vma.is_huge(mb(4)));
        assert!(vma.is_huge(mb(4) + 123)); // any addr in the chunk
        assert!(!vma.is_huge(mb(2)));
        assert_eq!(vma.huge_bytes(), HUGE_PAGE_SIZE);
        assert_eq!(vma.set_huge(mb(4), false), Some(true));
        assert_eq!(vma.huge_bytes(), 0);
    }

    #[test]
    fn set_huge_outside_chunks_is_none() {
        let mut vma = Vma::new(AddrRange::new(mb(1), mb(6)), ThpMode::Always);
        // mb(0) is outside; the last partial chunk start mb(6)-… not aligned in range
        assert_eq!(vma.set_huge(0, true), None);
        assert_eq!(vma.set_huge(mb(6), true), None);
    }

    #[test]
    fn chunks_in_intersects() {
        let vma = Vma::new(AddrRange::new(mb(2), mb(10)), ThpMode::Always);
        let chunks: Vec<u64> = vma.chunks_in(&AddrRange::new(mb(3), mb(9))).collect();
        assert_eq!(chunks, vec![mb(4), mb(6)]);
        assert_eq!(nr_chunks(&vma), 4);
    }

    #[test]
    fn iter_mapped_skips_holes() {
        let mut vma = Vma::new(AddrRange::new(mb(4), mb(4) + 3 * PAGE_SIZE), ThpMode::Never);
        assert_eq!(vma.iter_mapped().count(), 0, "fresh VMA maps nothing");
        vma.with_pte(mb(4) + PAGE_SIZE, |p| p.state = PteState::Resident(1));
        vma.with_pte(mb(4) + 2 * PAGE_SIZE, |p| p.state = PteState::Swapped(SwapSlot(2)));
        let entries: Vec<(u64, PteState)> =
            vma.iter_mapped().map(|(a, p)| (a, p.state)).collect();
        assert_eq!(
            entries,
            vec![
                (mb(4) + PAGE_SIZE, PteState::Resident(1)),
                (mb(4) + 2 * PAGE_SIZE, PteState::Swapped(SwapSlot(2))),
            ]
        );
    }

    /// A copy of a frozen VMA shares every chunk's page arrays until it
    /// writes one, then owns that chunk's; the original never moves.
    #[test]
    fn a_frozen_copy_copies_a_chunks_arrays_on_its_first_write() {
        let mut vma = Vma::new(AddrRange::new(0, mb(4)), ThpMode::Never);
        vma.map_page(0, 1, true);
        vma.map_page(mb(2), 2, true);
        let owned = vma.clone();
        vma.freeze();
        assert!(vma.is_shared() && !owned.is_shared());
        assert_eq!(vma, owned);
        let mut copy = vma.clone();
        let shared = |v: &Vma, slot: usize| v.chunks[slot].as_ref()?.pages.shared.clone();
        assert!(Arc::ptr_eq(&shared(&copy, 0).unwrap(), &shared(&vma, 0).unwrap()));
        assert!(copy.touch_resident(mb(2)), "a touch writes the bitmaps only");
        assert!(shared(&copy, 1).is_some());
        assert_eq!(copy.bump_resident(mb(2), None, false), Some(2));
        assert!(shared(&copy, 0).is_some() && shared(&copy, 1).is_none());
        assert_eq!(copy.pte(0), owned.pte(0), "the untouched chunk reads through");
        assert_eq!(vma, owned, "the frozen original did not move");
        assert_ne!(copy, owned);
    }

    /// Freezing moves a chunk's page arrays into the shared block and
    /// copies nothing, and a write with no copy left takes the same
    /// block back.
    #[test]
    fn freeze_keeps_a_chunks_arrays_in_place() {
        let mut vma = Vma::new(AddrRange::new(0, mb(2)), ThpMode::Never);
        vma.map_page(0, 1, true);
        let arrays = |v: &Vma| v.chunks[0].as_ref().unwrap().pages.get() as *const PageArrays;
        let block = arrays(&vma);
        vma.freeze();
        assert!(vma.is_shared());
        assert!(std::ptr::eq(arrays(&vma), block), "moved, not copied");
        vma.map_page(PAGE_SIZE, 2, true);
        assert!(!vma.is_shared() && std::ptr::eq(arrays(&vma), block), "unwrapped, not copied");
    }

    /// Pages of the property test's VMA, `[1 MiB, 7 MiB)`: two whole
    /// chunks between two partial ones.
    const PROP_PAGES: u64 = mb_pages(6);

    const fn mb_pages(n: u64) -> u64 {
        (n << 20) / PAGE_SIZE
    }

    /// A generation to queue under: none, the page's own, or a stale one.
    fn queued(pte: Pte, how: u8) -> Option<u32> {
        [None, Some(pte.lru_gen), Some(pte.lru_gen.wrapping_add(1))][how as usize % 3]
    }

    #[derive(Debug, Clone)]
    enum PageOp {
        /// Map the first `.1` non-resident pages from page `.0`, by the
        /// CPU or not.
        Fault(u64, u64, bool),
        /// `reclaim_page` on the resident page `.0` picks, queued as `.1`
        /// says ([`queued`]), its store failing when `.2`.
        Reclaim(u64, u8, bool),
        /// `pageout_in` over `.1` pages from page `.0`, its store failing
        /// after `.2` slots.
        Pageout(u64, u64, u8),
        /// `bump_resident` on the resident page `.0` picks, queued as `.1`
        /// says, clearing `accessed` when `.2`.
        Bump(u64, u8, bool),
        /// Flag the whole chunk `.0` picks huge, then split it when `.1`.
        Huge(u64, bool),
        /// `touch_run` over `.1` pages from page `.0` at stride `.2`.
        Touch(u64, u64, u32),
        /// `touch_resident` on page `.0`.
        TouchOne(u64),
        /// The monitor's `access`: page `.0`'s accessed bit, then clear
        /// page `.1`'s.
        Access(u64, u64),
        /// Freeze the VMA and go on with a copy of it, keeping the frozen
        /// original when `.0` (else the copy is the arrays' last holder).
        Freeze(bool),
    }

    /// What an op returned, to compare between the two VMAs.
    fn apply(vma: &mut Vma, op: &PageOp, oracle: &Vma, next: &mut u32) -> String {
        let page = |i: u64| mb(1) + (i % PROP_PAGES) * PAGE_SIZE;
        let resident = |pick: u64| {
            let mut out = Vec::new();
            oracle.collect_resident_in(&oracle.range, &mut out);
            out.get(pick as usize % out.len().max(1)).copied().unwrap_or(page(pick))
        };
        let mut slot = || {
            *next += 1;
            *next
        };
        match *op {
            PageOp::Fault(at, nr, by_cpu) => {
                let pages = (at..at + PROP_PAGES).map(page);
                let free: Vec<u64> =
                    pages.filter(|&a| !oracle.pte(a).is_resident()).take(nr as usize).collect();
                let gens: Vec<u32> =
                    free.into_iter().map(|addr| vma.map_page(addr, slot(), by_cpu)).collect();
                format!("{gens:?}")
            }
            PageOp::Reclaim(pick, how, fails) => {
                let addr = resident(pick);
                let gen = queued(oracle.pte(addr), how);
                let store = || if fails { Err(MmError::SwapFull) } else { Ok(SwapSlot(slot())) };
                format!("{:?}", vma.reclaim_page(addr, gen, store))
            }
            PageOp::Pageout(at, len, ok) => {
                let range = AddrRange::new(page(at), (page(at) + len * PAGE_SIZE).min(mb(7)));
                let (mut evicted, mut stored) = (Vec::new(), 0);
                let store = || {
                    stored += 1;
                    if stored > ok { Err(MmError::SwapFull) } else { Ok(SwapSlot(slot())) }
                };
                let result = vma.pageout_in(&range, &mut evicted, store);
                format!("{result:?} {evicted:?}")
            }
            PageOp::Bump(pick, how, clear) => {
                let addr = resident(pick);
                format!("{:?}", vma.bump_resident(addr, queued(oracle.pte(addr), how), clear))
            }
            PageOp::Huge(pick, split) => {
                let chunk = mb(2) + (pick % 2) * HUGE_PAGE_SIZE;
                let was = vma.set_huge(chunk, true);
                let mut freed = Vec::new();
                if split {
                    vma.split_huge(chunk, &mut freed);
                }
                format!("{was:?} {freed:?}")
            }
            PageOp::Touch(at, len, stride) => {
                let range = AddrRange::new(page(at), page(at) + len * PAGE_SIZE);
                let (mut faults, mut out) = (Vec::new(), AccessOutcome::default());
                vma.touch_run(&range, stride, &mut faults, &mut out);
                format!("{faults:?} {} {}", out.touched_pages, out.touched_huge)
            }
            PageOp::TouchOne(at) => format!("{}", vma.touch_resident(page(at))),
            PageOp::Access(old, new) => format!("{}", vma.access(Some(page(old)), Some(page(new)))),
            PageOp::Freeze(_) => String::new(),
        }
    }

    proptest! {
        cases = 128;

        // The page-table twin of the LRU's
        // `queue_matches_a_deque_across_freezes`: whatever faults,
        // reclaims, pageouts, generation bumps, splits, touches and access
        // checks a VMA takes, frozen at random points and carried on in a
        // copy, every op returns what it returns on a VMA that was never
        // frozen, the two stay equal and in canonical form, and a frozen
        // VMA is left exactly as it was frozen by everything its copies do.
        fn page_table_matches_an_unfrozen_one_across_freezes(
            ops in vec_of(
                one_of![
                    (0..PROP_PAGES, 1u64..300, any_bool())
                        .prop_map(|(at, nr, cpu)| PageOp::Fault(at, nr, cpu)),
                    (0..PROP_PAGES, 0u8..3, any_bool())
                        .prop_map(|(pick, how, fails)| PageOp::Reclaim(pick, how, fails)),
                    (0..PROP_PAGES, 1u64..700, 0u8..40)
                        .prop_map(|(at, len, ok)| PageOp::Pageout(at, len, ok)),
                    (0..PROP_PAGES, 0u8..3, any_bool())
                        .prop_map(|(pick, how, clear)| PageOp::Bump(pick, how, clear)),
                    (0u64..2, any_bool()).prop_map(|(pick, split)| PageOp::Huge(pick, split)),
                    (0..PROP_PAGES, 1u64..1100, 1u32..80)
                        .prop_map(|(at, len, stride)| PageOp::Touch(at, len, stride)),
                    (0..PROP_PAGES).prop_map(PageOp::TouchOne),
                    (0..PROP_PAGES, 0..PROP_PAGES).prop_map(|(old, new)| PageOp::Access(old, new)),
                    any_bool().prop_map(PageOp::Freeze),
                    Just(PageOp::Fault(0, 64, true)),
                ],
                0..120,
            ),
        ) {
            let range = AddrRange::new(mb(1), mb(7));
            let mut vma = Vma::new(range, ThpMode::Always);
            let mut oracle = vma.clone();
            let (mut next, mut next_oracle) = (0, 0);
            let mut frozen: Vec<(Vma, Vma)> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                if let PageOp::Freeze(keep) = *op {
                    vma.freeze();
                    let all_shared = vma.chunks.iter().flatten().all(|c| c.pages.own.is_none());
                    prop_assert!(all_shared, "a frozen VMA shares every chunk");
                    let copy = vma.clone();
                    if keep {
                        frozen.push((std::mem::replace(&mut vma, copy), oracle.clone()));
                    } else {
                        vma = copy;
                    }
                }
                let got = apply(&mut vma, op, &oracle, &mut next);
                let snapshot = oracle.clone();
                let want = apply(&mut oracle, op, &snapshot, &mut next_oracle);
                prop_assert_eq!(got, want, "op {i}: {op:?}");
                prop_assert!(vma == oracle, "after op {i}: {op:?}");
                prop_assert_eq!(vma.check_layout(), Ok(()));
            }
            for (image, state) in frozen {
                prop_assert!(image == state, "a frozen VMA moved");
            }
        }
    }
}
