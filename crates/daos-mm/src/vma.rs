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
//! The VMA keeps running totals of resident and swapped pages; a chunk's
//! own counts are the popcounts of its bitmaps, taken when asked for
//! ([`Vma::chunk_nr_resident`]). Scans for resident or swapped pages
//! ([`Vma::collect_resident_in`], [`Vma::collect_swapped_in`]) skip
//! missing chunks and, inside a chunk, every 64-page word with no bit set
//! — and so does a scheme's pageout ([`Vma::pageout_in`]), so paging out an
//! already-evicted region is O(words touched), not O(pages in range).
//! The totals are kept exact by whoever changes a
//! page's state — the transition primitives below, and the tests' general
//! setter [`Vma::with_pte`]; the two touch paths ([`Vma::touch_run`],
//! [`Vma::touch_resident`]) only set bits of resident pages, and the
//! monitor's check ([`Vma::clear_accessed`]) only clears one, so they write
//! in place and leave the totals alone.
//!
//! ## State transitions
//!
//! Every library path — fault, reclaim, a scheme's pageout, LRU, THP
//! promotion and demotion — changes a page's state through five
//! primitives, each one resolve of the chunk (a range's worth for
//! `pageout_in`), bit operations on the four bitmaps, writes to
//! `backing`/`lru_gen`, and the VMA totals moved by exactly what the
//! transitions move:
//!
//! * [`Vma::map_page`] — `None | Swapped → Resident(frame)`, for a fault
//!   (mapped accessed and touched), or a prefetch or a promotion's filler
//!   (neither). Materialises the chunk. May assume the page is not
//!   resident (asserted in debug builds) and nothing else: it overwrites
//!   both state bits, both flags and the backing, so whatever a stale
//!   entry held is gone. A promotion maps each hole of the chunk
//!   (`Vma::chunk_holes`, read off its `resident` words) with it.
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
//!   everything, their `accessed` bits included — the referenced mask is
//!   cut below the failing bit — as the per-page loop left them when it
//!   broke off.
//! * [`Vma::split_huge`] — a huge chunk back to base pages: the huge flag
//!   cleared and, a word at a time, every `resident & !touched` page to
//!   `None` with `accessed` clear, its generation bumped and its frame
//!   handed to the caller, ascending.
//!
//! None of them materialises a chunk it does not map a page into, so a
//! probe of untouched memory stays allocation-free. [`Vma::with_pte`] —
//! load the page as a [`Pte`], run a closure, scatter it back in
//! canonical form, account the difference — is no library path's: it is
//! the tests' setter for any state, and `tests/walker_differential.rs`
//! holds each primitive to the `with_pte` closure it replaced (and
//! `pageout_in` to `reclaim_page` looped over the resident pages).
//!
//! ## PTE layout
//!
//! A chunk is structure-of-arrays. The four things a page *is* — resident,
//! swapped, accessed, touched — are four bitmaps of eight `u64` words, one
//! bit per page; what a page *has* sits beside them in two per-page
//! arrays: `backing` (the frame id of a resident page, the swap slot of
//! a swapped one, both 32 bits) and the LRU generation — 4,352 bytes per
//! 512 pages, which is what stamping a fleet shard copies per chunk.
//! [`Pte`] is the by-value view of one page that `get` assembles and
//! `set` scatters back; nothing stores one. The commonest thing a
//! workload does — re-touching resident pages — and every scan for them
//! therefore reads and writes words, 64 pages at a time, and never the
//! per-page arrays.
//!
//! A chunk is kept in canonical form, which [`Vma::check_counters`]
//! recounts: `resident` and `swapped` are disjoint, a page in neither has
//! `backing == 0`, and the VMA totals equal the popcounts. Derived equality
//! on [`Vma`] is then a logical comparison (a shard stamped from an image
//! equals one built separately). `accessed`, `touched` and the generation
//! are stored as written whatever the state, exactly as the fields of a
//! stored `Pte` would be.
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
//! an unaligned VMA's ends); a non-resident page is pushed on the fault
//! list, in visit order, without being changed; an unmaterialised chunk
//! queues its whole span without reading a PTE. No state changes, so no
//! counter moves and no chunk is materialised.
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
//! fault list is in visit order — the order the per-page loop pushed them.
//!
//! *The whole-chunk path.* Most of a run is whole chunks: at a stride that
//! divides 64, a chunk entered at a page `lo < stride` and left at its end
//! has the one visit mask `pattern << lo` in all eight words, so the walk
//! is a fixed eight-word body — `hit = resident & visit`, or-ed into
//! `accessed` and `touched`, popcounted — with no mask array to build. The
//! fault list is built in a second pass, and only when the count falls
//! short of eight times the mask's popcount: some visited page is not
//! resident. The chunk advance is a shift (a stride that divides 64 is a
//! power of two). A partial chunk — the run's first and last, an
//! unaligned VMA's ends — and every other stride take the general path
//! above.
//! A word operation may assume only what the canonical form gives it: a
//! bit of `resident` is a page with a frame, whatever its other bits say.
//!
//! A flag write still bypasses [`Vma::with_pte`]: setting or clearing
//! `accessed`/`touched` moves no residency counter, and on an absent chunk
//! there is no resident page to touch and no set bit to clear, so neither
//! the load → `f` → store → account round trip nor a materialisation
//! could change anything the in-place word write does not.

use crate::access::AccessOutcome;
use crate::addr::{
    huge_align_down, huge_align_up, AddrRange, HUGE_PAGE_SIZE, PAGES_PER_HUGE, PAGE_SHIFT,
    PAGE_SIZE,
};
use crate::error::MmResult;
use crate::frame::FrameId;
use crate::process::{swap_sample, SampleColumns};
use crate::swap::SwapSlot;

/// Pages per page-table chunk (one chunk = one aligned 2 MiB span).
pub const PT_CHUNK_PAGES: usize = PAGES_PER_HUGE as usize;
/// 64-page words per chunk bitmap.
const PT_WORDS: usize = PT_CHUNK_PAGES / 64;

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

/// One materialised 2 MiB span of the page table, structure-of-arrays
/// (see "PTE layout" in the module docs). Bit `pi % 64` of word `pi / 64`
/// is page `pi`.
#[derive(Debug, Clone, PartialEq)]
struct PteChunk {
    resident: [u64; PT_WORDS],
    swapped: [u64; PT_WORDS],
    accessed: [u64; PT_WORDS],
    touched: [u64; PT_WORDS],
    /// Frame id of a resident page, swap slot of a swapped one, else 0.
    backing: [u32; PT_CHUNK_PAGES],
    lru_gen: [u32; PT_CHUNK_PAGES],
}

impl PteChunk {
    fn new() -> Box<Self> {
        Box::new(PteChunk {
            resident: [0; PT_WORDS],
            swapped: [0; PT_WORDS],
            accessed: [0; PT_WORDS],
            touched: [0; PT_WORDS],
            backing: [0; PT_CHUNK_PAGES],
            lru_gen: [0; PT_CHUNK_PAGES],
        })
    }

    /// Page `pi`, assembled.
    #[inline]
    fn get(&self, pi: usize) -> Pte {
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        let state = if self.resident[w] & bit != 0 {
            PteState::Resident(self.backing[pi])
        } else if self.swapped[w] & bit != 0 {
            PteState::Swapped(SwapSlot(self.backing[pi]))
        } else {
            PteState::None
        };
        Pte {
            state,
            accessed: self.accessed[w] & bit != 0,
            touched: self.touched[w] & bit != 0,
            lru_gen: self.lru_gen[pi],
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
        self.backing[pi] = backing;
        self.lru_gen[pi] = pte.lru_gen;
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

/// Set bits in one of a chunk's bitmaps.
fn popcount(words: &[u64; PT_WORDS]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
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
    /// Running count of resident PTEs across all chunks.
    total_resident: u64,
    /// Running count of swapped PTEs across all chunks.
    total_swapped: u64,
    /// Per-aligned-2 MiB-chunk huge flag. Chunk 0 starts at
    /// `huge_align_up(range.start)`.
    huge: Vec<bool>,
}

impl Vma {
    /// Create a VMA over `range` (must be page-aligned and non-empty).
    pub fn new(range: AddrRange, thp: ThpMode) -> Self {
        debug_assert!(range.start.is_multiple_of(PAGE_SIZE) && range.end.is_multiple_of(PAGE_SIZE));
        debug_assert!(!range.is_empty());
        let nr_slots =
            ((huge_align_up(range.end) - huge_align_down(range.start)) / HUGE_PAGE_SIZE) as usize;
        let nr_chunks = Self::nr_aligned_chunks(&range);
        Self {
            range,
            thp,
            chunks: (0..nr_slots).map(|_| None).collect(),
            total_resident: 0,
            total_swapped: 0,
            huge: vec![false; nr_chunks],
        }
    }

    fn nr_aligned_chunks(range: &AddrRange) -> usize {
        let start = huge_align_up(range.start);
        let end = huge_align_down(range.end);
        if start >= end {
            0
        } else {
            ((end - start) / HUGE_PAGE_SIZE) as usize
        }
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

    /// The PTE covering `addr`, by value (missing chunks read as empty).
    #[inline]
    pub fn pte(&self, addr: u64) -> Pte {
        match &self.chunks[self.slot(addr)] {
            Some(c) => c.get(Self::page_in_chunk(addr)),
            None => Pte::EMPTY,
        }
    }

    /// Read-modify-write the PTE covering `addr` through `f`, keeping the
    /// VMA residency totals exact. The chunk is materialised
    /// only if `f` actually changes the entry, so probing an untouched
    /// page stays allocation-free. The tests' setter for any page state:
    /// the library changes pages only through the transition primitives
    /// (see the module docs).
    pub fn with_pte<R>(&mut self, addr: u64, f: impl FnOnce(&mut Pte) -> R) -> R {
        let slot = self.slot(addr);
        let pi = Self::page_in_chunk(addr);
        if let Some(c) = &mut self.chunks[slot] {
            let mut pte = c.get(pi);
            let before = pte.state;
            let r = f(&mut pte);
            c.set(pi, pte);
            self.account(before, pte.state);
            r
        } else {
            let mut pte = Pte::EMPTY;
            let r = f(&mut pte);
            if pte != Pte::EMPTY {
                self.chunks[slot].insert(PteChunk::new()).set(pi, pte);
                self.account(PteState::None, pte.state);
            }
            r
        }
    }

    /// Whether the page at `addr` is resident at generation `gen`: an LRU
    /// entry stamped `gen` is live. The generation is read first — a stale
    /// entry mostly fails there, on one cache line.
    #[inline]
    pub(crate) fn is_resident_at(&self, addr: u64, gen: u32) -> bool {
        let Some(c) = self.chunks[self.slot(addr)].as_deref() else { return false };
        let pi = Self::page_in_chunk(addr);
        c.lru_gen[pi] == gen && c.resident[pi / 64] & (1 << (pi % 64)) != 0
    }

    /// Clear the accessed bit of the page at `addr`; returns whether it was
    /// set. A flag write moves no residency counter and an unmaterialised
    /// chunk holds no set bit, so this writes the bit in place — what
    /// [`Vma::with_pte`] would conclude after its accounting.
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
    /// `new`'s ([`Self::access`]: a chunk-word read and a chunk-word
    /// write). The one test of the VMA per region is the loop's exit, `end
    /// ≤ range.end`: a region that ends inside the VMA also starts in it
    /// (the first does, and regions ascend), and so do its samples. Returns
    /// how many regions it swept and adds their checks to `checks`.
    #[inline]
    pub(crate) fn sweep_run(
        &mut self,
        cols: SampleColumns<'_>,
        next: &mut impl FnMut(u64, u64) -> u64,
        checks: &mut u64,
    ) -> usize {
        let end_of_vma = self.range.end;
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
        swept
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
            let huge = self.is_huge(chunk_base);
            let slot = self.slot(addr);
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
    /// mapped accessed and touched) or a prefetch (neither). Returns the
    /// page's new generation. The page must not be resident.
    pub fn map_page(&mut self, addr: u64, frame: FrameId, by_cpu: bool) -> u32 {
        let slot = self.slot(addr);
        let c = self.chunks[slot].get_or_insert_with(PteChunk::new);
        let pi = Self::page_in_chunk(addr);
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        debug_assert_eq!(c.resident[w] & bit, 0, "map_page over a resident page");
        let was_swapped = c.swapped[w] & bit != 0;
        c.resident[w] |= bit;
        c.swapped[w] &= !bit;
        let flag = if by_cpu { bit } else { 0 };
        c.accessed[w] = (c.accessed[w] & !bit) | flag;
        c.touched[w] = (c.touched[w] & !bit) | flag;
        c.backing[pi] = frame;
        c.lru_gen[pi] = c.lru_gen[pi].wrapping_add(1);
        let gen = c.lru_gen[pi];
        self.total_resident += 1;
        self.total_swapped -= was_swapped as u64;
        gen
    }

    /// Requeue a resident page: bump its generation (invalidating every
    /// queued LRU entry) and return the new one, clearing the accessed bit
    /// when `clear_accessed` (deactivation ages the page). `None`, and
    /// nothing written, when the page is not resident or — given
    /// `queued_gen`, the stamp of the LRU entry being revalidated — was
    /// queued under another generation.
    pub fn bump_resident(
        &mut self,
        addr: u64,
        queued_gen: Option<u32>,
        clear_accessed: bool,
    ) -> Option<u32> {
        let slot = self.slot(addr);
        let c = self.chunks[slot].as_deref_mut()?;
        let pi = Self::page_in_chunk(addr);
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        if c.resident[w] & bit == 0 || queued_gen.is_some_and(|gen| gen != c.lru_gen[pi]) {
            return None;
        }
        if clear_accessed {
            c.accessed[w] &= !bit;
        }
        c.lru_gen[pi] = c.lru_gen[pi].wrapping_add(1);
        Some(c.lru_gen[pi])
    }

    /// Judge one reclaim candidate and, when it is cold, evict it —
    /// `Resident → Swapped(store()?)` — in the same resolve.
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
    pub fn reclaim_page(
        &mut self,
        addr: u64,
        lru_gen: Option<u32>,
        store: impl FnOnce() -> MmResult<SwapSlot>,
    ) -> MmResult<Reclaimed> {
        let slot = self.slot(addr);
        let Some(c) = self.chunks[slot].as_deref_mut() else { return Ok(Reclaimed::Stale) };
        let pi = Self::page_in_chunk(addr);
        let (w, bit) = (pi / 64, 1u64 << (pi % 64));
        if c.resident[w] & bit == 0 || lru_gen.is_some_and(|gen| gen != c.lru_gen[pi]) {
            return Ok(Reclaimed::Stale);
        }
        if lru_gen.is_some() {
            c.lru_gen[pi] = c.lru_gen[pi].wrapping_add(1);
        }
        if c.accessed[w] & bit != 0 {
            c.accessed[w] &= !bit;
            return Ok(Reclaimed::Referenced(c.lru_gen[pi]));
        }
        let swap_slot = store()?;
        let frame = c.backing[pi];
        c.resident[w] &= !bit;
        c.swapped[w] |= bit;
        c.touched[w] &= !bit;
        c.backing[pi] = swap_slot.0;
        c.lru_gen[pi] = c.lru_gen[pi].wrapping_add(1);
        self.total_resident -= 1;
        self.total_swapped += 1;
        Ok(Reclaimed::Evicted(frame))
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
        if self.total_resident == 0 {
            return Ok(());
        }
        let (before, mut result) = (evicted.len(), Ok(()));
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
                    let pi = w * 64 + b;
                    evicted.push((chunk_base + pi as u64 * PAGE_SIZE, c.backing[pi]));
                    c.backing[pi] = swap_slot.0;
                    c.lru_gen[pi] = c.lru_gen[pi].wrapping_add(1);
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
        let nr = (evicted.len() - before) as u64;
        self.total_resident -= nr;
        self.total_swapped += nr;
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
        let before = freed.len();
        for w in 0..PT_WORDS {
            let filler = c.resident[w] & !c.touched[w];
            c.resident[w] &= !filler;
            c.accessed[w] &= !filler;
            for pi in bits(filler).map(|b| w * 64 + b) {
                freed.push(std::mem::take(&mut c.backing[pi]));
                c.lru_gen[pi] = c.lru_gen[pi].wrapping_add(1);
            }
        }
        self.total_resident -= (freed.len() - before) as u64;
    }

    /// Totals fixup for one PTE state transition.
    fn account(&mut self, before: PteState, after: PteState) {
        let res = |s: &PteState| matches!(s, PteState::Resident(_)) as i64;
        let swp = |s: &PteState| matches!(s, PteState::Swapped(_)) as i64;
        self.total_resident = (self.total_resident as i64 + res(&after) - res(&before)) as u64;
        self.total_swapped = (self.total_swapped as i64 + swp(&after) - swp(&before)) as u64;
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

    /// Number of resident pages (RSS contribution). O(1).
    #[inline]
    pub fn nr_resident(&self) -> usize {
        self.total_resident as usize
    }

    /// Number of swapped pages. O(1).
    #[inline]
    pub fn nr_swapped(&self) -> usize {
        self.total_swapped as usize
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
        if self.total_resident > 0 {
            self.collect_in(range, out, |c| &c.resident);
        }
    }

    /// Push the addresses of all swapped pages in `range ∩ vma` onto
    /// `out`, in address order, skipping swap-free words the same way.
    pub fn collect_swapped_in(&self, range: &AddrRange, out: &mut Vec<u64>) {
        if self.total_swapped > 0 {
            self.collect_in(range, out, |c| &c.swapped);
        }
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

    /// Pages of the aligned 2 MiB chunk at `chunk_addr` whose bit is set
    /// in the bitmap `of` picks: eight popcounts — the page-table chunk
    /// grid coincides with the THP chunk grid.
    fn chunk_count(&self, chunk_addr: u64, of: impl Fn(&PteChunk) -> &[u64; PT_WORDS]) -> u64 {
        debug_assert_eq!(chunk_addr % HUGE_PAGE_SIZE, 0);
        let chunk = self.chunks.get(self.slot(chunk_addr)).and_then(|c| c.as_deref());
        chunk.map_or(0, |c| popcount(of(c)))
    }

    /// Resident pages in the aligned 2 MiB chunk at `chunk_addr`.
    pub fn chunk_nr_resident(&self, chunk_addr: u64) -> u64 {
        self.chunk_count(chunk_addr, |c| &c.resident)
    }

    /// Swapped pages in the aligned 2 MiB chunk at `chunk_addr`.
    pub fn chunk_nr_swapped(&self, chunk_addr: u64) -> u64 {
        self.chunk_count(chunk_addr, |c| &c.swapped)
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

    /// Address of the first 2 MiB-aligned chunk, if any fits.
    pub fn first_chunk_addr(&self) -> Option<u64> {
        let start = huge_align_up(self.range.start);
        (start + HUGE_PAGE_SIZE <= self.range.end).then_some(start)
    }

    /// Chunk index for a huge-aligned address inside the VMA.
    fn chunk_idx(&self, chunk_addr: u64) -> Option<usize> {
        let first = self.first_chunk_addr()?;
        if chunk_addr < first || chunk_addr + HUGE_PAGE_SIZE > self.range.end {
            return None;
        }
        debug_assert_eq!(chunk_addr % HUGE_PAGE_SIZE, 0);
        Some(((chunk_addr - first) / HUGE_PAGE_SIZE) as usize)
    }

    /// Whether the aligned chunk at `chunk_addr` is currently huge-mapped.
    pub fn is_huge(&self, chunk_addr: u64) -> bool {
        self.chunk_idx(huge_align_down(chunk_addr))
            .map(|i| self.huge[i])
            .unwrap_or(false)
    }

    /// Mark a chunk huge (true) or split (false). Returns previous state,
    /// or `None` if no aligned chunk exists there.
    pub fn set_huge(&mut self, chunk_addr: u64, huge: bool) -> Option<bool> {
        let i = self.chunk_idx(chunk_addr)?;
        Some(std::mem::replace(&mut self.huge[i], huge))
    }

    /// Iterate addresses of all aligned 2 MiB chunks inside `range ∩ vma`.
    pub fn chunks_in(&self, range: &AddrRange) -> impl Iterator<Item = u64> + '_ {
        let isect = self.range.intersect(range).unwrap_or(AddrRange::empty());
        let first = huge_align_up(isect.start);
        let last = huge_align_down(isect.end);
        (first..last.max(first))
            .step_by(HUGE_PAGE_SIZE as usize)
            .filter(move |a| self.chunk_idx(*a).is_some())
    }

    /// Bytes of this VMA currently mapped by huge chunks.
    pub fn huge_bytes(&self) -> u64 {
        self.huge.iter().filter(|h| **h).count() as u64 * HUGE_PAGE_SIZE
    }

    /// The layout invariant, recounted: `Err` says what is wrong unless
    /// every chunk is in canonical form ("PTE layout" in the module docs)
    /// and the running totals match a recount from the bitmaps.
    pub fn check_counters(&self) -> Result<(), String> {
        let (mut resident, mut swapped) = (0u64, 0u64);
        for (slot, c) in self.chunks.iter().enumerate() {
            let Some(c) = c.as_deref() else { continue };
            for w in 0..PT_WORDS {
                if c.resident[w] & c.swapped[w] != 0 {
                    return Err(format!("chunk {slot} word {w}: a page is resident and swapped"));
                }
                if bits(!(c.resident[w] | c.swapped[w])).any(|b| c.backing[w * 64 + b] != 0) {
                    return Err(format!("chunk {slot} word {w}: an unmapped page keeps a backing"));
                }
            }
            resident += popcount(&c.resident);
            swapped += popcount(&c.swapped);
        }
        if (self.total_resident, self.total_swapped) != (resident, swapped) {
            let kept = (self.total_resident, self.total_swapped);
            return Err(format!("totals {kept:?}, the bitmaps hold {:?}", (resident, swapped)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        vma.check_counters().unwrap();
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
        vma.check_counters().unwrap();
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
        vma.check_counters().unwrap();
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
        assert_eq!(vma.first_chunk_addr(), Some(mb(2)));
    }

    #[test]
    fn chunk_accounting_unaligned_vma() {
        // [1 MiB, 6 MiB): aligned chunks are [2,4) and [4,6) → 2 chunks.
        let vma = Vma::new(AddrRange::new(mb(1), mb(6)), ThpMode::Always);
        assert_eq!(nr_chunks(&vma), 2);
        assert_eq!(vma.first_chunk_addr(), Some(mb(2)));
    }

    #[test]
    fn tiny_vma_has_no_chunks() {
        let vma = Vma::new(AddrRange::new(mb(1), mb(1) + PAGE_SIZE), ThpMode::Always);
        assert_eq!(nr_chunks(&vma), 0);
        assert_eq!(vma.first_chunk_addr(), None);
        assert!(!vma.is_huge(mb(1)));
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
}
