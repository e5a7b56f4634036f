//! Simulated processes: VMA bookkeeping and address-space layout, and
//! the forward page-table cursor ([`PteCursor`]) accessed-bit sweeps use.

use std::ops::{Deref, DerefMut};

use crate::addr::{page_align_up, AddrRange, PAGE_SIZE, USER_ADDR_END};
use crate::clock::Ns;
use crate::error::{MmError, MmResult};
use crate::stats::ProcStats;
use crate::vma::{ThpMode, Vma};

/// Process identifier (dense index into the system's process table).
pub type Pid = u32;

/// Pids stay below this: an rmap or LRU entry packs the pid into the 29
/// bits above a page number, and the all-ones word marks a free frame.
pub const PID_LIMIT: Pid = (1 << 29) - 1;

/// Base of the simulated heap/mmap area. Leaving a gap below mirrors the
/// real layout (text/data below, then a gap, then anonymous mappings) that
/// the paper's Fig. 6 visualisation works around.
pub const MMAP_BASE: u64 = 0x1000_0000;
/// Gap left between consecutive anonymous mappings.
pub const MMAP_GAP: u64 = 16 * PAGE_SIZE;
/// Base of the far "stack-like" area, creating the large address-space gap
/// mentioned in §4.1.
pub const STACK_BASE: u64 = 0x7f00_0000_0000;

/// A simulated process: a sorted list of VMAs plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    /// This process's identifier.
    pub pid: Pid,
    /// Sorted, non-overlapping virtual memory areas.
    vmas: Vec<Vma>,
    /// Next address the bump allocator hands out for anonymous mmap.
    next_mmap: u64,
    /// Resident pages across all VMAs (maintained incrementally, through
    /// [`Self::map_pages`] and [`Self::unmap_pages`] only).
    rss_pages: u64,
    /// Virtual time up to which `stats.rss_time_integral` is integrated.
    rss_settled_at: Ns,
    /// Lifetime statistics; `rss_time_integral` is exact as of the last
    /// `settle`.
    pub stats: ProcStats,
    /// Whether the process has exited (VMAs torn down).
    pub exited: bool,
}

impl Process {
    /// Create an empty process.
    pub fn new(pid: Pid) -> Self {
        Self {
            pid,
            vmas: Vec::new(),
            next_mmap: MMAP_BASE,
            rss_pages: 0,
            rss_settled_at: 0,
            stats: ProcStats::default(),
            exited: false,
        }
    }

    /// Resident-set size in bytes.
    #[inline]
    pub fn rss_bytes(&self) -> u64 {
        self.rss_pages * PAGE_SIZE
    }

    /// Integrate RSS over the time since the last settlement, so that
    /// `stats.rss_time_integral` is exact as of `now`. RSS is constant in
    /// between — every change to it settles first — which makes the sum
    /// the one a per-clock-advance integration would have reached.
    pub(crate) fn settle(&mut self, now: Ns) {
        let since = (now - self.rss_settled_at) as u128;
        self.stats.rss_time_integral += self.rss_bytes() as u128 * since;
        self.rss_settled_at = now;
    }

    /// `nr` more pages are resident from `now` on.
    pub fn map_pages(&mut self, now: Ns, nr: u64) {
        self.settle(now);
        self.rss_pages += nr;
        self.stats.peak_rss_bytes = self.stats.peak_rss_bytes.max(self.rss_bytes());
    }

    /// `nr` fewer pages are resident from `now` on.
    pub fn unmap_pages(&mut self, now: Ns, nr: u64) {
        self.settle(now);
        self.rss_pages -= nr;
    }

    /// Map `len` bytes of anonymous memory at an allocator-chosen address.
    pub fn mmap(&mut self, len: u64, thp: ThpMode) -> MmResult<AddrRange> {
        let range = self.insert_vma(self.next_mmap, len, thp)?;
        self.next_mmap = range.end + MMAP_GAP;
        Ok(range)
    }

    /// Map `len` bytes at a fixed address (tests, stack areas).
    pub fn mmap_at(&mut self, start: u64, len: u64, thp: ThpMode) -> MmResult<AddrRange> {
        self.insert_vma(start, len, thp)
    }

    /// Map `len` bytes from the page-aligned `start`, rounded up to whole
    /// pages. A range past [`USER_ADDR_END`] is refused before its page
    /// table is sized, and one past `u64::MAX` does not wrap.
    fn insert_vma(&mut self, start: u64, len: u64, thp: ThpMode) -> MmResult<AddrRange> {
        if len == 0 {
            return Err(MmError::BadLength(0));
        }
        let end = start.saturating_add(len);
        if end > USER_ADDR_END {
            return Err(MmError::BeyondUserSpace(AddrRange::new(start, end)));
        }
        let range = AddrRange::new(start, page_align_up(end));
        let pos = self.vmas.partition_point(|v| v.range.start < range.start);
        let overlaps_prev = pos > 0 && self.vmas[pos - 1].range.overlaps(&range);
        let overlaps_next = pos < self.vmas.len() && self.vmas[pos].range.overlaps(&range);
        if overlaps_prev || overlaps_next {
            return Err(MmError::MappingOverlap(range));
        }
        self.vmas.insert(pos, Vma::new(range, thp));
        Ok(range)
    }

    /// Remove the VMA exactly covering `range`; returns it so the caller
    /// can release frames/slots. (Partial unmap is not modelled — the
    /// workloads only map and unmap whole areas.)
    pub fn take_vma(&mut self, range: AddrRange) -> MmResult<Vma> {
        let pos = self
            .vmas
            .iter()
            .position(|v| v.range == range)
            .ok_or(MmError::BadRange(range))?;
        Ok(self.vmas.remove(pos))
    }

    /// The VMA containing `addr`.
    #[inline]
    pub fn find_vma(&self, addr: u64) -> Option<&Vma> {
        let pos = self.vmas.partition_point(|v| v.range.end <= addr);
        self.vmas.get(pos).filter(|v| v.range.contains(addr))
    }

    /// Mutable variant of [`Self::find_vma`].
    #[inline]
    pub fn find_vma_mut(&mut self, addr: u64) -> Option<&mut Vma> {
        let pos = self.vmas.partition_point(|v| v.range.end <= addr);
        self.vmas.get_mut(pos).filter(|v| v.range.contains(addr))
    }

    /// [`Self::find_vma_mut`] for a caller working through neighbouring
    /// addresses: `*at`, the index of the VMA its last address fell in, is
    /// tried before the binary search and updated (see [`PteCursor`]).
    /// Kept because it pays: `fleet_wide` runs ≈ 4 % slower and sets up
    /// ≈ 21 % slower without it (DESIGN §12, derived state).
    #[inline]
    pub(crate) fn vma_near(&mut self, at: &mut usize, addr: u64) -> Option<&mut Vma> {
        seek(&self.vmas, at, addr).map(|i| &mut self.vmas[i])
    }

    /// All VMA ranges, sorted — what the virtual-address monitoring
    /// primitive reads to construct/refresh its target regions.
    pub fn vma_ranges(&self) -> Vec<AddrRange> {
        self.vmas.iter().map(|v| v.range).collect()
    }

    /// Shared iteration over VMAs.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Mutable iteration over VMAs.
    pub fn vmas_mut(&mut self) -> &mut [Vma] {
        &mut self.vmas
    }
}

/// What a sample column holds where no sample is outstanding.
pub const NO_SAMPLE: u64 = u64::MAX;

/// The columns of a monitor's region set that one sampling sweep walks:
/// region `i` is `[starts[i], ends[i])`, `samples[i]` its outstanding
/// sample — a page address, or [`NO_SAMPLE`] — and `nr_accesses[i]` its
/// access count. The regions are sorted, disjoint and page-aligned, and an
/// outstanding sample is a page of its own region: the precondition of
/// every sweep ([`Self::sweep_pairs`], [`PteCursor::sweep`]).
///
/// A sweep visits the regions in address order. For each it draws the next
/// sample, `new = next(start, end)` — a page of the region, or
/// [`NO_SAMPLE`] for a sweep with no prepare half — and swaps it in for the
/// outstanding one, `old`. Then it does the monitor's access op on the
/// pair: if `old` is a sample, `nr_accesses` counts one when its page was
/// accessed; if `new` is a sample, its page's bit is cleared. `old` is read
/// before `new` is cleared. The sweep returns its checks: the samples read
/// plus the samples cleared. [`Self::sweep_pairs`] is that definition as a
/// loop; [`PteCursor::sweep`] batches the same ops by VMA and 2 MiB chunk
/// and is held to it draw for draw and bit for bit.
#[derive(Debug)]
pub struct SampleColumns<'a> {
    pub(crate) starts: &'a [u64],
    pub(crate) ends: &'a [u64],
    pub(crate) samples: &'a mut [u64],
    pub(crate) nr_accesses: &'a mut [u32],
}

/// Swap `new` in for the outstanding sample; the pair as the access op
/// takes it, [`NO_SAMPLE`] as `None`.
#[inline(always)]
pub(crate) fn swap_sample(sample: &mut u64, new: u64) -> (Option<u64>, Option<u64>) {
    let old = std::mem::replace(sample, new);
    ((old != NO_SAMPLE).then_some(old), (new != NO_SAMPLE).then_some(new))
}

impl<'a> SampleColumns<'a> {
    /// The four columns of one region set; they must be of one length.
    pub fn new(
        starts: &'a [u64],
        ends: &'a [u64],
        samples: &'a mut [u64],
        nr_accesses: &'a mut [u32],
    ) -> Self {
        let n = starts.len();
        assert!(
            ends.len() == n && samples.len() == n && nr_accesses.len() == n,
            "sample columns of unequal length"
        );
        Self { starts, ends, samples, nr_accesses }
    }

    /// Regions `from..to`.
    #[inline]
    fn sub(&mut self, from: usize, to: usize) -> SampleColumns<'_> {
        SampleColumns {
            starts: &self.starts[from..to],
            ends: &self.ends[from..to],
            samples: &mut self.samples[from..to],
            nr_accesses: &mut self.nr_accesses[from..to],
        }
    }

    /// The sweep as a loop of per-pair access ops, `access(old, new)` —
    /// the back-end's op for one region's pair (see
    /// [`PteCursor::access`]). Returns the checks.
    #[inline]
    pub fn sweep_pairs(
        self,
        mut next: impl FnMut(u64, u64) -> u64,
        mut access: impl FnMut(Option<u64>, Option<u64>) -> bool,
    ) -> u64 {
        let mut checks = 0;
        let bounds = self.starts.iter().zip(self.ends);
        for (((&start, &end), sample), nr) in bounds.zip(self.samples).zip(self.nr_accesses) {
            let (old, new) = swap_sample(sample, next(start, end));
            checks += old.is_some() as u64 + new.is_some() as u64;
            *nr += access(old, new) as u32;
        }
        checks
    }
}

/// Index of the VMA of `vmas` (sorted, non-overlapping) containing `addr`,
/// `None` when it is unmapped. `*at` is tried first and left at the VMA
/// found: any address order is correct, a run of neighbours is fast.
#[inline]
fn seek(vmas: &[Vma], at: &mut usize, addr: u64) -> Option<usize> {
    let hit = |i: usize| vmas.get(i).is_some_and(|v| v.range.contains(addr));
    if !hit(*at) {
        *at = vmas.partition_point(|v| v.range.end <= addr);
    }
    hit(*at).then_some(*at)
}

/// A forward cursor over a sorted VMA list, for reading and clearing
/// accessed bits at a run of addresses (the monitor's sampling sweep).
///
/// This is the one place an address is resolved to its VMA and chunk for
/// an accessed-bit check. The cursor remembers the VMA the last address
/// fell in: the next address up costs one range compare, and any other
/// address falls back to the binary search — every order is correct,
/// ascending order is fast. Checks move flags only, so they neither
/// materialise a chunk nor touch a residency counter.
///
/// `V` is `&[Vma]` for a read-only cursor or `&mut [Vma]` for one that can
/// also clear; see [`crate::MemorySystem::pte_cursor`] and, for physical
/// addresses, [`crate::MemorySystem::paddr_cursor`].
#[derive(Debug)]
pub struct PteCursor<V> {
    vmas: V,
    /// Index of the VMA the last resolved address fell in.
    pub(crate) at: usize,
}

impl<V: Deref<Target = [Vma]>> PteCursor<V> {
    /// A cursor at the first VMA of `vmas` (sorted, non-overlapping).
    pub fn new(vmas: V) -> Self {
        Self { vmas, at: 0 }
    }

    /// Move to the VMA containing `addr`; `None` when it is unmapped.
    #[inline]
    fn seek(&mut self, addr: u64) -> Option<usize> {
        seek(&self.vmas, &mut self.at, addr)
    }

    /// The accessed bit of the page at `addr`; `None` when unmapped.
    #[inline]
    pub fn accessed(&mut self, addr: u64) -> Option<bool> {
        self.seek(addr).map(|i| self.vmas[i].pte(addr).accessed)
    }
}

impl<V: DerefMut<Target = [Vma]>> PteCursor<V> {
    /// Clear the accessed bit of the page at `addr`, returning whether it
    /// was set; `None` when unmapped.
    #[inline]
    pub fn clear_accessed(&mut self, addr: u64) -> Option<bool> {
        self.seek(addr).map(|i| self.vmas[i].clear_accessed(addr))
    }

    /// The monitor's one access op: whether the page at `old` was accessed
    /// since its bit was last cleared, then clear the bit of the page at
    /// `new` (`None` skips that half; unmapped pages read `false`). The two
    /// are a region's outstanding and next sample, so they almost always
    /// share a VMA, and mostly the one the last pair fell in: then each page
    /// is one chunk-word operation. Reading before clearing makes
    /// `old == new` report the bit as it was.
    #[inline(always)]
    pub fn access(&mut self, old: Option<u64>, new: Option<u64>) -> bool {
        match self.hinted(old, new) {
            Some(vma) => vma.access(old, new),
            None => self.access_elsewhere(old, new),
        }
    }

    /// The VMA the last address fell in, when it holds both pages.
    #[inline(always)]
    fn hinted(&mut self, old: Option<u64>, new: Option<u64>) -> Option<&mut Vma> {
        let vma = self.vmas.get_mut(self.at)?;
        let range = vma.range;
        let inside = |addr: Option<u64>| addr.is_none_or(|a| range.contains(a));
        (inside(old) && inside(new)).then_some(vma)
    }

    /// The monitor's sampling sweep over `cols` (see [`SampleColumns`]),
    /// a VMA run at a time. It seeks the VMA holding a region's start, and
    /// `Vma::sweep_run` then walks that region and every following one
    /// that ends inside the VMA with no per-pair VMA check: by 2 MiB chunk
    /// run where regions are dense — one chunk resolve per run, then a
    /// word read and a word clear per region — and pair by pair (a chunk
    /// resolve per page) where they are sparse. A region that is not
    /// wholly inside one VMA (it starts in a gap of the three-regions
    /// target, or crosses a VMA edge) takes the per-pair op. Returns the
    /// checks, as [`SampleColumns::sweep_pairs`] over [`Self::access`] does,
    /// with the same draws in the same order and the same bits read and
    /// cleared.
    #[inline]
    pub fn sweep(
        &mut self,
        mut cols: SampleColumns<'_>,
        mut next: impl FnMut(u64, u64) -> u64,
    ) -> u64 {
        let (n, mut checks, mut i) = (cols.starts.len(), 0, 0);
        while i < n {
            let run = match self.seek(cols.starts[i]) {
                Some(v) => self.vmas[v].sweep_run(cols.sub(i, n), &mut next, &mut checks),
                None => 0,
            };
            if run == 0 {
                let one = cols.sub(i, i + 1);
                checks += one.sweep_pairs(&mut next, |old, new| self.access_elsewhere(old, new));
            }
            i += run.max(1);
        }
        checks
    }

    /// [`Self::access`] off the last VMA: seek the VMA of the pair — one
    /// resolve for both when they share it, one each when they straddle a
    /// VMA boundary or a gap. Out of line, so the sweep's loop stays small
    /// enough to inline the common case.
    #[cold]
    fn access_elsewhere(&mut self, old: Option<u64>, new: Option<u64>) -> bool {
        if new.or(old).and_then(|addr| self.seek(addr)).is_some() {
            if let Some(vma) = self.hinted(old, new) {
                return vma.access(old, new);
            }
        }
        let was = old.and_then(|addr| self.accessed(addr)).unwrap_or(false);
        if let Some(addr) = new {
            self.clear_accessed(addr);
        }
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_assigns_disjoint_ranges() {
        let mut p = Process::new(0);
        let a = p.mmap(1 << 20, ThpMode::Never).unwrap();
        let b = p.mmap(1 << 20, ThpMode::Never).unwrap();
        assert!(!a.overlaps(&b));
        assert!(b.start >= a.end + MMAP_GAP);
        assert_eq!(p.vma_ranges(), vec![a, b]);
    }

    #[test]
    fn mmap_zero_len_rejected() {
        let mut p = Process::new(0);
        assert_eq!(p.mmap(0, ThpMode::Never), Err(MmError::BadLength(0)));
    }

    #[test]
    fn mmap_rounds_to_pages() {
        let mut p = Process::new(0);
        let r = p.mmap(1, ThpMode::Never).unwrap();
        assert_eq!(r.len(), PAGE_SIZE);
    }

    #[test]
    fn find_vma_boundaries() {
        let mut p = Process::new(0);
        let a = p.mmap_at(0x10000, 0x4000, ThpMode::Never).unwrap();
        assert!(p.find_vma(a.start).is_some());
        assert!(p.find_vma(a.end - 1).is_some());
        assert!(p.find_vma(a.end).is_none());
        assert!(p.find_vma(a.start - 1).is_none());
    }

    #[test]
    fn overlap_rejected() {
        let mut p = Process::new(0);
        p.mmap_at(0x10000, 0x4000, ThpMode::Never).unwrap();
        assert!(matches!(
            p.mmap_at(0x12000, 0x4000, ThpMode::Never),
            Err(MmError::MappingOverlap(_))
        ));
        // Adjacent (non-overlapping) is fine.
        assert!(p.mmap_at(0x14000, 0x1000, ThpMode::Never).is_ok());
    }

    #[test]
    fn a_mapping_may_end_at_the_user_space_edge_and_not_past_it() {
        let mut p = Process::new(0);
        let below = AddrRange::new(USER_ADDR_END - 2 * PAGE_SIZE, USER_ADDR_END);
        assert_eq!(p.mmap_at(below.start, below.len(), ThpMode::Never), Ok(below));
        let across = AddrRange::new(USER_ADDR_END - 4 * PAGE_SIZE, USER_ADDR_END + PAGE_SIZE);
        let refused = p.mmap_at(across.start, across.len(), ThpMode::Never);
        assert_eq!(refused, Err(MmError::BeyondUserSpace(across)));
        // Refused before a page table for 2⁵⁰ bytes is sized, and without
        // wrapping past the top of the address space.
        let huge = p.mmap(1 << 50, ThpMode::Never);
        assert!(matches!(huge, Err(MmError::BeyondUserSpace(r)) if r.len() == 1 << 50));
        let top = p.mmap_at(u64::MAX & !(PAGE_SIZE - 1), 2 * PAGE_SIZE, ThpMode::Never);
        assert!(matches!(top, Err(MmError::BeyondUserSpace(r)) if r.end == u64::MAX));
        let next = p.mmap(PAGE_SIZE, ThpMode::Never).unwrap();
        assert_eq!(next.start, MMAP_BASE, "a refused mmap leaves the bump pointer alone");
        assert_eq!(p.vma_ranges(), vec![next, below]);
    }

    #[test]
    fn take_vma_removes() {
        let mut p = Process::new(0);
        let a = p.mmap(1 << 20, ThpMode::Never).unwrap();
        let vma = p.take_vma(a).unwrap();
        assert_eq!(vma.range, a);
        assert!(p.find_vma(a.start).is_none());
        assert_eq!(p.take_vma(a), Err(MmError::BadRange(a)));
    }

    #[test]
    fn stack_area_creates_gap() {
        let mut p = Process::new(0);
        let heap = p.mmap(1 << 20, ThpMode::Never).unwrap();
        let stack = p.mmap_at(STACK_BASE, 1 << 20, ThpMode::Never).unwrap();
        assert!(stack.start - heap.end > (1 << 30), "big gap as in Fig. 6");
        let ranges = p.vma_ranges();
        assert_eq!(ranges.len(), 2);
        assert!(ranges.windows(2).all(|w| w[0].end <= w[1].start));
    }
}
