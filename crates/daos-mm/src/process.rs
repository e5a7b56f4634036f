//! Simulated processes: VMA bookkeeping and address-space layout, and
//! the forward page-table cursor ([`PteCursor`]) accessed-bit sweeps use.

use std::ops::{Deref, DerefMut};

use crate::addr::{page_align_up, AddrRange, PAGE_SIZE};
use crate::clock::Ns;
use crate::error::{MmError, MmResult};
use crate::stats::ProcStats;
use crate::vma::{ThpMode, Vma};

/// Process identifier (dense index into the system's process table).
pub type Pid = u32;

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
    pub(crate) fn map_pages(&mut self, now: Ns, nr: u64) {
        self.settle(now);
        self.rss_pages += nr;
        self.stats.peak_rss_bytes = self.stats.peak_rss_bytes.max(self.rss_bytes());
    }

    /// `nr` fewer pages are resident from `now` on.
    pub(crate) fn unmap_pages(&mut self, now: Ns, nr: u64) {
        self.settle(now);
        self.rss_pages -= nr;
    }

    /// Map `len` bytes of anonymous memory at an allocator-chosen address.
    pub fn mmap(&mut self, len: u64, thp: ThpMode) -> MmResult<AddrRange> {
        if len == 0 {
            return Err(MmError::BadLength(0));
        }
        let len = page_align_up(len);
        let start = self.next_mmap;
        let range = AddrRange::new(start, start + len);
        self.next_mmap = range.end + MMAP_GAP;
        self.insert_vma(Vma::new(range, thp))?;
        Ok(range)
    }

    /// Map `len` bytes at a fixed address (tests, stack areas).
    pub fn mmap_at(&mut self, start: u64, len: u64, thp: ThpMode) -> MmResult<AddrRange> {
        if len == 0 {
            return Err(MmError::BadLength(0));
        }
        let len = page_align_up(len);
        let range = AddrRange::new(start, start + len);
        self.insert_vma(Vma::new(range, thp))?;
        Ok(range)
    }

    fn insert_vma(&mut self, vma: Vma) -> MmResult<()> {
        let pos = self.vmas.partition_point(|v| v.range.start < vma.range.start);
        let overlaps_prev = pos > 0 && self.vmas[pos - 1].range.overlaps(&vma.range);
        let overlaps_next = pos < self.vmas.len() && self.vmas[pos].range.overlaps(&vma.range);
        if overlaps_prev || overlaps_next {
            return Err(MmError::MappingOverlap(vma.range));
        }
        self.vmas.insert(pos, vma);
        Ok(())
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
