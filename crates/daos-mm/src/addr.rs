//! Address types and page-granularity arithmetic.
//!
//! The whole substrate works on byte addresses (`u64`) grouped into 4 KiB
//! pages, with 2 MiB huge-page alignment where THP is involved. Address
//! ranges are half-open `[start, end)`, matching the kernel's convention.


/// Size of a base page in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Size of a transparent huge page in bytes (2 MiB).
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;
/// Number of base pages per huge page (512).
pub const PAGES_PER_HUGE: u64 = HUGE_PAGE_SIZE / PAGE_SIZE;

/// Round `addr` down to a page boundary.
#[inline]
pub const fn page_align_down(addr: u64) -> u64 {
    addr & !(PAGE_SIZE - 1)
}

/// Round `addr` up to a page boundary.
#[inline]
pub const fn page_align_up(addr: u64) -> u64 {
    (addr + PAGE_SIZE - 1) & !(PAGE_SIZE - 1)
}

/// Round `addr` down to a huge-page boundary.
#[inline]
pub const fn huge_align_down(addr: u64) -> u64 {
    addr & !(HUGE_PAGE_SIZE - 1)
}

/// Round `addr` up to a huge-page boundary.
#[inline]
pub const fn huge_align_up(addr: u64) -> u64 {
    (addr + HUGE_PAGE_SIZE - 1) & !(HUGE_PAGE_SIZE - 1)
}

/// A half-open byte-address range `[start, end)`.
///
/// This is the unit the monitor, the schemes engine and the substrate all
/// exchange; it corresponds to `struct damon_addr_range` in the upstream
/// kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    /// Inclusive start address.
    pub start: u64,
    /// Exclusive end address.
    pub end: u64,
}

impl AddrRange {
    /// Create a new range. `start > end` is normalised to an empty range.
    #[inline]
    pub const fn new(start: u64, end: u64) -> Self {
        if start > end {
            Self { start, end: start }
        } else {
            Self { start, end }
        }
    }

    /// The empty range at address 0.
    #[inline]
    pub const fn empty() -> Self {
        Self { start: 0, end: 0 }
    }

    /// Length in bytes.
    #[inline]
    pub const fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the range covers no bytes.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Number of whole 4 KiB pages covered (the range is assumed
    /// page-aligned; partial pages round up so no byte is lost).
    #[inline]
    pub const fn nr_pages(&self) -> u64 {
        self.len().div_ceil(PAGE_SIZE)
    }

    /// Whether `addr` lies inside the range.
    #[inline]
    pub const fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Whether `other` is fully contained in `self`.
    #[inline]
    pub const fn contains_range(&self, other: &AddrRange) -> bool {
        other.is_empty() || (other.start >= self.start && other.end <= self.end)
    }

    /// Intersection of two ranges; `None` when they do not overlap.
    #[inline]
    pub fn intersect(&self, other: &AddrRange) -> Option<AddrRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(AddrRange { start, end })
        } else {
            None
        }
    }

    /// Whether the two ranges share at least one byte.
    #[inline]
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Split the range at `mid`, which must be inside the range, yielding
    /// `[start, mid)` and `[mid, end)`.
    #[inline]
    pub fn split_at(&self, mid: u64) -> (AddrRange, AddrRange) {
        debug_assert!(mid > self.start && mid < self.end);
        (
            AddrRange { start: self.start, end: mid },
            AddrRange { start: mid, end: self.end },
        )
    }

    /// Iterator over the page-aligned start address of every page in the
    /// range.
    #[inline]
    pub fn pages(&self) -> impl Iterator<Item = u64> {
        let first = page_align_down(self.start);
        let last = page_align_up(self.end);
        (first..last).step_by(PAGE_SIZE as usize)
    }

    /// The range expanded outward to full page boundaries.
    #[inline]
    pub fn page_aligned(&self) -> AddrRange {
        AddrRange {
            start: page_align_down(self.start),
            end: page_align_up(self.end),
        }
    }
}

impl core::fmt::Display for AddrRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_helpers() {
        assert_eq!(page_align_down(4097), 4096);
        assert_eq!(page_align_down(4096), 4096);
        assert_eq!(page_align_up(4097), 8192);
        assert_eq!(page_align_up(4096), 4096);
        assert_eq!(huge_align_down(HUGE_PAGE_SIZE + 5), HUGE_PAGE_SIZE);
        assert_eq!(huge_align_up(1), HUGE_PAGE_SIZE);
        assert_eq!(huge_align_up(0), 0);
    }

    #[test]
    fn range_basics() {
        let r = AddrRange::new(0x1000, 0x5000);
        assert_eq!(r.len(), 0x4000);
        assert_eq!(r.nr_pages(), 4);
        assert!(r.contains(0x1000));
        assert!(!r.contains(0x5000));
        assert!(!r.is_empty());
        assert!(AddrRange::empty().is_empty());
    }

    #[test]
    fn degenerate_range_is_normalised() {
        let r = AddrRange::new(10, 5);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn intersect_and_overlap() {
        let a = AddrRange::new(0, 100);
        let b = AddrRange::new(50, 150);
        let c = AddrRange::new(100, 200);
        assert_eq!(a.intersect(&b), Some(AddrRange::new(50, 100)));
        assert_eq!(a.intersect(&c), None);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn split_preserves_bytes() {
        let r = AddrRange::new(0x1000, 0x9000);
        let (lo, hi) = r.split_at(0x4000);
        assert_eq!(lo.len() + hi.len(), r.len());
        assert_eq!(lo.end, hi.start);
    }

    #[test]
    fn pages_iterator_counts() {
        let r = AddrRange::new(0x1000, 0x4000);
        assert_eq!(r.pages().count(), 3);
        let unaligned = AddrRange::new(0x1001, 0x1002);
        assert_eq!(unaligned.pages().count(), 1);
    }

    #[test]
    fn contains_range_edge_cases() {
        let r = AddrRange::new(100, 200);
        assert!(r.contains_range(&AddrRange::new(100, 200)));
        assert!(r.contains_range(&AddrRange::new(150, 150))); // empty
        assert!(!r.contains_range(&AddrRange::new(99, 150)));
        assert!(!r.contains_range(&AddrRange::new(150, 201)));
    }
}


daos_util::json_struct!(AddrRange { start, end });
