//! Monitoring Primitives layer (Fig. 2 of the paper).
//!
//! The access-check method depends on the monitoring target; the monitor
//! core is generic over this trait. The paper provides two reference
//! implementations — virtual address spaces (`struct vma` + PTE accessed
//! bits) and the physical address space (rmap + PTE accessed bits) — and
//! lets users plug in their own (e.g. Intel CMT/PML). We additionally
//! provide a synthetic primitive for exact-accuracy unit tests.

use daos_mm::addr::{page_align_down, AddrRange};
use daos_mm::clock::Ns;
use daos_mm::process::Pid;
use daos_mm::system::MemorySystem;

/// The target-specific operations the monitor core needs.
///
/// Two-phase sampling, as in the kernel: the accessed bit of the sample
/// page is cleared (`mkold`) when the sample is *prepared*; one sampling
/// interval later the monitor reads whether the CPU set it again
/// (`young`). Both are the one access op a back-end hands out per sweep.
pub trait Primitives {
    /// The environment checks run against (the simulated machine, or a
    /// synthetic space in tests).
    type Env;

    /// Current monitoring target ranges (re-read every regions-update
    /// interval to follow `mmap()`/hotplug events).
    fn target_ranges(&mut self, env: &Self::Env) -> Vec<AddrRange>;

    /// The access op for one sweep over the regions: `access(old, new)`
    /// says whether the page at `old` was accessed since its bit was last
    /// cleared (`young`), then clears the bit of the page at `new`
    /// (`mkold`); `None` skips that half and reads `false`. A sweep calls
    /// it once per region with the region's outstanding sample and its
    /// next one, so a back-end resolves its target once per region, not
    /// once per page. The contract:
    ///
    /// * calls in any address order are correct; ascending ones — a sweep
    ///   visits the regions in address order — may be faster;
    /// * `old` and `new` lie in the same region (they need not share a
    ///   page, a VMA or a 2 MiB chunk), and `old` is read before `new` is
    ///   cleared, so `old == new` reads the bit as it was;
    /// * target ranges are page-aligned, so two regions never share a
    ///   page and one region's `mkold` never changes another's `young`.
    fn access<'a>(
        &'a mut self,
        env: &'a mut Self::Env,
    ) -> impl FnMut(Option<u64>, Option<u64>) -> bool + 'a;

    /// CPU cost of a single `mkold`/`young` operation.
    fn check_cost_ns(&self, env: &Self::Env) -> Ns;
}

// ---------------------------------------------------------------------
// Virtual address spaces
// ---------------------------------------------------------------------

/// Primitives for one process's virtual address space, tracking targets
/// through its VMA list and checking PTE accessed bits.
#[derive(Debug, Clone, Copy)]
pub struct VaddrPrimitives {
    /// The monitored process.
    pub pid: Pid,
}

impl VaddrPrimitives {
    /// Monitor the virtual address space of `pid`.
    pub fn new(pid: Pid) -> Self {
        Self { pid }
    }
}

/// The kernel's "three regions" heuristic: a process address space has two
/// big gaps (between heap, mmap area and stack); monitoring the gaps is
/// pure waste, so the initial target is the three spans separated by the
/// two biggest gaps.
pub fn three_regions(vmas: &[AddrRange]) -> Vec<AddrRange> {
    if vmas.is_empty() {
        return Vec::new();
    }
    if vmas.len() == 1 {
        return vec![vmas[0]];
    }
    // Find the two largest gaps between adjacent VMAs.
    let mut gaps: Vec<(u64, usize)> = vmas
        .windows(2)
        .enumerate()
        .map(|(i, w)| (w[1].start - w[0].end, i))
        .collect();
    gaps.sort_unstable_by_key(|&(gap, _)| std::cmp::Reverse(gap));
    let mut cut_idx: Vec<usize> = gaps.iter().take(2).filter(|(g, _)| *g > 0).map(|&(_, i)| i).collect();
    cut_idx.sort_unstable();
    let mut out = Vec::with_capacity(3);
    let mut span_start = vmas[0].start;
    for &i in &cut_idx {
        out.push(AddrRange::new(span_start, vmas[i].end));
        span_start = vmas[i + 1].start;
    }
    out.push(AddrRange::new(span_start, vmas[vmas.len() - 1].end));
    out
}

impl Primitives for VaddrPrimitives {
    type Env = MemorySystem;

    fn target_ranges(&mut self, env: &MemorySystem) -> Vec<AddrRange> {
        three_regions(&env.vma_ranges(self.pid))
    }

    fn access<'a>(
        &'a mut self,
        env: &'a mut MemorySystem,
    ) -> impl FnMut(Option<u64>, Option<u64>) -> bool + 'a {
        // The three-regions span covers gaps between VMAs; samples landing
        // in a gap simply read as not-accessed, like unmapped PTEs.
        let mut cur = env.pte_cursor(self.pid);
        move |old, new| cur.access(old, new)
    }

    fn check_cost_ns(&self, env: &MemorySystem) -> Ns {
        env.machine().access_check_ns
    }
}

// ---------------------------------------------------------------------
// Physical address space
// ---------------------------------------------------------------------

/// Primitives for the machine's physical address space: targets are the
/// whole DRAM range, and checks go through the reverse mapping to the
/// owning PTE — slightly costlier than a direct VMA walk.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaddrPrimitives;

impl Primitives for PaddrPrimitives {
    type Env = MemorySystem;

    fn target_ranges(&mut self, env: &MemorySystem) -> Vec<AddrRange> {
        vec![env.phys_space()]
    }

    fn access<'a>(
        &'a mut self,
        env: &'a mut MemorySystem,
    ) -> impl FnMut(Option<u64>, Option<u64>) -> bool + 'a {
        env.paddr_cursor()
    }

    fn check_cost_ns(&self, env: &MemorySystem) -> Ns {
        let m = env.machine();
        (m.access_check_ns as f64 * m.rmap_check_factor) as Ns
    }
}

// ---------------------------------------------------------------------
// Synthetic space (tests)
// ---------------------------------------------------------------------

/// A fully scriptable page space: tests set exactly which pages are
/// accessed and verify the monitor's output against that ground truth.
#[derive(Debug, Default, Clone)]
pub struct SyntheticSpace {
    /// Target ranges reported to the monitor.
    pub ranges: Vec<AddrRange>,
    /// Page-aligned addresses whose accessed bit is currently set.
    pub accessed: std::collections::HashSet<u64>,
}

impl SyntheticSpace {
    /// New space over the given ranges.
    pub fn new(ranges: Vec<AddrRange>) -> Self {
        Self { ranges, accessed: Default::default() }
    }

    /// Set the accessed bit on every page of `range`.
    pub fn touch_range(&mut self, range: AddrRange) {
        for p in range.pages() {
            self.accessed.insert(p);
        }
    }
}

/// Primitives over a [`SyntheticSpace`]; checks are free.
#[derive(Debug, Default, Clone, Copy)]
pub struct SyntheticPrimitives;

impl Primitives for SyntheticPrimitives {
    type Env = SyntheticSpace;

    fn target_ranges(&mut self, env: &SyntheticSpace) -> Vec<AddrRange> {
        env.ranges.clone()
    }

    fn access<'a>(
        &'a mut self,
        env: &'a mut SyntheticSpace,
    ) -> impl FnMut(Option<u64>, Option<u64>) -> bool + 'a {
        move |old, new| {
            let was = old.is_some_and(|addr| env.accessed.contains(&page_align_down(addr)));
            if let Some(addr) = new {
                env.accessed.remove(&page_align_down(addr));
            }
            was
        }
    }

    fn check_cost_ns(&self, _env: &SyntheticSpace) -> Ns {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::access::AccessBatch;
    use daos_mm::addr::PAGE_SIZE;
    use daos_mm::machine::MachineProfile;
    use daos_mm::swap::SwapConfig;
    use daos_mm::vma::ThpMode;

    #[test]
    fn three_regions_splits_at_biggest_gaps() {
        let vmas = vec![
            AddrRange::new(0x1000, 0x2000),
            AddrRange::new(0x3000, 0x4000),      // gap 0x1000 before
            AddrRange::new(0x100_0000, 0x200_0000), // huge gap before
            AddrRange::new(0x7f00_0000, 0x7f10_0000), // huge gap before
        ];
        let regions = three_regions(&vmas);
        assert_eq!(regions.len(), 3);
        assert_eq!(regions[0], AddrRange::new(0x1000, 0x4000));
        assert_eq!(regions[1], AddrRange::new(0x100_0000, 0x200_0000));
        assert_eq!(regions[2], AddrRange::new(0x7f00_0000, 0x7f10_0000));
    }

    #[test]
    fn three_regions_few_vmas() {
        assert!(three_regions(&[]).is_empty());
        let one = vec![AddrRange::new(0x1000, 0x9000)];
        assert_eq!(three_regions(&one), one);
        // Two VMAs: the single gap is cut out, so the far area (e.g. the
        // stack) does not drag the unmapped void into the target.
        let two = vec![AddrRange::new(0x1000, 0x2000), AddrRange::new(0x8000, 0x9000)];
        assert_eq!(three_regions(&two), two);
    }

    #[test]
    fn three_regions_adjacent_vmas_no_gap() {
        let vmas = vec![
            AddrRange::new(0x1000, 0x2000),
            AddrRange::new(0x2000, 0x3000),
            AddrRange::new(0x3000, 0x4000),
        ];
        let regions = three_regions(&vmas);
        assert_eq!(regions, vec![AddrRange::new(0x1000, 0x4000)]);
    }

    #[test]
    fn vaddr_primitive_two_phase() {
        let mut sys =
            MemorySystem::new(MachineProfile::test_tiny(), SwapConfig::paper_zram(), 1);
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        let stack = sys.mmap_at(pid, daos_mm::process::STACK_BASE, 1 << 16, ThpMode::Never).unwrap();
        let mut prim = VaddrPrimitives::new(pid);
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        sys.apply_access(pid, &AccessBatch::all(stack, 1.0)).unwrap();

        let (a, b) = (Some(range.start), Some(range.start + PAGE_SIZE));
        assert!(prim.access(&mut sys)(a, a), "reads before it clears");
        assert!(!prim.access(&mut sys)(a, None), "prepare cleared the bit");
        assert!(prim.access(&mut sys)(b, a), "the other page is still young");
        assert!(prim.access(&mut sys)(b, None), "and was not cleared");
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        let mut cur = prim.access(&mut sys);
        assert!(cur(a, None), "touch after mkold → young");
        assert!(!cur(Some(range.end + PAGE_SIZE), None), "outside every VMA reads not-accessed");
        assert!(cur(Some(stack.start), None), "on into the next VMA");
        assert!(cur(a, Some(range.end + PAGE_SIZE)), "and back down: any order is correct");
        // A pair straddling a gap (one region over both VMAs) reads one
        // and clears the other.
        assert!(cur(Some(stack.start), a));
        assert!(cur(Some(range.end - PAGE_SIZE), Some(stack.start)));
        assert!(!cur(a, None) && !cur(Some(stack.start), None), "both halves landed");
        assert!(!cur(None, None));
        drop(cur);
        assert!(prim.check_cost_ns(&sys) > 0);
    }

    #[test]
    fn paddr_primitive_reads_through_rmap() {
        let mut sys =
            MemorySystem::new(MachineProfile::test_tiny(), SwapConfig::paper_zram(), 1);
        let pid = sys.spawn();
        for _ in 0..2 {
            let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
            sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        }
        let mut prim = PaddrPrimitives;
        let targets = prim.target_ranges(&sys);
        assert_eq!(targets, vec![sys.phys_space()]);
        let owned = sys
            .phys_space()
            .pages()
            .find(|p| sys.phys_owner(*p).is_some())
            .unwrap();
        let all_owned: Vec<u64> =
            sys.phys_space().pages().filter(|p| sys.phys_owner(*p).is_some()).collect();
        assert_eq!(all_owned.len(), 512);
        let unowned = sys.phys_space().pages().find(|p| sys.phys_owner(*p).is_none());
        let mut cur = prim.access(&mut sys);
        let young = all_owned.iter().rev().all(|p| cur(Some(*p), None));
        assert!(young, "both VMAs' frames, any order");
        let last = all_owned.last().copied();
        assert!(cur(Some(owned), Some(owned)), "reads before it clears");
        assert!(!cur(Some(owned), last));
        assert!(!cur(last, None), "each half resolves its own frame");
        assert!(!cur(unowned, unowned) && !cur(None, None), "unowned frames read not-accessed");
        drop(cur);
        // Physical checks cost more than virtual ones (rmap walk).
        assert!(prim.check_cost_ns(&sys) > VaddrPrimitives::new(pid).check_cost_ns(&sys));
    }

    #[test]
    fn synthetic_primitive_scriptable() {
        let mut space = SyntheticSpace::new(vec![AddrRange::new(0, 0x10000)]);
        let mut prim = SyntheticPrimitives;
        space.touch_range(AddrRange::new(0x1000, 0x3000));
        let mut cur = prim.access(&mut space);
        assert!(cur(Some(0x1000), None));
        assert!(cur(Some(0x1234), None), "sub-page addr maps to its page");
        assert!(!cur(Some(0x4000), None));
        assert!(cur(Some(0x1500), Some(0x1500)), "reads before it clears");
        assert!(!cur(Some(0x1000), Some(0x2000)));
        assert!(!cur(Some(0x2000), None));
        assert!(!cur(None, None));
    }
}
