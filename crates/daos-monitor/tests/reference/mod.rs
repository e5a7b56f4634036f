//! Reference implementations the library's fast paths are pinned to (the
//! Virtuoso method: a faster substrate is only trustworthy if
//! differentially tested against the slower reference it replaced). Test
//! support only: nothing in the library calls them.
//!
//! * [`RegionSet`]: the original `Vec<Region>` code, kept verbatim as the
//!   oracle for the struct-of-arrays store in `daos_monitor::regions`.
//! * [`Monitor`]: `MonitorCtx`'s tick as it ran before the page-table
//!   cursor and the fused sweep — two phases on every tick, every check
//!   resolved on its own through `MemorySystem`'s random-access calls
//!   (the per-address back-end, `impl Primitives for Target`).

use daos_mm::addr::{page_align_down, AddrRange, PAGE_SIZE};
use daos_mm::clock::Ns;
use daos_mm::process::Pid;
use daos_mm::system::MemorySystem;
use daos_util::rng::SmallRng;

use daos_monitor::{
    three_regions, Aggregation, MonitorAttrs, OverheadStats, Primitives, Region, RegionInfo,
};

/// What a reference [`Monitor`] watches.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// One process's virtual address space.
    Vaddr(Pid),
    /// The machine's physical address space.
    Paddr,
}

impl Target {
    fn ranges(self, sys: &MemorySystem) -> Vec<AddrRange> {
        match self {
            Target::Vaddr(pid) => three_regions(&sys.vma_ranges(pid)),
            Target::Paddr => vec![sys.phys_space()],
        }
    }

    fn young(self, sys: &MemorySystem, addr: u64) -> bool {
        let owner = match self {
            Target::Vaddr(pid) => Some((pid, addr)),
            Target::Paddr => sys.phys_owner(addr),
        };
        owner.and_then(|(pid, vaddr)| sys.peek_accessed(pid, vaddr)).unwrap_or(false)
    }

    fn mkold(self, sys: &mut MemorySystem, addr: u64) {
        match self {
            Target::Vaddr(pid) => drop(sys.check_accessed_clear(pid, addr)),
            Target::Paddr => drop(sys.check_paddr_accessed_clear(addr)),
        }
    }

}

/// The per-address back-end: every check resolves its page on its own
/// through `MemorySystem`'s random-access calls, and a sweep is the
/// provided per-pair loop.
impl Primitives for Target {
    type Env = MemorySystem;

    fn target_ranges(&mut self, sys: &MemorySystem) -> Vec<AddrRange> {
        self.ranges(sys)
    }

    fn access<'a>(
        &'a mut self,
        sys: &'a mut MemorySystem,
    ) -> impl FnMut(Option<u64>, Option<u64>) -> bool + 'a {
        let target = *self;
        move |old, new| {
            let was = old.is_some_and(|addr| target.young(sys, addr));
            new.into_iter().for_each(|addr| target.mkold(sys, addr));
            was
        }
    }

    fn check_cost_ns(&self, sys: &MemorySystem) -> Ns {
        let m = sys.machine();
        match self {
            Target::Vaddr(_) => m.access_check_ns,
            Target::Paddr => (m.access_check_ns as f64 * m.rmap_check_factor) as Ns,
        }
    }
}

/// The per-address, always-two-phase monitoring loop (tracing left out).
/// It drives the library's own `RegionSet` through its two-phase calls,
/// so what it pins is the tick: which checks happen, in which order,
/// against which page, and what they cost.
#[derive(Debug)]
pub struct Monitor {
    attrs: MonitorAttrs,
    target: Target,
    pub regions: daos_monitor::RegionSet,
    pub rng: SmallRng,
    next_sample: Ns,
    next_aggr: Ns,
    next_update: Ns,
    pub overhead: OverheadStats,
    pub pending_work_ns: Ns,
}

impl Monitor {
    pub fn new(attrs: MonitorAttrs, target: Target, sys: &MemorySystem, now: Ns, seed: u64) -> Self {
        Self {
            attrs,
            target,
            regions: daos_monitor::RegionSet::init(&target.ranges(sys), attrs.min_nr_regions),
            rng: SmallRng::seed_from_u64(seed),
            next_sample: now + attrs.sampling_interval,
            next_aggr: now + attrs.aggregation_interval,
            next_update: now + attrs.regions_update_interval,
            overhead: OverheadStats::default(),
            pending_work_ns: 0,
        }
    }

    pub fn step(&mut self, sys: &mut MemorySystem, now: Ns, sink: &mut Vec<Aggregation>) {
        if self.next_sample > now {
            return;
        }
        let interval = self.attrs.sampling_interval;
        let t = self.next_sample + (now - self.next_sample) / interval * interval;
        self.tick(sys, t, sink);
        self.next_sample = t + interval;
    }

    fn tick(&mut self, sys: &mut MemorySystem, t: Ns, sink: &mut Vec<Aggregation>) {
        let (attrs, mut target) = (self.attrs, self.target);
        let mut checks = self.regions.sweep(&mut target, sys, None);

        if self.next_aggr <= t {
            if attrs.adaptive {
                let sz_limit =
                    (self.regions.total_bytes() / attrs.min_nr_regions.max(1) as u64).max(PAGE_SIZE);
                self.regions.merge_with_aging(attrs.merge_threshold(), sz_limit, attrs.min_nr_regions);
            } else {
                self.regions.merge_with_aging(attrs.merge_threshold(), 0, usize::MAX);
            }
            sink.push(Aggregation {
                at: t,
                regions: self.regions.snapshot(),
                max_nr_accesses: attrs.max_nr_accesses(),
                aggregation_interval: attrs.aggregation_interval,
            });
            self.regions.reset_aggregated();
            if attrs.adaptive {
                let scratch = &mut daos_monitor::RegionSet::default();
                self.regions.split(&mut self.rng, attrs.max_nr_regions, scratch);
            }
            // Merge + snapshot + reset + split: 40 ns per final region.
            self.pending_work_ns += self.regions.len() as u64 * 40;
            self.overhead.nr_aggregations += 1;
            self.next_aggr = t + attrs.aggregation_interval;
        }

        if self.next_update <= t {
            let scratch = &mut daos_monitor::RegionSet::default();
            self.regions.update_ranges(&target.ranges(sys), scratch);
            self.regions.merge_to_cap(
                attrs.merge_threshold(),
                attrs.min_nr_regions,
                attrs.max_nr_regions,
            );
            self.next_update = t + attrs.regions_update_interval;
        }

        checks += self.regions.sweep(&mut target, sys, Some(&mut self.rng));

        self.overhead.total_checks += checks;
        self.overhead.max_checks_per_tick = self.overhead.max_checks_per_tick.max(checks);
        self.overhead.nr_ticks += 1;
        let work = checks * target.check_cost_ns(sys);
        self.overhead.work_ns += work;
        self.pending_work_ns += work;
    }
}

/// An ordered, non-overlapping set of monitoring regions (reference
/// array-of-structs implementation).
#[derive(Debug, Clone, Default)]
pub struct RegionSet {
    regions: Vec<Region>,
}

impl RegionSet {
    /// Build the initial regions: `min_nr` regions distributed over the
    /// target ranges proportionally to their size (each range gets at
    /// least one), each range divided evenly at page granularity.
    pub fn init(ranges: &[AddrRange], min_nr: usize) -> Self {
        let ranges: Vec<AddrRange> = ranges.iter().filter(|r| !r.is_empty()).copied().collect();
        let mut set = Self { regions: Vec::new() };
        if ranges.is_empty() {
            return set;
        }
        let total: u64 = ranges.iter().map(|r| r.len()).sum();
        for r in &ranges {
            let share =
                ((min_nr as u64 * r.len()) / total.max(1)).max(1).min(r.nr_pages()) as usize;
            set.append_evenly(*r, share);
        }
        set
    }

    fn append_evenly(&mut self, range: AddrRange, pieces: usize) {
        let pages = range.nr_pages();
        let pieces = (pieces as u64).min(pages).max(1);
        let base = pages / pieces;
        let extra = pages % pieces;
        let mut start = range.start;
        for i in 0..pieces {
            let nr = base + if i < extra { 1 } else { 0 };
            let end = if i == pieces - 1 { range.end } else { start + nr * PAGE_SIZE };
            self.regions.push(Region::new(AddrRange::new(start, end)));
            start = end;
        }
    }

    /// Shared view of the regions, sorted by address.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Total monitored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.sz()).sum()
    }

    /// Immutable snapshot for callbacks/schemes.
    pub fn snapshot(&self) -> Vec<RegionInfo> {
        self.regions.iter().map(RegionInfo::from).collect()
    }

    /// End-of-window counter reset: remember this window's counts for the
    /// aging comparison, zero the live counters.
    pub fn reset_aggregated(&mut self) {
        for r in &mut self.regions {
            r.last_nr_accesses = r.nr_accesses;
            r.nr_accesses = 0;
        }
    }

    /// The aging + merge pass, run once per aggregation interval.
    pub fn merge_with_aging(&mut self, threshold: u32, sz_limit: u64, min_nr: usize) {
        for r in &mut self.regions {
            if r.nr_accesses.abs_diff(r.last_nr_accesses) > threshold {
                r.age = 0;
            } else {
                r.age += 1;
            }
        }
        if self.regions.len() <= min_nr {
            return;
        }
        let mut merged: Vec<Region> = Vec::with_capacity(self.regions.len());
        let mut count = self.regions.len();
        for r in self.regions.drain(..) {
            match merged.last_mut() {
                Some(prev)
                    if count > min_nr
                        && prev.range.end == r.range.start
                        && prev.nr_accesses.abs_diff(r.nr_accesses) <= threshold
                        && prev.sz() + r.sz() <= sz_limit =>
                {
                    merge_right(prev, &r);
                    count -= 1;
                }
                _ => merged.push(r),
            }
        }
        self.regions = merged;
    }

    /// The random splitting pass, run once per aggregation interval.
    /// Consumes the rng in exactly the same order as the SoA store's
    /// `split` — one `random_range(1..pages)` per attempted cut, gated by
    /// the same pre-checks — so both can be driven from one seed.
    pub fn split(&mut self, rng: &mut SmallRng, max_nr: usize) {
        let nr = self.regions.len();
        if nr == 0 || nr >= max_nr {
            return;
        }
        // Kernel heuristic: aim for 3 pieces while clearly below the cap.
        let nr_pieces = if nr * 3 <= max_nr { 3 } else { 2 };
        let mut out: Vec<Region> = Vec::with_capacity(nr * nr_pieces);
        let mut total = nr;
        for r in self.regions.drain(..) {
            let mut rest = r;
            for _ in 1..nr_pieces {
                if total >= max_nr || !splittable(&rest) {
                    break;
                }
                // Random page-aligned split point strictly inside.
                let pages = rest.nr_pages();
                let cut_page = rng.random_range(1..pages);
                let mid = page_align_down(rest.range.start) + cut_page * PAGE_SIZE;
                if mid <= rest.range.start || mid >= rest.range.end {
                    break;
                }
                let (lo, hi) = split_at(&rest, mid);
                out.push(lo);
                rest = hi;
                total += 1;
            }
            out.push(rest);
        }
        self.regions = out;
    }

    /// Adapt the region set to a changed set of target ranges (the
    /// `regions update interval` handler): regions are clipped to the new
    /// ranges, and uncovered parts of the new ranges get fresh regions.
    pub fn update_ranges(&mut self, new_ranges: &[AddrRange]) {
        let mut out: Vec<Region> = Vec::with_capacity(self.regions.len());
        for range in new_ranges.iter().filter(|r| !r.is_empty()) {
            let mut cursor = range.start;
            for old in &self.regions {
                let Some(isect) = old.range.intersect(range) else { continue };
                if isect.start > cursor {
                    out.push(Region::new(AddrRange::new(cursor, isect.start)));
                }
                let mut clipped = *old;
                clipped.range = isect;
                clipped.sampling_addr = None;
                out.push(clipped);
                cursor = isect.end.max(cursor);
            }
            if cursor < range.end {
                out.push(Region::new(AddrRange::new(cursor, range.end)));
            }
        }
        self.regions = out;
    }

    /// Phase-1 sampling: consume outstanding samples, counting accesses.
    /// Mirrors `daos_monitor::RegionSet::sweep`'s check half (no draw).
    pub fn check_samples(&mut self, mut young: impl FnMut(u64) -> bool) -> u64 {
        let mut checks = 0;
        for r in &mut self.regions {
            if let Some(addr) = r.sampling_addr.take() {
                if young(addr) {
                    r.nr_accesses += 1;
                }
                checks += 1;
            }
        }
        checks
    }

    /// Phase-2 sampling: pick one random page per region, age it via
    /// `mkold`, and remember it for the next check. Consumes the rng
    /// identically to `daos_monitor::RegionSet::sweep`'s prepare half.
    pub fn prepare_samples(&mut self, rng: &mut SmallRng, mut mkold: impl FnMut(u64)) -> u64 {
        let mut checks = 0;
        for r in &mut self.regions {
            let pages = r.range.nr_pages();
            if pages == 0 {
                continue;
            }
            let page = rng.random_range(0..pages);
            let addr = page_align_down(r.range.start) + page * PAGE_SIZE;
            mkold(addr);
            r.sampling_addr = Some(addr);
            checks += 1;
        }
        checks
    }

    /// Debug invariant: sorted, non-overlapping, non-empty regions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.regions.windows(2) {
            if w[0].range.end > w[1].range.start {
                return Err(format!("overlap/order violation: {} then {}", w[0].range, w[1].range));
            }
        }
        if let Some(r) = self.regions.iter().find(|r| r.range.is_empty()) {
            return Err(format!("empty region at {}", r.range));
        }
        Ok(())
    }
}

/// Split `r` at byte offset `mid` (absolute address). Both halves keep
/// the access counters and **inherit the age** (§3.1: "When a region
/// is split, each sub-region inherits the age of the old region").
fn split_at(r: &Region, mid: u64) -> (Region, Region) {
    let (lo, hi) = r.range.split_at(mid);
    let mut a = *r;
    let mut b = *r;
    a.range = lo;
    b.range = hi;
    a.sampling_addr = None;
    b.sampling_addr = None;
    (a, b)
}

/// Merge `other` (which must be address-adjacent on the right) into
/// `r`. Counters and age become **size-weighted averages** (§3.1:
/// "the new region gets an age which is the size-weighted average of
/// the old regions' ages").
fn merge_right(r: &mut Region, other: &Region) {
    debug_assert_eq!(r.range.end, other.range.start);
    let sa = r.sz();
    let sb = other.sz();
    let total = (sa + sb).max(1);
    let wavg = |x: u32, y: u32| -> u32 { ((x as u64 * sa + y as u64 * sb) / total) as u32 };
    r.nr_accesses = wavg(r.nr_accesses, other.nr_accesses);
    r.last_nr_accesses = wavg(r.last_nr_accesses, other.last_nr_accesses);
    r.age = wavg(r.age, other.age);
    r.range.end = other.range.end;
    r.sampling_addr = None;
}

/// Whether the region is large enough to split in two pages.
fn splittable(r: &Region) -> bool {
    r.sz() >= 2 * PAGE_SIZE
}

mod region_helper_tests {
    use super::*;

    fn region(start: u64, end: u64, nr: u32, age: u32) -> Region {
        Region {
            range: AddrRange::new(start, end),
            nr_accesses: nr,
            last_nr_accesses: nr,
            age,
            sampling_addr: Some(start),
        }
    }

    #[test]
    fn split_inherits_age_and_counters() {
        let r = region(0, 0x8000, 7, 4);
        let (a, b) = split_at(&r, 0x2000);
        assert_eq!(a.range, AddrRange::new(0, 0x2000));
        assert_eq!(b.range, AddrRange::new(0x2000, 0x8000));
        for half in [a, b] {
            assert_eq!(half.age, 4, "age inherited");
            assert_eq!(half.nr_accesses, 7);
            assert_eq!(half.sampling_addr, None, "sample invalidated");
        }
    }

    #[test]
    fn merge_takes_size_weighted_average() {
        // 1 page at nr=10/age=10 merged with 3 pages at nr=2/age=2:
        // avg = (10*1 + 2*3)/4 = 4.
        let mut a = region(0, 0x1000, 10, 10);
        let b = region(0x1000, 0x4000, 2, 2);
        merge_right(&mut a, &b);
        assert_eq!(a.range, AddrRange::new(0, 0x4000));
        assert_eq!(a.nr_accesses, 4);
        assert_eq!(a.age, 4);
    }

    #[test]
    fn merge_weighted_average_never_exceeds_max_parent() {
        let mut a = region(0, 0x3000, 5, 9);
        let b = region(0x3000, 0x5000, 3, 1);
        let max_age = a.age.max(b.age);
        merge_right(&mut a, &b);
        assert!(a.age <= max_age);
    }

    #[test]
    fn splittable_bounds() {
        assert!(!splittable(&region(0, 0x1000, 0, 0)));
        assert!(splittable(&region(0, 0x2000, 0, 0)));
    }
}
