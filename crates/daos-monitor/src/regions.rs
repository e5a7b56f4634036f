//! The region set and the paper's **adaptive regions adjustment**:
//! random-point splitting, similarity merging (with the aging mechanism
//! folded in, as in the kernel), and target-range updates.
//!
//! ## Struct-of-arrays layout
//!
//! Regions live in parallel flat arrays (`starts`/`ends`/`nr_accesses`/
//! `last_nr_accesses`/`ages`/`sampling`) rather than a `Vec<Region>`.
//! The monitor's per-tick loops touch one or two of those fields for
//! every region; packing each field contiguously keeps the hot loops in
//! cache and turns merge/split/update into index walks instead of
//! 48-byte struct moves. The columns are the only state: total coverage
//! ([`RegionSet::total_bytes`]) is summed when asked for, once per
//! aggregation window over at most `max_nr_regions` regions.
//!
//! Semantics are pinned to the reference array-of-structs implementation
//! in `tests/reference/` by differential tests; `split` and `sweep`
//! consume the rng in exactly the same order as the reference so both
//! produce identical sequences from one seed.
//!
//! ## Sampling: one column op per sweep
//!
//! Each sampling interval every region's outstanding sample is checked
//! and a new one is drawn and aged. There is one walk,
//! [`RegionSet::sweep`]: it hands the set's columns (bounds, samples,
//! access counts) and the draw to the back-end's column op
//! ([`crate::Primitives::sweep`]), which walks them in address order — the
//! virtual back-end a VMA run at a time, the others one access op per
//! region. The tick selects the halves:
//!
//! * on every tick with nothing between the phases, one sweep does both;
//! * a boundary tick runs the check half alone (no draw) before its merge,
//!   split or target update, and the prepare half (a draw on a set with no
//!   sample outstanding) after it.
//!
//! The fused sweep equals the two halves because regions are disjoint and
//! page-aligned — the page region *i* ages is never the page region *j*
//! checks — and the rng is still drawn once per region, in region order.
//!
//! [`RegionSet::split`] and [`RegionSet::update_ranges`] rebuild the set
//! into a scratch set the caller keeps (the monitor holds one for its
//! lifetime) and swap it in, so a boundary reuses the columns' capacity
//! instead of allocating six fresh ones.

use daos_mm::addr::{page_align_down, AddrRange, PAGE_SIZE};
use daos_mm::process::{SampleColumns, NO_SAMPLE};
use daos_util::rng::SmallRng;

use crate::primitives::Primitives;
use crate::region::{Region, RegionInfo};

/// Size-weighted average of two per-region counters (`wavg` of §3.1's
/// merge rule: weights are the byte sizes of the two regions).
#[inline]
fn wavg(x: u32, y: u32, sa: u64, sb: u64) -> u32 {
    ((x as u64 * sa + y as u64 * sb) / (sa + sb).max(1)) as u32
}

/// A random page of the (non-empty) region `[start, end)`: one rng draw.
#[inline]
fn draw_sample(rng: &mut SmallRng, start: u64, end: u64) -> u64 {
    page_align_down(start) + rng.random_range(0..(end - start).div_ceil(PAGE_SIZE)) * PAGE_SIZE
}

/// An ordered, non-overlapping set of monitoring regions, stored as
/// struct-of-arrays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionSet {
    starts: Vec<u64>,
    ends: Vec<u64>,
    nr_accesses: Vec<u32>,
    last_nr_accesses: Vec<u32>,
    ages: Vec<u32>,
    /// Outstanding sample address per region; [`NO_SAMPLE`] when none.
    sampling: Vec<u64>,
}

impl RegionSet {
    /// Build the initial regions: `min_nr` regions distributed over the
    /// target ranges proportionally to their size (each range gets at
    /// least one), each range divided evenly at page granularity.
    pub fn init(ranges: &[AddrRange], min_nr: usize) -> Self {
        let ranges: Vec<AddrRange> = ranges.iter().filter(|r| !r.is_empty()).copied().collect();
        let mut set = Self::default();
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

    /// Append one fresh (zero-counter) region covering `[start, end)`.
    fn push_fresh(&mut self, start: u64, end: u64) {
        self.starts.push(start);
        self.ends.push(end);
        self.nr_accesses.push(0);
        self.last_nr_accesses.push(0);
        self.ages.push(0);
        self.sampling.push(NO_SAMPLE);
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
            self.push_fresh(start, end);
            start = end;
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Total monitored bytes, summed over the regions.
    pub fn total_bytes(&self) -> u64 {
        self.starts.iter().zip(&self.ends).map(|(s, e)| e - s).sum()
    }

    /// Materialise region `i` (testing / diagnostics).
    pub fn get(&self, i: usize) -> Region {
        Region {
            range: AddrRange::new(self.starts[i], self.ends[i]),
            nr_accesses: self.nr_accesses[i],
            last_nr_accesses: self.last_nr_accesses[i],
            age: self.ages[i],
            sampling_addr: (self.sampling[i] != NO_SAMPLE).then_some(self.sampling[i]),
        }
    }

    /// Iterate materialised copies of the regions, in address order.
    pub fn iter(&self) -> impl Iterator<Item = Region> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Immutable snapshot for callbacks/schemes.
    pub fn snapshot(&self) -> Vec<RegionInfo> {
        (0..self.len())
            .map(|i| RegionInfo {
                range: AddrRange::new(self.starts[i], self.ends[i]),
                nr_accesses: self.nr_accesses[i],
                age: self.ages[i],
            })
            .collect()
    }

    /// End-of-window counter reset: remember this window's counts for the
    /// aging comparison, zero the live counters. One swap + one fill, no
    /// per-region struct writes.
    pub fn reset_aggregated(&mut self) {
        std::mem::swap(&mut self.last_nr_accesses, &mut self.nr_accesses);
        self.nr_accesses.fill(0);
    }

    /// The aging + merge pass, run once per aggregation interval.
    ///
    /// Aging (§3.1): a region whose access count moved by more than
    /// `threshold` since the previous window has a *changed* pattern, so
    /// its age resets; otherwise age increments. Then the merge walk.
    pub fn merge_with_aging(&mut self, threshold: u32, sz_limit: u64, min_nr: usize) {
        for i in 0..self.len() {
            if self.nr_accesses[i].abs_diff(self.last_nr_accesses[i]) > threshold {
                self.ages[i] = 0;
            } else {
                self.ages[i] += 1;
            }
        }
        self.merge(threshold, sz_limit, min_nr);
    }

    /// Re-establish the `max_nr` cap after [`Self::update_ranges`] added
    /// fresh regions to a full set: merge with a doubling threshold until
    /// it holds, as the kernel does when `max_nr_regions` is unmet. Only
    /// regions separated by gaps can keep the set above the cap.
    pub fn merge_to_cap(&mut self, threshold: u32, min_nr: usize, max_nr: usize) {
        let mut threshold = threshold.max(1);
        while self.len() > max_nr {
            self.merge(threshold, u64::MAX, min_nr);
            if threshold == u32::MAX {
                break;
            }
            threshold = threshold.saturating_mul(2);
        }
    }

    /// Merging: adjacent regions whose access counts differ by at most
    /// `threshold` are combined, unless the result would exceed
    /// `sz_limit` bytes or shrink the set below `min_nr` regions (the
    /// paper's explicit lower bound). Runs as one in-place compaction
    /// walk over the arrays.
    fn merge(&mut self, threshold: u32, sz_limit: u64, min_nr: usize) {
        let n = self.len();
        if n <= min_nr {
            return;
        }
        let mut count = n;
        let mut w = 0usize; // regions[..w] is the compacted output
        for r in 0..n {
            if w > 0
                && count > min_nr
                && self.ends[w - 1] == self.starts[r]
                && self.nr_accesses[w - 1].abs_diff(self.nr_accesses[r]) <= threshold
                && (self.ends[w - 1] - self.starts[w - 1]) + (self.ends[r] - self.starts[r])
                    <= sz_limit
            {
                let sa = self.ends[w - 1] - self.starts[w - 1];
                let sb = self.ends[r] - self.starts[r];
                self.nr_accesses[w - 1] =
                    wavg(self.nr_accesses[w - 1], self.nr_accesses[r], sa, sb);
                self.last_nr_accesses[w - 1] =
                    wavg(self.last_nr_accesses[w - 1], self.last_nr_accesses[r], sa, sb);
                self.ages[w - 1] = wavg(self.ages[w - 1], self.ages[r], sa, sb);
                self.ends[w - 1] = self.ends[r];
                self.sampling[w - 1] = NO_SAMPLE;
                count -= 1;
            } else {
                if w != r {
                    self.starts[w] = self.starts[r];
                    self.ends[w] = self.ends[r];
                    self.nr_accesses[w] = self.nr_accesses[r];
                    self.last_nr_accesses[w] = self.last_nr_accesses[r];
                    self.ages[w] = self.ages[r];
                    self.sampling[w] = self.sampling[r];
                }
                w += 1;
            }
        }
        self.truncate(w);
    }

    fn truncate(&mut self, n: usize) {
        self.starts.truncate(n);
        self.ends.truncate(n);
        self.nr_accesses.truncate(n);
        self.last_nr_accesses.truncate(n);
        self.ages.truncate(n);
        self.sampling.truncate(n);
    }

    /// The random splitting pass, run once per aggregation interval.
    ///
    /// Each region is split into 2 (or 3, when far below the cap) pieces
    /// at random page-aligned points, so that sub-regions with distinct
    /// access frequencies can be discovered next window. Splitting stops
    /// at `max_nr` regions — the paper's overhead upper bound. The rng is
    /// consumed in exactly the reference implementation's order. The new
    /// set is built in `scratch`, which is left holding the old one's
    /// columns for the next rebuild.
    pub fn split(&mut self, rng: &mut SmallRng, max_nr: usize, scratch: &mut Self) {
        let nr = self.len();
        if nr == 0 || nr >= max_nr {
            return;
        }
        // Drawn from a local copy, written back below: see `sweep`.
        let mut local = rng.clone();
        // Kernel heuristic: aim for 3 pieces while clearly below the cap.
        let nr_pieces = if nr * 3 <= max_nr { 3 } else { 2 };
        let out = scratch;
        out.truncate(0);
        out.reserve(nr * nr_pieces);
        let mut total = nr;
        for i in 0..nr {
            let mut rest_start = self.starts[i];
            let rest_end = self.ends[i];
            let (na, la, age) = (self.nr_accesses[i], self.last_nr_accesses[i], self.ages[i]);
            let mut was_split = false;
            for _ in 1..nr_pieces {
                // Splittable: at least two pages to cut between.
                if total >= max_nr || rest_end - rest_start < 2 * PAGE_SIZE {
                    break;
                }
                // Random page-aligned split point strictly inside.
                let pages = (rest_end - rest_start).div_ceil(PAGE_SIZE);
                let cut_page = local.random_range(1..pages);
                let mid = page_align_down(rest_start) + cut_page * PAGE_SIZE;
                if mid <= rest_start || mid >= rest_end {
                    break;
                }
                out.push_with(rest_start, mid, na, la, age, NO_SAMPLE);
                rest_start = mid;
                was_split = true;
                total += 1;
            }
            // An untouched region keeps its outstanding sample; split
            // pieces have theirs invalidated.
            let sample = if was_split { NO_SAMPLE } else { self.sampling[i] };
            out.push_with(rest_start, rest_end, na, la, age, sample);
        }
        *rng = local;
        std::mem::swap(self, out);
    }

    fn reserve(&mut self, n: usize) {
        self.starts.reserve(n);
        self.ends.reserve(n);
        self.nr_accesses.reserve(n);
        self.last_nr_accesses.reserve(n);
        self.ages.reserve(n);
        self.sampling.reserve(n);
    }

    fn push_with(&mut self, start: u64, end: u64, nr: u32, last: u32, age: u32, sample: u64) {
        self.starts.push(start);
        self.ends.push(end);
        self.nr_accesses.push(nr);
        self.last_nr_accesses.push(last);
        self.ages.push(age);
        self.sampling.push(sample);
    }

    /// Adapt the region set to a changed set of target ranges (the
    /// `regions update interval` handler): regions are clipped to the new
    /// ranges, and uncovered parts of the new ranges get fresh regions.
    ///
    /// A single sorted sweep: one cursor over the (sorted) regions, one
    /// pass over the ranges — O(regions + ranges), not O(ranges ×
    /// regions). `new_ranges` must be ascending and disjoint, which is
    /// what every primitives backend produces (sorted VMA lists, the
    /// physical space, synthetic spaces). Built in `scratch`, as
    /// [`Self::split`] is.
    pub fn update_ranges(&mut self, new_ranges: &[AddrRange], scratch: &mut Self) {
        debug_assert!(
            new_ranges.windows(2).all(|w| w[0].end <= w[1].start || w[1].is_empty()),
            "target ranges must be sorted and disjoint"
        );
        let n = self.len();
        let out = scratch;
        out.truncate(0);
        out.reserve(n);
        let mut ri = 0usize;
        for range in new_ranges.iter().filter(|r| !r.is_empty()) {
            // Skip regions that end before this range begins.
            while ri < n && self.ends[ri] <= range.start {
                ri += 1;
            }
            let mut cursor = range.start;
            while ri < n && self.starts[ri] < range.end {
                let isect_start = self.starts[ri].max(range.start);
                let isect_end = self.ends[ri].min(range.end);
                if isect_start < isect_end {
                    if isect_start > cursor {
                        out.push_fresh(cursor, isect_start);
                    }
                    // Clipped region keeps its counters; outstanding
                    // samples are invalidated (may fall outside the clip).
                    out.push_with(
                        isect_start,
                        isect_end,
                        self.nr_accesses[ri],
                        self.last_nr_accesses[ri],
                        self.ages[ri],
                        NO_SAMPLE,
                    );
                    cursor = isect_end.max(cursor);
                }
                if self.ends[ri] > range.end {
                    // Straddler: it also overlaps the next range.
                    break;
                }
                ri += 1;
            }
            if cursor < range.end {
                out.push_fresh(cursor, range.end);
            }
        }
        std::mem::swap(self, out);
    }

    /// One sampling sweep through the back-end's column op
    /// ([`Primitives::sweep`]): every outstanding sample is checked — its
    /// region counts an access when the page reads young — and, with `rng`,
    /// every region draws its next sample (one draw per region, in region
    /// order, the reference implementation's) and ages it. Returns the
    /// checks. The three ways the monitor calls it:
    ///
    /// * with `rng`, samples outstanding: the fused tick, both halves;
    /// * without `rng`: the check half alone, every sample consumed;
    /// * with `rng` on a set with no sample outstanding (after a check-only
    ///   sweep and a boundary's merge, split or update): the prepare half.
    ///
    /// The fused sweep equals the check half followed by the prepare half
    /// because regions are disjoint and page-aligned: region *i*'s `mkold`
    /// never touches the page region *j* reads. The rng is drawn through a
    /// local copy, written back after the walk, so the draw inlined into
    /// the back-end's loop keeps its state in registers.
    pub fn sweep<P: Primitives>(
        &mut self,
        prim: &mut P,
        env: &mut P::Env,
        rng: Option<&mut SmallRng>,
    ) -> u64 {
        let cols = SampleColumns::new(
            &self.starts,
            &self.ends,
            &mut self.sampling,
            &mut self.nr_accesses,
        );
        let Some(rng) = rng else { return prim.sweep(env, cols, |_, _| NO_SAMPLE) };
        let mut local = rng.clone();
        let checks = prim.sweep(env, cols, |start, end| draw_sample(&mut local, start, end));
        *rng = local;
        checks
    }

    /// Debug invariant: sorted, non-overlapping, non-empty regions, and
    /// every outstanding sample a page of its region.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 1..self.len() {
            if self.ends[i - 1] > self.starts[i] {
                return Err(format!(
                    "overlap/order violation: [{:#x}, {:#x}) then [{:#x}, {:#x})",
                    self.starts[i - 1],
                    self.ends[i - 1],
                    self.starts[i],
                    self.ends[i]
                ));
            }
        }
        for i in 0..self.len() {
            if self.starts[i] >= self.ends[i] {
                return Err(format!("empty region at [{:#x}, {:#x})", self.starts[i], self.ends[i]));
            }
        }
        // The sweep kernels' precondition: an outstanding sample is a page
        // of its own region (page-aligned, and overlapping it).
        for i in 0..self.len() {
            let (start, end, sample) = (self.starts[i], self.ends[i], self.sampling[i]);
            let in_region =
                sample % PAGE_SIZE == 0 && sample >= page_align_down(start) && sample < end;
            if sample != NO_SAMPLE && !in_region {
                return Err(format!("sample {sample:#x} outside its region [{start:#x}, {end:#x})"));
            }
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
    fn init_distributes_proportionally() {
        let ranges = [AddrRange::new(0, mb(30)), AddrRange::new(mb(100), mb(110))];
        let set = RegionSet::init(&ranges, 8);
        assert!(set.len() >= 2);
        assert_eq!(set.total_bytes(), mb(40));
        set.check_invariants().unwrap();
        // The 30 MiB range should get ~3x the regions of the 10 MiB one.
        let in_big = set.iter().filter(|r| r.range.end <= mb(30)).count();
        let in_small = set.len() - in_big;
        assert!(in_big > in_small);
    }

    #[test]
    fn init_with_empty_ranges() {
        let set = RegionSet::init(&[], 10);
        assert!(set.is_empty());
        let set = RegionSet::init(&[AddrRange::empty()], 10);
        assert!(set.is_empty());
    }

    #[test]
    fn init_single_page_range() {
        let set = RegionSet::init(&[AddrRange::new(0, PAGE_SIZE)], 10);
        assert_eq!(set.len(), 1);
        assert_eq!(set.total_bytes(), PAGE_SIZE);
    }

    #[test]
    fn split_preserves_bytes_and_respects_max() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(64))], 10);
        let (mut rng, mut scratch) = (SmallRng::seed_from_u64(1), RegionSet::default());
        let before = set.total_bytes();
        for _ in 0..10 {
            set.split(&mut rng, 100, &mut scratch);
            assert_eq!(set.total_bytes(), before, "split conserves bytes");
            set.check_invariants().unwrap();
            assert!(set.len() <= 100);
        }
        assert_eq!(set.len(), 100, "splitting saturates at max_nr");
    }

    #[test]
    fn merge_similar_neighbours() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(8))], 8);
        // All counters zero → everything similar → merges down to min_nr.
        let before = set.total_bytes();
        set.merge_with_aging(2, u64::MAX, 3);
        assert_eq!(set.len(), 3, "merging floors at min_nr");
        assert_eq!(set.total_bytes(), before);
        set.check_invariants().unwrap();
    }

    #[test]
    fn merge_keeps_dissimilar_apart() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(4))], 4);
        // Make region 1 hot.
        set.nr_accesses[1] = 20;
        set.merge_with_aging(2, u64::MAX, 1);
        // Hot region must not merge into cold neighbours.
        assert!(set.len() >= 2);
        assert!(set.iter().any(|r| r.nr_accesses >= 10));
    }

    #[test]
    fn merge_respects_sz_limit() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(8))], 8);
        let max_region = mb(2);
        set.merge_with_aging(2, max_region, 1);
        for r in set.iter() {
            assert!(r.sz() <= max_region);
        }
    }

    #[test]
    fn aging_increments_when_stable_resets_on_change() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(1))], 3);
        for i in 0..set.len() {
            set.nr_accesses[i] = 5;
            set.last_nr_accesses[i] = 5;
        }
        set.merge_with_aging(2, PAGE_SIZE, 3); // sz_limit small: no merging
        assert!(set.iter().all(|r| r.age == 1));
        set.reset_aggregated();
        for i in 0..set.len() {
            set.nr_accesses[i] = 15; // big change
        }
        set.merge_with_aging(2, PAGE_SIZE, 3);
        assert!(set.iter().all(|r| r.age == 0), "age reset on change");
    }

    #[test]
    fn reset_aggregated_rolls_window() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(1))], 3);
        set.nr_accesses[0] = 9;
        set.reset_aggregated();
        assert_eq!(set.get(0).nr_accesses, 0);
        assert_eq!(set.get(0).last_nr_accesses, 9);
    }

    #[test]
    fn update_ranges_keeps_overlap_counters() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(4))], 4);
        for i in 0..set.len() {
            set.nr_accesses[i] = 7;
            set.ages[i] = 3;
        }
        // Target grew by 2 MiB and lost its first MiB.
        set.update_ranges(&[AddrRange::new(mb(1), mb(6))], &mut RegionSet::default());
        set.check_invariants().unwrap();
        assert_eq!(set.total_bytes(), mb(5));
        // Old overlap keeps counters; the new tail starts fresh.
        let first = set.get(0);
        assert_eq!(first.nr_accesses, 7);
        assert_eq!(first.age, 3);
        let last = set.get(set.len() - 1);
        assert_eq!(last.nr_accesses, 0);
        assert_eq!(last.age, 0);
        assert_eq!(last.range.end, mb(6));
    }

    #[test]
    fn update_ranges_fills_holes_between_regions() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(1))], 3);
        // New target has a second disjoint range → fresh region there.
        let target = [AddrRange::new(0, mb(1)), AddrRange::new(mb(10), mb(12))];
        set.update_ranges(&target, &mut RegionSet::default());
        set.check_invariants().unwrap();
        assert_eq!(set.total_bytes(), mb(3));
        assert!(set.iter().any(|r| r.range.start >= mb(10)));
    }

    #[test]
    fn update_ranges_clips_region_straddling_two_ranges() {
        // One big region overlapping both halves of a split target must
        // contribute its counters to both clipped pieces.
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(4))], 1);
        set.nr_accesses[0] = 9;
        let target = [AddrRange::new(0, mb(1)), AddrRange::new(mb(2), mb(3))];
        set.update_ranges(&target, &mut RegionSet::default());
        set.check_invariants().unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.iter().all(|r| r.nr_accesses == 9));
        assert_eq!(set.total_bytes(), mb(2));
    }

    #[test]
    fn split_then_merge_roundtrip_conserves() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(16))], 10);
        let (mut rng, mut scratch) = (SmallRng::seed_from_u64(7), RegionSet::default());
        let bytes = set.total_bytes();
        for _ in 0..20 {
            set.split(&mut rng, 50, &mut scratch);
            set.merge_with_aging(2, mb(16) / 10, 10);
            assert_eq!(set.total_bytes(), bytes);
            set.check_invariants().unwrap();
            assert!(set.len() <= 50);
            assert!(set.len() >= 10 || set.len() == 50);
        }
    }

    #[test]
    fn sweep_halves_count_young_pages() {
        use crate::primitives::{SyntheticPrimitives, SyntheticSpace};
        let whole = AddrRange::new(0, mb(1));
        let mut space = SyntheticSpace::new(vec![whole]);
        let mut set = RegionSet::init(&[whole], 4);
        let (mut rng, mut prim) = (SmallRng::seed_from_u64(3), SyntheticPrimitives);
        let mut sweep = |set: &mut RegionSet, space: &mut SyntheticSpace, draw: bool| {
            set.sweep(&mut prim, space, draw.then_some(&mut rng))
        };
        // The prepare half: nothing outstanding, one sample drawn per region.
        space.touch_range(whole);
        assert_eq!(sweep(&mut set, &mut space, true), 4);
        assert!(set.iter().all(|r| r.nr_accesses == 0 && r.sampling_addr.is_some()));
        assert!(set.iter().all(|r| !space.accessed.contains(&r.sampling_addr.unwrap())), "aged");
        // The check half: every sampled page reads young again, and is consumed.
        space.touch_range(whole);
        assert_eq!(sweep(&mut set, &mut space, false), 4);
        assert!(set.iter().all(|r| r.nr_accesses == 1 && r.sampling_addr.is_none()));
        assert_eq!(sweep(&mut set, &mut space, false), 0, "nothing outstanding");
        // Fused: the first has nothing outstanding to check; the second
        // checks what the first aged.
        assert_eq!(sweep(&mut set, &mut space, true), 4);
        space.touch_range(whole);
        assert_eq!(sweep(&mut set, &mut space, true), 8);
        assert!(set.iter().all(|r| r.nr_accesses == 2));
        assert!(set.iter().all(|r| !space.accessed.contains(&r.sampling_addr.unwrap())), "aged");
        set.check_invariants().unwrap();
    }
}
