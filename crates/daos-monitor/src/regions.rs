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
//! 48-byte struct moves. Total coverage is maintained incrementally so
//! `total_bytes` is O(1) — the adaptive `sz_limit` computation at every
//! aggregation boundary no longer rescans the set.
//!
//! Semantics are pinned to the reference array-of-structs implementation
//! in `tests/reference/` by differential tests; `split` and
//! `prepare_samples` consume the rng in exactly the same order as the
//! reference so both produce identical sequences from one seed.
//!
//! ## Sampling: one resolve per region
//!
//! Each sampling interval every region's outstanding sample is checked
//! and a new one is drawn and aged. All three sampling walks call the
//! back-end's one access op ([`crate::Primitives::access`]) once per
//! region — `access(old, new)` reads the old sample's accessed bit and
//! clears the new one's — so a back-end resolves each region's target
//! once, whichever walk runs:
//!
//! * [`RegionSet::sweep_samples`], on every tick with nothing between the
//!   phases, does both halves with one call per region;
//! * [`RegionSet::check_samples`] (`access(old, None)`) and
//!   [`RegionSet::prepare_samples`] (`access(None, new)`) are the two
//!   phases a boundary tick runs on either side of its merge, split or
//!   target update.
//!
//! The fused sweep equals the two phases because regions are disjoint and
//! page-aligned — the page region *i* ages is never the page region *j*
//! checks — and the rng is still drawn once per region, in region order.
//! The walks zip column slices, so the per-region loop carries no index
//! bounds checks.
//!
//! [`RegionSet::split`] and [`RegionSet::update_ranges`] rebuild the set
//! into a scratch set the caller keeps (the monitor holds one for its
//! lifetime) and swap it in, so a boundary reuses the columns' capacity
//! instead of allocating six fresh ones.

use daos_mm::addr::{page_align_down, AddrRange, PAGE_SIZE};
use daos_util::rng::SmallRng;

use crate::region::{Region, RegionInfo};

/// Sentinel in the `sampling` column for "no sample outstanding".
const NO_SAMPLE: u64 = u64::MAX;

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
    /// Incrementally maintained sum of region sizes.
    total_bytes: u64,
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
        self.total_bytes += end - start;
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

    /// Total monitored bytes. O(1) — maintained incrementally.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
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

    /// Empty the set, keeping the columns' capacity.
    fn clear(&mut self) {
        self.truncate(0);
        self.total_bytes = 0;
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
        // Kernel heuristic: aim for 3 pieces while clearly below the cap.
        let nr_pieces = if nr * 3 <= max_nr { 3 } else { 2 };
        let out = scratch;
        out.clear();
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
                let cut_page = rng.random_range(1..pages);
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
        self.total_bytes += end - start;
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
        out.clear();
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

    /// Phase-1 sampling: consume every outstanding sample, counting an
    /// access when `access(Some(sample), None)` reports the page young.
    /// Returns the number of checks performed.
    pub fn check_samples(
        &mut self,
        mut access: impl FnMut(Option<u64>, Option<u64>) -> bool,
    ) -> u64 {
        let mut checks = 0;
        for (sample, nr) in self.sampling.iter_mut().zip(&mut self.nr_accesses) {
            let old = std::mem::replace(sample, NO_SAMPLE);
            if old != NO_SAMPLE {
                *nr += access(Some(old), None) as u32;
                checks += 1;
            }
        }
        checks
    }

    /// Phase-2 sampling: pick one random page per region, age it via
    /// `access(None, Some(page))` and remember it for the next check (one
    /// rng draw per region, the reference implementation's order).
    /// Returns the number of samples prepared.
    pub fn prepare_samples(
        &mut self,
        rng: &mut SmallRng,
        mut access: impl FnMut(Option<u64>, Option<u64>) -> bool,
    ) -> u64 {
        let columns = self.starts.iter().zip(&self.ends).zip(&mut self.sampling);
        for ((&start, &end), sample) in columns {
            *sample = draw_sample(rng, start, end);
            access(None, Some(*sample));
        }
        self.len() as u64
    }

    /// Both phases in one pass, one `access(old, new)` per region: check
    /// the outstanding sample and age the next. Equal to
    /// [`Self::check_samples`] followed by [`Self::prepare_samples`]
    /// whenever no two regions share a page: region *i*'s `mkold` then
    /// commutes with region *j*'s `young`, and the rng is drawn in the
    /// same order. Returns the number of checks performed.
    pub fn sweep_samples(
        &mut self,
        rng: &mut SmallRng,
        mut access: impl FnMut(Option<u64>, Option<u64>) -> bool,
    ) -> u64 {
        debug_assert!(self.starts.iter().all(|s| s % PAGE_SIZE == 0), "regions share a page");
        let mut checks = self.len() as u64;
        let columns = self.starts.iter().zip(&self.ends).zip(&mut self.sampling);
        for (((&start, &end), sample), nr) in columns.zip(&mut self.nr_accesses) {
            let new = draw_sample(rng, start, end);
            let old = std::mem::replace(sample, new);
            let old = (old != NO_SAMPLE).then_some(old);
            checks += old.is_some() as u64;
            *nr += access(old, Some(new)) as u32;
        }
        checks
    }

    /// Debug invariant: sorted, non-overlapping, non-empty regions, and a
    /// consistent incremental byte total.
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
        let sum: u64 = (0..self.len()).map(|i| self.ends[i] - self.starts[i]).sum();
        if sum != self.total_bytes {
            return Err(format!(
                "total_bytes drift: cached {} actual {sum}",
                self.total_bytes
            ));
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
    fn sample_roundtrip_counts_young_pages() {
        let mut set = RegionSet::init(&[AddrRange::new(0, mb(1))], 4);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut aged = Vec::new();
        let prepared = set.prepare_samples(&mut rng, |old, new| {
            assert_eq!(old, None, "prepare only ages");
            aged.push(new.unwrap());
            true
        });
        assert_eq!(prepared, set.len() as u64);
        assert!(set.iter().zip(&aged).all(|(r, a)| r.sampling_addr == Some(*a)));
        // Every sampled page reads young → every region counts one.
        let checked = set.check_samples(|old, new| old.is_some() && new.is_none());
        assert_eq!(checked, prepared);
        assert!(set.iter().all(|r| r.nr_accesses == 1));
        assert!(set.iter().all(|r| r.sampling_addr.is_none()), "samples consumed");
        // No outstanding samples → no checks.
        assert_eq!(set.check_samples(|_, _| true), 0);
        // The fused sweep: one call per region, the first with no sample
        // outstanding; then each checks the page the last one aged (a
        // back-end reads `None` as not accessed).
        let mut sweep = |set: &mut RegionSet| {
            let mut calls = Vec::new();
            let checks = set.sweep_samples(&mut rng, |old, new| {
                calls.push((old, new));
                old.is_some()
            });
            (checks, calls)
        };
        let (checks, calls) = sweep(&mut set);
        assert_eq!(checks, 4);
        assert!(calls.iter().all(|(old, new)| old.is_none() && new.is_some()));
        assert!(set.iter().all(|r| r.nr_accesses == 1), "nothing was outstanding");
        let (checks, next) = sweep(&mut set);
        assert_eq!(checks, 8);
        assert!(next.iter().zip(&calls).all(|((old, _), (_, aged))| old == aged));
        assert!(set.iter().all(|r| r.nr_accesses == 2));
    }
}
