//! Aggregation results delivered to users (the paper's user-registered
//! callback data: "the access frequency and recency of each region").

use std::borrow::Borrow;
use std::fmt;

use daos_mm::addr::{AddrRange, PAGE_SHIFT, PAGE_SIZE};
use daos_mm::clock::Ns;

use crate::region::RegionInfo;

/// One aggregation window's monitoring result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregation {
    /// Virtual time the window closed.
    pub at: Ns,
    /// Merged regions with their access counters and ages.
    pub regions: Vec<RegionInfo>,
    /// Maximum possible value of `nr_accesses` this window (for
    /// normalising counters to access-frequency ratios).
    pub max_nr_accesses: u32,
    /// Aggregation interval length (for converting ages to time).
    pub aggregation_interval: Ns,
}

impl Aggregation {
    /// Access-frequency ratio (0..=1) of a region in this window.
    pub fn freq_ratio(&self, r: &RegionInfo) -> f64 {
        if self.max_nr_accesses == 0 {
            0.0
        } else {
            r.nr_accesses as f64 / self.max_nr_accesses as f64
        }
    }

    /// Total monitored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.range.len()).sum()
    }

    /// Sum of `len × freq_ratio` — a working-set-size estimate.
    pub fn hot_bytes_estimate(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| (r.range.len() as f64 * self.freq_ratio(r)) as u64)
            .sum()
    }
}

/// A log of aggregations, as produced by the paper's `rec`/`prec`
/// configurations and consumed by the Fig. 6 heatmap renderer.
///
/// Every window is one run of LEB128 varints in one byte stream, and the
/// record keeps only where each run starts. A run opens with its header:
/// `at`, `aggregation_interval`, `max_nr_accesses` and the region count
/// shifted past two flags. Then, per region, the gap from the previous
/// region's end (from 0 for a window's first) and the length — in pages
/// when every gap and length of the window is a whole number of pages
/// (`ALIGNED`) — and the counters. When every `nr_accesses` is at most
/// `max_nr_accesses` and every length is below 2⁶³ (`PACKED`), a region
/// is `age × (max + 1) + nr` as one varint, then the length shifted past
/// a bit that says whether a nonzero gap follows it. A monitor's window
/// takes ≈ 2.5 bytes a region that way, where a [`RegionInfo`] takes 24.
/// Any other window keeps four varints a region (gap, length,
/// `nr_accesses`, `age`): `daos report` rebuilds records from trace
/// files, whose windows can be anything. Gap and length wrap, so any
/// window round-trips, sorted or not, and the flags are the window's
/// own, so the encoding is canonical: equal records have equal streams.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct MonitorRecord {
    offsets: Vec<u64>,
    stream: Vec<u8>,
}

/// Header flag: gaps and lengths are stored in pages.
const ALIGNED: u64 = 1;
/// Header flag: each region's count and age share one varint.
const PACKED: u64 = 2;

impl MonitorRecord {
    /// Empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one window.
    pub fn push(&mut self, a: impl Borrow<Aggregation>) {
        let a = a.borrow();
        let max = u64::from(a.max_nr_accesses);
        let (mut offgrid, mut packed, mut prev_end) = (0, true, 0);
        for r in &a.regions {
            let len = r.range.end.wrapping_sub(r.range.start);
            offgrid |= r.range.start.wrapping_sub(prev_end) | len;
            packed &= r.nr_accesses <= a.max_nr_accesses && len >> 63 == 0;
            prev_end = r.range.end;
        }
        let aligned = offgrid % PAGE_SIZE == 0;
        let shift = if aligned { PAGE_SHIFT } else { 0 };
        let flags = if aligned { ALIGNED } else { 0 } | if packed { PACKED } else { 0 };
        self.offsets.push(self.stream.len() as u64);
        let count = (a.regions.len() as u64) << 2 | flags;
        self.put([a.at, a.aggregation_interval, max, count]);
        prev_end = 0;
        for r in &a.regions {
            let gap = r.range.start.wrapping_sub(prev_end) >> shift;
            let len = r.range.end.wrapping_sub(r.range.start) >> shift;
            let (nr, age) = (u64::from(r.nr_accesses), u64::from(r.age));
            if !packed {
                self.put([gap, len, nr, age]);
            } else if gap == 0 {
                self.put([age * (max + 1) + nr, len << 1]);
            } else {
                self.put([age * (max + 1) + nr, len << 1 | 1, gap]);
            }
            prev_end = r.range.end;
        }
    }

    /// Append varints to the stream as LEB128: seven bits a byte, low
    /// bits first, the top bit set on every byte but the last.
    fn put<const N: usize>(&mut self, values: [u64; N]) {
        for mut v in values {
            while v >= 0x80 {
                self.stream.push(v as u8 | 0x80);
                v >>= 7;
            }
            self.stream.push(v as u8);
        }
    }

    /// The recorded windows, decoded, in time order.
    pub fn windows(&self) -> impl DoubleEndedIterator<Item = Aggregation> + '_ {
        self.offsets.iter().map(|&offset| {
            let (mut a, regions) = self.window(offset);
            a.regions = regions.collect();
            a
        })
    }

    /// The window whose run starts at `offset`, its regions left out,
    /// and the decoder of its regions.
    fn window(&self, offset: u64) -> (Aggregation, Regions<'_>) {
        let mut r = Regions { stream: &self.stream, pos: offset as usize, ..Regions::default() };
        let [at, aggregation_interval, max, count] = [(); 4].map(|()| r.varint());
        (r.max, r.left) = (max, (count >> 2) as usize);
        r.shift = if count & ALIGNED != 0 { PAGE_SHIFT } else { 0 };
        r.packed = count & PACKED != 0;
        let regions = Vec::new();
        (Aggregation { at, regions, max_nr_accesses: max as u32, aggregation_interval }, r)
    }

    /// Number of recorded windows.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Host heap the record holds, bytes: what its two vectors have
    /// allocated, used or not.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u64>() + self.stream.capacity()
    }

    /// Give back the slack the two vectors' doubling left: a finished
    /// record holds the bytes it uses and no more.
    pub fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.stream.shrink_to_fit();
    }

    /// Time span `(first, last)` covered by the record.
    pub fn time_span(&self) -> Option<(Ns, Ns)> {
        let at = |&offset: &u64| self.window(offset).0.at;
        Some((at(self.offsets.first()?), at(self.offsets.last()?)))
    }

    /// The union of all observed region ranges (for axis scaling).
    pub fn address_span(&self) -> Option<AddrRange> {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for r in self.offsets.iter().flat_map(|&offset| self.window(offset).1) {
            lo = lo.min(r.range.start);
            hi = hi.max(r.range.end);
        }
        (lo < hi).then_some(AddrRange::new(lo, hi))
    }
}

/// Reads as the `Vec<Aggregation>` the record holds logically, so a
/// run's `{:#?}` does not depend on the encoding.
impl fmt::Debug for MonitorRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let aggregations: Vec<Aggregation> = self.windows().collect();
        f.debug_struct("MonitorRecord").field("aggregations", &aggregations).finish()
    }
}

/// The decoder of one window's run of regions, in the layout its
/// header's flags name.
#[derive(Default)]
struct Regions<'a> {
    stream: &'a [u8],
    pos: usize,
    prev_end: u64,
    left: usize,
    max: u64,
    shift: u32,
    packed: bool,
}

impl Regions<'_> {
    fn varint(&mut self) -> u64 {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.stream[self.pos];
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
        }
        v
    }
}

impl Iterator for Regions<'_> {
    type Item = RegionInfo;

    fn next(&mut self) -> Option<RegionInfo> {
        self.left = self.left.checked_sub(1)?;
        let (gap, len, nr_accesses, age);
        if self.packed {
            let head = self.varint();
            let l = self.varint();
            gap = if l & 1 == 1 { self.varint() } else { 0 };
            len = l >> 1;
            nr_accesses = head % (self.max + 1);
            age = head / (self.max + 1);
        } else {
            [gap, len, nr_accesses, age] = [(); 4].map(|()| self.varint());
        }
        let start = self.prev_end.wrapping_add(gap << self.shift);
        let end = start.wrapping_add(len << self.shift);
        self.prev_end = end;
        let range = AddrRange { start, end };
        Some(RegionInfo { range, nr_accesses: nr_accesses as u32, age: age as u32 })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use daos_util::rng::SmallRng;

    fn info(start: u64, end: u64, nr: u32, age: u32) -> RegionInfo {
        RegionInfo { range: AddrRange::new(start, end), nr_accesses: nr, age }
    }

    #[test]
    fn ratios_and_totals() {
        let a = Aggregation {
            at: 100,
            regions: vec![info(0, 0x1000, 10, 3), info(0x1000, 0x3000, 0, 7)],
            max_nr_accesses: 20,
            aggregation_interval: 50,
        };
        assert_eq!(a.freq_ratio(&a.regions[0]), 0.5);
        assert_eq!(a.freq_ratio(&a.regions[1]), 0.0);
        assert_eq!(a.total_bytes(), 0x3000);
        assert_eq!(a.hot_bytes_estimate(), 0x800);
    }

    #[test]
    fn record_spans() {
        let mut rec = MonitorRecord::new();
        assert!(rec.is_empty());
        assert_eq!(rec.time_span(), None);
        assert_eq!(rec.address_span(), None);
        for t in [10, 20, 30] {
            rec.push(Aggregation {
                at: t,
                regions: vec![info(0x1000 * t, 0x1000 * t + 0x1000, 1, 0)],
                max_nr_accesses: 20,
                aggregation_interval: 10,
            });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.time_span(), Some((10, 30)));
        assert_eq!(rec.address_span(), Some(AddrRange::new(0xa000, 0x1f000)));
    }

    /// One varint-coded field in every width the stream can meet.
    #[test]
    fn varints_round_trip_at_every_width() {
        for v in [0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u32::MAX as u64, 1 << 63, u64::MAX] {
            let mut rec = MonitorRecord::new();
            rec.put([v]);
            let n = rec.stream.len();
            assert_eq!(n, (64 - v.leading_zeros() as usize).div_ceil(7).max(1));
            let mut r = Regions { stream: &rec.stream, ..Regions::default() };
            assert_eq!((r.varint(), r.pos), (v, n), "{v:#x}");
        }
    }

    /// A window of `rng`'s choosing: one shaped like the monitor's, or a
    /// hostile one.
    fn random_window(rng: &mut SmallRng, at: Ns) -> Aggregation {
        if rng.random_range(0..3u32) == 0 {
            let (nr, max) = (rng.random_range(0..40usize), rng.random_range(0..64u32));
            monitor_window(rng, at, nr, max)
        } else {
            hostile_window(rng, at)
        }
    }

    /// A window as the monitor makes one: `nr` regions on the page grid,
    /// mostly adjacent, now and then a gap, each at most 64 pages,
    /// counters at most `max_nr_accesses` and ages mostly a few windows.
    fn monitor_window(rng: &mut SmallRng, at: Ns, nr: usize, max_nr_accesses: u32) -> Aggregation {
        let mut addr = rng.random_range(0..1u64 << 28) * PAGE_SIZE;
        let mut regions = Vec::with_capacity(nr);
        for _ in 0..nr {
            if rng.random_range(0..64u32) == 0 {
                addr += rng.random_range(1..1u64 << 18) * PAGE_SIZE;
            }
            let start = addr;
            addr += rng.random_range(1..=64u64) * PAGE_SIZE;
            let oldest = rng.random_range(0..32u32);
            regions.push(RegionInfo {
                range: AddrRange::new(start, addr),
                nr_accesses: rng.random_range(0..=max_nr_accesses),
                age: rng.random_range(0..=oldest),
            });
        }
        Aggregation { at, regions, max_nr_accesses, aggregation_interval: 100_000_000 }
    }

    /// A window no monitor would make: empty, or regions that are
    /// adjacent, or apart, or anywhere at all — bounds off the page
    /// grid, `u32::MAX` counters and ages, addresses near `u64::MAX` and
    /// ranges that wrap past it.
    fn hostile_window(rng: &mut SmallRng, at: Ns) -> Aggregation {
        fn counter(rng: &mut SmallRng) -> u32 {
            match rng.random_range(0..4u32) {
                0 => u32::MAX,
                1 => rng.random(),
                _ => rng.random_range(0..64u32),
            }
        }
        let nr = if rng.random_range(0..4u32) == 0 { 0 } else { rng.random_range(1..40usize) };
        let mut addr = match rng.random_range(0..4u32) {
            0 => u64::MAX - rng.random_range(0..1u64 << 24),
            _ => rng.random_range(0..1u64 << 40),
        };
        let mut regions = Vec::with_capacity(nr);
        for _ in 0..nr {
            let start = match rng.random_range(0..8u32) {
                0 => rng.random(),
                1 => addr.wrapping_add(rng.random_range(1..1u64 << 30)),
                _ => addr,
            };
            let len = match rng.random_range(0..4u32) {
                0 => rng.random_range(0..1u64 << 20),
                _ => rng.random_range(1..1024u64) * 4096,
            };
            addr = start.wrapping_add(len);
            let range = AddrRange { start, end: addr };
            regions.push(RegionInfo { range, nr_accesses: counter(rng), age: counter(rng) });
        }
        Aggregation {
            at,
            regions,
            max_nr_accesses: counter(rng),
            aggregation_interval: rng.random(),
        }
    }

    /// The oracle's `address_span`: the one the record kept before it
    /// was a stream.
    fn address_span_of(windows: &[Aggregation]) -> Option<AddrRange> {
        let ranges = windows.iter().flat_map(|a| &a.regions).map(|r| r.range);
        let (lo, hi) = ranges.fold((u64::MAX, 0), |(lo, hi), r| (lo.min(r.start), hi.max(r.end)));
        (lo < hi).then_some(AddrRange::new(lo, hi))
    }

    daos_util::proptest! {
        cases = 128;

        /// Whatever is pushed, the stream reads back as the plain list of
        /// windows it replaced: the windows themselves, every query, `==`
        /// and the `{:#?}` that run goldens pin.
        fn record_agrees_with_a_vec_of_windows(seed in 0u64..1 << 48, nr in 0usize..24) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut oracle = Vec::new();
            let mut rec = MonitorRecord::new();
            let mut at = 0;
            for i in 0..nr {
                at += rng.random_range(0..1u64 << 30);
                let w = random_window(&mut rng, at);
                if i % 2 == 0 {
                    rec.push(&w);
                } else {
                    rec.push(w.clone());
                }
                oracle.push(w);
            }
            daos_util::prop_assert_eq!(rec.windows().collect::<Vec<_>>(), oracle.clone());
            daos_util::prop_assert_eq!(rec.windows().rev().collect::<Vec<_>>(),
                oracle.iter().rev().cloned().collect::<Vec<_>>());
            daos_util::prop_assert_eq!((rec.len(), rec.is_empty()), (oracle.len(), oracle.is_empty()));
            daos_util::prop_assert_eq!(
                rec.time_span(),
                oracle.first().zip(oracle.last()).map(|(a, b)| (a.at, b.at))
            );
            daos_util::prop_assert_eq!(rec.address_span(), address_span_of(&oracle));
            let mut again = MonitorRecord::new();
            oracle.iter().for_each(|w| again.push(w));
            daos_util::prop_assert!(again == rec);
            let old = old::MonitorRecord { aggregations: oracle };
            daos_util::prop_assert_eq!(format!("{rec:#?}"), format!("{old:#?}"));
            daos_util::prop_assert_eq!(format!("{rec:?}"), format!("{old:?}"));
            let mut oracle = old.aggregations;
            if oracle.pop().is_some() {
                let mut shorter = MonitorRecord::new();
                oracle.iter().for_each(|w| shorter.push(w));
                daos_util::prop_assert!(shorter != rec, "a record without its last window");
            }
        }
    }

    /// One window of each layout — neither flag, `ALIGNED` alone,
    /// `PACKED` alone, both — in one record, each read back as pushed.
    #[test]
    fn every_layout_round_trips_in_one_record() {
        let mut rng = SmallRng::seed_from_u64(44);
        let both = monitor_window(&mut rng, 40, 300, 20);
        let mut packed = both.clone();
        packed.regions[7].range.end += 1;
        let mut aligned = both.clone();
        aligned.regions[0].nr_accesses = both.max_nr_accesses + 1;
        let mut neither = packed.clone();
        neither.regions[1].range.end = neither.regions[1].range.start.wrapping_sub(1);
        let windows = [neither, aligned, packed, both];
        let mut rec = MonitorRecord::new();
        windows.iter().for_each(|w| rec.push(w));
        let flags: Vec<u64> = rec.offsets.iter().map(|&o| {
            let r = rec.window(o).1;
            u64::from(r.shift == PAGE_SHIFT) * ALIGNED | u64::from(r.packed) * PACKED
        }).collect();
        assert_eq!(flags, [0, ALIGNED, PACKED, ALIGNED | PACKED]);
        assert_eq!(rec.windows().collect::<Vec<_>>(), windows);
    }

    /// A monitor's 1,000-region window costs at most 3 stream bytes a
    /// region, its header included.
    #[test]
    fn a_monitor_window_takes_under_three_bytes_a_region() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut rec = MonitorRecord::new();
        rec.push(monitor_window(&mut rng, 1 << 40, 1000, 20));
        assert!(rec.stream.len() <= 3000, "{} bytes", rec.stream.len());
        assert!(rec.heap_bytes() >= rec.stream.len() + 8);
    }

    /// A finished record holds the bytes it uses: after `shrink_to_fit`
    /// its heap is its offsets and its stream, no slack, and it decodes
    /// the same windows.
    #[test]
    fn a_finished_record_holds_the_bytes_it_uses() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut rec = MonitorRecord::new();
        for i in 0..37 {
            rec.push(monitor_window(&mut rng, (i + 1) << 30, 300, 20));
        }
        let in_use = rec.offsets.len() * std::mem::size_of::<u64>() + rec.stream.len();
        assert!(rec.heap_bytes() > in_use, "the doubling left slack to trim");
        let windows: Vec<Aggregation> = rec.windows().collect();
        rec.shrink_to_fit();
        assert_eq!(rec.heap_bytes(), in_use);
        assert!(rec.windows().eq(windows));
    }

    /// The record's shape before it was a stream, for its derived `Debug`.
    mod old {
        #[derive(Debug)]
        pub struct MonitorRecord {
            pub aggregations: Vec<super::Aggregation>,
        }
    }

    #[test]
    fn zero_max_accesses_safe() {
        let a = Aggregation {
            at: 0,
            regions: vec![info(0, 0x1000, 5, 0)],
            max_nr_accesses: 0,
            aggregation_interval: 1,
        };
        assert_eq!(a.freq_ratio(&a.regions[0]), 0.0);
    }
}


daos_util::json_struct!(Aggregation {
    at, regions, max_nr_accesses, aggregation_interval,
});
