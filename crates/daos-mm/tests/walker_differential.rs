//! Differential equivalence tests: the chunk-at-a-time page walker
//! (`Vma::touch_run`) against the per-page loops it replaced, kept beside
//! this test as an oracle (`reference/`).
//!
//! Both are driven over identical seeded address spaces — one to three
//! VMAs with unaligned ends, partial first and last chunks, chunks never
//! materialised, materialised-but-empty chunks, holes, swapped pages,
//! huge and split chunks — with a batch range that may start and end
//! mid-page, outside every VMA, or straddle several, at strides from 1 to
//! 700 pages (past 512 a stride skips whole chunks). They must agree on
//! the outcome counters, the fault list element for element, every PTE
//! bit, and leave the residency counters exact.
//!
//! The forward page-table cursor (`PteCursor`) is pinned the same way,
//! over the same address spaces, against the per-address lookups it
//! replaced: reads and clears at byte-granular addresses — inside VMAs,
//! in the gaps, past both ends — in ascending, descending and shuffled
//! order must return the same bits and leave the same VMAs, down to which
//! chunks exist.

use daos_mm::access::{AccessBatch, AccessOutcome};
use daos_mm::addr::{AddrRange, HUGE_PAGE_SIZE, PAGE_SIZE};
use daos_mm::machine::MachineProfile;
use daos_mm::process::PteCursor;
use daos_mm::swap::{SwapConfig, SwapSlot};
use daos_mm::system::MemorySystem;
use daos_mm::vma::{PteState, ThpMode, Vma};
use daos_util::rng::SmallRng;
use daos_util::{prop_assert_eq, proptest};

mod reference;

/// One to three VMAs in ascending order, populated at random.
fn random_address_space(rng: &mut SmallRng) -> Vec<Vma> {
    let mut vmas = Vec::new();
    let mut next = 64 * HUGE_PAGE_SIZE;
    let mut frame = 0u32;
    for _ in 0..rng.random_range(1..4u32) {
        // Adjacent to the previous VMA one time in four, else a gap.
        let adjacent = rng.random_range(0..4u32) == 0;
        let gap_pages = if adjacent { 0 } else { rng.random_range(1..900u64) };
        let start = next + gap_pages * PAGE_SIZE;
        let end = start + rng.random_range(1..1500u64) * PAGE_SIZE;
        let thp = [ThpMode::Never, ThpMode::Always, ThpMode::Madvise][rng.random_range(0..3usize)];
        let mut vma = Vma::new(AddrRange::new(start, end), thp);
        populate(&mut vma, rng, &mut frame);
        next = end;
        vmas.push(vma);
    }
    vmas
}

/// Fill `vma` one 2 MiB chunk at a time with a random mix of states.
fn populate(vma: &mut Vma, rng: &mut SmallRng, frame: &mut u32) {
    let range = vma.range;
    let mut chunk = range.start & !(HUGE_PAGE_SIZE - 1);
    while chunk < range.end {
        let span = AddrRange::new(chunk.max(range.start), (chunk + HUGE_PAGE_SIZE).min(range.end));
        // 0: never materialised; 1: materialised, emptied again;
        // 2: sparse; 3: dense; 4: fully resident.
        let kind = rng.random_range(0..5u32);
        let resident_pct = [0, 0, 15, 85, 100][kind as usize];
        if kind == 1 {
            vma.with_pte(span.start, |p| p.state = PteState::Resident(u32::MAX));
            vma.with_pte(span.start, |p| p.state = PteState::None);
        }
        for addr in span.pages() {
            let roll = rng.random_range(0..100u32);
            if roll < resident_pct {
                *frame += 1;
                let (accessed, touched) = (rng.random::<f32>() < 0.5, rng.random::<f32>() < 0.5);
                let id = *frame;
                vma.with_pte(addr, |p| {
                    p.state = PteState::Resident(id);
                    p.accessed = accessed;
                    p.touched = touched;
                });
            } else if kind >= 2 && roll < resident_pct + 10 {
                vma.with_pte(addr, |p| p.state = PteState::Swapped(SwapSlot(addr)));
            }
        }
        // Aligned chunks are huge half the time, whatever they hold (a
        // page of a huge chunk can have been paged out since).
        if span.len() == HUGE_PAGE_SIZE && rng.random::<f32>() < 0.5 {
            vma.set_huge(chunk, true);
        }
        chunk += HUGE_PAGE_SIZE;
    }
}

/// A batch range around the address space: byte-granular ends, anywhere
/// from before the first VMA to past the last.
fn random_range(rng: &mut SmallRng, vmas: &[Vma]) -> AddrRange {
    let lo = vmas[0].range.start - 8 * PAGE_SIZE;
    let hi = vmas[vmas.len() - 1].range.end + 8 * PAGE_SIZE;
    let a = rng.random_range(lo..hi);
    let b = rng.random_range(lo..hi);
    AddrRange::new(a.min(b), a.max(b) + 1)
}

/// The residency counters, checked against a rescan through the public
/// API: the totals, and the per-chunk and per-block counters the
/// collecting scans skip by.
fn check_counters(vma: &Vma) {
    let everything = AddrRange::new(0, u64::MAX);
    let resident: Vec<u64> =
        vma.iter_mapped().filter(|(_, p)| p.is_resident()).map(|(a, _)| a).collect();
    let swapped: Vec<u64> =
        vma.iter_mapped().filter(|(_, p)| !p.is_resident()).map(|(a, _)| a).collect();
    assert_eq!(vma.nr_resident(), resident.len());
    assert_eq!(vma.nr_swapped(), swapped.len());
    let (mut r, mut s) = (Vec::new(), Vec::new());
    vma.collect_resident_in(&everything, &mut r);
    vma.collect_swapped_in(&everything, &mut s);
    assert_eq!(r, resident);
    assert_eq!(s, swapped);
    for chunk in vma.chunks_in(&everything) {
        let span = AddrRange::new(chunk, chunk + HUGE_PAGE_SIZE);
        let in_chunk = resident.iter().filter(|a| span.contains(**a)).count() as u64;
        assert_eq!(vma.chunk_nr_resident(chunk), in_chunk);
    }
}

/// Walk `range` at `stride` with the walker and with the oracle; `all`
/// picks the oracle's `All` loop (only meaningful at stride 1).
fn compare(vmas: &[Vma], range: &AddrRange, stride: u32, all: bool, what: &str) {
    let (mut walked, mut looped) = (vmas.to_vec(), vmas.to_vec());
    let (mut out_w, mut out_l) = (AccessOutcome::default(), AccessOutcome::default());
    let (mut faults_w, mut faults_l) = (Vec::new(), Vec::new());
    for (w, l) in walked.iter_mut().zip(looped.iter_mut()) {
        w.touch_run(range, stride, &mut faults_w, &mut out_w);
        if all {
            reference::touch_all(l, range, &mut faults_l, &mut out_l);
        } else {
            reference::touch_stride(l, range, stride, &mut faults_l, &mut out_l);
        }
    }
    assert_eq!(out_w, out_l, "{what}: outcome");
    assert_eq!(faults_w, faults_l, "{what}: fault list");
    for (i, (w, l)) in walked.iter().zip(&looped).enumerate() {
        assert!(w == l, "{what}: vma {i} {} differs after the walk", w.range);
        check_counters(w);
    }
    // The walk only sets bits of resident pages: residency is as before.
    for (w, before) in walked.iter().zip(vmas) {
        assert_eq!((w.nr_resident(), w.nr_swapped()), (before.nr_resident(), before.nr_swapped()));
    }
}

proptest! {
    cases = 400;

    fn walker_matches_the_per_page_loop(seed in 0u64..1_000_000, stride in 1u32..=700) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vmas = random_address_space(&mut rng);
        for round in 0..4 {
            let range = random_range(&mut rng, &vmas);
            // Small strides get the most traffic; cover them every case.
            for stride in [stride, 1 + (stride + round) % 8] {
                let what = format!("seed {seed} round {round} stride {stride} {range}");
                compare(&vmas, &range, stride, false, &what);
            }
        }
        let whole = AddrRange::new(0, u64::MAX);
        compare(&vmas, &whole, stride, false, &format!("seed {seed} whole space stride {stride}"));
    }

    fn cursor_matches_the_per_address_lookup(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vmas = random_address_space(&mut rng);
        let lo = vmas[0].range.start - 8 * PAGE_SIZE;
        let hi = vmas[vmas.len() - 1].range.end + 8 * PAGE_SIZE;
        // (address, clear?) — a read or a read-and-clear.
        let mut probes: Vec<(u64, bool)> =
            (0..300).map(|_| (rng.random_range(lo..hi), rng.random::<f32>() < 0.5)).collect();
        for order in ["ascending", "descending", "shuffled"] {
            match order {
                "ascending" => probes.sort_unstable(),
                "descending" => probes.reverse(),
                _ => (1..probes.len()).rev().for_each(|i| probes.swap(i, rng.random_range(0..i + 1))),
            }
            let (mut swept, mut looked_up) = (vmas.clone(), vmas.clone());
            let mut cur = PteCursor::new(&mut swept[..]);
            for &(addr, clear) in &probes {
                let what = format!("seed {seed} {order} {addr:#x} clear={clear}");
                if clear {
                    let want = reference::check_accessed_clear(&mut looked_up, addr);
                    prop_assert_eq!(cur.clear_accessed(addr), want, "{}", what);
                } else {
                    let want = reference::peek_accessed(&looked_up, addr);
                    prop_assert_eq!(cur.accessed(addr), want, "{}", what);
                    // The read-only cursor, one-shot: what `peek_accessed` is.
                    prop_assert_eq!(PteCursor::new(&looked_up[..]).accessed(addr), want, "{}", what);
                }
            }
            // Same bits cleared and — `Vma ==` compares the chunk table —
            // no chunk materialised by a probe.
            for (i, (s, l)) in swept.iter().zip(&looked_up).enumerate() {
                assert!(s == l, "seed {seed} {order}: vma {i} {} differs after the sweep", s.range);
                check_counters(s);
            }
        }
    }

    /// `TouchPattern::Stride`'s doc promises `Stride(1) == All`: the one
    /// walker at stride 1 is the old `All` loop.
    fn stride_one_is_all(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vmas = random_address_space(&mut rng);
        for round in 0..4 {
            let range = random_range(&mut rng, &vmas);
            compare(&vmas, &range, 1, true, &format!("seed {seed} round {round} {range}"));
        }
    }

    /// The same promise end to end: on two copies of one machine under
    /// memory pressure, an `All` batch and a `Stride(1)` batch fault,
    /// reclaim and cost identically.
    fn stride_one_is_all_through_apply_access(seed in 0u64..1000, evict_pct in 0u64..=100) {
        let mut machine = MachineProfile::test_tiny();
        machine.dram_bytes = 3 << 20;
        let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), seed);
        let pid = sys.spawn();
        let at = 8 * HUGE_PAGE_SIZE + 5 * PAGE_SIZE;
        let a = sys.mmap_at(pid, at, 2 << 20, ThpMode::Always).unwrap();
        let b = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        sys.apply_access(pid, &AccessBatch::all(a, 1.0)).unwrap();
        sys.apply_access(pid, &AccessBatch::random(b, 64, 1.0)).unwrap();
        let cold = AddrRange::new(a.start, a.start + a.len() * evict_pct / 100).page_aligned();
        sys.pageout(pid, cold).unwrap();
        sys.pageout(pid, cold).unwrap();
        // Mid-page ends, across the gap between the two VMAs.
        let range = AddrRange::new(a.start + 100, b.end - 100);
        let mut other = sys.clone();
        let out_all = sys.apply_access(pid, &AccessBatch::all(range, 2.0)).unwrap();
        let out_stride = other.apply_access(pid, &AccessBatch::stride(range, 1, 2.0)).unwrap();
        prop_assert_eq!(out_all, out_stride);
        prop_assert_eq!(sys.proc_stats(pid), other.proc_stats(pid));
        prop_assert_eq!(sys.kstats, other.kstats);
        for r in [a, b] {
            prop_assert_eq!(sys.nr_resident_in(pid, r), other.nr_resident_in(pid, r));
            prop_assert_eq!(sys.nr_swapped_in(pid, r), other.nr_swapped_in(pid, r));
            for addr in r.pages() {
                prop_assert_eq!(sys.peek_accessed(pid, addr), other.peek_accessed(pid, addr));
            }
        }
    }
}
