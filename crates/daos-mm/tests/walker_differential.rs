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
//! bit, and leave the residency counters exact. The walker works a
//! 64-page word at a time, so the generators aim at the word arithmetic:
//! strides that divide 64, strides that do not, strides of a chunk and
//! more (`STRIDES`), and runs that start and end on the first, second and
//! last bit of a word, sit inside one word, or end on a chunk's last bit
//! (`edge_range`). A run over whole chunks at a stride that divides 64
//! takes the walker's whole-chunk path, so it gets a property of its own
//! over chunks fully resident, partly resident and absent, huge and split.
//!
//! The page table itself — bitmaps and per-page arrays behind `Pte`-valued
//! accessors — is pinned against the array-of-`Pte` layout it replaced
//! (`reference/model.rs`): random sequences of every `Vma` operation that
//! reads or writes a page go through both, and must return the same
//! values and leave the same pages and the same materialised chunks. The
//! in-place state transitions (`map_page`, `bump_resident`, `reclaim_page`,
//! `split_huge`) are pinned the same way against the `with_pte` closures
//! they replaced, which the model keeps, and `pageout_in` against
//! `reclaim_page(addr, None, store)` looped over the resident pages.
//!
//! The forward page-table cursor (`PteCursor`) is pinned the same way,
//! over the same address spaces, against the per-address lookups it
//! replaced: reads and clears at byte-granular addresses — inside VMAs,
//! in the gaps, past both ends — in ascending, descending and shuffled
//! order must return the same bits and leave the same VMAs, down to which
//! chunks exist.

use daos_mm::access::{AccessBatch, AccessOutcome};
use daos_mm::addr::{huge_align_down, AddrRange, HUGE_PAGE_SIZE, PAGE_SIZE};
use daos_mm::error::MmError;
use daos_mm::machine::MachineProfile;
use daos_mm::process::PteCursor;
use daos_mm::swap::{SwapConfig, SwapSlot};
use daos_mm::system::MemorySystem;
use daos_mm::vma::{Pte, PteState, ThpMode, Vma};
use daos_util::rng::SmallRng;
use daos_util::{prop_assert_eq, proptest};

mod reference;
use reference::model::ModelVma;

/// Strides by what they do to a word's visit mask: dividing 64 (one
/// shifted constant), not dividing it (built per chunk), a chunk or more.
const STRIDES: [u32; 17] = [1, 2, 4, 8, 16, 32, 64, 3, 5, 7, 63, 65, 127, 511, 512, 513, 700];

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

/// A random fill of `range`, one 2 MiB chunk at a time: the entries to
/// write, in order, and the chunks to mark huge — a plan, so that the
/// model suite can carry it out on both page tables.
fn population(range: AddrRange, rng: &mut SmallRng, frame: &mut u32) -> (Vec<(u64, Pte)>, Vec<u64>) {
    const EMPTY: Pte = Pte { state: PteState::None, accessed: false, touched: false, lru_gen: 0 };
    let (mut entries, mut huge) = (Vec::new(), Vec::new());
    let mut chunk = range.start & !(HUGE_PAGE_SIZE - 1);
    while chunk < range.end {
        let span = AddrRange::new(chunk.max(range.start), (chunk + HUGE_PAGE_SIZE).min(range.end));
        // 0: never materialised; 1: materialised, emptied again;
        // 2: sparse; 3: dense; 4: fully resident.
        let kind = rng.random_range(0..5u32);
        let resident_pct = [0, 0, 15, 85, 100][kind as usize];
        if kind == 1 {
            entries.push((span.start, Pte { state: PteState::Resident(u32::MAX), ..EMPTY }));
            entries.push((span.start, EMPTY));
        }
        for addr in span.pages() {
            let roll = rng.random_range(0..100u32);
            if roll < resident_pct {
                *frame += 1;
                let (accessed, touched) = (rng.random::<f32>() < 0.5, rng.random::<f32>() < 0.5);
                let state = PteState::Resident(*frame);
                entries.push((addr, Pte { state, accessed, touched, lru_gen: 0 }));
            } else if kind >= 2 && roll < resident_pct + 10 {
                let state = PteState::Swapped(SwapSlot((addr / PAGE_SIZE) as u32));
                entries.push((addr, Pte { state, ..EMPTY }));
            }
        }
        // Aligned chunks are huge half the time, whatever they hold (a
        // page of a huge chunk can have been paged out since).
        if span.len() == HUGE_PAGE_SIZE && rng.random::<f32>() < 0.5 {
            huge.push(chunk);
        }
        chunk += HUGE_PAGE_SIZE;
    }
    (entries, huge)
}

/// Carry a `population` out on `vma`.
fn populate(vma: &mut Vma, rng: &mut SmallRng, frame: &mut u32) {
    let (entries, huge) = population(vma.range, rng, frame);
    for (addr, pte) in entries {
        vma.with_pte(addr, |p| *p = pte);
    }
    for chunk in huge {
        vma.set_huge(chunk, true);
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

/// A run over `vma` aimed at the word arithmetic, in pages `[lo, hi)`:
/// both ends on bit 0, 1 or 63 of a word; a run inside one word; a run
/// from a multiple of `stride` before a chunk's last page to the chunk's
/// end, so that the last page visited is bit 63 of its last word.
fn edge_range(rng: &mut SmallRng, vma: &Vma, stride: u32) -> AddrRange {
    let (first, end) = (vma.range.start / PAGE_SIZE, vma.range.end / PAGE_SIZE);
    let snap = |rng: &mut SmallRng| {
        (rng.random_range(first..end) & !63) + [0, 1, 63][rng.random_range(0..3usize)]
    };
    let (lo, hi) = match rng.random_range(0..3u32) {
        0 => {
            let (a, b) = (snap(rng), snap(rng));
            (a.min(b), a.max(b))
        }
        1 => {
            let (word, a) = (snap(rng) & !63, rng.random_range(0..64u64));
            (word + a, word + rng.random_range(a..64) + 1)
        }
        _ => {
            let chunk_end = (snap(rng) | 511) + 1;
            (chunk_end.saturating_sub(1 + rng.random_range(0..8u64) * stride as u64), chunk_end)
        }
    };
    AddrRange::new(lo * PAGE_SIZE, hi.max(lo + 1) * PAGE_SIZE)
}

/// The layout invariants (`Vma::check_counters`: canonical form, counters
/// equal to popcounts), and the residency counters against a rescan
/// through the public API: the totals, the per-chunk counters, and the
/// collecting scans.
fn check_counters(vma: &Vma) {
    vma.check_counters().unwrap();
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
        let in_chunk = swapped.iter().filter(|a| span.contains(**a)).count() as u64;
        assert_eq!(vma.chunk_nr_swapped(chunk), in_chunk);
    }
}

/// The same pages, and — `Vma ==` compares the chunk table, and an
/// unmapped page keeps no backing — the same materialised chunks: a fresh
/// VMA given the model's chunks and entries is the real one. Then the
/// counters, against a rescan.
fn assert_same_table(real: &Vma, model: &ModelVma, seed: u64) {
    let range = real.range;
    let mut rebuilt = Vma::new(range, real.thp);
    for (slot, _) in model.materialised().iter().enumerate().filter(|(_, m)| **m) {
        let any = (huge_align_down(range.start) + slot as u64 * HUGE_PAGE_SIZE).max(range.start);
        rebuilt.with_pte(any, |p| p.accessed = true);
        rebuilt.with_pte(any, |p| p.accessed = false);
    }
    for addr in range.pages() {
        assert_eq!(real.pte(addr), model.pte(addr), "seed {seed}: page {addr:#x}");
        rebuilt.with_pte(addr, |p| *p = model.pte(addr));
    }
    for chunk in real.chunks_in(&AddrRange::new(0, u64::MAX)).collect::<Vec<_>>() {
        rebuilt.set_huge(chunk, model.is_huge(chunk));
    }
    assert!(*real == rebuilt, "seed {seed}: the materialised chunks differ from the model's");
    check_counters(real);
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

/// One `with_pte` closure: every state transition, flag and generation
/// writes whatever the state, and the closure that changes nothing.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Map(u32, bool, bool),
    Swap(u32),
    /// `state = None`, flags and generation left as they are.
    Unmap,
    /// Back to the entry a never-touched page reads as.
    Clear,
    Flags(bool, bool),
    Bump,
    Nop,
}

impl Edit {
    fn random(rng: &mut SmallRng) -> Self {
        let mut flag = || rng.random::<f32>() < 0.5;
        let (a, t) = (flag(), flag());
        match rng.random_range(0..10u32) {
            0..3 => Edit::Map(rng.random_range(0..=u32::MAX), a, t),
            3..5 => Edit::Swap(rng.random_range(0..=u32::MAX)),
            5 => Edit::Unmap,
            6 => Edit::Clear,
            7 => Edit::Flags(a, t),
            8 => Edit::Bump,
            _ => Edit::Nop,
        }
    }

    /// Apply to `p`; returns what the closure saw.
    fn apply(self, p: &mut Pte) -> Pte {
        let saw = *p;
        match self {
            Edit::Map(frame, accessed, touched) => {
                let lru_gen = p.lru_gen.wrapping_add(1);
                *p = Pte { state: PteState::Resident(frame), accessed, touched, lru_gen }
            }
            Edit::Swap(slot) => p.state = PteState::Swapped(SwapSlot(slot)),
            Edit::Unmap => p.state = PteState::None,
            Edit::Clear => {
                *p = Pte { state: PteState::None, accessed: false, touched: false, lru_gen: 0 }
            }
            Edit::Flags(accessed, touched) => (p.accessed, p.touched) = (accessed, touched),
            Edit::Bump => p.lru_gen = p.lru_gen.wrapping_add(1),
            Edit::Nop => {}
        }
        saw
    }
}

proptest! {
    cases = 400;

    fn walker_matches_the_per_page_loop(seed in 0u64..1_000_000, stride in 1u32..=700) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vmas = random_address_space(&mut rng);
        for round in 0..4 {
            let range = random_range(&mut rng, &vmas);
            // Small strides get the most traffic; cover them every case,
            // and one of each class of visit mask.
            let class = STRIDES[(seed as usize + round as usize) % STRIDES.len()];
            for stride in [stride, 1 + (stride + round) % 8, class] {
                let what = format!("seed {seed} round {round} stride {stride} {range}");
                compare(&vmas, &range, stride, false, &what);
                let vma = &vmas[rng.random_range(0..vmas.len())];
                let edge = edge_range(&mut rng, vma, stride);
                compare(&vmas, &edge, stride, false, &format!("{what}: edge {edge}"));
            }
        }
        let whole = AddrRange::new(0, u64::MAX);
        compare(&vmas, &whole, stride, false, &format!("seed {seed} whole space stride {stride}"));
    }

    /// The walker's whole-chunk path — a stride that divides 64, from a
    /// chunk's first visited page (`lo < stride`) to its end, one visit
    /// mask for all eight words — over one aligned VMA of four chunks and
    /// a ragged tail, each chunk fully resident, all but a few pages, half,
    /// or never materialised, huge or split: runs of one or more whole
    /// chunks at strides 1, 2, 4 and 64, against `touch_stride` (and at
    /// stride 1 `touch_all`).
    fn whole_chunk_runs_match_the_per_page_loop(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let start = 64 * HUGE_PAGE_SIZE;
        let end = start + 4 * HUGE_PAGE_SIZE + rng.random_range(0..512u64) * PAGE_SIZE;
        let mut vma = Vma::new(AddrRange::new(start, end), ThpMode::Always);
        let mut frame = 0u32;
        for chunk in (start..end).step_by(HUGE_PAGE_SIZE as usize) {
            let resident_pct = [100, 100, 97, 50, 0][rng.random_range(0..5usize)];
            for addr in AddrRange::new(chunk, (chunk + HUGE_PAGE_SIZE).min(end)).pages() {
                let roll = rng.random_range(0..100u32);
                let (accessed, touched) = (rng.random::<f32>() < 0.5, rng.random::<f32>() < 0.5);
                let state = if roll < resident_pct {
                    frame += 1;
                    PteState::Resident(frame)
                } else if resident_pct > 0 && roll.is_multiple_of(2) {
                    PteState::Swapped(SwapSlot(roll))
                } else {
                    continue;
                };
                vma.with_pte(addr, |p| *p = Pte { state, accessed, touched, lru_gen: 0 });
            }
            vma.set_huge(chunk, rng.random::<f32>() < 0.5);
        }
        let vmas = [vma];
        for stride in [1u32, 2, 4, 64] {
            for round in 0..3 {
                let first = rng.random_range(0..4u64);
                let phase = rng.random_range(0..stride as u64);
                let last = (start + rng.random_range(first + 1..6) * HUGE_PAGE_SIZE).min(end);
                let run = AddrRange::new(start + first * HUGE_PAGE_SIZE + phase * PAGE_SIZE, last);
                let what = format!("seed {seed} stride {stride} round {round} {run}");
                compare(&vmas, &run, stride, false, &what);
                if stride == 1 {
                    compare(&vmas, &run, 1, true, &format!("{what}: all"));
                }
            }
        }
    }

    fn cursor_matches_the_per_address_lookup(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vmas = random_address_space(&mut rng);
        let lo = vmas[0].range.start - 8 * PAGE_SIZE;
        let hi = vmas[vmas.len() - 1].range.end + 8 * PAGE_SIZE;
        // (address, what) — a read, a read-and-clear, or the monitor's
        // access op on a pair: `new` a page up to 3 MiB either side of
        // `old` (same chunk, the next, across a VMA edge or a gap), or one
        // half missing.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Probe {
            Read,
            Clear,
            Access(Option<u64>, Option<u64>),
        }
        let mut probes: Vec<(u64, Probe)> = (0..300)
            .map(|_| {
                let addr = rng.random_range(lo..hi);
                let near = (addr + rng.random_range(0..6 * HUGE_PAGE_SIZE))
                    .saturating_sub(3 * HUGE_PAGE_SIZE)
                    .clamp(lo, hi - 1);
                let probe = match rng.random_range(0..5u32) {
                    0 => Probe::Read,
                    1 => Probe::Clear,
                    2 => Probe::Access(Some(addr), Some(near)),
                    3 => Probe::Access(Some(addr), None),
                    _ => Probe::Access(None, Some(addr)),
                };
                (addr, probe)
            })
            .collect();
        for order in ["ascending", "descending", "shuffled"] {
            match order {
                "ascending" => probes.sort_unstable(),
                "descending" => probes.reverse(),
                _ => (1..probes.len()).rev().for_each(|i| probes.swap(i, rng.random_range(0..i + 1))),
            }
            let (mut swept, mut looked_up) = (vmas.clone(), vmas.clone());
            let mut cur = PteCursor::new(&mut swept[..]);
            for &(addr, probe) in &probes {
                let what = format!("seed {seed} {order} {addr:#x} {probe:x?}");
                match probe {
                    Probe::Clear => {
                        let want = reference::check_accessed_clear(&mut looked_up, addr);
                        prop_assert_eq!(cur.clear_accessed(addr), want, "{}", what);
                    }
                    Probe::Read => {
                        let want = reference::peek_accessed(&looked_up, addr);
                        prop_assert_eq!(cur.accessed(addr), want, "{}", what);
                        // The read-only cursor, one-shot: what `peek_accessed` is.
                        let one_shot = PteCursor::new(&looked_up[..]).accessed(addr);
                        prop_assert_eq!(one_shot, want, "{}", what);
                    }
                    Probe::Access(old, new) => {
                        // Read `old`, then clear `new`, one lookup each.
                        let want = old.and_then(|a| reference::peek_accessed(&looked_up, a));
                        new.map(|a| reference::check_accessed_clear(&mut looked_up, a));
                        prop_assert_eq!(cur.access(old, new), want.unwrap_or(false), "{}", what);
                    }
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

    fn bitmaps_match_the_array_of_pte_model(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let start = 64 * HUGE_PAGE_SIZE + rng.random_range(0..600u64) * PAGE_SIZE;
        let range = AddrRange::new(start, start + rng.random_range(1..1500u64) * PAGE_SIZE);
        let (mut real, mut model) = (Vma::new(range, ThpMode::Always), ModelVma::new(range));
        // Start from a populated table two times in three, else from
        // nothing: every chunk absent.
        if rng.random_range(0..3u32) > 0 {
            let (entries, huge) = population(range, &mut rng, &mut 0);
            for (addr, pte) in entries {
                real.with_pte(addr, |p| *p = pte);
                model.with_pte(addr, |p| *p = pte);
            }
            for chunk in huge {
                real.set_huge(chunk, true);
                model.set_huge(chunk, true);
            }
        }
        let everything = AddrRange::new(0, u64::MAX);
        for step in 0..150 {
            let what = format!("seed {seed} step {step}");
            // Byte-granular: every accessor takes any address in the page.
            let addr = rng.random_range(range.start..range.end);
            let span = random_range(&mut rng, std::slice::from_ref(&real));
            match rng.random_range(0..100u32) {
                0..45 => {
                    let edit = Edit::random(&mut rng);
                    let saw = real.with_pte(addr, |p| edit.apply(p));
                    let want = model.with_pte(addr, |p| edit.apply(p));
                    prop_assert_eq!(saw, want, "{}: with_pte {:?} at {:#x} saw", what, edit, addr);
                }
                45..52 => {
                    // A dense patch, so that runs have something to hit.
                    let patch = AddrRange::new(addr, (addr + 90 * PAGE_SIZE).min(range.end));
                    for a in patch.page_aligned().pages() {
                        let edit = Edit::Map(rng.random_range(0..=u32::MAX), false, false);
                        real.with_pte(a, |p| edit.apply(p));
                        model.with_pte(a, |p| edit.apply(p));
                    }
                }
                52..70 => {
                    let stride = STRIDES[rng.random_range(0..STRIDES.len())];
                    let edge = rng.random::<f32>() < 0.5;
                    let run = if edge { edge_range(&mut rng, &real, stride) } else { span };
                    let what = format!("{what}: touch_run {run} stride {stride}");
                    let (mut out_r, mut out_m) = (AccessOutcome::default(), AccessOutcome::default());
                    let (mut faults_r, mut faults_m) = (Vec::new(), Vec::new());
                    real.touch_run(&run, stride, &mut faults_r, &mut out_r);
                    model.touch_run(&run, stride, &mut faults_m, &mut out_m);
                    prop_assert_eq!(out_r, out_m, "{}: outcome", what);
                    prop_assert_eq!(faults_r, faults_m, "{}: fault list", what);
                }
                70..78 => {
                    let (hit, want) = (real.touch_resident(addr), model.touch_resident(addr));
                    prop_assert_eq!(hit, want, "{}: touch_resident {:#x}", what, addr);
                }
                78..86 => {
                    let (was, want) = (real.clear_accessed(addr), model.clear_accessed(addr));
                    prop_assert_eq!(was, want, "{}: clear_accessed {:#x}", what, addr);
                }
                86..92 => {
                    let (mut r, mut m) = (Vec::new(), Vec::new());
                    real.collect_resident_in(&span, &mut r);
                    model.collect_resident_in(&span, &mut m);
                    prop_assert_eq!(&r, &m, "{}: collect_resident_in {}", what, span);
                    real.collect_swapped_in(&span, &mut r);
                    model.collect_swapped_in(&span, &mut m);
                    prop_assert_eq!(r, m, "{}: collect_swapped_in {}", what, span);
                }
                92..96 => {
                    let mapped: Vec<(u64, Pte)> = real.iter_mapped().collect();
                    prop_assert_eq!(mapped, model.iter_mapped(), "{}: iter_mapped", what);
                }
                _ => {
                    for chunk in real.chunks_in(&everything).collect::<Vec<_>>() {
                        let counts = (real.chunk_nr_resident(chunk), real.chunk_nr_swapped(chunk));
                        let want = (model.chunk_nr_resident(chunk), model.chunk_nr_swapped(chunk));
                        prop_assert_eq!(counts, want, "{}: chunk {:#x} counters", what, chunk);
                        if rng.random::<f32>() < 0.3 {
                            let huge = !real.is_huge(chunk);
                            real.set_huge(chunk, huge);
                            model.set_huge(chunk, huge);
                        }
                    }
                }
            }
        }
        assert_same_table(&real, &model, seed);
    }

    /// The in-place state transitions against the `with_pte` closures the
    /// fault, reclaim, LRU and THP paths ran before them
    /// (`reference/model.rs`): `map_page` over holes and swapped pages;
    /// `bump_resident` and `reclaim_page` with no queue stamp, the live one
    /// and a stale one, on resident, referenced, swapped and
    /// never-materialised pages; a swap device that is full one time in
    /// five; `pageout_in` over spans across chunk and VMA edges, with a
    /// store that fails at a random call — mid-word included — half the
    /// time; `split_huge` of huge and split chunks, materialised or not,
    /// holding touched and untouched pages. Same return values, freed
    /// frames and evicted `(addr, frame)` lists in order, the same calls to
    /// `store`, and afterwards the same pages, the same materialised chunks
    /// and exact counters.
    fn transitions_match_the_with_pte_closures(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let start = 64 * HUGE_PAGE_SIZE + rng.random_range(0..600u64) * PAGE_SIZE;
        let range = AddrRange::new(start, start + rng.random_range(1..1500u64) * PAGE_SIZE);
        let (mut real, mut model) = (Vma::new(range, ThpMode::Always), ModelVma::new(range));
        let (entries, huge) = population(range, &mut rng, &mut 0);
        for (addr, pte) in entries {
            real.with_pte(addr, |p| *p = pte);
            model.with_pte(addr, |p| *p = pte);
        }
        for chunk in huge {
            real.set_huge(chunk, true);
            model.set_huge(chunk, true);
        }
        let mut resident = Vec::new();
        let mut next_slot = 0u32;
        for step in 0..250 {
            // Half the time a page that was resident not long ago.
            if step % 16 == 0 {
                resident.clear();
                real.collect_resident_in(&range, &mut resident);
            }
            let addr = match resident.len() {
                n if n > 0 && rng.random::<f32>() < 0.5 => resident[rng.random_range(0..n)],
                _ => rng.random_range(range.start..range.end),
            };
            let gen = real.pte(addr).lru_gen;
            let stamps = [None, Some(gen), Some(gen), Some(gen.wrapping_sub(1))];
            let stamp = stamps[rng.random_range(0..4usize)];
            let flag = rng.random::<f32>() < 0.5;
            let what = format!("seed {seed} step {step} at {addr:#x} stamp {stamp:?} flag {flag}");
            match rng.random_range(0..100u32) {
                0..25 if !real.pte(addr).is_resident() => {
                    let frame = rng.random_range(0..=u32::MAX);
                    let got = real.map_page(addr, frame, flag);
                    let want = model.map_page(addr, frame, flag);
                    prop_assert_eq!(got, want, "{}: map_page", what);
                }
                0..50 => {
                    let got = real.bump_resident(addr, stamp, flag);
                    let want = model.bump_resident(addr, stamp, flag);
                    prop_assert_eq!(got, want, "{}: bump_resident", what);
                }
                50..85 => {
                    let full = rng.random_range(0..5u32) == 0;
                    let (mut stores_r, mut stores_m) = (0, 0);
                    let store = |calls: &mut u32| {
                        *calls += 1;
                        if full { Err(MmError::SwapFull) } else { Ok(SwapSlot(next_slot)) }
                    };
                    let got = real.reclaim_page(addr, stamp, || store(&mut stores_r));
                    let want = model.reclaim_page(addr, stamp, || store(&mut stores_m));
                    prop_assert_eq!(got, want, "{}: reclaim_page (swap full: {})", what, full);
                    prop_assert_eq!(stores_r, stores_m, "{}: calls to store", what);
                    next_slot += 1;
                }
                85..90 => {
                    // Across chunk and VMA edges, byte-granular, or aimed
                    // at the word arithmetic; the store fails at a random
                    // call half the time, mid-word included.
                    let span = match flag {
                        true => random_range(&mut rng, std::slice::from_ref(&real)),
                        false => edge_range(&mut rng, &real, 1),
                    };
                    let fail_at =
                        if rng.random::<f32>() < 0.5 { rng.random_range(0..64u32) } else { u32::MAX };
                    let store = |calls: &mut u32| {
                        *calls += 1;
                        match *calls - 1 {
                            call if call == fail_at => Err(MmError::SwapFull),
                            call => Ok(SwapSlot(next_slot.wrapping_add(call))),
                        }
                    };
                    let (mut stores_r, mut stores_m) = (0, 0);
                    let (mut evicted_r, mut evicted_m) = (Vec::new(), Vec::new());
                    let got = real.pageout_in(&span, &mut evicted_r, || store(&mut stores_r));
                    let want = model.pageout_in(&span, &mut evicted_m, || store(&mut stores_m));
                    let what = format!("{what}: pageout_in {span} (store fails at {fail_at})");
                    prop_assert_eq!(got, want, "{}", what);
                    prop_assert_eq!(stores_r, stores_m, "{}: calls to store", what);
                    prop_assert_eq!(evicted_r, evicted_m, "{}: evicted", what);
                    let paged = span.intersect(&range).map_or(AddrRange::empty(), |r| r.page_aligned());
                    for a in paged.pages() {
                        prop_assert_eq!(real.pte(a), model.pte(a), "{}: page {:#x}", what, a);
                    }
                    real.check_counters().unwrap();
                    next_slot = next_slot.wrapping_add(stores_r);
                }
                90..95 => {
                    let chunk = huge_align_down(addr);
                    if !real.chunks_in(&range).any(|c| c == chunk) {
                        continue;
                    }
                    let (mut freed_r, mut freed_m) = (Vec::new(), Vec::new());
                    real.split_huge(chunk, &mut freed_r);
                    model.split_huge(chunk, &mut freed_m);
                    prop_assert_eq!(freed_r, freed_m, "{}: split_huge {:#x} freed", what, chunk);
                    for a in AddrRange::new(chunk, chunk + HUGE_PAGE_SIZE).pages() {
                        let page = (real.pte(a), model.pte(a));
                        prop_assert_eq!(page.0, page.1, "{}: split_huge, page {:#x}", what, a);
                    }
                    prop_assert_eq!(
                        (real.chunk_nr_resident(chunk), real.is_huge(chunk)),
                        (model.chunk_nr_resident(chunk), model.is_huge(chunk)),
                        "{}: split_huge {:#x} chunk state", what, chunk
                    );
                    real.check_counters().unwrap();
                }
                _ => {
                    let (hit, want) = (real.touch_resident(addr), model.touch_resident(addr));
                    prop_assert_eq!(hit, want, "{}: touch_resident", what);
                }
            }
            prop_assert_eq!(real.pte(addr), model.pte(addr), "{}: the page afterwards", what);
        }
        assert_same_table(&real, &model, seed);
    }

    /// `TouchPattern::Stride`'s doc promises `Stride(1) == All`: the one
    /// walker at stride 1 is the old `All` loop.
    fn stride_one_is_all(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vmas = random_address_space(&mut rng);
        for round in 0..4 {
            let range = random_range(&mut rng, &vmas);
            compare(&vmas, &range, 1, true, &format!("seed {seed} round {round} {range}"));
            let edge = edge_range(&mut rng, &vmas[round % vmas.len()], 1);
            compare(&vmas, &edge, 1, true, &format!("seed {seed} round {round} edge {edge}"));
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
