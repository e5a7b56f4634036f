//! Fault service by run against fault service by page.
//!
//! `MemorySystem::apply_access` services a batch's queued faults one
//! (VMA, 2 MiB chunk) run at a time: one resolve and one fold of RSS and
//! fault counters per run. The oracle here is the same machine driven one
//! page at a time through the public API (`fault_per_page`): every queued
//! address that is not resident when its turn comes gets a batch of its
//! own — a run of one, which resolves, folds and reclaims alone, as the
//! per-page `handle_fault` did. The two must leave the same machine: one
//! test per way a fold can go wrong without any counter total moving.
//! A scheme's pageout, which works a word at a time and books its
//! evictions afterwards, is held the same way to one page per call.
//!
//! Pressure reclaim works an LRU tail run at a time too. Its oracle is
//! [`reference`]: the engine as it was before runs — pass 2 one page at a
//! time, and `shrink` one entry at a time — driven through the machine's
//! [`Parts`]. `run_and_reference_engines_agree` holds the two to equal
//! machines, statistics and trace events over random op sequences that
//! reach every way a run can stop early.

use daos_mm::access::{AccessBatch, AccessOutcome, TouchPattern};
use daos_mm::addr::{huge_align_down, AddrRange, PAGE_SIZE};
use daos_mm::clock::Ns;
use daos_mm::error::{MmError, MmResult};
use daos_mm::lru::LruList;
use daos_mm::machine::MachineProfile;
use daos_mm::stats::ProcStats;
use daos_mm::swap::SwapConfig;
use daos_mm::system::{MemorySystem, Parts};
use daos_mm::vma::{PteState, Reclaimed, ThpMode};
use daos_trace::{Collector, Event};
use daos_util::prop::{any_bool, run_cases, select, vec_of, StrategyExt};
use daos_util::rng::SmallRng;
use daos_util::{one_of, prop_assert, prop_assert_eq};
use std::cell::Cell;

const SEED: u64 = 11;

/// A machine with `dram_pages` frames and the paper's zram (a page costs
/// 4096 / 3 bytes of it: every store and load rounds), one process, one
/// mapping of `pages` pages.
fn machine(dram_pages: u64, pages: u64) -> (MemorySystem, u32, AddrRange) {
    let mut m = MachineProfile::test_tiny();
    m.dram_bytes = dram_pages * PAGE_SIZE;
    let mut sys = MemorySystem::new(m, SwapConfig::paper_zram(), SEED);
    let pid = sys.spawn();
    let range = sys.mmap(pid, pages * PAGE_SIZE, ThpMode::Never).unwrap();
    (sys, pid, range)
}

fn page(addr: u64) -> AddrRange {
    AddrRange::new(addr, addr + PAGE_SIZE)
}

/// Run `f` under a collector; its result and the events it emitted.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    daos_trace::install(Collector::builder().build().unwrap()).unwrap();
    let r = f();
    let events = daos_trace::take().unwrap().events();
    (r, events.into_iter().map(|e| e.event).collect())
}

/// Pass 2 of `apply_access` over `queued`, a page at a time. Returns the
/// `(minor, major, touched)` the single-page batches summed to.
fn fault_per_page(sys: &mut MemorySystem, pid: u32, queued: &[u64]) -> (u64, u64, u64) {
    let mut sum = (0, 0, 0);
    for &addr in queued {
        if sys.nr_resident_in(pid, page(addr)) == 1 {
            continue;
        }
        let out = sys.apply_access(pid, &AccessBatch::all(page(addr), 1.0)).unwrap();
        sum = (sum.0 + out.minor_faults, sum.1 + out.major_faults, sum.2 + out.touched_pages);
    }
    sum
}

/// Everything a run leaves behind that a later one could see, but
/// `access_ns`: the cost model prices a batch by its working set, and the
/// oracle's batches are one page each.
fn assert_same_machine(a: &mut MemorySystem, b: &mut MemorySystem, pid: u32, range: AddrRange) {
    // `Debug` prints the device's `f64` fill exactly.
    assert_eq!(format!("{:?}", a.swap()), format!("{:?}", b.swap()), "swap device");
    assert_eq!(a.kstats, b.kstats);
    let stats =
        |sys: &mut MemorySystem| ProcStats { access_ns: 0, ..*sys.proc_stats(pid).unwrap() };
    assert_eq!(stats(a), stats(b));
    for addr in range.pages() {
        let state = |sys: &MemorySystem| {
            (sys.nr_resident_in(pid, page(addr)), sys.nr_swapped_in(pid, page(addr)))
        };
        assert_eq!(state(a), state(b), "page {addr:#x}");
        assert_eq!(a.peek_accessed(pid, addr), b.peek_accessed(pid, addr), "page {addr:#x}");
    }
    // The same page in the same frame.
    for paddr in a.phys_space().pages() {
        assert_eq!(a.phys_owner(paddr), b.phys_owner(paddr), "frame at {paddr:#x}");
    }
    assert_eq!((a.audit(), b.audit()), (Ok(()), Ok(())));
}

/// (ii) A first-touch batch of 1.5 × DRAM and a bit: the process evicts
/// its own pages from the second third on, and ends below the peak (the
/// last reclaim pass frees more than the batch still needs). Folding a
/// run's RSS after the reclaim it triggered would report a peak below
/// what the process really held.
#[test]
fn a_batch_larger_than_dram_reports_the_per_page_peak() {
    let (mut by_run, pid, range) = machine(256, 400);
    let mut by_page = by_run.clone();
    let out = by_run.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
    let queued: Vec<u64> = range.pages().collect();
    let sum = fault_per_page(&mut by_page, pid, &queued);
    assert_eq!((out.minor_faults, out.major_faults, out.touched_pages), sum);
    assert_eq!(sum, (400, 0, 400));
    assert!(by_run.kstats.pressure_reclaims >= 144, "the batch must evict its own pages");
    assert!(by_run.rss_bytes(pid) < 256 * PAGE_SIZE, "the peak is not the final RSS");
    let peak = by_run.proc_stats(pid).unwrap().peak_rss_bytes;
    assert_eq!(peak, 256 * PAGE_SIZE, "DRAM was full of this process before the first reclaim");
    assert_same_machine(&mut by_run, &mut by_page, pid, range);
}

/// (i) Swap-ins under pressure: every fault loads its page and then waits
/// for reclaim, which stores others. The device's fill is an `f64`, so
/// loading after the stores (or batching either) rounds differently: the
/// `SwapIn`/`SwapOut` events — one per `load`/`store` call — must come
/// in the per-page order, and the fill must be bit-equal.
#[test]
fn the_swap_device_sees_loads_and_stores_in_the_per_page_order() {
    let (mut by_run, pid, range) = machine(256, 384);
    by_run.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
    // Re-fault the evicted head of the mapping: nothing in it is resident.
    let head = range.pages().take_while(|a| by_run.nr_swapped_in(pid, page(*a)) == 1).count();
    assert!(head >= 64, "only {head} pages of the head were evicted");
    let head = AddrRange::new(range.start, range.start + head as u64 * PAGE_SIZE);
    let mut by_page = by_run.clone();

    let batch = AccessBatch::all(head, 1.0);
    let (out, events_run) = traced(|| by_run.apply_access(pid, &batch).unwrap());
    let queued: Vec<u64> = head.pages().collect();
    let (sum, events_page) = traced(|| fault_per_page(&mut by_page, pid, &queued));
    assert_eq!((out.minor_faults, out.major_faults, out.touched_pages), sum);
    assert_eq!(sum, (0, head.nr_pages(), head.nr_pages()));
    let device = |events: &[Event]| -> Vec<Event> {
        let on_device = |e: &&Event| matches!(e, Event::SwapIn { .. } | Event::SwapOut { .. });
        events.iter().filter(on_device).copied().collect()
    };
    assert!(device(&events_run).len() as u64 >= 2 * head.nr_pages(), "a load and a store each");
    assert_eq!(device(&events_run), device(&events_page));
    assert_same_machine(&mut by_run, &mut by_page, pid, range);
}

/// The order inside one fault — which `fault_per_page` shares with the
/// code under test — pinned on its own: a page's swap-in is issued before
/// the reclaim its frame waits for. On a device with no slot left the
/// load frees the one slot reclaim's first store needs; the other way
/// round reclaim frees nothing and the fault is an `OutOfMemory`.
#[test]
fn a_full_swap_device_still_exchanges_a_page() {
    let mut m = MachineProfile::test_tiny();
    m.dram_bytes = 64 * PAGE_SIZE;
    let swap = SwapConfig::File { capacity_bytes: 32 * PAGE_SIZE };
    let mut sys = MemorySystem::new(m, swap, SEED);
    let pid = sys.spawn();
    let range = sys.mmap(pid, 96 * PAGE_SIZE, ThpMode::Never).unwrap();
    sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
    assert_eq!((sys.nr_resident_in(pid, range), sys.nr_swapped_in(pid, range)), (64, 32));
    assert!(!sys.swap().has_room(), "DRAM and the device are both full");
    let swapped = range.pages().find(|a| sys.nr_swapped_in(pid, page(*a)) == 1).unwrap();
    let out = sys.apply_access(pid, &AccessBatch::all(page(swapped), 1.0)).unwrap();
    assert_eq!((out.major_faults, sys.nr_resident_in(pid, page(swapped))), (1, 1));
    assert_eq!((sys.nr_resident_in(pid, range), sys.nr_swapped_in(pid, range)), (64, 32));
    assert_eq!(sys.audit(), Ok(()));
}

/// A scheme's pageout works a 64-page word at a time and does the
/// evictions' bookkeeping after the range: against the same machine paged
/// out one resident page per call, ascending, until the device has no room
/// for a cold page — where the per-page loop broke off. Every third page is
/// referenced, the range starts mid-page, and the device fills mid-range:
/// the same bytes and cost, the `SwapOut`s in the same order, the same
/// machine — and, once the range is faulted back in, the same frames,
/// because the free list took the evicted frames back in address order.
#[test]
fn a_pageout_by_word_frees_and_traces_in_address_order() {
    let mut m = MachineProfile::test_tiny();
    m.dram_bytes = 512 * PAGE_SIZE;
    let swap = SwapConfig::File { capacity_bytes: 150 * PAGE_SIZE };
    let mut by_word = MemorySystem::new(m, swap, SEED);
    let pid = by_word.spawn();
    let range = by_word.mmap(pid, 400 * PAGE_SIZE, ThpMode::Never).unwrap();
    by_word.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
    for addr in range.pages().filter(|a| !((a - range.start) / PAGE_SIZE).is_multiple_of(3)) {
        by_word.check_accessed_clear(pid, addr);
    }
    let mut by_page = by_word.clone();

    let span = AddrRange::new(range.start + 5 * PAGE_SIZE + 100, range.end - 3 * PAGE_SIZE);
    let (out, events_word) = traced(|| by_word.pageout(pid, span).unwrap());
    let (sum, events_page) = traced(|| {
        let mut sum = (0, 0);
        for addr in span.page_aligned().pages() {
            if by_page.peek_accessed(pid, addr) == Some(false) && !by_page.swap().has_room() {
                break;
            }
            let (bytes, ns) = by_page.pageout(pid, page(addr)).unwrap();
            sum = (sum.0 + bytes, sum.1 + ns);
        }
        sum
    });
    assert_eq!(out, sum);
    assert_eq!(out.0, 150 * PAGE_SIZE, "the device filled mid-range");
    assert_eq!(events_word, events_page);
    assert_same_machine(&mut by_word, &mut by_page, pid, range);
    for sys in [&mut by_word, &mut by_page] {
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
    }
    assert_same_machine(&mut by_word, &mut by_page, pid, range);
}

/// (iii) A `Random` batch draws addresses with replacement. Pass 1 queues
/// a page once per draw (nothing is resident yet); pass 2 must map and
/// count it once — by its second turn it is resident — unless reclaim
/// took it back in between, in which case it faults again, as a major
/// fault. Events keep the per-page order: a reclaim's `SwapOut`s and its
/// `Reclaim`, then the fault's `SwapIn` (if major) and `PageFault`.
#[test]
fn a_random_batch_counts_each_page_once_and_keeps_the_event_order() {
    for dram_pages in [256, 24] {
        let (mut by_run, pid, range) = machine(dram_pages, 64);
        let mut by_page = by_run.clone();
        // The draws the machine's stream (seeded `SEED`, unused so far) makes.
        let mut rng = SmallRng::seed_from_u64(SEED);
        let queued: Vec<u64> =
            (0..200).map(|_| range.start + rng.random_range(0..64u64) * PAGE_SIZE).collect();
        let mut distinct = queued.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(queued.len() > 3 * distinct.len(), "duplicates are the point");

        let batch = AccessBatch::random(range, 200, 1.0);
        let (out, events_run) = traced(|| by_run.apply_access(pid, &batch).unwrap());
        let (sum, events_page) = traced(|| fault_per_page(&mut by_page, pid, &queued));
        let what = format!("{dram_pages} frames");
        assert_eq!((out.minor_faults, out.major_faults, out.touched_pages), sum, "{what}");
        assert_eq!(out.minor_faults, distinct.len() as u64, "{what}: one first touch per page");
        if dram_pages >= 64 {
            assert_eq!(out.touched_pages, distinct.len() as u64, "{what}: no pressure, no refault");
        } else {
            assert!(out.major_faults > 0, "{what}: a drawn-again page was evicted in between");
        }
        assert_eq!(events_run, events_page, "{what}");
        let faults = events_run.iter().filter(|e| matches!(e, Event::PageFault { .. })).count();
        assert_eq!(faults as u64, out.touched_pages, "{what}: one PageFault per page mapped");
        for pair in events_run.windows(2) {
            match pair {
                [Event::SwapIn { addr, .. }, next] => {
                    let fault = Event::PageFault { pid, addr: *addr, major: true };
                    assert_eq!(*next, fault, "{what}: a swap-in is followed by its fault");
                }
                [Event::SwapOut { .. }, next] => assert!(
                    matches!(next, Event::SwapOut { .. } | Event::Reclaim { .. }),
                    "{what}: a reclaim pass's swap-outs end in its Reclaim, not {next:?}"
                ),
                _ => {}
            }
        }
        assert_same_machine(&mut by_run, &mut by_page, pid, range);
    }
}

/// The engine before it worked by run, over the machine's [`Parts`]: the
/// oracle the run engine must equal page for page and entry for entry.
mod reference {
    use super::*;

    /// What the oracle saw happen, so that a test can tell it reached
    /// each way a run stops early.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Seen {
        pub stale: bool,
        pub refill: bool,
        pub swap_full: bool,
        pub dram_full_mid_run: bool,
        pub drawn_twice: bool,
    }

    thread_local! {
        pub static SEEN: Cell<Seen> = Cell::new(Seen::default());
    }

    fn saw(f: impl FnOnce(&mut Seen)) {
        SEEN.with(|seen| {
            let mut s = seen.get();
            f(&mut s);
            seen.set(s);
        });
    }

    /// `MemorySystem::apply_access`, pass 2 one fault at a time: each
    /// page's state read at its turn, its swap load, then a frame — after
    /// one-entry-at-a-time reclaim if DRAM is full — its map, its LRU entry,
    /// its RSS and its events.
    pub fn apply_access(sys: &mut MemorySystem, pid: u32, batch: &AccessBatch) -> MmResult<AccessOutcome> {
        let mut out = AccessOutcome::default();
        let mut faults = Vec::new();
        {
            let Parts { procs, rng, .. } = sys.parts();
            let proc = procs.get_mut(pid as usize).ok_or(MmError::NoSuchProcess(pid))?;
            for vma in proc.vmas_mut() {
                let Some(isect) = vma.range.intersect(&batch.range) else { continue };
                match batch.pattern {
                    TouchPattern::All => vma.touch_run(&isect, 1, &mut faults, &mut out),
                    TouchPattern::Stride(n) => vma.touch_run(&isect, n, &mut faults, &mut out),
                    TouchPattern::Random { count } => {
                        let nr = isect.nr_pages();
                        if nr > 0 {
                            let base = isect.page_aligned().start;
                            for _ in 0..count {
                                let addr = base + rng.random_range(0..nr) * PAGE_SIZE;
                                if vma.touch_resident(addr) {
                                    out.touched_pages += 1;
                                    out.touched_huge += vma.is_huge(addr) as u64;
                                } else {
                                    faults.push(addr);
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut sorted = faults.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            saw(|s| s.drawn_twice = true);
        }

        let tracing = daos_trace::enabled();
        let mut stall: Ns = 0;
        for (i, &addr) in faults.iter().enumerate() {
            let mut p = sys.parts();
            let now = p.now;
            let vma = p.procs[pid as usize].find_vma_mut(addr).ok_or(MmError::Unmapped(addr))?;
            let huge = vma.is_huge(addr);
            let swapped_in = match vma.pte(addr).state {
                PteState::Resident(_) => continue,
                PteState::None => {
                    stall += p.machine.minor_fault_ns;
                    false
                }
                PteState::Swapped(slot) => {
                    stall += p.swap.load(slot, p.machine) + p.machine.major_fault_extra_ns;
                    true
                }
            };
            let frame = match p.frames.alloc(pid, addr) {
                Some(frame) => frame,
                None => {
                    if faults[..i].iter().any(|&a| huge_align_down(a) == huge_align_down(addr)) {
                        saw(|s| s.dram_full_mid_run = true);
                    }
                    stall += shrink(&mut p, 32);
                    p.frames.alloc(pid, addr).ok_or(MmError::OutOfMemory)?
                }
            };
            let proc = &mut p.procs[pid as usize];
            let vma = proc.find_vma_mut(addr).ok_or(MmError::Unmapped(addr))?;
            let gen = vma.map_page(addr, frame, true);
            p.lru.insert(LruList::Inactive, pid, addr, gen);
            proc.map_pages(now, 1);
            proc.stats.minor_faults += !swapped_in as u64;
            proc.stats.major_faults += swapped_in as u64;
            proc.stats.swapins += swapped_in as u64;
            out.minor_faults += !swapped_in as u64;
            out.major_faults += swapped_in as u64;
            out.touched_pages += 1;
            out.touched_huge += huge as u64;
            if tracing {
                if swapped_in {
                    daos_trace::emit(now, Event::SwapIn { pid, addr });
                }
                daos_trace::emit(now, Event::PageFault { pid, addr, major: swapped_in });
            }
        }
        if !faults.is_empty() {
            sys.bound_lru();
        }

        let p = sys.parts();
        let pages_4k = out.touched_pages - out.touched_huge;
        let (c4, c2) =
            daos_mm::tlb::access_costs(p.machine, pages_4k * PAGE_SIZE, out.touched_huge * PAGE_SIZE);
        let apc = batch.accesses_per_page.max(0.0) as f64;
        let access_ns = ((pages_4k as f64 * c4 + out.touched_huge as f64 * c2) * apc) as Ns;
        let proc = &mut p.procs[pid as usize];
        proc.stats.access_ns += access_ns;
        proc.stats.stall_ns += stall;
        out.cost_ns = access_ns + stall;
        Ok(out)
    }

    /// `MemorySystem::shrink`, one LRU entry at a time: pop the inactive
    /// tail and judge it, or — the inactive list empty — requeue the
    /// active tail on it, while `freed < target`.
    pub fn shrink(p: &mut Parts<'_>, target: u64) -> Ns {
        let Parts { machine, now, frames, swap, procs, lru, kstats, .. } = p;
        let (now, tracing) = (*now, daos_trace::enabled());
        let (mut freed, mut scanned, mut cost) = (0u64, 0u64, 0);
        while freed < target {
            let Some(e) = lru.pop_inactive() else {
                let Some(a) = lru.pop_active() else { break };
                let vma = procs.get_mut(a.pid() as usize).and_then(|p| p.find_vma_mut(a.addr()));
                if let Some(gen) = vma.and_then(|v| v.bump_resident(a.addr(), Some(a.gen()), false)) {
                    saw(|s| s.refill = true);
                    scanned += 1;
                    lru.insert(LruList::Inactive, a.pid(), a.addr(), gen);
                }
                continue;
            };
            let (pid, addr) = (e.pid(), e.addr());
            let Some(proc) = procs.get_mut(pid as usize) else { continue };
            let verdict = match proc.find_vma_mut(addr) {
                Some(vma) => vma.reclaim_page(addr, Some(e.gen()), || {
                    let (slot, store_ns) = swap.store(machine)?;
                    kstats.swap_write_ns += store_ns;
                    Ok(slot)
                }),
                None => Ok(Reclaimed::Stale),
            };
            scanned += !matches!(verdict, Ok(Reclaimed::Stale)) as u64;
            match verdict {
                Ok(Reclaimed::Stale) => saw(|s| s.stale = true),
                Ok(Reclaimed::Referenced(gen)) => lru.insert(LruList::Active, pid, addr, gen),
                Ok(Reclaimed::Evicted(frame)) => {
                    cost += machine.pageout_page_ns;
                    freed += 1;
                    kstats.pressure_reclaims += 1;
                    proc.unmap_pages(now, 1);
                    proc.stats.swapouts += 1;
                    frames.free(frame);
                    if tracing {
                        daos_trace::emit(now, Event::SwapOut { pid, addr });
                    }
                }
                Err(e) => {
                    assert_eq!(e, MmError::SwapFull);
                    saw(|s| s.swap_full = true);
                    break;
                }
            }
        }
        kstats.reclaim_ns += cost;
        if tracing {
            daos_trace::emit(now, Event::Reclaim { freed_pages: freed, scanned, cost_ns: cost });
        }
        cost
    }
}

/// One step of a property case, on both engines.
#[derive(Debug, Clone)]
enum Op {
    /// Process `.0`'s mapping `.1` (of its two), pages `[.2, .2 + .3)`,
    /// touched in the pattern `.4` picks (`0` all, `1..4` a stride, more a
    /// `Random` batch of that many draws).
    Access(u8, u8, u64, u64, u32),
    /// A scheme's pageout of the same kind of range: stale LRU entries.
    Pageout(u8, u8, u64, u64),
    /// `mark_cold`: entries queued at the inactive tail.
    Cold(u8, u8, u64, u64),
    /// `mark_hot`: entries on the active head, accessed bits kept.
    Hot(u8, u8, u64, u64),
    /// The monitor clearing the range's accessed bits: cold pages.
    Age(u8, u8, u64, u64),
    /// Freeze the machine and go on with a copy (a fleet shard stamped
    /// from an image), keeping the image when `.0`.
    Freeze(bool),
    /// Direct reclaim of this many pages.
    Shrink(u64),
}

/// Pages of each of the four mappings: process 0 has two that share a
/// 2 MiB chunk (300 pages, a 16-page gap, then 420), process 1 two more.
const MAPPING_PAGES: [[u64; 2]; 2] = [[300, 420], [520, 90]];

fn range_of(ranges: &[[AddrRange; 2]; 2], proc: u8, map: u8, at: u64, len: u64) -> AddrRange {
    let r = ranges[proc as usize % 2][map as usize % 2];
    let start = r.start + (at % r.nr_pages()) * PAGE_SIZE;
    AddrRange::new(start, (start + len.max(1) * PAGE_SIZE).min(r.end))
}

/// A machine of `dram_pages` frames and the swap device `swap`, seeded
/// `seed`, with the four mappings mapped.
fn case_machine(dram_pages: u64, swap: SwapConfig, seed: u64) -> (MemorySystem, [[AddrRange; 2]; 2]) {
    let mut m = MachineProfile::test_tiny();
    m.dram_bytes = dram_pages * PAGE_SIZE;
    let mut sys = MemorySystem::new(m, swap, seed);
    let ranges = MAPPING_PAGES.map(|pages| {
        let pid = sys.spawn();
        pages.map(|nr| sys.mmap(pid, nr * PAGE_SIZE, ThpMode::Never).unwrap())
    });
    (sys, ranges)
}

/// Both engines through `ops` from equal machines: after every op the
/// same result, the same events and equal machines, statistics included.
fn engines_agree(seed: u64, dram_pages: u64, swap: SwapConfig, ops: &[Op]) -> daos_util::prop::TestCaseResult {
    let (mut run, ranges) = case_machine(dram_pages, swap, seed);
    let mut by_entry = run.clone();
    let mut images = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if let Op::Freeze(keep) = *op {
            for sys in [&mut run, &mut by_entry] {
                sys.freeze();
                let copy = sys.clone();
                let image = std::mem::replace(sys, copy);
                if keep {
                    images.push(image);
                }
            }
            continue;
        }
        let apply = |sys: &mut MemorySystem, reference: bool| -> String {
            let range = |p: u8, m: u8, at: u64, len: u64| range_of(&ranges, p, m, at, len);
            match *op {
                Op::Access(p, m, at, len, how) => {
                    let r = range(p, m, at, len);
                    let batch = match how {
                        0 => AccessBatch::all(r, 1.0),
                        1..=3 => AccessBatch::stride(r, how + 1, 1.0),
                        n => AccessBatch::random(r, n, 1.0),
                    };
                    let pid = p as u32 % 2;
                    let result = if reference {
                        reference::apply_access(sys, pid, &batch)
                    } else {
                        sys.apply_access(pid, &batch)
                    };
                    format!("{result:?}")
                }
                Op::Pageout(p, m, at, len) => format!("{:?}", sys.pageout(p as u32 % 2, range(p, m, at, len))),
                Op::Cold(p, m, at, len) => format!("{:?}", sys.mark_cold(p as u32 % 2, range(p, m, at, len))),
                Op::Hot(p, m, at, len) => format!("{:?}", sys.mark_hot(p as u32 % 2, range(p, m, at, len))),
                Op::Age(p, m, at, len) => {
                    let pages = range(p, m, at, len).pages();
                    let cleared: Vec<_> = pages.map(|a| sys.check_accessed_clear(p as u32 % 2, a)).collect();
                    format!("{cleared:?}")
                }
                Op::Shrink(target) if reference => format!("{}", reference::shrink(&mut sys.parts(), target)),
                Op::Shrink(target) => format!("{}", sys.shrink(target)),
                Op::Freeze(_) => String::new(),
            }
        };
        let (got, events_run) = traced(|| apply(&mut run, false));
        let (want, events_entry) = traced(|| apply(&mut by_entry, true));
        prop_assert_eq!(got, want, "op {i}: {op:?}");
        prop_assert!(events_run == events_entry, "op {i}: {op:?}: the events differ");
        prop_assert_eq!(run.kstats, by_entry.kstats, "op {i}: {op:?}");
        for pid in 0..2 {
            let stats = (*run.proc_stats(pid).unwrap(), *by_entry.proc_stats(pid).unwrap());
            prop_assert_eq!(stats.0, stats.1, "op {i}: {op:?}: process {pid}");
        }
        prop_assert!(run == by_entry, "op {i}: {op:?}: the machines differ");
    }
    prop_assert_eq!((run.audit(), by_entry.audit()), (Ok(()), Ok(())));
    for pair in images.chunks(2) {
        prop_assert!(pair[0] == pair[1], "a frozen image moved");
    }
    Ok(())
}

fn op() -> impl daos_util::prop::Strategy<Value = Op> {
    let span = || (0u8..2, 0u8..2, 0u64..600, 1u64..600);
    one_of![
        (span(), select(vec![0u32, 0, 0, 1, 2, 3, 40, 300]))
            .prop_map(|((p, m, at, len), how)| Op::Access(p, m, at, len, how)),
        span().prop_map(|(p, m, at, len)| Op::Access(p, m, at, len, 0)),
        span().prop_map(|(p, m, at, len)| Op::Pageout(p, m, at, len)),
        span().prop_map(|(p, m, at, len)| Op::Cold(p, m, at, len)),
        span().prop_map(|(p, m, at, len)| Op::Hot(p, m, at, len)),
        span().prop_map(|(p, m, at, len)| Op::Age(p, m, at, len)),
        any_bool().prop_map(Op::Freeze),
        select(vec![1u64, 32, 100, 5000]).prop_map(Op::Shrink),
    ]
}

/// The run engine against the reference over random op sequences, 256
/// cases per machine seed at seeds 42 and 7: DRAM of 40, 96 or 256 frames
/// — the last as large as [`a_pass_judges_a_hot_page_four_times`]' worst
/// case — and a zram device or a swap file small enough to fill in the
/// middle of a run. Between them the cases reach every way a run stops
/// early; the test checks that they did.
#[test]
fn run_and_reference_engines_agree() {
    reference::SEEN.with(|s| s.set(reference::Seen::default()));
    for seed in [42, 7] {
        let strat = (
            select(vec![40u64, 96, 256]),
            select(vec![0u64, 24, 120]),
            vec_of(op(), 1..40),
        );
        run_cases(&format!("fault_service::engines_agree_seed_{seed}"), 256, strat, |(dram, swap_pages, ops)| {
            let swap = match swap_pages {
                0 => SwapConfig::paper_zram(),
                pages => SwapConfig::File { capacity_bytes: pages * PAGE_SIZE },
            };
            engines_agree(seed, dram, swap, &ops)
        });
    }
    let seen = reference::SEEN.with(Cell::get);
    assert!(seen.stale && seen.refill && seen.swap_full, "{seen:?}");
    assert!(seen.dram_full_mid_run && seen.drawn_twice, "{seen:?}");
}

/// The most a reclaim pass judges — four times a frame — is what it takes
/// to evict every page of a full machine when every page is hot on the
/// active list: a requeue and a second chance each, then a requeue and an
/// eviction. No page can cost a pass more, which is why the pass needs no
/// budget. Both engines judge 1024 entries and free all 256 frames.
#[test]
fn a_pass_judges_a_hot_page_four_times() {
    reference::SEEN.with(|s| s.set(reference::Seen::default()));
    let (mut run, ranges) = case_machine(256, SwapConfig::paper_zram(), 42);
    let hot = AddrRange::new(ranges[1][0].start, ranges[1][0].start + 256 * PAGE_SIZE);
    run.apply_access(1, &AccessBatch::all(hot, 1.0)).unwrap();
    run.mark_hot(1, hot).unwrap();
    let mut by_entry = run.clone();
    let (cost, events_run) = traced(|| run.shrink(u64::MAX));
    let (want, events_entry) = traced(|| reference::shrink(&mut by_entry.parts(), u64::MAX));
    assert_eq!(cost, want);
    assert_eq!(events_run, events_entry);
    assert!(run == by_entry);
    let reclaim = events_run.last().copied();
    assert!(matches!(reclaim, Some(Event::Reclaim { scanned: 1024, freed_pages: 256, .. })), "{reclaim:?}");
    assert_eq!((run.audit(), by_entry.audit()), (Ok(()), Ok(())));
}
