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

use daos_mm::access::AccessBatch;
use daos_mm::addr::{AddrRange, PAGE_SIZE};
use daos_mm::machine::MachineProfile;
use daos_mm::stats::ProcStats;
use daos_mm::swap::SwapConfig;
use daos_mm::system::MemorySystem;
use daos_mm::vma::ThpMode;
use daos_trace::{Collector, Event};
use daos_util::rng::SmallRng;

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
