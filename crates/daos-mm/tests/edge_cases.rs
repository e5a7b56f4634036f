//! Failure injection and edge cases: swap exhaustion, OOM, multi-process
//! isolation, reclaim under pressure, and THP boundary conditions.

use daos_mm::access::AccessBatch;
use daos_mm::addr::{AddrRange, HUGE_PAGE_SIZE, PAGE_SIZE};
use daos_mm::error::MmError;
use daos_mm::machine::MachineProfile;
use daos_mm::swap::SwapConfig;
use daos_mm::system::MemorySystem;
use daos_mm::vma::ThpMode;

fn sys_with(dram: u64, swap: SwapConfig) -> MemorySystem {
    let mut m = MachineProfile::test_tiny();
    m.dram_bytes = dram;
    MemorySystem::new(m, swap, 99)
}

fn fill(sys: &mut MemorySystem, pid: u32, bytes: u64) -> AddrRange {
    let range = sys.mmap(pid, bytes, ThpMode::Never).unwrap();
    sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
    range
}

fn drop_refs(sys: &mut MemorySystem, pid: u32, range: AddrRange) {
    for p in range.pages() {
        sys.check_accessed_clear(pid, p);
    }
}

#[test]
fn swap_full_stops_pageout_but_leaves_consistent_state() {
    // Swap holds only 64 pages (uncompressed file swap).
    let mut sys = sys_with(16 << 20, SwapConfig::File { capacity_bytes: 64 * PAGE_SIZE });
    let pid = sys.spawn();
    let range = fill(&mut sys, pid, 1 << 20); // 256 pages
    drop_refs(&mut sys, pid, range);
    let (bytes, _) = sys.pageout(pid, range).unwrap();
    assert_eq!(bytes, 64 * PAGE_SIZE, "stops exactly at device capacity");
    assert_eq!(sys.nr_swapped_in(pid, range), 64);
    assert_eq!(sys.rss_bytes(pid), (256 - 64) * PAGE_SIZE);
    // The rest of the system still works: touch everything back in.
    let out = sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
    assert_eq!(out.major_faults, 64);
    assert_eq!(sys.rss_bytes(pid), 1 << 20);
    assert_eq!(sys.swap().used_bytes(), 0, "slots freed after swap-in");
    // The physical-address pageout stops at the same place.
    drop_refs(&mut sys, pid, range);
    let (bytes, _) = sys.pageout_paddr(sys.phys_space());
    assert_eq!(bytes, 64 * PAGE_SIZE, "stops exactly at device capacity");
    assert_eq!(sys.rss_bytes(pid), (256 - 64) * PAGE_SIZE);
    assert_eq!(sys.audit(), Ok(()));
}

#[test]
fn oom_without_swap_reports_not_panics() {
    let mut sys = sys_with(1 << 20, SwapConfig::None);
    let pid = sys.spawn();
    let range = sys.mmap(pid, 4 << 20, ThpMode::Never).unwrap();
    let err = sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap_err();
    assert_eq!(err, MmError::OutOfMemory);
    // The pages mapped before exhaustion are still accounted.
    assert_eq!(sys.rss_bytes(pid), sys.used_dram_bytes());
    assert_eq!(sys.rss_bytes(pid), 1 << 20);
}

#[test]
fn pressure_reclaim_respects_second_chance() {
    // 2 MiB DRAM; A (hot, touched every round) + B (cold).
    let mut sys = sys_with(2 << 20, SwapConfig::paper_zram());
    let pid = sys.spawn();
    let a = fill(&mut sys, pid, 768 << 10);
    let b = fill(&mut sys, pid, 768 << 10);
    drop_refs(&mut sys, pid, b);
    // Keep A referenced, then allocate C to force eviction.
    sys.apply_access(pid, &AccessBatch::all(a, 1.0)).unwrap();
    let c = sys.mmap(pid, 768 << 10, ThpMode::Never).unwrap();
    sys.apply_access(pid, &AccessBatch::all(c, 1.0)).unwrap();
    let evicted_a = sys.nr_swapped_in(pid, a);
    let evicted_b = sys.nr_swapped_in(pid, b);
    assert!(evicted_b > 0);
    assert!(
        evicted_b >= evicted_a,
        "cold area must absorb at least as many evictions: a={evicted_a} b={evicted_b}"
    );
    assert!(sys.used_dram_bytes() <= 2 << 20);
}

#[test]
fn multi_process_isolation() {
    let mut sys = sys_with(32 << 20, SwapConfig::paper_zram());
    let p1 = sys.spawn();
    let p2 = sys.spawn();
    let r1 = fill(&mut sys, p1, 4 << 20);
    let r2 = fill(&mut sys, p2, 4 << 20);
    assert_eq!(sys.rss_bytes(p1), 4 << 20);
    assert_eq!(sys.rss_bytes(p2), 4 << 20);

    // Paging out p1 does not touch p2.
    drop_refs(&mut sys, p1, r1);
    sys.pageout(p1, r1).unwrap();
    assert_eq!(sys.rss_bytes(p1), 0);
    assert_eq!(sys.rss_bytes(p2), 4 << 20);

    // Their address spaces are independent: same vaddr, different pages.
    assert_eq!(r1.start, r2.start, "bump allocator gives both the same base");
    assert_eq!(sys.peek_accessed(p2, r2.start), Some(true));
    assert_eq!(
        sys.peek_accessed(p1, r1.start),
        Some(false),
        "p1's page is swapped (mapped but not accessed)"
    );

    // Exit of p1 releases only p1's resources.
    sys.exit(p1).unwrap();
    assert_eq!(sys.rss_bytes(p2), 4 << 20);
    assert_eq!(sys.used_dram_bytes(), 4 << 20);
    assert_eq!(sys.swap().used_bytes(), 0);
    assert_eq!(sys.live_pids(), vec![p2]);
}

#[test]
fn khugepaged_min_resident_threshold() {
    let mut sys = sys_with(64 << 20, SwapConfig::paper_zram());
    let pid = sys.spawn();
    let range = sys
        .mmap_at(pid, 8 * HUGE_PAGE_SIZE, 2 * HUGE_PAGE_SIZE, ThpMode::Always)
        .unwrap();
    // Chunk 0: 4 resident pages; chunk 1: none.
    let head = AddrRange::new(range.start, range.start + 4 * PAGE_SIZE);
    sys.apply_access(pid, &AccessBatch::all(head, 1.0)).unwrap();

    let (promoted, _) = sys.khugepaged_scan(pid, 5).unwrap();
    assert_eq!(promoted, 0, "below the residency threshold");
    let (promoted, _) = sys.khugepaged_scan(pid, 4).unwrap();
    assert_eq!(promoted, 1, "only the populated chunk");
    assert_eq!(sys.huge_bytes(pid), HUGE_PAGE_SIZE);
    assert_eq!(sys.rss_bytes(pid), HUGE_PAGE_SIZE, "bloat confined to chunk 0");
}

#[test]
fn promotion_fails_cleanly_when_dram_exhausted() {
    // DRAM fits 1.5 chunks; promoting both must promote one and skip one.
    let mut sys = sys_with(3 * HUGE_PAGE_SIZE / 2, SwapConfig::None);
    let pid = sys.spawn();
    let range = sys
        .mmap_at(pid, 8 * HUGE_PAGE_SIZE, 2 * HUGE_PAGE_SIZE, ThpMode::Always)
        .unwrap();
    for chunk in [range.start, range.start + HUGE_PAGE_SIZE] {
        let head = AddrRange::new(chunk, chunk + PAGE_SIZE);
        sys.apply_access(pid, &AccessBatch::all(head, 1.0)).unwrap();
    }
    let (promoted, _) = sys.promote_huge(pid, range).unwrap();
    assert_eq!(promoted, 1, "second chunk abandoned for lack of frames");
    // No leaked frames: used = 1 full chunk + 1 head page.
    assert_eq!(sys.used_dram_bytes(), HUGE_PAGE_SIZE + PAGE_SIZE);
    assert_eq!(sys.rss_bytes(pid), sys.used_dram_bytes());
    assert_eq!(sys.audit(), Ok(()));
    // The abandoned chunk took frames 513..=767 in ascending order and
    // freed them in that order, so the LIFO recycle list hands them out
    // from the top; a rollback in any other order hands out others.
    let second = range.start + HUGE_PAGE_SIZE;
    let next = AddrRange::new(second + PAGE_SIZE, second + 4 * PAGE_SIZE);
    sys.apply_access(pid, &AccessBatch::all(next, 1.0)).unwrap();
    let frame_of = |addr| {
        let owned = |&paddr: &u64| sys.phys_owner(paddr) == Some((pid, addr));
        sys.phys_space().pages().find(owned).map(|paddr| paddr / PAGE_SIZE)
    };
    let frames: Vec<u64> = next.pages().filter_map(frame_of).collect();
    assert_eq!(frames, [767, 766, 765]);
}

#[test]
fn willneed_stops_at_dram_capacity() {
    let mut sys = sys_with(1 << 20, SwapConfig::paper_zram());
    let pid = sys.spawn();
    let range = sys.mmap(pid, 2 << 20, ThpMode::Never).unwrap();
    sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap(); // thrashes in
    drop_refs(&mut sys, pid, range);
    sys.pageout(pid, range).unwrap();
    let swapped_before = sys.nr_swapped_in(pid, range);
    assert!(swapped_before > 0);
    let (bytes, _) = sys.willneed(pid, range).unwrap();
    assert!(bytes <= 1 << 20, "prefetch cannot exceed DRAM");
    assert!(sys.used_dram_bytes() <= 1 << 20);
}

#[test]
fn paddr_pageout_respects_reference_bits() {
    let mut sys = sys_with(16 << 20, SwapConfig::paper_zram());
    let pid = sys.spawn();
    let range = fill(&mut sys, pid, 512 << 10);
    // All pages referenced: a physical pass only clears bits.
    let (bytes, _) = sys.pageout_paddr(sys.phys_space());
    assert_eq!(bytes, 0, "first pass is the reference check");
    let (bytes, _) = sys.pageout_paddr(sys.phys_space());
    assert_eq!(bytes, 512 << 10, "second pass evicts");
    assert_eq!(sys.rss_bytes(pid), 0);
    let _ = range;
}

#[test]
fn zram_accounting_under_mixed_traffic() {
    let mut sys = sys_with(
        16 << 20,
        SwapConfig::Zram { capacity_bytes: 1 << 20, compression_ratio: 4.0 },
    );
    let pid = sys.spawn();
    let range = fill(&mut sys, pid, 2 << 20);
    drop_refs(&mut sys, pid, range);
    // 512 pages out at 1 KiB compressed each = 512 KiB of the 1 MiB device.
    sys.pageout(pid, range).unwrap();
    assert_eq!(sys.swap().used_bytes(), 512 << 10);
    // Half back in; device shrinks accordingly.
    let half = AddrRange::new(range.start, range.start + (1 << 20));
    sys.apply_access(pid, &AccessBatch::all(half, 1.0)).unwrap();
    assert_eq!(sys.swap().used_bytes(), 256 << 10);
    assert_eq!(sys.nr_swapped_in(pid, range), 256);
}

#[test]
fn stats_survive_heavy_churn() {
    let mut sys = sys_with(8 << 20, SwapConfig::paper_zram());
    let pid = sys.spawn();
    let range = fill(&mut sys, pid, 4 << 20);
    for _ in 0..5 {
        drop_refs(&mut sys, pid, range);
        sys.pageout(pid, range).unwrap();
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        sys.advance(1_000_000);
    }
    let st = sys.proc_stats(pid).unwrap();
    assert_eq!(st.swapouts, 5 * 1024);
    assert_eq!(st.swapins, 5 * 1024);
    assert_eq!(st.major_faults, 5 * 1024);
    assert_eq!(st.minor_faults, 1024);
    assert_eq!(st.peak_rss_bytes, 4 << 20);
    assert!(st.stall_ns > 0);
    assert_eq!(sys.rss_bytes(pid), 4 << 20);
}

/// A long pageout-and-refault history leaves no debt: every refault
/// queues an LRU entry and every eviction stales one, but the stale ones
/// neither pile up nor cost a later reclaim pass its budget (65,536
/// entries on this 64 MiB machine). Pressure afterwards evicts the old
/// process's pages until the new one fits.
#[test]
fn stale_lru_entries_do_not_cause_a_spurious_oom() {
    let mut sys = MemorySystem::new(MachineProfile::test_tiny(), SwapConfig::paper_zram(), 99);
    let a = sys.spawn();
    let range_a = sys.mmap(a, 8 << 20, ThpMode::Never).unwrap();
    for _ in 0..40 {
        sys.apply_access(a, &AccessBatch::all(range_a, 1.0)).unwrap();
        sys.pageout(a, range_a).unwrap(); // clears the reference bits
        sys.pageout(a, range_a).unwrap(); // evicts
        assert_eq!(sys.audit(), Ok(()));
    }
    sys.apply_access(a, &AccessBatch::all(range_a, 1.0)).unwrap();
    let b = sys.spawn();
    fill(&mut sys, b, 62 << 20);
    assert_eq!(sys.rss_bytes(a) + sys.rss_bytes(b), 64 << 20);
    assert_eq!(sys.rss_bytes(b), 62 << 20);
    assert_eq!(sys.audit(), Ok(()));
}
