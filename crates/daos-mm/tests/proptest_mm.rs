//! Property-based invariants of the memory substrate.
//!
//! The key conservation law: every page of a mapping is always in exactly
//! one of {not-present, resident, swapped}, RSS equals resident pages,
//! and DRAM usage equals the sum of all processes' resident pages (plus
//! THP filler pages, which are resident too).

use daos_mm::access::AccessBatch;
use daos_mm::addr::{AddrRange, HUGE_PAGE_SIZE, PAGE_SIZE};
use daos_mm::machine::MachineProfile;
use daos_mm::swap::SwapConfig;
use daos_mm::system::MemorySystem;
use daos_mm::vma::ThpMode;
use daos_util::prop::{btree_set_of, vec_of, Just, Strategy, StrategyExt};
use daos_util::{one_of, prop_assert_eq, proptest};

#[derive(Debug, Clone)]
enum Op {
    TouchAll,
    TouchRandom(u32),
    TouchStride(u32),
    PageoutPrefix(u8),
    Promote,
    Demote,
    Cold,
    Hot,
    Willneed,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    one_of![
        Just(Op::TouchAll),
        (1u32..200).prop_map(Op::TouchRandom),
        (1u32..16).prop_map(Op::TouchStride),
        (1u8..=100).prop_map(Op::PageoutPrefix),
        Just(Op::Promote),
        Just(Op::Demote),
        Just(Op::Cold),
        Just(Op::Hot),
        Just(Op::Willneed),
    ]
}

fn check_conservation(sys: &MemorySystem, pid: u32, range: AddrRange) {
    let total = range.nr_pages();
    let resident = sys.nr_resident_in(pid, range);
    let swapped = sys.nr_swapped_in(pid, range);
    assert!(resident + swapped <= total, "over-accounted pages");
    assert_eq!(
        sys.rss_bytes(pid),
        resident * PAGE_SIZE,
        "RSS must equal resident pages"
    );
    assert_eq!(
        sys.used_dram_bytes(),
        resident * PAGE_SIZE,
        "single-process DRAM usage equals its resident set"
    );
    // Every incrementally kept quantity, recounted — the LRU's bound on
    // its stale entries included.
    assert_eq!(sys.audit(), Ok(()));
}

proptest! {
    cases = 64;

    fn page_state_conservation(ops in vec_of(op_strategy(), 1..40), seed in 0u64..1000) {
        let mut machine = MachineProfile::test_tiny();
        machine.dram_bytes = 32 << 20;
        let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), seed);
        let pid = sys.spawn();
        // One VMA aligned to a huge boundary so Promote has chunks to work on.
        let range = sys
            .mmap_at(pid, 8 * HUGE_PAGE_SIZE, 2 * HUGE_PAGE_SIZE, ThpMode::Always)
            .unwrap();

        for op in ops {
            match op {
                Op::TouchAll => {
                    sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
                }
                Op::TouchRandom(n) => {
                    sys.apply_access(pid, &AccessBatch::random(range, n, 1.0)).unwrap();
                }
                Op::TouchStride(s) => {
                    sys.apply_access(pid, &AccessBatch::stride(range, s, 1.0)).unwrap();
                }
                Op::PageoutPrefix(pct) => {
                    let len = range.len() * pct as u64 / 100;
                    let sub = AddrRange::new(range.start, range.start + len).page_aligned();
                    if !sub.is_empty() {
                        sys.pageout(pid, sub).unwrap();
                    }
                }
                Op::Promote => {
                    sys.promote_huge(pid, range).unwrap();
                }
                Op::Demote => {
                    sys.demote_huge(pid, range).unwrap();
                }
                Op::Cold => {
                    sys.mark_cold(pid, range).unwrap();
                }
                Op::Hot => {
                    sys.mark_hot(pid, range).unwrap();
                }
                Op::Willneed => {
                    sys.willneed(pid, range).unwrap();
                }
            }
            check_conservation(&sys, pid, range);
        }

        // Teardown releases everything, including swap slots.
        sys.exit(pid).unwrap();
        prop_assert_eq!(sys.used_dram_bytes(), 0);
        prop_assert_eq!(sys.swap().used_bytes(), 0);
    }

    fn pageout_then_touch_restores_exact_pages(
        prefix_pages in 1u64..512,
        seed in 0u64..100,
    ) {
        let mut machine = MachineProfile::test_tiny();
        machine.dram_bytes = 32 << 20;
        let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), seed);
        let pid = sys.spawn();
        let range = sys.mmap(pid, 2 << 20, ThpMode::Never).unwrap(); // 512 pages
        sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();

        let n = prefix_pages.min(range.nr_pages());
        let sub = AddrRange::new(range.start, range.start + n * PAGE_SIZE);
        let (cleared, _) = sys.pageout(pid, sub).unwrap(); // reference pass
        prop_assert_eq!(cleared, 0);
        let (bytes, _) = sys.pageout(pid, sub).unwrap(); // eviction pass
        prop_assert_eq!(bytes, n * PAGE_SIZE);
        prop_assert_eq!(sys.nr_swapped_in(pid, range), n);

        let out = sys.apply_access(pid, &AccessBatch::all(range, 1.0)).unwrap();
        prop_assert_eq!(out.major_faults, n);
        prop_assert_eq!(sys.nr_swapped_in(pid, range), 0);
        prop_assert_eq!(sys.rss_bytes(pid), range.len());
    }

    fn accessed_bits_reflect_touches(pages in btree_set_of(0u64..256, 1..64)) {
        let mut sys = MemorySystem::new(
            MachineProfile::test_tiny(),
            SwapConfig::paper_zram(),
            7,
        );
        let pid = sys.spawn();
        let range = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
        for &p in &pages {
            let addr = range.start + p * PAGE_SIZE;
            sys.apply_access(pid, &AccessBatch::all(AddrRange::new(addr, addr + PAGE_SIZE), 1.0)).unwrap();
        }
        for p in 0..256u64 {
            let addr = range.start + p * PAGE_SIZE;
            let expected = pages.contains(&p);
            prop_assert_eq!(sys.peek_accessed(pid, addr), Some(expected));
        }
        // check+clear agrees, then reads false.
        for &p in &pages {
            let addr = range.start + p * PAGE_SIZE;
            prop_assert_eq!(sys.check_accessed_clear(pid, addr), Some(true));
            prop_assert_eq!(sys.peek_accessed(pid, addr), Some(false));
        }
    }
}
