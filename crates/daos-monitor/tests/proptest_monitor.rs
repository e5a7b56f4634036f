//! Property-based invariants of the adaptive regions mechanism (§5 of
//! DESIGN.md): byte conservation, ordering, count bounds, counter bounds.

use daos_mm::addr::{AddrRange, PAGE_SIZE};
use daos_mm::clock::ms;
use daos_monitor::{MonitorAttrs, MonitorCtx, RegionSet, SyntheticPrimitives, SyntheticSpace};
use daos_util::prop::{vec_of, Strategy, StrategyExt, TestCaseError};
use daos_util::rng::SmallRng;
use daos_util::{prop_assert, prop_assert_eq, proptest};

fn arb_ranges() -> impl Strategy<Value = Vec<AddrRange>> {
    // 1..4 disjoint page-aligned ranges of 1..2048 pages.
    vec_of((0u64..1000, 1u64..2048), 1..4).prop_map(|specs| {
        let mut start = 0u64;
        let mut out = Vec::new();
        for (gap, pages) in specs {
            start += (gap + 1) * PAGE_SIZE;
            let end = start + pages * PAGE_SIZE;
            out.push(AddrRange::new(start, end));
            start = end;
        }
        out
    })
}

proptest! {
    cases = 48;

    fn split_merge_cycles_conserve(
        ranges in arb_ranges(),
        seed in 0u64..500,
        cycles in 1usize..12,
        max_nr in 12usize..200,
    ) {
        let min_nr = 10usize;
        let mut set = RegionSet::init(&ranges, min_nr);
        let bytes = set.total_bytes();
        let (mut rng, mut scratch) = (SmallRng::seed_from_u64(seed), RegionSet::default());
        for _ in 0..cycles {
            set.split(&mut rng, max_nr, &mut scratch);
            prop_assert!(set.len() <= max_nr);
            prop_assert_eq!(set.total_bytes(), bytes);
            set.check_invariants().map_err(TestCaseError::fail)?;

            set.merge_with_aging(2, (bytes / min_nr as u64).max(PAGE_SIZE), min_nr);
            prop_assert_eq!(set.total_bytes(), bytes);
            set.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    fn nr_accesses_bounded_by_samples_per_window(
        seed in 0u64..200,
        hot_pages in 1u64..512,
    ) {
        let attrs = MonitorAttrs {
            sampling_interval: ms(5),
            aggregation_interval: ms(100),
            regions_update_interval: ms(1000),
            min_nr_regions: 10,
            max_nr_regions: 60,
            adaptive: true,
        };
        let space = AddrRange::new(0, 4 << 20);
        let hot = AddrRange::new(0, hot_pages.min(1024) * PAGE_SIZE);
        let mut env = SyntheticSpace::new(vec![space]);
        let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &env, 0, seed);
        let mut sink = Vec::new();
        let mut now = 0;
        for _ in 0..80 {
            env.touch_range(hot);
            now += attrs.sampling_interval;
            ctx.step(&mut env, now, &mut sink);
        }
        let cap = attrs.max_nr_accesses();
        for agg in &sink {
            for r in &agg.regions {
                prop_assert!(
                    r.nr_accesses <= cap,
                    "nr_accesses {} exceeds samples/window {}", r.nr_accesses, cap
                );
            }
        }
        // The overhead bound: per tick, at most 2*max_nr_regions checks.
        prop_assert!(ctx.overhead.max_checks_per_tick <= 2 * attrs.max_nr_regions as u64);
    }

    fn update_ranges_covers_new_target_exactly(
        ranges in arb_ranges(),
        new_ranges in arb_ranges(),
    ) {
        let mut set = RegionSet::init(&ranges, 10);
        set.update_ranges(&new_ranges, &mut RegionSet::default());
        set.check_invariants().map_err(TestCaseError::fail)?;
        let want: u64 = new_ranges.iter().map(|r| r.len()).sum();
        prop_assert_eq!(set.total_bytes(), want);
    }
}
