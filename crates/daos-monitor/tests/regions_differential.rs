//! Differential equivalence tests against the oracles kept beside this
//! test (`reference/`): the struct-of-arrays `RegionSet`
//! (`daos_monitor::regions`) against the original array-of-structs
//! implementation, and `MonitorCtx`'s tick — one access op per region,
//! check and prepare fused between boundaries — against the per-address
//! two-phase loop it replaced.
//!
//! Both stores are driven through identical seeded operation sequences —
//! two `SmallRng`s built from the same seed, consumed in the same order —
//! and compared region by region (range, nr_accesses, last_nr_accesses,
//! age, sampling_addr) after every step. Any semantic drift in the
//! rewritten hot path shows up as a field-level mismatch with the exact
//! seed and step in the panic message.

use daos_mm::access::AccessBatch;
use daos_mm::addr::{AddrRange, HUGE_PAGE_SIZE, PAGE_SIZE};
use daos_mm::clock::ms;
use daos_mm::machine::MachineProfile;
use daos_mm::process::{Pid, STACK_BASE};
use daos_mm::swap::SwapConfig;
use daos_mm::system::MemorySystem;
use daos_mm::vma::ThpMode;
use daos_monitor::regions::RegionSet;
use daos_monitor::{MonitorAttrs, MonitorCtx, PaddrPrimitives, Primitives, VaddrPrimitives};
use daos_util::rng::SmallRng;

mod reference;

fn mb(n: u64) -> u64 {
    n << 20
}

/// A back-end for driving a bare `RegionSet`: it logs every access pair
/// and reads the pages `hot` names as young.
struct Scripted<F>(F);

impl<F: Fn(u64) -> bool> Primitives for Scripted<F> {
    type Env = Vec<(Option<u64>, Option<u64>)>;

    fn target_ranges(&mut self, _: &Self::Env) -> Vec<AddrRange> {
        Vec::new()
    }

    fn access<'a>(
        &'a mut self,
        log: &'a mut Self::Env,
    ) -> impl FnMut(Option<u64>, Option<u64>) -> bool + 'a {
        move |old, new| {
            log.push((old, new));
            old.is_some_and(&self.0)
        }
    }

    fn check_cost_ns(&self, _: &Self::Env) -> u64 {
        0
    }
}

/// Assert the two stores are region-for-region identical.
fn assert_same(soa: &RegionSet, aos: &reference::RegionSet, what: &str) {
    soa.check_invariants().unwrap_or_else(|e| panic!("{what}: SoA invariants: {e}"));
    aos.check_invariants().unwrap_or_else(|e| panic!("{what}: reference invariants: {e}"));
    assert_eq!(soa.len(), aos.len(), "{what}: region count");
    assert_eq!(soa.total_bytes(), aos.total_bytes(), "{what}: total bytes");
    for (i, (s, r)) in soa.iter().zip(aos.regions().iter()).enumerate() {
        assert_eq!(s.range, r.range, "{what}: region {i} range");
        assert_eq!(s.nr_accesses, r.nr_accesses, "{what}: region {i} nr_accesses");
        assert_eq!(s.last_nr_accesses, r.last_nr_accesses, "{what}: region {i} last_nr_accesses");
        assert_eq!(s.age, r.age, "{what}: region {i} age");
        assert_eq!(s.sampling_addr, r.sampling_addr, "{what}: region {i} sampling_addr");
    }
    assert_eq!(soa.snapshot(), aos.snapshot(), "{what}: snapshot");
}

/// Drive both stores through `windows` aggregation windows of synthetic
/// monitoring: prepare samples, check them against a deterministic
/// "young" predicate, merge+age, reset, split — comparing after every op.
fn run_monitor_cycle(seed: u64, ranges: &[AddrRange], windows: usize) {
    let min_nr = 10;
    let max_nr = 100;
    let threshold = 2;

    let mut soa = RegionSet::init(ranges, min_nr);
    let mut aos = reference::RegionSet::init(ranges, min_nr);
    assert_same(&soa, &aos, &format!("seed {seed}: init"));

    let mut rng_a = SmallRng::seed_from_u64(seed);
    let mut rng_b = SmallRng::seed_from_u64(seed);
    let mut scratch = RegionSet::default();
    // Deterministic access oracle: the low third of each range is "hot".
    let hot = |addr: u64| ranges.iter().any(|r| r.contains(addr) && addr < r.start + r.len() / 3);
    let mut scripted = Scripted(hot);

    for w in 0..windows {
        for tick in 0..5 {
            let tag = format!("seed {seed}: window {w} tick {tick}");
            let mut olded_a = Vec::new();
            let mut olded_b = Vec::new();
            let pa = soa.sweep(&mut scripted, &mut olded_a, Some(&mut rng_a));
            let pb = aos.prepare_samples(&mut rng_b, |a| olded_b.push((None, Some(a))));
            assert_eq!(pa, pb, "{tag}: prepared count");
            assert_eq!(olded_a, olded_b, "{tag}: mkold order");
            assert_same(&soa, &aos, &format!("{tag}: after prepare"));

            let mut checked = Vec::new();
            let ca = soa.sweep(&mut scripted, &mut checked, None);
            assert!(checked.iter().all(|(old, new)| old.is_some() && new.is_none()), "{tag}");
            let cb = aos.check_samples(hot);
            assert_eq!(ca, cb, "{tag}: checked count");
            assert_same(&soa, &aos, &format!("{tag}: after check"));
        }
        let tag = format!("seed {seed}: window {w}");
        let sz_limit = (soa.total_bytes() / min_nr as u64).max(PAGE_SIZE);
        soa.merge_with_aging(threshold, sz_limit, min_nr);
        aos.merge_with_aging(threshold, sz_limit, min_nr);
        assert_same(&soa, &aos, &format!("{tag}: after merge"));

        soa.reset_aggregated();
        aos.reset_aggregated();
        assert_same(&soa, &aos, &format!("{tag}: after reset"));

        soa.split(&mut rng_a, max_nr, &mut scratch);
        aos.split(&mut rng_b, max_nr);
        assert_same(&soa, &aos, &format!("{tag}: after split"));
    }
}

#[test]
fn monitor_cycle_matches_reference_across_seeds() {
    let ranges = [AddrRange::new(0, mb(32)), AddrRange::new(mb(100), mb(108))];
    for seed in 0..20 {
        run_monitor_cycle(seed, &ranges, 8);
    }
}

#[test]
fn monitor_cycle_matches_reference_on_single_range() {
    for seed in [1, 7, 42, 1337] {
        run_monitor_cycle(seed, &[AddrRange::new(mb(1), mb(65))], 12);
    }
}

#[test]
fn monitor_cycle_matches_reference_on_unaligned_ranges() {
    // Page-unaligned targets exercise the div_ceil page math and
    // `append_evenly`'s final-piece handling in both implementations.
    let ranges = [
        AddrRange::new(0x800, mb(4) + 0x333),
        AddrRange::new(mb(10) + 0xabc, mb(12) + 0x1),
    ];
    for seed in [3, 9, 27] {
        run_monitor_cycle(seed, &ranges, 8);
    }
}

#[test]
fn init_matches_reference_for_tiny_and_skewed_ranges() {
    let cases: &[&[AddrRange]] = &[
        &[AddrRange::new(0, PAGE_SIZE)],
        &[AddrRange::new(0, PAGE_SIZE), AddrRange::new(mb(1), mb(512))],
        &[AddrRange::new(0, 1)], // sub-page range: one single region
        &[AddrRange::new(0, mb(1)), AddrRange::empty(), AddrRange::new(mb(2), mb(3))],
    ];
    for ranges in cases {
        for min_nr in [1, 3, 10, 1000] {
            let soa = RegionSet::init(ranges, min_nr);
            let aos = reference::RegionSet::init(ranges, min_nr);
            assert_same(&soa, &aos, &format!("init min_nr={min_nr} ranges={ranges:?}"));
        }
    }
}

#[test]
fn update_ranges_matches_reference_through_target_churn() {
    // Grow, shrink, shift, punch holes — counters must clip identically.
    let mut soa = RegionSet::init(&[AddrRange::new(0, mb(16))], 10);
    let mut aos = reference::RegionSet::init(&[AddrRange::new(0, mb(16))], 10);
    let mut rng_a = SmallRng::seed_from_u64(99);
    let mut rng_b = SmallRng::seed_from_u64(99);
    let mut scratch = RegionSet::default();
    let mut scripted = Scripted(|a: u64| a % (3 * PAGE_SIZE) == 0);

    let targets: &[&[AddrRange]] = &[
        // Grow at the tail.
        &[AddrRange::new(0, mb(24))],
        // Lose the head, keep the middle, add a far range.
        &[AddrRange::new(mb(2), mb(20)), AddrRange::new(mb(100), mb(104))],
        // Split the first range in two (a straddling region must
        // contribute its counters to both halves).
        &[
            AddrRange::new(mb(2), mb(8)),
            AddrRange::new(mb(12), mb(20)),
            AddrRange::new(mb(100), mb(104)),
        ],
        // Collapse to a sliver, unaligned.
        &[AddrRange::new(mb(5) + 0x123, mb(6) + 0x456)],
        // Everything disappears.
        &[],
        // And comes back.
        &[AddrRange::new(0, mb(8))],
    ];
    for (step, target) in targets.iter().enumerate() {
        // Accumulate some per-region state so clipping has counters to keep.
        soa.sweep(&mut scripted, &mut Vec::new(), Some(&mut rng_a));
        aos.prepare_samples(&mut rng_b, |_| {});
        soa.sweep(&mut scripted, &mut Vec::new(), None);
        aos.check_samples(|a| a % (3 * PAGE_SIZE) == 0);
        soa.merge_with_aging(2, mb(4), 4);
        aos.merge_with_aging(2, mb(4), 4);

        soa.update_ranges(target, &mut scratch);
        aos.update_ranges(target);
        assert_same(&soa, &aos, &format!("update step {step} → {target:?}"));
    }
}

// ---------------------------------------------------------------------
// The tick: cursor + fused sweep vs the per-address two-phase loop
// ---------------------------------------------------------------------

/// Three processes on a 6 MiB machine mapping 17 MiB between them, so
/// every tick's touches fault, reclaim and swap: chunks get emptied,
/// pages sit in swap, THP chunks are promoted and split under the
/// monitor. Each has a heap off the 2 MiB grid, a second mapping and a
/// far stack (two big gaps: the three-regions target).
fn pressured_machine(seed: u64) -> (MemorySystem, Vec<(Pid, [AddrRange; 3])>) {
    let mut machine = MachineProfile::test_tiny();
    machine.dram_bytes = 6 << 20;
    let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), seed);
    let procs = (0..3)
        .map(|_| {
            let pid = sys.spawn();
            let at = 8 * HUGE_PAGE_SIZE + 5 * PAGE_SIZE;
            let heap = sys.mmap_at(pid, at, 4 << 20, ThpMode::Always).unwrap();
            let data = sys.mmap(pid, 1 << 20, ThpMode::Never).unwrap();
            let stack = sys.mmap_at(pid, STACK_BASE, 512 << 10, ThpMode::Never).unwrap();
            (pid, [heap, data, stack])
        })
        .collect();
    (sys, procs)
}

/// One sampling interval of workload, identical on every copy of the
/// machine: a hot window sliding over each heap, a strided pass, random
/// touches of the data area, the stack — and a THP promotion now and then.
fn workload_tick(sys: &mut MemorySystem, procs: &[(Pid, [AddrRange; 3])], tick: u64) {
    for &(pid, [heap, data, stack]) in procs {
        let off = (tick * 37 + pid as u64 * 211) % 768 * PAGE_SIZE;
        let hot = AddrRange::new(heap.start + off, heap.start + off + (1 << 20));
        sys.apply_access(pid, &AccessBatch::all(hot, 1.0)).unwrap();
        sys.apply_access(pid, &AccessBatch::stride(heap, 61, 1.0)).unwrap();
        sys.apply_access(pid, &AccessBatch::random(data, 24, 1.0)).unwrap();
        sys.apply_access(pid, &AccessBatch::all(stack, 1.0)).unwrap();
        if tick % 50 == 17 {
            sys.promote_huge(pid, heap).unwrap();
        }
    }
    sys.advance(ms(5));
}

/// Run `MonitorCtx<P>` and the reference loop side by side on two copies
/// of one machine for `ticks` sampling intervals, with `(min, max)`
/// regions, comparing everything the monitor owns after every tick and
/// the machines at the end.
fn run_tick_differential<P: Primitives<Env = MemorySystem> + std::fmt::Debug>(
    seed: u64,
    prim: impl FnOnce(Pid) -> P,
    target: impl FnOnce(Pid) -> reference::Target,
    (min_nr_regions, max_nr_regions): (usize, usize),
    ticks: u64,
) {
    let attrs = MonitorAttrs {
        sampling_interval: ms(5),
        aggregation_interval: ms(100),
        regions_update_interval: ms(1000),
        min_nr_regions,
        max_nr_regions,
        adaptive: true,
    };
    let (mut sys, procs) = pressured_machine(seed);
    workload_tick(&mut sys, &procs, 0);
    let mut oracle_sys = sys.clone();
    let watched = procs[1].0;
    let mut ctx = MonitorCtx::new(attrs, prim(watched), &sys, sys.now(), seed ^ 0xda05);
    let mut oracle =
        reference::Monitor::new(attrs, target(watched), &oracle_sys, oracle_sys.now(), seed ^ 0xda05);
    let (mut sink, mut oracle_sink) = (Vec::new(), Vec::new());
    let mut extra = None;

    for tick in 1..=ticks {
        for s in [&mut sys, &mut oracle_sys] {
            // The target changes under the monitor: a mapping appears in
            // the first update interval and is gone by the third.
            if tick == 130 {
                extra = Some(s.mmap(watched, 3 << 20, ThpMode::Never).unwrap());
            } else if tick == 450 {
                s.munmap(watched, extra.unwrap()).unwrap();
            }
            if let Some(r) = extra.filter(|_| (130..450).contains(&tick)) {
                s.apply_access(watched, &AccessBatch::stride(r, 3, 1.0)).unwrap();
            }
            workload_tick(s, &procs, tick);
        }
        let now = sys.now();
        assert_eq!(now, oracle_sys.now(), "seed {seed} tick {tick}: machines in step");
        ctx.step(&mut sys, now, &mut sink);
        oracle.step(&mut oracle_sys, now, &mut oracle_sink);

        let tag = format!("seed {seed} tick {tick}");
        ctx.regions().check_invariants().unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert!(ctx.regions() == &oracle.regions, "{tag}: region sets differ");
        assert_eq!(ctx.overhead, oracle.overhead, "{tag}: overhead");
        assert_eq!(ctx.take_work_ns(), std::mem::take(&mut oracle.pending_work_ns), "{tag}: work");
        assert_eq!(sink, oracle_sink, "{tag}: delivered aggregations");
        assert!(
            format!("{ctx:?}").contains(&format!("rng: {:?},", oracle.rng)),
            "{tag}: rng state"
        );
    }
    assert!(ctx.overhead.nr_aggregations >= ticks / 20 - 1 && sink.len() as u64 >= ticks / 20 - 1);
    assert!(sys.swap().used_bytes() > 0, "the machine must have been under pressure");

    // Every accessed bit either monitor left behind, and everything the
    // machines did meanwhile.
    assert_eq!(sys.kstats, oracle_sys.kstats, "seed {seed}: kstats");
    for (pid, ranges) in procs {
        assert_eq!(sys.proc_stats(pid), oracle_sys.proc_stats(pid), "seed {seed}: pid {pid} stats");
        for addr in ranges.iter().flat_map(|r| r.pages()) {
            assert_eq!(
                sys.peek_accessed(pid, addr),
                oracle_sys.peek_accessed(pid, addr),
                "seed {seed}: pid {pid} accessed bit at {addr:#x}"
            );
        }
    }
}

#[test]
fn vaddr_tick_matches_the_per_address_two_phase_loop() {
    for seed in [1, 42] {
        run_tick_differential(seed, VaddrPrimitives::new, reference::Target::Vaddr, (10, 60), 460);
    }
}

#[test]
fn paddr_tick_matches_the_per_address_two_phase_loop() {
    for seed in [7, 42] {
        let paddr = |_| reference::Target::Paddr;
        run_tick_differential(seed, |_| PaddrPrimitives, paddr, (10, 60), 460);
    }
}

/// Few large regions (3 to 8 over the ≈ 5.5 MiB target): a region's old
/// and new samples mostly land in different 2 MiB chunks, and its span
/// crosses the three-regions gaps and VMA boundaries, so the one access op
/// takes its per-page fallback as well as its one-resolve path.
#[test]
fn few_large_regions_tick_matches_the_per_address_two_phase_loop() {
    for seed in [1, 42] {
        run_tick_differential(seed, VaddrPrimitives::new, reference::Target::Vaddr, (3, 8), 460);
        let paddr = |_| reference::Target::Paddr;
        run_tick_differential(seed, |_| PaddrPrimitives, paddr, (3, 8), 460);
    }
}
