//! The seeded perf trajectory: min/median/max-of-N timings of the simulator's
//! hot paths — the monitoring tick (sampling), a full aggregation window
//! (aggregate + split/merge) over the synthetic space and over a real
//! process's page tables (and the sampling sweep per region at
//! `run_stream_ethp`'s region count), the schemes-engine apply pass, the
//! substrate's page-table walks, pageout and fault service, a fleet shard's
//! set-up, and the same monitor loop with tracing enabled vs disabled — written to
//! `BENCH_pipeline.json` in the working directory as the regression
//! baseline (run it from the repo root to regenerate the committed one).
//!
//! `DAOS_BENCH_OUT` overrides the output path; `--check FILE [--baseline
//! BASE]` gates an artifact against the committed baseline (exit 65 on a
//! regression). README's hot-path table is rendered from the committed
//! artifact, lane by lane in JSON order.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a binary owns the terminal")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "a binary may stop on a broken invariant")]

use daos_bench::artifact;
use daos_mm::addr::{AddrRange, HUGE_PAGE_SIZE, PAGE_SIZE};
use daos_mm::clock::ms;
use daos_mm::{MemorySystem, SwapConfig, ThpMode};
use daos_mm::access::AccessBatch;
use daos_monitor::{
    Aggregation, MonitorAttrs, MonitorCtx, MonitorRecord, RegionInfo, SyntheticPrimitives,
    SyntheticSpace, VaddrPrimitives,
};
use daos_schemes::{parse_scheme_line, SchemeTarget, SchemesEngine};
use daos_util::bench::Harness;
use daos_workloads::{instantiate, FleetConfig, Workload};
use daos_util::json::Json;
use std::hint::black_box;

const TARGET: AddrRange = AddrRange::new(0, 64 << 20);

fn attrs() -> MonitorAttrs {
    MonitorAttrs::paper_defaults()
}

fn fresh_monitor() -> (SyntheticSpace, MonitorCtx<SyntheticPrimitives>, Vec<Aggregation>) {
    let mut env = SyntheticSpace::new(vec![TARGET]);
    env.touch_range(AddrRange::new(0, TARGET.len() / 4));
    let ctx = MonitorCtx::new(attrs(), SyntheticPrimitives, &env, 0, 42);
    (env, ctx, Vec::new())
}

/// One sampling tick (the per-`sampling_interval` cost: young-bit checks
/// over at most `2 * max_nr_regions` sampled pages).
fn bench_monitor_tick(h: &mut Harness, iters: u64) {
    let (mut env, mut ctx, mut sink) = fresh_monitor();
    let step = attrs().sampling_interval;
    let mut now = 0;
    h.bench_iters("monitor/sample_tick", iters, || {
        now += step;
        ctx.step(&mut env, now, &mut sink);
        sink.clear();
        black_box(ctx.regions().len())
    });
}

/// One full aggregation window: every sampling tick of the window plus
/// the window-close work (aggregate + adaptive split/merge).
fn bench_monitor_window(h: &mut Harness, iters: u64) {
    let (mut env, mut ctx, mut sink) = fresh_monitor();
    let a = attrs();
    let ticks = (a.aggregation_interval / a.sampling_interval).max(1);
    let mut now = 0;
    h.bench_iters("monitor/aggregate_window", iters, || {
        for _ in 0..ticks {
            now += a.sampling_interval;
            ctx.step(&mut env, now, &mut sink);
        }
        let windows = sink.len();
        sink.clear();
        black_box(windows)
    });
}

/// One aggregation window of the path `daos run` takes: `VaddrPrimitives`
/// reading and clearing PTE accessed bits of a process with a heap and a
/// stack, so each sweep resolves addresses across two VMAs. Nothing
/// re-touches the pages: the steady state is the ~36 cold regions of
/// 2–4 MiB the paper-default attrs merge down to, two checks per region
/// a tick, and a region's old and new samples mostly fall in different
/// 2 MiB chunks. The two synthetic lanes above read a `HashSet` and never
/// see this cost.
///
/// `monitor/sweep_vaddr` is a 128 MiB heap with every other page
/// resident, so samples land on holes half the time;
/// `monitor/sweep_vaddr_large` is a fully resident 96 MiB heap, the
/// `run_idle_prcl` shape.
fn bench_sweep_vaddr(h: &mut Harness, iters: u64) {
    for (name, heap_mib, stride) in
        [("monitor/sweep_vaddr", 128, 2), ("monitor/sweep_vaddr_large", 96, 1)]
    {
        let mut machine = daos_mm::MachineProfile::test_tiny();
        machine.dram_bytes = 256 << 20;
        let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), 1);
        let pid = sys.spawn();
        let heap = sys.mmap(pid, heap_mib << 20, ThpMode::Never).expect("mmap heap");
        let stack = sys
            .mmap_at(pid, daos_mm::process::STACK_BASE, 1 << 20, ThpMode::Never)
            .expect("mmap stack");
        sys.apply_access(pid, &AccessBatch::stride(heap, stride, 1.0)).expect("fault in");
        sys.apply_access(pid, &AccessBatch::all(stack, 1.0)).expect("fault in");
        let a = attrs();
        let mut ctx = MonitorCtx::new(a, VaddrPrimitives::new(pid), &sys, 0, 42);
        let mut sink = Vec::new();
        let ticks = (a.aggregation_interval / a.sampling_interval).max(1);
        let mut now = 0;
        h.bench_iters(name, iters, || {
            for _ in 0..ticks {
                now += a.sampling_interval;
                ctx.step(&mut sys, now, &mut sink);
            }
            sink.clear();
            black_box(ctx.overhead.total_checks)
        });
    }
}

/// The sampling sweep at `run_stream_ethp`'s scale, in ns per region per
/// tick: the paper attrs with `min_nr_regions` 362 — the regions a tick of
/// `daos run splash2x/ocean_ncp --config ethp` sweeps on average — over a
/// fully resident 90 MiB heap and a stack. One iteration is an aggregation
/// window; its unit count is the regions each of its ticks left behind.
/// Recorded, not gated: the gated `monitor/sweep_vaddr*` lanes above cover
/// the same path at 36 regions.
fn bench_sweep_vaddr_ocean(h: &mut Harness, iters: u64) {
    let mut machine = daos_mm::MachineProfile::test_tiny();
    machine.dram_bytes = 256 << 20;
    let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), 1);
    let pid = sys.spawn();
    let heap = sys.mmap(pid, 90 << 20, ThpMode::Never).expect("mmap heap");
    let stack =
        sys.mmap_at(pid, daos_mm::process::STACK_BASE, 1 << 20, ThpMode::Never).expect("mmap stack");
    sys.apply_access(pid, &AccessBatch::all(heap, 1.0)).expect("fault in");
    sys.apply_access(pid, &AccessBatch::all(stack, 1.0)).expect("fault in");
    let a = MonitorAttrs { min_nr_regions: 362, ..attrs() };
    let mut ctx = MonitorCtx::new(a, VaddrPrimitives::new(pid), &sys, 0, 42);
    let mut sink = Vec::new();
    let ticks = (a.aggregation_interval / a.sampling_interval).max(1);
    let mut now = 0;
    h.bench_units("monitor/sweep_vaddr_ocean", iters, || {
        let mut regions = 0;
        for _ in 0..ticks {
            now += a.sampling_interval;
            ctx.step(&mut sys, now, &mut sink);
            regions += ctx.regions().len() as u64;
        }
        sink.clear();
        regions
    });
}

/// A window of 1000 adjacent regions over `range`, a third of them hot.
fn window_of_1000(range: AddrRange) -> Aggregation {
    let nr = 1000u64;
    let slice = range.len() / nr;
    Aggregation {
        at: 0,
        regions: (0..nr)
            .map(|i| RegionInfo {
                range: AddrRange::new(range.start + i * slice, range.start + (i + 1) * slice),
                nr_accesses: (i % 3 == 0) as u32,
                age: 100,
            })
            .collect(),
        max_nr_accesses: 20,
        aggregation_interval: ms(100),
    }
}

/// The schemes-engine apply pass over a 1000-region window against a
/// real memory system (steady state: matching + action attempts).
fn bench_scheme_apply(h: &mut Harness, iters: u64) {
    let machine = daos_mm::MachineProfile::i3_metal();
    let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), 42);
    let pid = sys.spawn();
    let range = sys.mmap(pid, 1 << 30, ThpMode::Never).expect("mmap 1 GiB");
    sys.apply_access(pid, &AccessBatch::all(range, 1.0)).expect("fault in");

    let scheme = parse_scheme_line("4K max min min 5s max pageout").expect("static scheme");
    let mut engine = SchemesEngine::new(SchemeTarget::Virtual(pid), vec![scheme]);
    let agg = window_of_1000(range);
    h.bench_iters("schemes/apply_1000_regions", iters, || {
        black_box(engine.on_aggregation(&mut sys, &agg).work_ns)
    });
}

/// What a `rec` or `prec` run pays per window: encoding a 1000-region
/// window into a record that already holds as many windows as the lane
/// appends. Recorded, not gated: its stream doubles now and then, so
/// part of a sample is a copy of megabytes.
fn bench_record_window(h: &mut Harness, iters: u64) {
    let agg = window_of_1000(AddrRange::new(1 << 30, 2 << 30));
    let mut record = MonitorRecord::new();
    for _ in 0..iters {
        record.push(&agg);
    }
    h.bench_iters("monitor/record_window", iters, || {
        record.push(&agg);
        black_box(record.len())
    });
}

/// The substrate's word-at-a-time page-table walks over a 16 MiB VMA:
/// an `All` and a `Stride(2)` batch over 4096 resident pages (the resident
/// touch walk, which is most of what a `daos run` or a fleet tick does),
/// and the resident-page scan with one resident page per 2 MiB chunk —
/// the skip path every pageout of a mostly-evicted region takes.
fn bench_page_walks(h: &mut Harness, iters: u64) {
    let mut machine = daos_mm::MachineProfile::test_tiny();
    machine.dram_bytes = 256 << 20;
    let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), 1);
    let pid = sys.spawn();
    let range = sys.mmap(pid, 16 << 20, ThpMode::Never).expect("mmap 16 MiB");
    sys.apply_access(pid, &AccessBatch::all(range, 1.0)).expect("fault in");
    for (name, batch) in [
        ("mm/touch_all_4096_resident", AccessBatch::all(range, 1.0)),
        ("mm/touch_stride2_4096_resident", AccessBatch::stride(range, 2, 1.0)),
    ] {
        h.bench_iters(name, iters, || {
            black_box(sys.apply_access(pid, &batch).expect("resident touch").touched_pages)
        });
    }
    // Evict all but the first page of each chunk (the mapping is
    // chunk-aligned): the first pageout clears the reference bits the
    // touches set, the second finds them clear.
    for chunk in (range.start..range.end).step_by(HUGE_PAGE_SIZE as usize) {
        let rest = AddrRange::new(chunk + PAGE_SIZE, chunk + HUGE_PAGE_SIZE);
        sys.pageout(pid, rest).expect("age");
        sys.pageout(pid, rest).expect("evict");
    }
    assert_eq!(sys.nr_resident_in(pid, range), range.len() / HUGE_PAGE_SIZE);
    h.bench_iters("mm/collect_resident_16mib_sparse", iters, || {
        black_box(sys.nr_resident_in(pid, range))
    });
}

/// A scheme's pageout over a fully resident 16 MiB VMA, a word of pages at
/// a time. `mm/pageout_4096_referenced` re-touches the 4096 pages and
/// pages the range out: the second-chance pass, which clears every
/// accessed bit and evicts nothing — what a prcl scheme trying a region
/// still in use pays — and allocates nothing. `mm/pageout_4096_cold`
/// evicts all 4096 from a copy of a machine whose bits are already clear:
/// stores, frees and bookkeeping per page; recorded but not gated, because
/// the copy is allocation-heavy like the fault-service lanes below.
fn bench_pageout(h: &mut Harness, iters: u64) {
    let mut machine = daos_mm::MachineProfile::test_tiny();
    machine.dram_bytes = 256 << 20;
    let mut sys = MemorySystem::new(machine, SwapConfig::paper_zram(), 1);
    let pid = sys.spawn();
    let range = sys.mmap(pid, 16 << 20, ThpMode::Never).expect("mmap 16 MiB");
    let touch = AccessBatch::all(range, 1.0);
    sys.apply_access(pid, &touch).expect("fault in");
    h.bench_iters("mm/pageout_4096_referenced", iters, || {
        sys.apply_access(pid, &touch).expect("re-touch");
        black_box(sys.pageout(pid, range).expect("second chance"))
    });
    let aged = sys;
    h.bench_iters("mm/pageout_4096_cold", iters / 4, || {
        let mut sys = aged.clone();
        let (bytes, _) = sys.pageout(pid, range).expect("evict");
        assert_eq!(bytes, range.len());
        black_box(sys)
    });
}

/// Fault service, the other half of `apply_access`: an `All` batch over
/// 4096 never-touched pages, on a machine with room for all of them
/// (minor faults only) and on one whose DRAM is two thirds of the batch
/// (every fault past DRAM waits for pressure reclaim, which evicts what
/// the batch itself just mapped — what a fleet shard's set-up does).
/// Every iteration faults into its own copy of an empty machine, so the
/// lanes include materialising the chunks, the frame slab and the LRU
/// ring — which is why they are recorded but not gated: a neighbour's
/// burst on the shared box moves these allocation-heavy lanes 1.6× where
/// it moves the in-cache walks 1.35×, past the 50 % margin. The gated
/// `fleet/run_1000_procs_50_epochs` covers the path end to end.
fn bench_fault_service(h: &mut Harness, iters: u64) {
    const BATCH: u64 = 16 << 20;
    for (name, dram_bytes) in [
        ("mm/fault_in_4096_fresh", 256 << 20),
        ("mm/fault_evict_4096_under_pressure", (BATCH / 3 * 2) & !(PAGE_SIZE - 1)),
    ] {
        let mut machine = daos_mm::MachineProfile::test_tiny();
        machine.dram_bytes = dram_bytes;
        let mut empty = MemorySystem::new(machine, SwapConfig::paper_zram(), 1);
        let pid = empty.spawn();
        let batch = AccessBatch::all(empty.mmap(pid, BATCH, ThpMode::Never).expect("mmap"), 1.0);
        h.bench_iters(name, iters, || {
            let mut sys = empty.clone();
            let out = sys.apply_access(pid, &batch).expect("fault in");
            assert_eq!(out.minor_faults, BATCH / PAGE_SIZE);
            black_box(sys)
        });
    }
}

/// What building a fleet's shard image costs, in ns per faulted page:
/// 32 serverless workers set up on a fresh `fleet-prcl` machine (i3.metal,
/// the serverless zram device), as `ShardImage::build` sets them up for
/// `daos fleet`. Their heaps are half again the machine's DRAM, so from
/// the 22nd worker on every fault round waits for pressure reclaim: most
/// of the ≈ 204,000 faults, ≈ 204,000 second chances and ≈ 73,000
/// evictions of a build. Each iteration builds and drops its own machine.
/// Recorded, not gated, like the fault-service lanes above.
fn bench_build_shard(h: &mut Harness, iters: u64) {
    let spec = FleetConfig::default().worker_spec(50);
    h.bench_units("mm/build_shard_32_procs", iters, || {
        let machine = daos_mm::MachineProfile::i3_metal();
        let mut sys = MemorySystem::new(machine, SwapConfig::serverless_zram(), 0);
        let pids: Vec<u32> = (0..32)
            .map(|_| instantiate(spec, 0).setup(&mut sys, ThpMode::Never).expect("set up a worker"))
            .collect();
        let faulted = |pid| sys.proc_stats(pid).map_or(0, |st| st.minor_faults + st.major_faults);
        pids.into_iter().map(faulted).sum()
    });
}

/// The identical monitor loop with the trace collector absent vs
/// installed — the zero-overhead-when-disabled claim, quantified.
fn bench_trace_toggle(h: &mut Harness, iters: u64) {
    for enabled in [false, true] {
        let (mut env, mut ctx, mut sink) = fresh_monitor();
        let step = attrs().sampling_interval;
        let mut now = 0;
        if enabled {
            daos_trace::install(daos_trace::Collector::builder().build().expect("collector"))
                .expect("no collector installed yet");
        }
        let name =
            if enabled { "trace/monitor_tick_enabled" } else { "trace/monitor_tick_disabled" };
        h.bench_iters(name, iters, || {
            now += step;
            ctx.step(&mut env, now, &mut sink);
            sink.clear();
            black_box(ctx.regions().len())
        });
        if enabled {
            daos_trace::take();
        }
    }
}

/// Hot-path timings gated against the committed baseline by
/// `--check --baseline`: the region/mm rebuild targets and the page
/// walker, so a rewrite that quietly regresses one shows up in verify.sh.
const GATED: [&str; 8] = [
    "schemes/apply_1000_regions",
    "monitor/aggregate_window",
    "monitor/sweep_vaddr",
    "monitor/sweep_vaddr_large",
    "mm/touch_all_4096_resident",
    "mm/touch_stride2_4096_resident",
    "mm/collect_resident_16mib_sparse",
    "mm/pageout_4096_referenced",
];

/// Time every bench and return the artifact.
fn measure() -> Json {
    let (samples, iters) = (20, 100);
    let mut h = Harness::new("pipeline", samples).progress_to(Box::new(std::io::stdout()));

    bench_monitor_tick(&mut h, iters * 4);
    bench_monitor_window(&mut h, iters);
    bench_sweep_vaddr(&mut h, iters);
    bench_sweep_vaddr_ocean(&mut h, iters);
    bench_scheme_apply(&mut h, iters);
    bench_record_window(&mut h, iters);
    bench_page_walks(&mut h, iters * 4);
    bench_pageout(&mut h, iters * 4);
    bench_fault_service(&mut h, iters);
    bench_build_shard(&mut h, 2);
    bench_trace_toggle(&mut h, iters * 4);

    artifact::artifact_doc("pipeline", samples, h.results())
}

fn main() {
    let (mut out, mut err) = (std::io::stdout(), std::io::stderr());
    std::process::exit(artifact::bench_main("pipeline", &GATED, &mut out, &mut err, measure));
}
