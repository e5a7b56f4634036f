//! Cross-crate integration tests: the full monitor → engine → substrate
//! pipeline on reduced-scale workloads.

use daos::{Normalized, RunConfig, RunResult, Session, SessionResult};
use daos_mm::clock::{ms, sec};
use daos_mm::{MachineProfile, MmResult};
use daos_workloads::{Behavior, Suite, Workload, WorkloadSpec};

/// A scaled-down workload that still exercises every moving part
/// (~8 s virtual, < 200 ms real).
fn small(behavior: Behavior) -> WorkloadSpec {
    WorkloadSpec {
        name: "small",
        suite: Suite::Parsec3,
        footprint: 24 << 20,
        nr_epochs: 3000,
        compute_ns: ms(1),
        behavior,
    }
}

fn machine() -> MachineProfile {
    MachineProfile::i3_metal()
}

/// One process of `spec` under `config`, run to completion.
fn run(
    machine: &MachineProfile,
    config: &RunConfig,
    spec: &WorkloadSpec,
    seed: u64,
) -> MmResult<RunResult> {
    Session::new(machine, config, spec).seed(seed).execute().map(SessionResult::into_single)
}

#[test]
fn monitor_finds_the_ground_truth_hot_set() {
    let spec = small(Behavior::CompactHot { hot_frac: 0.25, apc: 4.0, cold_touch_prob: 0.0 });
    let r = run(&machine(), &RunConfig::rec(), &spec, 7).unwrap();
    let record = r.record.unwrap();
    let agg = record.windows().next_back().unwrap();

    // Ground truth: the workload's hot range is the first quarter of its
    // footprint. Weighted-frequency mass must concentrate there.
    let mut wl = daos_workloads::instantiate(spec, 7);
    let mut sys = daos_mm::MemorySystem::new(machine(), daos_mm::SwapConfig::paper_zram(), 7);
    wl.setup(&mut sys, daos_mm::ThpMode::Never).unwrap();
    let hot = wl.hot_ranges(0)[0];

    let mass = |inside: bool| -> f64 {
        agg.regions
            .iter()
            .filter(|r| hot.contains(r.range.start) == inside)
            .map(|r| agg.freq_ratio(r) * r.range.len() as f64)
            .sum()
    };
    let hot_mass = mass(true);
    let cold_mass = mass(false);
    assert!(
        hot_mass > 5.0 * cold_mass.max(1.0),
        "hot mass {hot_mass} must dominate cold mass {cold_mass}"
    );
    // And the hot-byte estimate lands near the true 6 MiB.
    let est = agg.hot_bytes_estimate() as f64 / (1 << 20) as f64;
    assert!((3.0..12.0).contains(&est), "hot estimate {est} MiB vs truth 6 MiB");
}

#[test]
fn monitoring_overhead_bounded_and_target_size_independent() {
    // rec monitors 24 MiB; prec monitors the whole 512 MiB machine.
    let spec = small(Behavior::CompactHot { hot_frac: 0.25, apc: 4.0, cold_touch_prob: 0.0 });
    let rec = run(&machine(), &RunConfig::rec(), &spec, 7).unwrap();
    let prec = run(&machine(), &RunConfig::prec(), &spec, 7).unwrap();
    let cap = 2 * RunConfig::rec().attrs.max_nr_regions as u64;
    for r in [&rec, &prec] {
        let o = r.overhead.unwrap();
        assert!(o.max_checks_per_tick <= cap, "{}: {} checks", r.config, o.max_checks_per_tick);
        assert!(r.monitor_cpu_share() < 0.05, "{}: share {}", r.config, r.monitor_cpu_share());
    }
    // 21x bigger target, same order of work per tick.
    let rec_avg = rec.overhead.unwrap().avg_checks_per_tick();
    let prec_avg = prec.overhead.unwrap().avg_checks_per_tick();
    assert!(
        prec_avg < 8.0 * rec_avg.max(20.0),
        "prec {prec_avg} vs rec {rec_avg} checks/tick"
    );
}

#[test]
fn prcl_pipeline_reclaims_idle_memory() {
    let spec = small(Behavior::MostlyIdle { active_frac: 0.1, apc: 4.0, stray_prob: 0.0 });
    let base = run(&machine(), &RunConfig::baseline(), &spec, 7).unwrap();
    let prcl = run(&machine(), &RunConfig::prcl_with_min_age(sec(1)), &spec, 7).unwrap();
    let n = Normalized::of(&base, &prcl);
    assert!(n.memory_saving_pct() > 40.0, "saving {}", n.memory_saving_pct());
    assert!(n.slowdown_pct() < 15.0, "slowdown {}", n.slowdown_pct());
    assert!(prcl.kstats.damos_pageouts > 0);
    assert_eq!(prcl.scheme_stats.len(), 1);
    assert!(prcl.scheme_stats[0].nr_applied > 0);
}

#[test]
fn thp_pipeline_trades_speed_for_bloat_and_ethp_rebalances() {
    let spec = WorkloadSpec {
        footprint: 48 << 20,
        ..small(Behavior::Streaming {
            window_frac: 0.2,
            stride: 2,
            apc: 16.0,
            sweep_period: sec(2),
        })
    };
    let base = run(&machine(), &RunConfig::baseline(), &spec, 7).unwrap();
    let thp = run(&machine(), &RunConfig::thp(), &spec, 7).unwrap();
    let ethp = run(&machine(), &RunConfig::ethp(), &spec, 7).unwrap();
    let nt = Normalized::of(&base, &thp);
    let ne = Normalized::of(&base, &ethp);
    assert!(nt.performance > 1.03, "thp gain {}", nt.performance);
    assert!(nt.memory_efficiency < 0.8, "thp bloat {}", nt.memory_efficiency);
    assert!(ne.performance > 1.0, "ethp keeps some gain: {}", ne.performance);
    assert!(
        ne.memory_efficiency > nt.memory_efficiency,
        "ethp bloats less: {} vs {}",
        ne.memory_efficiency,
        nt.memory_efficiency
    );
}

#[test]
fn runs_are_deterministic_across_all_configs() {
    let spec = small(Behavior::PhaseShift {
        nr_phases: 3,
        hot_frac: 0.2,
        apc: 4.0,
        phase_len: sec(1),
    });
    for cfg in RunConfig::paper_configs() {
        let a = run(&machine(), &cfg, &spec, 11).unwrap();
        let b = run(&machine(), &cfg, &spec, 11).unwrap();
        assert_eq!(a.runtime_ns, b.runtime_ns, "{} runtime", cfg.name);
        assert_eq!(a.avg_rss, b.avg_rss, "{} rss", cfg.name);
        assert_eq!(a.stats, b.stats, "{} stats", cfg.name);
    }
}

#[test]
fn machines_differ_but_all_complete() {
    let spec = small(Behavior::CompactHot { hot_frac: 0.3, apc: 6.0, cold_touch_prob: 0.001 });
    let runtimes: Vec<u64> = MachineProfile::paper_machines()
        .iter()
        .map(|m| run(m, &RunConfig::baseline(), &spec, 3).unwrap().runtime_ns)
        .collect();
    assert_eq!(runtimes.len(), 3);
    // z1d (4 GHz) must beat i3 (3 GHz) on a compute-heavy workload.
    assert!(runtimes[2] < runtimes[0], "z1d {} vs i3 {}", runtimes[2], runtimes[0]);
}

/// `daos::digest` pinned on two benchmark shapes cut to 2,000 epochs, at
/// the two seeds the speed-only checks use. The values were recorded before
/// the column sweep kernel replaced the per-pair sampling loop; a change
/// that moves one changed what the simulation does, not only how fast. At
/// full length the same function gives the perf ledger's `sim_digest`
/// (`run_stream_ethp` 2b7a5891beb492e8, `run_idle_prcl` 1d64c6dda1d628c9
/// at seed 42).
#[test]
fn library_digest_is_pinned_on_short_paper_runs() {
    let cases = [
        ("splash2x/ocean_ncp", "ethp", 42, 0xd414_bfc2_0568_e77d_u64),
        ("splash2x/ocean_ncp", "ethp", 7, 0xf19f_5fb0_529e_a052),
        ("parsec3/freqmine", "prcl", 42, 0x422b_e8f0_4a89_c5b7),
        ("parsec3/freqmine", "prcl", 7, 0x1d1c_cf9f_74d8_b17e),
    ];
    for (path, config, seed, want) in cases {
        let cfg = RunConfig::paper_configs().into_iter().find(|c| c.name == config).unwrap();
        let spec = WorkloadSpec { nr_epochs: 2000, ..daos_workloads::by_path(path).unwrap() };
        let runs = Session::new(&machine(), &cfg, &spec).seed(seed).execute().unwrap().runs;
        let got = daos::digest(&runs);
        assert_eq!(got, want, "{path} under {config}, seed {seed}: {got:#018x}");
    }
}
