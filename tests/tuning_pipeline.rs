//! Integration of the Auto-tuning Runtime with the full simulation: the
//! tuner must turn an SLA-violating manual scheme into a safe one while
//! keeping most of the memory saving (the Fig. 8 claim, at small scale).

use daos::{tune_prcl, Normalized, RunConfig, Session, TunedPrcl};
use daos_mm::clock::{ms, sec};
use daos_mm::MachineProfile;
use daos_tuner::TunerConfig;
use daos_workloads::{Behavior, Suite, WorkloadSpec};

/// A thrash-prone streaming workload: it re-sweeps its whole footprint
/// every few seconds, so the manual min_age of 1 s evicts pages that the
/// next sweep faults right back in.
fn thrashy() -> WorkloadSpec {
    WorkloadSpec {
        name: "thrashy",
        suite: Suite::Splash2x,
        footprint: 48 << 20,
        nr_epochs: 6400, // 4 sweeps
        compute_ns: ms(1),
        behavior: Behavior::Streaming {
            window_frac: 0.1,
            stride: 1,
            apc: 8.0,
            sweep_period: sec(8),
        },
    }
}

#[test]
fn autotuning_recovers_from_a_bad_manual_threshold() {
    let machine = MachineProfile::i3_metal();
    let spec = thrashy();
    // Tune with 10 samples over min_age ∈ [0, 20] s.
    let cfg = TunerConfig {
        time_limit: sec(100),
        unit_work_time: sec(10),
        range: (0.0, 20.0),
        seed: 5,
    };
    let TunedPrcl { baseline, result, tuned: auto } =
        tune_prcl(&machine, &spec, 5, &cfg).unwrap();
    assert_eq!(result.samples.len(), 10);

    // Manual: aggressive 1 s threshold → refault storm.
    let manual = Session::new(&machine, &RunConfig::prcl_with_min_age(sec(1)), &spec)
        .seed(5)
        .execute()
        .unwrap()
        .into_single();
    let nm = Normalized::of(&baseline, &manual);
    assert!(
        nm.slowdown_pct() > 10.0,
        "the manual scheme must hurt for this test to be meaningful: {:.1}%",
        nm.slowdown_pct()
    );

    let na = Normalized::of(&baseline, &auto);
    assert!(
        na.slowdown_pct() < nm.slowdown_pct() / 2.0,
        "auto ({:.1}%) must remove most of the manual slowdown ({:.1}%)",
        na.slowdown_pct(),
        nm.slowdown_pct()
    );
    assert!(
        na.slowdown_pct() < 12.0,
        "auto-tuned scheme respects the SLA region: {:.1}%",
        na.slowdown_pct()
    );
}

#[test]
fn tuner_keeps_savings_on_a_safe_workload() {
    // Mostly-idle workload: aggressive settings are fine, so the tuner
    // must NOT retreat to a do-nothing threshold.
    let machine = MachineProfile::i3_metal();
    let spec = WorkloadSpec {
        name: "idle",
        suite: Suite::Parsec3,
        footprint: 32 << 20,
        nr_epochs: 3000,
        compute_ns: ms(1),
        behavior: Behavior::MostlyIdle { active_frac: 0.1, apc: 4.0, stray_prob: 0.0 },
    };
    let cfg = TunerConfig {
        time_limit: sec(80),
        unit_work_time: sec(10),
        range: (0.0, 10.0),
        seed: 5,
    };
    let TunedPrcl { baseline, tuned: auto, .. } = tune_prcl(&machine, &spec, 5, &cfg).unwrap();
    let na = Normalized::of(&baseline, &auto);
    assert!(
        na.memory_saving_pct() > 40.0,
        "tuned scheme still saves plenty: {:.1}%",
        na.memory_saving_pct()
    );
    assert!(na.slowdown_pct() < 10.0);
}
