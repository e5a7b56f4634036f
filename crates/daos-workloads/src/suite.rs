//! The 24 Parsec3 / Splash-2x workload analogs used throughout the
//! paper's evaluation (§4, "Workloads").
//!
//! Footprints are the paper's Fig. 6 address-space extents scaled down by
//! the same factor as the machine profiles; behaviours reproduce each
//! workload's qualitative Fig. 6 heatmap: hot-set size, phase changes,
//! streaming sweeps, footprint growth, and (for the `_ncp`/non-contiguous
//! codes) strided layouts, which are the THP-bloat-prone patterns.

use daos_mm::clock::{ms, sec, Ns};

use crate::spec::{Behavior, Suite, WorkloadSpec};
use crate::workload::SyntheticWorkload;

const MIB: u64 = 1 << 20;

fn w(
    name: &'static str,
    suite: Suite,
    footprint_mib: u64,
    nr_epochs: u64,
    compute_ns: Ns,
    behavior: Behavior,
) -> WorkloadSpec {
    WorkloadSpec { name, suite, footprint: footprint_mib * MIB, nr_epochs, compute_ns, behavior }
}

/// All 24 workload specs, in the paper's Fig. 7 order
/// (Parsec3 alphabetical, then Splash-2x alphabetical).
pub fn paper_suite() -> Vec<WorkloadSpec> {
    use Behavior::*;
    use Suite::{Parsec3 as P, Splash2x as S};
    vec![
        w("blackscholes", P, 48, 26_000, ms(2),
            CompactHot { hot_frac: 0.15, apc: 3.0, cold_touch_prob: 0.0002 }),
        w("bodytrack", P, 24, 24_000, ms(2),
            PhaseShift { nr_phases: 4, hot_frac: 0.2, apc: 4.0, phase_len: sec(3) }),
        w("canneal", P, 64, 26_000, ms(2),
            PointerChase { random_touches: 18, core_frac: 0.05, apc: 8.0 }),
        w("dedup", P, 96, 9_000, ms(1),
            Growing { built_by_frac: 0.8, hot_tail_frac: 0.12, apc: 4.0 }),
        w("facesim", P, 48, 24_000, ms(2),
            CompactHot { hot_frac: 0.18, apc: 4.0, cold_touch_prob: 0.0002 }),
        w("fluidanimate", P, 48, 26_000, ms(2),
            PhaseShift { nr_phases: 2, hot_frac: 0.3, apc: 6.0, phase_len: sec(5) }),
        w("freqmine", P, 96, 26_000, ms(2),
            MostlyIdle { active_frac: 0.07, apc: 4.0, stray_prob: 0.05 }),
        w("raytrace", P, 48, 26_000, ms(2),
            PhaseShift { nr_phases: 3, hot_frac: 0.22, apc: 8.0, phase_len: sec(3) }),
        w("streamcluster", P, 32, 30_000, ms(1),
            Streaming { window_frac: 0.15, stride: 1, apc: 10.0, sweep_period: sec(8) }),
        w("swaptions", P, 16, 22_000, ms(2),
            CompactHot { hot_frac: 0.5, apc: 3.0, cold_touch_prob: 0.0 }),
        w("vips", P, 48, 22_000, ms(2),
            Growing { built_by_frac: 0.9, hot_tail_frac: 0.18, apc: 4.0 }),
        w("x264", P, 32, 20_000, ms(2),
            Streaming { window_frac: 0.15, stride: 1, apc: 8.0, sweep_period: sec(12) }),
        w("barnes", S, 96, 24_000, ms(2),
            PhaseShift { nr_phases: 2, hot_frac: 0.12, apc: 6.0, phase_len: sec(6) }),
        w("fft", S, 96, 10_000, ms(1),
            PhaseShift { nr_phases: 3, hot_frac: 0.12, apc: 14.0, phase_len: sec(4) }),
        w("lu_cb", S, 48, 22_000, ms(1),
            CompactHot { hot_frac: 0.25, apc: 14.0, cold_touch_prob: 0.0002 }),
        w("lu_ncb", S, 48, 22_000, ms(1),
            Streaming { window_frac: 0.2, stride: 2, apc: 14.0, sweep_period: sec(6) }),
        w("ocean_cp", S, 96, 16_000, ms(1),
            Streaming { window_frac: 0.1, stride: 1, apc: 16.0, sweep_period: sec(10) }),
        w("ocean_ncp", S, 128, 18_000, ms(1),
            Streaming { window_frac: 0.1, stride: 2, apc: 24.0, sweep_period: sec(20) }),
        w("radiosity", S, 64, 22_000, ms(2),
            PointerChase { random_touches: 12, core_frac: 0.08, apc: 6.0 }),
        w("radix", S, 64, 9_000, ms(1),
            Streaming { window_frac: 0.2, stride: 1, apc: 10.0, sweep_period: sec(5) }),
        w("raytrace", S, 16, 24_000, ms(2),
            PhaseShift { nr_phases: 5, hot_frac: 0.2, apc: 4.0, phase_len: sec(5) }),
        w("volrend", S, 24, 22_000, ms(2),
            CompactHot { hot_frac: 0.3, apc: 3.0, cold_touch_prob: 0.0003 }),
        w("water_nsquared", S, 16, 28_000, ms(2),
            PhaseShift { nr_phases: 3, hot_frac: 0.3, apc: 5.0, phase_len: sec(10) }),
        w("water_spatial", S, 24, 24_000, ms(2),
            CompactHot { hot_frac: 0.4, apc: 4.0, cold_touch_prob: 0.0 }),
    ]
}

/// Look a spec up by `suite/name` path (e.g. `"parsec3/raytrace"`).
pub fn by_path(path: &str) -> Option<WorkloadSpec> {
    paper_suite().into_iter().find(|s| s.path_name() == path)
}

/// Instantiate a spec as a runnable workload.
pub fn instantiate(spec: WorkloadSpec, seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(spec, seed)
}

/// The 16 workloads the paper plots in Fig. 4 (of the 24 it ran).
#[expect(clippy::expect_used, reason = "NAMES is static and covered by the suite tests below")]
pub fn fig4_subset() -> Vec<WorkloadSpec> {
    const NAMES: [&str; 16] = [
        "parsec3/blackscholes",
        "parsec3/bodytrack",
        "parsec3/dedup",
        "parsec3/fluidanimate",
        "parsec3/raytrace",
        "parsec3/streamcluster",
        "parsec3/canneal",
        "parsec3/x264",
        "splash2x/barnes",
        "splash2x/fft",
        "splash2x/lu_ncb",
        "splash2x/ocean_cp",
        "splash2x/ocean_ncp",
        "splash2x/radix",
        "splash2x/raytrace",
        "splash2x/water_nsquared",
    ];
    NAMES.iter().map(|n| by_path(n).expect("suite member")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_mm::addr::PAGE_SIZE;

    #[test]
    fn suite_has_24_workloads_12_per_suite() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 24);
        let parsec = suite.iter().filter(|s| s.suite == Suite::Parsec3).count();
        let splash = suite.iter().filter(|s| s.suite == Suite::Splash2x).count();
        assert_eq!(parsec, 12);
        assert_eq!(splash, 12);
    }

    #[test]
    fn plot_names_unique() {
        let suite = paper_suite();
        let mut names: Vec<String> = suite.iter().map(|s| s.plot_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 24, "duplicate plot names");
    }

    #[test]
    fn raytrace_exists_in_both_suites() {
        assert!(by_path("parsec3/raytrace").is_some());
        assert!(by_path("splash2x/raytrace").is_some());
        assert!(by_path("parsec3/nonexistent").is_none());
    }

    #[test]
    fn fig4_subset_matches_paper_panels() {
        let subset = fig4_subset();
        assert_eq!(subset.len(), 16);
    }

    #[test]
    fn per_epoch_touch_budget_is_bounded() {
        // Keeps whole-figure sweeps tractable on one core: every workload
        // must expect < 4k page touches per epoch and > 100 (else the
        // monitor has nothing to see).
        for spec in paper_suite() {
            let w = instantiate(spec, 0);
            let t = w.expected_touches_per_epoch();
            assert!(
                (100.0..4000.0).contains(&t),
                "{}: {} touches/epoch out of budget",
                spec.path_name(),
                t
            );
        }
    }

    #[test]
    fn footprints_fit_the_smallest_paper_machine() {
        let dram = daos_mm::machine::MachineProfile::z1d_metal().dram_bytes;
        for spec in paper_suite() {
            // Leave 25 % headroom for THP bloat experiments.
            assert!(
                spec.footprint * 2 <= dram,
                "{} footprint {} too large for {}",
                spec.path_name(),
                spec.footprint,
                dram
            );
            assert_eq!(spec.footprint % PAGE_SIZE, 0);
        }
    }

    #[test]
    fn durations_cover_the_fig4_min_age_range() {
        // Fig. 4 sweeps min_age up to 60 s; nominal runtimes must be long
        // enough that a 60 s threshold is meaningful for most workloads.
        let long_enough = paper_suite()
            .iter()
            .filter(|s| s.nominal_duration() >= daos_mm::clock::sec(75))
            .count();
        assert!(long_enough >= 18, "only {long_enough}/24 run >= 75 s");
    }
}
