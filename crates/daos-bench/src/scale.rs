//! Experiment grid scaling.
//!
//! Every figure binary runs the paper's own grid by default — Fig. 4 is
//! 16 workloads × 61 min_age values × 3 machines × 3 repeats — and all
//! thirteen figure and table binaries finish in about a minute and a half
//! on two cores (EXPERIMENTS.md, "Running", has the per-binary times).
//! `DAOS_QUICK=1` shrinks each grid to a smoke pass of a few seconds,
//! which is how `scripts/verify.sh` runs every binary.

use daos_workloads::{fig4_subset, paper_suite, WorkloadSpec};

/// Grid density selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke test: a handful of workloads, ages and one machine.
    Quick,
    /// The paper's exact grid.
    Paper,
}

impl Scale {
    /// `Quick` when `DAOS_QUICK` is set to anything but `0`, else `Paper`.
    pub fn from_env() -> Scale {
        match std::env::var("DAOS_QUICK") {
            Ok(v) if v != "0" && !v.is_empty() => Scale::Quick,
            _ => Scale::Paper,
        }
    }

    /// min_age grid (seconds) for the Fig. 3/4 sweeps; the paper uses
    /// 0..=60 s at 1 s granularity.
    pub fn fig4_ages(&self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![0, 5, 15, 30, 60],
            Scale::Paper => (0..=60).collect(),
        }
    }

    /// Workloads for the Fig. 3/4 sweeps and the Fig. 6 heatmaps (the
    /// paper plots 16 of its 24).
    pub fn fig4_workloads(&self) -> Vec<WorkloadSpec> {
        match self {
            Scale::Quick => fig4_subset().into_iter().take(4).collect(),
            Scale::Paper => fig4_subset(),
        }
    }

    /// Repeats per configuration (the paper runs each 3 times).
    pub fn repeats(&self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Paper => 3,
        }
    }

    /// Workloads for Fig. 7 / Fig. 8 (the paper uses all 24).
    pub fn full_suite(&self) -> Vec<WorkloadSpec> {
        match self {
            Scale::Quick => paper_suite().into_iter().take(6).collect(),
            Scale::Paper => paper_suite(),
        }
    }

    /// Machines for multi-machine figures.
    pub fn machines(&self) -> Vec<daos_mm::MachineProfile> {
        match self {
            Scale::Quick => vec![daos_mm::MachineProfile::i3_metal()],
            Scale::Paper => daos_mm::MachineProfile::paper_machines(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_is_the_papers_grid() {
        assert_eq!(Scale::Paper.fig4_ages(), (0..=60).collect::<Vec<_>>(), "61 ages");
        assert_eq!(Scale::Paper.fig4_workloads().len(), 16);
        assert_eq!(Scale::Paper.machines().len(), 3);
        assert_eq!(Scale::Paper.repeats(), 3);
        assert_eq!(Scale::Paper.full_suite().len(), 24);
        assert!(Scale::Quick.fig4_ages().len() < 61);
        assert_eq!(Scale::Quick.machines().len(), 1);
    }
}
