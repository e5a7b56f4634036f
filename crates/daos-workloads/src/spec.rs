//! Workload specifications: the declarative description of one synthetic
//! benchmark analog.
//!
//! Each of the paper's 24 workloads is reproduced as a parameterised
//! instance of a small set of access-behaviour archetypes that match the
//! qualitative pattern visible in the paper's Fig. 6 heatmap for that
//! workload (hot-set size, phase changes, streaming sweeps, growth, ...).

use daos_mm::clock::{Ns, MSEC};

/// Which benchmark suite the analog belongss to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// PARSEC 3.0.
    Parsec3,
    /// Splash-2x.
    Splash2x,
    /// The §4.4 production serverless fleet (one spec per worker
    /// process, replicated by the fleet engine).
    Fleet,
}

impl Suite {
    /// The paper's plot prefix (`P/`, `S/` or `F/`).
    pub fn prefix(&self) -> &'static str {
        match self {
            Suite::Parsec3 => "P/",
            Suite::Splash2x => "S/",
            Suite::Fleet => "F/",
        }
    }

    /// The suite's lowercase path name (`parsec3` / `splash2x` / `fleet`).
    pub fn path(&self) -> &'static str {
        match self {
            Suite::Parsec3 => "parsec3",
            Suite::Splash2x => "splash2x",
            Suite::Fleet => "fleet",
        }
    }
}

/// Spatio-temporal access behaviour archetypes.
///
/// All fractions are of the workload's footprint; all periods are virtual
/// time. `apc` is accesses-per-page (cost intensity: high values model
/// TLB-bound compute kernels that benefit from huge pages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// A fixed hot prefix, intensely accessed; the cold remainder is
    /// touched only with a small probability. (blackscholes, swaptions…)
    CompactHot {
        /// Fraction of the footprint that is hot.
        hot_frac: f64,
        /// Accesses per hot page per epoch.
        apc: f32,
        /// Per-epoch touch probability of each cold page.
        cold_touch_prob: f32,
    },
    /// Random pointer chasing over the whole footprint plus a small hot
    /// core (canneal's netlist + its index structures).
    PointerChase {
        /// Random page draws per epoch over the full footprint.
        random_touches: u32,
        /// Fraction of the footprint forming the always-hot core.
        core_frac: f64,
        /// Accesses per core page per epoch.
        apc: f32,
    },
    /// A sequential window sweeping the footprint repeatedly
    /// (streamcluster's point batches, ocean's grid passes). `stride > 1`
    /// models non-contiguous layouts (ocean_ncp) that touch every n-th
    /// page — the THP-bloat-prone pattern.
    Streaming {
        /// Window length as a fraction of the footprint.
        window_frac: f64,
        /// Pages touched within the window: every `stride`-th.
        stride: u32,
        /// Accesses per touched page per epoch.
        apc: f32,
        /// Time for one full pass over the footprint.
        sweep_period: Ns,
    },
    /// The hot region jumps to a different part of the footprint every
    /// phase (fft's transpose/compute phases, splash raytrace frames).
    PhaseShift {
        /// Number of distinct hot locations cycled through.
        nr_phases: u32,
        /// Fraction of the footprint hot in each phase.
        hot_frac: f64,
        /// Accesses per hot page per epoch.
        apc: f32,
        /// Length of one phase.
        phase_len: Ns,
    },
    /// Footprint builds up over the run; only a head window stays hot
    /// (dedup's growing dedup store, x264's frame window).
    Growing {
        /// Fraction of the run after which the footprint is fully built.
        built_by_frac: f64,
        /// Trailing window (fraction of *built* footprint) that stays hot.
        hot_tail_frac: f64,
        /// Accesses per hot page per epoch.
        apc: f32,
    },
    /// Large structure built at start, then mostly idle: a small active
    /// fraction plus rare stray touches (freqmine's FP-tree — the
    /// workload where prcl saves 91 % memory at 0.9 % slowdown).
    MostlyIdle {
        /// Fraction that remains actively used.
        active_frac: f64,
        /// Accesses per active page per epoch.
        apc: f32,
        /// Per-epoch probability of one stray touch to the idle part.
        stray_prob: f32,
    },
}

impl Behavior {
    /// Short human-readable archetype name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Behavior::CompactHot { .. } => "compact-hot",
            Behavior::PointerChase { .. } => "pointer-chase",
            Behavior::Streaming { .. } => "streaming",
            Behavior::PhaseShift { .. } => "phase-shift",
            Behavior::Growing { .. } => "growing",
            Behavior::MostlyIdle { .. } => "mostly-idle",
        }
    }
}

/// A complete workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name without suite prefix (e.g. `"blackscholes"`).
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Mapped footprint in bytes (scaled from the paper's Fig. 6 sizes).
    pub footprint: u64,
    /// Nominal run length in epochs (one epoch ≈ 5 ms of work).
    pub nr_epochs: u64,
    /// Pure-CPU work per epoch, ns (at the 3 GHz reference clock).
    pub compute_ns: Ns,
    /// The access behaviour.
    pub behavior: Behavior,
}

/// Nominal epoch quantum the specs are calibrated around.
pub const EPOCH_TARGET: Ns = 5 * MSEC;

impl WorkloadSpec {
    /// Full display name with suite prefix, as in the paper's plots
    /// (`P/blackscholes`).
    pub fn plot_name(&self) -> String {
        format!("{}{}", self.suite.prefix(), self.name)
    }

    /// Full path name (`parsec3/blackscholes`).
    pub fn path_name(&self) -> String {
        format!("{}/{}", self.suite.path(), self.name)
    }

    /// Nominal duration if every epoch took exactly [`EPOCH_TARGET`].
    pub fn nominal_duration(&self) -> Ns {
        self.nr_epochs * EPOCH_TARGET
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_prefixes() {
        let spec = WorkloadSpec {
            name: "blackscholes",
            suite: Suite::Parsec3,
            footprint: 64 << 20,
            nr_epochs: 1000,
            compute_ns: 1_000_000,
            behavior: Behavior::CompactHot { hot_frac: 0.3, apc: 8.0, cold_touch_prob: 0.0 },
        };
        assert_eq!(spec.plot_name(), "P/blackscholes");
        assert_eq!(spec.path_name(), "parsec3/blackscholes");
        assert_eq!(spec.nominal_duration(), 5_000 * MSEC * 1000 / 1000);
        assert_eq!(Suite::Splash2x.prefix(), "S/");
        assert_eq!(Suite::Splash2x.path(), "splash2x");
    }
}
