//! # daos-repro — reproduction of "DAOS: Data Access-aware Operating System" (HPDC '22)
//!
//! This umbrella crate re-exports the whole reproduction stack:
//!
//! * [`mm`] — the simulated kernel memory-management substrate;
//! * [`monitor`] — the Data Access Monitor (DAMON);
//! * [`schemes`] — the Memory Management Schemes Engine (DAMOS);
//! * [`tuner`] — the Auto-tuning Runtime;
//! * [`workloads`] — the 24 Parsec3/Splash-2x analogs + the serverless worker;
//! * [`daos`] — the integration layer (configs, sessions, heatmaps, metrics).
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ```
//! use daos_repro::prelude::*;
//!
//! // Run freqmine under the paper's 1-line proactive-reclamation scheme
//! // (shortened run + 1 s idle threshold to keep the doc test fast).
//! let machine = MachineProfile::i3_metal();
//! let spec = by_path("parsec3/freqmine").unwrap();
//! let mut quick = spec; quick.nr_epochs = 3_000;
//! let run = |config: &RunConfig| {
//!     Session::new(&machine, config, &quick).seed(42).execute().unwrap().into_single()
//! };
//! let base = run(&RunConfig::baseline());
//! let prcl = run(&RunConfig::prcl_with_min_age(daos_mm::clock::sec(1)));
//! let n = Normalized::of(&base, &prcl);
//! assert!(n.memory_saving_pct() > 40.0);
//! assert!(n.slowdown_pct() < 10.0);
//! ```

pub use daos;
pub use daos_mm as mm;
pub use daos_trace as trace;
pub use daos_monitor as monitor;
pub use daos_schemes as schemes;
pub use daos_tuner as tuner;
pub use daos_workloads as workloads;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use daos::{
        biggest_active_span, score_vs_baseline, tune_prcl, DaosError, FleetObserver,
        FleetProgress, FleetSpec, Heatmap, MonitorKind, Normalized, RunConfig, RunResult,
        Session, SessionResult, TunedPrcl,
    };
    pub use daos_trace::{Collector, Event, Registry, TimedEvent};
    pub use daos_mm::{
        AccessBatch, AddrRange, MachineProfile, MemorySystem, SwapConfig, ThpMode,
    };
    pub use daos_monitor::{
        MonitorAttrs, MonitorCtx, PaddrPrimitives, SyntheticPrimitives, SyntheticSpace,
        VaddrPrimitives,
    };
    pub use daos_schemes::{
        parse_scheme_line, parse_schemes, Action, Scheme, SchemeConfig, SchemeTarget,
        SchemesEngine,
    };
    pub use daos_tuner::{tune, classify, DefaultScore, ScoreInputs, TunerConfig};
    pub use daos_workloads::{
        by_path, instantiate, paper_suite, FleetConfig, Workload, WorkloadSpec,
    };
}
