//! # daos — Data Access-aware Operating System (top-level API)
//!
//! The integration crate of the DAOS reproduction: it wires the
//! [`daos_monitor`] Data Access Monitor, the [`daos_schemes`] Memory
//! Management Schemes Engine and the [`daos_tuner`] Auto-tuning Runtime
//! on top of the [`daos_mm`] simulated memory substrate, and provides:
//!
//! * the six evaluation configurations (baseline / rec / prec / thp /
//!   ethp / prcl) as [`config::RunConfig`];
//! * the [`Session`] entry point executing one workload under one
//!   configuration on one machine profile — or, with a [`FleetSpec`],
//!   replicated across thousands of processes — on the sharded
//!   [`fleet`] engine, which hosts the monitor one way (a
//!   plane per group of processes: one process under virtual-address
//!   monitoring, the whole shard under physical-address monitoring) and
//!   is observed through one [`FleetObserver`] seam;
//! * Fig. 6-style access-pattern [`heatmap`]s;
//! * the engine's host-time [`profile`]: wall time per engine phase;
//! * the normalised performance / memory-efficiency / score [`metrics`]
//!   of Figures 4, 7 and 8, and [`tune_prcl`]: the Auto-tuning Runtime
//!   sampling the *prcl* threshold through that same engine.
//!
//! ```no_run
//! use daos::{Normalized, RunConfig, Session};
//! use daos_mm::MachineProfile;
//! use daos_workloads::by_path;
//!
//! let machine = MachineProfile::i3_metal();
//! let spec = by_path("parsec3/freqmine").unwrap();
//! let base = Session::new(&machine, &RunConfig::baseline(), &spec)
//!     .seed(42)
//!     .execute()
//!     .unwrap()
//!     .into_single();
//! let prcl = Session::new(&machine, &RunConfig::prcl(), &spec)
//!     .seed(42)
//!     .execute()
//!     .unwrap()
//!     .into_single();
//! let n = Normalized::of(&base, &prcl);
//! println!("memory saving: {:.1}%", n.memory_saving_pct());
//! ```

pub mod config;
pub mod error;
pub mod fleet;
pub mod heatmap;
pub mod metrics;
pub mod profile;
pub mod session;

pub use config::{MonitorKind, RunConfig, RunConfigBuilder};
pub use error::DaosError;
pub use fleet::{
    FleetEngine, FleetObserver, FleetProgress, FleetSpec, FleetSummary, ProcessDetail, TenantStats,
};
pub use heatmap::{biggest_active_span, Heatmap};
pub use metrics::{score_inputs, score_vs_baseline, tune_prcl, Normalized, TunedPrcl};
pub use profile::{Phase, WallProfile};
pub use session::{digest, RunResult, Session, SessionResult};
