//! # daos-workloads — workload analogs for the DAOS evaluation
//!
//! Synthetic reproductions of the access behaviour of the 24 Parsec3 and
//! Splash-2x workloads the paper evaluates with, plus the §4.4 serverless
//! production fleet. DAMON only ever observes *which pages are touched
//! when*, so generators that reproduce each workload's spatio-temporal
//! access pattern (as visible in the paper's Fig. 6 heatmaps) exercise
//! the monitoring, scheme and tuning code paths identically to the real
//! binaries — at laptop scale and deterministically.
//!
//! ```
//! use daos_workloads::{paper_suite, instantiate, Workload};
//! use daos_mm::{MachineProfile, MemorySystem, SwapConfig, ThpMode};
//!
//! let spec = paper_suite()[0]; // parsec3/blackscholes
//! let mut wl = instantiate(spec, 42);
//! let mut sys = MemorySystem::new(MachineProfile::i3_metal(), SwapConfig::paper_zram(), 42);
//! let pid = wl.setup(&mut sys, ThpMode::Never).unwrap();
//! assert_eq!(sys.rss_bytes(pid), spec.footprint);
//! ```

pub mod serverless;
pub mod spec;
pub mod suite;
pub mod workload;

pub use serverless::FleetConfig;
pub use spec::{Behavior, Suite, WorkloadSpec, EPOCH_TARGET};
pub use suite::{by_path, fig4_subset, instantiate, paper_suite};
pub use workload::{SyntheticWorkload, Workload};
