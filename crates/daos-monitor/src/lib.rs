//! # daos-monitor — the Data Access Monitor
//!
//! The core of DAOS (§3.1 of the paper; upstreamed to Linux as DAMON):
//! best-effort data access monitoring whose overhead has a configurable
//! upper bound regardless of target memory size.
//!
//! * **Region-based sampling** — the target is divided into regions whose
//!   pages are assumed to share an access frequency; one random page per
//!   region is checked per sampling interval.
//! * **Adaptive regions adjustment** — regions are split at random points
//!   and re-merged when adjacent regions show similar access counts,
//!   bounded between `min_nr_regions` and `max_nr_regions`.
//! * **Aging** — each region tracks for how many aggregation windows its
//!   access pattern has been stable, providing the recency signal schemes
//!   need; ages are inherited on split and size-weight-averaged on merge.
//! * **Monitoring primitives** — target-specific access-check backends:
//!   virtual address spaces (VMAs + PTE accessed bits), the physical
//!   address space (rmap + PTE accessed bits), and a synthetic test space.
//!
//! ```
//! use daos_monitor::{MonitorAttrs, MonitorCtx, SyntheticPrimitives, SyntheticSpace};
//! use daos_mm::addr::AddrRange;
//!
//! let mut space = SyntheticSpace::new(vec![AddrRange::new(0, 64 << 20)]);
//! let attrs = MonitorAttrs::paper_defaults();
//! let mut ctx = MonitorCtx::new(attrs, SyntheticPrimitives, &space, 0, 42);
//! let mut sink = Vec::new();
//! for tick in 1..=40u64 {
//!     space.touch_range(AddrRange::new(0, 8 << 20)); // hot 8 MiB
//!     ctx.step(&mut space, tick * attrs.sampling_interval, &mut sink);
//! }
//! assert!(!sink.is_empty()); // aggregated access pattern delivered
//! ```

pub mod attrs;
pub mod ctx;
pub mod overhead;
pub mod primitives;
pub mod region;
pub mod regions;
pub mod snapshot;

pub use attrs::{AttrsBuilder, AttrsError, MonitorAttrs};
pub use ctx::MonitorCtx;
pub use overhead::OverheadStats;
pub use primitives::{
    three_regions, PaddrPrimitives, Primitives, SyntheticPrimitives, SyntheticSpace,
    VaddrPrimitives,
};
pub use region::{Region, RegionInfo};
pub use regions::RegionSet;
pub use snapshot::{Aggregation, MonitorRecord};
