//! Cross-layer telemetry for the DAOS reproduction: typed tracepoints,
//! a metrics registry, and a JSONL exporter — the in-simulation analogue
//! of the kernel's `damon:*` tracepoints.
//!
//! The crate sits at the bottom of the workspace DAG (it depends only on
//! `daos-util`), so every layer — mm, monitor, schemes, tuner — can emit
//! without cycles:
//!
//! ```
//! use daos_trace::{trace, Collector};
//!
//! let collector = Collector::builder().ring_capacity(1024).build().unwrap();
//! daos_trace::install(collector).unwrap();
//!
//! // Instrumented code does this (a no-op while no collector is live):
//! trace!(5_000, RegionSplit { before: 10, after: 20 });
//!
//! let collector = daos_trace::take().unwrap();
//! assert_eq!(collector.ring().len(), 1);
//! let jsonl = daos_trace::events_to_jsonl(collector.ring().iter());
//! let replay = daos_trace::parse_export(&jsonl).unwrap();
//! assert_eq!(replay.events, collector.events());
//! ```
//!
//! Design points:
//! - **Disabled means free.** `trace!` checks one thread-local flag; the
//!   event expression is not evaluated unless a collector is installed,
//!   so hot paths (fault handling, sampling ticks) are unperturbed when
//!   tracing is off.
//! - **Bounded.** Events land in a fixed-capacity ring ([`Ring`]) that
//!   overwrites the oldest entry and counts drops — tracing can never
//!   make a run unbounded in memory.
//! - **One source of truth.** Every event is mirrored into the
//!   [`Registry`] (counters / gauges / log2 histograms); each layer's
//!   tests hold its stats struct (`OverheadStats`, `SchemeStats`) equal
//!   to the registry's view of the same run.
//! - **Replayable.** [`export_collector`] writes a self-describing JSONL
//!   document; [`parse_export`] reads it back as a [`TraceDoc`], and
//!   [`Collector::replay`] rebuilds the registry from the event stream —
//!   the foundation the offline `daos report` tooling stands on.
//! - **Spans.** The [`span!`](crate::span) macro wraps the five pipeline
//!   phases ([`Phase`]) in enter/exit pairs carrying *virtual* durations,
//!   feeding per-phase `span.*_ns` histograms for `report profile`.

pub mod collector;
pub mod event;
pub mod export;
pub mod metrics;
pub mod ring;

pub use collector::{
    emit, enabled, install, take, with_collector, Collector, CollectorBuilder,
    DEFAULT_RING_CAPACITY,
};
pub use event::{ActionTag, Event, Layer, Ns, Phase, Pid, SamplePhase, TimedEvent};
pub use export::{events_to_jsonl, export_collector, parse_export, TraceDoc};
pub use metrics::{keys, Histogram, Registry};
pub use ring::Ring;

use daos_util::json::JsonError;
use std::fmt;

/// A telemetry error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The requested ring capacity is invalid (must be ≥ 1).
    InvalidCapacity(usize),
    /// A collector is already installed on this thread.
    AlreadyInstalled,
    /// An event log failed to parse.
    Json(JsonError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidCapacity(n) => {
                write!(f, "invalid ring capacity {n} (must be >= 1)")
            }
            TraceError::AlreadyInstalled => {
                write!(f, "a trace collector is already installed on this thread")
            }
            TraceError::Json(e) => write!(f, "trace log: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<JsonError> for TraceError {
    fn from(e: JsonError) -> Self {
        TraceError::Json(e)
    }
}
