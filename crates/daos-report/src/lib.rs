//! Offline analysis of exported traces — the reproduction's analogue of
//! `damo report`: every view here is computed deterministically from a
//! JSONL document written by `daos trace` or `daos record` (see
//! `daos_trace::parse_export`), with no access to the live simulation.
//!
//! The views:
//! - [`record_from_doc`] rebuilds a `MonitorRecord` from the
//!   `RegionSnapshot`/`Aggregation` event pairs ([`record_to_events`]
//!   is its inverse, what `daos record` writes), which feeds
//!   [`WssTimeline`] (working-set-size series + percentiles) and the
//!   Fig. 6 rasteriser (`daos::Heatmap`);
//! - [`SchemeTimeline`] summarises each scheme's tried/applied bytes,
//!   quota throttling and watermark activation windows;
//! - [`Summary`] is the run header: event counts, drop accounting, and a
//!   trailer-vs-replay integrity check;
//! - [`Profile`] extracts per-phase span percentiles and cross-checks
//!   the monitor's charged work against summed span time.
//!
//! Everything renders to returned `String`s — per the workspace print
//! policy only the CLI writes to stdout.

pub mod profile;
pub mod record;
pub mod schemes;
pub mod summary;
pub mod wss;

pub use profile::{PhaseStats, Profile};
pub use record::{record_from_doc, record_from_events, record_to_events};
pub use schemes::{scheme_timelines, SchemeTimeline};
pub use summary::Summary;
pub use wss::WssTimeline;
