//! # daos-schemes — the Memory Management Schemes Engine
//!
//! DAMOS (§3.2 of the paper): users describe access-aware memory
//! management as *schemes* — three condition pairs (region size, access
//! frequency, age) plus an action — in a one-line text format, and the
//! engine applies the actions to every monitored region that matches.
//! This replaces the kernel programming that access-aware optimisations
//! previously required: the paper reimplements two state-of-the-art
//! systems in 2 lines (`ethp`) and 1 line (`prcl`) of this DSL.
//!
//! ```
//! use daos_schemes::{parse_schemes, Action};
//!
//! // Listing 1 of the paper: page out regions not accessed >= 2 minutes.
//! let schemes = parse_schemes("min max min min 2m max page_out").unwrap();
//! assert_eq!(schemes[0].action, Action::Pageout);
//! ```

#![deny(clippy::disallowed_types, reason = "a simulation crate reads virtual time only")]

pub mod action;
pub mod config;
pub mod engine;
pub mod parser;
pub mod quota;
pub mod scheme;
pub mod stats;
pub mod watermarks;

pub use action::Action;
pub use config::{SchemeConfig, SchemeConfigBuilder, SchemeConfigError};
pub use engine::{EnginePass, SchemeTarget, SchemesEngine};
pub use parser::{parse_scheme_line, parse_schemes, ParseError, SchemeParseError};
pub use quota::{Quota, QuotaState};
pub use scheme::{AgeVal, Bound, FreqVal, Scheme};
pub use stats::SchemeStats;
pub use watermarks::{
    free_mem_permille, WatermarkMetric, WatermarkState, Watermarks, WatermarksError,
};
