//! # daos-tuner — the Auto-tuning Runtime
//!
//! The user-space component of DAOS (§3.3–3.5 of the paper): given a
//! memory management scheme with an aggressiveness knob, a workload, and
//! a time budget, find the knob value that maximises a user-defined score
//! combining performance and memory efficiency.
//!
//! * [`score`] — the paper's Listing 2 score function (equal weights,
//!   10 % performance SLA) plus custom score support;
//! * [`sampler`] — the 60 % global / 40 % localized sampling plan;
//! * [`polyfit`] — least-squares polynomial trend estimation with the
//!   paper's `degree = nr_samples/3` rule;
//! * [`peaks`] — gradient-based peak search on the fitted curve;
//! * [`tuner`] — the end-to-end driver;
//! * [`patterns`] — the six Fig. 3 score-pattern shapes and a classifier
//!   used by the Fig. 3/4 reproduction.
//!
//! ```
//! use daos_tuner::{tune, TunerConfig};
//! use daos_mm::clock::sec;
//!
//! // A toy objective peaking at aggressiveness 16 (cf. Fig. 5).
//! let cfg = TunerConfig {
//!     time_limit: sec(100),     // budget: 10 samples…
//!     unit_work_time: sec(10),  // …at 10 s per sample
//!     range: (0.0, 60.0),
//!     seed: 42,
//! };
//! let result = tune(&cfg, |x| 25.0 - (x - 16.0).powi(2) / 30.0);
//! assert!((result.best_x - 16.0).abs() < 4.0);
//! ```

#![deny(clippy::disallowed_types, reason = "a simulation crate reads virtual time only")]

pub mod patterns;
pub mod peaks;
pub mod polyfit;
pub mod sampler;
pub mod score;
pub mod tuner;

pub use patterns::{classify, ScorePattern};
pub use peaks::{best_peak, find_peaks, Peak};
pub use polyfit::{paper_degree, Polynomial};
pub use sampler::Sampler;
pub use score::{DefaultScore, ScoreInputs, WORST_SCORE};
pub use tuner::{tune, TuneResult, TunerConfig};
