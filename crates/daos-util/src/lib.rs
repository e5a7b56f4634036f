//! Zero-dependency support library for the DAOS reproduction.
//!
//! Everything the workspace previously pulled from crates.io lives here
//! instead, so a clean clone builds and tests with no network and an
//! empty registry cache (`cargo build --release --offline`). Hermeticity
//! is a correctness feature, not a convenience: the paper's figures are
//! regenerated from *deterministic* seeded simulations, and determinism
//! only holds if the random streams are produced by code under our
//! control (see `rng` for the stream-stability guarantee).
//!
//! Modules:
//!
//! * [`rng`] — xoshiro256++ PRNG with SplitMix64 seeding, exposing the
//!   `SmallRng`-style surface the simulation uses.
//! * [`json`] — a small JSON value type, writer and parser, plus the
//!   [`json::ToJson`]/[`json::FromJson`] traits and the
//!   [`json_struct!`]/[`json_enum!`] impl-generating macros.
//! * [`prop`] — a deterministic seeded property-test harness (fixed case
//!   count, failing seed printed, simple halving shrink).
//! * [`mod@bench`] — a median-of-N wall-clock timing harness for the bench
//!   binaries.
//! * [`pool`] — the workspace's single worker pool: threads pulling
//!   from one shared queue, with a persistent-thread frontend
//!   ([`pool::WorkerPool`], driving the fleet engine's shard tasks) and
//!   a scoped map frontend ([`pool::par_map`], driving the figure
//!   sweeps).
//! * [`sync`] — the workspace's one lock funnel: [`sync::lock`] recovers
//!   from poison and, in debug builds, asserts the leaf-lock rule (no
//!   mutex is taken while the thread holds another) on every
//!   acquisition. Nothing else in the tree calls `Mutex::lock`.

pub mod bench;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod sync;
