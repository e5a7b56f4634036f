//! Fixture: an integration test that reads every bait item of the other
//! lints, so only `src/dead.rs` trips dead-pub. Never compiled — only
//! lexed.

use app::{bad_metric, bare_unwrap, raw_lock, status, tick};
use daos_mm::{half, work};
