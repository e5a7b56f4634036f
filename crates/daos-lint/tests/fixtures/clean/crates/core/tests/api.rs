//! Fixture: the integration test is the only reader of `core`'s bait
//! functions. Never compiled — only lexed.

use core_lib::{emit_all, escaped_bait, is_down, metric_bait, raw_bait, shutdown};

fn counts(counter: &mut core_lib::Counter) -> u64 {
    counter.bump()
}
