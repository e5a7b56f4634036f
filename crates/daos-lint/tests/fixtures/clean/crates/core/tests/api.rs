//! Fixture: the integration test is the only reader of `core`'s bait
//! functions. Never compiled — only lexed.

use core_lib::{emit_all, escaped_bait, guard_bait, is_down, justified_raw, metric_bait};
use core_lib::{not_test_is_live, raw_bait, shutdown, standalone_allow, trailing_allow};

fn counts(counter: &mut core_lib::Counter) -> u64 {
    counter.bump()
}
