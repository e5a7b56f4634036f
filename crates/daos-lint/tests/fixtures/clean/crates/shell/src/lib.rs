//! Fixture: a second crate that reads `core` through `use` and names a
//! trait only as a bound. Never compiled — only lexed.

use core_lib::shared;

/// Read only by the workspace's example.
pub fn drain<S: core_lib::Sink>(sink: &mut S) {
    sink.put(shared());
    let _ = core_lib::Counter::zero();
}
