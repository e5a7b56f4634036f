//! Fixture: library code that leaves atomics unjustified, declares a
//! tracepoint nobody emits, hands the registry a malformed key, and
//! exports items and methods nothing reads (`dead.rs`). Never compiled —
//! only lexed.

use std::sync::atomic::{AtomicBool, Ordering};

pub fn status(flag: &AtomicBool) -> bool {
    // ordering:
    flag.store(true, Ordering::Relaxed);
    flag.load(Ordering::SeqCst)
}

daos_trace::events! {
    Alive { n: u64 },
    Dead { n: u64 },
}

pub fn tick() {
    trace!(1, Alive { n: 3 });
}

pub fn bad_metric(reg: &mut Registry) {
    reg.counter_add("Obs-Requests.Total", 1);
}

mod dead;
pub use dead::{Engine, Reexported};
