//! Fixture: library code that prints, leaves atomics unjustified,
//! declares a tracepoint nobody emits, locks behind the funnel's back,
//! and exports items and methods nothing reads (`dead.rs`). Never
//! compiled — only lexed.

use std::sync::atomic::{AtomicBool, Ordering};

pub fn status(flag: &AtomicBool) {
    println!("status: {}", flag.load(Ordering::SeqCst));
    flag.store(true, Ordering::Relaxed);
    eprintln!(
        "the multiline form that the old \
         grep guard could not see"
    );
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

/// A raw acquisition outside `daos_util::sync` — even one that recovers
/// from poison by hand — skips the leaf-lock check.
pub fn raw_lock(m: &std::sync::Mutex<u64>) -> u64 {
    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// … and this one panics a second time on a poisoned lock as well
/// (guard-discipline *and* panic-discipline).
pub fn bare_unwrap(m: &std::sync::Mutex<u64>) -> u64 {
    *m.lock().unwrap()
}

mod dead;
pub use dead::{Engine, Reexported};
