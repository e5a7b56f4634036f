//! Fixture: everything here is fine, and most of it is bait. Strings,
//! comments and test modules must all pass the lints. Never compiled —
//! only lexed.

/* A nested /* block comment */ mentioning Ordering::SeqCst and counter_add("Bad-Key", 1) */

pub fn raw_bait() -> &'static str {
    // Raw-string contents are data, not code.
    r#"flag.load(Ordering::Relaxed); reg.counter_add("Bad-Key", 1); trace!(1, Gone {})"#
}

pub fn escaped_bait() -> &'static str {
    "say \"counter_add(\\\"Bad-Key\\\")\" and Ordering::SeqCst"
}

use std::sync::atomic::{AtomicBool, Ordering};

pub fn shutdown(flag: &AtomicBool) {
    // ordering: Release pairs with the Acquire load in `is_down`.
    flag.store(true, Ordering::Release);
}

pub fn is_down(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Acquire) // ordering: pairs with the Release store above
}

daos_trace::events! {
    Ping { n: u64 },
    Pong { n: u64 },
    SpanEnter { id: u64 },
    SpanExit { id: u64 },
}

pub fn emit_all() {
    trace!(1, Ping { n: 1 });
    daos_trace::emit(7, daos_trace::Event::Pong { n: 2 });
    span!(3, Sample, { () });
}

pub fn metric_bait(reg: &mut Registry, i: u32) {
    // A well-formed key and a computed key (the labelled-prefix fold owns
    // its shape) must both pass.
    reg.counter_add("obs.requests_total", 1);
    reg.gauge_set(&format!("tenant.t{i}.rss_bytes"), 0.0);
}

#[cfg(test)]
mod tests {
    /// Test code declares no checked public item.
    pub fn helper() {}
}

/// Named by another crate only as a generic bound.
pub trait Sink {
    fn put(&mut self, v: u64);
}

/// Read by another crate through its `use`.
pub fn shared() -> u64 {
    1
}

/// Methods are read by calls: `bump` by a `.bump()` in the integration
/// test, `zero` by a `Counter::zero` path in another crate.
pub struct Counter(u64);

impl Counter {
    pub fn zero() -> Counter {
        Counter(0)
    }

    pub fn bump(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// Not public outside the crate: rustc's dead-code lint owns it.
pub(crate) fn crate_only() {}
