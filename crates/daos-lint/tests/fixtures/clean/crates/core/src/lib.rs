//! Fixture: everything here is fine, and most of it is bait. Strings,
//! comments, test modules and annotated sites must all pass the lints.
//! Never compiled — only lexed.

/* A nested /* block comment */ mentioning println!("x") and x.unwrap() */

pub fn raw_bait() -> &'static str {
    // Raw-string contents are data, not code.
    r#"println!("hi"); x.unwrap(); panic!("no"); Instant::now()"#
}

pub fn escaped_bait() -> &'static str {
    "say \"eprintln!\" and .expect(\"quoted\") and Ordering::SeqCst"
}

use std::sync::atomic::{AtomicBool, Ordering};

pub fn shutdown(flag: &AtomicBool) {
    // ordering: Release pairs with the Acquire load in `is_down`.
    flag.store(true, Ordering::Release);
}

pub fn is_down(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Acquire) // ordering: pairs with the Release store above
}

pub fn trailing_allow(x: Option<u8>) -> u8 {
    x.unwrap() // lint: allow(panic, fixture exercises the trailing annotation form)
}

pub fn standalone_allow(x: Option<u8>) -> u8 {
    // lint: allow(panic, fixture exercises the standalone annotation form)
    x.expect("fixture")
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
    // A well-formed key, a computed key (the labelled-prefix fold owns
    // its shape), and an annotated exception must all pass.
    reg.counter_add("obs.requests_total", 1);
    reg.gauge_set(&format!("tenant.t{i}.rss_bytes"), 0.0);
    reg.hist_record("Legacy-Key", 1) // lint: allow(metric, fixture exercises the metric allow key)
}

/// `io::Read::read(&mut buf)` / `io::Write::write(&buf)` take arguments:
/// not acquisitions. Neither is a funnelled `lock(&m)`, nor `.lock()`
/// text in a comment or a raw string.
pub fn guard_bait(src: &mut std::fs::File, m: &std::sync::Mutex<u64>) -> &'static str {
    let mut buf = [0u8; 8];
    let _ = src.read(&mut buf);
    let _ = src.write(&buf);
    *daos_util::sync::lock(m) += 1; // not self.a.lock().unwrap()
    r##"let g = self.a.lock().unwrap(); r#"nested .lock() raw"# same string"##
}

pub fn justified_raw(rw: &std::sync::RwLock<u64>) -> u64 {
    // lint: allow(guard, fixture exercises the guard allow key)
    *rw.read().unwrap() // lint: allow(panic, fixture pairs with the guard allow above)
}

#[cfg(test)]
mod tests {
    #[test]
    fn masked() {
        let _ = std::sync::Mutex::new(0).lock();
        super::trailing_allow(Some(1));
        Some(3u8).unwrap();
        let v: Result<u8, ()> = Ok(3);
        v.expect("tests may expect");
        panic!("tests may panic");
    }
}

#[cfg(not(test))]
pub fn not_test_is_live() -> u8 {
    // This item is live library code: had it unwrapped, the lint would
    // fire. It does not.
    0
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
