//! Virtual time.
//!
//! The entire reproduction runs under a discrete-event virtual clock in
//! nanoseconds. Workloads, the monitor's sampling/aggregation intervals,
//! scheme `age` thresholds and the tuner's time budget all use this clock,
//! so experiments are deterministic and much faster than wall time.


/// Nanoseconds of virtual time.
pub type Ns = u64;

/// One microsecond in [`Ns`].
pub const USEC: Ns = 1_000;
/// One millisecond in [`Ns`].
pub const MSEC: Ns = 1_000_000;
/// One second in [`Ns`].
pub const SEC: Ns = 1_000_000_000;
/// One minute in [`Ns`].
pub const MINUTE: Ns = 60 * SEC;

/// Convert milliseconds to [`Ns`].
#[inline]
pub const fn ms(v: u64) -> Ns {
    v * MSEC
}

/// Convert seconds to [`Ns`].
#[inline]
pub const fn sec(v: u64) -> Ns {
    v * SEC
}

/// A monotonically advancing virtual clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    now: Ns,
}

impl Clock {
    /// A clock starting at time zero.
    pub const fn new() -> Self {
        Self { now: 0 }
    }

    /// Current virtual time.
    #[inline]
    pub const fn now(&self) -> Ns {
        self.now
    }

    /// Advance the clock by `delta` nanoseconds.
    #[inline]
    pub fn advance(&mut self, delta: Ns) {
        self.now += delta;
    }
}

/// Pretty-print a nanosecond quantity using the largest sensible unit,
/// as the schemes DSL and reports do (`5s`, `100ms`, `2m`, ...).
pub fn format_ns(ns: Ns) -> String {
    if ns >= MINUTE && ns.is_multiple_of(MINUTE) {
        format!("{}m", ns / MINUTE)
    } else if ns >= SEC && ns.is_multiple_of(SEC) {
        format!("{}s", ns / SEC)
    } else if ns >= MSEC && ns.is_multiple_of(MSEC) {
        format!("{}ms", ns / MSEC)
    } else if ns >= USEC && ns.is_multiple_of(USEC) {
        format!("{}us", ns / USEC)
    } else {
        format!("{}ns", ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let mut c = Clock::new();
        assert_eq!(c.now(), 0);
        c.advance(ms(5));
        assert_eq!(c.now(), 5 * MSEC);
        c.advance(sec(1));
        assert_eq!(c.now(), SEC + 5 * MSEC);
    }

    #[test]
    fn unit_constants_consistent() {
        assert_eq!(MSEC, 1000 * USEC);
        assert_eq!(SEC, 1000 * MSEC);
        assert_eq!(MINUTE, 60 * SEC);
    }

    #[test]
    fn formatting_picks_largest_unit() {
        assert_eq!(format_ns(2 * MINUTE), "2m");
        assert_eq!(format_ns(5 * SEC), "5s");
        assert_eq!(format_ns(100 * MSEC), "100ms");
        assert_eq!(format_ns(7 * USEC), "7us");
        assert_eq!(format_ns(123), "123ns");
        assert_eq!(format_ns(1_500_000_000), "1500ms");
    }
}
