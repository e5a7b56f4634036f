//! The collector: a ring buffer plus a metrics registry behind a
//! thread-local install point. Instrumented crates emit through the
//! [`trace!`](crate::trace) macro, which checks a single thread-local
//! flag first — with no collector installed the event expression is
//! never even evaluated, so hot paths pay one branch.
//!
//! The install point is thread-local on purpose: a simulation run is
//! single-threaded, while `cargo test` runs many tests concurrently —
//! per-thread collectors isolate them without locks on the emit path.

use crate::event::{Event, Ns, TimedEvent};
use crate::metrics::{keys, Registry};
use crate::ring::Ring;
use crate::TraceError;
use std::cell::{Cell, RefCell};

/// Default ring capacity (events). 64Ki timed events ≈ 2 MiB; enough to
/// hold every monitor/schemes event of a full paper-length run while
/// bounding mm fault storms.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// An event sink: bounded ring of typed events + metrics registry.
/// Build with [`Collector::builder`], activate with [`install`], and
/// reclaim with [`take`] when the traced section is done.
#[derive(Debug)]
pub struct Collector {
    ring: Ring,
    registry: Registry,
}

/// Builder for [`Collector`]; validation happens at [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct CollectorBuilder {
    ring_capacity: usize,
}

impl Default for CollectorBuilder {
    fn default() -> Self {
        CollectorBuilder { ring_capacity: DEFAULT_RING_CAPACITY }
    }
}

impl CollectorBuilder {
    /// Ring capacity in events (must be ≥ 1).
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Validate and construct the collector.
    pub fn build(self) -> Result<Collector, TraceError> {
        if self.ring_capacity == 0 {
            return Err(TraceError::InvalidCapacity(self.ring_capacity));
        }
        Ok(Collector { ring: Ring::new(self.ring_capacity), registry: Registry::new() })
    }
}

impl Collector {
    /// Start building a collector.
    pub fn builder() -> CollectorBuilder {
        CollectorBuilder::default()
    }

    /// The event ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Surviving events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.ring.to_vec()
    }

    /// Record one event: push to the ring and mirror into the registry.
    /// (Callers normally go through [`trace!`](crate::trace) instead.)
    pub fn record(&mut self, at: Ns, event: Event) {
        self.mirror(&event);
        self.ring.push(TimedEvent { at, event });
    }

    /// Registry mirror for each event kind — the counters/histograms
    /// each layer's tests hold equal to its stats struct. Kept in one
    /// match so the event taxonomy and the metric key space evolve
    /// together.
    fn mirror(&mut self, event: &Event) {
        let reg = &mut self.registry;
        match *event {
            Event::PageFault { major, .. } => {
                reg.counter_add(if major { "mm.major_faults" } else { "mm.minor_faults" }, 1);
            }
            Event::Reclaim { freed_pages, scanned, cost_ns } => {
                reg.counter_add("mm.reclaims", 1);
                reg.counter_add("mm.reclaim_freed_pages", freed_pages);
                reg.counter_add("mm.reclaim_scanned_pages", scanned);
                reg.hist_record("mm.reclaim_cost_ns", cost_ns);
            }
            Event::SwapOut { .. } => reg.counter_add("mm.swapouts", 1),
            Event::SwapIn { .. } => reg.counter_add("mm.swapins", 1),
            Event::ThpPromote { chunks, .. } => {
                reg.counter_add("mm.thp_promoted_chunks", chunks)
            }
            Event::ThpDemote { freed_bytes, .. } => {
                reg.counter_add("mm.thp_demoted_bytes", freed_bytes)
            }
            Event::SamplingTick { checks, nr_regions, work_ns } => {
                reg.hist_record(keys::MONITOR_CHECKS_PER_TICK, checks);
                reg.counter_add(keys::MONITOR_WORK_NS, work_ns);
                reg.gauge_set("monitor.nr_regions", nr_regions as f64);
            }
            Event::RegionSplit { .. } => reg.counter_add(keys::MONITOR_SPLITS, 1),
            Event::RegionMerge { .. } => reg.counter_add(keys::MONITOR_MERGES, 1),
            Event::RegionSnapshot { .. } => reg.counter_add("monitor.region_snapshots", 1),
            Event::Aggregation { .. } => reg.counter_add(keys::MONITOR_AGGREGATIONS, 1),
            Event::SchemeMatch { scheme, bytes } => {
                reg.counter_add(&keys::scheme(scheme, "nr_tried"), 1);
                reg.counter_add(&keys::scheme(scheme, "sz_tried"), bytes);
            }
            Event::SchemeApply { scheme, bytes, action: _ } => {
                reg.counter_add(&keys::scheme(scheme, "nr_applied"), 1);
                reg.counter_add(&keys::scheme(scheme, "sz_applied"), bytes);
                reg.hist_record("schemes.apply_bytes", bytes);
            }
            Event::QuotaThrottle { scheme, skipped_bytes } => {
                reg.counter_add(&keys::scheme(scheme, "nr_quota_skips"), 1);
                reg.counter_add(&keys::scheme(scheme, "sz_quota_skipped"), skipped_bytes);
            }
            Event::WatermarkTransition { .. } => {
                reg.counter_add(keys::SCHEMES_WMARK_TRANSITIONS, 1)
            }
            Event::TunerSample { .. } => reg.counter_add("tuner.samples", 1),
            Event::TunerRefit { .. } => reg.counter_add("tuner.refits", 1),
            Event::TunerStep { best_x, best_score } => {
                reg.gauge_set("tuner.best_x", best_x);
                reg.gauge_set("tuner.best_score", best_score);
            }
            // Enter is a pure marker; the duration lands on Exit.
            Event::SpanEnter { .. } => {}
            Event::SpanExit { phase, dur_ns } => {
                reg.hist_record(&keys::span(phase), dur_ns);
            }
        }
    }

    /// Rebuild a collector (registry included) by replaying an event
    /// stream — the offline counterpart of a live run, used by
    /// `daos report` to derive metrics from a parsed trace. The ring is
    /// sized to hold every replayed event, so nothing is dropped.
    pub fn replay(events: &[TimedEvent]) -> Collector {
        #[expect(clippy::expect_used, reason = "capacity is clamped to >= 1 by `max(1)`")]
        let mut c = Collector::builder()
            .ring_capacity(events.len().max(1))
            .build()
            .expect("non-zero capacity");
        for te in events {
            c.record(te.at, te.event);
        }
        c
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    /// Mirror of "a collector is installed", kept in a separate `Cell` so
    /// the `trace!` fast path is one load, no borrow.
    static LIVE: Cell<bool> = const { Cell::new(false) };
}

/// Install `collector` as this thread's event sink. Fails if one is
/// already installed (take it first).
pub fn install(collector: Collector) -> Result<(), TraceError> {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        if slot.is_some() {
            return Err(TraceError::AlreadyInstalled);
        }
        LIVE.with(|l| l.set(true));
        *slot = Some(collector);
        Ok(())
    })
}

/// Remove and return this thread's collector, if any.
pub fn take() -> Option<Collector> {
    LIVE.with(|l| l.set(false));
    COLLECTOR.with(|c| c.borrow_mut().take())
}

/// Fast check used by [`trace!`](crate::trace): true only while a
/// collector is installed on this thread.
#[inline]
pub fn enabled() -> bool {
    LIVE.with(|l| l.get())
}

/// Emit one event into the installed collector (no-op without one).
/// Prefer [`trace!`](crate::trace), which skips argument evaluation when
/// tracing is off.
pub fn emit(at: Ns, event: Event) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.record(at, event);
        }
    });
}

/// Run `f` against the installed collector, if any.
pub fn with_collector<R>(f: impl FnOnce(&Collector) -> R) -> Option<R> {
    COLLECTOR.with(|c| c.borrow().as_ref().map(f))
}

/// Emit a typed event if (and only if) a collector is installed on this
/// thread. The variant expression is written without the
/// `Event::` prefix and is **not evaluated** when tracing is off:
///
/// ```
/// daos_trace::trace!(1_000, RegionSplit { before: 10, after: 20 });
/// ```
#[macro_export]
macro_rules! trace {
    ($at:expr, $($event:tt)+) => {
        if $crate::enabled() {
            $crate::emit($at, $crate::Event::$($event)+);
        }
    };
}

/// Wrap one pipeline phase in a [`SpanEnter`](crate::Event::SpanEnter) /
/// [`SpanExit`](crate::Event::SpanExit) pair. The body expression must
/// evaluate to the phase's **virtual** duration in nanoseconds (the
/// simulated CPU cost it charged); it is *always* evaluated — only the
/// events are gated on [`enabled`] — so instrumented code behaves
/// identically with tracing off. The exit is stamped at `at + dur`, and
/// the macro returns the duration:
///
/// ```
/// let dur = daos_trace::span!(1_000, Aggregate, {
///     let regions = 25u64;
///     regions * 40 // virtual ns of aggregation work
/// });
/// assert_eq!(dur, 1_000);
/// ```
#[macro_export]
macro_rules! span {
    ($at:expr, $phase:ident, $body:expr) => {{
        let __at: u64 = $at;
        let __live = $crate::enabled();
        if __live {
            $crate::emit(__at, $crate::Event::SpanEnter { phase: $crate::Phase::$phase });
        }
        let __dur: u64 = $body;
        if __live {
            $crate::emit(
                __at.saturating_add(__dur),
                $crate::Event::SpanExit { phase: $crate::Phase::$phase, dur_ns: __dur },
            );
        }
        __dur
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_zero_capacity() {
        assert!(matches!(
            Collector::builder().ring_capacity(0).build(),
            Err(TraceError::InvalidCapacity(0))
        ));
    }

    #[test]
    fn install_take_cycle() {
        assert!(take().is_none());
        install(Collector::builder().build().unwrap()).unwrap();
        assert!(enabled());
        let err = install(Collector::builder().build().unwrap());
        assert!(matches!(err, Err(TraceError::AlreadyInstalled)));
        let c = take().expect("collector back");
        assert!(!enabled());
        assert!(c.ring().is_empty());
    }

    #[test]
    fn trace_macro_records_and_mirrors() {
        install(Collector::builder().ring_capacity(4).build().unwrap()).unwrap();
        crate::trace!(5, SamplingTick { checks: 12, nr_regions: 6, work_ns: 480 });
        crate::trace!(6, SamplingTick { checks: 20, nr_regions: 6, work_ns: 800 });
        let c = take().unwrap();
        assert_eq!(c.ring().len(), 2);
        let h = c.registry().hist(keys::MONITOR_CHECKS_PER_TICK).unwrap();
        assert_eq!((h.count(), h.sum(), h.max()), (2, 32, 20));
        assert_eq!(c.registry().counter(keys::MONITOR_WORK_NS), 1280);
    }

    #[test]
    fn span_macro_emits_enter_exit_and_histogram() {
        install(Collector::builder().build().unwrap()).unwrap();
        let dur = crate::span!(100, SchemeApply, 40 + 2);
        assert_eq!(dur, 42);
        let c = take().unwrap();
        let events = c.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            (events[0].at, events[0].event),
            (100, Event::SpanEnter { phase: crate::Phase::SchemeApply })
        );
        assert_eq!(
            (events[1].at, events[1].event),
            (142, Event::SpanExit { phase: crate::Phase::SchemeApply, dur_ns: 42 })
        );
        let h = c.registry().hist(&keys::span(crate::Phase::SchemeApply)).unwrap();
        assert_eq!((h.count(), h.sum()), (1, 42));
    }

    #[test]
    fn span_body_runs_even_when_disabled() {
        // No collector installed at all: the body's side effects (the
        // simulated work) must still happen, but nothing is recorded.
        assert!(take().is_none());
        let mut runs = 0;
        let dur = crate::span!(7, TunerStep, {
            runs += 1;
            9
        });
        assert_eq!(runs, 1, "span body is the actual work — it must always run");
        assert_eq!(dur, 9);
    }

    #[test]
    fn replay_rebuilds_the_registry() {
        install(Collector::builder().build().unwrap()).unwrap();
        crate::trace!(5, SamplingTick { checks: 12, nr_regions: 6, work_ns: 480 });
        crate::trace!(9, SchemeMatch { scheme: 0, bytes: 4096 });
        crate::span!(10, Aggregate, 160);
        let live = take().unwrap();
        let replayed = Collector::replay(&live.events());
        assert_eq!(replayed.registry(), live.registry());
        assert_eq!(replayed.events(), live.events());
        assert_eq!(Collector::replay(&[]).events().len(), 0);
    }

    #[test]
    fn registry_clone_is_independent_of_later_mutation() {
        install(Collector::builder().build().unwrap()).unwrap();
        crate::trace!(1, SamplingTick { checks: 4, nr_regions: 2, work_ns: 160 });
        let snap = with_collector(|c| c.registry().clone()).expect("collector installed");
        // Mutate the live registry after the snapshot was taken…
        crate::trace!(2, SamplingTick { checks: 8, nr_regions: 2, work_ns: 320 });
        crate::trace!(3, SchemeMatch { scheme: 0, bytes: 4096 });
        let live = take().unwrap();
        // …the snapshot must still show the pre-mutation state.
        assert_eq!(snap.counter(keys::MONITOR_WORK_NS), 160);
        assert_eq!(snap.hist(keys::MONITOR_CHECKS_PER_TICK).unwrap().count(), 1);
        assert_eq!(snap.counter(&keys::scheme(0, "nr_tried")), 0);
        assert_eq!(live.registry().counter(keys::MONITOR_WORK_NS), 480);
        // The snapshot is an owned value: moving it across threads works.
        let moved = std::thread::spawn(move || snap.counter(keys::MONITOR_WORK_NS))
            .join()
            .unwrap();
        assert_eq!(moved, 160);
        assert!(with_collector(|c| c.registry().clone()).is_none(), "no collector, no snapshot");
    }

    #[test]
    fn trace_arguments_are_not_evaluated_without_a_collector() {
        assert!(take().is_none());
        assert!(!enabled(), "no collector must not arm the fast path");
        let mut evaluated = false;
        crate::trace!(1, PageFault { pid: 1, addr: { evaluated = true; 0x1000 }, major: false });
        assert!(!evaluated, "event arguments must not be evaluated when tracing is off");
    }
}
