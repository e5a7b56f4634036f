//! The event taxonomy: one typed variant per tracepoint, grouped by the
//! layer that emits it. Events are plain `Copy` data — no strings, no
//! allocation on the emit path — and encode to JSON as the workspace's
//! usual `{"Variant": {fields...}}` tagged objects.

use daos_util::json::{self, FromJson, Json, JsonError, ToJson};
use daos_util::json_enum;

/// Virtual nanoseconds (mirrors `daos_mm::Ns` without depending on it —
/// `daos-trace` sits below every simulation crate).
pub type Ns = u64;

/// Process identifier (mirrors `daos_mm::Pid`).
pub type Pid = u32;

/// Which layer of the stack emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Memory-management core: faults, reclaim, THP, swap.
    Mm,
    /// Access monitor: sampling ticks, region split/merge, aggregation.
    Monitor,
    /// Operation schemes engine: applies, quotas, watermarks.
    Schemes,
    /// Auto-tuner: samples, refits, final step.
    Tuner,
}

/// DAMOS action tag carried by [`Event::SchemeApply`]. Mirrors
/// `daos_schemes::Action` variant-for-variant; the schemes crate maps
/// into this when emitting (trace sits below it in the crate DAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionTag {
    /// Count only (`stat`).
    Stat,
    /// Reclaim the region (`pageout`).
    Pageout,
    /// Promote to huge pages (`hugepage`).
    Hugepage,
    /// Demote huge pages (`nohugepage`).
    Nohugepage,
    /// Deactivate toward the LRU tail (`cold`).
    Cold,
    /// Pre-fault / swap in (`willneed`).
    Willneed,
    /// Move to the active LRU (`lru_prio`).
    LruPrio,
    /// Move to the inactive LRU (`lru_deprio`).
    LruDeprio,
}

json_enum!(ActionTag {
    Stat, Pageout, Hugepage, Nohugepage, Cold, Willneed, LruPrio, LruDeprio
});

/// Which tuner phase produced a [`Event::TunerSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplePhase {
    /// Stratified sweep over the full parameter range.
    Global,
    /// Refinement around the current best.
    Local,
}

json_enum!(SamplePhase { Global, Local });

/// One of the five monitoring-pipeline phases a span can cover. Spans
/// carry **virtual** durations (the simulated CPU cost the phase
/// charged), so `report profile` is exactly as deterministic as the run
/// it profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Young-bit evaluation + next-sample preparation of one tick.
    Sample,
    /// Merge-with-aging, snapshot delivery and counter reset at an
    /// aggregation boundary.
    Aggregate,
    /// Adaptive region split after an aggregation boundary.
    SplitMerge,
    /// One schemes-engine pass over an aggregation window.
    SchemeApply,
    /// One complete auto-tuning procedure (sampling + fit + peak).
    TunerStep,
}

json_enum!(Phase { Sample, Aggregate, SplitMerge, SchemeApply, TunerStep });

impl Phase {
    /// All phases, in pipeline order (stable for reports).
    pub const ALL: [Phase; 5] =
        [Phase::Sample, Phase::Aggregate, Phase::SplitMerge, Phase::SchemeApply, Phase::TunerStep];

    /// The dotted-key fragment used for this phase's registry metrics
    /// (`span.sample_ns`, `span.scheme_apply_ns`, ...).
    pub fn key_name(&self) -> &'static str {
        match self {
            Phase::Sample => "sample",
            Phase::Aggregate => "aggregate",
            Phase::SplitMerge => "split_merge",
            Phase::SchemeApply => "scheme_apply",
            Phase::TunerStep => "tuner_step",
        }
    }

    /// The layer whose pipeline this phase belongs to.
    pub fn layer(&self) -> Layer {
        match self {
            Phase::Sample | Phase::Aggregate | Phase::SplitMerge => Layer::Monitor,
            Phase::SchemeApply => Layer::Schemes,
            Phase::TunerStep => Layer::Tuner,
        }
    }
}

/// Defines [`Event`] plus its name/encode/decode plumbing in one place
/// so adding a tracepoint is a one-line change.
macro_rules! events {
    ($($(#[$meta:meta])* $variant:ident { $($field:ident : $ty:ty),* $(,)? }),+ $(,)?) => {
        /// A typed tracepoint event. See [`Layer`] for the grouping.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Event {
            $($(#[$meta])* $variant { $($field: $ty),* },)+
        }

        impl Event {
            /// The variant name (also the JSON tag).
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => stringify!($variant),)+
                }
            }
        }

        impl ToJson for Event {
            fn to_json(&self) -> Json {
                match self {
                    $(Event::$variant { $($field),* } => json::tagged(
                        stringify!($variant),
                        Json::Object(vec![
                            $((stringify!($field).to_string(), $field.to_json()),)*
                        ]),
                    ),)+
                }
            }
        }

        impl FromJson for Event {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let (tag, payload) = json::untag(v)?;
                match tag {
                    $(stringify!($variant) => Ok(Event::$variant {
                        $($field: payload.field(stringify!($field))?,)*
                    }),)+
                    other => Err(JsonError::msg(format!("unknown event '{other}'"))),
                }
            }
        }
    };
}

events! {
    // ---- mm ----
    /// A page fault was serviced (`major` = swap-in was required).
    PageFault { pid: Pid, addr: u64, major: bool },
    /// One pressure-reclaim batch (second-chance LRU scan).
    Reclaim { freed_pages: u64, scanned: u64, cost_ns: Ns },
    /// A resident page was unmapped to swap.
    SwapOut { pid: Pid, addr: u64 },
    /// A swapped page was brought back by a major fault.
    SwapIn { pid: Pid, addr: u64 },
    /// Huge-page promotion over a range (`chunks` 2 MiB chunks collapsed).
    ThpPromote { pid: Pid, chunks: u64 },
    /// Huge-page demotion (split); `freed_bytes` of bloat returned.
    ThpDemote { pid: Pid, freed_bytes: u64 },

    // ---- monitor ----
    /// One sampling tick: `checks` young-bit checks over `nr_regions`
    /// regions, costing `work_ns` of kernel time.
    SamplingTick { checks: u64, nr_regions: u64, work_ns: Ns },
    /// Adaptive split pass changed the region count.
    RegionSplit { before: u64, after: u64 },
    /// Merge pass (with aging) changed the region count.
    RegionMerge { before: u64, after: u64 },
    /// One region of an aggregation snapshot. A full window is the run
    /// of `RegionSnapshot` events since the previous [`Self::Aggregation`],
    /// committed by the `Aggregation` event that follows them — together
    /// they make the JSONL trace a faithful replay source for the
    /// Fig. 6 heatmap / WSS tooling.
    RegionSnapshot { start: u64, end: u64, nr_accesses: u64, age: u64 },
    /// An aggregation window closed with `nr_regions` snapshot regions
    /// (the commit marker for the preceding `RegionSnapshot` run).
    Aggregation { nr_regions: u64, window_ns: Ns, max_nr_accesses: u64 },

    // ---- schemes ----
    /// A scheme's predicate matched a region (counted as "tried").
    SchemeMatch { scheme: u32, bytes: u64 },
    /// A scheme action was applied to `bytes` of a matched region.
    SchemeApply { scheme: u32, action: ActionTag, bytes: u64 },
    /// A matched region was skipped because the quota was exhausted.
    QuotaThrottle { scheme: u32, skipped_bytes: u64 },
    /// The watermark state machine changed activation.
    WatermarkTransition { scheme: u32, active: bool, metric_permille: u64 },

    // ---- tuner ----
    /// One objective evaluation at `x`.
    TunerSample { x: f64, score: f64, phase: SamplePhase },
    /// The surrogate polynomial was refit over `nr_samples` points.
    TunerRefit { degree: u64, nr_samples: u64 },
    /// The tuner committed its final answer.
    TunerStep { best_x: f64, best_score: f64 },

    // ---- spans (cross-layer; see [`Phase`]) ----
    /// A pipeline phase began (paired with the next `SpanExit` of the
    /// same phase; emitted by [`span!`](crate::span)).
    SpanEnter { phase: Phase },
    /// A pipeline phase finished after `dur_ns` of virtual work.
    SpanExit { phase: Phase, dur_ns: Ns },
}

impl Event {
    /// The layer that emits this event.
    pub fn layer(&self) -> Layer {
        use Event::*;
        match self {
            PageFault { .. } | Reclaim { .. } | SwapOut { .. } | SwapIn { .. }
            | ThpPromote { .. } | ThpDemote { .. } => Layer::Mm,
            SamplingTick { .. } | RegionSplit { .. } | RegionMerge { .. }
            | RegionSnapshot { .. } | Aggregation { .. } => Layer::Monitor,
            SchemeMatch { .. } | SchemeApply { .. } | QuotaThrottle { .. }
            | WatermarkTransition { .. } => Layer::Schemes,
            TunerSample { .. } | TunerRefit { .. } | TunerStep { .. } => Layer::Tuner,
            SpanEnter { phase } | SpanExit { phase, .. } => phase.layer(),
        }
    }
}

/// An [`Event`] stamped with the virtual time it was emitted at. This is
/// what the ring buffer stores and the JSONL exporter writes, one object
/// per line: `{"at":12345,"event":{"PageFault":{...}}}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Virtual time of emission (tuner events use the sample ordinal).
    pub at: Ns,
    /// The event payload.
    pub event: Event,
}

daos_util::json_struct!(TimedEvent { at, event });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_matches_json_tag() {
        let e = Event::RegionSplit { before: 10, after: 20 };
        let v = e.to_json();
        let (tag, _) = json::untag(&v).unwrap();
        assert_eq!(tag, e.name());
    }

    #[test]
    fn layer_covers_all_variants() {
        let samples = [
            (Event::PageFault { pid: 1, addr: 0x1000, major: true }, Layer::Mm),
            (Event::SamplingTick { checks: 7, nr_regions: 3, work_ns: 9 }, Layer::Monitor),
            (
                Event::SchemeApply { scheme: 0, action: ActionTag::Pageout, bytes: 4096 },
                Layer::Schemes,
            ),
            (
                Event::TunerSample { x: 0.5, score: 1.25, phase: SamplePhase::Local },
                Layer::Tuner,
            ),
            (
                Event::RegionSnapshot { start: 0, end: 4096, nr_accesses: 3, age: 1 },
                Layer::Monitor,
            ),
            (Event::SpanEnter { phase: Phase::Sample }, Layer::Monitor),
            (Event::SpanExit { phase: Phase::SchemeApply, dur_ns: 9 }, Layer::Schemes),
            (Event::SpanExit { phase: Phase::TunerStep, dur_ns: 9 }, Layer::Tuner),
        ];
        for (e, l) in samples {
            assert_eq!(e.layer(), l);
        }
    }

    #[test]
    fn timed_event_roundtrips_exactly() {
        let te = TimedEvent {
            at: u64::MAX,
            event: Event::PageFault { pid: 7, addr: u64::MAX - 1, major: false },
        };
        let text = te.to_json().to_string_compact();
        let back = TimedEvent::from_json(&daos_util::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, te, "u64 fields must survive the text roundtrip exactly");
    }

    #[test]
    fn unknown_tag_is_a_typed_error() {
        let v = json::tagged("NotAnEvent", Json::Object(vec![]));
        assert!(Event::from_json(&v).is_err());
    }
}
