//! JSONL export/import of event logs, built on `daos_util::json`. One
//! `TimedEvent` object per line; `#`-prefixed header lines carry run
//! metadata. A `daos record` file is the same format with neither
//! header nor trailer — only the monitor-window events.

use crate::collector::Collector;
use crate::event::TimedEvent;
use crate::metrics::Registry;
use crate::TraceError;
use daos_util::json::{self, FromJson, Json, JsonError, ToJson};

/// Encode events as JSONL, one object per line (trailing newline).
pub fn events_to_jsonl<'a>(events: impl IntoIterator<Item = &'a TimedEvent>) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json().to_string_compact());
        out.push('\n');
    }
    out
}

/// Render a collector's full state as a self-describing JSONL document:
/// a `#` header with ring occupancy and drop count, the event stream,
/// and a final `#`-prefixed metrics snapshot. The whole document feeds
/// back through [`parse_export`] unchanged.
pub fn export_collector(c: &Collector) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# daos-trace v1: {} events, {} dropped (ring capacity {})\n",
        c.ring().len(),
        c.ring().dropped(),
        c.ring().capacity(),
    ));
    out.push_str(&events_to_jsonl(c.ring().iter()));
    // The trailer is the registry object with the ring's drop accounting
    // appended as sibling keys, so a consumer holding only the trailer
    // can still tell whether the recording is complete.
    #[expect(clippy::unreachable, reason = "Registry::to_json builds Json::Object unconditionally")]
    let Json::Object(mut fields) = c.registry().to_json() else {
        unreachable!("Registry::to_json is always an object")
    };
    fields.push(("dropped_events".into(), c.ring().dropped().to_json()));
    fields.push(("ring_capacity".into(), (c.ring().capacity() as u64).to_json()));
    out.push_str(&format!("# metrics: {}\n", Json::Object(fields).to_string_compact()));
    out
}

/// A parsed export document: the structured form of what
/// [`export_collector`] wrote, used by `daos report` to analyse a
/// recording offline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDoc {
    /// Events surviving in the ring at export time, oldest first.
    pub events: Vec<TimedEvent>,
    /// Events the ring overwrote before export (from the header; 0 in a
    /// complete recording).
    pub dropped: u64,
    /// Ring capacity the recording ran with (from the header).
    pub ring_capacity: u64,
    /// The exporter's metrics trailer, if present. This is the *live*
    /// registry — on a drop-free recording it equals a
    /// [`Collector::replay`] of `events`, and `report summary` uses that
    /// comparison as a corruption check.
    pub metrics: Option<Registry>,
}

impl TraceDoc {
    /// True when the ring never overwrote an event — every emitted event
    /// is present and derived views are exact.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }
}

/// Parse a full export document: the `# daos-trace v1:` header, the
/// event stream, and the `# metrics:` trailer. Header and trailer are
/// optional (a bare JSONL event log parses with zeroed accounting and no
/// metrics) so hand-trimmed traces remain readable.
pub fn parse_export(text: &str) -> Result<TraceDoc, TraceError> {
    let mut doc = TraceDoc { events: Vec::new(), dropped: 0, ring_capacity: 0, metrics: None };
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# daos-trace v1:") {
            let (dropped, capacity) = parse_header_counts(rest)
                .ok_or_else(|| bad_line(lineno, "malformed header"))?;
            doc.dropped = dropped;
            doc.ring_capacity = capacity;
        } else if let Some(rest) = line.strip_prefix("# metrics:") {
            let v = json::parse(rest.trim()).map_err(TraceError::from)?;
            doc.metrics = Some(Registry::from_json(&v)?);
        } else if line.starts_with('#') {
            continue;
        } else {
            let v = json::parse(line).map_err(TraceError::from)?;
            doc.events.push(TimedEvent::from_json(&v)?);
        }
    }
    Ok(doc)
}

/// Pull `(dropped, ring_capacity)` out of the header tail
/// `" N events, D dropped (ring capacity C)"`.
fn parse_header_counts(rest: &str) -> Option<(u64, u64)> {
    let (_, after_events) = rest.split_once(" events, ")?;
    let (dropped, after_dropped) = after_events.split_once(" dropped")?;
    let capacity = after_dropped
        .trim()
        .strip_prefix("(ring capacity ")?
        .strip_suffix(')')?;
    Some((dropped.trim().parse().ok()?, capacity.parse().ok()?))
}

fn bad_line(lineno: usize, what: &str) -> TraceError {
    TraceError::Json(JsonError::msg(format!("line {}: {what}", lineno + 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ActionTag, Event};

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent { at: 0, event: Event::PageFault { pid: 1, addr: 0x7f00_0000, major: true } },
            TimedEvent { at: 100, event: Event::SamplingTick { checks: 40, nr_regions: 20, work_ns: 1600 } },
            TimedEvent {
                at: 200,
                event: Event::SchemeApply { scheme: 0, action: ActionTag::Pageout, bytes: 1 << 21 },
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip() {
        let events = sample_events();
        let text = events_to_jsonl(&events);
        assert_eq!(text.lines().count(), 3);
        let back = parse_export(&text).unwrap().events;
        assert_eq!(back, events);
    }

    #[test]
    fn export_document_reparses() {
        let mut c = Collector::builder().ring_capacity(16).build().unwrap();
        for e in sample_events() {
            c.record(e.at, e.event);
        }
        let doc = export_collector(&c);
        assert!(doc.starts_with("# daos-trace v1: 3 events"));
        let back = parse_export(&doc).unwrap().events;
        assert_eq!(back, c.events(), "header/metrics comments must not disturb re-parse");
    }

    #[test]
    fn bad_line_is_a_typed_error() {
        let err = parse_export("{\"at\":1,\"event\":{\"Nope\":{}}}\n").unwrap_err();
        assert!(err.to_string().contains("unknown event"));
    }

    #[test]
    fn parse_export_recovers_events_metrics_and_accounting() {
        let mut c = Collector::builder().ring_capacity(2).build().unwrap();
        for e in sample_events() {
            c.record(e.at, e.event); // capacity 2 < 3 events → 1 drop
        }
        let doc = parse_export(&export_collector(&c)).unwrap();
        assert_eq!(doc.events, c.events());
        assert_eq!(doc.dropped, 1);
        assert_eq!(doc.ring_capacity, 2);
        assert!(!doc.is_complete());
        assert_eq!(doc.metrics.as_ref(), Some(c.registry()));
    }

    #[test]
    fn parse_export_replay_matches_trailer_when_complete() {
        let mut c = Collector::builder().ring_capacity(16).build().unwrap();
        for e in sample_events() {
            c.record(e.at, e.event);
        }
        let doc = parse_export(&export_collector(&c)).unwrap();
        assert!(doc.is_complete());
        let replayed = Collector::replay(&doc.events);
        assert_eq!(Some(replayed.registry()), doc.metrics.as_ref());
    }

    #[test]
    fn parse_export_accepts_bare_jsonl() {
        let text = events_to_jsonl(&sample_events());
        let doc = parse_export(&text).unwrap();
        assert_eq!(doc.events.len(), 3);
        assert_eq!((doc.dropped, doc.ring_capacity), (0, 0));
        assert!(doc.metrics.is_none());
    }

    #[test]
    fn parse_export_rejects_garbled_header() {
        let err = parse_export("# daos-trace v1: what even is this\n").unwrap_err();
        assert!(err.to_string().contains("malformed header"), "{err}");
    }
}
