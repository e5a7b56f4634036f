//! A `MonitorRecord` as trace events, and back.
//!
//! The monitor streams each aggregation window into the trace as a run
//! of `RegionSnapshot` events followed by one `Aggregation` commit event
//! carrying the expected region count. A window is accepted only when
//! the pending snapshot run matches that count exactly — a ring that
//! overwrote part of a window (or its commit) yields a *discarded*
//! window rather than a silently corrupted one. `daos record` writes
//! its (never-dropping) in-memory record through [`record_to_events`],
//! so a record file and a trace export are one format with one reader.

use daos_mm::addr::AddrRange;
use daos_monitor::{Aggregation, MonitorRecord, RegionInfo};
use daos_trace::{Event, TimedEvent, TraceDoc};

/// Rebuild the record from an event stream. Partial windows (snapshot
/// runs whose commit count does not match, e.g. because the ring dropped
/// events) are discarded.
pub fn record_from_events(events: &[TimedEvent]) -> MonitorRecord {
    let mut record = MonitorRecord::new();
    let mut pending: Vec<RegionInfo> = Vec::new();
    for te in events {
        match te.event {
            Event::RegionSnapshot { start, end, nr_accesses, age } => {
                pending.push(RegionInfo {
                    range: AddrRange::new(start, end),
                    nr_accesses: nr_accesses as u32,
                    age: age as u32,
                });
            }
            Event::Aggregation { nr_regions, window_ns, max_nr_accesses } => {
                if pending.len() as u64 == nr_regions {
                    record.push(Aggregation {
                        at: te.at,
                        regions: std::mem::take(&mut pending),
                        max_nr_accesses: max_nr_accesses as u32,
                        aggregation_interval: window_ns,
                    });
                } else {
                    pending.clear();
                }
            }
            _ => {}
        }
    }
    record
}

/// The inverse of [`record_from_events`]: each window as the monitor
/// streams it, a `RegionSnapshot` per region then the `Aggregation`
/// commit.
pub fn record_to_events(record: &MonitorRecord) -> Vec<TimedEvent> {
    let mut events = Vec::new();
    for agg in &record.aggregations {
        events.extend(agg.regions.iter().map(|r| TimedEvent {
            at: agg.at,
            event: Event::RegionSnapshot {
                start: r.range.start,
                end: r.range.end,
                nr_accesses: r.nr_accesses as u64,
                age: r.age as u64,
            },
        }));
        events.push(TimedEvent {
            at: agg.at,
            event: Event::Aggregation {
                nr_regions: agg.regions.len() as u64,
                window_ns: agg.aggregation_interval,
                max_nr_accesses: agg.max_nr_accesses as u64,
            },
        });
    }
    events
}

/// [`record_from_events`] over a parsed export document.
pub fn record_from_doc(doc: &TraceDoc) -> MonitorRecord {
    record_from_events(&doc.events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at: u64, start: u64, end: u64, nr: u64) -> TimedEvent {
        TimedEvent {
            at,
            event: Event::RegionSnapshot { start, end, nr_accesses: nr, age: 1 },
        }
    }

    fn commit(at: u64, nr_regions: u64) -> TimedEvent {
        TimedEvent {
            at,
            event: Event::Aggregation { nr_regions, window_ns: 100, max_nr_accesses: 20 },
        }
    }

    #[test]
    fn windows_group_between_commits() {
        let events = vec![
            snap(100, 0, 4096, 3),
            snap(100, 4096, 8192, 0),
            commit(100, 2),
            snap(200, 0, 8192, 5),
            commit(200, 1),
        ];
        let rec = record_from_events(&events);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.aggregations[0].at, 100);
        assert_eq!(rec.aggregations[0].regions.len(), 2);
        assert_eq!(rec.aggregations[0].max_nr_accesses, 20);
        assert_eq!(rec.aggregations[0].aggregation_interval, 100);
        assert_eq!(rec.aggregations[1].regions[0].nr_accesses, 5);
    }

    #[test]
    fn partial_window_is_discarded_not_corrupted() {
        // The ring dropped one snapshot of the first window: its commit
        // expects 2 regions but only 1 survived → window discarded, and
        // the next (complete) window is unaffected.
        let events = vec![
            snap(100, 4096, 8192, 0),
            commit(100, 2),
            snap(200, 0, 8192, 5),
            commit(200, 1),
        ];
        let rec = record_from_events(&events);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.aggregations[0].at, 200);
    }

    #[test]
    fn dropped_commit_cannot_merge_two_windows() {
        // Window A's commit was overwritten; its snapshots must not leak
        // into window B (B's count won't match either → both discarded).
        let events = vec![
            snap(100, 0, 4096, 1),
            snap(200, 0, 8192, 5),
            commit(200, 1),
            snap(300, 0, 8192, 7),
            commit(300, 1),
        ];
        let rec = record_from_events(&events);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.aggregations[0].at, 300);
    }

    #[test]
    fn unrelated_events_do_not_disturb_grouping() {
        let events = vec![
            snap(100, 0, 4096, 3),
            TimedEvent {
                at: 100,
                event: Event::SamplingTick { checks: 4, nr_regions: 1, work_ns: 160 },
            },
            snap(100, 4096, 8192, 0),
            commit(100, 2),
        ];
        assert_eq!(record_from_events(&events).len(), 1);
    }

    #[test]
    fn empty_stream_gives_empty_record() {
        assert!(record_from_events(&[]).is_empty());
    }
}
