//! The wire inventory (DESIGN §7): every type that still has a JSON
//! codec has one because a shipped tool writes or reads it, and each is
//! round-tripped here through the textual form — serialise, re-parse,
//! decode, serialise again — so the tests pin the wire format, not just
//! the in-memory conversion. The four encodings the perf ledger hashes
//! into `sim_digest` are additionally pinned byte for byte.

use daos::heatmap::Heatmap;
use daos_mm::addr::AddrRange;
use daos_mm::clock::{ms, sec};
use daos_mm::stats::{KernelStats, ProcStats};
use daos_monitor::{Aggregation, MonitorRecord, OverheadStats, RegionInfo};
use daos_obs::{ObsSnapshot, QueryResult};
use daos_report::{scheme_timelines, WssTimeline};
use daos_schemes::stats::SchemeStats;
use daos_trace::{ActionTag, Collector, Event, Phase, Registry, SamplePhase, TimedEvent};
use daos_util::json::{self, FromJson, ToJson};

/// Serialise → parse the text → decode → serialise: the text is a fixed
/// point. Returns the decoded value for `PartialEq` types to compare.
fn rt<T: ToJson + FromJson>(v: &T) -> T {
    let text = v.to_json().to_string_compact();
    let parsed = json::parse(&text).unwrap_or_else(|e| panic!("parse {text}: {e}"));
    let back = T::from_json(&parsed).unwrap_or_else(|e| panic!("decode {text}: {e}"));
    assert_eq!(text, back.to_json().to_string_compact(), "round trip drifted");
    back
}

fn proc_stats() -> ProcStats {
    ProcStats {
        minor_faults: 1,
        major_faults: 2,
        swapouts: 3,
        swapins: 4,
        compute_ns: 5,
        access_ns: 6,
        stall_ns: 7,
        monitor_interference_ns: 8,
        peak_rss_bytes: 9,
        // Larger than u64::MAX: must survive as a decimal string.
        rss_time_integral: (u64::MAX as u128) * 1000,
        thp_promotions: 11,
        thp_demotions: 12,
    }
}

fn kernel_stats() -> KernelStats {
    KernelStats {
        monitor_ns: 1,
        schemes_ns: 2,
        reclaim_ns: 3,
        swap_write_ns: 4,
        pressure_reclaims: 5,
        damos_pageouts: 6,
    }
}

fn overhead_stats() -> OverheadStats {
    OverheadStats {
        total_checks: 1,
        max_checks_per_tick: 2,
        nr_ticks: 3,
        nr_aggregations: 4,
        work_ns: 5,
    }
}

fn scheme_stats() -> SchemeStats {
    SchemeStats { nr_tried: 1, sz_tried: 2, nr_applied: 3, sz_applied: 4, nr_quota_skips: 5 }
}

fn window(at: u64) -> Aggregation {
    Aggregation {
        at,
        regions: vec![
            RegionInfo { range: AddrRange::new(0, 1 << 20), nr_accesses: 19, age: 3 },
            RegionInfo { range: AddrRange::new(1 << 20, 4 << 20), nr_accesses: 0, age: 9 },
        ],
        max_nr_accesses: 20,
        aggregation_interval: ms(100),
    }
}

/// The ledger's `sim_digest` is a hash over exactly these four texts
/// (`crates/daos-bench/src/bin/ledger/src/adapter.rs`): field order and
/// the `u128`-as-string rule are behaviour, and a reordered
/// `json_struct!` list must fail here, not in verify.sh's digest step.
#[test]
fn ledger_digest_inputs_are_byte_pinned() {
    assert_eq!(
        proc_stats().to_json().to_string_compact(),
        "{\"minor_faults\":1,\"major_faults\":2,\"swapouts\":3,\"swapins\":4,\"compute_ns\":5,\
         \"access_ns\":6,\"stall_ns\":7,\"monitor_interference_ns\":8,\"peak_rss_bytes\":9,\
         \"rss_time_integral\":\"18446744073709551615000\",\"thp_promotions\":11,\
         \"thp_demotions\":12}"
    );
    assert_eq!(
        kernel_stats().to_json().to_string_compact(),
        "{\"monitor_ns\":1,\"schemes_ns\":2,\"reclaim_ns\":3,\"swap_write_ns\":4,\
         \"pressure_reclaims\":5,\"damos_pageouts\":6}"
    );
    assert_eq!(
        overhead_stats().to_json().to_string_compact(),
        "{\"total_checks\":1,\"max_checks_per_tick\":2,\"nr_ticks\":3,\"nr_aggregations\":4,\
         \"work_ns\":5}"
    );
    assert_eq!(
        scheme_stats().to_json().to_string_compact(),
        "{\"nr_tried\":1,\"sz_tried\":2,\"nr_applied\":3,\"sz_applied\":4,\"nr_quota_skips\":5}"
    );
}

#[test]
fn stats_types() {
    assert_eq!(rt(&proc_stats()), proc_stats());
    assert_eq!(rt(&kernel_stats()), kernel_stats());
    assert_eq!(rt(&overhead_stats()), overhead_stats());
    assert_eq!(rt(&scheme_stats()), scheme_stats());
}

/// `AddrRange` / `RegionInfo` / `Aggregation`: the `last_window` of a
/// `/snapshot` body.
#[test]
fn snapshot_window_types() {
    let range = AddrRange::new(0x7f00_0000_0000, 0x7f00_4000_0000);
    assert_eq!(rt(&range), range);
    // Full-width addresses must survive exactly (the u64 JSON lane).
    let full = AddrRange::new(0, u64::MAX);
    assert_eq!(rt(&full), full);
    let info = RegionInfo { range, nr_accesses: u32::MAX, age: 3 };
    assert_eq!(rt(&info), info);
    assert_eq!(rt(&window(sec(1))), window(sec(1)));
}

/// Every `Event` variant and tag enum, as a trace/record line and as an
/// `/events` line; `Registry` / `Histogram` as the trace trailer.
#[test]
fn trace_types() {
    let events = [
        Event::PageFault { pid: 1, addr: u64::MAX, major: true },
        Event::Reclaim { freed_pages: 1, scanned: 2, cost_ns: 3 },
        Event::SwapOut { pid: 1, addr: 4096 },
        Event::SwapIn { pid: 1, addr: 4096 },
        Event::ThpPromote { pid: 1, chunks: 2 },
        Event::ThpDemote { pid: 1, freed_bytes: 2 << 20 },
        Event::SamplingTick { checks: 40, nr_regions: 20, work_ns: 1600 },
        Event::RegionSplit { before: 10, after: 20 },
        Event::RegionMerge { before: 20, after: 12 },
        Event::Aggregation { nr_regions: 12, window_ns: ms(100), max_nr_accesses: 20 },
        Event::RegionSnapshot { start: 0, end: 4096, nr_accesses: 20, age: 1 },
        Event::SchemeMatch { scheme: 0, bytes: 4096 },
        Event::SchemeApply { scheme: 0, action: ActionTag::Pageout, bytes: 4096 },
        Event::QuotaThrottle { scheme: 0, skipped_bytes: 8192 },
        Event::WatermarkTransition { scheme: 1, active: true, metric_permille: 400 },
        Event::TunerSample { x: 1.5, score: -0.25, phase: SamplePhase::Global },
        Event::TunerSample { x: 2.0, score: 1e-9, phase: SamplePhase::Local },
        Event::TunerRefit { degree: 3, nr_samples: 10 },
        Event::TunerStep { best_x: 12.5, best_score: 8.0 },
    ];
    let spans = Phase::ALL.iter().flat_map(|&phase| {
        [Event::SpanEnter { phase }, Event::SpanExit { phase, dur_ns: 40 }]
    });
    let mut replayed = Vec::new();
    for (at, event) in events.into_iter().chain(spans).enumerate() {
        let te = TimedEvent { at: at as u64, event };
        assert_eq!(rt(&te), te);
        replayed.push(te);
    }
    for action in [
        ActionTag::Stat,
        ActionTag::Pageout,
        ActionTag::Hugepage,
        ActionTag::Nohugepage,
        ActionTag::Cold,
        ActionTag::Willneed,
        ActionTag::LruPrio,
        ActionTag::LruDeprio,
    ] {
        let te = TimedEvent { at: 0, event: Event::SchemeApply { scheme: 7, action, bytes: 1 } };
        assert_eq!(rt(&te), te);
    }
    // Counters, gauges and histograms all populated by the replay.
    let collector = Collector::replay(&replayed);
    let registry: &Registry = collector.registry();
    assert!(registry.counters().count() > 0 && registry.hists().count() > 0);
    assert_eq!(&rt(registry), registry);
}

/// `/snapshot` and `/query` bodies.
#[test]
fn obs_types() {
    let mut registry = Registry::new();
    registry.counter_add("monitor.work_ns", 1234);
    registry.gauge_set("tuner.best_x", 2.5);
    registry.hist_record("span.sample_ns", 400);
    let snap = ObsSnapshot {
        seq: 3,
        config: "prcl".into(),
        workload: "parsec3/freqmine".into(),
        machine: "i3.metal".into(),
        epoch: 41,
        nr_epochs: 7300,
        now_ns: sec(4),
        wss_bytes: 1 << 30,
        peak_rss_bytes: 2 << 30,
        avg_rss_bytes: 1 << 29,
        last_window: Some(window(sec(4))),
        schemes: vec![scheme_stats()],
        overhead: Some(overhead_stats()),
        registry,
        dropped_events: 5,
        finished: true,
    };
    assert_eq!(rt(&snap), snap);
    assert_eq!(rt(&ObsSnapshot::default()), ObsSnapshot::default());
    let answer = QueryResult {
        metric: "daos_obs_wss_bytes".into(),
        points: vec![(sec(1), 1048576.0), (sec(2), 0.5)],
    };
    assert_eq!(rt(&answer), answer);
}

/// `daos report --json` bodies: heatmap, wss, schemes.
#[test]
fn report_types() {
    let mut rec = MonitorRecord::new();
    for t in 1..=4u64 {
        rec.push(Aggregation {
            at: sec(t),
            regions: vec![RegionInfo {
                range: AddrRange::new(0, 8 << 20),
                nr_accesses: (t % 3) as u32,
                age: 1,
            }],
            max_nr_accesses: 3,
            aggregation_interval: ms(100),
        });
    }
    // Heatmap has no PartialEq: the text fixed point is the check.
    let hm = Heatmap::from_record(&rec, AddrRange::new(0, 8 << 20), 4, 4).unwrap();
    rt(&hm);
    let wss = WssTimeline::from_record(&rec);
    assert_eq!(rt(&wss), wss);
    let timelines = scheme_timelines(&[
        TimedEvent {
            at: 100,
            event: Event::WatermarkTransition { scheme: 0, active: true, metric_permille: 400 },
        },
        TimedEvent { at: 100, event: Event::SchemeMatch { scheme: 0, bytes: 4096 } },
        TimedEvent {
            at: 100,
            event: Event::SchemeApply { scheme: 0, action: ActionTag::Pageout, bytes: 4096 },
        },
        TimedEvent { at: 200, event: Event::QuotaThrottle { scheme: 1, skipped_bytes: 8192 } },
    ]);
    assert_eq!(timelines.len(), 2);
    assert_eq!(rt(&timelines), timelines);
}

/// `daos-lint --json`: written, never read back — pin the text.
#[test]
fn lint_finding() {
    let finding = daos_lint::Finding::new("dead-pub", "crates/x/src/lib.rs", 7, "say \"why\"".into());
    assert_eq!(
        finding.to_json().to_string_compact(),
        "{\"lint\":\"dead-pub\",\"file\":\"crates/x/src/lib.rs\",\"line\":7,\
         \"message\":\"say \\\"why\\\"\"}"
    );
}
