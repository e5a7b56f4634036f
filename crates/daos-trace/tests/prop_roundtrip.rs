//! Property test: every trace event survives a JSONL encode/decode
//! round-trip exactly — including full-width `u64` addresses (the
//! reason `daos_util::json` keeps a dedicated unsigned lane).

use daos_trace::{
    events_to_jsonl, parse_export, ActionTag, Event, Phase, SamplePhase, TimedEvent,
};
use daos_util::prop::{any_bool, fuzz_bytes, select, vec_of};
use daos_util::{prop_assert, prop_assert_eq, proptest};

const ACTIONS: [ActionTag; 8] = [
    ActionTag::Stat,
    ActionTag::Pageout,
    ActionTag::Hugepage,
    ActionTag::Nohugepage,
    ActionTag::Cold,
    ActionTag::Willneed,
    ActionTag::LruPrio,
    ActionTag::LruDeprio,
];

/// Deterministically build one of the 20 event variants from raw draws.
fn build_event(kind: usize, a: u64, b: u64) -> Event {
    let pid = (a % 10_000) as u32;
    let scheme = (a % 8) as u32;
    let action = ACTIONS[(b % 8) as usize];
    let flag = a & 1 == 0;
    let phase = if flag { SamplePhase::Global } else { SamplePhase::Local };
    let span_phase = Phase::ALL[(a % 5) as usize];
    let x = a as f64 * 1e-3;
    let y = b as f64 * 1e-3;
    match kind {
        0 => Event::PageFault { pid, addr: b, major: flag },
        1 => Event::Reclaim { freed_pages: a, scanned: b, cost_ns: a ^ b },
        2 => Event::SwapOut { pid, addr: b },
        3 => Event::SwapIn { pid, addr: b },
        4 => Event::ThpPromote { pid, chunks: b },
        5 => Event::ThpDemote { pid, freed_bytes: b },
        6 => Event::SamplingTick { checks: a, nr_regions: b, work_ns: a.wrapping_mul(40) },
        7 => Event::RegionSplit { before: a, after: b },
        8 => Event::RegionMerge { before: a, after: b },
        9 => Event::Aggregation { nr_regions: a, window_ns: b, max_nr_accesses: a % 1000 },
        17 => Event::RegionSnapshot { start: a, end: a.max(b), nr_accesses: b % 1000, age: a % 64 },
        18 => Event::SpanEnter { phase: span_phase },
        19 => Event::SpanExit { phase: span_phase, dur_ns: b },
        10 => Event::SchemeMatch { scheme, bytes: b },
        11 => Event::SchemeApply { scheme, action, bytes: b },
        12 => Event::QuotaThrottle { scheme, skipped_bytes: b },
        13 => Event::WatermarkTransition { scheme, active: flag, metric_permille: a % 1001 },
        14 => Event::TunerSample { x, score: y, phase },
        15 => Event::TunerRefit { degree: a % 6, nr_samples: b % 1000 },
        _ => Event::TunerStep { best_x: x, best_score: y },
    }
}

proptest! {
    cases = 256;

    fn single_event_jsonl_roundtrip(
        kind in 0usize..20,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        at in 0u64..u64::MAX,
    ) {
        let te = TimedEvent { at, event: build_event(kind, a, b) };
        let text = events_to_jsonl(std::slice::from_ref(&te));
        let doc = parse_export(&text).map_err(|e| {
            daos_util::prop::TestCaseError::fail(format!("decode failed: {e}\n{text}"))
        })?;
        prop_assert_eq!(doc.events, vec![te]);
    }

    fn event_stream_jsonl_roundtrip(
        batch in vec_of((0usize..20, 0u64..u64::MAX, 0u64..u64::MAX), 0usize..24),
    ) {
        let events: Vec<TimedEvent> = batch
            .iter()
            .enumerate()
            .map(|(i, &(kind, a, b))| TimedEvent { at: i as u64, event: build_event(kind, a, b) })
            .collect();
        let text = events_to_jsonl(&events);
        let doc = parse_export(&text).map_err(|e| {
            daos_util::prop::TestCaseError::fail(format!("decode failed: {e}"))
        })?;
        prop_assert_eq!(doc.events, events);
    }
}

const EXPORT_SEEDS: &[&str] = &[
    "",
    concat!(
        "# daos-trace v1: 2 events, 1 dropped (ring capacity 2)\n",
        "{\"at\":0,\"event\":{\"PageFault\":{\"pid\":0,\"addr\":268435456,\"major\":false}}}\n",
        "{\"at\":7,\"event\":{\"SwapOut\":{\"pid\":1,\"addr\":4096}}}\n",
        "# metrics: {\"counters\":{\"mm.minor_faults\":1024},\"gauges\":{\"monitor.nr_regions\":10.0},",
        "\"histograms\":{\"span.sample_ns\":{\"count\":3,\"sum\":6000,\"min\":1200,\"max\":2400,",
        "\"buckets\":[[11,1],[12,2]]}},\"dropped_events\":1,\"ring_capacity\":2}\n",
    ),
];

macro_rules! x16 {
    ($s:expr) => {
        concat!($s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s)
    };
}

/// 65 536 open brackets: past `json::MAX_DEPTH`, and past a 2 MiB test
/// thread's stack were the parser to recurse through them.
const BRACKET_RUN: &str = x16!(x16!(x16!(x16!("["))));

const EXPORT_TOKENS: &[&str] = &[
    "# daos-trace v1:", " 3 events, ", "1 dropped", " (ring capacity 16)", "# metrics: ", "#",
    "\n", "{\"at\":7,\"event\":", "{\"SwapOut\":{\"pid\":1,\"addr\":4096}}", "{\"Nope\":{}}", "}",
    "{\"counters\":{", "\"gauges\":{", "\"histograms\":{", "\"buckets\":[[4,1]]", "\"k\":", "{",
    "[", "\"", ":", ",", "18446744073709551616", "-1", "1.5", "null", BRACKET_RUN,
];

// Whatever a trace file holds — a real export, one with token soup and
// arbitrary bytes spliced in, or soup alone — `parse_export` answers
// `Ok` or a typed error, never panics, with at most one event per line
// and an error no longer than the text it quotes.
proptest! {
    cases = 512;

    fn parse_export_survives_arbitrary_bytes(
        seed in select(EXPORT_SEEDS.to_vec()),
        noise in fuzz_bytes(EXPORT_TOKENS),
        at in 0usize..4096,
        intact in any_bool(),
    ) {
        let mut raw = seed.as_bytes().to_vec();
        if !intact {
            let at = at % (raw.len() + 1);
            raw.splice(at..at, noise);
        }
        let text = String::from_utf8_lossy(&raw);
        match parse_export(&text) {
            Ok(doc) => prop_assert!(doc.events.len() <= text.lines().count()),
            Err(e) => prop_assert!(e.to_string().len() <= text.len() + 128, "{e}"),
        }
    }
}

/// A line nested past the JSON depth bound — as an event line or as the
/// metrics trailer — is a typed error naming the bound, never a stack
/// overflow; one exactly at the bound fails only on what it decodes to.
#[test]
fn parse_export_bounds_nesting() {
    let max = daos_util::json::MAX_DEPTH;
    for unit in ["[", "{\"a\":"] {
        let deep = unit.repeat(200_000);
        for text in [format!("{deep}\n"), format!("# metrics: {deep}\n")] {
            let err = parse_export(&text).unwrap_err().to_string();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }
    let nested = |n: usize| format!("{}{}\n", "[".repeat(n), "]".repeat(n));
    let at_limit = parse_export(&nested(max)).unwrap_err().to_string();
    assert!(!at_limit.contains("nesting"), "{at_limit}");
    let past_limit = parse_export(&nested(max + 1)).unwrap_err().to_string();
    assert!(past_limit.contains("nesting deeper than"), "{past_limit}");
}
