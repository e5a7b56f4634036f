//! JSON round-trip coverage for every record type the tooling writes
//! (report.rs artifacts and recordio.rs records) plus the config types
//! they embed. Encoding goes through the textual form — serialise,
//! re-parse, decode — so these tests pin the wire format, not just the
//! in-memory conversion.

use std::fmt::Debug;

use daos::heatmap::Heatmap;
use daos::metrics::Normalized;
use daos_mm::access::{AccessBatch, TouchPattern};
use daos_mm::addr::AddrRange;
use daos_mm::clock::{ms, sec, Clock};
use daos_mm::machine::MachineProfile;
use daos_mm::stats::{KernelStats, ProcStats};
use daos_mm::swap::SwapConfig;
use daos_mm::vma::ThpMode;
use daos_monitor::{Aggregation, MonitorAttrs, MonitorRecord, OverheadStats, RegionInfo};
use daos_schemes::action::Action;
use daos_schemes::filter::{AddrFilter, FilterMode};
use daos_schemes::quota::Quota;
use daos_schemes::scheme::{AgeVal, Bound, FreqVal, Scheme};
use daos_schemes::stats::SchemeStats;
use daos_schemes::watermarks::{WatermarkMetric, Watermarks};
use daos_tuner::patterns::ScorePattern;
use daos_tuner::polyfit::Polynomial;
use daos_tuner::score::ScoreInputs;
use daos_tuner::tuner::TunerConfig;
use daos_util::json::{self, FromJson, Json, ToJson};
use daos_workloads::spec::{Suite, WorkloadSpec};
use daos_workloads::suite::paper_suite;

/// Serialise → parse the text → decode → compare (PartialEq types).
fn rt<T: ToJson + FromJson + PartialEq + Debug>(v: &T) {
    let text = v.to_json().to_string_compact();
    let parsed = json::parse(&text).unwrap_or_else(|e| panic!("parse {text}: {e}"));
    let back = T::from_json(&parsed).unwrap_or_else(|e| panic!("decode {text}: {e}"));
    assert_eq!(*v, back, "round trip drifted for {text}");
}

/// Round trip compared at the JSON-text level (types without PartialEq).
fn rt_text<T: ToJson + FromJson>(v: &T) {
    let text = v.to_json().to_string_compact();
    let parsed = json::parse(&text).unwrap_or_else(|e| panic!("parse {text}: {e}"));
    let back = T::from_json(&parsed).unwrap_or_else(|e| panic!("decode {text}: {e}"));
    assert_eq!(text, back.to_json().to_string_compact());
}

#[test]
fn mm_types() {
    rt(&AddrRange::new(0x7f00_0000_0000, 0x7f00_4000_0000));
    // Full-width addresses must survive exactly (the u64 JSON lane).
    rt(&AddrRange::new(0, u64::MAX));
    rt(&Clock::new());
    for m in [ThpMode::Never, ThpMode::Always, ThpMode::Madvise] {
        rt(&m);
    }
    for p in [
        TouchPattern::All,
        TouchPattern::Stride(512),
        TouchPattern::Prob(0.125),
        TouchPattern::Random { count: 37 },
    ] {
        rt(&p);
    }
    rt(&AccessBatch {
        range: AddrRange::new(4096, 1 << 21),
        pattern: TouchPattern::Stride(64),
        accesses_per_page: 3.0,
    });
    for s in [
        SwapConfig::None,
        SwapConfig::Zram { capacity_bytes: 8 << 30, compression_ratio: 2.5 },
        SwapConfig::File { capacity_bytes: 32 << 30 },
    ] {
        rt(&s);
    }
    for profile in MachineProfile::paper_machines() {
        rt(&profile);
    }
}

#[test]
fn stats_types() {
    let mut proc = ProcStats::default();
    proc.minor_faults = 12;
    proc.major_faults = 3;
    proc.peak_rss_bytes = 7 << 30;
    // u128 field: larger than u64::MAX, must survive via string encoding.
    proc.rss_time_integral = (u64::MAX as u128) * 1000;
    rt(&proc);
    let mut kern = KernelStats::default();
    kern.monitor_ns = sec(2);
    kern.damos_pageouts = 99;
    rt(&kern);
    rt(&SchemeStats { nr_tried: 5, sz_tried: 4096, nr_applied: 2, sz_applied: 8192, nr_quota_skips: 1 });
    rt(&OverheadStats::default());
}

#[test]
fn monitor_record_types() {
    rt(&RegionInfo { range: AddrRange::new(0, 4096), nr_accesses: 7, age: 3 });
    rt(&MonitorAttrs::paper_defaults());
    let mut rec = MonitorRecord::new();
    for t in 1..=3u64 {
        rec.push(Aggregation {
            at: sec(t),
            regions: vec![
                RegionInfo { range: AddrRange::new(0, 1 << 20), nr_accesses: 19, age: t as u32 },
                RegionInfo { range: AddrRange::new(1 << 20, 4 << 20), nr_accesses: 0, age: 9 },
            ],
            max_nr_accesses: 20,
            aggregation_interval: ms(100),
        });
    }
    rt(&rec.aggregations[0].clone());
    rt(&rec);
}

#[test]
fn schemes_types() {
    for a in [
        Action::Willneed,
        Action::Cold,
        Action::Hugepage,
        Action::Nohugepage,
        Action::Pageout,
        Action::Stat,
        Action::LruPrio,
        Action::LruDeprio,
    ] {
        rt(&a);
    }
    rt(&AddrFilter { range: AddrRange::new(0, 1 << 30), mode: FilterMode::Allow });
    rt(&AddrFilter { range: AddrRange::new(0, 1 << 30), mode: FilterMode::Reject });
    rt(&Scheme {
        min_sz: Bound::Val(4096),
        max_sz: Bound::Unbounded,
        min_freq: Bound::Val(FreqVal::Percent(12.5)),
        max_freq: Bound::Val(FreqVal::Samples(40)),
        min_age: Bound::Val(AgeVal::Intervals(5)),
        max_age: Bound::Val(AgeVal::Time(sec(30))),
        action: Action::Pageout,
    });
    rt(&Quota { sz_limit: 1 << 30, reset_interval: sec(1) });
    rt(&Watermarks { metric: WatermarkMetric::FreeMemPermille, high: 500, mid: 400, low: 200 });
}

#[test]
fn tuner_types() {
    for p in [
        ScorePattern::Increasing,
        ScorePattern::RiseFallAbove,
        ScorePattern::RiseFallBelow,
        ScorePattern::Decreasing,
        ScorePattern::FallRiseBelow,
        ScorePattern::FallRiseAbove,
    ] {
        rt(&p);
    }
    rt(&ScoreInputs { runtime: 100.0, orig_runtime: 120.0, rss: 3e9, orig_rss: 4e9 });
    rt(&TunerConfig {
        time_limit: sec(300),
        unit_work_time: sec(10),
        range: (0.0, 100.0),
        seed: 42,
    });
    let poly = Polynomial::fit(
        &[(0.0, 1.0), (1.0, 2.0), (2.0, 5.0), (3.0, 10.0), (4.0, 17.0)],
        2,
    )
    .unwrap();
    rt(&poly);
}

#[test]
fn workload_spec_types() {
    // Every catalog entry round-trips, behaviors included; the `name`
    // field decodes by catalog lookup (it is a &'static str).
    for spec in paper_suite() {
        rt_text(&spec);
        let back = WorkloadSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.suite, spec.suite);
    }
    // An edited spec keeps its own field values, only `name` resolves.
    let mut spec = paper_suite().into_iter().next().unwrap();
    spec.footprint *= 2;
    let back = WorkloadSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(back.footprint, spec.footprint);
    // Unknown names are an error, not a silent fallback.
    let mut j = spec.to_json();
    if let Json::Object(fields) = &mut j {
        for (k, v) in fields.iter_mut() {
            if k == "name" {
                *v = Json::Str("no-such-workload".into());
            }
        }
    }
    assert!(WorkloadSpec::from_json(&j).is_err());
    for s in [Suite::Parsec3, Suite::Splash2x] {
        rt(&s);
    }
}

#[test]
fn report_types() {
    rt(&Normalized { performance: 1.25, memory_efficiency: 0.9 });
    // Heatmap has no PartialEq: compare at the JSON-text level.
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
    let hm = Heatmap::from_record(&rec, AddrRange::new(0, 8 << 20), 4, 4).unwrap();
    rt_text(&hm);
}
