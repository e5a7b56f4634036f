//! Property tests for the scheme DSL and matching semantics.

use daos_mm::addr::AddrRange;
use daos_mm::clock::ms;
use daos_monitor::{Aggregation, RegionInfo};
use daos_schemes::{parse_scheme_line, parse_schemes, Action, AgeVal, Bound, FreqVal, Scheme};
use daos_util::prop::{any_bool, fuzz_bytes, select, Just, Strategy, StrategyExt, TestCaseError};
use daos_util::{one_of, prop_assert, prop_assert_eq, proptest};

fn arb_action() -> impl Strategy<Value = Action> {
    select(Action::all().to_vec())
}

fn arb_sz_bound() -> impl Strategy<Value = Bound<u64>> {
    one_of![
        Just(Bound::Unbounded),
        // Keep magnitudes printable-roundtrippable (B/K/M/G units).
        (0u64..u64::MAX / 2).prop_map(Bound::Val),
    ]
}

fn arb_freq_bound() -> impl Strategy<Value = Bound<FreqVal>> {
    one_of![
        Just(Bound::Unbounded),
        (0u32..1000).prop_map(|s| Bound::Val(FreqVal::Samples(s))),
        (0u32..=100).prop_map(|p| Bound::Val(FreqVal::Percent(p as f64))),
    ]
}

fn arb_age_bound() -> impl Strategy<Value = Bound<AgeVal>> {
    one_of![
        Just(Bound::Unbounded),
        (0u32..100_000).prop_map(|i| Bound::Val(AgeVal::Intervals(i))),
        // Whole seconds/minutes so Display units stay exact.
        (0u64..10_000).prop_map(|s| Bound::Val(AgeVal::Time(s * 1_000_000_000))),
    ]
}

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    (
        arb_sz_bound(),
        arb_sz_bound(),
        arb_freq_bound(),
        arb_freq_bound(),
        arb_age_bound(),
        arb_age_bound(),
        arb_action(),
    )
        .prop_map(|(min_sz, max_sz, min_freq, max_freq, min_age, max_age, action)| Scheme {
            min_sz,
            max_sz,
            min_freq,
            max_freq,
            min_age,
            max_age,
            action,
        })
}

fn region(sz: u64, nr: u32, age: u32) -> RegionInfo {
    RegionInfo { range: AddrRange::new(0, sz), nr_accesses: nr, age }
}

fn agg() -> Aggregation {
    Aggregation { at: 0, regions: vec![], max_nr_accesses: 20, aggregation_interval: ms(100) }
}

proptest! {
    cases = 256;

    /// display → parse is the identity for every representable scheme
    /// whose size bounds fall on unit boundaries.
    fn display_parse_roundtrip(mut s in arb_scheme()) {
        // Sizes print in B/K/M/G units; snap to an exactly-printable value.
        let snap = |b: Bound<u64>| match b {
            Bound::Val(v) => Bound::Val(v & !0x3ff),
            b => b,
        };
        s.min_sz = snap(s.min_sz);
        s.max_sz = snap(s.max_sz);
        let line = s.to_string();
        let parsed = parse_scheme_line(&line)
            .map_err(|e| TestCaseError::fail(format!("'{line}': {e}")))?;
        prop_assert_eq!(parsed, s, "line was '{}'", line);
    }

    /// Matching is monotone: growing a region's age can never turn a
    /// max-age-unbounded match into a non-match, and vice versa for size.
    fn matching_monotone_in_age(nr in 0u32..=20, age in 0u32..1000, min_age in 0u32..1000) {
        let s = Scheme::any(Action::Stat).age(Some(AgeVal::Intervals(min_age)), None);
        let a = agg();
        let m1 = s.matches(&region(4096, nr, age), &a);
        let m2 = s.matches(&region(4096, nr, age + 1), &a);
        prop_assert!(!m1 || m2, "match must persist as age grows");
    }

    /// An inverted interval (min > max) matches nothing.
    fn inverted_bounds_match_nothing(lo in 1u32..100, width in 1u32..100, probe in 0u32..300) {
        let s = Scheme::any(Action::Stat)
            .freq(Some(FreqVal::Samples(lo + width)), Some(FreqVal::Samples(lo - 1)));
        prop_assert!(!s.matches(&region(4096, probe.min(20), 0), &agg()));
    }
}

const SCHEME_SEEDS: &[&str] = &[
    "",
    "4K max min min 5s max pageout\n# a comment\n2M max 80% max min 2m hugepage # trailing\n",
    "min max 5 max min max stat",
];

const SCHEME_TOKENS: &[&str] = &[
    "4K", "2M", "max", "min", "5s", "2m", "100ms", "us", "80%", "pageout", "hugepage", "stat",
    " ", "\t", "\n", "#", "18446744073709551615", "G", "T", "1.5", "-1", "1e308", "nan", "inf",
];

// Whatever a scheme file holds — a real one, one with token soup and
// arbitrary bytes spliced in, or soup alone — both parsers answer `Ok`
// or a typed error, never panic, and neither hands back more than it
// was given: at most one scheme per line, an error no longer than the
// line it quotes.
proptest! {
    cases = 512;

    fn scheme_parsers_survive_arbitrary_bytes(
        seed in select(SCHEME_SEEDS.to_vec()),
        noise in fuzz_bytes(SCHEME_TOKENS),
        at in 0usize..4096,
        intact in any_bool(),
    ) {
        let mut raw = seed.as_bytes().to_vec();
        if !intact {
            let at = at % (raw.len() + 1);
            raw.splice(at..at, noise);
        }
        let text = String::from_utf8_lossy(&raw);
        let nr_lines = text.lines().count();
        match parse_schemes(&text) {
            Ok(schemes) => prop_assert!(schemes.len() <= nr_lines),
            Err(e) => {
                prop_assert!((1..=nr_lines).contains(&e.line), "line {} of {nr_lines}", e.line);
                prop_assert!(e.to_string().len() <= text.len() + 128, "{e}");
            }
        }
        for line in text.lines() {
            if let Err(e) = parse_scheme_line(line) {
                prop_assert!(e.to_string().len() <= line.len() + 128, "{e}");
            }
        }
    }
}
