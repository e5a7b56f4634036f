//! What the obs plane exports and how it is spelled. [`exposition`]
//! decides the set of exported numbers once, as one [`Registry`];
//! [`render_with`] renders it as Prometheus text (format 0.0.4) for
//! `/metrics`, [`flatten_registry`] turns it into the series the metric
//! history records, and a strict line parser lets the tests and the
//! verify smoke assert the output really is well-formed.
//!
//! Mapping from registry keys:
//! - dotted keys become `daos_`-prefixed underscore names
//!   (`monitor.work_ns` → `daos_monitor_work_ns`);
//! - keyed prefixes collapse into one family per field with a label:
//!   `scheme.<i>.<field>` → `daos_scheme_<field>{scheme="i"}`,
//!   `tenant.<t>.<field>` → `daos_tenant_<field>{tenant="t"}`, the
//!   engine profile's `engine.phase.<p>.<field>` →
//!   `daos_engine_phase_<field>{phase="p"}`, and the server's own
//!   `obs.http.<ep>.<field>` → `daos_obs_http_<field>{endpoint="ep"}`;
//! - log2 histograms render as native Prometheus histograms with
//!   power-of-two `le` bounds plus `_sum`/`_count`;
//! - label values are escaped per the exposition rules (`\\`, `\"`,
//!   `\n`) and [`parse_exposition`] unescapes them, so hostile tenant
//!   names round-trip.

use crate::snapshot::ObsSnapshot;
use daos_trace::{Histogram, Registry};
use std::collections::BTreeMap;
use std::fmt::Display;

/// Mangle a dotted registry key into a Prometheus metric name.
fn mangle(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 5);
    out.push_str("daos_");
    for c in key.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Escape a label value per the 0.0.4 exposition rules: backslash,
/// double quote, and line feed.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Emit one counter or gauge sample line, with its folded label if any.
fn scalar_sample<V: Display>(out: &mut String, name: &str, label: Option<(&str, &str)>, value: V) {
    match label {
        Some((k, v)) => out.push_str(&format!("{name}{{{k}=\"{}\"}} {value}\n", escape_label(v))),
        None => out.push_str(&format!("{name} {value}\n")),
    }
}

/// Emit the sample lines of one histogram. `label` is an optional extra
/// label pair rendered on every line.
fn hist_samples(out: &mut String, name: &str, label: Option<(&str, &str)>, h: &Histogram) {
    let extra = match label {
        Some((k, v)) => format!("{k}=\"{}\",", escape_label(v)),
        None => String::new(),
    };
    let mut cum = 0u64;
    for (bucket, count) in h.nonzero_buckets() {
        cum += count;
        // Bucket 0 holds zeros; bucket i >= 1 holds [2^(i-1), 2^i).
        let le = if bucket == 0 { 0u128 } else { 1u128 << bucket };
        out.push_str(&format!("{name}_bucket{{{extra}le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{{extra}le=\"+Inf\"}} {}\n", h.count()));
    scalar_sample(out, &format!("{name}_sum"), label, h.sum());
    scalar_sample(out, &format!("{name}_count"), label, h.count());
}

/// Key prefixes that collapse into labelled families, as
/// `(key prefix, label name)`: `scheme.<i>.*`, `tenant.<t>.*` (the
/// fleet engine's per-tenant aggregates), `engine.phase.<p>.*` (its
/// host wall time per phase) and `obs.http.<ep>.*` (the obs server's
/// per-endpoint self-telemetry).
const LABELLED_PREFIXES: [(&str, &str); 4] = [
    ("scheme", "scheme"),
    ("tenant", "tenant"),
    ("engine.phase", "phase"),
    ("obs.http", "endpoint"),
];

/// Split `key` on the first matching labelled prefix into
/// `(prefix, label name, label value, field)`.
fn split_labelled(key: &str) -> Option<(&str, &str, &str, &str)> {
    LABELLED_PREFIXES.iter().find_map(|(prefix, label)| {
        key.strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix('.'))
            .and_then(|rest| rest.split_once('.'))
            .map(|(value, field)| (*prefix, *label, value, field))
    })
}

/// Render every entry of one metric kind: plain keys as one family
/// each, keyed prefixes collapsed into one family per
/// `(prefix, field)` with the label on every sample line.
fn fold<'a, V>(
    out: &mut String,
    kind: &str,
    entries: impl Iterator<Item = (&'a str, V)>,
    sample: impl Fn(&mut String, &str, Option<(&str, &str)>, V),
) {
    let mut labelled: BTreeMap<_, Vec<_>> = BTreeMap::new();
    let mut plain = Vec::new();
    for (key, value) in entries {
        match split_labelled(key) {
            Some((prefix, label, idx, field)) => {
                labelled.entry((prefix, label, field)).or_default().push((idx, value))
            }
            None => plain.push((key, value)),
        }
    }
    for (key, value) in plain {
        let name = mangle(key);
        family(out, &name, kind, &format!("daos-trace {kind} {key}"));
        sample(out, &name, None, value);
    }
    for ((prefix, label, field), entries) in labelled {
        let name = mangle(&format!("{prefix}.{field}"));
        family(out, &name, kind, &format!("per-{label} {kind} {prefix}.<{label}>.{field}"));
        for (idx, value) in entries {
            sample(out, &name, Some((label, idx)), value);
        }
    }
}

/// The exposition-style series key for one registry entry: the mangled
/// family name, plus the folded label for keyed prefixes — exactly the
/// `Sample::key()` a scrape of `/metrics` would yield, so history
/// series names and scraped names agree.
fn series_key(key: &str, suffix: &str) -> String {
    match split_labelled(key) {
        Some((prefix, label, value, field)) => format!(
            "{}{suffix}{{{label}=\"{}\"}}",
            mangle(&format!("{prefix}.{field}")),
            escape_label(value)
        ),
        None => format!("{}{suffix}", mangle(key)),
    }
}

/// Flatten a registry into `(series key, value)` pairs — counters and
/// gauges verbatim, histograms as their `_p50`/`_p99` percentiles —
/// using the same name mangling and label folding as the exposition.
/// This is what the metric history records on every publish.
pub fn flatten_registry(reg: &Registry) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (key, value) in reg.counters() {
        out.push((series_key(key, ""), value as f64));
    }
    for (key, value) in reg.gauges() {
        out.push((series_key(key, ""), value));
    }
    for (key, h) in reg.hists() {
        out.push((series_key(key, "_p50"), h.percentile(50.0) as f64));
        out.push((series_key(key, "_p99"), h.percentile(99.0) as f64));
    }
    out
}

/// Every number the obs plane exports, under its registry key — the one
/// place that decides the set and the names. To the snapshot's own
/// registry it adds the snapshot's scalar fields as `obs.*` keys, the
/// monitor's share of one CPU per process (derived from the fleet
/// totals every snapshot carries), and `extra` (the publisher's
/// telemetry). `/metrics` renders the result, every
/// publish records [`flatten_registry`] of it into the history behind
/// `/query`, and `/statusz` reads its `obs.*` keys.
pub fn exposition(snap: &ObsSnapshot, extra: Option<&Registry>) -> Registry {
    let mut reg = snap.registry.clone();
    let gauges = [
        ("obs.seq", snap.seq),
        ("obs.epoch", snap.epoch),
        ("obs.nr_epochs", snap.nr_epochs),
        ("obs.now_ns", snap.now_ns),
        ("obs.wss_bytes", snap.wss_bytes),
        ("obs.peak_rss_bytes", snap.peak_rss_bytes),
        ("obs.avg_rss_bytes", snap.avg_rss_bytes),
        ("obs.finished", snap.finished as u64),
    ];
    for (key, value) in gauges {
        reg.gauge_set(key, value as f64);
    }
    reg.counter_add("obs.dropped_events", snap.dropped_events);
    let cpu_ns = reg.counter("fleet.nr_processes").max(1) as f64 * snap.now_ns as f64;
    let work_ns = reg.counter("fleet.monitor_work_ns") as f64;
    let share = if cpu_ns == 0.0 { 0.0 } else { work_ns / cpu_ns };
    reg.gauge_set("obs.monitor_share_permille", share * 1000.0);
    if let Some(extra) = extra {
        reg.merge(extra);
    }
    reg
}

/// Render the `/metrics` text for one snapshot: [`exposition`] as one
/// well-formed Prometheus exposition with no duplicate families.
pub fn render_with(snap: &ObsSnapshot, extra: Option<&Registry>) -> String {
    let reg = exposition(snap, extra);
    let mut out = String::new();
    fold(&mut out, "counter", reg.counters(), scalar_sample);
    fold(&mut out, "gauge", reg.gauges(), scalar_sample);
    fold(&mut out, "histogram", reg.hists(), hist_samples);
    out
}

/// One parsed sample line: metric name, sorted label pairs, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs with escape sequences decoded.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// `name{k="v",...}` rendering (values re-escaped) for map keys in
    /// tests — matches the exposition line the sample came from.
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// Parse one `k="v",...` label body, decoding `\\`, `\"`, and `\n`
/// escapes, so quoted values may contain commas and equals signs.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, &'static str> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err("label without =");
        }
        if chars.next() != Some('"') {
            return Err("unquoted label value");
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err("bad escape in label value"),
                },
                _ => value.push(c),
            }
        }
        if !closed {
            return Err("unterminated label value");
        }
        labels.push((key, value));
        match chars.next() {
            None => return Ok(labels),
            Some(',') => continue,
            Some(_) => return Err("junk after label value"),
        }
    }
}

/// Strictly parse a text exposition: every line must be `# HELP name ...`,
/// `# TYPE name counter|gauge|histogram`, or `name[{labels}] value`.
/// Returns the samples, or a message naming the first offending line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        if line.is_empty() {
            return Err(err("blank line"));
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.splitn(3, ' ');
            let kind = words.next().unwrap_or_default();
            let name = words.next().unwrap_or_default();
            if !matches!(kind, "HELP" | "TYPE") {
                return Err(err("comment is neither HELP nor TYPE"));
            }
            if name.is_empty() || !valid_name(name) {
                return Err(err("bad metric name in comment"));
            }
            if kind == "TYPE"
                && !matches!(words.next(), Some("counter" | "gauge" | "histogram"))
            {
                return Err(err("unknown TYPE"));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(err("comment without HELP/TYPE"));
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("sample line has no value"))?;
        let value: f64 = value.parse().map_err(|_| err("unparseable value"))?;
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(|| err("unclosed label set"))?;
                (name.to_string(), parse_labels(body).map_err(|e| err(e))?)
            }
        };
        if !valid_name(&name) {
            return Err(err("bad metric name"));
        }
        samples.push(Sample { name, labels, value });
    }
    Ok(samples)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(snap: &ObsSnapshot) -> String {
        render_with(snap, None)
    }

    fn sample_map(text: &str) -> BTreeMap<String, f64> {
        parse_exposition(text)
            .unwrap()
            .into_iter()
            .map(|s| (s.key(), s.value))
            .collect()
    }

    #[test]
    fn registry_renders_and_reparses() {
        let mut reg = Registry::new();
        reg.counter_add("monitor.work_ns", 480);
        reg.counter_add("scheme.0.nr_applied", 3);
        reg.counter_add("scheme.1.nr_applied", 5);
        reg.gauge_set("tuner.best_x", 2.5);
        reg.hist_record("span.sample_ns", 0);
        reg.hist_record("span.sample_ns", 100);
        reg.hist_record("span.sample_ns", 100);
        let snap = ObsSnapshot { seq: 1, registry: reg, ..Default::default() };
        let text = render(&snap);
        let m = sample_map(&text);
        assert_eq!(m["daos_monitor_work_ns"], 480.0);
        assert_eq!(m["daos_scheme_nr_applied{scheme=\"0\"}"], 3.0);
        assert_eq!(m["daos_scheme_nr_applied{scheme=\"1\"}"], 5.0);
        assert_eq!(m["daos_tuner_best_x"], 2.5);
        assert_eq!(m["daos_span_sample_ns_count"], 3.0);
        assert_eq!(m["daos_span_sample_ns_sum"], 200.0);
        assert_eq!(m["daos_span_sample_ns_bucket{le=\"0\"}"], 1.0);
        // 100 lands in [64,128) → le="128"; cumulative includes the zero.
        assert_eq!(m["daos_span_sample_ns_bucket{le=\"128\"}"], 3.0);
        assert_eq!(m["daos_span_sample_ns_bucket{le=\"+Inf\"}"], 3.0);
        assert_eq!(m["daos_obs_seq"], 1.0);
    }

    #[test]
    fn tenant_counters_fold_into_label_families() {
        let mut reg = Registry::new();
        reg.counter_add("tenant.t0.rss_bytes", 1024);
        reg.counter_add("tenant.t1.rss_bytes", 2048);
        reg.counter_add("tenant.t1.nr_processes", 7);
        reg.counter_add("fleet.nr_processes", 14);
        let snap = ObsSnapshot { seq: 2, registry: reg, ..Default::default() };
        let m = sample_map(&render(&snap));
        assert_eq!(m["daos_tenant_rss_bytes{tenant=\"t0\"}"], 1024.0);
        assert_eq!(m["daos_tenant_rss_bytes{tenant=\"t1\"}"], 2048.0);
        assert_eq!(m["daos_tenant_nr_processes{tenant=\"t1\"}"], 7.0);
        assert_eq!(m["daos_fleet_nr_processes"], 14.0, "fleet totals stay plain");
    }

    #[test]
    fn obs_http_keys_fold_counters_and_histograms_by_endpoint() {
        let mut reg = Registry::new();
        reg.counter_add("obs.http.metrics.requests_total", 9);
        reg.counter_add("obs.http.snapshot.requests_total", 4);
        reg.hist_record("obs.http.metrics.request_ns", 100);
        reg.hist_record("obs.http.metrics.request_ns", 100);
        reg.hist_record("obs.http.snapshot.request_ns", 3000);
        reg.counter_add("obs.server.accepted_total", 5);
        let snap = ObsSnapshot { registry: reg, ..Default::default() };
        let text = render(&snap);
        let m = sample_map(&text);
        assert_eq!(m["daos_obs_http_requests_total{endpoint=\"metrics\"}"], 9.0);
        assert_eq!(m["daos_obs_http_requests_total{endpoint=\"snapshot\"}"], 4.0);
        assert_eq!(m["daos_obs_http_request_ns_count{endpoint=\"metrics\"}"], 2.0);
        assert_eq!(m["daos_obs_http_request_ns_sum{endpoint=\"snapshot\"}"], 3000.0);
        assert_eq!(
            m["daos_obs_http_request_ns_bucket{endpoint=\"metrics\",le=\"128\"}"],
            2.0
        );
        assert_eq!(m["daos_obs_server_accepted_total"], 5.0, "obs.server.* stays plain");
        // One family header even with two labelled endpoint histograms.
        assert_eq!(text.matches("# TYPE daos_obs_http_request_ns histogram").count(), 1);
    }

    #[test]
    fn render_with_merges_the_server_registry() {
        let mut reg = Registry::new();
        reg.counter_add("monitor.work_ns", 7);
        let snap = ObsSnapshot { registry: reg, ..Default::default() };
        let mut server = Registry::new();
        server.counter_add("obs.http.metrics.requests_total", 2);
        server.gauge_set("obs.server.in_flight", 1.0);
        let m = sample_map(&render_with(&snap, Some(&server)));
        assert_eq!(m["daos_monitor_work_ns"], 7.0);
        assert_eq!(m["daos_obs_http_requests_total{endpoint=\"metrics\"}"], 2.0);
        assert_eq!(m["daos_obs_server_in_flight"], 1.0);
    }

    #[test]
    fn hostile_label_values_escape_and_round_trip() {
        let hostile = "t\"0\\prod\nline2";
        let mut reg = Registry::new();
        reg.counter_add(&format!("tenant.{hostile}.rss_bytes"), 512);
        let snap = ObsSnapshot { registry: reg, ..Default::default() };
        let text = render(&snap);
        assert!(
            text.contains(r#"{tenant="t\"0\\prod\nline2"}"#),
            "escapes rendered: {text}"
        );
        assert!(!text.contains("prod\nline2"), "no raw newline leaks into the line");
        let samples = parse_exposition(&text).unwrap();
        let s = samples
            .iter()
            .find(|s| s.name == "daos_tenant_rss_bytes")
            .expect("family present");
        assert_eq!(s.labels, vec![("tenant".to_string(), hostile.to_string())]);
        assert_eq!(s.value, 512.0);
    }

    #[test]
    fn label_parser_handles_quoted_commas_and_rejects_junk() {
        let ok = parse_labels(r#"a="x,y=z",b="2""#).unwrap();
        assert_eq!(
            ok,
            vec![("a".into(), "x,y=z".into()), ("b".into(), "2".into())]
        );
        assert!(parse_labels(r#"a="unterminated"#).is_err());
        assert!(parse_labels(r#"a="bad\q""#).is_err(), "unknown escape");
        assert!(parse_labels(r#"a="x"junk"#).is_err());
        assert!(parse_labels(r#"="x""#).is_err(), "empty label name");
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 3, 90, 5000, u64::MAX] {
            h.record(v);
        }
        let mut out = String::new();
        hist_samples(&mut out, "daos_h", None, &h);
        let samples = parse_exposition(&out).unwrap();
        let mut last = -1.0f64;
        let mut last_cum = 0.0;
        for s in samples.iter().filter(|s| s.name == "daos_h_bucket") {
            let le = match s.labels[0].1.as_str() {
                "+Inf" => f64::INFINITY,
                v => v.parse().unwrap(),
            };
            assert!(le > last, "le bounds ascend: {out}");
            assert!(s.value >= last_cum, "bucket counts are cumulative");
            last = le;
            last_cum = s.value;
        }
        assert_eq!(last, f64::INFINITY);
        assert_eq!(last_cum, 6.0);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("daos_x 1\n\ndaos_y 2").is_err(), "blank line");
        assert!(parse_exposition("# a comment").is_err(), "non-HELP/TYPE comment");
        assert!(parse_exposition("# TYPE daos_x sparkline").is_err(), "unknown type");
        assert!(parse_exposition("daos_x{le=\"1\" 3").is_err(), "unclosed labels");
        assert!(parse_exposition("daos_x one").is_err(), "bad value");
        assert!(parse_exposition("3daos_x 1").is_err(), "name starts with digit");
        assert!(parse_exposition("daos_x 1").is_ok());
    }

    #[test]
    fn flatten_registry_matches_exposition_keys() {
        let mut reg = Registry::new();
        reg.counter_add("monitor.work_ns", 480);
        reg.counter_add("tenant.t3.rss_bytes", 2048);
        reg.gauge_set("obs.http.query.in_flight", 1.0);
        reg.hist_record("span.sample_ns", 100);
        reg.hist_record("span.sample_ns", 300);
        let flat: BTreeMap<String, f64> = flatten_registry(&reg).into_iter().collect();
        assert_eq!(flat["daos_monitor_work_ns"], 480.0);
        assert_eq!(flat["daos_tenant_rss_bytes{tenant=\"t3\"}"], 2048.0);
        assert_eq!(flat["daos_obs_http_in_flight{endpoint=\"query\"}"], 1.0);
        // Histograms flatten to their percentiles.
        assert!(flat.contains_key("daos_span_sample_ns_p50"));
        assert!(flat.contains_key("daos_span_sample_ns_p99"));
        let h = reg.hist("span.sample_ns").unwrap();
        assert!(flat["daos_span_sample_ns_p50"] >= h.min() as f64);
        assert!(flat["daos_span_sample_ns_p99"] <= h.max() as f64);
        // Every flattened key matches the exposition's Sample::key()
        // space: re-parse a rendered exposition and check membership.
        let snap = ObsSnapshot { registry: reg, ..Default::default() };
        let keys: std::collections::BTreeSet<String> =
            parse_exposition(&render(&snap)).unwrap().iter().map(|s| s.key()).collect();
        for key in flat.keys().filter(|k| !k.contains("_p5") && !k.contains("_p9")) {
            assert!(keys.contains(key.as_str()), "{key} not in exposition");
        }
    }

    const EXPOSITION_TOKENS: &[&str] = &[
        "# HELP ", "# TYPE ", "daos_x", "daos_x_bucket", " counter", " histogram", "{", "}", "le=\"",
        "\"", "\\", "\\n", ",", "=", " ", "1", "+Inf", "NaN", "\n", "#",
    ];

    daos_util::proptest! {
        cases = 512;

        // The scrape-side parser over arbitrary bytes: samples or a
        // message naming a line, holding no more than the text did.
        fn parse_exposition_survives_arbitrary_bytes(
            raw in daos_util::prop::fuzz_bytes(EXPOSITION_TOKENS),
        ) {
            let text = String::from_utf8_lossy(&raw);
            if let Ok(samples) = parse_exposition(&text) {
                daos_util::prop_assert!(samples.len() <= text.lines().count());
                let held: usize = samples
                    .iter()
                    .map(|s| s.name.len() + s.labels.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>())
                    .sum();
                daos_util::prop_assert!(held <= text.len());
            }
        }
    }

    #[test]
    fn empty_snapshot_still_renders_valid_text() {
        let text = render(&ObsSnapshot::default());
        let samples = parse_exposition(&text).unwrap();
        assert!(samples.iter().any(|s| s.name == "daos_obs_seq" && s.value == 0.0));
    }
}
