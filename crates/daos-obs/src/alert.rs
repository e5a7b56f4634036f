//! Threshold and rate-of-change alert rules over the metric history.
//!
//! Rules are built with the same builder-validates idiom as
//! `MonitorAttrs` ([`AlertRule::builder`] → fluent setters →
//! [`AlertRuleBuilder::build`] returning a typed [`AlertError`]) and
//! evaluated by the [`AlertEngine`] on every publish. Evaluation has
//! hysteresis: a breach moves a rule to *pending* and it must stay
//! breached for `for_samples` consecutive evaluations before *firing*;
//! a firing rule that stops breaching passes through *resolved* for one
//! evaluation before returning to *ok*, so consumers polling `/alerts`
//! can see that a fire ended even if they missed the firing window.
//!
//! ```text
//!          breach                   breach × for_samples
//!   Ok ────────────▶ Pending ────────────────────────────▶ Firing
//!    ▲                  │ clear                               │ clear
//!    │                  ▼                                     ▼
//!    └──── clear ─── (Ok) ◀─────────── clear ──────────── Resolved
//! ```
//!
//! Every state change is reported as a [`Transition`]; the publisher
//! turns those into `AlertTransition` trace events on `/events` and
//! bumps per-rule counters exported as `daos_alert_*` in `/metrics`.

use daos_util::json::{Json, ToJson};
use std::fmt;

/// Alert rule evaluation states, exported as
/// `daos_alert_state{rule=…}`: 0 = ok, 1 = pending, 2 = firing,
/// 3 = resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The signal is within bounds.
    Ok,
    /// Breached, but not yet for `for_samples` evaluations.
    Pending,
    /// Breached for at least `for_samples` consecutive evaluations.
    Firing,
    /// Was firing; the breach cleared on the latest evaluation.
    Resolved,
}

impl AlertState {
    /// The `/metrics` gauge encoding of the state.
    pub fn as_gauge(self) -> f64 {
        match self {
            AlertState::Ok => 0.0,
            AlertState::Pending => 1.0,
            AlertState::Firing => 2.0,
            AlertState::Resolved => 3.0,
        }
    }

    /// Lowercase state name (used in JSON and the CLI table).
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// How a rule interprets its metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Breach when the raw sample exceeds the threshold.
    Threshold,
    /// Breach when the per-second derivative between consecutive
    /// samples exceeds the threshold. The first sample after engine
    /// start (no predecessor) never breaches.
    RateOfChange,
}

impl AlertKind {
    /// Lowercase kind name (used in JSON and docs).
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Threshold => "threshold",
            AlertKind::RateOfChange => "rate",
        }
    }
}

/// Why an [`AlertRuleBuilder`] configuration is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertError {
    /// The rule name is empty.
    EmptyName,
    /// The rule name has characters outside `[a-z0-9._]` (it becomes a
    /// Prometheus label value and a trace-event field; keep it boring).
    BadName(String),
    /// The watched metric name is empty.
    EmptyMetric,
    /// The threshold is NaN.
    NanThreshold,
    /// `for_samples` is zero (a rule must see at least one breach).
    ZeroForSamples,
}

impl fmt::Display for AlertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertError::EmptyName => write!(f, "rule name must be non-empty"),
            AlertError::BadName(n) => {
                write!(f, "rule name {n:?} must match [a-z0-9._]+")
            }
            AlertError::EmptyMetric => write!(f, "rule metric must be non-empty"),
            AlertError::NanThreshold => write!(f, "threshold must not be NaN"),
            AlertError::ZeroForSamples => write!(f, "for_samples must be >= 1"),
        }
    }
}

impl std::error::Error for AlertError {}

/// One alert rule: watch `metric`, breach per `kind` against
/// `threshold`, fire after `for_samples` consecutive breaches.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name, `[a-z0-9._]+` — the `rule=` label on `/metrics`.
    pub name: String,
    /// The flattened series name to watch (e.g. `daos_obs_wss_bytes`).
    pub metric: String,
    /// Threshold or rate-of-change.
    pub kind: AlertKind,
    /// Breach bound (units of the metric, or metric/second for rate).
    pub threshold: f64,
    /// Consecutive breached evaluations before firing (≥ 1).
    pub for_samples: u32,
}

impl AlertRule {
    /// Start building a rule; [`AlertRuleBuilder::build`] validates.
    pub fn builder() -> AlertRuleBuilder {
        AlertRuleBuilder {
            rule: AlertRule {
                name: String::new(),
                metric: String::new(),
                kind: AlertKind::Threshold,
                threshold: 0.0,
                for_samples: 1,
            },
        }
    }

    /// Validate field sanity (see [`AlertError`]).
    pub fn validate(&self) -> Result<(), AlertError> {
        if self.name.is_empty() {
            return Err(AlertError::EmptyName);
        }
        let ok = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_';
        if !self.name.chars().all(ok) {
            return Err(AlertError::BadName(self.name.clone()));
        }
        if self.metric.is_empty() {
            return Err(AlertError::EmptyMetric);
        }
        if self.threshold.is_nan() {
            return Err(AlertError::NanThreshold);
        }
        if self.for_samples == 0 {
            return Err(AlertError::ZeroForSamples);
        }
        Ok(())
    }
}

/// Builder for [`AlertRule`]; [`build`](Self::build) rejects bad
/// combinations with a typed [`AlertError`].
#[derive(Debug, Clone)]
pub struct AlertRuleBuilder {
    rule: AlertRule,
}

impl AlertRuleBuilder {
    /// Rule name (`[a-z0-9._]+`, required).
    pub fn name(mut self, name: &str) -> Self {
        self.rule.name = name.to_string();
        self
    }

    /// Flattened series name to watch (required).
    pub fn metric(mut self, metric: &str) -> Self {
        self.rule.metric = metric.to_string();
        self
    }

    /// Breach when the sample exceeds `bound` (the default kind).
    pub fn threshold(mut self, bound: f64) -> Self {
        self.rule.kind = AlertKind::Threshold;
        self.rule.threshold = bound;
        self
    }

    /// Breach when the per-second rate of change exceeds `bound`.
    pub fn rate_of_change(mut self, bound: f64) -> Self {
        self.rule.kind = AlertKind::RateOfChange;
        self.rule.threshold = bound;
        self
    }

    /// Consecutive breached evaluations before firing (default 1).
    pub fn for_samples(mut self, n: u32) -> Self {
        self.rule.for_samples = n;
        self
    }

    /// Validate and produce the rule.
    pub fn build(self) -> Result<AlertRule, AlertError> {
        self.rule.validate()?;
        Ok(self.rule)
    }
}

/// One state change, produced by [`AlertEngine::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Index of the rule in the engine (stable for a rule set).
    pub rule: u32,
    /// The rule's name.
    pub name: String,
    /// State before the evaluation.
    pub from: AlertState,
    /// State after the evaluation.
    pub to: AlertState,
    /// The signal value that drove the change (raw sample for
    /// threshold rules, per-second rate for rate rules).
    pub value: f64,
    /// Evaluation timestamp (virtual ns).
    pub at: u64,
}

/// Live evaluation state for one rule.
#[derive(Debug, Clone)]
struct RuleState {
    state: AlertState,
    /// Consecutive breached evaluations while pending/firing.
    breached: u32,
    /// Previous `(at, value)` sample, for rate-of-change rules.
    last: Option<(u64, f64)>,
    transitions: u64,
}

/// Point-in-time view of one rule, serialised on `/alerts`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertStatus {
    /// The rule definition.
    pub rule: AlertRule,
    /// Current state.
    pub state: AlertState,
    /// Consecutive breached evaluations.
    pub breached: u32,
    /// Total state transitions since engine start.
    pub transitions: u64,
    /// Last signal value evaluated (None before the first sample).
    pub value: Option<f64>,
}

impl ToJson for AlertStatus {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("rule".into(), Json::Str(self.rule.name.clone())),
            ("metric".into(), Json::Str(self.rule.metric.clone())),
            ("kind".into(), Json::Str(self.rule.kind.name().into())),
            ("threshold".into(), Json::F64(self.rule.threshold)),
            ("for_samples".into(), Json::U64(self.rule.for_samples as u64)),
            ("state".into(), Json::Str(self.state.name().into())),
            ("breached".into(), Json::U64(self.breached as u64)),
            ("transitions".into(), Json::U64(self.transitions)),
            (
                "value".into(),
                match self.value {
                    Some(v) => Json::F64(v),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Evaluates a fixed rule set against each publish's samples.
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    values: Vec<Option<f64>>,
}

impl AlertEngine {
    /// An engine with no rules (evaluation is a no-op).
    pub fn new() -> AlertEngine {
        AlertEngine::default()
    }

    /// Append rules to the engine. Existing rule states are kept —
    /// installing more rules never resets running hysteresis.
    pub fn install(&mut self, rules: Vec<AlertRule>) {
        for rule in rules {
            debug_assert!(rule.validate().is_ok(), "install expects built rules");
            self.rules.push(rule);
            self.states.push(RuleState {
                state: AlertState::Ok,
                breached: 0,
                last: None,
                transitions: 0,
            });
            self.values.push(None);
        }
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluate every rule against the sample source (`lookup` maps a
    /// series name to its newest value) and return the transitions, in
    /// rule order. Rules whose metric has no sample yet are skipped.
    pub fn evaluate(
        &mut self,
        at: u64,
        lookup: impl Fn(&str) -> Option<f64>,
    ) -> Vec<Transition> {
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let st = &mut self.states[i];
            let Some(sample) = lookup(&rule.metric) else {
                continue;
            };
            // Derive the signal: the sample itself, or its per-second
            // derivative against the previous evaluation's sample.
            let signal = match rule.kind {
                AlertKind::Threshold => Some(sample),
                AlertKind::RateOfChange => st.last.and_then(|(last_at, last_v)| {
                    let dt = at.saturating_sub(last_at);
                    if dt == 0 {
                        None
                    } else {
                        Some((sample - last_v) / (dt as f64 / 1e9))
                    }
                }),
            };
            st.last = Some((at, sample));
            let Some(signal) = signal else {
                continue;
            };
            self.values[i] = Some(signal);
            let breach = signal > rule.threshold;
            let next = match (st.state, breach) {
                (AlertState::Ok, true) | (AlertState::Resolved, true) => {
                    st.breached = 1;
                    if st.breached >= rule.for_samples {
                        AlertState::Firing
                    } else {
                        AlertState::Pending
                    }
                }
                (AlertState::Pending, true) => {
                    st.breached += 1;
                    if st.breached >= rule.for_samples {
                        AlertState::Firing
                    } else {
                        AlertState::Pending
                    }
                }
                (AlertState::Firing, true) => {
                    st.breached += 1;
                    AlertState::Firing
                }
                (AlertState::Pending, false) => {
                    st.breached = 0;
                    AlertState::Ok
                }
                (AlertState::Firing, false) => {
                    st.breached = 0;
                    AlertState::Resolved
                }
                (AlertState::Resolved, false) | (AlertState::Ok, false) => {
                    st.breached = 0;
                    AlertState::Ok
                }
            };
            if next != st.state {
                st.transitions += 1;
                out.push(Transition {
                    rule: i as u32,
                    name: rule.name.clone(),
                    from: st.state,
                    to: next,
                    value: signal,
                    at,
                });
                st.state = next;
            }
        }
        out
    }

    /// Point-in-time view of every rule, in install order.
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, rule)| AlertStatus {
                rule: rule.clone(),
                state: self.states[i].state,
                breached: self.states[i].breached,
                transitions: self.states[i].transitions,
                value: self.values[i],
            })
            .collect()
    }
}

/// The default rule set `FleetPublisher` installs:
///
/// * `trace_ring_drop_rate` — the trace ring is dropping events
///   (rate of `daos_obs_dropped_events` > 0/s, 2 samples);
/// * `monitor_overhead_permille` — monitoring overhead exceeds 5% of
///   runtime (`daos_obs_monitor_share_permille` > 50, 3 samples);
/// * `obs_http_503_rate` — the obs server is shedding load
///   (rate of `daos_obs_server_rejected_total` > 0/s, 2 samples).
pub fn default_rules() -> Vec<AlertRule> {
    // lint: allow(panic, the literals below are statically valid rules)
    vec![
        AlertRule::builder()
            .name("trace_ring_drop_rate")
            .metric("daos_obs_dropped_events")
            .rate_of_change(0.0)
            .for_samples(2)
            .build()
            .expect("static rule"), // lint: allow(panic, literal rule is statically valid)
        AlertRule::builder()
            .name("monitor_overhead_permille")
            .metric("daos_obs_monitor_share_permille")
            .threshold(50.0)
            .for_samples(3)
            .build()
            .expect("static rule"), // lint: allow(panic, literal rule is statically valid)
        AlertRule::builder()
            .name("obs_http_503_rate")
            .metric("daos_obs_server_rejected_total")
            .rate_of_change(0.0)
            .for_samples(2)
            .build()
            .expect("static rule"), // lint: allow(panic, literal rule is statically valid)
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(for_samples: u32) -> AlertRule {
        AlertRule::builder()
            .name("r")
            .metric("m")
            .threshold(10.0)
            .for_samples(for_samples)
            .build()
            .unwrap()
    }

    fn eval(e: &mut AlertEngine, at: u64, v: f64) -> Vec<(AlertState, AlertState)> {
        e.evaluate(at, |m| (m == "m").then_some(v))
            .into_iter()
            .map(|t| (t.from, t.to))
            .collect()
    }

    #[test]
    fn builder_validates() {
        assert_eq!(AlertRule::builder().build().unwrap_err(), AlertError::EmptyName);
        assert_eq!(
            AlertRule::builder().name("Bad Name").metric("m").build().unwrap_err(),
            AlertError::BadName("Bad Name".into())
        );
        assert_eq!(
            AlertRule::builder().name("r").build().unwrap_err(),
            AlertError::EmptyMetric
        );
        assert_eq!(
            AlertRule::builder().name("r").metric("m").threshold(f64::NAN).build().unwrap_err(),
            AlertError::NanThreshold
        );
        assert_eq!(
            AlertRule::builder().name("r").metric("m").for_samples(0).build().unwrap_err(),
            AlertError::ZeroForSamples
        );
        let r = AlertRule::builder().name("r.x_1").metric("m").rate_of_change(2.5).build().unwrap();
        assert_eq!(r.kind, AlertKind::RateOfChange);
        assert_eq!(r.threshold, 2.5);
        assert!(r.to_owned().validate().is_ok());
        assert!(AlertError::BadName("Bad".into()).to_string().contains("a-z0-9"));
    }

    #[test]
    fn hysteresis_walks_pending_firing_resolved() {
        let mut e = AlertEngine::new();
        e.install(vec![rule(3)]);
        assert!(eval(&mut e, 1, 5.0).is_empty(), "no breach, no transition");
        assert_eq!(eval(&mut e, 2, 20.0), vec![(AlertState::Ok, AlertState::Pending)]);
        assert!(eval(&mut e, 3, 20.0).is_empty(), "still pending (2 of 3)");
        assert_eq!(eval(&mut e, 4, 20.0), vec![(AlertState::Pending, AlertState::Firing)]);
        assert!(eval(&mut e, 5, 20.0).is_empty(), "stays firing");
        assert_eq!(eval(&mut e, 6, 5.0), vec![(AlertState::Firing, AlertState::Resolved)]);
        assert_eq!(eval(&mut e, 7, 5.0), vec![(AlertState::Resolved, AlertState::Ok)]);
        let s = &e.statuses()[0];
        assert_eq!(s.state, AlertState::Ok);
        assert_eq!(s.transitions, 4);
        assert_eq!(s.value, Some(5.0));
    }

    #[test]
    fn pending_clears_straight_to_ok() {
        let mut e = AlertEngine::new();
        e.install(vec![rule(3)]);
        eval(&mut e, 1, 20.0);
        assert_eq!(eval(&mut e, 2, 5.0), vec![(AlertState::Pending, AlertState::Ok)]);
    }

    #[test]
    fn for_samples_one_fires_immediately_and_rebreach_from_resolved() {
        let mut e = AlertEngine::new();
        e.install(vec![rule(1)]);
        assert_eq!(eval(&mut e, 1, 20.0), vec![(AlertState::Ok, AlertState::Firing)]);
        assert_eq!(eval(&mut e, 2, 5.0), vec![(AlertState::Firing, AlertState::Resolved)]);
        // A breach during the resolved grace step re-fires immediately.
        assert_eq!(eval(&mut e, 3, 20.0), vec![(AlertState::Resolved, AlertState::Firing)]);
    }

    #[test]
    fn rate_rule_needs_two_samples_and_divides_by_seconds() {
        let mut e = AlertEngine::new();
        e.install(vec![AlertRule::builder()
            .name("r")
            .metric("m")
            .rate_of_change(5.0)
            .for_samples(1)
            .build()
            .unwrap()]);
        // First sample: no predecessor, no signal, no transition.
        assert!(eval(&mut e, 1_000_000_000, 100.0).is_empty());
        // +20 over 2s = 10/s > 5/s → firing, with the rate as value.
        let t = e.evaluate(3_000_000_000, |_| Some(120.0));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].to, AlertState::Firing);
        assert!((t[0].value - 10.0).abs() < 1e-9);
        // Flat signal → 0/s → resolved.
        assert_eq!(
            eval(&mut e, 4_000_000_000, 120.0),
            vec![(AlertState::Firing, AlertState::Resolved)]
        );
        // Same-timestamp sample: skipped, state unchanged.
        assert!(eval(&mut e, 4_000_000_000, 500.0).is_empty());
    }

    #[test]
    fn missing_metric_skips_without_resetting() {
        let mut e = AlertEngine::new();
        e.install(vec![rule(2)]);
        eval(&mut e, 1, 20.0); // pending, breached=1
        assert!(e.evaluate(2, |_| None).is_empty());
        // Next breach continues the streak rather than restarting it.
        assert_eq!(eval(&mut e, 3, 20.0), vec![(AlertState::Pending, AlertState::Firing)]);
    }

    #[test]
    fn default_rules_are_valid_and_named() {
        let rules = default_rules();
        assert_eq!(rules.len(), 3);
        for r in &rules {
            assert!(r.validate().is_ok());
        }
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["trace_ring_drop_rate", "monitor_overhead_permille", "obs_http_503_rate"]
        );
    }

    #[test]
    fn status_serialises_to_json() {
        let mut e = AlertEngine::new();
        e.install(default_rules());
        let j = Json::Array(e.statuses().iter().map(|s| s.to_json()).collect());
        let text = j.to_string_compact();
        assert!(text.contains("\"trace_ring_drop_rate\""));
        assert!(text.contains("\"state\":\"ok\""));
        assert!(text.contains("\"value\":null"));
    }
}
