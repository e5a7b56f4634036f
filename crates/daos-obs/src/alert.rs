//! Threshold and rate-of-change alert rules over the metric history.
//!
//! The rules are the literal [`DEFAULT_RULES`] table, evaluated by the
//! [`AlertEngine`] on every publish. Evaluation has hysteresis: a breach
//! moves a rule to *pending* and it must stay breached for
//! `for_samples` consecutive evaluations before *firing*;
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
//! exports per-rule state and transition counts as `daos_alert_*`.

use daos_util::json::{Json, ToJson};

/// Alert rule evaluation states — the trace layer's tag, so a
/// [`Transition`] goes into an `AlertTransition` event as it is.
/// Exported as `daos_alert_state{rule=…}` by discriminant: 0 = ok,
/// 1 = pending, 2 = firing, 3 = resolved.
pub use daos_trace::AlertStateTag as AlertState;

/// Lowercase state name (used in JSON and the CLI table).
fn state_name(state: AlertState) -> &'static str {
    match state {
        AlertState::Ok => "ok",
        AlertState::Pending => "pending",
        AlertState::Firing => "firing",
        AlertState::Resolved => "resolved",
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

/// One alert rule: watch `metric`, breach per `kind` against
/// `threshold`, fire after `for_samples` consecutive breaches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertRule {
    /// Rule name, `[a-z0-9._]+` — the `rule=` label on `/metrics`.
    pub name: &'static str,
    /// The flattened series name to watch (e.g. `daos_obs_wss_bytes`).
    pub metric: &'static str,
    /// Threshold or rate-of-change.
    pub kind: AlertKind,
    /// Breach bound (units of the metric, or metric/second for rate).
    pub threshold: f64,
    /// Consecutive breached evaluations before firing (≥ 1).
    pub for_samples: u32,
}

/// One state change, produced by [`AlertEngine::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Index of the rule in the engine (stable for a rule set).
    pub rule: u32,
    /// The rule's name.
    pub name: &'static str,
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
            ("rule".into(), Json::Str(self.rule.name.into())),
            ("metric".into(), Json::Str(self.rule.metric.into())),
            ("kind".into(), Json::Str(self.rule.kind.name().into())),
            ("threshold".into(), Json::F64(self.rule.threshold)),
            ("for_samples".into(), Json::U64(self.rule.for_samples as u64)),
            ("state".into(), Json::Str(state_name(self.state).into())),
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
    pub fn install(&mut self, rules: &[AlertRule]) {
        for rule in rules {
            self.rules.push(*rule);
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
            let Some(sample) = lookup(rule.metric) else {
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
                    name: rule.name,
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
                rule: *rule,
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
/// * `monitor_overhead_permille` — monitoring takes more than 5% of
///   the fleet's CPU time (`daos_obs_monitor_share_permille` > 50,
///   3 samples);
/// * `obs_http_503_rate` — the obs server is shedding load
///   (rate of `daos_obs_server_rejected_total` > 0/s, 2 samples).
pub const DEFAULT_RULES: [AlertRule; 3] = [
    AlertRule {
        name: "trace_ring_drop_rate",
        metric: "daos_obs_dropped_events",
        kind: AlertKind::RateOfChange,
        threshold: 0.0,
        for_samples: 2,
    },
    AlertRule {
        name: "monitor_overhead_permille",
        metric: "daos_obs_monitor_share_permille",
        kind: AlertKind::Threshold,
        threshold: 50.0,
        for_samples: 3,
    },
    AlertRule {
        name: "obs_http_503_rate",
        metric: "daos_obs_server_rejected_total",
        kind: AlertKind::RateOfChange,
        threshold: 0.0,
        for_samples: 2,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(for_samples: u32) -> AlertRule {
        AlertRule {
            name: "r",
            metric: "m",
            kind: AlertKind::Threshold,
            threshold: 10.0,
            for_samples,
        }
    }

    fn eval(e: &mut AlertEngine, at: u64, v: f64) -> Vec<(AlertState, AlertState)> {
        e.evaluate(at, |m| (m == "m").then_some(v))
            .into_iter()
            .map(|t| (t.from, t.to))
            .collect()
    }

    #[test]
    fn hysteresis_walks_pending_firing_resolved() {
        let mut e = AlertEngine::new();
        e.install(&[rule(3)]);
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
        e.install(&[rule(3)]);
        eval(&mut e, 1, 20.0);
        assert_eq!(eval(&mut e, 2, 5.0), vec![(AlertState::Pending, AlertState::Ok)]);
    }

    #[test]
    fn for_samples_one_fires_immediately_and_rebreach_from_resolved() {
        let mut e = AlertEngine::new();
        e.install(&[rule(1)]);
        assert_eq!(eval(&mut e, 1, 20.0), vec![(AlertState::Ok, AlertState::Firing)]);
        assert_eq!(eval(&mut e, 2, 5.0), vec![(AlertState::Firing, AlertState::Resolved)]);
        // A breach during the resolved grace step re-fires immediately.
        assert_eq!(eval(&mut e, 3, 20.0), vec![(AlertState::Resolved, AlertState::Firing)]);
    }

    #[test]
    fn rate_rule_needs_two_samples_and_divides_by_seconds() {
        let mut e = AlertEngine::new();
        e.install(&[AlertRule { kind: AlertKind::RateOfChange, threshold: 5.0, ..rule(1) }]);
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
        e.install(&[rule(2)]);
        eval(&mut e, 1, 20.0); // pending, breached=1
        assert!(e.evaluate(2, |_| None).is_empty());
        // Next breach continues the streak rather than restarting it.
        assert_eq!(eval(&mut e, 3, 20.0), vec![(AlertState::Pending, AlertState::Firing)]);
    }

    #[test]
    fn default_rules_are_valid_and_named() {
        let ok = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_';
        for r in &DEFAULT_RULES {
            assert!(!r.name.is_empty() && r.name.chars().all(ok), "{r:?}");
            assert!(!r.metric.is_empty() && !r.threshold.is_nan() && r.for_samples >= 1, "{r:?}");
        }
        let names: Vec<&str> = DEFAULT_RULES.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            ["trace_ring_drop_rate", "monitor_overhead_permille", "obs_http_503_rate"]
        );
    }

    #[test]
    fn status_serialises_to_json() {
        let mut e = AlertEngine::new();
        e.install(&DEFAULT_RULES);
        let j = Json::Array(e.statuses().iter().map(|s| s.to_json()).collect());
        let text = j.to_string_compact();
        assert!(text.contains("\"trace_ring_drop_rate\""));
        assert!(text.contains("\"state\":\"ok\""));
        assert!(text.contains("\"value\":null"));
    }
}
