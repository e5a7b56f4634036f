//! **metric-name-discipline** — registry keys are machine-parseable.
//!
//! Every string literal handed to `counter_add` / `gauge_set` /
//! `hist_record` / `hist_insert` becomes a Prometheus family name via
//! `prom::mangle` (non-alphanumerics collapse to `_`) and a metric
//! history series key behind `/query`. A key outside `[a-z0-9._]`
//! either aliases with another key after mangling (`a-b` and `a.b`
//! both export as `daos_a_b`) or silently sprouts a new family from a
//! typo'd case. Keys built with `format!` (per-scheme, per-tenant)
//! are exempt — the labelled-prefix fold owns their shape.

use super::{Code, Pass};
use crate::lexer::TokenKind;
use crate::source::Workspace;
use crate::Finding;

/// The registry entry points that accept a metric key.
const SINKS: [&str; 4] = ["counter_add", "gauge_set", "hist_record", "hist_insert"];

pub struct MetricName;

impl Pass for MetricName {
    fn name(&self) -> &'static str {
        "metric-name-discipline"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            let c = Code::new(file);
            for i in 0..c.len() {
                if c.kind(i) != TokenKind::Ident
                    || !SINKS.contains(&c.text(i))
                    || !c.is(i + 1, "(")
                    || i + 2 >= c.len()
                    || c.kind(i + 2) != TokenKind::Str
                {
                    continue;
                }
                let Some(key) = literal_content(c.text(i + 2)) else { continue };
                if key.is_empty()
                    || !key.chars().all(|ch| ch.is_ascii_lowercase()
                        || ch.is_ascii_digit()
                        || ch == '.'
                        || ch == '_')
                {
                    out.push(Finding::new(
                        self.name(),
                        &file.rel,
                        c.line(i),
                        format!(
                            "metric key \"{key}\" passed to `{}` must match \
                             [a-z0-9._]+ (it becomes a /metrics family and a \
                             /query series name)",
                            c.text(i)
                        ),
                    ));
                }
            }
        }
    }
}

/// The content of a string-literal token: everything between the first
/// and last `"` (covers plain and raw literals; metric keys never
/// contain escapes).
fn literal_content(lit: &str) -> Option<&str> {
    let (_, rest) = lit.split_once('"')?;
    let (key, _) = rest.rsplit_once('"')?;
    Some(key)
}
