//! **dead-tracepoint** — every declared event variant is emitted.
//!
//! Cross-references the `events! { … }` taxonomy (daos-trace's
//! one-variant-per-tracepoint enum) against every `trace!(at, Variant
//! { … })` emission site in the workspace. A variant nobody emits is a
//! dead tracepoint: the offline report tooling and dashboards would
//! carry schema, decode arms and documentation for data that can never
//! exist. `span!` sites count as emitting `SpanEnter` and `SpanExit`,
//! and direct `emit(at, Event::Variant { … })` calls — what `trace!`
//! expands to, used when a site loops under one `enabled()` check —
//! count for the variant they construct. Pattern matches (`match` arms
//! over `Event::…`) do not count: consuming an event is not emitting
//! it.

use super::{Code, Pass};
use crate::lexer::TokenKind;
use crate::source::Workspace;
use crate::Finding;

pub struct DeadTracepoint;

impl Pass for DeadTracepoint {
    fn name(&self) -> &'static str {
        "dead-tracepoint"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // (variant, defining file, line) from every `events!` block.
        let mut declared: Vec<(String, String, u32)> = Vec::new();
        // Variant names some `trace!` emits (or `span!` implies).
        let mut emitted: Vec<String> = Vec::new();

        for file in &ws.files {
            let c = Code::new(file);
            for i in 0..c.len() {
                if c.kind(i) != TokenKind::Ident {
                    continue;
                }
                match c.text(i) {
                    "events" if c.is(i + 1, "!") && c.is(i + 2, "{") => {
                        collect_variants(&c, i + 2, &file.rel, &mut declared);
                    }
                    "trace" if c.is(i + 1, "!") && c.is(i + 2, "(") => {
                        if let Some(v) = emitted_variant(&c, i + 2) {
                            emitted.push(v);
                        }
                    }
                    "span" if c.is(i + 1, "!") && c.is(i + 2, "(") => {
                        emitted.push("SpanEnter".into());
                        emitted.push("SpanExit".into());
                    }
                    "emit" if c.is(i + 1, "(") => {
                        emitted.extend(constructed_variants(&c, i + 1));
                    }
                    _ => {}
                }
            }
        }

        for (variant, file, line) in declared {
            if !emitted.iter().any(|e| *e == variant) {
                out.push(Finding::new(
                    self.name(),
                    &file,
                    line,
                    format!(
                        "event variant `{variant}` is declared but no \
                         `trace!`/`span!` site ever emits it"
                    ),
                ));
            }
        }
    }
}

/// Variants inside an `events! { … }` block: idents at nesting depth 1
/// (relative to the block's `{`) that are directly followed by `{`.
fn collect_variants(
    c: &Code<'_>,
    open: usize,
    rel: &str,
    out: &mut Vec<(String, String, u32)>,
) {
    let mut depth = 0isize;
    let mut i = open;
    while i < c.len() {
        match c.text(i) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
            _ => {
                if depth == 1
                    && c.kind(i) == TokenKind::Ident
                    && c.is(i + 1, "{")
                {
                    out.push((c.text(i).to_string(), rel.to_string(), c.line(i)));
                }
            }
        }
        i += 1;
    }
}

/// Variants a raw `emit(at, Event::Variant { … })` call constructs:
/// every `Event::X` path inside the call's parentheses.
fn constructed_variants(c: &Code<'_>, open: usize) -> Vec<String> {
    let mut depth = 0isize;
    let mut i = open;
    let mut out = Vec::new();
    while i < c.len() {
        match c.text(i) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return out;
                }
            }
            "Event"
                if c.kind(i) == TokenKind::Ident
                    && c.is(i + 1, ":")
                    && c.is(i + 2, ":")
                    && i + 3 < c.len()
                    && c.kind(i + 3) == TokenKind::Ident =>
            {
                out.push(c.text(i + 3).to_string());
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The variant a `trace!(at, Variant { … })` site emits: the first
/// identifier after the first depth-1 comma of the macro's parens.
fn emitted_variant(c: &Code<'_>, open: usize) -> Option<String> {
    let mut depth = 0isize;
    let mut i = open;
    let mut seen_comma = false;
    while i < c.len() {
        match c.text(i) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            "," if depth == 1 && !seen_comma => seen_comma = true,
            _ => {
                if seen_comma && c.kind(i) == TokenKind::Ident {
                    return Some(c.text(i).to_string());
                }
            }
        }
        i += 1;
    }
    None
}
