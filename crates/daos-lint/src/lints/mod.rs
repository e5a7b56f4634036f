//! The pass framework: a lint is a [`Pass`] over the loaded
//! [`Workspace`]; most walk one file's comment-free token stream via
//! `Code`. Adding a lint is: write a module with a `Pass` impl, list
//! it in [`all_passes`], and (if it supports `// lint: allow(…)`
//! suppression) give it an allow key in [`ALLOW_KEYS`].

use crate::lexer::TokenKind;
use crate::source::{SourceFile, Workspace};
use crate::Finding;

mod atomic_ordering;
mod dead_pub;
mod dead_tracepoint;
mod determinism;
mod guard_discipline;
mod metric_name;
mod no_print;
mod panic_discipline;

/// One static-analysis pass.
pub trait Pass {
    /// The lint's name, as reported in findings (`panic-discipline`).
    fn name(&self) -> &'static str;
    /// The short key `// lint: allow(<key>, <reason>)` uses to suppress
    /// this lint, or `""` if it cannot be suppressed from source.
    fn allow_key(&self) -> &'static str {
        ""
    }
    /// Run the pass over the workspace, appending findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// The allow keys annotations may name (one per suppressible lint).
pub const ALLOW_KEYS: [&str; 7] =
    ["print", "panic", "time", "ordering", "tracepoint", "metric", "guard"];

/// Every shipped lint, in reporting order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(no_print::NoPrint),
        Box::new(panic_discipline::PanicDiscipline),
        Box::new(determinism::Determinism),
        Box::new(atomic_ordering::AtomicOrdering),
        Box::new(dead_tracepoint::DeadTracepoint),
        Box::new(metric_name::MetricName),
        Box::new(guard_discipline::GuardDiscipline),
        Box::new(dead_pub::DeadPub),
    ]
}

/// Run every pass — or only the one named by `only` (the `daos-lint
/// --pass` fast path) — apply `// lint: allow(…)` suppression, and
/// return the surviving findings sorted by `(file, line, lint)` (message
/// as the final tiebreak, so the order is fully deterministic).
/// Malformed annotations are themselves findings (never suppressible),
/// included in unfiltered runs only. `Err` carries the unknown pass
/// name.
pub fn run_filtered(ws: &Workspace, only: Option<&str>) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    if only.is_none() {
        for f in &ws.files {
            findings.extend(f.annotation_findings.iter().cloned());
        }
    }
    let mut matched = false;
    for pass in all_passes() {
        if only.is_some_and(|name| name != pass.name()) {
            continue;
        }
        matched = true;
        let mut raw = Vec::new();
        pass.check(ws, &mut raw);
        let key = pass.allow_key();
        raw.retain(|fd| {
            key.is_empty()
                || !ws
                    .files
                    .iter()
                    .any(|sf| sf.rel == fd.file && sf.allowed(key, fd.line))
        });
        findings.extend(raw);
    }
    if let Some(name) = only {
        if !matched {
            return Err(name.to_string());
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    Ok(findings)
}

/// A file's comment-free token stream, indexed densely — the view
/// every per-file pass pattern-matches over.
pub(crate) struct Code<'f> {
    file: &'f SourceFile,
    idx: Vec<usize>,
}

impl<'f> Code<'f> {
    pub fn new(file: &'f SourceFile) -> Code<'f> {
        Code { file, idx: file.code() }
    }

    pub fn len(&self) -> usize {
        self.idx.len()
    }

    pub fn kind(&self, i: usize) -> TokenKind {
        self.file.tokens[self.idx[i]].kind
    }

    pub fn text(&self, i: usize) -> &'f str {
        self.file.text(&self.file.tokens[self.idx[i]])
    }

    pub fn line(&self, i: usize) -> u32 {
        self.file.tokens[self.idx[i]].line
    }

    pub fn in_test(&self, i: usize) -> bool {
        self.file.in_test[self.idx[i]]
    }

    /// Token `i` exists and its text is exactly `s`.
    pub fn is(&self, i: usize, s: &str) -> bool {
        i < self.len() && self.text(i) == s
    }

    /// Token `i` is an identifier with text `s`.
    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        i < self.len() && self.kind(i) == TokenKind::Ident && self.text(i) == s
    }
}

/// Shared exemption: the CLI crate and `src/bin/` report binaries are
/// user-facing programs, not library code.
pub(crate) fn is_binary_code(f: &SourceFile) -> bool {
    f.crate_name.as_deref() == Some("daos-cli") || f.rel.contains("/src/bin/")
}
