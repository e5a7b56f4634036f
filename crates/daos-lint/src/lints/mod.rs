//! The pass framework: a lint is a [`Pass`] over the loaded
//! [`Workspace`]; most walk one file's comment-free token stream via
//! `Code`. Adding a lint is: write a module with a `Pass` impl and list
//! it in [`all_passes`].

use crate::lexer::TokenKind;
use crate::source::{SourceFile, Workspace};
use crate::Finding;

mod atomic_ordering;
mod dead_pub;
mod dead_tracepoint;
mod metric_name;

/// One static-analysis pass.
pub trait Pass {
    /// The lint's name, as reported in findings (`dead-pub`).
    fn name(&self) -> &'static str;
    /// Run the pass over the workspace, appending findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Every shipped lint, in reporting order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(atomic_ordering::AtomicOrdering),
        Box::new(dead_tracepoint::DeadTracepoint),
        Box::new(metric_name::MetricName),
        Box::new(dead_pub::DeadPub),
    ]
}

/// Run every pass — or only the one named by `only` (the `daos-lint
/// --pass` fast path) — and return the findings sorted by `(file, line,
/// lint)` (message as the final tiebreak, so the order is fully
/// deterministic). An `// ordering:` comment without a reason is itself
/// a finding, included in unfiltered runs only. `Err` carries the
/// unknown pass name.
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
        pass.check(ws, &mut findings);
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
