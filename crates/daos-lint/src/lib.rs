//! `daos-lint` — the workspace checks that need no type information.
//!
//! The repo's correctness story rests on invariants `rustc` cannot see.
//! Those that are about types — no printing from library code, panic
//! discipline, wall-clock-free simulation crates, every lock taken
//! through `daos_util::sync` — are clippy's: `clippy.toml` at the root
//! lists them and `scripts/verify.sh` denies them (DESIGN.md §11). This
//! crate checks the rest, which are about the tree's text: every atomic
//! ordering is justified by an `// ordering:` comment, every declared
//! tracepoint is emitted, every metric key is machine-parseable, and no
//! public item lacks a reader (`dead-pub`). It is a hand-rolled
//! comment/string/raw-string-aware [lexer], a per-file token-stream
//! [pass framework](lints::Pass), and a `daos-lint` binary (human and
//! `--json` output, sysexits codes via `DaosError`) that also counts each
//! package's live lines. See [`lints::all_passes`] for the catalogue.

pub mod lexer;
pub mod lints;
pub mod source;

pub use lints::{all_passes, run_filtered, Pass};
pub use source::{SourceFile, Workspace};

use daos_util::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::path::Path;

/// One lint finding: a workspace-invariant violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint that fired (e.g. `dead-pub`, or `annotation` for an
    /// `// ordering:` comment without a reason).
    pub lint: &'static str,
    /// Root-relative path of the offending file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Finding {
    /// A finding from a lint pass.
    pub fn new(
        lint: &'static str,
        file: &str,
        line: u32,
        message: String,
    ) -> Finding {
        Finding { lint, file: file.to_string(), line, message }
    }

    /// A finding about an annotation comment itself.
    pub fn annotation(file: &str, line: u32, message: String) -> Finding {
        Finding::new("annotation", file, line, message)
    }

    /// The `file:line: [lint] message` human rendering.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

impl ToJson for Finding {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("lint".into(), self.lint.to_json()),
            ("file".into(), self.file.to_json()),
            ("line".into(), u64::from(self.line).to_json()),
            ("message".into(), self.message.to_json()),
        ])
    }
}

/// Load `root` and run every lint: the one-call entry point the binary
/// and the self-check test share.
pub fn lint_workspace(root: &Path) -> Result<(Workspace, Vec<Finding>), daos::DaosError> {
    lint_workspace_filtered(root, None)
}

/// [`lint_workspace`], optionally restricted to a single pass by name
/// (`daos-lint --pass`). An unknown pass name is a usage error.
pub fn lint_workspace_filtered(
    root: &Path,
    pass: Option<&str>,
) -> Result<(Workspace, Vec<Finding>), daos::DaosError> {
    let ws = Workspace::load(root)?;
    let findings = run_filtered(&ws, pass).map_err(|unknown| {
        daos::DaosError::usage(format!(
            "unknown pass `{unknown}` (see daos-lint --list-passes)"
        ))
    })?;
    Ok((ws, findings))
}

/// [Live lines](SourceFile::live_lines) per package, keyed by the
/// root-relative directory of the nearest enclosing `Cargo.toml` (`.`
/// for the root package) — so a package nested below a crate's `src/`,
/// like the perf ledger, is counted on its own.
pub fn live_loc(ws: &Workspace) -> BTreeMap<String, u64> {
    let mut loc = BTreeMap::new();
    for f in &ws.files {
        let package = Path::new(&f.rel)
            .ancestors()
            .skip(1)
            .find(|dir| ws.root.join(dir).join("Cargo.toml").is_file())
            .map(|dir| dir.to_string_lossy().into_owned())
            .filter(|dir| !dir.is_empty())
            .unwrap_or_else(|| ".".to_string());
        *loc.entry(package).or_insert(0) += f.live_lines() as u64;
    }
    loc
}

/// The `--json` report: machine-readable mirror of the human output,
/// plus the per-package live-LOC count.
pub fn report_json(ws: &Workspace, findings: &[Finding]) -> Json {
    let live_loc = live_loc(ws).into_iter().map(|(package, n)| (package, n.to_json())).collect();
    Json::Object(vec![
        ("clean".into(), findings.is_empty().to_json()),
        ("files_scanned".into(), (ws.files.len() as u64).to_json()),
        ("live_loc".into(), Json::Object(live_loc)),
        (
            "lints".into(),
            Json::Array(all_passes().iter().map(|p| p.name().to_json()).collect()),
        ),
        (
            "findings".into(),
            Json::Array(findings.iter().map(ToJson::to_json).collect()),
        ),
    ])
}
