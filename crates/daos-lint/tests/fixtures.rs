//! End-to-end lint runs over the seeded fixture workspaces under
//! `tests/fixtures/`. The `violations/` tree trips every lint at least
//! once; the `clean/` tree is all bait (raw strings, nested block
//! comments, test modules, annotated sites, public items read only by an
//! integration test, an example, another crate's `use` or a generic
//! bound, methods read only by a `.method()` call or a `Type::method`
//! path) and must produce nothing.

use daos_lint::{lint_workspace, Finding};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> Vec<Finding> {
    lint_workspace(&fixture(name)).expect("fixture workspace loads").1
}

fn count(findings: &[Finding], lint: &str) -> usize {
    findings.iter().filter(|f| f.lint == lint).count()
}

#[test]
fn violations_fixture_trips_every_lint() {
    let findings = lint("violations");
    let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
    let ctx = rendered.join("\n");

    assert_eq!(count(&findings, "no-print"), 2, "{ctx}");
    assert_eq!(count(&findings, "panic-discipline"), 4, "{ctx}");
    assert_eq!(count(&findings, "determinism"), 2, "{ctx}");
    assert_eq!(count(&findings, "atomic-ordering"), 2, "{ctx}");
    assert_eq!(count(&findings, "dead-tracepoint"), 1, "{ctx}");
    assert_eq!(count(&findings, "metric-name-discipline"), 1, "{ctx}");
    assert_eq!(count(&findings, "annotation"), 1, "{ctx}");
    assert_eq!(count(&findings, "guard-discipline"), 2, "{ctx}");
    assert_eq!(count(&findings, "dead-pub"), 8, "{ctx}");
    assert_eq!(findings.len(), 23, "{ctx}");

    // Both raw acquisitions fire — the hand-recovered one and the bare
    // `.lock().unwrap()` (which trips panic-discipline too, counted
    // above) — each naming the funnel to use instead.
    for f in findings.iter().filter(|f| f.lint == "guard-discipline") {
        assert_eq!(f.file, "crates/app/src/lib.rs", "{ctx}");
        assert!(f.message.contains("`.lock()`"), "{ctx}");
        assert!(f.message.contains("daos_util::sync::lock"), "{ctx}");
    }
}

#[test]
fn violations_fixture_details() {
    let findings = lint("violations");

    // The multiline eprintln! the old grep guard missed is caught.
    assert!(findings
        .iter()
        .any(|f| f.lint == "no-print" && f.message.contains("eprintln")));

    // Only the never-emitted variant is dead; the emitted one is not.
    assert!(findings
        .iter()
        .any(|f| f.lint == "dead-tracepoint" && f.message.contains("`Dead`")));
    assert!(!findings.iter().any(|f| f.message.contains("`Alive`")));

    // dead-pub: unnamed, named only by its own tests, only by a `pub
    // use`, only in a comment and a string, and four methods named only
    // by a field, a local, a parameter and a module — and nothing else,
    // because the integration test reads every other bait item.
    let mut dead: Vec<&str> = findings
        .iter()
        .filter(|f| f.lint == "dead-pub")
        .map(|f| f.message.split('`').nth(1).expect("named item"))
        .collect();
    dead.sort();
    assert_eq!(
        dead,
        [
            "MENTIONED", "Reexported", "by_field", "by_local", "by_module", "by_param",
            "test_only", "unread",
        ]
    );

    // The reason-less `// lint: allow(panic)` is itself the finding and
    // suppresses nothing: the `.expect()` it hovers over still fires.
    let half_line = findings
        .iter()
        .find(|f| f.lint == "annotation")
        .map(|f| f.line)
        .expect("annotation finding present");
    assert!(findings
        .iter()
        .any(|f| f.lint == "panic-discipline" && f.line > half_line));

    // Test-module unwraps are masked: every panic finding in the
    // daos-mm fixture file sits before its `#[cfg(test)]` module.
    assert!(findings
        .iter()
        .filter(|f| f.lint == "panic-discipline"
            && f.file == "crates/daos-mm/src/lib.rs")
        .all(|f| f.line < 21));
}

#[test]
fn clean_fixture_produces_no_findings() {
    let findings = lint("clean");
    let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
    assert!(findings.is_empty(), "clean fixture flagged:\n{}", rendered.join("\n"));
}

#[test]
fn findings_are_sorted_and_render_stably() {
    let findings = lint("violations");
    let keys: Vec<(&str, u32, &str)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.lint))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must be ordered by (file, line, lint)");
    for f in &findings {
        assert_eq!(
            f.render(),
            format!("{}:{}: [{}] {}", f.file, f.line, f.lint, f.message)
        );
    }
}
