//! End-to-end lint runs over the seeded fixture workspaces under
//! `tests/fixtures/`. The `violations/` tree trips every lint at least
//! once; the `clean/` tree is all bait (raw strings, nested block
//! comments, test modules, justified orderings, public items read only by an
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

    assert_eq!(count(&findings, "atomic-ordering"), 2, "{ctx}");
    assert_eq!(count(&findings, "dead-tracepoint"), 1, "{ctx}");
    assert_eq!(count(&findings, "metric-name-discipline"), 1, "{ctx}");
    assert_eq!(count(&findings, "annotation"), 1, "{ctx}");
    assert_eq!(count(&findings, "dead-pub"), 8, "{ctx}");
    assert_eq!(findings.len(), 13, "{ctx}");
}

#[test]
fn violations_fixture_details() {
    let findings = lint("violations");

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

    // The reason-less `// ordering:` is itself the finding and justifies
    // nothing: the store on the line below it still fires.
    let empty = findings
        .iter()
        .find(|f| f.lint == "annotation")
        .map(|f| f.line)
        .expect("annotation finding present");
    assert!(findings
        .iter()
        .any(|f| f.lint == "atomic-ordering" && f.line == empty + 1));
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
