//! The workspace must satisfy its own invariants — `daos-lint` run
//! against this very repo comes back clean — and the binary must speak
//! sysexits: 0 on clean, `EX_DATAERR` (65) on findings, 2 on usage.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `crates/daos-lint` → the repo root two levels up.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the repo root")
        .to_path_buf()
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_daos-lint"))
        .args(args)
        .output()
        .expect("daos-lint binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn workspace_is_lint_clean() {
    let (ws, findings) = daos_lint::lint_workspace(&repo_root()).expect("repo loads");
    let rendered: Vec<String> =
        findings.iter().map(daos_lint::Finding::render).collect();
    assert!(
        findings.is_empty(),
        "the workspace must be lint-clean:\n{}",
        rendered.join("\n")
    );
    // Sanity: the scan actually covered the repo, not an empty dir.
    assert!(ws.files.len() > 50, "only {} files scanned", ws.files.len());
}

#[test]
fn the_only_raw_acquisitions_are_in_the_funnel() {
    // `clippy.toml` forbids `Mutex::lock` and `RwLock::read`/`write`
    // (scripts/verify.sh denies the lint); an allowance names the lint in
    // an attribute. The funnel, `daos_util::sync`, must hold the only one,
    // so every other acquisition goes through it.
    const FUNNEL: &str = "crates/daos-util/src/sync.rs";
    let root = repo_root();
    let rules = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    for method in ["std::sync::Mutex::lock", "std::sync::RwLock::read", "std::sync::RwLock::write"] {
        assert!(rules.contains(&format!("\"{method}\"")), "clippy.toml lacks {method}");
    }
    let ws = daos_lint::Workspace::load(&root).expect("repo loads");
    let mut allowances = Vec::new();
    for f in ws.files.iter().chain(&ws.readers) {
        let code = f.code();
        let text = |k: usize| f.text(&f.tokens[code[k]]);
        for k in 3..code.len() {
            if [text(k - 3), text(k - 2), text(k - 1), text(k)] == ["clippy", ":", ":", "disallowed_methods"] {
                allowances.push(format!("{}:{}", f.rel, f.tokens[code[k]].line));
            }
        }
    }
    assert_eq!(allowances.len(), 1, "{allowances:?}");
    assert!(allowances[0].starts_with(FUNNEL), "{allowances:?}");
}

#[test]
fn binary_lists_and_filters_passes() {
    let (code, stdout, _) = run(&["--list-passes"]);
    assert_eq!(code, 0);
    let listed: Vec<&str> = stdout.lines().collect();
    let expected: Vec<&str> =
        daos_lint::all_passes().iter().map(|p| p.name()).collect::<Vec<_>>();
    assert_eq!(listed, expected, "--list-passes must mirror all_passes()");
    assert_eq!(
        listed,
        ["atomic-ordering", "dead-tracepoint", "metric-name-discipline", "dead-pub"]
    );

    // A single-pass run over the violations fixture reports only that
    // pass's findings.
    let dirty = fixture("violations");
    let (code, stdout, _) = run(&[
        "--pass",
        "metric-name-discipline",
        "--root",
        dirty.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(code, 65, "{stdout}");
    assert!(stdout.contains("[metric-name-discipline]"), "{stdout}");
    assert!(!stdout.contains("[dead-pub]"), "--pass must filter: {stdout}");

    let (code, _, stderr) = run(&["--pass", "bogus"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown pass"), "{stderr}");
}

#[test]
fn binary_output_is_deterministic() {
    let dirty = fixture("violations");
    let args = ["--json", "--root", dirty.to_str().expect("utf-8 path")];
    let (_, first, _) = run(&args);
    let (_, second, _) = run(&args);
    assert_eq!(first, second, "repeat runs must be byte-identical");
    // The report's lint list is the pass roster: dead-pub is in it, the
    // deleted passes are not.
    assert!(first.contains("\"dead-pub\""), "{first}");
    for gone in ["lock-order", "no-registry-deps", "no-print", "panic-discipline", "determinism", "guard-discipline"] {
        assert!(!first.contains(&format!("\"{gone}\"")), "{first}");
    }
}

#[test]
fn binary_is_clean_and_quietly_successful_on_this_repo() {
    let root = repo_root();
    let (code, stdout, _) = run(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(code, 0, "stdout:\n{stdout}");
    assert!(stdout.contains("daos-lint: clean"));
}

#[test]
fn binary_exits_dataerr_on_the_violations_fixture() {
    let dirty = fixture("violations");
    let (code, stdout, stderr) = run(&["--root", dirty.to_str().expect("utf-8 path")]);
    assert_eq!(code, 65, "EX_DATAERR via DaosError::Lint; stdout:\n{stdout}");
    assert!(stdout.contains("[dead-pub]"), "{stdout}");
    assert!(stderr.contains("workspace invariant violation"), "{stderr}");
}

#[test]
fn binary_json_report_is_machine_readable() {
    let dirty = fixture("violations");
    let (code, stdout, _) =
        run(&["--json", "--root", dirty.to_str().expect("utf-8 path")]);
    assert_eq!(code, 65);
    assert!(stdout.starts_with('{') && stdout.trim_end().ends_with('}'));
    assert!(stdout.contains("\"clean\":false"), "{stdout}");
    assert!(stdout.contains("\"lint\":\"atomic-ordering\""), "{stdout}");

    let clean = fixture("clean");
    let (code, stdout, _) =
        run(&["--json", "--root", clean.to_str().expect("utf-8 path")]);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"clean\":true"), "{stdout}");
    assert!(stdout.contains("\"findings\":[]"), "{stdout}");
    assert!(stdout.contains("\"live_loc\":{\"crates/"), "{stdout}");
}

#[test]
fn binary_usage_errors_exit_2() {
    let (code, _, stderr) = run(&["--bogus"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown argument"), "{stderr}");

    let (code, _, stderr) = run(&["--root", "/nonexistent/nowhere"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("workspace root"), "{stderr}");

    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("dead-pub"), "--help names every pass: {stdout}");
}
