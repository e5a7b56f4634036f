//! `daos-lint` — machine-check the workspace invariants.
//!
//! ```text
//! USAGE: daos-lint [--root DIR] [--json] [--pass NAME] [--list-passes]
//! ```
//!
//! Exits 0 on a clean workspace; on findings it prints them (human
//! lines, or a JSON report with `--json`) and exits with
//! `EX_DATAERR` (65) via `DaosError::Lint`; usage errors exit 2.

use daos::DaosError;
use daos_lint::{all_passes, lint_workspace_filtered, report_json};
use std::path::PathBuf;

const USAGE: &str = "\
daos-lint — static analysis of the workspace invariants

USAGE:
    daos-lint [--root DIR] [--json] [--pass NAME] [--list-passes]

OPTIONS:
    --root DIR     workspace root to scan (default: .)
    --json         machine-readable report on stdout
    --pass NAME    run a single pass by name (fast local iteration)
    --list-passes  print every pass name, one per line, and exit

EXIT CODES:
    0   clean (no findings)
    65  findings reported (EX_DATAERR)
    2   usage error (unknown flag, bad --root, unknown --pass)

Passes: no-print, panic-discipline, determinism, atomic-ordering,
dead-tracepoint, metric-name-discipline, guard-discipline, dead-pub. See
DESIGN.md §11 for the catalogue and the `// lint: allow(<key>, <reason>)`
annotation grammar.
";

fn run() -> Result<(), DaosError> {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut pass: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => {
                root = PathBuf::from(args.next().ok_or_else(|| {
                    DaosError::usage("--root needs a directory argument")
                })?);
            }
            "--pass" => {
                pass = Some(args.next().ok_or_else(|| {
                    DaosError::usage("--pass needs a pass name (see --list-passes)")
                })?);
            }
            "--list-passes" => {
                for p in all_passes() {
                    println!("{}", p.name());
                }
                return Ok(());
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => {
                return Err(DaosError::usage(format!(
                    "unknown argument '{other}'\n\n{USAGE}"
                )));
            }
        }
    }
    if !root.join("Cargo.toml").is_file() {
        return Err(DaosError::usage(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        )));
    }

    let (ws, findings) = lint_workspace_filtered(&root, pass.as_deref())?;
    if json {
        println!("{}", report_json(&ws, &findings).to_string_compact());
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        if findings.is_empty() {
            println!("daos-lint: clean ({} files)", ws.files.len());
        }
    }
    if findings.is_empty() {
        Ok(())
    } else {
        Err(DaosError::Lint { findings: findings.len() })
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("daos-lint: {e}");
        std::process::exit(e.exit_code());
    }
}
