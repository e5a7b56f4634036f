//! The `reproduce` entry: figures run by name, and a name it does not
//! know stops it before any figure runs.

use std::path::PathBuf;
use std::process::{Command, Output};

const FIGURES: [&str; 13] = [
    "table1_actions",
    "table2_machines",
    "fig3_patterns",
    "fig4_score_sweep",
    "fig5_estimation",
    "fig6_heatmaps",
    "fig7_overhead_benefit",
    "fig8_autotune",
    "fig9_production",
    "ablation_adaptive",
    "ablation_tuner",
    "ext_damon_reclaim",
    "ext_lru_sort",
];

/// Run `reproduce args` with a fresh, not yet created results directory.
fn reproduce(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let results = std::env::temp_dir().join(format!("daos_reproduce_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .env("DAOS_RESULTS", &results)
        .output()
        .expect("reproduce runs");
    (out, results)
}

#[test]
fn an_unknown_name_exits_2_before_any_figure_runs() {
    let (out, results) = reproduce("unknown", &["nosuch", "table2_machines"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nosuch"), "{stderr}");
    for name in FIGURES {
        assert!(stderr.contains(name), "stderr does not list {name}: {stderr}");
    }
    assert!(out.stdout.is_empty(), "a figure ran: {}", String::from_utf8_lossy(&out.stdout));
    let written = std::fs::read_dir(&results).map_or(0, |dir| dir.count());
    assert_eq!(written, 0, "files written into {}", results.display());
}

#[test]
fn a_named_figure_prints_and_writes_its_table() {
    let (out, results) = reproduce("table2", &["table2_machines"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Instance type  CPU"), "{stdout}");
    let csv = std::fs::read_to_string(results.join("table2_machines.csv")).expect("CSV written");
    assert!(csv.starts_with("Instance type,"), "{csv}");
    let _ = std::fs::remove_dir_all(&results);
}
