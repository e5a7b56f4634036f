//! A served run's status lines go to stderr, so `daos trace --serve
//! ADDR` without `--out` writes the trace and nothing else to stdout —
//! the same trace as without `--serve`.

use std::process::{Command, Output};

fn daos(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_daos")).args(args).output().expect("daos runs");
    assert!(out.status.success(), "daos {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

#[test]
fn a_served_trace_writes_only_the_trace_to_stdout() {
    let line = ["trace", "parsec3/freqmine", "--config", "rec", "--epochs", "40", "--seed", "42"];
    let served = daos(&[&line[..], &["--serve", "127.0.0.1:0"]].concat());
    let stderr = String::from_utf8_lossy(&served.stderr);
    assert!(stderr.starts_with("serving observability on 127.0.0.1:"), "{stderr}");
    let stdout = String::from_utf8(served.stdout).expect("a trace is UTF-8");
    let doc = daos_trace::parse_export(&stdout).expect("stdout is trace JSONL");
    assert!(!doc.events.is_empty(), "the trace holds no events");
    assert_eq!(stdout.as_bytes(), daos(&line).stdout, "serving changed the trace");
}
