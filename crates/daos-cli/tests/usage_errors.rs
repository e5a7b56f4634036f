//! The `daos` binary speaks sysexits: on a bad command line exit 2, on
//! a malformed input file exit 65, each with one `error:` line naming
//! what was wrong — never a panic's backtrace (exit 101), an abort, a
//! hang, or a run of the defaults.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `daos` with `args` and return its exit code and stderr. A run
/// still going after a minute is killed and fails the test.
fn run(args: &[&str]) -> (i32, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_daos"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daos binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("daos binary waits").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("daos {args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("daos binary exits");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn binary_usage_errors_exit_2() {
    let trace = std::env::temp_dir().join("daos_cli_usage_errors_trace.jsonl");
    let trace = trace.to_str().expect("utf-8 temp path");
    let traced = ["trace", "parsec3/freqmine", "--config", "rec", "--epochs", "40", "--out", trace];
    assert_eq!(run(&traced).0, 0, "a small trace to render a heatmap from");
    let cases: [(&[&str], &str); 41] = [
        // Another subcommand's option: each used to be accepted and
        // ignored (the record was `rec`, the fleet and the tuning ran).
        (&["record", "parsec3/freqmine", "--config", "thp"], "--config"),
        (&["fleet", "--paddr"], "--paddr"),
        (&["tune", "parsec3/freqmine", "--epochs", "5"], "--epochs"),
        (&["tune", "parsec3/freqmine", "--range", "10:5", "--samples", "3"], "--range"),
        (&["tune", "parsec3/freqmine", "--range", "nan:5"], "--range"),
        (&["tune", "parsec3/freqmine", "--range", "backwards"], "--range"),
        (&["tune", "parsec3/freqmine", "--samples", "0"], "--samples"),
        (&["fleet", "--proceses", "8"], "--proceses"),
        (&["fleet", "--processes", "0", "--epochs", "1"], "--processes"),
        (&["fleet", "--shard-size", "0", "--epochs", "1"], "--shard-size"),
        (&["fleet", "--tenants", "0", "--epochs", "1"], "--tenants"),
        // It used to run, publishing ten tenants of no processes.
        (&["fleet", "--processes", "10", "--tenants", "20", "--epochs", "3"], "--tenants"),
        (&["fleet", "--footprint", "0", "--epochs", "1"], "--footprint"),
        (&["fleet", "--epochs", "0"], "--epochs"),
        // It used to fill a per-shard trace ring nothing ever read.
        (&["fleet", "--ring", "8"], "--ring"),
        (&["run", "parsec3/freqmine", "--epochs", "1", "--ring", "0"], "--ring"),
        (&["trace", "parsec3/freqmine", "--epochs", "1", "--ring", "0"], "--ring"),
        // Its run thread used to fail before the first publish and leave
        // the dashboard waiting forever.
        (&["top", "parsec3/freqmine", "--ring", "0", "--epochs", "10", "--plain", "--iterations", "1"], "--ring"),
        (&["run", "parsec3/freqmine", "--epochs", "0"], "--epochs"),
        (&["trace", "parsec3/freqmine", "--epochs", "0"], "--epochs"),
        (&["top", "parsec3/freqmine", "--epochs", "0", "--plain", "--iterations", "1"], "--epochs"),
        (&["report", "heatmap", trace, "--rows", "0"], "--rows"),
        (&["report", "heatmap", trace, "--cols", "0"], "--cols"),
        // Options that only mean something to a served run: each used to
        // be accepted and do nothing.
        (&["run", "parsec3/freqmine", "--epochs", "1", "--ring", "64"], "--ring"),
        (&["run", "parsec3/freqmine", "--epochs", "1", "--publish-every", "2"], "--publish-every"),
        (&["run", "parsec3/freqmine", "--epochs", "1", "--linger"], "--linger"),
        (&["trace", "parsec3/freqmine", "--epochs", "1", "--publish-every", "2"], "--publish-every"),
        (&["trace", "parsec3/freqmine", "--epochs", "1", "--linger"], "--linger"),
        (&["fleet", "--epochs", "1", "--publish-every", "2"], "--publish-every"),
        (&["fleet", "--epochs", "1", "--linger"], "--linger"),
        // Attached to a served run, `top` runs nothing of its own.
        (&["top", "127.0.0.1:9", "--config", "rec"], "--config"),
        (&["top", "127.0.0.1:9", "--machine", "z1d"], "--machine"),
        (&["top", "127.0.0.1:9", "--seed", "7"], "--seed"),
        (&["top", "127.0.0.1:9", "--epochs", "5"], "--epochs"),
        (&["top", "127.0.0.1:9", "--ring", "64"], "--ring"),
        (&["top", "127.0.0.1:9", "--publish-every", "2"], "--publish-every"),
        // It used to publish every tick, as 1 does.
        (&["run", "parsec3/freqmine", "--epochs", "1", "--serve", "127.0.0.1:0", "--publish-every", "0"], "--publish-every"),
        (&["trace", "parsec3/freqmine", "--epochs", "1", "--serve", "127.0.0.1:0", "--publish-every", "0"], "--publish-every"),
        (&["fleet", "--epochs", "1", "--serve", "127.0.0.1:0", "--publish-every", "0"], "--publish-every"),
        (&["top", "parsec3/freqmine", "--epochs", "1", "--publish-every", "0", "--plain"], "--publish-every"),
        (&["top", "127.0.0.1:9", "--publish-every", "0"], "--publish-every"),
    ];
    for (args, option) in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(option), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(trace);
}

/// A report input that is not trace JSONL is the user's bad data
/// (`EX_DATAERR`), not an internal failure: one `error:` line, exit 65 —
/// for an unknown event, a pre-JSONL CSV record, and a line nested deep
/// enough to have overflowed the parser's stack.
#[test]
fn binary_malformed_report_input_exits_65() {
    let cases = [
        ("unknown_event", "{\"at\":1,\"event\":{\"Nope\":{}}}\n".to_string(), "unknown event"),
        (
            "csv_record",
            "at_ns,start,end,nr_accesses,age,max_nr_accesses,aggr_ns\n\
             100000000,0,4096,3,1,20,100000000\n"
                .to_string(),
            "byte 0",
        ),
        ("deep_line", format!("{}\n", "[".repeat(200_000)), "nesting deeper than"),
    ];
    for (name, text, what) in cases {
        let path = std::env::temp_dir().join(format!("daos_cli_bad_input_{name}.jsonl"));
        std::fs::write(&path, text).unwrap();
        for kind in ["summary", "wss", "heatmap", "schemes", "profile"] {
            let (code, stderr) = run(&["report", kind, path.to_str().unwrap()]);
            assert_eq!(code, 65, "{name} / {kind}: {stderr}");
            assert!(stderr.starts_with("error: "), "{name} / {kind}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{name} / {kind}: {stderr}");
            assert!(stderr.contains(what), "{name} / {kind}: {stderr}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
