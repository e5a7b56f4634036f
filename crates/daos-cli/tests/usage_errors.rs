//! The `daos` binary speaks sysexits on a bad command line: exit 2 and
//! one `error:` line naming the option — never a panic's backtrace
//! (exit 101) and never a run of the defaults.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_daos")).args(args).output().expect("daos binary runs");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn binary_usage_errors_exit_2() {
    let cases: [(&[&str], &str); 5] = [
        (&["tune", "parsec3/freqmine", "--range", "10:5", "--samples", "3"], "--range"),
        (&["tune", "parsec3/freqmine", "--range", "nan:5"], "--range"),
        (&["tune", "parsec3/freqmine", "--range", "backwards"], "--range"),
        (&["tune", "parsec3/freqmine", "--samples", "0"], "--samples"),
        (&["fleet", "--proceses", "8"], "--proceses"),
    ];
    for (args, option) in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(option), "{args:?}: {stderr}");
    }
}
