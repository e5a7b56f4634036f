//! `daos` — the user-space tool of the reproduction, in the spirit of the
//! upstream `damo` utility: record access patterns, render reports, run
//! schemes, auto-tune them, and drive the production-fleet scenario.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a binary owns the terminal")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "a binary may stop on a broken invariant")]

use daos::DaosError;
use daos_cli::args::{Args, USAGE};
use daos_cli::commands;

type Command = fn(&Args) -> Result<(), DaosError>;

/// Every subcommand by the name its [`USAGE`] block has (`report <kind>`
/// is one subcommand a kind, with options of its own).
const COMMANDS: [(&str, Command); 13] = [
    ("list", |_| commands::list()),
    ("run", commands::run_cmd),
    ("top", commands::top),
    ("record", commands::record),
    ("report heatmap", commands::report_heatmap),
    ("report wss", commands::report_wss),
    ("report summary", commands::report_summary),
    ("report schemes", commands::report_schemes),
    ("report profile", commands::report_profile),
    ("schemes", commands::schemes),
    ("trace", commands::trace),
    ("tune", commands::tune),
    ("fleet", commands::fleet),
];

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "-h" || raw[0] == "help" {
        print!("{USAGE}");
        return;
    }
    let mut sub = raw.remove(0);
    if sub == "report" && !raw.is_empty() {
        sub = format!("report {}", raw.remove(0));
    }
    let result = match COMMANDS.iter().find(|(name, _)| *name == sub) {
        Some((_, command)) => Args::parse(&sub, raw).and_then(|args| command(&args)),
        None => Err(DaosError::usage(match sub.strip_prefix("report ") {
            Some(kind) => format!("unknown report kind '{kind}'"),
            None if sub == "report" => {
                "report needs a kind: heatmap | wss | summary | schemes | profile".into()
            }
            None => format!("unknown subcommand '{sub}'\n\n{USAGE}"),
        })),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
