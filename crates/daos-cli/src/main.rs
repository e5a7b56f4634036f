//! `daos` — the user-space tool of the reproduction, in the spirit of the
//! upstream `damo` utility: record access patterns, render reports, run
//! schemes, auto-tune them, and drive the production-fleet scenario.

use daos::DaosError;
use daos_cli::args::{Args, USAGE};
use daos_cli::commands;

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "-h" || raw[0] == "help" {
        print!("{USAGE}");
        return;
    }
    let mut sub = raw.remove(0);
    let result = (|| -> Result<(), DaosError> {
        type Command = fn(&Args) -> Result<(), DaosError>;
        let command: Command = match sub.as_str() {
            "list" => |_| commands::list(),
            "run" => commands::run_cmd,
            "top" => commands::top,
            "record" => commands::record,
            "report" => {
                if raw.is_empty() {
                    return Err(DaosError::usage(
                        "report needs a kind: heatmap | wss | summary | schemes | profile",
                    ));
                }
                let kind = raw.remove(0);
                let command: Command = match kind.as_str() {
                    "heatmap" => commands::report_heatmap,
                    "wss" => commands::report_wss,
                    "summary" => commands::report_summary,
                    "schemes" => commands::report_schemes,
                    "profile" => commands::report_profile,
                    other => {
                        return Err(DaosError::usage(format!("unknown report kind '{other}'")))
                    }
                };
                // Each report kind has a USAGE block, and options, of its own.
                sub = format!("report {kind}");
                command
            }
            "schemes" => commands::schemes,
            "trace" => commands::trace,
            "tune" => commands::tune,
            "fleet" => commands::fleet,
            other => {
                return Err(DaosError::usage(format!("unknown subcommand '{other}'\n\n{USAGE}")))
            }
        };
        command(&Args::parse(&sub, raw)?)
    })();
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
