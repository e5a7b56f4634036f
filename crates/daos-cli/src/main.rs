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
    let sub = raw.remove(0);
    let result = (|| -> Result<(), DaosError> {
        match sub.as_str() {
            "list" => commands::list(),
            "run" => commands::run_cmd(&Args::parse(raw)?),
            "top" => commands::top(&Args::parse(raw)?),
            "record" => commands::record(&Args::parse(raw)?),
            "report" => {
                if raw.is_empty() {
                    return Err(DaosError::usage(
                        "report needs a kind: heatmap | wss | summary | schemes | profile",
                    ));
                }
                let kind = raw.remove(0);
                let args = Args::parse(raw)?;
                match kind.as_str() {
                    "heatmap" => commands::report_heatmap(&args),
                    "wss" => commands::report_wss(&args),
                    "summary" => commands::report_summary(&args),
                    "schemes" => commands::report_schemes(&args),
                    "profile" => commands::report_profile(&args),
                    other => Err(DaosError::usage(format!("unknown report kind '{other}'"))),
                }
            }
            "schemes" => commands::schemes(&Args::parse(raw)?),
            "trace" => commands::trace(&Args::parse(raw)?),
            "tune" => commands::tune(&Args::parse(raw)?),
            "fleet" => commands::fleet(&Args::parse(raw)?),
            other => {
                Err(DaosError::usage(format!("unknown subcommand '{other}'\n\n{USAGE}")))
            }
        }
    })();
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
