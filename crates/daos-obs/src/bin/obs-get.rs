//! `obs-get ADDR PATH` — fetch one observability endpoint and print the
//! body. The curl stand-in used by `scripts/verify.sh`'s live-endpoint
//! smoke: exits 0 only on HTTP 200 with a non-empty body, and when PATH
//! is `/metrics` additionally requires the body to parse as strict
//! Prometheus text exposition.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a binary owns the terminal")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "a binary may stop on a broken invariant")]

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

fn run() -> Result<String, String> {
    let mut args = std::env::args().skip(1);
    let (Some(addr), Some(path), None) = (args.next(), args.next(), args.next()) else {
        return Err("usage: obs-get ADDR PATH (e.g. obs-get 127.0.0.1:9118 /metrics)".into());
    };
    let addr: SocketAddr = addr.parse().map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let resp = daos_obs::http::http_get(addr, &path, Duration::from_secs(10))
        .map_err(|e| format!("GET {path} from {addr} failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path}: status {} (want 200)", resp.status));
    }
    if resp.body.is_empty() {
        return Err(format!("GET {path}: empty body"));
    }
    if path.starts_with("/metrics") {
        daos_obs::prom::parse_exposition(&resp.body)
            .map_err(|e| format!("GET {path}: body is not valid Prometheus text: {e}"))?;
    }
    Ok(resp.body)
}

fn main() -> ExitCode {
    match run() {
        Ok(body) => {
            print!("{body}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("obs-get: {msg}");
            ExitCode::FAILURE
        }
    }
}
