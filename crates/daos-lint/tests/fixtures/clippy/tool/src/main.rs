//! Fixture: a binary may print and panic, but takes its locks through
//! the funnel like any other crate.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a binary owns the terminal")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "a binary may stop on a broken invariant")]

use std::sync::Mutex;

fn main() {
    let arg = std::env::args().nth(1).expect("an argument");
    println!("{}", arg.parse::<u8>().unwrap());
    eprintln!("done");
    let m = Mutex::new(0u8);
    // guard: reported.
    *m.lock().unwrap() += 1;
}
