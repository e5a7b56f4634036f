//! Library view of the CLI internals so the argument parser and command
//! plumbing are unit-testable (the `daos` binary is a thin shell over
//! these modules).

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "the CLI owns the terminal")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "the CLI may stop on a broken invariant")]

pub mod args;
pub mod commands;
