//! The crate-wide typed error: every fallible path in the top-level API
//! and the CLI funnels into [`DaosError`], which knows its layer of
//! origin and the sysexits-style exit code the CLI should die with.

use daos_mm::error::MmError;
use daos_monitor::AttrsError;
use daos_schemes::{ParseError, SchemeConfigError, SchemeParseError};
use daos_trace::TraceError;
use daos_util::json::JsonError;

/// Anything that can go wrong across the DAOS layers.
#[derive(Debug)]
pub enum DaosError {
    /// Memory-management substrate failure.
    Mm(MmError),
    /// Invalid monitoring attributes.
    Attrs(AttrsError),
    /// A scheme file failed to parse (carries the 1-based line).
    Schemes(ParseError),
    /// A single scheme line failed to parse.
    SchemeLine(SchemeParseError),
    /// An invalid scheme configuration (quota/watermark attachment).
    SchemeConfig(SchemeConfigError),
    /// A trace or record file failed to parse, or telemetry collector
    /// misuse (bad capacity, double install).
    Trace(TraceError),
    /// Malformed JSON input.
    Json(JsonError),
    /// Filesystem I/O failure, with the path that caused it.
    Io {
        /// The file involved.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A run configuration pairs schemes with no monitor to feed them.
    SchemesWithoutMonitor,
    /// `daos-lint` found workspace-invariant violations (the count).
    Lint {
        /// How many findings survived annotation suppression.
        findings: usize,
    },
    /// Bad command-line usage (unknown subcommand, missing argument...).
    Usage(String),
}

impl DaosError {
    /// Wrap an I/O error with the path it happened on.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        DaosError::Io { path: path.into(), source }
    }

    /// A usage error from a message.
    pub fn usage(msg: impl Into<String>) -> Self {
        DaosError::Usage(msg.into())
    }

    /// sysexits.h-style exit code for the CLI: 2 for usage errors,
    /// `EX_DATAERR` (65) for malformed input, `EX_IOERR` (74) for
    /// filesystem failures, `EX_SOFTWARE` (70) for internal failures.
    pub fn exit_code(&self) -> i32 {
        match self {
            DaosError::Usage(_) => 2,
            DaosError::Attrs(_)
            | DaosError::Schemes(_)
            | DaosError::SchemeLine(_)
            | DaosError::SchemeConfig(_)
            | DaosError::Json(_)
            | DaosError::Trace(TraceError::Json(_))
            | DaosError::SchemesWithoutMonitor
            | DaosError::Lint { .. } => 65,
            DaosError::Io { .. } => 74,
            DaosError::Mm(_) | DaosError::Trace(_) => 70,
        }
    }
}

impl core::fmt::Display for DaosError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DaosError::Mm(e) => write!(f, "{e}"),
            DaosError::Attrs(e) => write!(f, "{e}"),
            DaosError::Schemes(e) => write!(f, "{e}"),
            DaosError::SchemeLine(e) => write!(f, "{e}"),
            DaosError::SchemeConfig(e) => write!(f, "{e}"),
            DaosError::Trace(e) => write!(f, "{e}"),
            DaosError::Json(e) => write!(f, "{e}"),
            DaosError::Io { path, source } => write!(f, "{path}: {source}"),
            DaosError::SchemesWithoutMonitor => {
                write!(f, "schemes need a monitor: set `monitor` in the run configuration")
            }
            DaosError::Lint { findings } => {
                write!(f, "{findings} workspace invariant violation(s)")
            }
            DaosError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaosError::Mm(e) => Some(e),
            DaosError::Attrs(e) => Some(e),
            DaosError::Schemes(e) => Some(e),
            DaosError::SchemeLine(e) => Some(e),
            DaosError::SchemeConfig(e) => Some(e),
            DaosError::Trace(e) => Some(e),
            DaosError::Json(e) => Some(e),
            DaosError::Io { source, .. } => Some(source),
            DaosError::SchemesWithoutMonitor
            | DaosError::Lint { .. }
            | DaosError::Usage(_) => None,
        }
    }
}

impl From<MmError> for DaosError {
    fn from(e: MmError) -> Self {
        DaosError::Mm(e)
    }
}

impl From<AttrsError> for DaosError {
    fn from(e: AttrsError) -> Self {
        DaosError::Attrs(e)
    }
}

impl From<ParseError> for DaosError {
    fn from(e: ParseError) -> Self {
        DaosError::Schemes(e)
    }
}

impl From<SchemeParseError> for DaosError {
    fn from(e: SchemeParseError) -> Self {
        DaosError::SchemeLine(e)
    }
}

impl From<SchemeConfigError> for DaosError {
    fn from(e: SchemeConfigError) -> Self {
        DaosError::SchemeConfig(e)
    }
}

impl From<TraceError> for DaosError {
    fn from(e: TraceError) -> Self {
        DaosError::Trace(e)
    }
}

impl From<JsonError> for DaosError {
    fn from(e: JsonError) -> Self {
        DaosError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_sysexits() {
        assert_eq!(DaosError::usage("x").exit_code(), 2);
        assert_eq!(DaosError::from(MmError::OutOfMemory).exit_code(), 70);
        assert_eq!(DaosError::io("/f", std::io::Error::other("x")).exit_code(), 74);
        assert_eq!(
            DaosError::from(daos_schemes::parse_scheme_line("bogus").unwrap_err()).exit_code(),
            65
        );
        assert_eq!(DaosError::SchemesWithoutMonitor.exit_code(), 65);
    }

    #[test]
    fn a_malformed_trace_file_is_bad_data_not_an_internal_failure() {
        let e = daos_trace::parse_export("{\"at\":1,\"event\":{\"Nope\":{}}}\n").unwrap_err();
        assert_eq!(DaosError::from(e).exit_code(), 65);
        assert_eq!(DaosError::from(TraceError::InvalidCapacity(0)).exit_code(), 70);
        assert_eq!(DaosError::from(TraceError::AlreadyInstalled).exit_code(), 70);
    }

    #[test]
    fn display_preserves_inner_messages() {
        let e = DaosError::from(daos_schemes::parse_schemes("ok\nbogus").unwrap_err());
        assert!(e.to_string().contains("line 1"), "{e}");
        assert!(e.to_string().contains("expected 7 fields"), "{e}");
        let e = DaosError::io("data.rec", std::io::Error::other("denied"));
        assert!(e.to_string().contains("data.rec"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
