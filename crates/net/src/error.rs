//! Error type shared across the crate.

use std::fmt;

/// Errors produced while parsing or constructing network-layer objects.
///
/// Marked `#[non_exhaustive]` (like every workspace error enum) so code
/// outside the crate that matches on it — e.g. a caller unwrapping
/// `vr_power::PowerError::Net` — needs a wildcard arm and keeps
/// compiling while new variants are added.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A textual prefix could not be parsed (bad dotted quad, missing `/`, ...).
    InvalidPrefix {
        /// The offending input (possibly truncated).
        input: String,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A prefix length outside `0..=32` was supplied.
    InvalidPrefixLen(u8),
    /// A routing-table dump line could not be interpreted.
    InvalidDumpLine {
        /// 1-based line number in the dump.
        line: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A generator was configured with inconsistent parameters.
    InvalidSpec(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidPrefix { input, reason } => {
                write!(f, "invalid prefix {input:?}: {reason}")
            }
            NetError::InvalidPrefixLen(len) => {
                write!(f, "invalid prefix length {len} (must be 0..=32)")
            }
            NetError::InvalidDumpLine { line, reason } => {
                write!(f, "invalid dump line {line}: {reason}")
            }
            NetError::InvalidSpec(reason) => write!(f, "invalid generator spec: {reason}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = NetError::InvalidPrefix {
            input: "1.2.3/8".into(),
            reason: "missing octet",
        };
        assert!(e.to_string().contains("1.2.3/8"));
        assert!(e.to_string().contains("missing octet"));
        assert!(NetError::InvalidPrefixLen(40).to_string().contains("40"));
        let d = NetError::InvalidDumpLine {
            line: 7,
            reason: "no next hop",
        };
        assert!(d.to_string().contains("line 7"));
        assert!(NetError::InvalidSpec("zero tables")
            .to_string()
            .contains("zero tables"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(NetError::InvalidPrefixLen(33));
    }
}
