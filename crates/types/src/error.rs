//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

/// Error produced when constructing an invalid configuration or geometry.
///
/// # Example
///
/// ```
/// use malec_types::geometry::PageGeometry;
///
/// let err = PageGeometry::new(1000, 64).unwrap_err();
/// assert!(err.to_string().contains("power of two"));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    /// Creates a configuration error with a static description.
    pub(crate) const fn new(message: &'static str) -> Self {
        Self { message }
    }

    /// The human-readable description.
    #[cfg(test)]
    const fn message(&self) -> &'static str {
        self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message)
    }
}

impl Error for ConfigError {}

/// The broad class of a runtime failure — coarse enough to be stable
/// across layers (scheduler, HTTP surface, client), fine enough for a
/// caller to decide whether retrying can help.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// A worker panicked while simulating (the panic payload is the
    /// detail). Retrying is safe: cells are pure and content-addressed.
    Panic,
    /// An operation exceeded its deadline.
    Timeout,
    /// An I/O operation failed (socket, cache log).
    Io,
    /// The service refused the request (saturated, draining).
    Unavailable,
    /// The request itself is invalid; retrying cannot help.
    Invalid,
}

impl FailureKind {
    /// The stable lowercase tag used in status JSON and logs.
    pub(crate) const fn tag(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::Timeout => "timeout",
            Self::Io => "io",
            Self::Unavailable => "unavailable",
            Self::Invalid => "invalid",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A runtime failure: a [`FailureKind`] plus the human-readable detail
/// that goes into a job's `error` payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Failure {
    /// The failure class.
    pub kind: FailureKind,
    /// Human-readable detail (panic payload, I/O error text, ...).
    pub detail: String,
}

impl Failure {
    /// Creates a failure of `kind` with `detail`.
    pub fn new(kind: FailureKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }

    /// Shorthand for a [`FailureKind::Panic`] failure.
    pub fn panic(detail: impl Into<String>) -> Self {
        Self::new(FailureKind::Panic, detail)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl Error for Failure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_message() {
        let e = ConfigError::new("bad geometry");
        assert_eq!(e.to_string(), "bad geometry");
        assert_eq!(e.message(), "bad geometry");
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
        assert_err::<Failure>();
    }

    #[test]
    fn failure_tags_are_stable_and_displayed() {
        let f = Failure::panic("cell blew up");
        assert_eq!(f.kind.tag(), "panic");
        assert_eq!(f.to_string(), "panic: cell blew up");
        assert_eq!(FailureKind::Unavailable.tag(), "unavailable");
    }
}
