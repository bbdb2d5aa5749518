//! Error handling for the whole workspace.
//!
//! A single error enum keeps the crates decoupled from each other while still
//! letting the facade report precisely which subsystem failed.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, CsqError>;

/// All the ways a query can fail, grouped by subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsqError {
    /// SQL lexing/parsing failure (position, message).
    Parse(String),
    /// Name resolution, planning, or optimization failure.
    Plan(String),
    /// Type checking or coercion failure.
    Type(String),
    /// Catalog lookup failure (unknown table/column/function).
    Catalog(String),
    /// Runtime failure in a server-site operator.
    Exec(String),
    /// Failure reported by the client-site UDF runtime.
    Client(String),
    /// Resource limit exceeded in the sandboxed client VM (fuel, memory).
    Limit(String),
    /// Transport / wire-protocol failure.
    Net(String),
    /// Malformed bytes while decoding the wire format.
    Codec(String),
    /// The query's deadline elapsed before it finished.
    Timeout(String),
    /// The query was cancelled by an explicit request.
    Cancelled(String),
    /// Invalid or incoherent configuration, rejected before it takes
    /// effect (e.g. a service config whose shed threshold exceeds its
    /// session cap).
    Config(String),
    /// A write sent whose answer never arrived: it may or may not have been
    /// applied, so it must not be replayed.
    Indeterminate(String),
}

impl CsqError {
    /// Short category tag, useful in logs and test assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            CsqError::Parse(_) => "parse",
            CsqError::Plan(_) => "plan",
            CsqError::Type(_) => "type",
            CsqError::Catalog(_) => "catalog",
            CsqError::Exec(_) => "exec",
            CsqError::Client(_) => "client",
            CsqError::Limit(_) => "limit",
            CsqError::Net(_) => "net",
            CsqError::Codec(_) => "codec",
            CsqError::Timeout(_) => "timeout",
            CsqError::Cancelled(_) => "cancelled",
            CsqError::Config(_) => "config",
            CsqError::Indeterminate(_) => "indeterminate",
        }
    }

    /// Default client-side classification: is retrying this error (on a
    /// fresh connection, with backoff) likely to succeed? Transport and
    /// decode failures are transient by default, as are deadline expiries
    /// (the caller may retry with a fresh deadline). Semantic errors —
    /// parse/plan/type/catalog/exec/client/limit — would fail identically
    /// on retry, an explicit cancellation must not resurrect the query, and
    /// an indeterminate write may already have been applied.
    /// The wire `Error` frame carries the *server's* classification, which
    /// overrides this default (e.g. admission refusal keeps kind `limit`
    /// but is marked retryable).
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            CsqError::Net(_) | CsqError::Codec(_) | CsqError::Timeout(_)
        )
    }

    /// Rebuild an error from a `kind()` tag plus message — the inverse used
    /// when an error crosses the wire as `(kind, message)` strings (the
    /// query service's `Error` response). Unknown tags become `Net` errors
    /// so a newer server cannot crash an older client.
    pub fn from_kind(kind: &str, message: impl Into<String>) -> CsqError {
        let m = message.into();
        match kind {
            "parse" => CsqError::Parse(m),
            "plan" => CsqError::Plan(m),
            "type" => CsqError::Type(m),
            "catalog" => CsqError::Catalog(m),
            "exec" => CsqError::Exec(m),
            "client" => CsqError::Client(m),
            "limit" => CsqError::Limit(m),
            "net" => CsqError::Net(m),
            "codec" => CsqError::Codec(m),
            "timeout" => CsqError::Timeout(m),
            "cancelled" => CsqError::Cancelled(m),
            "config" => CsqError::Config(m),
            "indeterminate" => CsqError::Indeterminate(m),
            other => CsqError::Net(format!("unknown remote error kind '{other}': {m}")),
        }
    }

    /// The human-readable message carried by the error.
    pub fn message(&self) -> &str {
        match self {
            CsqError::Parse(m)
            | CsqError::Plan(m)
            | CsqError::Type(m)
            | CsqError::Catalog(m)
            | CsqError::Exec(m)
            | CsqError::Client(m)
            | CsqError::Limit(m)
            | CsqError::Net(m)
            | CsqError::Codec(m)
            | CsqError::Timeout(m)
            | CsqError::Cancelled(m)
            | CsqError::Config(m)
            | CsqError::Indeterminate(m) => m,
        }
    }
}

impl fmt::Display for CsqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error: {}", self.kind(), self.message())
    }
}

impl std::error::Error for CsqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_and_message_roundtrip() {
        let e = CsqError::Parse("unexpected token".into());
        assert_eq!(e.kind(), "parse");
        assert_eq!(e.message(), "unexpected token");
        assert_eq!(e.to_string(), "parse error: unexpected token");
    }

    #[test]
    fn from_kind_roundtrips_every_kind() {
        let errs = [
            CsqError::Parse("m".into()),
            CsqError::Plan("m".into()),
            CsqError::Type("m".into()),
            CsqError::Catalog("m".into()),
            CsqError::Exec("m".into()),
            CsqError::Client("m".into()),
            CsqError::Limit("m".into()),
            CsqError::Net("m".into()),
            CsqError::Codec("m".into()),
            CsqError::Timeout("m".into()),
            CsqError::Cancelled("m".into()),
            CsqError::Config("m".into()),
            CsqError::Indeterminate("m".into()),
        ];
        for e in errs {
            assert_eq!(CsqError::from_kind(e.kind(), e.message()), e);
        }
        assert_eq!(CsqError::from_kind("martian", "m").kind(), "net");
    }

    #[test]
    fn all_kinds_are_distinct() {
        let errs = [
            CsqError::Parse(String::new()),
            CsqError::Plan(String::new()),
            CsqError::Type(String::new()),
            CsqError::Catalog(String::new()),
            CsqError::Exec(String::new()),
            CsqError::Client(String::new()),
            CsqError::Limit(String::new()),
            CsqError::Net(String::new()),
            CsqError::Codec(String::new()),
            CsqError::Timeout(String::new()),
            CsqError::Cancelled(String::new()),
            CsqError::Config(String::new()),
            CsqError::Indeterminate(String::new()),
        ];
        let kinds: std::collections::HashSet<_> = errs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), errs.len());
    }

    #[test]
    fn retryable_classification() {
        assert!(CsqError::Net("m".into()).retryable());
        assert!(CsqError::Codec("m".into()).retryable());
        assert!(CsqError::Timeout("m".into()).retryable());
        assert!(!CsqError::Cancelled("m".into()).retryable());
        assert!(!CsqError::Parse("m".into()).retryable());
        assert!(!CsqError::Exec("m".into()).retryable());
        assert!(!CsqError::Limit("m".into()).retryable());
        assert!(!CsqError::Config("m".into()).retryable());
        assert!(!CsqError::Indeterminate("m".into()).retryable());
    }
}
