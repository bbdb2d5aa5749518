//! Cooperative cancellation and deadlines.
//!
//! A [`CancelToken`] is the one object a query's whole execution shares:
//! the session thread that parses the request, the operator tree's
//! `CancelCheck` checkpoints, and the client-site UDF VM all hold clones of
//! the same token and poll [`CancelToken::check`] at batch /
//! fuel-checkpoint granularity. Cancellation is *cooperative*: nothing is
//! interrupted mid-instruction, but every loop that can run for more than a
//! batch's worth of work observes the flag within one iteration.
//!
//! Two things fire a token: an explicit [`CancelToken::cancel`] (the
//! `CancelQuery` wire message, or a local kill) and an attached
//! [`Deadline`] expiring. `check()` distinguishes them so the caller gets a
//! typed [`CsqError::Cancelled`] or [`CsqError::Timeout`] — the retry layer
//! treats those very differently (a timeout is retryable with a fresh
//! budget; a cancellation must stay dead).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{CsqError, Result};

/// A point in time after which a query is over budget.
///
/// Thin wrapper over [`Instant`] so call sites say what they mean
/// (`deadline.expired()`) and so the remaining budget can be handed to
/// blocking waits (`deadline.remaining()` caps a condvar wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn from_timeout(timeout: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + timeout,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at }
    }

    /// The absolute instant.
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Budget left, `Duration::ZERO` once expired (never negative).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

#[derive(Debug)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Option<Deadline>,
}

/// Shared cancellation flag plus optional deadline. Cloning is cheap
/// (an `Arc` bump) and every clone observes the same state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that never fires on its own (no deadline); only an explicit
    /// [`CancelToken::cancel`] trips it. This is the "unbounded query"
    /// token and costs one relaxed atomic load per check.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that also fires when `deadline` passes.
    pub fn with_deadline(deadline: Deadline) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token with a deadline `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline(Deadline::from_timeout(timeout))
    }

    /// Trip the token. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called? (Does not consult the
    /// deadline — use [`CancelToken::check`] for the full verdict.)
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.inner.deadline
    }

    /// Budget remaining under the attached deadline; `None` when the token
    /// has no deadline (infinite budget).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner.deadline.map(|d| d.remaining())
    }

    /// The cooperative checkpoint: `Ok(())` while the query may continue,
    /// a typed error once it must stop. Explicit cancellation wins over
    /// deadline expiry when both hold (the cancel was deliberate; report
    /// it as such).
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(CsqError::Cancelled("query cancelled".into()));
        }
        if let Some(d) = self.inner.deadline {
            if d.expired() {
                return Err(CsqError::Timeout("query deadline exceeded".into()));
            }
        }
        Ok(())
    }

    /// Like [`CancelToken::check`] but cheap enough for per-row loops:
    /// true when the query must stop. Callers that need the typed error
    /// follow up with `check()`.
    pub fn should_stop(&self) -> bool {
        self.is_cancelled() || self.inner.deadline.is_some_and(|d| d.expired())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(!t.should_stop());
        assert!(t.remaining().is_none());
    }

    #[test]
    fn cancel_is_shared_and_typed() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.check().unwrap_err().kind(), "cancelled");
        assert!(clone.should_stop());
    }

    #[test]
    fn expired_deadline_is_typed_timeout() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        assert_eq!(t.check().unwrap_err().kind(), "timeout");
        assert!(t.should_stop());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_passes_and_reports_budget() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(t.check().is_ok());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn explicit_cancel_wins_over_expiry() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        t.cancel();
        assert_eq!(t.check().unwrap_err().kind(), "cancelled");
    }

    #[test]
    fn deadline_remaining_saturates() {
        let d = Deadline::from_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }
}
