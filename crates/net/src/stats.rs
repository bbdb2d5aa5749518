//! Shared transfer counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byte/message counters for one duplex connection. Cloning shares the
/// underlying counters (both ends of a duplex update them).
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    down_bytes: AtomicU64,
    up_bytes: AtomicU64,
    down_messages: AtomicU64,
    up_messages: AtomicU64,
}

impl NetStats {
    /// Fresh zeroed counters.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Record a server→client message of `bytes` payload bytes.
    pub fn record_down(&self, bytes: usize) {
        self.inner
            .down_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.inner.down_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a client→server message of `bytes` payload bytes.
    pub fn record_up(&self, bytes: usize) {
        self.inner
            .up_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.inner.up_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Total server→client bytes.
    pub fn down_bytes(&self) -> u64 {
        self.inner.down_bytes.load(Ordering::Relaxed)
    }

    /// Total client→server bytes.
    pub fn up_bytes(&self) -> u64 {
        self.inner.up_bytes.load(Ordering::Relaxed)
    }

    /// Total server→client messages.
    pub fn down_messages(&self) -> u64 {
        self.inner.down_messages.load(Ordering::Relaxed)
    }

    /// Total client→server messages.
    pub fn up_messages(&self) -> u64 {
        self.inner.up_messages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_counters() {
        let a = NetStats::new();
        let b = a.clone();
        a.record_down(100);
        b.record_down(50);
        b.record_up(7);
        assert_eq!(a.down_bytes(), 150);
        assert_eq!(a.down_messages(), 2);
        assert_eq!(a.up_bytes(), 7);
        assert_eq!(a.up_messages(), 1);
    }
}
