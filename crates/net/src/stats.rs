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

    fn counters(&self, down: bool) -> (&AtomicU64, &AtomicU64) {
        let c = &*self.inner;
        match down {
            true => (&c.down_messages, &c.down_bytes),
            false => (&c.up_messages, &c.up_bytes),
        }
    }

    /// Record `messages` messages of `bytes` bytes in all, flowing down
    /// (server→client) or up.
    pub(crate) fn record(&self, down: bool, messages: usize, bytes: usize) {
        let (m, b) = self.counters(down);
        m.fetch_add(messages as u64, Ordering::Relaxed);
        b.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Take back what [`record`](Self::record) counted for messages that
    /// never went out.
    pub(crate) fn take_back(&self, down: bool, messages: usize, bytes: usize) {
        let (m, b) = self.counters(down);
        m.fetch_sub(messages as u64, Ordering::Relaxed);
        b.fetch_sub(bytes as u64, Ordering::Relaxed);
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
        a.record(true, 1, 100);
        b.record(true, 1, 50);
        b.record(false, 1, 7);
        assert_eq!(a.down_bytes(), 150);
        assert_eq!(a.down_messages(), 2);
        assert_eq!(a.up_bytes(), 7);
        assert_eq!(a.up_messages(), 1);
    }
}
