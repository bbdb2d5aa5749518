//! Readiness polling and cross-thread wakeups for the session scheduler.
//!
//! The query service runs one poller thread that owns the listener and
//! every idle connection, and dispatches work to a small pool only when a
//! whole request frame is readable (DESIGN.md §12). That requires two
//! primitives std does not provide directly:
//!
//! * [`poll_readable`] — "which of these sockets can be read right now?",
//!   answered with one `poll(2)` syscall on unix (std already links libc,
//!   so a three-line FFI declaration costs no new dependency and no
//!   runtime). A listener is one more socket in the set ([`socket_fd`]):
//!   readable means a connection is waiting to be accepted. Non-unix
//!   builds degrade to a bounded wait followed by an every-socket sweep —
//!   correct, just less efficient, and only there so the crate keeps
//!   compiling off-platform.
//! * [`wake_pair`] — a self-pipe built from a loopback TCP pair (std has
//!   no `socketpair`). The receiving end sits in the poller's `poll(2)`
//!   set; the workers and shutdown [`Waker::wake`] it to interrupt a wait
//!   the moment a session is handed back or the service is going down.
//!   Wake writes are non-blocking and coalesce: a full pipe means a wakeup
//!   is already pending, which is all a waker must ensure.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use parking_lot::Mutex;

use csq_common::{CsqError, Result};

/// Opaque socket identity accepted by [`poll_readable`]. On unix this is
/// the raw file descriptor; elsewhere it is a placeholder (the fallback
/// sweeps every socket instead of selecting by readiness).
pub type Fd = i32;

#[cfg(unix)]
mod sys {
    /// Mirrors `struct pollfd` from `poll(2)`: the layout is fixed by POSIX
    /// (three C ints/shorts in declaration order), hence `repr(C)`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x0001;
    pub const POLLERR: i16 = 0x0008;
    pub const POLLHUP: i16 = 0x0010;

    extern "C" {
        /// `poll(2)` from libc, which std already links on every unix
        /// target. `nfds_t` is pointer-sized on Linux and 32-bit on some
        /// BSDs; passing a zero-extended `usize` is compatible with both
        /// calling conventions for any fd count a process can hold.
        pub fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
    }
}

/// Wait up to `timeout` for any of `fds` to become readable; `ready[i]` is
/// set when `fds[i]` has bytes, EOF, or an error pending (all of which make
/// a read return promptly). Returns the number of ready sockets — 0 means
/// the wait timed out (or was interrupted; callers loop anyway).
///
/// `ready` must be at least as long as `fds`; entries beyond `fds.len()`
/// are left untouched. Readiness is level-triggered: a socket that already
/// has buffered kernel data reports ready on every call until drained, so
/// a wakeup can never be lost by polling "too late".
#[cfg(unix)]
pub fn poll_readable(fds: &[Fd], ready: &mut [bool], timeout: Duration) -> Result<usize> {
    let ready = mask(fds, ready)?;
    let mut pollfds: Vec<sys::PollFd> = fds
        .iter()
        .map(|&fd| sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    // Round a sub-millisecond wait up to 1ms: poll(2) takes whole
    // milliseconds and a 0 would busy-spin the caller's loop.
    let millis = if timeout.is_zero() {
        0
    } else {
        i32::try_from(timeout.as_millis().max(1)).unwrap_or(i32::MAX)
    };
    // SAFETY: `pollfds` is a live, exclusively borrowed Vec of repr(C)
    // pollfd records, so the pointer/length pair describes `nfds` valid,
    // writable entries for the duration of the call; poll(2) writes only
    // `revents` within that range and stores nothing after it returns.
    let rc = unsafe { sys::poll(pollfds.as_mut_ptr(), pollfds.len(), millis) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() == std::io::ErrorKind::Interrupted {
            return Ok(0); // EINTR: report nothing ready; the caller re-polls.
        }
        return Err(CsqError::Net(format!("poll: {e}")));
    }
    for (r, p) in ready.iter_mut().zip(&pollfds) {
        *r = p.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0;
    }
    Ok(ready.iter().filter(|&&r| r).count())
}

/// Portable fallback: no readiness facility, so wait out the timeout (a
/// wake via [`Waker`] cannot interrupt it early) and report every socket
/// ready — the caller's non-blocking reads turn the sweep into no-ops on
/// the quiet ones. Strictly worse than the unix path (O(sockets) work per
/// tick) but correct; real deployments of the service are unix.
#[cfg(not(unix))]
pub fn poll_readable(fds: &[Fd], ready: &mut [bool], timeout: Duration) -> Result<usize> {
    let ready = mask(fds, ready)?;
    if !timeout.is_zero() {
        std::thread::park_timeout(timeout);
    }
    ready.fill(true);
    Ok(fds.len())
}

/// The first `fds.len()` entries of `ready`, the ones a poll answers.
fn mask<'r>(fds: &[Fd], ready: &'r mut [bool]) -> Result<&'r mut [bool]> {
    ready
        .get_mut(..fds.len())
        .ok_or_else(|| CsqError::Net("poll_readable: ready mask shorter than fd list".into()))
}

/// The sending half of a [`wake_pair`]: cheap, clonable-by-Arc, safe to
/// call from any thread. See the module docs for the coalescing contract.
pub struct Waker {
    tx: Mutex<TcpStream>,
}

impl Waker {
    /// Nudge the poller. Never blocks: the stream is non-blocking and a
    /// `WouldBlock` (pipe already full of unread wake bytes) means a
    /// wakeup is already guaranteed, so all errors are ignorable.
    pub fn wake(&self) {
        let _ = self.tx.lock().write(&[1u8]);
    }
}

/// The receiving half of a [`wake_pair`]: lives in the poller thread, its
/// [`fd`](Self::fd) joins the `poll_readable` set, and [`drain`](Self::drain)
/// clears accumulated wake bytes once the poller is awake.
pub struct WakeReceiver {
    rx: TcpStream,
}

impl WakeReceiver {
    /// The pollable identity of this receiver.
    pub fn fd(&self) -> Fd {
        socket_fd(&self.rx)
    }

    /// Consume every pending wake byte (non-blocking; coalesced wakes
    /// collapse into one pass here).
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.rx.read(&mut buf) {
                Ok(0) => break, // Waker dropped; nothing more will arrive.
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained.
            }
        }
    }
}

/// The pollable identity of a socket — a stream or a listener (raw fd on
/// unix, placeholder elsewhere: the fallback `poll_readable` ignores it).
#[cfg(unix)]
pub fn socket_fd(s: &impl std::os::unix::io::AsRawFd) -> Fd {
    s.as_raw_fd()
}

#[cfg(not(unix))]
pub fn socket_fd<S>(_s: &S) -> Fd {
    0
}

/// A connected loopback TCP pair `(accepted, dialled)`: the portable
/// stand-in for `socketpair(2)`.
pub(crate) fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let dialled = TcpStream::connect(listener.local_addr()?)?;
    Ok((listener.accept()?.0, dialled))
}

/// Build a connected waker/receiver pair over a loopback TCP pair. Both
/// ends are non-blocking from birth.
pub fn wake_pair() -> Result<(Waker, WakeReceiver)> {
    let err = |c: &str, e: std::io::Error| CsqError::Net(format!("wake pair {c}: {e}"));
    let (rx, tx) = loopback_pair().map_err(|e| err("loopback", e))?;
    tx.set_nodelay(true).map_err(|e| err("nodelay", e))?;
    for end in [&tx, &rx] {
        end.set_nonblocking(true)
            .map_err(|e| err("nonblocking", e))?;
    }
    Ok((Waker { tx: Mutex::new(tx) }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wake_interrupts_a_poll_wait() {
        let (waker, mut rx) = wake_pair().unwrap();
        waker.wake();
        let mut ready = [false; 1];
        let started = Instant::now();
        let n = poll_readable(&[rx.fd()], &mut ready, Duration::from_secs(5)).unwrap();
        assert!(n >= 1 && ready[0], "wake byte must report readable");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "poll must return promptly on a pending wake"
        );
        rx.drain();
    }

    #[test]
    fn timeout_elapses_without_events() {
        let (_waker, rx) = wake_pair().unwrap();
        let mut ready = [false; 1];
        let started = Instant::now();
        let _ = poll_readable(&[rx.fd()], &mut ready, Duration::from_millis(30)).unwrap();
        assert!(
            started.elapsed() >= Duration::from_millis(20),
            "an idle poll must wait out (most of) its timeout"
        );
    }

    #[cfg(unix)]
    #[test]
    fn idle_socket_reports_not_ready() {
        let (_waker, rx) = wake_pair().unwrap();
        let mut ready = [true; 1];
        let n = poll_readable(&[rx.fd()], &mut ready, Duration::ZERO).unwrap();
        assert_eq!(n, 0);
        assert!(!ready[0], "no wake sent: the pipe must be quiet");
    }

    #[test]
    fn wakes_coalesce_and_drain() {
        let (waker, mut rx) = wake_pair().unwrap();
        for _ in 0..1000 {
            waker.wake(); // Must never block, even with nothing draining.
        }
        rx.drain();
        let mut ready = [true; 1];
        // Drained: nothing left pending (unix asserts emptiness; the
        // fallback path reports everything ready by design).
        if cfg!(unix) {
            let n = poll_readable(&[rx.fd()], &mut ready, Duration::ZERO).unwrap();
            assert_eq!(n, 0, "drain must consume every coalesced wake");
        }
    }
}
