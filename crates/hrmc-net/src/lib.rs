//! # hrmc-net
//!
//! Real-socket driver for the H-RMC engines: the user-space analog of the
//! kernel driver's placement in the Linux network stack (paper §4,
//! Figure 4). Where the paper's AF_HRMC socket rides directly on IP, this
//! crate rides the sans-io engines of `hrmc-core` on UDP multicast —
//! preserving the protocol exactly while staying deployable without a
//! kernel module.
//!
//! The socket API mirrors the paper's application model (§4.1) through
//! the unified [`Session`] builder:
//!
//! * the sending application "binds to a local port, connects to a known
//!   multicast address and port number, and uses the send system call to
//!   transmit data" — `Session::sender(group).bind()`, then
//!   [`SenderHandle::send`] and [`SenderHandle::close`];
//! * the receiving application "uses setsockopt to join the multicast
//!   group, and the recv system call to receive data" —
//!   `Session::receiver(group).bind()`, then [`ReceiverHandle::recv`].
//!
//! Every session is driven by a [`Reactor`]: a poll-driven event loop
//! that owns its sessions' sockets, drains RX in `recvmmsg` batches,
//! flushes engine output in `sendmmsg` batches, and services every
//! engine's `next_wakeup` deadline from a single timer heap — the
//! user-space equivalent of the kernel servicing all H-RMC sockets from
//! one softirq path and one timer wheel. A reactor is one thread, not
//! one per session: a process with many sessions builds one [`Reactor`]
//! and hands each session builder a clone (`.reactor(r.clone())`); a
//! session built without one owns a private reactor for its handle's
//! lifetime. Both roles share one
//! crate-private session driver (`driver.rs`); `sender.rs` and
//! `receiver.rs` add only the engine and its addressing.

pub mod clock;
mod datapath;
mod driver;
pub mod reactor;
pub mod receiver;
pub mod sender;
pub mod session;
pub mod socket;
pub mod telemetry;

pub use clock::DriverClock;
pub use reactor::{Reactor, ReactorStats, SessionHealth};
pub use receiver::ReceiverHandle;
pub use sender::SenderHandle;
pub use session::{ReceiverBuilder, SenderBuilder, Session};
pub use socket::McastSocket;
pub use telemetry::Telemetry;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m` whether or not a panicking thread poisoned it: every lock in
/// this crate guards state that stays consistent between statements, and
/// a panic on one session must not cascade into the reactor or the
/// application.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Errors surfaced by the socket drivers.
///
/// Marked `#[non_exhaustive]`: future driver layers may add variants,
/// so downstream `match`es need a catch-all arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The transfer did not complete within the caller's deadline.
    Timeout,
    /// The sender reported an unrecoverable retransmission error (RMC
    /// mode, or the join race).
    DataLost,
    /// The receiver declared a terminal session failure: the sender is
    /// presumed dead (keepalive silence past the configured deadline),
    /// the JOIN retry budget ran out, or the session's socket died under
    /// the reactor.
    SessionFailed,
    /// The stream was already closed: [`SenderHandle::send`] after
    /// [`SenderHandle::close`].
    Closed,
    /// The reactor driving this session has shut down; the session can
    /// make no further progress.
    ReactorClosed,
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Timeout => f.write_str("operation timed out"),
            NetError::DataLost => f.write_str("data irrecoverably lost"),
            NetError::SessionFailed => f.write_str("session failed: sender presumed dead"),
            NetError::Closed => f.write_str("endpoint closed"),
            NetError::ReactorClosed => f.write_str("reactor shut down"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn io_error_exposes_its_source() {
        let e = NetError::from(std::io::Error::from(std::io::ErrorKind::PermissionDenied));
        let src = e.source().expect("Io carries a source");
        assert_eq!(
            src.downcast_ref::<std::io::Error>().unwrap().kind(),
            std::io::ErrorKind::PermissionDenied
        );
        assert!(NetError::Timeout.source().is_none());
        assert!(NetError::ReactorClosed.source().is_none());
    }
}
