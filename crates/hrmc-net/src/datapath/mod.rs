//! The syscall boundary under the reactor.
//!
//! The reactor owns protocol dispatch and timer logic; everything that
//! actually crosses into the kernel — readiness waits, batched receive
//! drains, batched transmit submits, socket registration, the wakeup
//! kick — goes through one `Datapath` object. The one real backend is
//! `EpollDatapath`: `epoll_wait` readiness plus `recvmmsg`/`sendmmsg`
//! batches on nonblocking sockets. The trait exists so tests can drive
//! the real reactor loop through a fake (`Reactor::with_datapath`).
//!
//! All methods are called from the reactor thread only — registration
//! and deregistration requests from application threads are queued by
//! the reactor core and drained at the top of each loop iteration, so
//! backends need no internal locking.

use std::io;
use std::net::SocketAddr;

use crate::socket::{McastSocket, RxBatch};

mod epoll;

pub(crate) use epoll::EpollDatapath;

/// The syscall boundary the reactor drives its sessions through.
///
/// One instance per reactor thread. Implementations own whatever kernel
/// handles they need and count their own syscalls into the shared
/// [`crate::reactor::StatsCells`]; the reactor-side
/// [`crate::reactor::IoBatch`] counts packets and batch-size
/// distributions.
pub(crate) trait Datapath: Send {
    /// Start watching `fd`; readiness surfaces as `token` from
    /// [`Datapath::wait`].
    fn register(&mut self, fd: i32, token: u64) -> io::Result<()>;

    /// Stop watching `fd`.
    fn deregister(&mut self, fd: i32);

    /// Block until at least one watched fd is ready, the kick fires, or
    /// `timeout_ms` elapses. Ready tokens (including
    /// [`crate::reactor::KICK_TOKEN`]) are appended to `ready`, which
    /// the implementation clears first. A token may appear at most once
    /// per call.
    fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<()>;

    /// Drain one batch of received datagrams from `sock` into `rx`.
    /// Returns the count, or `WouldBlock` when nothing is queued (the
    /// session loop's "drained" signal).
    fn recv_batch(&mut self, sock: &McastSocket, rx: &mut RxBatch) -> io::Result<usize>;

    /// Submit `bufs[i] → dsts[i]` datagrams out `sock`. Returns how
    /// many the kernel accepted; transient refusals surface as
    /// `WouldBlock`/`ENOBUFS` for the caller's retry loop.
    fn send_batch(
        &mut self,
        sock: &McastSocket,
        bufs: &[Vec<u8>],
        dsts: &[SocketAddr],
    ) -> io::Result<usize>;
}
