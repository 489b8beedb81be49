//! The pluggable syscall boundary under the reactor.
//!
//! The reactor owns protocol dispatch and timer logic; everything that
//! actually crosses into the kernel — readiness waits, batched receive
//! drains, batched transmit submits, socket registration, the wakeup
//! kick — goes through one `Datapath` object. Two backends exist:
//!
//! * `EpollDatapath` — the original path: `epoll_wait` readiness plus
//!   `recvmmsg`/`sendmmsg` batches on nonblocking sockets. Always
//!   available; the default.
//! * `UringDatapath` (behind the `uring` feature) — io_uring submission
//!   and completion rings: multishot-style pre-posted `RECVMSG`
//!   batches, linked `SENDMSG` submits from a preallocated slot pool,
//!   `OP_TIMEOUT` deadline waits, and one `io_uring_enter` per loop
//!   iteration in place of the epoll backend's wait+drain+flush
//!   syscall train.
//!
//! The seam is what makes a future AF_XDP or simulated-loss backend a
//! one-file change: implement the six methods, add a [`DatapathKind`]
//! arm, done.
//!
//! All methods are called from the reactor thread only — registration
//! and deregistration requests from application threads are queued by
//! the reactor core and drained at the top of each loop iteration, so
//! backends need no internal locking (io_uring's submission queue is
//! single-producer by design).

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use crate::reactor::{ReactorSession, StatsCells};
use crate::socket::{McastSocket, RxBatch};

mod epoll;
#[cfg(feature = "uring")]
mod uring;

pub(crate) use epoll::EpollDatapath;
#[cfg(feature = "uring")]
pub(crate) use uring::UringDatapath;

/// Which syscall backend a reactor should drive its sockets with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DatapathKind {
    /// `epoll_wait` readiness + `recvmmsg`/`sendmmsg` batches (always
    /// available).
    #[default]
    Epoll,
    /// io_uring submission/completion rings. Requires the `uring`
    /// cargo feature *and* kernel support; either missing falls back
    /// to [`DatapathKind::Epoll`] at reactor construction (check
    /// [`crate::ReactorStats::backend`] for what actually runs).
    Uring,
}

impl std::str::FromStr for DatapathKind {
    type Err = String;

    fn from_str(s: &str) -> Result<DatapathKind, String> {
        match s {
            "epoll" => Ok(DatapathKind::Epoll),
            "uring" | "io_uring" | "io-uring" => Ok(DatapathKind::Uring),
            other => Err(format!("unknown datapath '{other}' (epoll|uring)")),
        }
    }
}

impl std::fmt::Display for DatapathKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DatapathKind::Epoll => "epoll",
            DatapathKind::Uring => "uring",
        })
    }
}

/// The syscall boundary the reactor drives its sessions through.
///
/// One instance per reactor thread. Implementations own whatever kernel
/// handles they need (an epoll fd, an io_uring fd plus its ring
/// mappings) and count their own syscalls into the shared
/// [`StatsCells`]; the reactor-side [`crate::reactor::IoBatch`] counts
/// packets and batch-size distributions, so
/// `ReactorStats::syscalls_per_packet` stays honest per backend.
pub(crate) trait Datapath: Send {
    /// Stable backend name for telemetry: `"epoll"` or `"uring"`.
    fn backend(&self) -> &'static str;

    /// Start watching `fd`; readiness surfaces as `token` from
    /// [`Datapath::wait`].
    fn register(&mut self, fd: i32, token: u64) -> io::Result<()>;

    /// Stop watching `fd`. `keepalive` is the session that owns the fd:
    /// a backend with in-flight kernel operations against it (io_uring
    /// holds a file reference per pending SQE) parks the Arc until
    /// those operations drain, so the fd is not closed out from under
    /// the kernel; the epoll backend drops it immediately.
    fn deregister(&mut self, fd: i32, keepalive: Arc<dyn ReactorSession>);

    /// Block until at least one watched fd is ready, the kick fires, or
    /// `timeout_ms` elapses. Ready tokens (including
    /// [`crate::reactor::KICK_TOKEN`]) are appended to `ready`, which
    /// the implementation clears first. A token may appear at most once
    /// per call.
    fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<()>;

    /// Drain one batch of received datagrams from `sock` into `rx`.
    /// Returns the count, or `WouldBlock` when nothing is queued (the
    /// session loop's "drained" signal, whatever the backend).
    fn recv_batch(&mut self, sock: &McastSocket, rx: &mut RxBatch) -> io::Result<usize>;

    /// Submit `bufs[i] → dsts[i]` datagrams out `sock`. Returns how
    /// many were accepted (submitted to the kernel or queued on a ring);
    /// transient refusals surface as `WouldBlock`/`ENOBUFS` for the
    /// caller's retry loop.
    fn send_batch(
        &mut self,
        sock: &McastSocket,
        bufs: &[Vec<u8>],
        dsts: &[SocketAddr],
    ) -> io::Result<usize>;
}

/// Build the configured backend, falling back to epoll when the kernel
/// or the build lacks io_uring support. `wakefd` is the reactor's kick
/// eventfd; the backend surfaces it as `KICK_TOKEN`.
pub(crate) fn make_datapath(
    kind: DatapathKind,
    wakefd: i32,
    stats: Arc<StatsCells>,
) -> io::Result<Box<dyn Datapath>> {
    match kind {
        DatapathKind::Epoll => Ok(Box::new(EpollDatapath::new(wakefd, stats)?)),
        DatapathKind::Uring => {
            #[cfg(feature = "uring")]
            {
                // Probe: a kernel without io_uring (ENOSYS), a seccomp
                // sandbox (EPERM), or a disabled sysctl all surface at
                // io_uring_setup — any refusal falls back to epoll so a
                // `uring`-built binary runs everywhere.
                if let Ok(dp) = UringDatapath::new(wakefd, Arc::clone(&stats)) {
                    return Ok(Box::new(dp));
                }
            }
            Ok(Box::new(EpollDatapath::new(wakefd, stats)?))
        }
    }
}
