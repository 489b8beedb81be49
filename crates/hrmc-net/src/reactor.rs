//! The shared multi-session reactor: a poll-driven event loop that
//! owns its sessions' sockets, drains RX in `recvmmsg` batches,
//! flushes engine output in `sendmmsg` batches, and services every
//! engine's `next_wakeup` deadline from a single min-heap timer — the
//! user-space analog of the paper's kernel placement (§4, Fig. 4),
//! where all H-RMC sockets share one softirq delivery path and one
//! timer wheel instead of spawning threads per endpoint.
//!
//! A [`Reactor`] is exactly one such loop: one thread, one datapath,
//! one timer heap and one set of counters for every session registered
//! with it, so thread count is O(1), not O(sessions). Sessions register
//! at bind time and deregister when their handle drops; `SenderHandle` /
//! `ReceiverHandle` are thin fronts over reactor-owned state.
//!
//! ## Event loop
//!
//! ```text
//!            ┌────────────── epoll_wait (≤ next deadline) ─────────────┐
//!            │                                                         │
//!   eventfd kick ──► re-fold dirty sessions' deadlines (min-heap)      │
//!   socket ready ──► recvmmsg burst ─► engine.handle_packet ─► flush   │
//!   deadline due ──► engine.on_tick / transmit ───────────────► flush  │
//!            │                                                         │
//!            └── flush = poll_output ─► sendmmsg batches ─► events ────┘
//! ```
//!
//! Deadlines follow the same fold-min discipline the per-endpoint timer
//! threads used: an active engine's "one jiffy from now" wish recedes on
//! every re-read, so the heap keeps the earliest deadline promised so
//! far per session (stale entries are skipped lazily on pop) and a fresh
//! deadline is taken only after servicing a tick. A sender's deadline is
//! the earlier of its housekeeping jiffy and the instant its transmitter
//! has both data and credit, so a kick or a NAK that makes that instant
//! "now" is served on the loop's next pass over due timers, before it
//! sleeps again.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hrmc_core::{Histogram, MetricsRegistry};

use crate::datapath::{Datapath, EpollDatapath};
use crate::socket::{is_transient, McastSocket, RxBatch, TX_SLOTS};
use crate::{lock, NetError};

/// Sockets per session the token scheme supports (receiver = 2).
const MAX_ROLES: u64 = 2;
/// Readiness token of the kick eventfd.
pub(crate) const KICK_TOKEN: u64 = u64::MAX;
/// Attempts beyond the first before a transient `sendmmsg` error drops
/// the remaining batch (mirrors the single-send retry budget).
const TX_RETRIES: u32 = 4;

/// Why the reactor stopped driving a session.
pub(crate) enum Fatal {
    /// A socket returned an unrecoverable error (e.g. `EBADF`); the
    /// error is surfaced so the session can report `SessionFailed`.
    Io(io::Error),
    /// The reactor itself shut down while the session was registered.
    ReactorClosed,
}

/// A session the reactor can drive. Implemented by the sender's and
/// receiver's shared state; all methods are called from the reactor
/// thread (the session's engine mutex provides interior mutability).
pub(crate) trait ReactorSession: Send + Sync {
    /// The sockets to watch, in role order (index = role).
    fn sockets(&self) -> Vec<&McastSocket>;
    /// Drain `role`'s socket into the engine and flush output. A returned
    /// error is fatal: the reactor stops watching this session and calls
    /// [`ReactorSession::on_fatal`].
    fn on_readable(&self, role: usize, io: &mut IoBatch) -> io::Result<()>;
    /// Service the session's earliest timer deadline.
    fn on_tick(&self, io: &mut IoBatch);
    /// The engine's next deadline on the shared monotonic timeline.
    fn next_deadline(&self) -> Option<Instant>;
    /// Terminal notification: the reactor no longer drives this session.
    fn on_fatal(&self, reason: Fatal);
    /// Per-session traffic totals for telemetry (`id` filled in by the
    /// reactor, which owns the numbering).
    fn health(&self) -> SessionHealth;
    /// Publish engine-level gauges (e.g. the sender's membership
    /// pressure) into a metrics registry. Default: none. With several
    /// publishing sessions on one reactor the last writer wins per
    /// gauge, matching the common one-sender-per-process deployment.
    fn publish_metrics(&self, _reg: &mut MetricsRegistry) {}
}

/// Per-session traffic totals, the raw material for per-session rate
/// telemetry (a sampler diffs successive snapshots).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionHealth {
    /// Reactor-assigned session id.
    pub id: u64,
    /// Endpoint role: `"sender"` or `"receiver"`.
    pub role: &'static str,
    /// Datagrams received by this session.
    pub packets_rx: u64,
    /// Datagrams staged for transmission by this session.
    pub packets_tx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Payload bytes staged for transmission.
    pub bytes_tx: u64,
    /// Sender rate-halving episodes — the congestion-response count a
    /// degrading network shows first (0 for receivers).
    pub rate_halvings: u64,
    /// Sender urgent stops (0 for receivers).
    pub urgent_stops: u64,
    /// Members this sender ejected (0 for receivers).
    pub members_ejected: u64,
    /// Structurally invalid packets the engine rejected.
    pub malformed_packets: u64,
    /// Datagrams discarded for checksum failure.
    pub checksum_failures: u64,
    /// Receive-window overflow drops (0 for senders).
    pub overflow_drops: u64,
    /// `true` when the session declared terminal failure.
    pub session_failed: bool,
}

/// Atomic traffic counters each session embeds; the reactor thread
/// bumps them on the hot path (relaxed ordering — telemetry reads need
/// no synchronisation with the data they count).
#[derive(Debug, Default)]
pub(crate) struct SessionCounters {
    packets_rx: AtomicU64,
    packets_tx: AtomicU64,
    bytes_rx: AtomicU64,
    bytes_tx: AtomicU64,
}

impl SessionCounters {
    pub(crate) fn note_rx(&self, packets: u64, bytes: u64) {
        self.packets_rx.fetch_add(packets, Ordering::Relaxed);
        self.bytes_rx.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn note_tx(&self, bytes: u64) {
        self.packets_tx.fetch_add(1, Ordering::Relaxed);
        self.bytes_tx.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn health(&self, role: &'static str) -> SessionHealth {
        SessionHealth {
            id: 0,
            role,
            packets_rx: self.packets_rx.load(Ordering::Relaxed),
            packets_tx: self.packets_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            ..SessionHealth::default()
        }
    }
}

// ---------------------------------------------------------------------
// Batched I/O scratch state (one per reactor thread)
// ---------------------------------------------------------------------

/// Reusable I/O scratch owned by the reactor thread: the RX buffer
/// pool, the TX staging area, and the [`Datapath`] everything
/// crosses the kernel through — shared by every session so buffers are
/// allocated once per reactor, not per session.
pub(crate) struct IoBatch {
    /// RX buffer pool; sessions read decoded datagrams from here.
    pub(crate) rx: RxBatch,
    /// The syscall boundary (epoll + mmsg; a fake in tests).
    pub(crate) dp: Box<dyn Datapath>,
    /// Encoded-packet staging for the next TX submit.
    tx_bufs: Vec<Vec<u8>>,
    tx_dsts: Vec<SocketAddr>,
    tx_len: usize,
    stats: Arc<StatsCells>,
}

impl IoBatch {
    fn new(stats: Arc<StatsCells>, dp: Box<dyn Datapath>) -> IoBatch {
        IoBatch {
            rx: RxBatch::new(),
            dp,
            tx_bufs: Vec::new(),
            tx_dsts: Vec::new(),
            tx_len: 0,
            stats,
        }
    }

    /// One datapath drain into the pool; records batch-size stats. (The
    /// datapath counts its own syscalls; this layer counts packets.)
    pub(crate) fn recv(&mut self, sock: &McastSocket) -> io::Result<usize> {
        let n = self.dp.recv_batch(sock, &mut self.rx)?;
        let s = &self.stats;
        s.packets_rx.fetch_add(n as u64, Ordering::Relaxed);
        lock(&s.rx_batches).record(n as u64);
        Ok(n)
    }

    /// Stage one outgoing packet: returns the cleared scratch buffer to
    /// encode into; commit with [`IoBatch::commit`].
    pub(crate) fn stage(&mut self) -> &mut Vec<u8> {
        if self.tx_len == self.tx_bufs.len() {
            self.tx_bufs.push(Vec::new());
            self.tx_dsts
                .push(SocketAddr::V4(std::net::SocketAddrV4::new(
                    std::net::Ipv4Addr::UNSPECIFIED,
                    0,
                )));
        }
        let buf = &mut self.tx_bufs[self.tx_len];
        buf.clear();
        buf
    }

    /// Commit the staged packet to `dst`; flushes `sock` when the batch
    /// is full. All packets staged between flushes go out `sock`.
    pub(crate) fn commit(&mut self, dst: SocketAddr, sock: &McastSocket) {
        self.tx_dsts[self.tx_len] = dst;
        self.tx_len += 1;
        if self.tx_len >= TX_SLOTS {
            self.flush_tx(sock);
        }
    }

    /// Flush every staged packet out `sock` in datapath batches,
    /// retrying transient kernel pressure (`EAGAIN`/`EINTR`/`ENOBUFS`)
    /// with the same short doubling backoff the single-send path used. A
    /// persistently failing datagram is dropped (the protocol's NAK path
    /// recovers it) without sacrificing the rest of the batch. Each
    /// attempt — success or transient failure — is a real kernel
    /// crossing, counted by the datapath itself.
    pub(crate) fn flush_tx(&mut self, sock: &McastSocket) {
        let mut off = 0;
        let mut attempt = 0;
        let mut backoff = Duration::from_micros(200);
        while off < self.tx_len {
            match self.dp.send_batch(
                sock,
                &self.tx_bufs[off..self.tx_len],
                &self.tx_dsts[off..self.tx_len],
            ) {
                Ok(n) => {
                    let s = &self.stats;
                    s.packets_tx.fetch_add(n as u64, Ordering::Relaxed);
                    lock(&s.tx_batches).record(n as u64);
                    off += n.max(1);
                    attempt = 0;
                    backoff = Duration::from_micros(200);
                }
                Err(ref e) if is_transient(e) && attempt < TX_RETRIES => {
                    self.stats.tx_retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff *= 2;
                }
                Err(_) => {
                    // Drop the message at the head and keep going: one
                    // unreachable unicast peer must not starve the rest.
                    self.stats.tx_drops.fetch_add(1, Ordering::Relaxed);
                    off += 1;
                    attempt = 0;
                    backoff = Duration::from_micros(200);
                }
            }
        }
        self.tx_len = 0;
    }
}

/// `true` for receive-side errors that clear themselves: an empty queue,
/// a signal, or an asynchronous ICMP error queued against the socket
/// (port/host/net unreachable after a feedback send to a dead peer).
/// Everything else — `EBADF` above all — is fatal and must NOT be
/// retried: the old per-endpoint RX loops spun at 100% CPU on exactly
/// that case.
pub(crate) fn rx_error_disposition(e: &io::Error) -> RxError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RxError::Drained,
        io::ErrorKind::Interrupted
        | io::ErrorKind::ConnectionRefused
        | io::ErrorKind::ConnectionReset => RxError::Retry,
        _ if matches!(e.raw_os_error(), Some(EHOSTUNREACH) | Some(ENETUNREACH)) => RxError::Retry,
        _ => RxError::Fatal,
    }
}

/// Classification of a receive error (see [`rx_error_disposition`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RxError {
    /// Nothing queued: stop draining this socket for now.
    Drained,
    /// Transient (signal / ICMP error consumed): try the next batch.
    Retry,
    /// Unrecoverable: fail the session.
    Fatal,
}

const ENETUNREACH: i32 = 101;
const EHOSTUNREACH: i32 = 113;

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// The reactor's shared counter cells. The datapath holds an `Arc` and
/// bumps the syscall counters (`recvmmsg_calls`/`sendmmsg_calls`); the
/// reactor side owns the rest.
#[derive(Default)]
pub(crate) struct StatsCells {
    pub(crate) sessions_hwm: AtomicU64,
    pub(crate) epoll_wakeups: AtomicU64,
    pub(crate) timer_fires: AtomicU64,
    pub(crate) kicks: AtomicU64,
    pub(crate) recvmmsg_calls: AtomicU64,
    pub(crate) sendmmsg_calls: AtomicU64,
    pub(crate) packets_rx: AtomicU64,
    pub(crate) packets_tx: AtomicU64,
    pub(crate) tx_retries: AtomicU64,
    pub(crate) tx_drops: AtomicU64,
    /// Raw timer-heap length (includes lazily-deleted stale entries).
    pub(crate) timer_heap_len: AtomicU64,
    /// Sessions with a live armed deadline (the authoritative map).
    pub(crate) timers_armed: AtomicU64,
    pub(crate) rx_batches: Mutex<Histogram>,
    pub(crate) tx_batches: Mutex<Histogram>,
    /// Busy time per loop iteration (µs): deadline service + dispatch,
    /// excluding the readiness-wait sleep itself.
    pub(crate) loop_us: Mutex<Histogram>,
    /// Timer slippage (µs): how late each deadline fired (fired-at minus
    /// deadline) — the loop's scheduling health under load.
    pub(crate) timer_slippage_us: Mutex<Histogram>,
}

/// Point-in-time snapshot of a reactor's gauges: how many sessions it
/// carries, how hard the event loop is working, and — the batching
/// payoff — how many packets each `recvmmsg`/`sendmmsg` syscall moved.
#[derive(Debug, Clone, Default)]
pub struct ReactorStats {
    /// Sessions currently registered.
    pub sessions: usize,
    /// Most sessions ever registered at once.
    pub sessions_hwm: u64,
    /// `epoll_wait` returns (the loop's wakeup count).
    pub epoll_wakeups: u64,
    /// Engine deadlines serviced from the timer heap.
    pub timer_fires: u64,
    /// Deadline re-folds requested by application threads.
    pub kicks: u64,
    /// `recvmmsg` syscalls that moved data.
    pub recvmmsg_calls: u64,
    /// `sendmmsg` syscalls issued (every attempt counts, including
    /// transiently failing ones that were retried).
    pub sendmmsg_calls: u64,
    /// Datagrams received.
    pub packets_rx: u64,
    /// Datagrams sent.
    pub packets_tx: u64,
    /// Transient `sendmmsg` errors retried with backoff.
    pub tx_retries: u64,
    /// Datagrams dropped after the retry budget (NAK path recovers).
    pub tx_drops: u64,
    /// Raw timer-heap length (includes lazily-deleted stale entries).
    pub timer_heap_len: u64,
    /// Sessions with a live armed deadline.
    pub timers_armed: u64,
    /// Mean datagrams per `recvmmsg` call.
    pub rx_batch_mean: f64,
    /// Largest single `recvmmsg` batch.
    pub rx_batch_max: u64,
    /// Mean datagrams per `sendmmsg` call.
    pub tx_batch_mean: f64,
    /// Largest single `sendmmsg` batch.
    pub tx_batch_max: u64,
    /// 99th-percentile busy time per loop iteration (µs).
    pub loop_p99_us: u64,
    /// 99th-percentile timer slippage (µs): fired-at minus deadline.
    pub timer_slippage_p99_us: u64,
}

impl ReactorStats {
    /// Batched-I/O syscalls per packet moved: 1.0 is the unbatched
    /// floor (one syscall per datagram); batching pushes it below.
    /// 0.0 before any packet has moved — a reactor that has only
    /// polled must not report a syscall *rate*, and the old
    /// divide-by-`max(1)` form quietly reported the raw syscall count
    /// in that state.
    pub fn syscalls_per_packet(&self) -> f64 {
        let syscalls = self.recvmmsg_calls + self.sendmmsg_calls;
        let packets = self.packets_rx + self.packets_tx;
        if packets == 0 {
            return 0.0;
        }
        syscalls as f64 / packets as f64
    }
}

// ---------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------

/// A socket-set change an application thread asks the reactor thread to
/// apply. The datapath lives on the reactor thread only, so registration
/// and deregistration are queued here and drained at the top of each
/// loop iteration — the kick eventfd bounds the latency.
enum DpCmd {
    /// Watch the sockets of session `id` (already in the sessions map).
    Register { id: u64 },
    /// Stop watching `fd`.
    Deregister { fd: i32 },
}

/// The reactor's shared state. A session handle holds this (so kicks and
/// deregistration work) but NOT the loop's thread: dropping the last
/// user-held [`Reactor`] shuts the loop down even while sessions are
/// live, and those sessions fail over to
/// [`crate::NetError::ReactorClosed`].
pub(crate) struct Core {
    wakefd: i32,
    sessions: Mutex<HashMap<u64, Arc<dyn ReactorSession>>>,
    dirty: Mutex<Vec<u64>>,
    dp_cmds: Mutex<Vec<DpCmd>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    stats: Arc<StatsCells>,
}

// SAFETY-free: fds are plain ints; all syscalls on them are thread-safe.

impl Core {
    fn session(&self, id: u64) -> Option<Arc<dyn ReactorSession>> {
        lock(&self.sessions).get(&id).cloned()
    }

    /// Remove a session: the reactor drops its reference here and now,
    /// its sockets leave the datapath's watch set on the loop's next
    /// pass, and its timer state is dropped lazily.
    pub(crate) fn deregister(&self, id: u64, session: &dyn ReactorSession) {
        if lock(&self.sessions).remove(&id).is_some() {
            let fds = session.sockets().into_iter().map(McastSocket::raw_fd);
            lock(&self.dp_cmds).extend(fds.map(|fd| DpCmd::Deregister { fd }));
            self.wake();
        }
    }

    /// Ask the loop to re-read `id`'s deadline: a submit, close, or
    /// application event may have armed an earlier timer. Only the push
    /// that makes `dirty` non-empty rings the eventfd: the loop drains
    /// the eventfd *before* it takes `dirty`, so an id that joins a
    /// non-empty list is taken by the pass the first ring pays for, and
    /// an id that finds the list empty rings for itself — none is lost,
    /// and a burst of `send`s costs one `write(2)` and one fold, not one
    /// each.
    pub(crate) fn kick(&self, id: u64) {
        let first = {
            let mut dirty = lock(&self.dirty);
            let first = dirty.is_empty();
            if !dirty.contains(&id) {
                dirty.push(id);
            }
            first
        };
        if first {
            self.wake();
        }
    }

    /// Ring the eventfd so the reactor's readiness wait returns.
    fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            libc::write(self.wakefd, &one as *const u64 as *const libc::c_void, 8);
        }
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.wakefd);
        }
    }
}

/// The event-loop thread. Dropped (flagged, woken, joined) when the last
/// user-held [`Reactor`] clone drops. Sessions hold only the [`Core`],
/// so the thread's lifetime is tied to those clones, not to straggling
/// sessions.
struct EventLoop {
    core: Arc<Core>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        self.core.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Handle to a reactor: one event-loop thread driving every session
/// registered with it. Cheap to clone; the thread runs until the last
/// clone drops.
#[derive(Clone)]
pub struct Reactor {
    event_loop: Arc<EventLoop>,
}

impl Reactor {
    /// Spawn a reactor: one epoll instance, one thread.
    pub fn new() -> io::Result<Reactor> {
        Reactor::with_datapath(|wakefd, stats| Ok(Box::new(EpollDatapath::new(wakefd, stats)?)))
    }

    /// Spawn the loop over the datapath `make` builds from the kick
    /// eventfd (surfaced as [`KICK_TOKEN`]) and the counters: an
    /// [`EpollDatapath`] outside tests.
    pub(crate) fn with_datapath(
        make: impl FnOnce(i32, Arc<StatsCells>) -> io::Result<Box<dyn Datapath>>,
    ) -> io::Result<Reactor> {
        let wakefd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        if wakefd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Built before the datapath, so a failure below closes the
        // eventfd through `Core`'s drop.
        let core = Arc::new(Core {
            wakefd,
            sessions: Mutex::new(HashMap::new()),
            dirty: Mutex::new(Vec::new()),
            dp_cmds: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            stats: Arc::new(StatsCells::default()),
        });
        let dp = make(wakefd, Arc::clone(&core.stats))?;
        let thread = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("hrmc-reactor".into())
                .spawn(move || run(&core, dp))?
        };
        Ok(Reactor {
            event_loop: Arc::new(EventLoop {
                core,
                thread: Some(thread),
            }),
        })
    }

    fn core(&self) -> &Arc<Core> {
        &self.event_loop.core
    }

    /// Sessions currently registered.
    pub fn session_count(&self) -> usize {
        lock(&self.core().sessions).len()
    }

    /// The loop's counters and batch-size and latency distributions.
    pub fn stats(&self) -> ReactorStats {
        snapshot(self.core()).0
    }

    /// Per-session traffic totals — the basis for per-session rate
    /// displays (`hrmc top`) and the `/json` telemetry dump. Ordered by
    /// session id, which is the order of registration (0, 1, …).
    pub fn session_health(&self) -> Vec<SessionHealth> {
        let mut out: Vec<SessionHealth> = lock(&self.core().sessions)
            .iter()
            .map(|(&id, session)| SessionHealth {
                id,
                ..session.health()
            })
            .collect();
        out.sort_by_key(|h| h.id);
        out
    }

    /// Publish the reactor's gauges and histograms into a metrics
    /// registry under `reactor_*` names. Idempotent (gauges are set,
    /// histograms replaced), so a telemetry sampler can call it on
    /// every sampling interval without double-counting.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        let (st, histograms) = snapshot(self.core());
        publish_reactor_gauges(reg, &st);
        for (name, h) in HISTOGRAM_NAMES.into_iter().zip(&histograms) {
            reg.set_histogram(name, h);
        }
        // Sessions are cloned out of the lock first: a session's own
        // engine lock is taken inside `publish_metrics`, and holding the
        // registry lock across it would order those locks against the
        // reactor thread's.
        let sessions: Vec<_> = lock(&self.core().sessions).values().cloned().collect();
        publish_session_gauges(reg, &sessions);
    }

    /// Register a session: its sockets are made nonblocking and queued
    /// for the loop's datapath, and its first deadline is folded into
    /// the timer heap. Returns the session id and the reactor's
    /// [`Core`], which the handle drives kicks and deregistration
    /// through — deliberately *not* a full [`Reactor`], so live sessions
    /// do not keep the reactor thread alive past the last user-held
    /// handle. A socket the datapath cannot watch surfaces
    /// asynchronously via [`ReactorSession::on_fatal`].
    pub(crate) fn register(
        &self,
        session: Arc<dyn ReactorSession>,
    ) -> Result<(u64, Arc<Core>), NetError> {
        let core = self.core();
        if core.shutdown.load(Ordering::SeqCst) {
            return Err(NetError::ReactorClosed);
        }
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let sockets = session.sockets();
            assert!(
                sockets.len() as u64 <= MAX_ROLES,
                "too many session sockets"
            );
            for sock in &sockets {
                sock.set_nonblocking(true).map_err(NetError::Io)?;
            }
        }
        {
            let mut map = lock(&core.sessions);
            map.insert(id, session);
            let n = map.len() as u64;
            core.stats.sessions_hwm.fetch_max(n, Ordering::Relaxed);
        }
        lock(&core.dp_cmds).push(DpCmd::Register { id });
        core.kick(id);
        Ok((id, Arc::clone(core)))
    }
}

/// The distributions the loop records, in [`snapshot`]'s order, under
/// the names they are published by.
const HISTOGRAM_NAMES: [&str; 4] = [
    "reactor_rx_batch",
    "reactor_tx_batch",
    "reactor_loop_us",
    "reactor_timer_slippage_us",
];

/// Read the loop's counters and copy its histograms.
fn snapshot(core: &Core) -> (ReactorStats, [Histogram; 4]) {
    let s = &core.stats;
    let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
    let histograms = [
        &s.rx_batches,
        &s.tx_batches,
        &s.loop_us,
        &s.timer_slippage_us,
    ]
    .map(|cell| lock(cell).clone());
    let [rx, tx, loop_us, slip] = &histograms;
    let st = ReactorStats {
        sessions: lock(&core.sessions).len(),
        sessions_hwm: load(&s.sessions_hwm),
        epoll_wakeups: load(&s.epoll_wakeups),
        timer_fires: load(&s.timer_fires),
        kicks: load(&s.kicks),
        recvmmsg_calls: load(&s.recvmmsg_calls),
        sendmmsg_calls: load(&s.sendmmsg_calls),
        packets_rx: load(&s.packets_rx),
        packets_tx: load(&s.packets_tx),
        tx_retries: load(&s.tx_retries),
        tx_drops: load(&s.tx_drops),
        timer_heap_len: load(&s.timer_heap_len),
        timers_armed: load(&s.timers_armed),
        rx_batch_mean: rx.mean(),
        rx_batch_max: rx.max().unwrap_or(0),
        tx_batch_mean: tx.mean(),
        tx_batch_max: tx.max().unwrap_or(0),
        loop_p99_us: loop_us.p99(),
        timer_slippage_p99_us: slip.p99(),
    };
    (st, histograms)
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("sessions", &self.session_count())
            .finish()
    }
}

/// Set the `reactor_*` gauges from a stats snapshot.
fn publish_reactor_gauges(reg: &mut MetricsRegistry, st: &ReactorStats) {
    reg.set_gauge("reactor_sessions", st.sessions as u64);
    reg.set_gauge("reactor_sessions_hwm", st.sessions_hwm);
    reg.set_gauge("reactor_epoll_wakeups", st.epoll_wakeups);
    reg.set_gauge("reactor_timer_fires", st.timer_fires);
    reg.set_gauge("reactor_kicks", st.kicks);
    reg.set_gauge("reactor_recvmmsg_calls", st.recvmmsg_calls);
    reg.set_gauge("reactor_sendmmsg_calls", st.sendmmsg_calls);
    reg.set_gauge("reactor_packets_rx", st.packets_rx);
    reg.set_gauge("reactor_packets_tx", st.packets_tx);
    reg.set_gauge("reactor_tx_retries", st.tx_retries);
    reg.set_gauge("reactor_tx_drops", st.tx_drops);
    reg.set_gauge("reactor_timer_heap_len", st.timer_heap_len);
    reg.set_gauge("reactor_timers_armed", st.timers_armed);
}

/// Sum engine-level degradation counters over `sessions` and let each
/// session publish its own gauges. With several publishing sessions the
/// last writer wins per gauge, matching the common one-sender-per-
/// process deployment.
fn publish_session_gauges(reg: &mut MetricsRegistry, sessions: &[Arc<dyn ReactorSession>]) {
    let mut agg = SessionHealth::default();
    let mut failed = 0u64;
    for s in sessions {
        let h = s.health();
        agg.rate_halvings += h.rate_halvings;
        agg.urgent_stops += h.urgent_stops;
        agg.members_ejected += h.members_ejected;
        agg.malformed_packets += h.malformed_packets;
        agg.checksum_failures += h.checksum_failures;
        agg.overflow_drops += h.overflow_drops;
        failed += u64::from(h.session_failed);
    }
    // Degradation counters summed over live sessions: the live-wire
    // equivalents of the hostile matrix's SimReport columns.
    reg.set_gauge("sessions_rate_halvings", agg.rate_halvings);
    reg.set_gauge("sessions_urgent_stops", agg.urgent_stops);
    reg.set_gauge("sessions_members_ejected", agg.members_ejected);
    reg.set_gauge("sessions_malformed_packets", agg.malformed_packets);
    reg.set_gauge("sessions_checksum_failures", agg.checksum_failures);
    reg.set_gauge("sessions_overflow_drops", agg.overflow_drops);
    reg.set_gauge("sessions_failed", failed);
    for s in sessions {
        s.publish_metrics(reg);
    }
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// Fold a freshly read deadline into the per-session minimum (heap +
/// `deadlines` map form a lazy-deletion min-heap: the map holds the
/// authoritative earliest promise, the heap may hold stale extras).
fn fold_deadline(
    session: &Arc<dyn ReactorSession>,
    id: u64,
    deadlines: &mut HashMap<u64, Instant>,
    heap: &mut BinaryHeap<Reverse<(Instant, u64)>>,
) {
    if let Some(d) = session.next_deadline() {
        let earlier = deadlines.get(&id).is_none_or(|&cur| d < cur);
        if earlier {
            deadlines.insert(id, d);
            heap.push(Reverse((d, id)));
        }
    }
}

/// Apply queued socket-set changes on the reactor thread (the only
/// thread allowed to touch the datapath). A registration the datapath
/// refuses fails the session asynchronously, mirroring what a fatal
/// socket error during dispatch does.
fn drain_dp_cmds(core: &Arc<Core>, io: &mut IoBatch, deadlines: &mut HashMap<u64, Instant>) {
    let cmds = std::mem::take(&mut *lock(&core.dp_cmds));
    for cmd in cmds {
        match cmd {
            DpCmd::Register { id } => {
                let Some(session) = core.session(id) else {
                    continue; // deregistered before the loop saw it
                };
                let mut err = None;
                {
                    let sockets = session.sockets();
                    for (role, sock) in sockets.iter().enumerate() {
                        if let Err(e) = io.dp.register(sock.raw_fd(), id * MAX_ROLES + role as u64)
                        {
                            for prior in &sockets[..role] {
                                io.dp.deregister(prior.raw_fd());
                            }
                            err = Some(e);
                            break;
                        }
                    }
                }
                if let Some(e) = err {
                    lock(&core.sessions).remove(&id);
                    deadlines.remove(&id);
                    session.on_fatal(Fatal::Io(e));
                }
            }
            DpCmd::Deregister { fd } => io.dp.deregister(fd),
        }
    }
}

/// Longest uninterrupted readiness wait when no deadline is armed, and
/// the cap on armed ones: a session whose kick were somehow lost is
/// still noticed within this bound.
const IDLE_DEADLINE_CAP: Duration = Duration::from_millis(100);

fn run(core: &Arc<Core>, dp: Box<dyn Datapath>) {
    let mut io = IoBatch::new(Arc::clone(&core.stats), dp);
    let mut deadlines: HashMap<u64, Instant> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut ready: Vec<u64> = Vec::with_capacity(64);

    while !core.shutdown.load(Ordering::SeqCst) {
        // 0. Apply queued registrations/deregistrations.
        drain_dp_cmds(core, &mut io, &mut deadlines);

        // 1. Service every due deadline.
        let now = Instant::now();
        while let Some(&Reverse((t, id))) = heap.peek() {
            if t > now {
                break;
            }
            heap.pop();
            if deadlines.get(&id) != Some(&t) {
                continue; // stale entry superseded by an earlier fold
            }
            deadlines.remove(&id);
            let Some(session) = core.session(id) else {
                continue;
            };
            core.stats.timer_fires.fetch_add(1, Ordering::Relaxed);
            // Slippage: how far past its deadline this timer fired —
            // the loop's scheduling health under load.
            lock(&core.stats.timer_slippage_us)
                .record(now.saturating_duration_since(t).as_micros() as u64);
            session.on_tick(&mut io);
            // A fresh deadline is taken only after servicing a tick.
            fold_deadline(&session, id, &mut deadlines, &mut heap);
        }
        core.stats
            .timer_heap_len
            .store(heap.len() as u64, Ordering::Relaxed);
        core.stats
            .timers_armed
            .store(deadlines.len() as u64, Ordering::Relaxed);
        let busy_before_wait = now.elapsed();

        // 2. Sleep until the earliest remaining deadline or an event. The
        //    wait takes whole milliseconds and the remainder is rounded
        //    up (rounding down would spin on a sub-millisecond rest), so
        //    a deadline fires up to a millisecond late: the resolution a
        //    sender's pacing quantum is sized to.
        let timeout_ms = match heap.peek() {
            Some(&Reverse((t, _))) => t
                .saturating_duration_since(now)
                .min(IDLE_DEADLINE_CAP)
                .as_micros()
                .div_ceil(1000) as i32,
            None => IDLE_DEADLINE_CAP.as_millis() as i32,
        };
        if let Err(e) = io.dp.wait(timeout_ms, &mut ready) {
            if e.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            break; // EBADF after close: shutting down
        }
        core.stats.epoll_wakeups.fetch_add(1, Ordering::Relaxed);
        let dispatch_start = Instant::now();

        // 3. Dispatch readiness.
        for &token in &ready {
            if token == KICK_TOKEN {
                let mut drained: u64 = 0;
                unsafe {
                    libc::read(
                        core.wakefd,
                        &mut drained as *mut u64 as *mut libc::c_void,
                        8,
                    );
                }
                let ids = std::mem::take(&mut *lock(&core.dirty));
                core.stats
                    .kicks
                    .fetch_add(ids.len() as u64, Ordering::Relaxed);
                for id in ids {
                    match core.session(id) {
                        Some(session) => fold_deadline(&session, id, &mut deadlines, &mut heap),
                        None => {
                            deadlines.remove(&id);
                        }
                    }
                }
                continue;
            }
            let id = token / MAX_ROLES;
            let role = (token % MAX_ROLES) as usize;
            let Some(session) = core.session(id) else {
                continue;
            };
            match session.on_readable(role, &mut io) {
                Ok(()) => fold_deadline(&session, id, &mut deadlines, &mut heap),
                Err(e) => {
                    // Fatal socket error: stop watching (level-triggered
                    // epoll would otherwise re-report it forever — the
                    // busy-spin the old per-endpoint RX threads had) and
                    // surface the failure to the application.
                    lock(&core.sessions).remove(&id);
                    for sock in session.sockets() {
                        io.dp.deregister(sock.raw_fd());
                    }
                    deadlines.remove(&id);
                    session.on_fatal(Fatal::Io(e));
                }
            }
        }

        // Loop latency = busy time this iteration (deadline service +
        // dispatch), excluding the epoll sleep itself.
        let busy = busy_before_wait + dispatch_start.elapsed();
        lock(&core.stats.loop_us).record(busy.as_micros() as u64);
    }

    // Shutdown: every still-registered session learns its driver died.
    let sessions = std::mem::take(&mut *lock(&core.sessions));
    for (_, session) in sessions {
        session.on_fatal(Fatal::ReactorClosed);
    }
}

#[cfg(test)]
mod tests {
    use std::net::{Ipv4Addr, SocketAddrV4};
    use std::sync::mpsc;

    use hrmc_core::ProtocolConfig;

    use super::*;
    use crate::{ReceiverHandle, SenderHandle, Session};

    #[test]
    fn reactor_spins_up_and_down() {
        let r = Reactor::new().expect("reactor");
        assert_eq!(r.session_count(), 0);
        let st = r.stats();
        assert_eq!(st.sessions_hwm, 0);
        assert_eq!(st.packets_rx, 0);
        drop(r); // must join the thread without hanging
    }

    #[test]
    fn clones_share_the_core() {
        let r = Reactor::new().expect("reactor");
        let r2 = r.clone();
        drop(r);
        // The thread is still alive for r2: stats remain readable.
        let _ = r2.stats();
    }

    /// Session ids are the registration ids, 0, 1, … in order:
    /// `session_health` lists them ascending, never reuses one, and puts
    /// nothing in their high bits.
    #[test]
    fn session_health_ids_are_registration_ids() {
        let r = Reactor::new().expect("reactor");
        let group = SocketAddrV4::new(Ipv4Addr::new(239, 255, 87, 4), 47301);
        let tx = || sender(group)(r.clone());
        let ids = || -> Vec<u64> { r.session_health().iter().map(|h| h.id).collect() };
        let first = tx();
        let rx = receiver(group)(r.clone());
        let third = tx();
        assert_eq!(ids(), [0, 1, 2]);
        drop(rx);
        let _fourth = tx();
        assert_eq!(ids(), [0, 2, 3]);
        drop((first, third));
    }

    #[test]
    fn rx_error_classification() {
        use io::ErrorKind as K;
        let d = |e: io::Error| rx_error_disposition(&e);
        assert_eq!(d(io::Error::from(K::WouldBlock)), RxError::Drained);
        assert_eq!(d(io::Error::from(K::TimedOut)), RxError::Drained);
        assert_eq!(d(io::Error::from(K::Interrupted)), RxError::Retry);
        assert_eq!(d(io::Error::from(K::ConnectionRefused)), RxError::Retry);
        assert_eq!(
            d(io::Error::from_raw_os_error(EHOSTUNREACH)),
            RxError::Retry
        );
        // The busy-spin bug: EBADF must be fatal, never retried.
        assert_eq!(d(io::Error::from_raw_os_error(EBADF)), RxError::Fatal);
        assert_eq!(d(io::Error::from(K::PermissionDenied)), RxError::Fatal);
    }

    #[test]
    fn stats_syscalls_per_packet() {
        let st = ReactorStats {
            recvmmsg_calls: 10,
            sendmmsg_calls: 10,
            packets_rx: 50,
            packets_tx: 30,
            ..ReactorStats::default()
        };
        assert!((st.syscalls_per_packet() - 0.25).abs() < 1e-9);
        assert!(ReactorStats::default().syscalls_per_packet() < 1e-9);
    }

    /// A scripted datapath: counts `send_batch` invocations and plays
    /// back a canned verdict per call (swallowing the packets once the
    /// script runs out) — the trait seam that lets the retry loop and
    /// the teardown paths be tested without provoking the kernel.
    #[derive(Default)]
    struct ScriptedDatapath {
        calls: Arc<AtomicU64>,
        verdicts: Mutex<std::collections::VecDeque<Result<usize, io::ErrorKind>>>,
        /// Real readiness underneath, when a running reactor is driven
        /// through the script rather than a bare [`IoBatch`].
        live: Option<EpollDatapath>,
        /// Once set, every watched socket reads as ready and fails with
        /// `EBADF`: a socket dying under the reactor, without a raced fd.
        rx_dead: Arc<AtomicBool>,
        /// Every token ever registered reads as ready on every wait,
        /// deregistered or not: stale readiness the reactor must ignore.
        always_ready: bool,
        tokens: Vec<u64>,
    }

    impl Datapath for ScriptedDatapath {
        fn register(&mut self, fd: i32, token: u64) -> io::Result<()> {
            self.tokens.push(token);
            self.live
                .as_mut()
                .map_or(Ok(()), |dp| dp.register(fd, token))
        }
        fn deregister(&mut self, fd: i32) {
            if let Some(dp) = &mut self.live {
                dp.deregister(fd);
            }
        }
        fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<()> {
            ready.clear();
            if let Some(dp) = &mut self.live {
                dp.wait(timeout_ms, ready)?;
            }
            if self.always_ready || self.rx_dead.load(Ordering::SeqCst) {
                for t in &self.tokens {
                    if !ready.contains(t) {
                        ready.push(*t);
                    }
                }
            }
            Ok(())
        }
        fn recv_batch(&mut self, sock: &McastSocket, rx: &mut RxBatch) -> io::Result<usize> {
            if self.rx_dead.load(Ordering::SeqCst) {
                return Err(io::Error::from_raw_os_error(EBADF));
            }
            match &mut self.live {
                Some(dp) => dp.recv_batch(sock, rx),
                None => Err(io::Error::from(io::ErrorKind::WouldBlock)),
            }
        }
        fn send_batch(
            &mut self,
            _sock: &McastSocket,
            bufs: &[Vec<u8>],
            _dsts: &[SocketAddr],
        ) -> io::Result<usize> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            match lock(&self.verdicts).pop_front() {
                Some(Ok(n)) => Ok(n.min(bufs.len())),
                Some(Err(kind)) => Err(io::Error::from(kind)),
                None => Ok(bufs.len()),
            }
        }
    }

    const EBADF: i32 = 9;

    fn loopback_sender() -> McastSocket {
        let group = std::net::SocketAddrV4::new(std::net::Ipv4Addr::new(239, 255, 87, 1), 47001);
        McastSocket::sender(group, std::net::Ipv4Addr::LOCALHOST).expect("socket")
    }

    /// Transient send failures re-invoke the backend — one `send_batch`
    /// call per attempt, so a backend that counts per invocation (epoll
    /// does) reports every real kernel crossing, not just the winners.
    #[test]
    fn flush_tx_reinvokes_backend_once_per_attempt() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut verdicts = std::collections::VecDeque::new();
        verdicts.push_back(Err(io::ErrorKind::WouldBlock));
        verdicts.push_back(Err(io::ErrorKind::Interrupted));
        verdicts.push_back(Ok(3));
        let stats = Arc::new(StatsCells::default());
        let mut io = IoBatch::new(
            Arc::clone(&stats),
            Box::new(ScriptedDatapath {
                calls: Arc::clone(&calls),
                verdicts: Mutex::new(verdicts),
                ..ScriptedDatapath::default()
            }),
        );
        let sock = loopback_sender();
        let dst = SocketAddr::V4(std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::LOCALHOST,
            47002,
        ));
        for _ in 0..3 {
            io.stage().extend_from_slice(b"payload");
            io.commit(dst, &sock);
        }
        io.flush_tx(&sock);
        assert_eq!(calls.load(Ordering::Relaxed), 3, "one call per attempt");
        assert_eq!(stats.tx_retries.load(Ordering::Relaxed), 2);
        assert_eq!(stats.packets_tx.load(Ordering::Relaxed), 3);
        assert_eq!(stats.tx_drops.load(Ordering::Relaxed), 0);
    }

    /// A persistently failing head datagram is dropped, the rest of the
    /// batch still goes out, and every attempt was a counted call.
    #[test]
    fn flush_tx_drops_poisoned_head_after_retry_budget() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut verdicts = std::collections::VecDeque::new();
        for _ in 0..TX_RETRIES {
            verdicts.push_back(Err(io::ErrorKind::WouldBlock));
        }
        // Budget spent: the next failure (transient or not) drops the head.
        verdicts.push_back(Err(io::ErrorKind::WouldBlock));
        verdicts.push_back(Ok(1)); // the surviving tail
        let stats = Arc::new(StatsCells::default());
        let mut io = IoBatch::new(
            Arc::clone(&stats),
            Box::new(ScriptedDatapath {
                calls: Arc::clone(&calls),
                verdicts: Mutex::new(verdicts),
                ..ScriptedDatapath::default()
            }),
        );
        let sock = loopback_sender();
        let dst = SocketAddr::V4(std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::LOCALHOST,
            47003,
        ));
        for _ in 0..2 {
            io.stage().extend_from_slice(b"payload");
            io.commit(dst, &sock);
        }
        io.flush_tx(&sock);
        assert_eq!(calls.load(Ordering::Relaxed), TX_RETRIES as u64 + 2);
        assert_eq!(stats.tx_retries.load(Ordering::Relaxed), TX_RETRIES as u64);
        assert_eq!(stats.tx_drops.load(Ordering::Relaxed), 1);
        assert_eq!(stats.packets_tx.load(Ordering::Relaxed), 1);
    }

    /// The epoll backend counts the syscall *before* the verdict: a
    /// failing `sendmmsg` (here: destination port 0, `EINVAL`) is still
    /// a kernel crossing and must show up in `sendmmsg_calls` — the
    /// under-count that skewed `syscalls_per_packet` on lossy paths.
    #[test]
    fn epoll_backend_counts_failed_send_attempts() {
        let wakefd = unsafe { libc::eventfd(0, libc::EFD_NONBLOCK | libc::EFD_CLOEXEC) };
        assert!(wakefd >= 0);
        let stats = Arc::new(StatsCells::default());
        let mut dp = EpollDatapath::new(wakefd, Arc::clone(&stats)).expect("dp");
        let sock = loopback_sender();
        let good = SocketAddr::V4(std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::LOCALHOST,
            47004,
        ));
        let bad = SocketAddr::V4(std::net::SocketAddrV4::new(
            std::net::Ipv4Addr::LOCALHOST,
            0,
        ));
        dp.send_batch(&sock, &[b"ok".to_vec()], &[good])
            .expect("send");
        assert_eq!(stats.sendmmsg_calls.load(Ordering::Relaxed), 1);
        let err = dp.send_batch(&sock, &[b"x".to_vec()], &[bad]);
        assert!(err.is_err(), "port 0 must fail");
        assert_eq!(
            stats.sendmmsg_calls.load(Ordering::Relaxed),
            2,
            "failed attempt is still a syscall"
        );
        drop(dp);
        unsafe { libc::close(wakefd) };
    }

    #[test]
    fn syscalls_per_packet_is_zero_before_any_packet_moves() {
        // An idle reactor polls (recvmmsg returning WouldBlock still
        // counts a syscall in principle) without moving packets; the
        // ratio must read 0.0, not the raw syscall count.
        let st = ReactorStats {
            recvmmsg_calls: 1_000,
            sendmmsg_calls: 7,
            packets_rx: 0,
            packets_tx: 0,
            ..ReactorStats::default()
        };
        assert_eq!(st.syscalls_per_packet(), 0.0);
    }

    #[test]
    fn publish_metrics_is_idempotent() {
        let r = Reactor::new().expect("reactor");
        // Let the loop run a few iterations so loop_us has samples.
        std::thread::sleep(Duration::from_millis(5));
        r.core().wake();
        std::thread::sleep(Duration::from_millis(5));
        let mut reg = MetricsRegistry::new();
        r.publish_metrics(&mut reg);
        let first = reg.histogram("reactor_loop_us").map(|h| h.count());
        r.publish_metrics(&mut reg);
        let second = reg.histogram("reactor_loop_us").map(|h| h.count());
        // Re-publishing replaces rather than doubling: counts can only
        // grow by what the live loop recorded in between.
        if let (Some(a), Some(b)) = (first, second) {
            assert!(b >= a, "count shrank: {a} -> {b}");
            assert!(b < 2 * a.max(1) + 16, "double-counted: {a} -> {b}");
        }
    }

    // -----------------------------------------------------------------
    // Teardown: what a dying session does to its blocked callers
    // -----------------------------------------------------------------

    const LO: Ipv4Addr = Ipv4Addr::LOCALHOST;

    /// What kills the session under the blocked call.
    #[derive(Clone, Copy, Debug)]
    enum Cause {
        /// The last user-held `Reactor` drops.
        ReactorDropped,
        /// The session's socket starts failing with `EBADF`.
        SocketDies,
    }

    /// A reactor whose sockets swallow every packet (so nothing ever
    /// joins or acknowledges) and die when `rx_dead` is set.
    fn scripted_reactor(rx_dead: &Arc<AtomicBool>) -> Reactor {
        Reactor::with_datapath(|wakefd, stats| {
            Ok(Box::new(ScriptedDatapath {
                live: Some(EpollDatapath::new(wakefd, stats)?),
                rx_dead: Arc::clone(rx_dead),
                ..ScriptedDatapath::default()
            }))
        })
        .expect("reactor")
    }

    /// A window of a few segments that, with no receiver ever heard
    /// from, is not released while the test runs.
    fn config() -> ProtocolConfig {
        let mut c = ProtocolConfig::hrmc().with_buffer(8 * 1024);
        c.anonymous_release_hold = 60_000_000;
        c
    }

    /// Run `call` on a thread of its own, kill the session by `cause`
    /// once the call has had time to block, and return what it
    /// returned. The watchdog is the assertion that no caller is left
    /// parked on the condvar.
    fn outcome<H: Send + Sync + 'static, T: Send + 'static>(
        cause: Cause,
        bind: impl FnOnce(Reactor) -> H,
        call: impl FnOnce(&H) -> Result<T, NetError> + Send + 'static,
    ) -> (Result<T, NetError>, Arc<H>) {
        let rx_dead = Arc::new(AtomicBool::new(false));
        let reactor = scripted_reactor(&rx_dead);
        let handle = Arc::new(bind(reactor.clone()));
        let (started_tx, started_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let h = Arc::clone(&handle);
        std::thread::spawn(move || {
            started_tx.send(()).expect("test thread alive");
            let _ = done_tx.send(call(&h));
        });
        started_rx.recv().expect("caller started");
        std::thread::sleep(Duration::from_millis(50));
        match cause {
            Cause::ReactorDropped => drop(reactor),
            Cause::SocketDies => rx_dead.store(true, Ordering::SeqCst),
        }
        let result = done_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{cause:?}: the blocked call never returned"));
        (result, handle)
    }

    fn sender(group: SocketAddrV4) -> impl FnOnce(Reactor) -> SenderHandle {
        move |reactor| {
            let b = Session::sender(group).interface(LO).config(config());
            b.reactor(reactor).bind().expect("bind sender")
        }
    }

    fn receiver(group: SocketAddrV4) -> impl FnOnce(Reactor) -> ReceiverHandle {
        move |reactor| {
            let b = Session::receiver(group).interface(LO).config(config());
            b.reactor(reactor).bind().expect("join receiver")
        }
    }

    /// {sender, receiver} × {reactor dropped, socket dies} × the blocked
    /// call: each returns the error that names the cause, and
    /// `fatal_error` tells a broken socket from a stopped reactor.
    #[test]
    fn a_dying_session_fails_every_blocked_call() {
        let ebadf = io::Error::from_raw_os_error(EBADF).kind();
        let mut port = 47100;
        for cause in [Cause::ReactorDropped, Cause::SocketDies] {
            let mut group = || {
                port += 1;
                SocketAddrV4::new(Ipv4Addr::new(239, 255, 87, 2), port)
            };
            let check = |call: &str, err: NetError, fatal: Option<io::ErrorKind>| match cause {
                Cause::ReactorDropped => {
                    assert!(matches!(err, NetError::ReactorClosed), "{call}: {err:?}");
                    assert_eq!(fatal, None, "{call}");
                }
                Cause::SocketDies => {
                    assert!(matches!(err, NetError::SessionFailed), "{call}: {err:?}");
                    assert_eq!(fatal, Some(ebadf), "{call}");
                }
            };

            // Four windows' worth: `send` blocks once the first is full.
            let (r, tx) = outcome(cause, sender(group()), |tx| tx.send(&[7u8; 32 * 1024]));
            check("send", r.expect_err("send"), tx.fatal_error());
            // A dead session refuses new data at once, not when full.
            assert!(tx.send(b"x").is_err());

            let (r, tx) = outcome(cause, sender(group()), |tx| {
                tx.close_and_wait(Duration::from_secs(30))
            });
            check("close_and_wait", r.expect_err("close"), tx.fatal_error());

            let (r, rx) = outcome(cause, receiver(group()), |rx| {
                rx.recv(&mut [0u8; 64], Duration::from_secs(30))
            });
            check("recv", r.expect_err("recv"), rx.fatal_error());
            assert!(rx.has_failed());
        }
    }

    /// Deregistration with work in flight: a sender whose paced data is
    /// still queued, and whose socket keeps reading ready, is dropped.
    /// The reactor lets go of the session within a loop turn (no `Arc`
    /// of it survives) and sends nothing more for it.
    #[test]
    fn deregistering_with_work_in_flight_releases_the_session() {
        let calls = Arc::new(AtomicU64::new(0));
        let reactor = Reactor::with_datapath(|wakefd, stats| {
            Ok(Box::new(ScriptedDatapath {
                calls: Arc::clone(&calls),
                live: Some(EpollDatapath::new(wakefd, stats)?),
                always_ready: true,
                ..ScriptedDatapath::default()
            }))
        })
        .expect("reactor");
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // Three segments at the minimum rate: ~20 ms apart on the wire.
        let mut c = config();
        c.max_rate = c.min_rate;
        let group = SocketAddrV4::new(Ipv4Addr::new(239, 255, 87, 3), 47201);
        let tx = Session::sender(group)
            .interface(LO)
            .config(c)
            .reactor(reactor.clone())
            .bind()
            .expect("bind sender");
        tx.send(&[7u8; 4 * 1024]).expect("send");
        wait_for("the first segment", &|| calls.load(Ordering::SeqCst) > 0);

        let core = reactor.core();
        let session = Arc::downgrade(&core.session(0).expect("registered"));
        drop(tx);
        let turned = reactor.stats().epoll_wakeups;
        wait_for("a loop turn", &|| {
            reactor.stats().epoll_wakeups >= turned + 2
        });
        assert!(session.upgrade().is_none(), "the reactor kept the session");
        let sent = calls.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            sent,
            "sent after deregistration"
        );
        assert_eq!(reactor.session_count(), 0);
    }
}
