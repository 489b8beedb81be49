//! The sending endpoint: a [`SenderEngine`] driven by the shared
//! reactor. [`SenderHandle`] is a thin front over reactor-owned state —
//! the endpoint spawns no threads of its own; the reactor's single
//! event loop drains its socket, services its deadlines, and flushes
//! its output in `sendmmsg` batches.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hrmc_core::{Dest, PeerId, ProtocolConfig, SenderEngine, SenderEvent, SenderStats};
use hrmc_wire::Packet;
use parking_lot::{Condvar, Mutex};

use crate::clock::DriverClock;
use crate::reactor::{
    Fatal, IoBatch, Reactor, ReactorRef, ReactorSession, RxError, SessionCounters, SessionHealth,
};
use crate::socket::{McastSocket, RX_SLOTS};
use crate::NetError;

/// `recvmmsg` batches drained per readiness event before yielding the
/// reactor thread to other sessions.
const RX_ROUNDS: usize = 4;

/// Maps receiver socket addresses to the engine's [`PeerId`]s. The
/// paper's sender keys membership by the receiver's unicast IP address;
/// the engine is transport-agnostic, so the driver owns this mapping.
#[derive(Debug, Default)]
struct PeerTable {
    by_addr: HashMap<SocketAddr, PeerId>,
    by_id: Vec<SocketAddr>,
}

impl PeerTable {
    fn get_or_insert(&mut self, addr: SocketAddr) -> PeerId {
        if let Some(&id) = self.by_addr.get(&addr) {
            return id;
        }
        let id = PeerId(self.by_id.len() as u32);
        self.by_addr.insert(addr, id);
        self.by_id.push(addr);
        id
    }

    fn addr(&self, id: PeerId) -> Option<SocketAddr> {
        self.by_id.get(id.0 as usize).copied()
    }
}

struct Inner {
    engine: Mutex<SenderEngine>,
    peers: Mutex<PeerTable>,
    socket: McastSocket,
    clock: DriverClock,
    finished: AtomicBool,
    lost: AtomicBool,
    /// Set when the reactor stops driving this session (fatal socket
    /// error or reactor shutdown): the endpoint is dead.
    failed: AtomicBool,
    /// Refines `failed`: the reactor itself shut down.
    reactor_gone: AtomicBool,
    /// The socket error that killed the session, kept for diagnostics.
    fatal: Mutex<Option<io::Error>>,
    /// Application threads blocked in `send` / `close_and_wait` wait
    /// here on the `engine` mutex itself: the predicate they sleep on is
    /// engine state, and every notifier holds that mutex.
    wakeup: Condvar,
    /// Session-clock instant of the next housekeeping jiffy, `NO_JIFFY`
    /// until pinned. The engine's "one jiffy from now" wish recedes on
    /// every re-read, so it is pinned here once and held until served.
    /// Reactor thread only (`next_deadline` / `on_tick`), hence relaxed.
    housekeeping_at: AtomicU64,
    /// Per-session traffic totals for telemetry.
    counters: SessionCounters,
}

/// `housekeeping_at` when no jiffy is pinned.
const NO_JIFFY: u64 = u64::MAX;

impl Inner {
    /// The error a blocked application call should surface once the
    /// reactor has stopped driving this session.
    fn failure(&self) -> NetError {
        if self.reactor_gone.load(Ordering::SeqCst) {
            NetError::ReactorClosed
        } else {
            NetError::SessionFailed
        }
    }

    /// Drain engine output into the reactor's `sendmmsg` staging and
    /// surface events. Lock order is engine → peers (matching every
    /// other taker).
    fn flush(&self, io: &mut IoBatch) {
        let mut engine = self.engine.lock();
        while let Some(out) = engine.poll_output() {
            let dest = match out.dest {
                Dest::Multicast => SocketAddr::V4(self.socket.group()),
                Dest::Unicast(p) => match self.peers.lock().addr(p) {
                    Some(addr) => addr,
                    None => continue,
                },
                Dest::Sender => unreachable!("sender engine never targets Sender"),
            };
            let buf = io.stage();
            out.packet.encode_into(buf);
            let len = buf.len() as u64;
            io.commit(dest, &self.socket);
            self.counters.note_tx(len);
        }
        io.flush_tx(&self.socket);
        while let Some(ev) = engine.poll_event() {
            match ev {
                SenderEvent::SendSpaceAvailable => {
                    self.wakeup.notify_all();
                }
                SenderEvent::TransferComplete => {
                    self.finished.store(true, Ordering::SeqCst);
                    self.wakeup.notify_all();
                }
                SenderEvent::RetransmissionError { .. } => {
                    self.lost.store(true, Ordering::SeqCst);
                }
                SenderEvent::MemberEjected(_) => {
                    // Ejection can unblock buffer release: wake a sender
                    // blocked in `send` or `close_and_wait`.
                    self.wakeup.notify_all();
                }
                SenderEvent::MemberJoined(_) | SenderEvent::MemberLeft(_) => {}
            }
        }
    }
}

impl ReactorSession for Inner {
    fn sockets(&self) -> Vec<&McastSocket> {
        vec![&self.socket]
    }

    fn on_readable(&self, _role: usize, io: &mut IoBatch) -> io::Result<()> {
        for _ in 0..RX_ROUNDS {
            let n = match io.recv(&self.socket) {
                Ok(n) => n,
                Err(e) => match crate::reactor::rx_error_disposition(&e) {
                    RxError::Drained => break,
                    RxError::Retry => continue,
                    // EBADF and friends: surfacing the error deregisters
                    // the session — never spin on a dead socket.
                    RxError::Fatal => return Err(e),
                },
            };
            let now = self.clock.now();
            {
                let mut engine = self.engine.lock();
                let mut rx_bytes = 0u64;
                for i in 0..n {
                    let (bytes, from) = io.rx.datagram(i);
                    rx_bytes += bytes.len() as u64;
                    match Packet::decode(bytes) {
                        Ok(pkt) => {
                            let peer = self.peers.lock().get_or_insert(from);
                            engine.handle_packet(&pkt, peer, now);
                        }
                        // Audit corruption: a failed checksum is counted
                        // and reported, not just silently dropped.
                        Err(hrmc_wire::WireError::BadChecksum) => {
                            engine.note_checksum_failure(now);
                        }
                        Err(_) => {}
                    }
                }
                self.counters.note_rx(n as u64, rx_bytes);
            }
            self.flush(io);
            if n < RX_SLOTS {
                break;
            }
        }
        Ok(())
    }

    /// The transmitter runs whenever data and credit exist; release,
    /// probing and keepalive keep the paper's jiffy cadence (releasing
    /// more often would only buy more PROBEs).
    fn on_tick(&self, io: &mut IoBatch) {
        let now = self.clock.now();
        {
            let mut engine = self.engine.lock();
            if now >= self.housekeeping_at.load(Ordering::Relaxed) {
                self.housekeeping_at.store(NO_JIFFY, Ordering::Relaxed);
                engine.on_tick(now);
            } else {
                engine.transmit(now);
            }
        }
        self.flush(io);
    }

    fn next_deadline(&self) -> Option<Instant> {
        let now = self.clock.now();
        let engine = self.engine.lock();
        let jiffy = self
            .housekeeping_at
            .load(Ordering::Relaxed)
            .min(engine.next_wakeup(now).unwrap_or(NO_JIFFY));
        self.housekeeping_at.store(jiffy, Ordering::Relaxed);
        let due = jiffy.min(engine.next_transmit(now).unwrap_or(NO_JIFFY));
        (due != NO_JIFFY).then(|| self.clock.at(due))
    }

    fn on_fatal(&self, reason: Fatal) {
        match reason {
            Fatal::ReactorClosed => self.reactor_gone.store(true, Ordering::SeqCst),
            Fatal::Io(e) => *self.fatal.lock() = Some(e),
        }
        // Under the engine mutex, like every other notifier, so a waiter
        // that has just checked `failed` is already in its wait.
        let _engine = self.engine.lock();
        self.failed.store(true, Ordering::SeqCst);
        self.wakeup.notify_all();
    }

    fn health(&self) -> SessionHealth {
        let mut h = self.counters.health("sender");
        let engine = self.engine.lock();
        h.rate_halvings = engine.rate_halvings();
        h.urgent_stops = engine.urgent_stops();
        h.members_ejected = engine.stats.members_ejected;
        h.malformed_packets = engine.stats.malformed_packets;
        h.checksum_failures = engine.stats.checksum_failures;
        h
    }

    fn publish_metrics(&self, reg: &mut hrmc_core::metrics::MetricsRegistry) {
        self.engine.lock().publish_metrics(reg);
    }
}

/// Owner handle for a live sending endpoint; dropping it deregisters
/// the session from its reactor.
pub struct SenderHandle {
    inner: Arc<Inner>,
    reactor: ReactorRef,
    id: u64,
    flight: Option<hrmc_core::SharedRecorder>,
}

/// Bind a sender and register it with `reactor`. The observer is
/// installed on the engine *before* the session becomes reachable from
/// the reactor thread, so no early packet or tick can slip by
/// unobserved (the race the removed post-bind `set_observer` shim
/// could not avoid).
pub(crate) fn bind_with(
    group: SocketAddrV4,
    interface: Ipv4Addr,
    config: ProtocolConfig,
    observer: Option<Box<dyn hrmc_core::ProtocolObserver>>,
    flight: Option<hrmc_core::SharedRecorder>,
    reactor: Reactor,
) -> Result<SenderHandle, NetError> {
    let socket = McastSocket::sender(group, interface)?;
    let local_port = match socket.local_addr()? {
        SocketAddr::V4(a) => a.port(),
        SocketAddr::V6(a) => a.port(),
    };
    let clock = DriverClock::new();
    let mut engine = SenderEngine::new(config, local_port, group.port(), 0, clock.now());
    if let Some(obs) = observer {
        engine.set_observer(obs);
    }
    let inner = Arc::new(Inner {
        engine: Mutex::new(engine),
        peers: Mutex::new(PeerTable::default()),
        socket,
        clock,
        finished: AtomicBool::new(false),
        lost: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        reactor_gone: AtomicBool::new(false),
        fatal: Mutex::new(None),
        wakeup: Condvar::new(),
        housekeeping_at: AtomicU64::new(NO_JIFFY),
        counters: SessionCounters::default(),
    });
    let (id, reactor) = reactor.register(Arc::clone(&inner) as Arc<dyn ReactorSession>)?;
    Ok(SenderHandle {
        inner,
        reactor,
        id,
        flight,
    })
}

/// Constructor namespace retained for source compatibility — new code
/// should use the [`crate::Session`] builder.
pub struct HrmcSender;

impl HrmcSender {
    /// Bind a sender to `group` via `interface` on the global reactor.
    #[deprecated(note = "use `Session::sender(group).interface(..).config(..).bind()`")]
    pub fn bind(
        group: SocketAddrV4,
        interface: Ipv4Addr,
        config: ProtocolConfig,
    ) -> Result<SenderHandle, NetError> {
        crate::Session::sender(group)
            .interface(interface)
            .config(config)
            .bind()
    }
}

impl SenderHandle {
    /// Queue the whole of `data` on the stream, blocking while the send
    /// buffer is full (the paper's blocking `send` system call).
    pub fn send(&self, data: &[u8]) -> Result<(), NetError> {
        let mut offset = 0;
        while offset < data.len() {
            let mut engine = self.inner.engine.lock();
            if self.inner.failed.load(Ordering::SeqCst) {
                return Err(self.inner.failure());
            }
            let n = engine.submit(&data[offset..], self.inner.clock.now());
            if n == 0 {
                // Wait for SendSpaceAvailable on the guard the refusal
                // was read under (with a safety timeout so a vanished
                // group cannot wedge the application forever).
                self.inner
                    .wakeup
                    .wait_for(&mut engine, Duration::from_millis(50));
                continue;
            }
            drop(engine);
            offset += n;
            // New data arms the transmitter: kick the reactor so it
            // re-reads the deadline and sends as soon as the rate
            // controller allows instead of finishing an idle sleep.
            self.reactor.kick(self.id);
        }
        Ok(())
    }

    /// Close the stream without blocking: the FIN segment is queued
    /// behind the data. Use [`SenderHandle::close_and_wait`] to block
    /// until every byte is confirmed released.
    pub fn close(&self) {
        self.inner.engine.lock().close(self.inner.clock.now());
        self.reactor.kick(self.id);
    }

    /// Close the stream and wait until every byte is confirmed released
    /// (Hybrid: every receiver confirmed it). Returns the final stats.
    pub fn close_and_wait(&self, timeout: Duration) -> Result<SenderStats, NetError> {
        self.close();
        let deadline = Instant::now() + timeout;
        let mut engine = self.inner.engine.lock();
        while !self.inner.finished.load(Ordering::SeqCst) {
            if self.inner.failed.load(Ordering::SeqCst) {
                return Err(self.inner.failure());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(NetError::Timeout);
            }
            self.inner
                .wakeup
                .wait_for(&mut engine, left.min(Duration::from_millis(20)));
        }
        if self.inner.lost.load(Ordering::SeqCst) {
            return Err(NetError::DataLost);
        }
        Ok(engine.stats.clone())
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> SenderStats {
        self.inner.engine.lock().stats.clone()
    }

    /// The flight recorder attached at build time
    /// ([`crate::SenderBuilder::flight_recorder`]), if any.
    pub fn flight_recorder(&self) -> Option<&hrmc_core::SharedRecorder> {
        self.flight.as_ref()
    }

    /// The socket error that terminally failed the session, if that is
    /// why it died (a `SessionFailed` return with a non-`None` value
    /// here means the socket broke, not the protocol).
    pub fn fatal_error(&self) -> Option<io::ErrorKind> {
        self.inner.fatal.lock().as_ref().map(io::Error::kind)
    }

    /// Number of receivers currently in the group.
    pub fn member_count(&self) -> usize {
        self.inner.engine.lock().member_count()
    }

    /// Current RTT estimate (most distant receiver), microseconds.
    pub fn rtt(&self) -> u64 {
        self.inner.engine.lock().rtt()
    }
}

impl Drop for SenderHandle {
    fn drop(&mut self) {
        self.reactor.deregister(self.id, &*self.inner);
        self.inner.wakeup.notify_all();
    }
}
