//! The receiving endpoint: a [`ReceiverEngine`] driven by the shared
//! reactor. [`ReceiverHandle`] is a thin front over reactor-owned
//! state — the endpoint spawns no threads of its own; the reactor's
//! single event loop drains both its sockets, services its deadlines,
//! and flushes its feedback in `sendmmsg` batches.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hrmc_core::{ProtocolConfig, ReceiverEngine, ReceiverEvent, ReceiverStats};
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

struct Inner {
    engine: Mutex<ReceiverEngine>,
    /// The sender's unicast address, learned from the first packet; all
    /// feedback goes there.
    sender_addr: Mutex<Option<SocketAddr>>,
    /// Group-port multicast socket (receive only). Several receivers on
    /// one host share this port via SO_REUSEPORT.
    socket: McastSocket,
    /// Ephemeral unicast socket: feedback leaves from here, so the
    /// sender's unicast PROBE / JOIN_RESPONSE / NAK_ERR replies come back
    /// here — to *this* receiver, not whichever SO_REUSEPORT sibling the
    /// kernel would hash a group-port unicast to.
    ucast: McastSocket,
    clock: DriverClock,
    complete: AtomicBool,
    lost: AtomicBool,
    /// Set on [`ReceiverEvent::SessionFailed`] *or* when the reactor
    /// stops driving this session: the sender is presumed dead, the JOIN
    /// budget ran out, a socket died, or the reactor shut down.
    failed: AtomicBool,
    /// Refines `failed`: the reactor itself shut down.
    reactor_gone: AtomicBool,
    /// The socket error that killed the session, kept for diagnostics.
    fatal: Mutex<Option<io::Error>>,
    /// Application threads blocked in `recv` wait here on the `engine`
    /// mutex itself: the predicate they sleep on is engine state, and
    /// every notifier holds that mutex.
    wakeup: Condvar,
    /// Per-session traffic totals for telemetry.
    counters: SessionCounters,
}

impl Inner {
    /// The error a blocked application call should surface once the
    /// reactor has stopped driving this session (protocol-level
    /// SessionFailed keeps its own error via the event path).
    fn failure(&self) -> NetError {
        if self.reactor_gone.load(Ordering::SeqCst) {
            NetError::ReactorClosed
        } else {
            NetError::SessionFailed
        }
    }

    /// Feed one decoded datagram to the engine, applying the feedback
    /// routing rules. Caller holds the engine lock.
    fn ingest(&self, engine: &mut ReceiverEngine, bytes: &[u8], from: SocketAddr, now: u64) {
        let pkt = match Packet::decode(bytes) {
            Ok(pkt) => pkt,
            // Audit corruption: a failed checksum is counted and
            // reported, not just silently dropped.
            Err(hrmc_wire::WireError::BadChecksum) => {
                engine.note_checksum_failure(now);
                return;
            }
            Err(_) => return,
        };
        // Peer NAKs pass through for local recovery; other
        // receiver-originated feedback is ignored. The sender's address
        // is learned from control packets unconditionally, and from
        // DATA/PARITY only while unknown (a local-recovery peer repair
        // is DATA from a *peer* and must not hijack the feedback path).
        use hrmc_wire::PacketType as PT;
        let sender_originated = pkt.header.ptype.is_sender_originated();
        if !sender_originated && pkt.header.ptype != PT::Nak {
            return;
        }
        if sender_originated {
            let mut addr = self.sender_addr.lock();
            match pkt.header.ptype {
                PT::Data | PT::Parity => {
                    if addr.is_none() {
                        *addr = Some(from);
                    }
                }
                _ => *addr = Some(from),
            }
        }
        engine.handle_packet(&pkt, now);
    }

    /// Drain engine output into the reactor's `sendmmsg` staging and
    /// surface events. All feedback leaves via the unicast socket.
    fn flush(&self, io: &mut IoBatch) {
        let target = *self.sender_addr.lock();
        let mut engine = self.engine.lock();
        while let Some(out) = engine.poll_output() {
            let dest = match out.dest {
                // Local-recovery NAKs and repairs go to the whole group.
                hrmc_core::Dest::Multicast => SocketAddr::V4(self.ucast.group()),
                _ => match target {
                    Some(addr) => addr,
                    None => continue,
                },
            };
            let buf = io.stage();
            out.packet.encode_into(buf);
            let len = buf.len() as u64;
            io.commit(dest, &self.ucast);
            self.counters.note_tx(len);
        }
        io.flush_tx(&self.ucast);
        self.drain_events(&mut engine);
    }

    /// Drain engine output with direct single-datagram sends — the path
    /// for application threads (close/Drop), which don't own the
    /// reactor's batch scratch and must get LEAVE on the wire *now*,
    /// before deregistration.
    fn flush_inline(&self) {
        let target = *self.sender_addr.lock();
        let mut engine = self.engine.lock();
        let mut bytes = Vec::new();
        while let Some(out) = engine.poll_output() {
            out.packet.encode_into(&mut bytes);
            match out.dest {
                hrmc_core::Dest::Multicast => {
                    let _ = self.ucast.send_multicast(&bytes);
                }
                _ => {
                    if let Some(addr) = target {
                        let _ = self.ucast.send_unicast(&bytes, addr);
                    }
                }
            }
        }
        self.drain_events(&mut engine);
    }

    fn drain_events(&self, engine: &mut ReceiverEngine) {
        while let Some(ev) = engine.poll_event() {
            match ev {
                ReceiverEvent::DataReady => {
                    self.wakeup.notify_all();
                }
                ReceiverEvent::StreamComplete => {
                    self.complete.store(true, Ordering::SeqCst);
                    self.wakeup.notify_all();
                }
                ReceiverEvent::DataLost { .. } => {
                    self.lost.store(true, Ordering::SeqCst);
                    self.wakeup.notify_all();
                }
                ReceiverEvent::SessionFailed => {
                    self.failed.store(true, Ordering::SeqCst);
                    self.wakeup.notify_all();
                }
                ReceiverEvent::Joined | ReceiverEvent::Left => {}
            }
        }
    }
}

impl ReactorSession for Inner {
    fn sockets(&self) -> Vec<&McastSocket> {
        // Role 0: shared group-port socket (DATA, KEEPALIVE, mcast PROBE).
        // Role 1: private unicast socket (JOIN_RESPONSE, PROBE, NAK_ERR).
        vec![&self.socket, &self.ucast]
    }

    fn on_readable(&self, role: usize, io: &mut IoBatch) -> io::Result<()> {
        let sock = if role == 0 { &self.socket } else { &self.ucast };
        for _ in 0..RX_ROUNDS {
            let n = match io.recv(sock) {
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
                    self.ingest(&mut engine, bytes, from, now);
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

    fn on_tick(&self, io: &mut IoBatch) {
        let now = self.clock.now();
        self.engine.lock().on_tick(now);
        self.flush(io);
    }

    fn next_deadline(&self) -> Option<Instant> {
        let now = self.clock.now();
        self.engine
            .lock()
            .next_wakeup(now)
            .map(|us| self.clock.at(us))
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
        let mut h = self.counters.health("receiver");
        let engine = self.engine.lock();
        h.malformed_packets = engine.stats.malformed_packets;
        h.checksum_failures = engine.stats.checksum_failures;
        h.overflow_drops = engine.stats.overflow_drops;
        h.session_failed = engine.has_failed();
        h
    }

    fn publish_metrics(&self, reg: &mut hrmc_core::metrics::MetricsRegistry) {
        // The receiver's window pressure, the live counterpart of the
        // sim's occupancy gauge. Last writer wins across sessions,
        // matching the sender's convention above.
        let engine = self.engine.lock();
        reg.set_gauge(
            "receiver_window_occupancy_permille",
            (engine.window_occupancy() * 1000.0) as u64,
        );
        reg.set_gauge("receiver_pending_naks", engine.pending_naks() as u64);
    }
}

/// Owner handle for a live receiving endpoint; dropping it sends LEAVE
/// and deregisters the session from its reactor.
pub struct ReceiverHandle {
    inner: Arc<Inner>,
    reactor: ReactorRef,
    id: u64,
    flight: Option<hrmc_core::SharedRecorder>,
}

/// Join `group` and register the session with `reactor`. The observer
/// is installed on the engine *before* the session becomes reachable
/// from the reactor thread, so no early packet or tick can slip by
/// unobserved (the race the removed post-join `set_observer` shim
/// could not avoid).
pub(crate) fn join_with(
    group: SocketAddrV4,
    interface: Ipv4Addr,
    config: ProtocolConfig,
    observer: Option<Box<dyn hrmc_core::ProtocolObserver>>,
    flight: Option<hrmc_core::SharedRecorder>,
    reactor: Reactor,
) -> Result<ReceiverHandle, NetError> {
    let socket = McastSocket::receiver(group, interface)?;
    let ucast = McastSocket::sender(group, interface)?;
    let local_port = match ucast.local_addr()? {
        SocketAddr::V4(a) => a.port(),
        SocketAddr::V6(a) => a.port(),
    };
    let clock = DriverClock::new();
    let mut engine = ReceiverEngine::new(config, local_port, group.port(), clock.now());
    if let Some(obs) = observer {
        engine.set_observer(obs);
    }
    let inner = Arc::new(Inner {
        engine: Mutex::new(engine),
        sender_addr: Mutex::new(None),
        socket,
        ucast,
        clock,
        complete: AtomicBool::new(false),
        lost: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        reactor_gone: AtomicBool::new(false),
        fatal: Mutex::new(None),
        wakeup: Condvar::new(),
        counters: SessionCounters::default(),
    });
    let (id, reactor) = reactor.register(Arc::clone(&inner) as Arc<dyn ReactorSession>)?;
    Ok(ReceiverHandle {
        inner,
        reactor,
        id,
        flight,
    })
}

/// Constructor namespace retained for source compatibility — new code
/// should use the [`crate::Session`] builder.
pub struct HrmcReceiver;

impl HrmcReceiver {
    /// Join `group` on `interface` via the global reactor.
    #[deprecated(note = "use `Session::receiver(group).interface(..).config(..).bind()`")]
    pub fn join(
        group: SocketAddrV4,
        interface: Ipv4Addr,
        config: ProtocolConfig,
    ) -> Result<ReceiverHandle, NetError> {
        crate::Session::receiver(group)
            .interface(interface)
            .config(config)
            .bind()
    }
}

impl ReceiverHandle {
    /// Read in-order stream bytes, blocking until some are available, the
    /// stream completes (returns `Ok(0)`), or `timeout` elapses.
    pub fn recv(&self, buf: &mut [u8], timeout: Duration) -> Result<usize, NetError> {
        let deadline = Instant::now() + timeout;
        let mut engine = self.inner.engine.lock();
        loop {
            let n = engine.read(buf, self.inner.clock.now());
            if n > 0 {
                return Ok(n);
            }
            if engine.fully_consumed() {
                return Ok(0);
            }
            if self.inner.failed.load(Ordering::SeqCst) {
                return Err(self.inner.failure());
            }
            if self.inner.lost.load(Ordering::SeqCst) {
                return Err(NetError::DataLost);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(NetError::Timeout);
            }
            // Everything checked above changes only under the guard this
            // wait releases, so no DataReady can fall between the two.
            self.inner
                .wakeup
                .wait_for(&mut engine, left.min(Duration::from_millis(10)));
        }
    }

    /// `true` once the whole stream (through FIN) has been assembled.
    pub fn is_complete(&self) -> bool {
        self.inner.complete.load(Ordering::SeqCst)
    }

    /// `true` once the session terminally failed: the sender presumed
    /// dead, the JOIN retry budget exhausted, or the driver gone.
    pub fn has_failed(&self) -> bool {
        self.inner.failed.load(Ordering::SeqCst)
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> ReceiverStats {
        self.inner.engine.lock().stats.clone()
    }

    /// The flight recorder attached at build time
    /// ([`crate::ReceiverBuilder::flight_recorder`]), if any.
    pub fn flight_recorder(&self) -> Option<&hrmc_core::SharedRecorder> {
        self.flight.as_ref()
    }

    /// The socket error that terminally failed the session, if that is
    /// why it died (a `SessionFailed` return with a non-`None` value
    /// here means the socket broke, not the protocol).
    pub fn fatal_error(&self) -> Option<io::ErrorKind> {
        self.inner.fatal.lock().as_ref().map(io::Error::kind)
    }

    /// Leave the group (the paper's `close`): sends LEAVE to the sender
    /// immediately, from the calling thread.
    pub fn close(&self) {
        self.inner.engine.lock().close(self.inner.clock.now());
        self.inner.flush_inline();
        self.reactor.kick(self.id);
    }
}

impl Drop for ReceiverHandle {
    fn drop(&mut self) {
        // LEAVE must hit the wire before the reactor stops watching.
        self.close();
        self.reactor.deregister(self.id, &*self.inner);
        self.inner.wakeup.notify_all();
    }
}
