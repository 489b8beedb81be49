//! The one live session driver. The paper's argument is that the same
//! protocol code runs in the kernel and in the simulator; this is the
//! one place where that code meets real sockets. A [`Driver`] is the
//! reactor-facing half: it drains a readable socket into the engine,
//! serves the engine's deadline, stages what the engine wants sent and
//! wakes blocked calls when the state they wait on moved. A [`Handle`]
//! is the application half: the blocking calls of both roles are one
//! wait on the engine's own mutex. `sender.rs` and `receiver.rs` supply
//! only an [`Endpoint`]: the engine plus the addressing it needs.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use hrmc_core::MetricsRegistry;
use hrmc_wire::{Packet, WireError};

use crate::clock::DriverClock;
use crate::reactor::{
    rx_error_disposition, Core, Fatal, IoBatch, Reactor, ReactorSession, RxError, SessionCounters,
    SessionHealth,
};
use crate::socket::{McastSocket, RX_SLOTS};
use crate::{lock, NetError};

/// `recvmmsg` batches drained per readiness event before yielding the
/// reactor thread to other sessions.
const RX_ROUNDS: usize = 4;

/// Longest a blocked application call sleeps before it re-checks its
/// predicate. Every engine turn that changes what the callers wait for
/// notifies under the mutex they wait on, so this only bounds the damage
/// of a change the role's [`Endpoint::WakeKey`] leaves out.
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// What a role contributes to the driver: a sans-io engine and the
/// mapping between its peers and socket addresses. Every method runs
/// under the session's one mutex.
pub(crate) trait Endpoint: Send + 'static {
    /// `"sender"` or `"receiver"`, for telemetry.
    const ROLE: &'static str;
    /// Exactly the engine state this role's blocked calls read. The
    /// driver compares it across every engine turn and wakes them only
    /// when it moved.
    type WakeKey: PartialEq + Send;
    /// Feed one decoded datagram that arrived from `from`.
    fn ingest(&mut self, pkt: &Packet, from: SocketAddr, now: u64);
    /// Audit a datagram that failed its checksum.
    fn checksum_failure(&mut self, now: u64);
    /// Serve the deadline [`Endpoint::next_deadline`] announced.
    fn on_tick(&mut self, now: u64);
    /// Session-clock instant of the next tick the engine needs.
    fn next_deadline(&mut self, now: u64) -> Option<u64>;
    /// The next packet to send and the address it goes to.
    fn poll_output(&mut self) -> Option<(Packet, SocketAddr)>;
    /// The current [`Endpoint::WakeKey`].
    fn wake_key(&self) -> Self::WakeKey;
    /// Add the engine's degradation counters to `h`.
    fn fill_health(&self, h: &mut SessionHealth);
    /// Publish engine-level gauges.
    fn publish_metrics(&self, reg: &mut MetricsRegistry);
}

/// Everything behind the session's mutex.
pub(crate) struct State<E: Endpoint> {
    pub(crate) ep: E,
    /// Why the reactor stopped driving this session, once it has.
    fatal: Option<Fatal>,
    /// `ep.wake_key()` as the last engine turn or blocked call saw it.
    seen: E::WakeKey,
}

impl<E: Endpoint> State<E> {
    /// The error a blocked call surfaces once the reactor has stopped
    /// driving the session.
    pub(crate) fn failure(&self) -> Option<NetError> {
        self.fatal.as_ref().map(|f| match f {
            Fatal::ReactorClosed => NetError::ReactorClosed,
            Fatal::Io(_) => NetError::SessionFailed,
        })
    }
}

pub(crate) struct Driver<E: Endpoint> {
    state: Mutex<State<E>>,
    /// In role order. Output leaves through the last one: the sender's
    /// only socket, the receiver's private unicast socket.
    sockets: Vec<McastSocket>,
    clock: DriverClock,
    /// Blocked application calls wait here on `state` itself: what they
    /// sleep on is engine state, and every notifier holds that mutex.
    wakeup: Condvar,
    counters: SessionCounters,
}

impl<E: Endpoint> Driver<E> {
    /// Hand every pending packet to `emit` (which returns its encoded
    /// length), then wake blocked calls if what they read moved. Only
    /// then: `notify_all` makes a futex call even with no one waiting.
    fn drain(&self, st: &mut State<E>, mut emit: impl FnMut(&Packet, SocketAddr) -> usize) {
        while let Some((packet, dest)) = st.ep.poll_output() {
            self.counters.note_tx(emit(&packet, dest) as u64);
        }
        let key = st.ep.wake_key();
        if key != st.seen {
            st.seen = key;
            self.wakeup.notify_all();
        }
    }

    /// Drain engine output into the reactor's `sendmmsg` staging.
    fn flush(&self, st: &mut State<E>, io: &mut IoBatch) {
        let sock = self.sockets.last().expect("a session has a socket");
        self.drain(st, |packet, dest| {
            let buf = io.stage();
            packet.encode_into(buf);
            let len = buf.len();
            io.commit(dest, sock);
            len
        });
        io.flush_tx(sock);
    }
}

impl<E: Endpoint> ReactorSession for Driver<E> {
    fn sockets(&self) -> Vec<&McastSocket> {
        self.sockets.iter().collect()
    }

    fn on_readable(&self, role: usize, io: &mut IoBatch) -> io::Result<()> {
        let sock = &self.sockets[role];
        for _ in 0..RX_ROUNDS {
            let n = match io.recv(sock) {
                Ok(n) => n,
                Err(e) => match rx_error_disposition(&e) {
                    RxError::Drained => break,
                    RxError::Retry => continue,
                    // EBADF and friends: surfacing the error deregisters
                    // the session. Never spin on a dead socket.
                    RxError::Fatal => return Err(e),
                },
            };
            let now = self.clock.now();
            let mut st = lock(&self.state);
            let mut rx_bytes = 0u64;
            for i in 0..n {
                let (bytes, from) = io.rx.datagram(i);
                rx_bytes += bytes.len() as u64;
                match Packet::decode(bytes) {
                    Ok(pkt) => st.ep.ingest(&pkt, from, now),
                    // A failed checksum is counted and reported, not
                    // just dropped.
                    Err(WireError::BadChecksum) => st.ep.checksum_failure(now),
                    Err(_) => {}
                }
            }
            self.counters.note_rx(n as u64, rx_bytes);
            self.flush(&mut st, io);
            if n < RX_SLOTS {
                break;
            }
        }
        Ok(())
    }

    fn on_tick(&self, io: &mut IoBatch) {
        let mut st = lock(&self.state);
        st.ep.on_tick(self.clock.now());
        self.flush(&mut st, io);
    }

    fn next_deadline(&self) -> Option<Instant> {
        let due = lock(&self.state).ep.next_deadline(self.clock.now());
        due.map(|us| self.clock.at(us))
    }

    fn on_fatal(&self, reason: Fatal) {
        // Under the mutex, like every other notifier, so a waiter that
        // has just found the session alive is already in its wait.
        let mut st = lock(&self.state);
        st.fatal.get_or_insert(reason);
        self.wakeup.notify_all();
    }

    fn health(&self) -> SessionHealth {
        let mut h = self.counters.health(E::ROLE);
        lock(&self.state).ep.fill_health(&mut h);
        h
    }

    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        lock(&self.state).ep.publish_metrics(reg);
    }
}

/// The application's grip on a live session; dropping it deregisters
/// the session from its reactor.
pub(crate) struct Handle<E: Endpoint> {
    driver: Arc<Driver<E>>,
    /// The reactor that drives the session, without a claim on its
    /// thread.
    core: Arc<Core>,
    id: u64,
    /// The private reactor of a session built without `.reactor(..)`.
    /// Declared last: its thread is joined after `drop` deregistered.
    _own_reactor: Option<Reactor>,
}

impl<E: Endpoint> Handle<E> {
    /// Register `endpoint` over `sockets` (role order) with `reactor`,
    /// or with a reactor of its own when none is given. The
    /// endpoint arrives fully built, observers installed, so no packet
    /// or tick can reach it unobserved.
    pub(crate) fn start(
        endpoint: E,
        sockets: Vec<McastSocket>,
        clock: DriverClock,
        reactor: Option<Reactor>,
    ) -> Result<Handle<E>, NetError> {
        let (reactor, own) = match reactor {
            Some(r) => (r, None),
            None => {
                let r = Reactor::new()?;
                (r.clone(), Some(r))
            }
        };
        let driver = Arc::new(Driver {
            state: Mutex::new(State {
                seen: endpoint.wake_key(),
                ep: endpoint,
                fatal: None,
            }),
            sockets,
            clock,
            wakeup: Condvar::new(),
            counters: SessionCounters::default(),
        });
        let (id, core) = reactor.register(Arc::clone(&driver) as Arc<dyn ReactorSession>)?;
        Ok(Handle {
            driver,
            core,
            id,
            _own_reactor: own,
        })
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, State<E>> {
        lock(&self.driver.state)
    }

    pub(crate) fn now(&self) -> u64 {
        self.driver.clock.now()
    }

    /// Ask the reactor to re-read this session's deadline.
    pub(crate) fn kick(&self) {
        self.core.kick(self.id);
    }

    /// The one rendezvous: run `poll` under the session's mutex each
    /// time engine state may have changed, until it yields, the reactor
    /// stops driving the session, or `deadline` passes. Everything
    /// `poll` reads changes only under the guard the wait releases, and
    /// the wake key is re-read under it after each `poll`, so the next
    /// engine turn that moves what `poll` refused on notifies: no wakeup
    /// can fall between a refusal and the sleep.
    pub(crate) fn wait_until<T>(
        &self,
        deadline: Option<Instant>,
        mut poll: impl FnMut(&mut State<E>, u64) -> Option<Result<T, NetError>>,
    ) -> Result<T, NetError> {
        let mut st = self.lock();
        loop {
            let done = poll(&mut st, self.now());
            st.seen = st.ep.wake_key();
            if let Some(done) = done {
                return done;
            }
            if let Some(e) = st.failure() {
                return Err(e);
            }
            let left = deadline.map_or(WAIT_SLICE, |d| d.saturating_duration_since(Instant::now()));
            if left.is_zero() {
                return Err(NetError::Timeout);
            }
            st = self
                .driver
                .wakeup
                .wait_timeout(st, left.min(WAIT_SLICE))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Send what the engine has pending from the calling thread, one
    /// datagram at a time: for output that must be on the wire before
    /// the caller goes on to deregister.
    pub(crate) fn flush_now(&self, st: &mut State<E>) {
        let sock = self.driver.sockets.last().expect("a session has a socket");
        let mut bytes = Vec::new();
        self.driver.drain(st, |packet, dest| {
            packet.encode_into(&mut bytes);
            let _ = sock.send_unicast(&bytes, dest);
            bytes.len()
        });
    }

    /// The socket error that terminally failed the session, if that is
    /// why it died.
    pub(crate) fn fatal_error(&self) -> Option<io::ErrorKind> {
        match &self.lock().fatal {
            Some(Fatal::Io(e)) => Some(e.kind()),
            _ => None,
        }
    }
}

impl<E: Endpoint> Drop for Handle<E> {
    fn drop(&mut self) {
        self.core.deregister(self.id, &*self.driver);
        self.driver.wakeup.notify_all();
    }
}
