//! The sending endpoint: a [`SenderEngine`] behind the shared session
//! driver (`driver.rs`). What is the sender's own is kept here:
//! the table mapping receiver addresses to the engine's [`PeerId`]s, and
//! a deadline that is the earlier of the paper's housekeeping jiffy and
//! the instant the transmitter has both data and credit.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hrmc_core::metrics::MetricsRegistry;
use hrmc_core::{Dest, PeerId, SenderEngine, SenderStats};
use hrmc_wire::Packet;

use crate::clock::DriverClock;
use crate::driver::{Endpoint, Handle};
use crate::reactor::SessionHealth;
use crate::session::Resolved;
use crate::socket::McastSocket;
use crate::NetError;

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

/// `housekeeping_at` when no jiffy is pinned.
const NO_JIFFY: u64 = u64::MAX;

pub(crate) struct SenderEndpoint {
    engine: SenderEngine,
    peers: PeerTable,
    group: SocketAddr,
    /// Session-clock instant of the next housekeeping jiffy, `NO_JIFFY`
    /// until pinned. The engine's "one jiffy from now" wish recedes on
    /// every re-read, so it is pinned here once and held until served.
    housekeeping_at: u64,
}

impl Endpoint for SenderEndpoint {
    const ROLE: &'static str = "sender";
    /// `send` waits on buffer space, `close_and_wait` on the end of the
    /// transfer and whether any NAK_ERR went out before it.
    type WakeKey = (usize, bool, u64);

    fn ingest(&mut self, pkt: &Packet, from: SocketAddr, now: u64) {
        let peer = self.peers.get_or_insert(from);
        self.engine.handle_packet(pkt, peer, now);
    }

    fn checksum_failure(&mut self, now: u64) {
        self.engine.note_checksum_failure(now);
    }

    /// The transmitter runs whenever data and credit exist; release,
    /// probing and keepalive keep the paper's jiffy cadence (releasing
    /// more often would only buy more PROBEs).
    fn on_tick(&mut self, now: u64) {
        if now >= self.housekeeping_at {
            self.housekeeping_at = NO_JIFFY;
            self.engine.on_tick(now);
        } else {
            self.engine.transmit(now);
        }
    }

    fn next_deadline(&mut self, now: u64) -> Option<u64> {
        let jiffy = self.engine.next_wakeup(now).unwrap_or(NO_JIFFY);
        self.housekeeping_at = self.housekeeping_at.min(jiffy);
        let transmit = self.engine.next_transmit(now).unwrap_or(NO_JIFFY);
        let due = self.housekeeping_at.min(transmit);
        (due != NO_JIFFY).then_some(due)
    }

    fn poll_output(&mut self) -> Option<(Packet, SocketAddr)> {
        loop {
            let out = self.engine.poll_output()?;
            let dest = match out.dest {
                Dest::Multicast => Some(self.group),
                Dest::Unicast(p) => self.peers.addr(p),
                Dest::Sender => unreachable!("sender engine never targets Sender"),
            };
            if let Some(dest) = dest {
                return Some((out.packet, dest));
            }
        }
    }

    fn wake_key(&self) -> Self::WakeKey {
        let e = &self.engine;
        (e.buffered_bytes(), e.is_finished(), e.stats.nak_errs_sent)
    }

    fn fill_health(&self, h: &mut SessionHealth) {
        h.rate_halvings = self.engine.rate_halvings();
        h.urgent_stops = self.engine.urgent_stops();
        h.members_ejected = self.engine.stats.members_ejected;
        h.malformed_packets = self.engine.stats.malformed_packets;
        h.checksum_failures = self.engine.stats.checksum_failures;
    }

    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        self.engine.publish_metrics(reg);
    }
}

/// Bind a sender ("binds to a local port, connects to a known multicast
/// address and port number") and start driving it.
pub(crate) fn bind(r: Resolved) -> Result<SenderHandle, NetError> {
    let socket = McastSocket::sender(r.group, r.interface)?;
    let clock = DriverClock::new();
    let local_port = socket.local_addr()?.port();
    let mut engine = SenderEngine::new(r.config, local_port, r.group.port(), 0, clock.now());
    if let Some(obs) = r.observer {
        engine.set_observer(obs);
    }
    let endpoint = SenderEndpoint {
        engine,
        peers: PeerTable::default(),
        group: SocketAddr::V4(r.group),
        housekeeping_at: NO_JIFFY,
    };
    Handle::start(endpoint, vec![socket], clock, r.reactor).map(SenderHandle)
}

/// Owner handle for a live sending endpoint; dropping it deregisters
/// the session from its reactor.
pub struct SenderHandle(Handle<SenderEndpoint>);

impl SenderHandle {
    /// Queue the whole of `data` on the stream, blocking while the send
    /// buffer is full (the paper's blocking `send` system call). Fails
    /// with [`NetError::Closed`] once the stream was closed.
    pub fn send(&self, data: &[u8]) -> Result<(), NetError> {
        let mut offset = 0;
        while offset < data.len() {
            offset += self.0.wait_until(None, |st, now| {
                if let Some(e) = st.failure() {
                    return Some(Err(e));
                }
                if st.ep.engine.is_closed() {
                    return Some(Err(NetError::Closed));
                }
                let n = st.ep.engine.submit(&data[offset..], now);
                (n > 0).then_some(Ok(n))
            })?;
            // New data arms the transmitter: kick the reactor so it
            // re-reads the deadline and sends as soon as the rate
            // controller allows instead of finishing an idle sleep.
            self.0.kick();
        }
        Ok(())
    }

    /// Close the stream without blocking: the FIN segment is queued
    /// behind the data. Use [`SenderHandle::close_and_wait`] to block
    /// until every byte is confirmed released.
    pub fn close(&self) {
        self.0.lock().ep.engine.close(self.0.now());
        self.0.kick();
    }

    /// Close the stream and wait until every byte is confirmed released
    /// (Hybrid: every receiver confirmed it). Returns the final stats, or
    /// [`NetError::DataLost`] when some receiver was answered NAK_ERR
    /// (RMC: data it asked for was already released).
    pub fn close_and_wait(&self, timeout: Duration) -> Result<SenderStats, NetError> {
        self.close();
        self.0.wait_until(Some(Instant::now() + timeout), |st, _| {
            let engine = &st.ep.engine;
            engine
                .is_finished()
                .then(|| match engine.stats.nak_errs_sent {
                    0 => Ok(engine.stats.clone()),
                    _ => Err(NetError::DataLost),
                })
        })
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> SenderStats {
        self.0.lock().ep.engine.stats.clone()
    }

    /// The socket error that terminally failed the session, if that is
    /// why it died (a `SessionFailed` return with a non-`None` value
    /// here means the socket broke, not the protocol).
    pub fn fatal_error(&self) -> Option<io::ErrorKind> {
        self.0.fatal_error()
    }

    /// Number of receivers currently in the group.
    pub fn member_count(&self) -> usize {
        self.0.lock().ep.engine.member_count()
    }

    /// Current RTT estimate (most distant receiver), microseconds.
    pub fn rtt(&self) -> u64 {
        self.0.lock().ep.engine.rtt()
    }
}
