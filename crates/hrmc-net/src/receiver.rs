//! The receiving endpoint: a [`ReceiverEngine`] behind the shared
//! session driver (`driver.rs`). What is the receiver's own is
//! kept here: learning the sender's unicast address, the second socket
//! that feedback leaves from, and a LEAVE that is sent from the calling
//! thread because the handle deregisters right after.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hrmc_core::metrics::MetricsRegistry;
use hrmc_core::{Dest, ReceiverEngine, ReceiverStats};
use hrmc_wire::{Packet, PacketType};

use crate::clock::DriverClock;
use crate::driver::{Endpoint, Handle};
use crate::reactor::SessionHealth;
use crate::session::Resolved;
use crate::socket::McastSocket;
use crate::NetError;

pub(crate) struct ReceiverEndpoint {
    engine: ReceiverEngine,
    /// The sender's unicast address, learned from the first packet; all
    /// feedback goes there.
    sender_addr: Option<SocketAddr>,
    group: SocketAddr,
    /// The engine acted on a NAK_ERR: stream bytes are gone for good.
    lost: bool,
    /// `close` already sent LEAVE.
    closed: bool,
}

impl Endpoint for ReceiverEndpoint {
    const ROLE: &'static str = "receiver";
    /// Everything `recv` decides on.
    type WakeKey = (usize, bool, bool, bool);

    /// Peer NAKs pass through for local recovery; other
    /// receiver-originated feedback is ignored. The sender's address is
    /// learned from control packets unconditionally, and from
    /// DATA/PARITY only while unknown (a local-recovery peer repair is
    /// DATA from a *peer* and must not hijack the feedback path).
    fn ingest(&mut self, pkt: &Packet, from: SocketAddr, now: u64) {
        let ptype = pkt.header.ptype;
        if ptype.is_sender_originated() {
            let data = matches!(ptype, PacketType::Data | PacketType::Parity);
            if !data || self.sender_addr.is_none() {
                self.sender_addr = Some(from);
            }
        } else if ptype != PacketType::Nak {
            return;
        }
        // A NAK_ERR counts as loss only once the window is attached: one
        // that arrives before names nothing this receiver was owed.
        let attached = self.engine.rcv_nxt().is_some();
        let errs = self.engine.stats.nak_errs_received;
        self.engine.handle_packet(pkt, now);
        self.lost |= attached && self.engine.stats.nak_errs_received != errs;
    }

    fn checksum_failure(&mut self, now: u64) {
        self.engine.note_checksum_failure(now);
    }

    fn on_tick(&mut self, now: u64) {
        self.engine.on_tick(now);
    }

    fn next_deadline(&mut self, now: u64) -> Option<u64> {
        self.engine.next_wakeup(now)
    }

    fn poll_output(&mut self) -> Option<(Packet, SocketAddr)> {
        loop {
            let out = self.engine.poll_output()?;
            let dest = match out.dest {
                // Local-recovery NAKs and repairs go to the whole group.
                Dest::Multicast => Some(self.group),
                _ => self.sender_addr,
            };
            if let Some(dest) = dest {
                return Some((out.packet, dest));
            }
        }
    }

    fn wake_key(&self) -> Self::WakeKey {
        let e = &self.engine;
        (
            e.readable_bytes(),
            e.stream_complete(),
            e.has_failed(),
            self.lost,
        )
    }

    fn fill_health(&self, h: &mut SessionHealth) {
        h.malformed_packets = self.engine.stats.malformed_packets;
        h.checksum_failures = self.engine.stats.checksum_failures;
        h.overflow_drops = self.engine.stats.overflow_drops;
        h.session_failed = self.engine.has_failed();
    }

    /// The receiver's window pressure, the live counterpart of the
    /// sim's occupancy gauge. Last writer wins across sessions.
    fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        reg.set_gauge(
            "receiver_window_occupancy_permille",
            (self.engine.window_occupancy() * 1000.0) as u64,
        );
        reg.set_gauge("receiver_pending_naks", self.engine.pending_naks() as u64);
    }
}

/// Join `group` ("the receiving application uses setsockopt to join the
/// multicast group") and start driving the session.
pub(crate) fn join(r: Resolved) -> Result<ReceiverHandle, NetError> {
    // Role 0: the group-port socket (DATA, KEEPALIVE, multicast PROBE),
    // receive only; receivers on one host share the port via
    // SO_REUSEPORT. Role 1: an ephemeral unicast socket feedback leaves
    // from, so the sender's unicast PROBE / JOIN_RESPONSE / NAK_ERR
    // replies come back to *this* receiver, not to whichever
    // SO_REUSEPORT sibling the kernel would hash a group-port unicast to.
    let mcast = McastSocket::receiver(r.group, r.interface)?;
    let ucast = McastSocket::sender(r.group, r.interface)?;
    let clock = DriverClock::new();
    let local_port = ucast.local_addr()?.port();
    let mut engine = ReceiverEngine::new(r.config, local_port, r.group.port(), clock.now());
    if let Some(obs) = r.observer {
        engine.set_observer(obs);
    }
    let endpoint = ReceiverEndpoint {
        engine,
        sender_addr: None,
        group: SocketAddr::V4(r.group),
        lost: false,
        closed: false,
    };
    Handle::start(endpoint, vec![mcast, ucast], clock, r.reactor).map(ReceiverHandle)
}

/// Owner handle for a live receiving endpoint; dropping it sends LEAVE
/// and deregisters the session from its reactor.
pub struct ReceiverHandle(Handle<ReceiverEndpoint>);

impl ReceiverHandle {
    /// Read in-order stream bytes, blocking until some are available, the
    /// stream completes (returns `Ok(0)`), or `timeout` elapses.
    pub fn recv(&self, buf: &mut [u8], timeout: Duration) -> Result<usize, NetError> {
        self.0
            .wait_until(Some(Instant::now() + timeout), |st, now| {
                let engine = &mut st.ep.engine;
                let n = engine.read(buf, now);
                if n > 0 || engine.fully_consumed() {
                    Some(Ok(n))
                } else if engine.has_failed() {
                    Some(Err(NetError::SessionFailed))
                } else if st.ep.lost {
                    Some(Err(NetError::DataLost))
                } else {
                    None
                }
            })
    }

    /// `true` once the whole stream (through FIN) has been assembled.
    pub fn is_complete(&self) -> bool {
        self.0.lock().ep.engine.stream_complete()
    }

    /// `true` once the session terminally failed: the sender presumed
    /// dead, the JOIN retry budget exhausted, or the driver gone.
    pub fn has_failed(&self) -> bool {
        let st = self.0.lock();
        st.ep.engine.has_failed() || st.failure().is_some()
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> ReceiverStats {
        self.0.lock().ep.engine.stats.clone()
    }

    /// The socket error that terminally failed the session, if that is
    /// why it died (a `SessionFailed` return with a non-`None` value
    /// here means the socket broke, not the protocol).
    pub fn fatal_error(&self) -> Option<io::ErrorKind> {
        self.0.fatal_error()
    }

    /// Leave the group (the paper's `close`): sends LEAVE to the sender
    /// immediately, from the calling thread. Later calls do nothing.
    pub fn close(&self) {
        let mut st = self.0.lock();
        if std::mem::replace(&mut st.ep.closed, true) {
            return;
        }
        st.ep.engine.close(self.0.now());
        self.0.flush_now(&mut st);
        drop(st);
        self.0.kick();
    }
}

impl Drop for ReceiverHandle {
    fn drop(&mut self) {
        // LEAVE must hit the wire before the handle deregisters.
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use hrmc_core::ProtocolConfig;

    use super::*;

    /// `recv` fails with `DataLost` only for a NAK_ERR the attached
    /// window acted on. One that arrives before any data names nothing
    /// this receiver was owed, although the engine still counts it.
    #[test]
    fn only_an_attached_window_takes_a_nak_err_as_loss() {
        let mut ep = ReceiverEndpoint {
            engine: ReceiverEngine::new(
                ProtocolConfig::rmc().with_buffer(64 * 1024),
                8000,
                7001,
                0,
            ),
            sender_addr: None,
            group: "239.255.0.1:7001".parse().unwrap(),
            lost: false,
            closed: false,
        };
        let from: SocketAddr = "127.0.0.1:7000".parse().unwrap();
        let mut err = Packet::control(PacketType::NakErr, 7000, 7001, 0);
        ep.ingest(&err, from, 1_000);
        assert_eq!(ep.engine.stats.nak_errs_received, 1);
        assert!(!ep.lost);
        let data = Packet::data(7000, 7001, 0, Bytes::from_static(&[1; 100]));
        ep.ingest(&data, from, 2_000);
        err.header.seq = 1;
        ep.ingest(&err, from, 3_000);
        assert!(ep.lost);
    }
}
