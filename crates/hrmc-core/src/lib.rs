//! # hrmc-core
//!
//! Sans-io protocol engines for H-RMC (McKinley, Rao, Wright — SC'99), the
//! hybrid reliable multicast protocol the paper implements as a Linux
//! kernel driver, plus its pure-NAK predecessor RMC as a baseline.
//!
//! ## Architecture
//!
//! The paper inserts the *same kernel code* into a live Linux driver and a
//! CSIM simulation. We reproduce that property by writing the protocol as
//! two pure state machines:
//!
//! * [`SenderEngine`] — the five concurrent sender tasks of paper Figure 8
//!   (application interface, transmitter, feedback processor,
//!   retransmitter, keepalive controller) collapsed into one deterministic
//!   state machine driven by `{submit, handle_packet, on_tick}`.
//! * [`ReceiverEngine`] — the receiver of paper Figure 9 (initial/main
//!   packet processors, NAK manager, update generator, application
//!   interface) driven by `{handle_packet, on_tick, read}`.
//!
//! Neither engine performs I/O or reads a clock: every entry point takes
//! `now` in microseconds and every outgoing packet is queued on an output
//! queue the host driver drains. The engines keep no log of what happened
//! for the host: a host that blocks re-reads engine state (bytes readable,
//! stream complete, transfer finished, session failed) after each turn,
//! the way a kernel sleeper re-checks its condition. `hrmc-sim` drives
//! the engines under a discrete-event clock; `hrmc-net` drives the
//! identical engines from real UDP multicast sockets and real time.
//!
//! ## Protocol summary
//!
//! H-RMC guarantees 100% reliability with finite buffers through five
//! cooperating mechanisms (paper §3 "Summary"):
//!
//! 1. **membership state maintenance** — [`membership`]: per receiver, its
//!    address and next-expected sequence number;
//! 2. **NAK-based feedback** — [`nak`]: receivers detect gaps and request
//!    retransmission, with local NAK suppression;
//! 3. **periodic updates** — [`update`]: receivers report their
//!    next-expected sequence number on an adaptive timer;
//! 4. **probes** — the sender polls receivers it lacks information from
//!    before releasing buffer space;
//! 5. **retransmissions** — centralized at the sender.
//!
//! Flow control combines a byte-accounted send/receive window
//! ([`txwindow`], [`rxwindow`]) with two-stage rate control ([`rate`]):
//! slow start and congestion avoidance grow the rate, NAKs and warning
//! rate-requests halve it, and urgent rate-requests stop transmission for
//! two RTTs and restart from the minimum rate.
//!
//! ## Observability
//!
//! Both engines accept an optional [`ProtocolObserver`] (see [`obs`]): a
//! synchronous hook invoked at every protocol state transition — rate
//! phase changes, window-region crossings, NAK emission/suppression,
//! PROBE/UPDATE exchanges, RTT samples, keepalive backoff, and each
//! buffer-release decision. The hook costs one branch per site when no
//! observer is installed. [`metrics`] provides the matching aggregation
//! primitives (counters, gauges, log2 histograms with p50/p90/p99).

#![forbid(unsafe_code)]

pub mod config;
pub mod fec;
pub mod health;
pub mod keepalive;
pub mod membership;
pub mod metrics;
pub mod nak;
pub mod obs;
pub mod rate;
pub mod receiver;
pub mod rtt;
pub mod rxwindow;
pub mod sender;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod txwindow;
pub mod update;

pub use config::{ProtocolConfig, ReliabilityMode, UpdateMode};
pub use fec::FecConfig;
pub use health::{Alert, AlertRule, HealthConfig, HealthMonitor, Severity, SharedMonitor};
pub use metrics::{Histogram, HistogramSummary, MetricsRegistry};
pub use obs::{
    Event, FlightRecorder, JsonlObserver, MetricsObserver, MultiObserver, NakTrigger,
    ProtocolObserver, SharedRecorder, SCHEMA_VERSION,
};
pub use receiver::ReceiverEngine;
pub use sender::SenderEngine;
pub use stats::{ReceiverStats, SenderStats};
pub use telemetry::{HistSample, Sampler, TelemetrySample};
pub use time::{Micros, JIFFY_US};

use hrmc_wire::Packet;

/// Largest sequence span one control packet (NAK, NAK_ERR, peer NAK) may
/// make an engine iterate. The wire `length` field is attacker-
/// controlled; a forged packet naming a 2^32-sequence range must not buy
/// four billion loop iterations. Legitimate spans are bounded far below
/// this by the byte-accounted windows.
pub const MAX_CONTROL_SPAN: u32 = 1 << 16;

/// Identifies a receiver from the sender's point of view. Drivers map this
/// to a transport address (a simulator node id or a UDP socket address).
/// The paper's sender keys its membership structures by the receiver's
/// unicast IP address; `PeerId` is the transport-agnostic equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// Where an outgoing packet should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Send to the multicast group (DATA, retransmissions, KEEPALIVE).
    Multicast,
    /// Unicast to one receiver (JOIN_RESPONSE, LEAVE_RESPONSE, NAK_ERR,
    /// PROBE).
    Unicast(PeerId),
    /// Unicast to the sender (every receiver-originated packet).
    Sender,
}

/// An outgoing packet paired with its destination.
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// Where to deliver the packet.
    pub dest: Dest,
    /// The packet itself (checksum filled in on encode).
    pub packet: Packet,
}
