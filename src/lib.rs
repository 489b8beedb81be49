//! # hrmc — a reproduction of H-RMC, the Hybrid Reliable Multicast
//! protocol for the Linux kernel (McKinley, Rao, Wright — SC'99)
//!
//! H-RMC delivers a byte stream reliably from one sender to a multicast
//! group over best-effort IP multicast. It is primarily NAK-based, with
//! three additions over its pure-NAK predecessor RMC that close the
//! finite-buffer reliability hole: per-receiver membership state,
//! periodic receiver UPDATEs on an adaptive timer, and sender PROBEs
//! before buffer release.
//!
//! This façade re-exports the workspace:
//!
//! * [`wire`] — the 20-byte packet header, eleven packet types, checksum;
//! * [`core`] — sans-io [`core::SenderEngine`] / [`core::ReceiverEngine`]
//!   implementing the full protocol (plus the RMC baseline);
//! * [`sim`] — the discrete-event network simulator (the paper's CSIM
//!   substrate): routers, NICs, hosts, characteristic groups A/B/C;
//! * [`net`] — a real UDP-multicast driver hosting the same engines;
//! * [`app`] — scenario builders and summary statistics used by the
//!   experiment harnesses.
//!
//! ## Quick start (simulated)
//!
//! ```
//! use hrmc::app::Scenario;
//!
//! // 3 receivers on a simulated 10 Mbps Ethernet, 256 KiB kernel
//! // buffers, a 1 MB transfer:
//! let report = Scenario::lan(3, 10_000_000, 256 * 1024, 1_000_000).run();
//! assert!(report.completed);
//! assert!(report.all_intact());
//! println!("throughput: {:.2} Mbps", report.throughput_mbps);
//! ```
//!
//! ## Quick start (real sockets)
//!
//! See `examples/live_multicast.rs`: the [`net::Session`] builder runs
//! the identical engines over UDP multicast (loopback-capable, multiple
//! receivers per host). Sessions given clones of one [`net::Reactor`]
//! are all driven by its one thread — batched `recvmmsg`/`sendmmsg`
//! syscalls, one timer heap, O(1) threads regardless of session count;
//! a session built without `.reactor(..)` owns a reactor of its own:
//!
//! ```no_run
//! use hrmc::net::{Reactor, Session};
//! use hrmc::SharedRecorder;
//! let group: std::net::SocketAddrV4 = "239.255.1.1:45000".parse().unwrap();
//! let reactor = Reactor::new().unwrap();
//! let rx = Session::receiver(group).reactor(reactor.clone()).bind().unwrap();
//! let flight = SharedRecorder::new(4096).with_label("sender");
//! let tx = Session::sender(group)
//!     .reactor(reactor.clone())
//!     .observer(Box::new(flight.clone()))
//!     .bind()
//!     .unwrap();
//! tx.send(b"reliable bytes").unwrap();
//! # let _ = rx;
//! ```

pub mod top;

/// Scenario/application helpers (re-export of `hrmc-app`).
pub use hrmc_app as app;
/// Sans-io protocol engines (re-export of `hrmc-core`).
pub use hrmc_core as core;
/// Real-socket driver (re-export of `hrmc-net`).
pub use hrmc_net as net;
/// Discrete-event simulator (re-export of `hrmc-sim`).
pub use hrmc_sim as sim;
/// Wire format (re-export of `hrmc-wire`).
pub use hrmc_wire as wire;

pub use hrmc_core::{
    Alert, AlertRule, Event, FlightRecorder, HealthConfig, HealthMonitor, Histogram,
    HistogramSummary, JsonlObserver, MetricsObserver, MetricsRegistry, MultiObserver,
    ProtocolObserver, Severity, SharedRecorder,
};
pub use hrmc_core::{Dest, PeerId, ProtocolConfig, ReceiverEngine, ReliabilityMode, SenderEngine};
pub use hrmc_wire::{Packet, PacketType};
