//! The session builder: one construction path for both endpoint roles.
//! Everything a session needs (interface, protocol config, observers,
//! reactor) is declared *before* `bind()`, so the engine is fully
//! instrumented before the reactor can deliver its first packet or
//! tick.
//!
//! ```no_run
//! use hrmc_core::SharedRecorder;
//! use hrmc_net::Session;
//! use std::net::SocketAddrV4;
//!
//! let group: SocketAddrV4 = "239.255.1.1:45000".parse().unwrap();
//! let tx = Session::sender(group).bind().unwrap();
//! let flight = SharedRecorder::new(4096).with_label("recv");
//! let rx = Session::receiver(group)
//!     .observer(Box::new(flight.clone()))
//!     .bind()
//!     .unwrap();
//! tx.send(b"hello, group").unwrap();
//! # let _ = rx;
//! ```

use std::net::{Ipv4Addr, SocketAddrV4};

use hrmc_core::{MultiObserver, ProtocolConfig, ProtocolObserver};

use crate::reactor::Reactor;
use crate::receiver::{self, ReceiverHandle};
use crate::sender::{self, SenderHandle};
use crate::NetError;

/// Entry point for building H-RMC endpoints.
pub struct Session;

impl Session {
    /// Start building a sending endpoint for `group`.
    pub fn sender(group: SocketAddrV4) -> SenderBuilder {
        SenderBuilder {
            common: Common::new(group),
        }
    }

    /// Start building a receiving endpoint for `group`.
    pub fn receiver(group: SocketAddrV4) -> ReceiverBuilder {
        ReceiverBuilder {
            common: Common::new(group),
        }
    }
}

/// Builder state shared by both roles.
struct Common {
    group: SocketAddrV4,
    interface: Ipv4Addr,
    config: ProtocolConfig,
    observers: Vec<Box<dyn ProtocolObserver>>,
    reactor: Option<Reactor>,
}

impl Common {
    fn new(group: SocketAddrV4) -> Common {
        Common {
            group,
            interface: Ipv4Addr::UNSPECIFIED,
            config: ProtocolConfig::hrmc(),
            observers: Vec::new(),
            reactor: None,
        }
    }

    /// Compose the observer stack, in the order the observers were
    /// added.
    fn finish(self) -> Resolved {
        let mut stack = self.observers;
        let observer: Option<Box<dyn ProtocolObserver>> = match stack.len() {
            0 => None,
            1 => stack.pop(),
            _ => {
                let mut multi = MultiObserver::new();
                for obs in stack {
                    multi.push(obs);
                }
                Some(Box::new(multi))
            }
        };
        Resolved {
            group: self.group,
            interface: self.interface,
            config: self.config,
            observer,
            reactor: self.reactor,
        }
    }
}

/// What the builders hand to `sender::bind` / `receiver::join`.
pub(crate) struct Resolved {
    pub(crate) group: SocketAddrV4,
    pub(crate) interface: Ipv4Addr,
    pub(crate) config: ProtocolConfig,
    pub(crate) observer: Option<Box<dyn ProtocolObserver>>,
    /// `None`: the handle owns a reactor of its own.
    pub(crate) reactor: Option<Reactor>,
}

macro_rules! builder_options {
    ($Builder:ident) => {
        impl $Builder {
            /// Local interface to use (default: `0.0.0.0`, the kernel's
            /// choice — loopback setups pass `127.0.0.1`).
            pub fn interface(mut self, interface: Ipv4Addr) -> Self {
                self.common.interface = interface;
                self
            }

            /// Protocol configuration (default: [`ProtocolConfig::hrmc`]).
            pub fn config(mut self, config: ProtocolConfig) -> Self {
                self.common.config = config;
                self
            }

            /// Add a protocol observer (a flight recorder, a
            /// [`crate::Telemetry::observer`], a JSONL trace, …). May be
            /// called repeatedly; all observers see every event from the
            /// session's very first packet — installed before the
            /// reactor learns the session exists.
            pub fn observer(mut self, observer: Box<dyn ProtocolObserver>) -> Self {
                self.common.observers.push(observer);
                self
            }

            /// Drive the session from `reactor`'s one loop thread, next
            /// to every other session given a clone of it. A session
            /// built without this owns a reactor (one thread) for its
            /// handle's lifetime.
            /// The session does not keep `reactor` alive: when the last
            /// user-held clone drops, its sessions fail with
            /// [`NetError::ReactorClosed`].
            pub fn reactor(mut self, reactor: Reactor) -> Self {
                self.common.reactor = Some(reactor);
                self
            }
        }
    };
}

/// Builds a sending endpoint ([`Session::sender`]).
pub struct SenderBuilder {
    common: Common,
}

builder_options!(SenderBuilder);

impl SenderBuilder {
    /// Bind the sender ("binds to a local port, connects to a known
    /// multicast address and port number") and register it with the
    /// reactor.
    pub fn bind(self) -> Result<SenderHandle, NetError> {
        sender::bind(self.common.finish())
    }
}

/// Builds a receiving endpoint ([`Session::receiver`]).
pub struct ReceiverBuilder {
    common: Common,
}

builder_options!(ReceiverBuilder);

impl ReceiverBuilder {
    /// Join the multicast group ("the receiving application uses
    /// setsockopt to join the multicast group") and register the session
    /// with the reactor.
    pub fn bind(self) -> Result<ReceiverHandle, NetError> {
        receiver::join(self.common.finish())
    }
}
