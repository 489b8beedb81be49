//! Helpers shared by the loopback integration tests.

#![allow(dead_code)]

use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Duration;

use hrmc_core::ProtocolConfig;
use hrmc_net::McastSocket;

pub const LO: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 1);

/// `true` when a multicast datagram sent on loopback comes back: some
/// CI sandboxes forbid it, and the live tests skip there. Each caller
/// passes a port of its own, so concurrent probes do not hear each
/// other.
pub fn multicast_available(port: u16) -> bool {
    let g = SocketAddrV4::new(Ipv4Addr::new(239, 255, 88, 11), port);
    let Ok(rx) = McastSocket::receiver(g, LO) else {
        return false;
    };
    let Ok(tx) = McastSocket::sender(g, LO) else {
        return false;
    };
    let _ = rx.set_read_timeout(Duration::from_millis(500));
    if tx.send_multicast(b"probe").is_err() {
        return false;
    }
    let mut buf = [0u8; 16];
    rx.recv_from(&mut buf).is_ok()
}

pub fn config() -> ProtocolConfig {
    let mut c = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    // Cap the rate well below what loopback can do so the kernel's UDP
    // receive buffers are not the bottleneck under test.
    c.max_rate = 20 * 1024 * 1024;
    // Loopback RTTs are tens of microseconds; seed accordingly so MINBUF
    // residency does not slow the test pointlessly.
    c.initial_rtt = 2_000;
    c.anonymous_release_hold = 500_000;
    c
}

pub fn pattern(len: usize) -> Vec<u8> {
    seeded_pattern(0, len)
}

/// A payload that differs per `seed`, so concurrent transfers cannot be
/// mistaken for one another.
pub fn seeded_pattern(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + seed * 97) % 251) as u8)
        .collect()
}
