//! # hrmc-sim
//!
//! Discrete-event network simulator substrate for H-RMC — the equivalent
//! of the paper's CSIM-based simulation program (paper §5.2).
//!
//! The paper's simulator "uses three types of CSIM processes: host
//! processes, network interface processes, and router processes", and
//! imports "the H-RMC protocol code directly from the Linux kernel into
//! the simulation". This crate does the same with the sans-io engines of
//! `hrmc-core`:
//!
//! * [`host`] — a host process couples a protocol engine
//!   (sender or receiver) with an application ([`apps`]) and charges the
//!   paper's host processing delays: "For sending and receiving data of
//!   length l, the H-RMC delay was (10 + .025 * l) microseconds and the
//!   lower layer delay was 150 microseconds";
//! * [`nic`] — a network interface process with a
//!   bounded transmit queue (whose overflow reproduces the Figure 13
//!   network-card drops), link-speed serialization, and an uncorrelated
//!   receive-side loss rate;
//! * [`router`] — a router process with "a network
//!   speed, a queue size, and a loss rate", propagation delay, and
//!   multicast duplication on output ("Multicast packets are duplicated
//!   within a router as necessary");
//! * [`topology`] — builders for the paper's two
//!   worlds: the Ethernet LAN testbed of §5.1 and the characteristic-group
//!   WAN/MAN topologies of Figure 14 (groups A, B, C; Tests 1–5), with
//!   the 90%/10% correlated/uncorrelated loss split;
//! * [`sim`] — the event loop tying it together, fully
//!   deterministic under a seed, producing a [`report::SimReport`].

pub mod apps;
pub mod dynamics;
pub mod faults;
pub mod host;
pub mod loss;
pub mod nic;
pub mod obs;
pub mod queue;
pub mod report;
pub mod router;
pub mod sim;
pub mod topology;

pub use apps::{IoProfile, SinkApp, SourceApp};
pub use dynamics::{LinkAction, LinkEvent, LinkSchedule};
pub use faults::{ChurnAction, ChurnEvent, FaultModel, FaultPlan, Partition};
pub use loss::{LossModel, LossProcess};
pub use obs::{HostObserver, SharedObs};
pub use report::{LatencyReport, ReceiverReport, SimReport};
pub use sim::{SimParams, Simulation};
pub use topology::{CharacteristicGroup, GroupSpec, Topology, TopologyBuilder};

/// Per-packet link-layer overhead charged during serialization: the
/// kernel H-RMC driver rides directly on IP (paper Figure 4), so each
/// segment carries an IP header (20 B) plus Ethernet framing (18 B).
pub const LINK_OVERHEAD: usize = 38;

/// Serialization time of `wire_len` header-plus-payload bytes (link
/// overhead added here) on a link of `bandwidth_bps` bits per second.
#[inline]
pub fn serialize_us(wire_len: usize, bandwidth_bps: u64) -> u64 {
    if bandwidth_bps == 0 {
        return 0;
    }
    let bits = ((wire_len + LINK_OVERHEAD) as u128) * 8;
    ((bits * 1_000_000) / bandwidth_bps as u128) as u64
}

/// The paper's host protocol-processing delay for a payload of `len`
/// bytes: (10 + 0.025·l) µs, measured on a 300 MHz Pentium II.
#[inline]
pub fn protocol_delay_us(len: usize) -> u64 {
    10 + (len as u64) / 40 // 0.025 µs per byte = 1 µs per 40 bytes
}

/// The paper's lower-layer (IP + driver) processing delay: 150 µs.
pub const LOWER_LAYER_DELAY_US: u64 = 150;

/// The host-CPU transmit ceiling in bytes/second for a given segment
/// size: one 300 MHz CPU spends (10 + 0.025·l) + 150 µs per packet, so
/// the kernel transmit path cannot emit faster than this no matter what
/// the rate controller asks for. Scenario builders cap the protocol's
/// `max_rate` here — the same physics that capped the paper's testbed at
/// ~66 Mbps on the 100 Mbps network.
#[inline]
pub fn cpu_tx_rate_bps(segment: usize) -> u64 {
    let per_pkt = protocol_delay_us(segment) + LOWER_LAYER_DELAY_US;
    (segment as u64) * 1_000_000 / per_pkt.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_matches_link_math() {
        // 1462-byte frame (1400 payload + 24 header + 38 overhead) at
        // 10 Mbps = 1169.6 µs.
        let us = serialize_us(1400 + 24, 10_000_000);
        assert_eq!(us, (1462u64 * 8 * 1_000_000) / 10_000_000);
        // 100 Mbps is 10× faster.
        assert_eq!(serialize_us(1400 + 24, 100_000_000), us / 10);
        // Zero bandwidth means "infinitely fast" (pass-through).
        assert_eq!(serialize_us(1400, 0), 0);
    }

    #[test]
    fn protocol_delay_matches_paper_formula() {
        assert_eq!(protocol_delay_us(0), 10);
        assert_eq!(protocol_delay_us(1400), 10 + 35); // 0.025 × 1400 = 35
        assert_eq!(protocol_delay_us(40), 11);
        assert_eq!(LOWER_LAYER_DELAY_US, 150);
    }

    #[test]
    fn cpu_ceiling_matches_paper_processing_costs() {
        // 1400-byte segments cost 195 µs each → ~5128 pkts/s ≈ 7.18 MB/s
        // ≈ 57 Mbit/s, the same order as the paper's observed ~66 Mbps
        // ceiling on the 100 Mbps network.
        let r = cpu_tx_rate_bps(1400);
        assert_eq!(r, 1400 * 1_000_000 / 195);
        assert!(r * 8 > 50_000_000 && r * 8 < 70_000_000);
    }
}
