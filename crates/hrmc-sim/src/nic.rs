//! Network interface processes (paper §5.2): "Each host process is
//! coupled with a network interface process, which handles incoming
//! packets for the host and simulates the network delay associated with
//! each packet."
//!
//! Two asymmetric roles:
//!
//! * **Transmit side** — a bounded queue drained at the access-link speed.
//!   Its overflow is the mechanism behind the paper's Figure 13 finding:
//!   "it is likely that the network card is not being able to accept data
//!   at these rates and is dropping packets" when large kernel buffers
//!   let the sender burst harder than the wire drains.
//! * **Receive side** — applies the *uncorrelated* share of the loss rate
//!   (10% of total loss in the paper's split) and hands the packet to the
//!   host process.

use std::collections::VecDeque;

use crate::loss::{LossModel, LossProcess};
use crate::router::Transit;

/// Configuration of one host's network interface.
#[derive(Debug, Clone)]
pub struct NicParams {
    /// Access-link speed in bits/second (drains the transmit queue);
    /// 0 means infinitely fast.
    pub bandwidth_bps: u64,
    /// Transmit queue capacity in packets (Linux `txqueuelen` analog).
    pub tx_queue_packets: usize,
    /// Receive-side loss model (uncorrelated loss; a Gilbert–Elliott
    /// model here is the wireless tail link).
    pub rx_loss: LossModel,
}

impl Default for NicParams {
    fn default() -> Self {
        NicParams {
            bandwidth_bps: 0,
            tx_queue_packets: 100,
            rx_loss: LossModel::NONE,
        }
    }
}

/// Outcome of offering a packet to the transmit queue.
#[derive(Debug, PartialEq, Eq)]
pub enum TxOutcome {
    /// Queued behind an in-progress transmission.
    Queued,
    /// Queue was idle: schedule a dequeue after the embedded time.
    StartService {
        /// Serialization time of the head packet.
        service_us: u64,
    },
    /// Transmit queue full: the card dropped the packet.
    Dropped,
}

/// Runtime state of one network interface.
#[derive(Debug)]
pub struct Nic {
    /// Static parameters.
    pub params: NicParams,
    tx: VecDeque<Transit>,
    busy: bool,
    /// Packets dropped at the transmit queue (the Figure 13 stat).
    pub tx_drops: u64,
    /// Receive-side loss process (holds Gilbert–Elliott channel state).
    rx: LossProcess,
    /// Datagrams discarded because fault-injected corruption tripped the
    /// checksum (the audit trail for every corrupt arrival).
    pub rx_checksum_drops: u64,
    /// Packets transmitted (stat).
    pub transmitted: u64,
    /// Packets delivered up to the host (stat).
    pub delivered: u64,
}

impl Nic {
    /// Create a NIC from its parameters.
    pub fn new(params: NicParams) -> Nic {
        let rx = LossProcess::new(params.rx_loss);
        Nic {
            params,
            tx: VecDeque::new(),
            busy: false,
            tx_drops: 0,
            rx,
            rx_checksum_drops: 0,
            transmitted: 0,
            delivered: 0,
        }
    }

    /// Packets dropped by receive-side loss (stat).
    pub fn rx_drops(&self) -> u64 {
        self.rx.drops
    }

    /// Replace the receive-side loss model mid-run (time-varying link
    /// dynamics). The internal [`LossProcess`] caches the model at
    /// construction, so mutating `params.rx_loss` alone would be a
    /// silent no-op; this keeps both in sync and preserves the channel
    /// state and drop/offer counters across the change.
    pub fn set_rx_loss(&mut self, model: LossModel) {
        self.params.rx_loss = model;
        self.rx.set_model(model);
    }

    /// Offer a packet for transmission.
    pub fn tx_enqueue(&mut self, transit: Transit) -> TxOutcome {
        if self.tx.len() >= self.params.tx_queue_packets {
            self.tx_drops += 1;
            return TxOutcome::Dropped;
        }
        let service = crate::serialize_us(transit.pkt.wire_len(), self.params.bandwidth_bps);
        self.tx.push_back(transit);
        if self.busy {
            TxOutcome::Queued
        } else {
            self.busy = true;
            TxOutcome::StartService {
                service_us: service,
            }
        }
    }

    /// Complete transmission of the head packet; returns it plus the
    /// service time of the next, if any.
    pub fn tx_dequeue(&mut self) -> (Transit, Option<u64>) {
        let t = self.tx.pop_front().expect("tx_dequeue on empty NIC queue");
        self.transmitted += 1;
        let next = self
            .tx
            .front()
            .map(|n| crate::serialize_us(n.pkt.wire_len(), self.params.bandwidth_bps));
        if next.is_none() {
            self.busy = false;
        }
        (t, next)
    }

    /// Receive-side filter: `true` if the packet survives the
    /// (possibly stateful) loss model and should be handed to the host.
    /// The two rolls are independent uniforms from the simulator's RNG.
    pub fn rx_accept(&mut self, roll_transition: f64, roll_loss: f64) -> bool {
        if self.rx.drop(roll_transition, roll_loss) {
            false
        } else {
            self.delivered += 1;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use hrmc_wire::Packet;

    fn transit() -> Transit {
        Transit {
            pkt: Packet::data(1, 2, 0, Bytes::from(vec![0u8; 1400])),
            route: crate::router::Route::Down {
                dests: vec![0],
                hop: 0,
            },
        }
    }

    #[test]
    fn tx_serializes_at_link_speed() {
        let mut n = Nic::new(NicParams {
            bandwidth_bps: 10_000_000,
            ..NicParams::default()
        });
        match n.tx_enqueue(transit()) {
            TxOutcome::StartService { service_us } => {
                // wire_len = 1400 payload + 20-byte header.
                assert_eq!(service_us, crate::serialize_us(1420, 10_000_000));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(n.tx_enqueue(transit()), TxOutcome::Queued);
        let (_, next) = n.tx_dequeue();
        assert!(next.is_some());
        let (_, next) = n.tx_dequeue();
        assert!(next.is_none());
        assert_eq!(n.transmitted, 2);
    }

    #[test]
    fn tx_queue_overflow_drops_like_figure_13() {
        let mut n = Nic::new(NicParams {
            bandwidth_bps: 10_000_000,
            tx_queue_packets: 3,
            ..NicParams::default()
        });
        for _ in 0..3 {
            assert_ne!(n.tx_enqueue(transit()), TxOutcome::Dropped);
        }
        assert_eq!(n.tx_enqueue(transit()), TxOutcome::Dropped);
        assert_eq!(n.tx_drops, 1);
        // Draining one admits one more.
        n.tx_dequeue();
        assert_ne!(n.tx_enqueue(transit()), TxOutcome::Dropped);
    }

    #[test]
    fn rx_loss_roll() {
        let mut n = Nic::new(NicParams {
            rx_loss: LossModel::Bernoulli(0.1),
            ..NicParams::default()
        });
        assert!(!n.rx_accept(0.9, 0.05));
        assert!(n.rx_accept(0.9, 0.5));
        assert_eq!(n.rx_drops(), 1);
        assert_eq!(n.delivered, 1);
    }
}
