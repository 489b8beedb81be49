//! Time-varying link dynamics: the hostile-network schedule.
//!
//! The paper's simulator gives every router and interface *static*
//! parameters; real deployments face links whose capacity, delay, and
//! loss move underneath the protocol — cellular capacity collapse and
//! recovery, bufferbloat (queues growing while delay inflates),
//! jitter spikes, asymmetric up/down paths, and mobile receivers being
//! re-homed between routers mid-transfer. A [`LinkSchedule`] describes
//! these as instants at which the world changes; the simulator applies
//! each change as an ordinary event, so a schedule-driven run is exactly
//! as reproducible as a static one.
//!
//! Determinism discipline (mirroring [`crate::faults::FaultPlan`]): an
//! **empty schedule schedules no events and draws nothing from the
//! RNG**, so every pinned baseline fixture replays byte-for-byte. The
//! only per-packet RNG use added by this module — the asymmetric
//! up-path drop roll — is gated on a non-zero loss probability, which
//! only a schedule event can set.

use crate::loss::LossModel;

/// One change to the network, applied at a scheduled instant.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkAction {
    /// Set a router's drain bandwidth (bits/s; 0 = no serialization
    /// delay). Service times are computed per dequeue, so packets
    /// already queued drain at the new speed — a capacity collapse
    /// stalls the queue exactly as a fading backhaul does.
    SetRouterBandwidth {
        /// Router index into [`crate::topology::Topology::routers`].
        router: usize,
        /// New drain rate (bits/s).
        bandwidth_bps: u64,
    },
    /// Set a router's correlated loss probability.
    SetRouterLoss {
        /// Router index.
        router: usize,
        /// New per-packet drop probability.
        loss: f64,
    },
    /// Set a router's propagation delay (µs): jitter spikes and path
    /// inflation.
    SetRouterDelay {
        /// Router index.
        router: usize,
        /// New one-way delay (µs).
        delay_us: u64,
    },
    /// Set a router's queue capacity in packets. Growing it under a
    /// bandwidth cut is bufferbloat: arrivals queue instead of dropping,
    /// and queueing delay inflates with depth.
    SetRouterQueue {
        /// Router index.
        router: usize,
        /// New capacity (packets).
        packets: usize,
    },
    /// Replace a receiver NIC's receive-side loss model. Channel state
    /// (a Gilbert–Elliott fade in progress) carries over.
    SetNicRxLoss {
        /// Receiver index (0-based, as in `Topology::receiver_nics`).
        receiver: usize,
        /// The new model.
        model: LossModel,
    },
    /// Impair the feedback (up) direction only: every receiver→sender
    /// packet reaching the sender's side is delayed by `extra_delay_us`
    /// and dropped with probability `loss`. Asymmetric paths — a clean
    /// downlink with a congested or lossy uplink — starve the sender of
    /// NAKs and UPDATEs without touching data delivery.
    SetUpPath {
        /// Extra one-way delay on feedback (µs).
        extra_delay_us: u64,
        /// Feedback drop probability (0.0 disables the RNG draw).
        loss: f64,
    },
    /// Re-home a receiver onto a new router path (mobile churn: a
    /// handover between cells). Packets already in flight on the old
    /// path are dropped at the first off-path router, like a handover
    /// losing the old association.
    Migrate {
        /// Receiver index.
        receiver: usize,
        /// The new ordered router path, sender → receiver.
        path: Vec<usize>,
    },
}

/// A [`LinkAction`] and when it fires.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkEvent {
    /// Simulation time of the change (µs).
    pub at_us: u64,
    /// The change.
    pub action: LinkAction,
}

/// Everything time-varying about the network in one run. The default
/// schedule is empty and leaves the simulation bit-for-bit identical to
/// a static-network run under the same seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkSchedule {
    /// Scheduled changes, in any order; the simulator schedules each at
    /// its own time (ties fire in push order).
    pub events: Vec<LinkEvent>,
}

impl LinkSchedule {
    /// `true` when the schedule changes nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append one change.
    pub fn push(&mut self, at_us: u64, action: LinkAction) -> &mut Self {
        self.events.push(LinkEvent { at_us, action });
        self
    }

    /// Append a stepped bandwidth ramp on `router`: `steps` evenly
    /// spaced changes across `[start_us, start_us + duration_us)`
    /// interpolating linearly from `from_bps` to `to_bps` (the last step
    /// lands exactly on `to_bps`). With `steps == 1` this is a cliff.
    pub fn ramp_bandwidth(
        &mut self,
        router: usize,
        start_us: u64,
        duration_us: u64,
        from_bps: u64,
        to_bps: u64,
        steps: u32,
    ) -> &mut Self {
        let steps = steps.max(1);
        for i in 0..steps {
            let frac = f64::from(i + 1) / f64::from(steps);
            let bps = from_bps as f64 + (to_bps as f64 - from_bps as f64) * frac;
            let at = start_us + duration_us * u64::from(i) / u64::from(steps);
            self.push(
                at,
                LinkAction::SetRouterBandwidth {
                    router,
                    bandwidth_bps: bps as u64,
                },
            );
        }
        self
    }

    /// Capacity collapse and recovery: ramp `router` down from
    /// `normal_bps` to `collapsed_bps` starting at `collapse_at_us`,
    /// hold, then ramp back up starting at `heal_at_us`. Each ramp takes
    /// `ramp_us` across `steps` steps.
    #[allow(clippy::too_many_arguments)]
    pub fn collapse_recover(
        &mut self,
        router: usize,
        collapse_at_us: u64,
        heal_at_us: u64,
        normal_bps: u64,
        collapsed_bps: u64,
        ramp_us: u64,
        steps: u32,
    ) -> &mut Self {
        self.ramp_bandwidth(
            router,
            collapse_at_us,
            ramp_us,
            normal_bps,
            collapsed_bps,
            steps,
        );
        self.ramp_bandwidth(
            router,
            heal_at_us,
            ramp_us,
            collapsed_bps,
            normal_bps,
            steps,
        )
    }

    /// Bufferbloat onset at `at_us`: grow `router`'s queue to
    /// `queue_packets` while cutting its drain rate to `bandwidth_bps`.
    /// Arrivals now queue instead of dropping and per-packet delay
    /// inflates with depth.
    pub fn bufferbloat(
        &mut self,
        router: usize,
        at_us: u64,
        queue_packets: usize,
        bandwidth_bps: u64,
    ) -> &mut Self {
        self.push(
            at_us,
            LinkAction::SetRouterQueue {
                router,
                packets: queue_packets,
            },
        );
        self.push(
            at_us,
            LinkAction::SetRouterBandwidth {
                router,
                bandwidth_bps,
            },
        )
    }

    /// `count` delay spikes on `router`, one every `period_us` starting
    /// at `start_us`: delay jumps to `spike_delay_us`, then returns to
    /// `base_delay_us` half a period later. Pure jitter — no loss, no
    /// capacity change.
    pub fn jitter_spikes(
        &mut self,
        router: usize,
        start_us: u64,
        period_us: u64,
        count: u32,
        base_delay_us: u64,
        spike_delay_us: u64,
    ) -> &mut Self {
        for i in 0..u64::from(count) {
            let at = start_us + i * period_us;
            self.push(
                at,
                LinkAction::SetRouterDelay {
                    router,
                    delay_us: spike_delay_us,
                },
            );
            self.push(
                at + period_us / 2,
                LinkAction::SetRouterDelay {
                    router,
                    delay_us: base_delay_us,
                },
            );
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_empty() {
        assert!(LinkSchedule::default().is_empty());
        let mut s = LinkSchedule::default();
        s.push(
            10,
            LinkAction::SetRouterDelay {
                router: 0,
                delay_us: 5,
            },
        );
        assert!(!s.is_empty());
    }

    #[test]
    fn ramp_interpolates_and_lands_exactly() {
        let mut s = LinkSchedule::default();
        s.ramp_bandwidth(0, 1_000, 400, 10_000_000, 1_000_000, 4);
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.events[0].at_us, 1_000);
        assert_eq!(s.events[3].at_us, 1_300);
        let bps: Vec<u64> = s
            .events
            .iter()
            .map(|e| match e.action {
                LinkAction::SetRouterBandwidth { bandwidth_bps, .. } => bandwidth_bps,
                _ => panic!("unexpected action"),
            })
            .collect();
        assert_eq!(bps.last(), Some(&1_000_000), "last step lands on target");
        assert!(bps.windows(2).all(|w| w[1] < w[0]), "monotone descent");
    }

    #[test]
    fn collapse_recover_is_symmetric() {
        let mut s = LinkSchedule::default();
        s.collapse_recover(1, 100, 900, 8_000_000, 800_000, 200, 2);
        assert_eq!(s.events.len(), 4);
        assert!(s.events[..2].iter().all(|e| e.at_us < 900));
        assert!(s.events[2..].iter().all(|e| e.at_us >= 900));
    }

    #[test]
    fn jitter_spikes_alternate_delay() {
        let mut s = LinkSchedule::default();
        s.jitter_spikes(0, 0, 1_000, 3, 50, 5_000);
        assert_eq!(s.events.len(), 6);
        assert_eq!(
            s.events[1].action,
            LinkAction::SetRouterDelay {
                router: 0,
                delay_us: 50
            }
        );
        assert_eq!(s.events[1].at_us, 500);
    }
}
