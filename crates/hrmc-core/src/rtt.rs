//! Round-trip-time estimation, Karn-style (paper §2, Group Membership:
//! "The sender also calculates the round trip time to the most distant
//! receiver, using Karn's algorithm, and continues updating this value
//! based on incoming NAKs and rate-reduce requests").
//!
//! Two points distinguish this estimator from TCP's:
//!
//! * **Karn's rule** — samples derived from retransmitted packets are
//!   ambiguous and are discarded. Callers pass the `tries` counter of the
//!   packet the sample was measured against; only `tries == 0` samples are
//!   absorbed.
//! * **Most-distant-receiver bias** — the sender wants the *worst* RTT in
//!   the group, not the mean: MINBUF residency and probe timeouts must
//!   cover the slowest receiver. Samples above the estimate are absorbed
//!   fast (gain 1/2); samples below decay it slowly (gain 1/16), so the
//!   estimate tracks the group maximum while still adapting downward when
//!   distant receivers leave.

use crate::time::Micros;

/// Fast gain applied when a sample exceeds the estimate (track the worst
/// receiver quickly).
const GAIN_UP: f64 = 0.5;
/// Slow gain applied when a sample is below the estimate (decay cautiously).
const GAIN_DOWN: f64 = 1.0 / 16.0;
/// Floor for every RTT estimate and sample, sender and receiver alike.
pub(crate) const MIN_RTT_US: Micros = 100;

/// Karn-style RTT estimator biased toward the most distant receiver.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: f64,
    samples_taken: u64,
    samples_discarded: u64,
}

impl RttEstimator {
    /// Create an estimator seeded with `initial` (used until the first
    /// valid sample) and floored at 100 µs.
    pub fn new(initial: Micros) -> RttEstimator {
        RttEstimator {
            srtt: initial.max(MIN_RTT_US) as f64,
            samples_taken: 0,
            samples_discarded: 0,
        }
    }

    /// Current smoothed estimate in microseconds.
    #[inline]
    pub fn rtt(&self) -> Micros {
        (self.srtt as u64).max(MIN_RTT_US)
    }

    /// Absorb a measured sample. `tries` is the retransmission counter of
    /// the packet the sample was measured against; per Karn's algorithm,
    /// samples from retransmitted packets (`tries > 0`) are discarded.
    pub fn sample(&mut self, rtt: Micros, tries: u8) {
        if tries > 0 {
            self.samples_discarded += 1;
            return;
        }
        let s = rtt.max(MIN_RTT_US) as f64;
        let gain = if s > self.srtt { GAIN_UP } else { GAIN_DOWN };
        if self.samples_taken == 0 {
            // First valid sample replaces the configured seed outright.
            self.srtt = s;
        } else {
            self.srtt += gain * (s - self.srtt);
        }
        self.samples_taken += 1;
    }

    /// Number of samples absorbed.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Number of samples discarded under Karn's rule.
    pub fn samples_discarded(&self) -> u64 {
        self.samples_discarded
    }

    /// `true` until the first valid sample arrives.
    pub fn is_seed(&self) -> bool {
        self.samples_taken == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_until_first_sample() {
        let mut e = RttEstimator::new(10_000);
        assert!(e.is_seed());
        assert_eq!(e.rtt(), 10_000);
        e.sample(4_000, 0);
        assert!(!e.is_seed());
        assert_eq!(e.rtt(), 4_000); // first sample replaces the seed
    }

    #[test]
    fn karn_discards_retransmitted_samples() {
        let mut e = RttEstimator::new(10_000);
        e.sample(4_000, 0);
        e.sample(400_000, 3); // retransmitted: ignored
        assert_eq!(e.rtt(), 4_000);
        assert_eq!(e.samples_discarded(), 1);
        assert_eq!(e.samples_taken(), 1);
    }

    #[test]
    fn rises_fast_toward_distant_receiver() {
        let mut e = RttEstimator::new(1_000);
        e.sample(2_000, 0);
        // A receiver 50 ms away appears; within a few samples the estimate
        // must be most of the way there.
        for _ in 0..4 {
            e.sample(100_000, 0);
        }
        assert!(e.rtt() > 90_000, "rtt = {}", e.rtt());
    }

    #[test]
    fn decays_slowly_when_samples_drop() {
        let mut e = RttEstimator::new(1_000);
        e.sample(100_000, 0);
        // One small sample must barely dent the worst-case estimate.
        e.sample(2_000, 0);
        assert!(e.rtt() > 90_000, "rtt = {}", e.rtt());
        // Many small samples eventually pull it down.
        for _ in 0..100 {
            e.sample(2_000, 0);
        }
        assert!(e.rtt() < 5_000, "rtt = {}", e.rtt());
    }

    #[test]
    fn floor_is_respected() {
        let mut e = RttEstimator::new(50);
        assert_eq!(e.rtt(), MIN_RTT_US);
        e.sample(1, 0);
        assert_eq!(e.rtt(), MIN_RTT_US);
    }

    #[test]
    fn alternating_near_and_far_receivers_track_far() {
        // Samples alternate between a 2 ms LAN receiver and a 100 ms WAN
        // receiver; the estimate must sit near the WAN RTT.
        let mut e = RttEstimator::new(10_000);
        for _ in 0..50 {
            e.sample(2_000, 0);
            e.sample(100_000, 0);
        }
        assert!(e.rtt() > 60_000, "rtt = {}", e.rtt());
    }
}
