//! The sender's keepalive controller (paper §2 and Figure 8, `ka_timer`).
//!
//! "A potential problem in NAK-based protocols is that the loss of the
//! last packet in a burst of data may go undetected until the next burst
//! begins. As in other protocols, RMC addresses this problem by
//! transmitting keepalive packets. These packets contain the sequence
//! number of the last packet transmitted. To avoid congestion of
//! keepalive packets during periods of inactivity, the keepalive packets
//! are exponentially backed off up to a maximum delay (currently 2
//! seconds)."
//!
//! The controller also runs "after an urgent rate request and during
//! other periods when the window cannot be advanced" (paper §4.2), which
//! falls out naturally: any lull in data/retransmission traffic arms it.

use crate::time::{Micros, JIFFY_US, SEC};

/// Delay before the first keepalive after activity; doubles per firing.
pub(crate) const KEEPALIVE_INITIAL_US: Micros = 20 * JIFFY_US;

/// Exponential-backoff cap. Paper §2: "up to a maximum delay (currently
/// 2 seconds)".
pub const KEEPALIVE_MAX_US: Micros = 2 * SEC;

/// Exponential-backoff keepalive timer.
#[derive(Debug, Clone)]
pub struct KeepaliveController {
    /// Current delay before the next keepalive.
    delay: Micros,
    /// When the last data, retransmission, or keepalive left the sender.
    last_activity: Micros,
    /// Total keepalives fired (stat).
    pub keepalives_fired: u64,
}

impl KeepaliveController {
    /// Create a controller; the clock starts at `now`.
    pub fn new(now: Micros) -> KeepaliveController {
        KeepaliveController {
            delay: KEEPALIVE_INITIAL_US,
            last_activity: now,
            keepalives_fired: 0,
        }
    }

    /// Record data or retransmission traffic: resets the backoff.
    pub fn on_activity(&mut self, now: Micros) {
        self.last_activity = now;
        self.delay = KEEPALIVE_INITIAL_US;
    }

    /// Poll the timer. Returns `true` when a KEEPALIVE should be sent;
    /// firing doubles the delay up to the cap.
    pub fn poll(&mut self, now: Micros) -> bool {
        if now.saturating_sub(self.last_activity) < self.delay {
            return false;
        }
        self.last_activity = now;
        self.delay = (self.delay * 2).min(KEEPALIVE_MAX_US);
        self.keepalives_fired += 1;
        true
    }

    /// Current backoff delay.
    pub fn delay(&self) -> Micros {
        self.delay
    }

    /// Time of the next possible firing.
    pub fn next_fire(&self) -> Micros {
        self.last_activity + self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_line_fires_keepalive() {
        let mut k = KeepaliveController::new(0);
        assert!(!k.poll(199_999));
        assert!(k.poll(200_000));
        assert_eq!(k.keepalives_fired, 1);
    }

    #[test]
    fn backoff_doubles_to_cap() {
        let mut k = KeepaliveController::new(0);
        let mut delays = Vec::new();
        for _ in 0..6 {
            let now = k.next_fire();
            assert!(k.poll(now));
            delays.push(k.delay());
        }
        assert_eq!(
            delays,
            vec![400_000, 800_000, 1_600_000, 2_000_000, 2_000_000, 2_000_000]
        );
    }

    #[test]
    fn activity_resets_backoff() {
        let mut k = KeepaliveController::new(0);
        for _ in 0..5 {
            let t = k.next_fire();
            k.poll(t);
        }
        assert_eq!(k.delay(), 2_000_000);
        k.on_activity(10_000_000);
        assert_eq!(k.delay(), 200_000);
        assert!(!k.poll(10_100_000));
        assert!(k.poll(10_200_000));
    }

    #[test]
    fn data_traffic_suppresses_keepalives() {
        let mut k = KeepaliveController::new(0);
        // Activity every 100 ms keeps the timer from ever firing.
        for i in 1..100u64 {
            k.on_activity(i * 100_000);
            assert!(!k.poll(i * 100_000 + 50_000));
        }
        assert_eq!(k.keepalives_fired, 0);
    }
}
