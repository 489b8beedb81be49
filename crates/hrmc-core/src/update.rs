//! The receiver's update generator (paper §3 "Periodic Updates" /
//! "Dynamic Update Timers" and §4.3).
//!
//! "Every update period, which is initially set at 50 jiffies, the update
//! generator ... send\[s\] an UPDATE packet to the sender. The period of
//! the update generator is varied depending on whether any probes are
//! received in an update period. If probes are received, the update
//! period is reduced by one jiffy, otherwise it increases it by one
//! jiffy. In this manner, the update generator tries to find an optimal
//! period at which a minimum number of probes are sent to the receiver."
//!
//! Intuition for the direction of adaptation: a PROBE means the sender
//! lacked information about this receiver — updates were too sparse — so
//! the period shrinks; a probe-free period means the updates (or the
//! NAK/rate-request traffic of a lossy path) already suffice, so the
//! period stretches, shedding reverse traffic.

use crate::config::UpdateMode;
use crate::time::{jiffies, Micros, JIFFY_US};

/// Initial update period in jiffies. Paper §4.3: "Every update period,
/// which is initially set at 50 jiffies".
pub const INITIAL_PERIOD_JIFFIES: u64 = 50;

/// Lower clamp for the adaptive update period, in jiffies, and the
/// shortest [`UpdateMode::Fixed`] period.
pub const MIN_PERIOD_JIFFIES: u64 = 2;

/// Upper clamp for the adaptive update period, in jiffies, and the
/// longest [`UpdateMode::Fixed`] period.
pub const MAX_PERIOD_JIFFIES: u64 = 500;

const _: () = assert!(
    0 < MIN_PERIOD_JIFFIES
        && MIN_PERIOD_JIFFIES <= INITIAL_PERIOD_JIFFIES
        && INITIAL_PERIOD_JIFFIES <= MAX_PERIOD_JIFFIES
);

/// Adaptive update timer.
#[derive(Debug, Clone)]
pub struct UpdateGenerator {
    mode: UpdateMode,
    /// Current period in jiffies.
    period_jiffies: u64,
    /// Next firing time.
    next_fire: Micros,
    /// PROBEs seen since the last firing.
    probes_this_period: u32,
    /// Total updates fired (stat).
    pub updates_fired: u64,
}

impl UpdateGenerator {
    /// Create a generator; the first update fires one period after `now`.
    /// A [`UpdateMode::Fixed`] period is taken as given:
    /// [`ProtocolConfig::validate`](crate::ProtocolConfig::validate)
    /// bounds it.
    pub fn new(mode: UpdateMode, now: Micros) -> UpdateGenerator {
        let period_jiffies = match mode {
            UpdateMode::Fixed(j) => j,
            UpdateMode::Dynamic | UpdateMode::Disabled => INITIAL_PERIOD_JIFFIES,
        };
        UpdateGenerator {
            mode,
            period_jiffies,
            next_fire: now + jiffies(period_jiffies),
            probes_this_period: 0,
            updates_fired: 0,
        }
    }

    /// Current period in microseconds.
    pub fn period(&self) -> Micros {
        self.period_jiffies * JIFFY_US
    }

    /// Record an incoming PROBE (drives the adaptation).
    pub fn on_probe(&mut self) {
        self.probes_this_period += 1;
    }

    /// Poll the timer. Returns `true` when an UPDATE should be sent now;
    /// firing also adapts the period (Dynamic mode) and re-arms.
    pub fn poll(&mut self, now: Micros) -> bool {
        if self.mode == UpdateMode::Disabled || now < self.next_fire {
            return false;
        }
        if self.mode == UpdateMode::Dynamic {
            if self.probes_this_period > 0 {
                self.period_jiffies = self.period_jiffies.saturating_sub(1);
            } else {
                self.period_jiffies += 1;
            }
            self.period_jiffies = self
                .period_jiffies
                .clamp(MIN_PERIOD_JIFFIES, MAX_PERIOD_JIFFIES);
        }
        self.probes_this_period = 0;
        self.next_fire = now + jiffies(self.period_jiffies);
        self.updates_fired += 1;
        true
    }

    /// Time of the next firing (for driver scheduling).
    pub fn next_fire(&self) -> Micros {
        self.next_fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dynamic(now: Micros) -> UpdateGenerator {
        UpdateGenerator::new(UpdateMode::Dynamic, now)
    }

    #[test]
    fn initial_period_is_fifty_jiffies() {
        let g = dynamic(0);
        assert_eq!(g.period_jiffies, 50);
        assert_eq!(g.period(), 500_000); // 0.5 s
        assert_eq!(g.next_fire(), 500_000);
    }

    #[test]
    fn fires_once_per_period() {
        let mut g = dynamic(0);
        assert!(!g.poll(499_999));
        assert!(g.poll(500_000));
        assert!(!g.poll(500_001));
        assert_eq!(g.updates_fired, 1);
    }

    #[test]
    fn probe_free_period_grows_by_one_jiffy() {
        let mut g = dynamic(0);
        assert!(g.poll(500_000));
        assert_eq!(g.period_jiffies, 51);
    }

    #[test]
    fn probed_period_shrinks_by_one_jiffy() {
        let mut g = dynamic(0);
        g.on_probe();
        assert!(g.poll(500_000));
        assert_eq!(g.period_jiffies, 49);
        // The probe counter resets per period.
        assert!(g.poll(500_000 + g.period()));
        assert_eq!(g.period_jiffies, 50);
    }

    #[test]
    fn period_clamped_at_bounds() {
        // Probed every period: steps down from 50 to the floor, and stays.
        let mut g = dynamic(0);
        for _ in 0..INITIAL_PERIOD_JIFFIES + 10 {
            g.on_probe();
            let now = g.next_fire();
            assert!(g.poll(now));
        }
        assert_eq!(g.period_jiffies, MIN_PERIOD_JIFFIES);

        // Never probed: steps up from 50 to the ceiling, and stays.
        let mut g = dynamic(0);
        for _ in 0..MAX_PERIOD_JIFFIES - INITIAL_PERIOD_JIFFIES + 10 {
            let now = g.next_fire();
            assert!(g.poll(now));
        }
        assert_eq!(g.period_jiffies, MAX_PERIOD_JIFFIES);
    }

    #[test]
    fn fixed_mode_never_adapts() {
        let mut g = UpdateGenerator::new(UpdateMode::Fixed(50), 0);
        g.on_probe();
        assert!(g.poll(500_000));
        assert_eq!(g.period_jiffies, 50);
        assert!(g.poll(1_000_000));
        assert_eq!(g.period_jiffies, 50);
    }

    #[test]
    fn disabled_mode_never_fires() {
        let mut g = UpdateGenerator::new(UpdateMode::Disabled, 0);
        g.on_probe();
        assert!(!g.poll(u64::MAX));
        assert_eq!(g.updates_fired, 0);
    }
}
