//! The rate-based half of H-RMC flow control (paper §2, Flow Control).
//!
//! The sender maintains a current transmission rate, advertised in every
//! outgoing packet. The rate evolves through two stages modelled on TCP
//! congestion control (the paper cites Jacobson):
//!
//! * **slow start** — the rate doubles once per RTT until it crosses the
//!   slow-start threshold;
//! * **congestion avoidance** — the rate grows linearly per RTT.
//!
//! Three feedback signals shrink it:
//!
//! * a **NAK** or a **warning rate request** halves the rate and switches
//!   to linear increase ("On receipt of a NAK or a warning rate request,
//!   the sender cuts its transmission rate by half and begins a linear
//!   increase in transmission rate");
//! * an **urgent rate request** stops forward transmission for two RTTs,
//!   after which the rate restarts from the minimum in slow start ("At the
//!   beginning of data transmission for a new connection, and any time
//!   following an urgent rate request, the sender sets the transmission
//!   rate to a minimum value and uses slow start and congestion avoidance
//!   phases").
//!
//! The [`RateController`] also implements the transmitter's per-jiffy byte
//! budget: each tick the controller converts elapsed time × rate into a
//! byte allowance with bounded carry-over, so a stalled tick cannot bank
//! an unbounded burst.

use crate::time::{scale, Micros, MS};

/// Line time an event-driven transmitter that has run out of credit lets
/// accrue before it asks to run again: one millisecond of the current
/// rate (and never less than the packet it would send). A millisecond is
/// the resolution of the reactor's readiness wait and the quantum Linux
/// TCP pacing uses, so a backlogged sender wakes about a thousand times a
/// second whatever its rate instead of once per packet.
pub const PACING_QUANTUM_US: Micros = MS;

/// Linear-increase step in bytes/second, applied once per RTT during
/// congestion avoidance.
const LINEAR_INCREASE_PER_RTT: u64 = 64 * 1024;

/// Minimum spacing between rate halvings, in RTTs: several NAKs from one
/// loss burst count as one congestion event (TCP-style).
const HALVING_MIN_INTERVAL_RTTS: f64 = 1.0;

/// Stop duration after an urgent rate request, in RTTs. Paper §2 rule 3:
/// "stop forward transmission for two round-trip times".
pub(crate) const URGENT_STOP_RTTS: u64 = 2;

/// Growth phase of the transmission rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatePhase {
    /// Exponential growth: the rate doubles each RTT.
    SlowStart,
    /// Linear growth per RTT.
    CongestionAvoidance,
    /// Forward transmission stopped until the embedded deadline (urgent
    /// rate request); leaves for slow start at the deadline.
    Stopped {
        /// Absolute time at which transmission may resume.
        until: Micros,
    },
}

/// Two-stage rate controller with a per-tick byte budget.
#[derive(Debug, Clone)]
pub struct RateController {
    rate: u64,
    ssthresh: u64,
    min_rate: u64,
    max_rate: u64,
    phase: RatePhase,
    /// Last time the rate was grown (growth applied once per RTT).
    last_growth: Micros,
    /// Last time the rate was halved (congestion events deduplicated).
    last_halving: Option<Micros>,
    /// Fractional-byte budget accumulator (microsecond-rate products).
    credit_us_bytes: u128,
    /// Overdraft to repay before new credit accrues: the transmitter may
    /// finish a packet that straddles the end of its allowance, and that
    /// excess must be charged to the next tick or the long-run rate
    /// creeps above the cap (enough, at ~7% for full-size segments, to
    /// slowly fill a transmit queue the cap was chosen to protect).
    deficit_us_bytes: u128,
    /// Last time the budget accumulator ran.
    last_budget: Micros,
    /// Number of rate halvings taken (stat).
    pub halvings: u64,
    /// Number of urgent stops taken (stat).
    pub urgent_stops: u64,
}

impl RateController {
    /// Create a controller starting at `min_rate` in slow start at `now`.
    /// Slow start runs until the rate reaches `max_rate` or the first
    /// congestion event, whichever comes first.
    pub fn new(min_rate: u64, max_rate: u64, now: Micros) -> RateController {
        RateController {
            rate: min_rate,
            ssthresh: max_rate,
            min_rate,
            max_rate,
            phase: RatePhase::SlowStart,
            last_growth: now,
            last_halving: None,
            credit_us_bytes: 0,
            deficit_us_bytes: 0,
            last_budget: now,
            halvings: 0,
            urgent_stops: 0,
        }
    }

    /// Current transmission rate in bytes/second. This is the value
    /// advertised in the header's rate-advertisement field; it is reported
    /// as the pre-stop rate while stopped (receivers judge rule 2 against
    /// it) but [`RateController::budget`] yields zero during a stop.
    #[inline]
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Current phase.
    #[inline]
    pub fn phase(&self) -> RatePhase {
        self.phase
    }

    /// `true` while an urgent stop is in force at `now`.
    pub fn is_stopped(&self, now: Micros) -> bool {
        matches!(self.phase, RatePhase::Stopped { until } if now < until)
    }

    /// Grow the rate if at least one RTT has elapsed since the last
    /// growth step. Called from the transmitter tick.
    pub fn on_tick(&mut self, now: Micros, rtt: Micros) {
        if let RatePhase::Stopped { until } = self.phase {
            if now >= until {
                // Restart from the minimum in slow start (paper §2 rule 3).
                self.rate = self.min_rate;
                self.phase = RatePhase::SlowStart;
                self.last_growth = now;
            }
            return;
        }
        let rtt = rtt.max(1);
        while now.saturating_sub(self.last_growth) >= rtt {
            self.last_growth += rtt;
            match self.phase {
                RatePhase::SlowStart => {
                    self.rate = (self.rate * 2).min(self.max_rate);
                    if self.rate >= self.ssthresh {
                        self.phase = RatePhase::CongestionAvoidance;
                    }
                }
                RatePhase::CongestionAvoidance => {
                    self.rate = (self.rate + LINEAR_INCREASE_PER_RTT).min(self.max_rate);
                }
                RatePhase::Stopped { .. } => unreachable!("handled above"),
            }
        }
    }

    /// React to a NAK or warning rate request: halve the rate (at most
    /// once per RTT) and begin linear increase.
    /// `suggested` is the rate the receiver proposed in the CONTROL
    /// packet's rate-advertisement field, if any.
    pub fn on_congestion(&mut self, now: Micros, rtt: Micros, suggested: Option<u64>) {
        if self.is_stopped(now) {
            return; // already fully stopped; nothing softer applies
        }
        let min_gap = scale(rtt, HALVING_MIN_INTERVAL_RTTS);
        if let Some(last) = self.last_halving {
            if now.saturating_sub(last) < min_gap {
                return; // same congestion event
            }
        }
        self.last_halving = Some(now);
        self.halvings += 1;
        let mut new_rate = (self.rate / 2).max(self.min_rate);
        if let Some(s) = suggested {
            // "the receivers use it in feedback messages to suggest a
            // lower sending rate" — honor a suggestion below our halved
            // rate, but never drop under the minimum.
            new_rate = new_rate.min(s.max(self.min_rate));
        }
        self.rate = new_rate;
        self.ssthresh = self.rate.max(self.min_rate);
        self.phase = RatePhase::CongestionAvoidance;
        self.last_growth = now;
    }

    /// React to an urgent rate request: stop forward transmission for
    /// two RTTs; on resume, restart from the minimum rate in slow start.
    pub fn on_urgent(&mut self, now: Micros, rtt: Micros) {
        let until = now + (rtt.max(1)) * URGENT_STOP_RTTS;
        match self.phase {
            // Extend an in-force stop rather than resetting counters.
            RatePhase::Stopped { until: cur } if cur >= until => {}
            _ => {
                self.phase = RatePhase::Stopped { until };
                self.urgent_stops += 1;
            }
        }
        self.credit_us_bytes = 0;
    }

    /// Compute the byte budget for a transmitter tick at `now`: elapsed
    /// time × rate, with carry-over capped at one tick's worth so stalls
    /// do not bank unbounded bursts. Returns 0 while stopped.
    pub fn budget(&mut self, now: Micros, tick: Micros) -> usize {
        if self.is_stopped(now) {
            self.last_budget = now;
            self.credit_us_bytes = 0;
            self.deficit_us_bytes = 0;
            return 0;
        }
        let elapsed = now.saturating_sub(self.last_budget);
        self.last_budget = now;
        // Accumulate rate × elapsed in byte·µs to keep integer math
        // exact, repaying any overdraft first.
        let mut accrued = self.rate as u128 * elapsed as u128;
        let repay = accrued.min(self.deficit_us_bytes);
        self.deficit_us_bytes -= repay;
        accrued -= repay;
        let cap = 2 * (self.rate as u128) * (tick.max(1) as u128);
        self.credit_us_bytes = (self.credit_us_bytes + accrued).min(cap);
        let bytes = self.credit_us_bytes / 1_000_000;
        self.credit_us_bytes -= bytes * 1_000_000;
        bytes as usize
    }

    /// Charge bytes sent *beyond* the granted budget (a packet that
    /// straddled the allowance boundary): repaid out of future accrual.
    pub fn overdraw(&mut self, bytes: usize) {
        self.deficit_us_bytes += bytes as u128 * 1_000_000;
    }

    /// Charge `bytes` back against the budget accumulator; used when the
    /// transmitter could not use its whole allowance (window empty) so the
    /// unused allowance does not evaporate mid-burst. Capped identically
    /// to [`RateController::budget`].
    pub fn refund(&mut self, bytes: usize, tick: Micros) {
        let cap = 2 * (self.rate as u128) * (tick.max(1) as u128);
        self.credit_us_bytes = (self.credit_us_bytes + bytes as u128 * 1_000_000).min(cap);
    }

    /// This controller as a transmitter pass at `at` would leave it —
    /// [`RateController::on_tick`] then [`RateController::budget`] run on
    /// a copy — and the allowance that pass would be granted.
    fn preview(&self, at: Micros, rtt: Micros, tick: Micros) -> (RateController, usize) {
        let mut c = self.clone();
        c.on_tick(at, rtt);
        let granted = c.budget(at, tick);
        (c, granted)
    }

    /// When an event-driven transmitter whose next packet is `packet`
    /// wire bytes long should next run: `now` if a pass at `now` would be
    /// granted anything at all (a pass finishes the packet it starts and
    /// carries the excess as overdraft, so one byte of allowance sends);
    /// otherwise the instant the overdraft is repaid and a pacing quantum
    /// has accrued at the current rate — [`PACING_QUANTUM_US`] of it, at
    /// least the packet — or the end of an urgent stop. A future answer
    /// is a lower bound to re-ask at, not a promise: growth or a halving
    /// in between moves it.
    pub fn pacing_deadline(&self, now: Micros, rtt: Micros, tick: Micros, packet: usize) -> Micros {
        let (c, granted) = self.preview(now, rtt, tick);
        if granted > 0 {
            return now;
        }
        if let RatePhase::Stopped { until } = c.phase {
            // `on_tick` ends a stop that has run out, so this one has not.
            return until;
        }
        let rate = c.rate.max(1) as u128;
        let quantum = (rate * PACING_QUANTUM_US as u128).max(packet as u128 * 1_000_000);
        let short = quantum.saturating_sub(c.credit_us_bytes) + c.deficit_us_bytes;
        now + short.div_ceil(rate) as Micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(now: Micros) -> RateController {
        RateController::new(64_000, 10_000_000, now)
    }

    #[test]
    fn starts_at_min_rate_in_slow_start() {
        let c = ctl(0);
        assert_eq!(c.rate(), 64_000);
        assert_eq!(c.phase(), RatePhase::SlowStart);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = ctl(0);
        let rtt = 10_000;
        c.on_tick(rtt, rtt);
        assert_eq!(c.rate(), 128_000);
        c.on_tick(2 * rtt, rtt);
        assert_eq!(c.rate(), 256_000);
        // Several RTTs at once apply several doublings.
        c.on_tick(5 * rtt, rtt);
        assert_eq!(c.rate(), 2_048_000);
    }

    #[test]
    fn rate_caps_at_max() {
        let mut c = ctl(0);
        c.on_tick(1_000_000_000, 10_000);
        assert_eq!(c.rate(), 10_000_000);
    }

    #[test]
    fn congestion_halves_and_goes_linear() {
        let mut c = ctl(0);
        c.on_tick(100_000, 10_000); // grow for 10 RTTs
        let before = c.rate();
        c.on_congestion(100_000, 10_000, None);
        assert_eq!(c.rate(), before / 2);
        assert_eq!(c.phase(), RatePhase::CongestionAvoidance);
        // Next RTT grows linearly, not exponentially.
        c.on_tick(110_000, 10_000);
        assert_eq!(c.rate(), before / 2 + LINEAR_INCREASE_PER_RTT);
    }

    #[test]
    fn congestion_events_deduplicated_within_rtt() {
        let mut c = ctl(0);
        c.on_tick(100_000, 10_000);
        let before = c.rate();
        c.on_congestion(100_000, 10_000, None);
        c.on_congestion(100_001, 10_000, None); // burst of NAKs: one event
        c.on_congestion(105_000, 10_000, None);
        assert_eq!(c.rate(), before / 2);
        assert_eq!(c.halvings, 1);
        // After an RTT, a new event counts.
        c.on_congestion(111_000, 10_000, None);
        assert_eq!(c.halvings, 2);
    }

    #[test]
    fn receiver_suggestion_is_honored_when_lower() {
        let mut c = ctl(0);
        c.on_tick(200_000, 10_000);
        c.on_congestion(200_000, 10_000, Some(70_000));
        assert_eq!(c.rate(), 70_000);
        // A suggestion below min_rate clamps to min_rate.
        c.on_congestion(300_000, 10_000, Some(1));
        assert_eq!(c.rate(), 64_000);
    }

    #[test]
    fn urgent_stops_for_two_rtts_then_restarts_minimum() {
        let mut c = ctl(0);
        c.on_tick(100_000, 10_000);
        assert!(c.rate() > 64_000);
        c.on_urgent(100_000, 10_000);
        assert!(c.is_stopped(100_000));
        assert!(c.is_stopped(119_999));
        assert_eq!(c.budget(110_000, 10_000), 0);
        // Stop expires after 2 RTTs; next tick restarts slow start at min.
        c.on_tick(120_000, 10_000);
        assert!(!c.is_stopped(120_000));
        assert_eq!(c.rate(), 64_000);
        assert_eq!(c.phase(), RatePhase::SlowStart);
        assert_eq!(c.urgent_stops, 1);
    }

    #[test]
    fn budget_tracks_rate_and_elapsed_time() {
        let mut c = ctl(0);
        // 64000 B/s for 10 ms = 640 bytes.
        assert_eq!(c.budget(10_000, 10_000), 640);
        // Nothing accrues with no elapsed time.
        assert_eq!(c.budget(10_000, 10_000), 0);
        // Carry-over is capped at ~2 ticks' worth.
        let b = c.budget(10_000_000, 10_000);
        assert!(b <= 2 * 640, "banked burst too large: {b}");
    }

    #[test]
    fn refund_returns_unused_budget() {
        let mut c = ctl(0);
        let b = c.budget(10_000, 10_000);
        c.refund(b, 10_000);
        assert_eq!(c.budget(10_000, 10_000), b);
    }

    /// The preview is the pass: whatever state growth, an overdraft, a
    /// refund, a halving or an urgent stop left behind, the credit
    /// `preview` reads at an instant is exactly what `on_tick` + `budget`
    /// then grant, and the preview leaves the controller untouched.
    #[test]
    fn credit_at_previews_exactly_what_the_pass_is_granted() {
        let mut c = ctl(0);
        let rtt = 10_000;
        for (i, t) in [
            137u64, 9_000, 10_000, 10_001, 31_000, 31_400, 80_000, 200_000,
        ]
        .into_iter()
        .enumerate()
        {
            match i {
                2 => c.overdraw(900),
                4 => c.on_congestion(t, rtt, None),
                5 => c.refund(300, 10_000),
                6 => c.on_urgent(t, rtt),
                _ => {}
            }
            let before = format!("{c:?}");
            let (_, previewed) = c.preview(t, rtt, 10_000);
            assert_eq!(format!("{c:?}"), before, "preview mutated the controller");
            c.on_tick(t, rtt);
            assert_eq!(c.budget(t, 10_000), previewed, "at {t}");
        }
    }

    #[test]
    fn pacing_deadline_is_now_with_credit_else_a_quantum_away() {
        let mut c = ctl(0);
        // An RTT long enough that the rate does not grow in this window.
        let rtt = 1_000_000;
        // No credit at the instant of creation: one packet of line time
        // (1420 B at 64 000 B/s; a millisecond of rate is only 64 B).
        assert_eq!(c.pacing_deadline(0, rtt, 10_000, 1_420), 22_188);
        // A byte of credit is enough to run now.
        assert_eq!(c.pacing_deadline(16, rtt, 10_000, 1_420), 16);
        // After a pass that overdrew, the overdraft is waited out too.
        assert_eq!(c.budget(1_000, 10_000), 64);
        c.overdraw(1_356);
        assert_eq!(c.pacing_deadline(1_000, rtt, 10_000, 1_420), 1_000 + 43_375);
        // At a high rate the quantum is a millisecond of it, not a packet.
        let mut fast = RateController::new(8_000_000, 8_000_000, 0);
        assert_eq!(fast.budget(500, 10_000), 4_000);
        assert_eq!(fast.pacing_deadline(500, rtt, 10_000, 1_420), 1_500);
        // An urgent stop gates until it ends.
        fast.on_urgent(600, 2_000);
        assert_eq!(fast.pacing_deadline(700, rtt, 10_000, 1_420), 4_600);
    }

    #[test]
    fn budget_fractional_bytes_accumulate() {
        // 64000 B/s for 1 µs = 0.064 bytes; over 1000 µs ticks it must sum
        // to ~64 bytes, not zero.
        let mut c = ctl(0);
        let mut total = 0;
        for t in 1..=1000u64 {
            total += c.budget(t, 10_000);
        }
        assert_eq!(total, 64);
    }
}
