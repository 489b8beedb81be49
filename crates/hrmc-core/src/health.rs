//! Online protocol health monitoring: a sans-io, bounded-memory
//! streaming monitor that consumes the [`ProtocolObserver`] event stream
//! (plus periodic [`TelemetrySample`]s) and evaluates protocol
//! invariants *while the protocol runs* — NAK storms, window stalls,
//! livelock, RTT divergence, recovery-backlog growth, imminent and
//! false member ejections. Each rule emits a structured [`Alert`] with
//! hysteresis (separate raise/clear thresholds, a sustain requirement
//! before raising, and a minimum hold before clearing) so alerts never
//! flap.
//!
//! The rules are one constant table (`RULES`, DESIGN.md §18); the only
//! input the stream cannot supply is the protocol's PROBE limit
//! ([`HealthConfig`]).
//!
//! The monitor is a pure observer: it never mutates protocol state, so
//! an armed monitor cannot perturb trajectories. A monitor is always
//! armed; an unmonitored session has none, and so pays nothing — the
//! same zero-cost contract as the rest of the observability layer.
//!
//! Memory is bounded by construction: windowed rates live in a fixed
//! ring of time buckets, ejection tracking in a capped set, and the
//! alert history in a capped deque. Nothing grows with run length.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::obs::{event_json, Event, ProtocolObserver};
use crate::telemetry::TelemetrySample;
use crate::time::Micros;

/// Number of time buckets the sliding window is divided into.
const WINDOW_BUCKETS: usize = 10;
/// Alert-history ring bound.
const HISTORY_CAP: usize = 256;
/// Bound on the tracked set of ejected members (false-ejection rule).
const EJECTED_CAP: usize = 64;
/// Minimum windowed NAK count before the NAK-storm ratio is meaningful.
const NAK_STORM_MIN_NAKS: u64 = 10;
/// Minimum windowed event count before the livelock ratio is meaningful.
const LIVELOCK_MIN_EVENTS: u64 = 300;

/// The protocol invariant a rule watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertRule {
    /// Windowed NAK packets per delivered segment exceeded the bound —
    /// the group is spending its feedback budget on loss reports.
    NakStorm,
    /// No release/delivery/recovery progress for longer than the bound
    /// while recovery work is pending — the pipeline is stalled.
    WindowStall,
    /// Windowed observer events per delivered segment exceeded the bound
    /// — the protocol is spinning without making forward progress (the
    /// same invariant the hostile matrix asserts post-hoc).
    Livelock,
    /// The smoothed RTT diverged from its run baseline (rolling minimum)
    /// by more than the bound, sustained — standing queues are building.
    RttDivergence,
    /// The event-derived recovery backlog (NAKed-but-unrecovered
    /// segments) exceeded the bound, sustained.
    BacklogGrowth,
    /// Consecutive unanswered PROBEs approached `probe_failure_limit` —
    /// a member is about to be ejected.
    EjectionImminent,
    /// A member showed activity *after* being ejected — the ejection was
    /// false (the online form of the post-hoc `hrmc analyze` audit).
    FalseEjection,
}

impl AlertRule {
    /// Every rule, in a stable order.
    pub const ALL: [AlertRule; 7] = [
        AlertRule::NakStorm,
        AlertRule::WindowStall,
        AlertRule::Livelock,
        AlertRule::RttDivergence,
        AlertRule::BacklogGrowth,
        AlertRule::EjectionImminent,
        AlertRule::FalseEjection,
    ];
}

/// How urgent a raised alert is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Degradation worth watching.
    Warning,
    /// The protocol is failing its contract (stall, livelock, false
    /// ejection).
    Critical,
}

/// One alert transition: a rule crossing into (`raised == true`) or out
/// of (`raised == false`) its alarmed state, with numeric evidence. All
/// evidence is fixed-point — `value_m`/`limit_m` are the observed value
/// and the threshold in milli-units of the rule's natural unit (see the
/// DESIGN.md rule table) — so the alert stays `Copy` and renders without
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Engine clock at the transition (µs).
    pub t_us: Micros,
    /// Which invariant.
    pub rule: AlertRule,
    /// Configured severity of the rule.
    pub severity: Severity,
    /// `true` = raised, `false` = cleared.
    pub raised: bool,
    /// Observed value, milli-units (e.g. 1500 = 1.5 NAKs/delivered).
    /// For [`AlertRule::FalseEjection`] this is the peer id.
    pub value_m: u64,
    /// The raise threshold the value is judged against, milli-units.
    pub limit_m: u64,
}

impl Alert {
    /// The schema event this alert renders as.
    pub fn to_event(self) -> Event {
        Event::HealthAlert {
            rule: self.rule,
            severity: self.severity,
            raised: self.raised,
            value_m: self.value_m,
            limit_m: self.limit_m,
        }
    }
}

/// Sliding-window span for the rate rules (µs).
const WINDOW_US: u64 = 1_000_000;
/// Width of one window bucket (µs).
const BUCKET_US: u64 = WINDOW_US / WINDOW_BUCKETS as u64;
/// Rule-evaluation grid: rules are (re)judged at most this often (µs),
/// piggybacked on event arrival — no timer of its own.
const EVAL_INTERVAL_US: u64 = 100_000;

/// One rule's severity, thresholds and hysteresis. Thresholds are in
/// milli-units of the rule's natural unit (DESIGN.md §18's table).
struct Rule {
    /// Severity attached to its alerts.
    severity: Severity,
    /// Raise once the value reaches this …
    raise_m: u64,
    /// … and has stayed there this long (µs).
    sustain_us: u64,
    /// Clear once the value falls to or below this …
    clear_m: u64,
    /// … but never sooner than this after raising (µs): the anti-flap
    /// hold.
    min_hold_us: u64,
}

/// The rule table, one row per [`AlertRule`] in [`AlertRule::ALL`]
/// order. The thresholds are conservative: a healthy or merely jittery
/// run stays silent.
const RULES: [Rule; AlertRule::ALL.len()] = [
    // nak_storm: ≥ 1 windowed NAK per delivered segment.
    Rule {
        severity: Severity::Warning,
        raise_m: 1_000,
        sustain_us: 200_000,
        clear_m: 250,
        min_hold_us: 500_000,
    },
    // window_stall: 2 s without progress while work is pending; the
    // value is itself a duration, so no sustain.
    Rule {
        severity: Severity::Critical,
        raise_m: 2_000,
        sustain_us: 0,
        clear_m: 500,
        min_hold_us: 500_000,
    },
    // livelock: ≥ 50 windowed events per delivered segment.
    Rule {
        severity: Severity::Critical,
        raise_m: 50_000,
        sustain_us: 300_000,
        clear_m: 10_000,
        min_hold_us: 500_000,
    },
    // rtt_divergence: srtt ≥ 8 × its rolling minimum for 2 s. A burst
    // of delay spikes inflates srtt for about its own duration (latency
    // is not death); only a standing queue keeps it pinned this long.
    Rule {
        severity: Severity::Warning,
        raise_m: 8_000,
        sustain_us: 2_000_000,
        clear_m: 3_000,
        min_hold_us: 1_000_000,
    },
    // backlog_growth: ≥ 150 NAKed-but-unrecovered segments.
    Rule {
        severity: Severity::Warning,
        raise_m: 150_000,
        sustain_us: 300_000,
        clear_m: 30_000,
        min_hold_us: 500_000,
    },
    // ejection_imminent: raise threshold derived from the protocol's
    // probe_failure_limit (see `HealthMonitor::raise_threshold`).
    Rule {
        severity: Severity::Warning,
        raise_m: 0,
        sustain_us: 0,
        clear_m: 0,
        min_hold_us: 0,
    },
    // false_ejection: event-driven, raises once and never clears.
    Rule {
        severity: Severity::Critical,
        raise_m: 0,
        sustain_us: 0,
        clear_m: 0,
        min_hold_us: 0,
    },
];

impl AlertRule {
    /// This rule's row of [`RULES`].
    fn spec(self) -> &'static Rule {
        &RULES[self as usize]
    }
}

/// What the monitor needs that the event stream does not carry. The
/// rules themselves are the constant table above.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthConfig {
    /// The protocol's `probe_failure_limit`, for the imminent-ejection
    /// rule (below 2 the rule never raises).
    pub probe_failure_limit: u32,
}

/// One sliding-window time bucket.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    naks: u64,
    delivered: u64,
    events: u64,
}

/// Per-rule hysteresis state.
#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    raised: bool,
    /// Condition continuously ≥ raise threshold since (for sustain).
    over_since: Option<u64>,
    raised_at: u64,
    last_value_m: u64,
}

/// The streaming monitor. Feed it events via [`ProtocolObserver`] (or
/// [`HealthMonitor::on_event_tagged`] when the stream carries member
/// attribution, as the simulator's does) and optionally
/// [`TelemetrySample`]s; drain alert transitions with
/// [`HealthMonitor::take_alerts`].
pub struct HealthMonitor {
    probe_failure_limit: u32,
    /// Index (now / BUCKET_US) of the bucket currently written.
    cur_bucket: u64,
    buckets: [Bucket; WINDOW_BUCKETS],
    last_now: u64,
    next_eval: u64,
    /// Last time a release/delivery/recovery made forward progress.
    last_progress: u64,
    /// Event-derived recovery backlog: gap-triggered NAK spans opened
    /// minus recovered spans (saturating — FEC can recover un-NAKed
    /// gaps).
    backlog: u64,
    srtt_us: u64,
    min_rtt_us: u64,
    /// Consecutive PROBE rounds without an intervening answer (probe
    /// RTT sample, UPDATE, or release progress).
    probe_streak: u32,
    /// The instant of the last counted PROBE round.
    last_probe_round: Option<Micros>,
    /// Peers ejected so far (bounded; false-ejection evidence).
    ejected: Vec<u32>,
    /// Peer whose post-ejection activity proved an ejection false.
    false_ejection_peer: Option<u32>,
    states: [RuleState; AlertRule::ALL.len()],
    pending: Vec<Alert>,
    history: VecDeque<Alert>,
    raised_total: u64,
}

impl HealthMonitor {
    /// A monitor judging ejections against `cfg`'s probe limit.
    pub fn new(cfg: HealthConfig) -> HealthMonitor {
        HealthMonitor {
            probe_failure_limit: cfg.probe_failure_limit,
            cur_bucket: 0,
            buckets: [Bucket::default(); WINDOW_BUCKETS],
            last_now: 0,
            next_eval: 0,
            last_progress: 0,
            backlog: 0,
            srtt_us: 0,
            min_rtt_us: 0,
            probe_streak: 0,
            last_probe_round: None,
            ejected: Vec::new(),
            false_ejection_peer: None,
            states: [RuleState::default(); AlertRule::ALL.len()],
            pending: Vec::new(),
            history: VecDeque::new(),
            raised_total: 0,
        }
    }

    /// Number of rules currently in the raised state.
    pub fn active(&self) -> u64 {
        self.states.iter().filter(|s| s.raised).count() as u64
    }

    /// Cumulative raise transitions.
    pub fn raised_total(&self) -> u64 {
        self.raised_total
    }

    /// Drain alert transitions emitted since the last call.
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.pending)
    }

    /// The most recent transitions (bounded ring), oldest first.
    pub fn history(&self) -> impl Iterator<Item = &Alert> {
        self.history.iter()
    }

    /// Feed one event, optionally attributed to a group member (the
    /// simulator tags receiver host `h` as member `h - 1`). Untagged
    /// streams still evaluate every rule except false-ejection, which
    /// needs to know *who* spoke.
    pub fn on_event_tagged(&mut self, now: Micros, ev: &Event, member: Option<u32>) {
        self.last_now = self.last_now.max(now);
        self.advance_window(self.last_now);
        let b = &mut self.buckets[(self.cur_bucket % WINDOW_BUCKETS as u64) as usize];
        b.events += 1;
        match *ev {
            Event::NakSent { count, trigger, .. } => {
                b.naks += 1;
                if trigger == crate::obs::NakTrigger::Gap {
                    self.backlog = self.backlog.saturating_add(u64::from(count));
                }
            }
            Event::Delivered { count, .. } => {
                b.delivered += u64::from(count);
                self.last_progress = self.last_now;
            }
            Event::Recovered { count, .. } => {
                self.backlog = self.backlog.saturating_sub(u64::from(count));
                self.last_progress = self.last_now;
            }
            Event::ReleaseAttempt { released: true, .. } => {
                // A released buffer is sender-side proof of end-to-end
                // progress: every receiver holds the segment. It must
                // count toward the per-delivered denominators, because a
                // pure sender stream (live `hrmc send`) never carries
                // `Delivered` events and would otherwise read as a
                // livelock the moment it pushes >LIVELOCK_MIN_EVENTS
                // events per window.
                b.delivered += 1;
                self.last_progress = self.last_now;
                self.probe_streak = 0;
            }
            Event::RttSample { srtt_us, probe, .. } => {
                self.srtt_us = srtt_us;
                if srtt_us > 0 && (self.min_rtt_us == 0 || srtt_us < self.min_rtt_us) {
                    self.min_rtt_us = srtt_us;
                }
                if probe {
                    self.probe_streak = 0;
                }
            }
            // The sender emits one `ProbeSent` per lacking member, and
            // ejects on a per-member count of unanswered PROBEs: count
            // rounds (distinct instants), not packets. Exact at the
            // default `probe_batch_limit` 0; a round batched over several
            // ticks over-counts.
            Event::ProbeSent { .. } if self.last_probe_round != Some(now) => {
                self.last_probe_round = Some(now);
                self.probe_streak = self.probe_streak.saturating_add(1);
            }
            Event::UpdateSent { .. } => {
                self.probe_streak = 0;
            }
            Event::MemberEjected { peer } => {
                self.probe_streak = 0;
                if self.ejected.len() < EJECTED_CAP && !self.ejected.contains(&peer.0) {
                    self.ejected.push(peer.0);
                }
            }
            Event::HealthAlert { .. } => {
                // Never feed alerts back into rule evaluation.
                b.events -= 1;
            }
            _ => {}
        }
        // Post-ejection activity from a tracked member proves the
        // ejection false.
        if self.false_ejection_peer.is_none() {
            if let Some(m) = member.or_else(|| ev.member().map(|p| p.0)) {
                if !matches!(*ev, Event::MemberEjected { .. }) && self.ejected.contains(&m) {
                    self.false_ejection_peer = Some(m);
                }
            }
        }
        if self.last_now >= self.next_eval {
            self.eval(self.last_now);
            self.next_eval = self.last_now + EVAL_INTERVAL_US;
        }
    }

    /// Supplement the event stream with a periodic telemetry sample —
    /// live sessions publish the smoothed RTT as a gauge even between
    /// observed RTT events. Sample timestamps that run behind the event
    /// clock are ignored (clock domains may differ).
    pub fn observe_sample(&mut self, s: &TelemetrySample) {
        if let Some(&srtt) = s.gauges.get("srtt_us") {
            if srtt > 0 {
                self.srtt_us = srtt;
                if self.min_rtt_us == 0 || srtt < self.min_rtt_us {
                    self.min_rtt_us = srtt;
                }
            }
        }
        if s.t_us > self.last_now {
            self.last_now = s.t_us;
            self.advance_window(s.t_us);
            if s.t_us >= self.next_eval {
                self.eval(s.t_us);
                self.next_eval = s.t_us + EVAL_INTERVAL_US;
            }
        }
    }

    /// Rotate the bucket ring forward to cover `now`, zeroing buckets
    /// that fell out of the window.
    fn advance_window(&mut self, now: u64) {
        let target = now / BUCKET_US;
        if target <= self.cur_bucket {
            return;
        }
        let steps = (target - self.cur_bucket).min(WINDOW_BUCKETS as u64);
        for i in 1..=steps {
            let idx = ((self.cur_bucket + i) % WINDOW_BUCKETS as u64) as usize;
            self.buckets[idx] = Bucket::default();
        }
        self.cur_bucket = target;
    }

    fn window_totals(&self) -> (u64, u64, u64) {
        let mut naks = 0;
        let mut delivered = 0;
        let mut events = 0;
        for b in &self.buckets {
            naks += b.naks;
            delivered += b.delivered;
            events += b.events;
        }
        (naks, delivered, events)
    }

    /// The raise threshold for a rule (milli-units), resolving the
    /// derived imminent-ejection threshold.
    fn raise_threshold(&self, rule: AlertRule) -> u64 {
        match rule {
            AlertRule::EjectionImminent => {
                u64::from(self.probe_failure_limit.saturating_sub(1)) * 1_000
            }
            _ => rule.spec().raise_m,
        }
    }

    /// The current value of a rule's watched quantity (milli-units).
    fn value_m(&self, rule: AlertRule, now: u64) -> u64 {
        let (naks, delivered, events) = self.window_totals();
        match rule {
            AlertRule::NakStorm => {
                if naks < NAK_STORM_MIN_NAKS {
                    0
                } else {
                    naks * 1_000 / delivered.max(1)
                }
            }
            AlertRule::WindowStall => {
                if self.backlog == 0 {
                    0
                } else {
                    now.saturating_sub(self.last_progress) / 1_000
                }
            }
            AlertRule::Livelock => {
                if events < LIVELOCK_MIN_EVENTS {
                    0
                } else {
                    events * 1_000 / delivered.max(1)
                }
            }
            AlertRule::RttDivergence => {
                // Gated on pending recovery work, like window-stall: an
                // inflated RTT with nothing to recover is latency, not
                // degradation (a delay-spiked but lossless link must
                // stay silent). The rolling minimum never ages, so the
                // ratio alone would pin high after any transient storm.
                if self.backlog == 0 || self.min_rtt_us == 0 || self.srtt_us == 0 {
                    0
                } else {
                    self.srtt_us * 1_000 / self.min_rtt_us
                }
            }
            AlertRule::BacklogGrowth => self.backlog * 1_000,
            AlertRule::EjectionImminent => u64::from(self.probe_streak) * 1_000,
            AlertRule::FalseEjection => match self.false_ejection_peer {
                Some(peer) => u64::from(peer).max(1),
                None => 0,
            },
        }
    }

    /// Judge every rule against its hysteresis state.
    fn eval(&mut self, now: u64) {
        for (i, rule) in AlertRule::ALL.into_iter().enumerate() {
            let rc = rule.spec();
            // Imminent ejection needs a configured limit of ≥ 2 to have
            // a meaningful "approaching" threshold.
            if rule == AlertRule::EjectionImminent && self.probe_failure_limit < 2 {
                continue;
            }
            let value = self.value_m(rule, now);
            let limit = self.raise_threshold(rule);
            let st = &mut self.states[i];
            st.last_value_m = value;
            if !st.raised {
                let over = match rule {
                    // Event-driven rules raise on any nonzero value.
                    AlertRule::FalseEjection => value > 0,
                    _ => limit > 0 && value >= limit,
                };
                if over {
                    let since = *st.over_since.get_or_insert(now);
                    if now.saturating_sub(since) >= rc.sustain_us {
                        st.raised = true;
                        st.raised_at = now;
                        st.over_since = None;
                        self.raised_total += 1;
                        let alert = Alert {
                            t_us: now,
                            rule,
                            severity: rc.severity,
                            raised: true,
                            value_m: value,
                            limit_m: limit,
                        };
                        self.pending.push(alert);
                        if self.history.len() == HISTORY_CAP {
                            self.history.pop_front();
                        }
                        self.history.push_back(alert);
                    }
                } else {
                    st.over_since = None;
                }
            } else if rule != AlertRule::FalseEjection // sticky: never clears
                && value <= rc.clear_m
                && now.saturating_sub(st.raised_at) >= rc.min_hold_us
            {
                st.raised = false;
                st.over_since = None;
                let alert = Alert {
                    t_us: now,
                    rule,
                    severity: rc.severity,
                    raised: false,
                    value_m: value,
                    limit_m: limit,
                };
                self.pending.push(alert);
                if self.history.len() == HISTORY_CAP {
                    self.history.pop_front();
                }
                self.history.push_back(alert);
            }
        }
    }
}

impl ProtocolObserver for HealthMonitor {
    fn on_event(&mut self, now: Micros, ev: &Event) {
        self.on_event_tagged(now, ev, None);
    }
}

/// Clone-able shared handle around a [`HealthMonitor`] — install clones
/// as observers into several engines and keep one to drain, the same
/// pattern as [`crate::MetricsObserver`] / [`crate::SharedRecorder`].
#[derive(Clone)]
pub struct SharedMonitor {
    inner: Arc<Mutex<HealthMonitor>>,
}

impl SharedMonitor {
    /// A shared monitor with the given configuration.
    pub fn new(cfg: HealthConfig) -> SharedMonitor {
        SharedMonitor {
            inner: Arc::new(Mutex::new(HealthMonitor::new(cfg))),
        }
    }

    /// Run `f` against the underlying monitor.
    pub fn with_monitor<T>(&self, f: impl FnOnce(&mut HealthMonitor) -> T) -> T {
        f(&mut self.inner.lock().expect("health monitor poisoned"))
    }

    /// Feed a telemetry sample (see [`HealthMonitor::observe_sample`]).
    pub fn observe_sample(&self, s: &TelemetrySample) {
        self.with_monitor(|m| m.observe_sample(s));
    }

    /// Drain alert transitions emitted since the last call.
    pub fn take_alerts(&self) -> Vec<Alert> {
        self.with_monitor(|m| m.take_alerts())
    }

    /// Number of rules currently raised.
    pub fn active(&self) -> u64 {
        self.with_monitor(|m| m.active())
    }

    /// Cumulative raise transitions.
    pub fn raised_total(&self) -> u64 {
        self.with_monitor(|m| m.raised_total())
    }

    /// The retained transition history (the newest 256) as one
    /// JSON array of `health_alert` event lines, oldest first: the
    /// `/alerts` exposition body, `[]` when healthy.
    pub fn render_json(&self) -> String {
        let line = |a: &Alert| event_json(a.t_us, &a.to_event());
        let lines: Vec<String> = self.with_monitor(|m| m.history().map(line).collect());
        format!("[{}]", lines.join(","))
    }
}

impl ProtocolObserver for SharedMonitor {
    fn on_event(&mut self, now: Micros, ev: &Event) {
        self.with_monitor(|m| m.on_event_tagged(now, ev, None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NakTrigger;
    use crate::rate::RatePhase;
    use crate::rxwindow::Region;
    use crate::PeerId;

    fn nak(count: u32) -> Event {
        Event::NakSent {
            first: 0,
            count,
            trigger: NakTrigger::Gap,
        }
    }

    fn delivered(count: u32) -> Event {
        Event::Delivered { first: 0, count }
    }

    fn recovered(count: u32) -> Event {
        Event::Recovered {
            first: 0,
            count,
            elapsed_us: 1,
        }
    }

    #[test]
    fn rule_and_severity_names_round_trip() {
        for r in AlertRule::ALL {
            assert_eq!(AlertRule::from_name(r.name()), Some(r));
        }
        for s in [Severity::Warning, Severity::Critical] {
            assert_eq!(Severity::from_name(s.name()), Some(s));
        }
        for t in [
            NakTrigger::Gap,
            NakTrigger::Timer,
            NakTrigger::Probe,
            NakTrigger::Keepalive,
        ] {
            assert_eq!(NakTrigger::from_name(t.name()), Some(t));
        }
        for r in [Region::Safe, Region::Warning, Region::Critical] {
            assert_eq!(Region::from_name(r.name()), Some(r));
        }
        for p in [RatePhase::SlowStart, RatePhase::CongestionAvoidance] {
            assert_eq!(RatePhase::from_name(p.name()), Some(p));
        }
        // A stopped phase reads back without its resume deadline.
        let stopped = RatePhase::from_name(RatePhase::Stopped { until: 7 }.name());
        assert_eq!(stopped, Some(RatePhase::Stopped { until: 0 }));
        assert_eq!(AlertRule::from_name("nope"), None);
    }

    #[test]
    fn nak_storm_raises_after_sustain_and_clears_after_hold() {
        // nak_storm holds for 200 ms before raising, 500 ms before
        // clearing.
        let mut m = HealthMonitor::new(HealthConfig::default());
        // A storm: NAKs every ms, nothing delivered.
        let mut t = 0u64;
        while t < 150_000 {
            m.on_event_tagged(t, &nak(1), None);
            t += 1_000;
        }
        assert!(
            m.take_alerts().is_empty(),
            "must not raise before the sustain window"
        );
        while t < 400_000 {
            m.on_event_tagged(t, &nak(1), None);
            t += 1_000;
        }
        let raised = m.take_alerts();
        assert!(
            raised
                .iter()
                .any(|a| a.rule == AlertRule::NakStorm && a.raised),
            "sustained storm must raise: {raised:?}"
        );
        assert!(m.active() >= 1);
        // Recovery: deliveries resume, NAKs stop; backlog drains.
        let healed_at = t;
        while t < healed_at + 2_000_000 {
            m.on_event_tagged(t, &recovered(5), None);
            m.on_event_tagged(t, &delivered(5), None);
            t += 10_000;
        }
        let cleared = m.take_alerts();
        assert!(
            cleared
                .iter()
                .any(|a| a.rule == AlertRule::NakStorm && !a.raised),
            "healed stream must clear: {cleared:?}"
        );
        // Clear must respect the minimum hold.
        let raise_t = raised
            .iter()
            .find(|a| a.rule == AlertRule::NakStorm)
            .unwrap()
            .t_us;
        let clear_t = cleared
            .iter()
            .find(|a| a.rule == AlertRule::NakStorm)
            .unwrap()
            .t_us;
        assert!(clear_t - raise_t >= 500_000, "hold violated");
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        // backlog_growth raises at 150 segments held for 300 ms and
        // clears at 30, never sooner than 500 ms after raising.
        let mut m = HealthMonitor::new(HealthConfig::default());
        let mut t = 0u64;
        // One swing: ten 20 ms NAK steps take the backlog 0 → 300, `hold`
        // more steps keep it there, one repair drops it to 0, and 200 ms
        // idle follow. Every swing crosses both thresholds. Returns the
        // swing's backlog_growth transitions and the repair's time.
        let mut swing = |m: &mut HealthMonitor, hold: u64| {
            for step in 0..10 + hold {
                let ev = if step < 10 { nak(30) } else { delivered(1) };
                m.on_event_tagged(t, &ev, None);
                t += 20_000;
            }
            let repaired_at = t;
            m.on_event_tagged(t, &recovered(300), None);
            for _ in 0..10 {
                t += 20_000;
                m.on_event_tagged(t, &delivered(1), None);
            }
            let alerts = m.take_alerts().into_iter();
            let flaps = alerts.filter(|a| a.rule == AlertRule::BacklogGrowth);
            (flaps.collect::<Vec<_>>(), repaired_at)
        };
        // Peaks of ~120 ms never outlast the sustain.
        for _ in 0..10 {
            let (flaps, _) = swing(&mut m, 0);
            assert!(flaps.is_empty(), "a short peak raised: {flaps:?}");
        }
        // A peak held for 400 ms raises once, and its repair follows the
        // raise by less than the hold. Ten more swings then clear it
        // once, after the hold, and never raise it again.
        let (mut transitions, repaired_at) = swing(&mut m, 20);
        for _ in 0..10 {
            transitions.extend(swing(&mut m, 0).0);
        }
        assert_eq!(transitions.len(), 2, "alert flapped: {transitions:?}");
        let (up, down) = (transitions[0], transitions[1]);
        assert!(up.raised && !down.raised, "{transitions:?}");
        assert!(repaired_at - up.t_us < 500_000, "{up:?} at {repaired_at}");
        assert!(down.t_us - up.t_us >= 500_000, "hold violated");
        // The first evaluation after the repair saw the backlog at 0
        // and still held the alert.
        assert!(
            down.t_us > repaired_at + EVAL_INTERVAL_US,
            "cleared at the first evaluation after the repair: {down:?}"
        );
    }

    #[test]
    fn false_ejection_detected_from_tagged_activity_and_sticky() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.on_event_tagged(1_000, &Event::MemberEjected { peer: PeerId(3) }, None);
        assert!(m.take_alerts().is_empty(), "ejection alone is not false");
        // Activity from the ejected member after the fact.
        m.on_event_tagged(200_000, &Event::UpdateSent { nonce: 1 }, Some(3));
        let alerts = m.take_alerts();
        assert!(
            alerts
                .iter()
                .any(|a| a.rule == AlertRule::FalseEjection && a.raised && a.value_m == 3),
            "{alerts:?}"
        );
        // Sticky: quiet time never clears it.
        for t in 0..50u64 {
            m.on_event_tagged(300_000 + t * 100_000, &delivered(1), None);
        }
        assert!(m
            .take_alerts()
            .iter()
            .all(|a| a.rule != AlertRule::FalseEjection || a.raised));
        assert!(AlertRule::ALL
            .into_iter()
            .zip(&m.states)
            .any(|(rule, s)| rule == AlertRule::FalseEjection && s.raised));
    }

    #[test]
    fn ejection_imminent_warns_before_limit_and_clears_on_answer() {
        let mut m = HealthMonitor::new(HealthConfig {
            probe_failure_limit: 3,
        });
        let probe = Event::ProbeSent {
            seq: 7,
            multicast: false,
        };
        m.on_event_tagged(0, &probe, None);
        assert!(m.take_alerts().is_empty(), "one probe is fine");
        m.on_event_tagged(200_000, &probe, None);
        let alerts = m.take_alerts();
        assert!(
            alerts
                .iter()
                .any(|a| a.rule == AlertRule::EjectionImminent && a.raised),
            "streak of limit-1 must warn: {alerts:?}"
        );
        // An answered probe resets the streak and clears.
        m.on_event_tagged(
            400_000,
            &Event::RttSample {
                sample_us: 1_000,
                srtt_us: 1_000,
                probe: true,
            },
            None,
        );
        m.on_event_tagged(600_000, &delivered(1), None);
        assert!(m
            .take_alerts()
            .iter()
            .any(|a| a.rule == AlertRule::EjectionImminent && !a.raised));
    }

    #[test]
    fn ejection_imminent_counts_probe_rounds_not_probes() {
        let limit = 4;
        let imminent = |m: &mut HealthMonitor| {
            m.take_alerts()
                .iter()
                .any(|a| a.rule == AlertRule::EjectionImminent && a.raised)
        };
        let probe = Event::ProbeSent {
            seq: 7,
            multicast: false,
        };
        // One round PROBEs six lacking members at one instant: one
        // unanswered round, not six.
        let mut m = HealthMonitor::new(HealthConfig {
            probe_failure_limit: limit,
        });
        for member in 0..6 {
            m.on_event_tagged(0, &probe, Some(member));
        }
        m.on_event_tagged(200_000, &delivered(1), None);
        assert!(!imminent(&mut m), "one round to six members is fine");
        // Re-probing one member: `limit - 1` rounds raise the warning,
        // one fewer does not.
        let mut m = HealthMonitor::new(HealthConfig {
            probe_failure_limit: limit,
        });
        for round in 0..u64::from(limit) - 1 {
            assert!(!imminent(&mut m), "round {round}");
            m.on_event_tagged(round * 200_000, &probe, Some(0));
        }
        assert!(imminent(&mut m), "limit - 1 rounds must warn");
    }

    #[test]
    fn rtt_divergence_needs_sustained_inflation() {
        // rtt_divergence raises at 8 × the rolling minimum held for 2 s.
        // The open backlog (the divergence gate) also trips the stall
        // rule, so only divergence alerts are read.
        let mut m = HealthMonitor::new(HealthConfig::default());
        let divergence = |m: &mut HealthMonitor| {
            let alerts = m.take_alerts().into_iter();
            alerts
                .filter(|a| a.rule == AlertRule::RttDivergence)
                .collect::<Vec<_>>()
        };
        let sample = |srtt_us| Event::RttSample {
            sample_us: srtt_us,
            srtt_us,
            probe: false,
        };
        m.on_event_tagged(0, &nak(1), None);
        m.on_event_tagged(0, &sample(10_000), None);
        // A 1 s spike to 9 × must not raise.
        m.on_event_tagged(1_000_000, &sample(90_000), None);
        m.on_event_tagged(2_000_000, &sample(10_000), None);
        m.on_event_tagged(3_000_000, &sample(10_000), None);
        assert!(divergence(&mut m).is_empty(), "transient spike raised");
        // Sustained inflation must.
        for i in 0..30u64 {
            m.on_event_tagged(4_000_000 + i * 100_000, &sample(90_000), None);
        }
        assert!(divergence(&mut m).iter().any(|a| a.raised));
    }

    #[test]
    fn telemetry_sample_feeds_srtt_between_events() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.on_event_tagged(0, &nak(1), None);
        m.on_event_tagged(
            0,
            &Event::RttSample {
                sample_us: 5_000,
                srtt_us: 5_000,
                probe: false,
            },
            None,
        );
        // Samples alone carry srtt at 12 × the minimum past the 2 s
        // sustain; no further event arrives.
        let mut s = TelemetrySample {
            seq: 0,
            t_us: 0,
            interval_us: 0,
            counters: Default::default(),
            totals: Default::default(),
            gauges: Default::default(),
            hists: Default::default(),
        };
        s.gauges.insert("srtt_us".to_string(), 60_000);
        for t_us in [1_000_000, 2_000_000, 3_000_000] {
            s.t_us = t_us;
            m.observe_sample(&s);
        }
        assert!(m
            .take_alerts()
            .iter()
            .any(|a| a.rule == AlertRule::RttDivergence && a.raised));
    }

    #[test]
    fn shared_monitor_drains_from_clones() {
        let shared = SharedMonitor::new(HealthConfig::default());
        let mut obs: Box<dyn ProtocolObserver> = Box::new(shared.clone());
        for t in 0..600u64 {
            obs.on_event(t * 1_000, &nak(1));
        }
        assert!(shared.raised_total() >= 1);
        let drained = shared.take_alerts();
        assert!(!drained.is_empty());
        assert!(shared.take_alerts().is_empty(), "drain is destructive");
        let json = shared.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"rule\":\"nak_storm\""), "{json}");
    }

    #[test]
    fn window_rotation_forgets_old_counts() {
        // The window spans 1 s.
        let mut m = HealthMonitor::new(HealthConfig::default());
        for t in 0..20u64 {
            m.on_event_tagged(t * 1_000, &nak(1), None);
        }
        let (naks, _, _) = m.window_totals();
        assert_eq!(naks, 20);
        // Jump far past the window: everything must age out.
        m.on_event_tagged(10_000_000, &delivered(1), None);
        let (naks, _, _) = m.window_totals();
        assert_eq!(naks, 0, "stale buckets must be zeroed");
    }

    /// A pure sender stream (live `hrmc send`) carries `DataSent` and
    /// `ReleaseAttempt` but never `Delivered` — buffer releases must
    /// count as progress so a healthy high-rate sender is not a
    /// livelock, while a sender pushing packets with zero releases
    /// still is.
    #[test]
    fn sender_only_stream_livelocks_on_releases_not_event_rate() {
        let sent = |seq: u64| Event::DataSent {
            seq: seq as u32,
            bytes: 1_400,
            retransmission: false,
        };
        let release = |seq: u64| Event::ReleaseAttempt {
            seq: seq as u32,
            complete: true,
            released: true,
        };
        // Healthy: 2 000 sends/s with a release every ms.
        let mut m = HealthMonitor::new(HealthConfig::default());
        for t in 0..6_000u64 {
            m.on_event_tagged(t * 500, &sent(t), None);
            if t % 2 == 0 {
                m.on_event_tagged(t * 500 + 1, &release(t / 2), None);
            }
        }
        let quiet: Vec<_> = m.history().collect();
        assert!(
            quiet.is_empty(),
            "healthy sender-only stream must stay silent: {quiet:?}"
        );
        // Stuck: same event rate, not one buffer ever released.
        let mut m = HealthMonitor::new(HealthConfig::default());
        for t in 0..6_000u64 {
            m.on_event_tagged(t * 500, &sent(t), None);
        }
        assert!(
            m.history()
                .any(|a| a.rule == AlertRule::Livelock && a.raised),
            "a release-starved sender is a livelock"
        );
    }
}
