//! Sans-io protocol observability: a [`ProtocolObserver`] hook invoked by
//! both engines at every protocol state transition, an [`Event`] taxonomy
//! covering the paper's dynamics (rate control, window regions, NAK
//! emission/suppression, PROBE/UPDATE, releases), and ready-made sinks
//! (JSONL writer, metrics registry, fan-out).
//!
//! The hook is zero-cost when unused: engines hold
//! `Option<Box<dyn ProtocolObserver>>` defaulting to `None`, and every
//! emission site checks the option before constructing the event, so a
//! run without an observer pays one branch per site.
//!
//! Timestamps are whatever clock drives the engine — simulated time in
//! `hrmc-sim`, a monotonic wall clock in `hrmc-net` — so one sink type
//! serves both.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use hrmc_wire::Seq;
use serde::Value;

use crate::health::{AlertRule, Severity};
use crate::metrics::MetricsRegistry;
use crate::rate::RatePhase;
use crate::rxwindow::Region;
use crate::time::Micros;
use crate::PeerId;

/// Version of the JSONL event schema. Bumped whenever an event's field
/// set or rendering changes incompatibly; every stream opens with a
/// header line carrying this number so consumers can refuse traces they
/// do not understand. v2 added the `health_alert` event (the online
/// health monitor's alert transitions).
pub const SCHEMA_VERSION: u32 = 2;

/// Render the one-line JSONL stream header:
/// `{"schema":1,"role":"sim"}` or
/// `{"schema":1,"role":"endpoint","label":"sender"}`. Emitted as the
/// first line of every trace ([`JsonlObserver`], the sim event log,
/// [`FlightRecorder::dump`]) and skipped by every consumer.
pub fn header_json(role: &str, label: Option<&str>) -> String {
    match label {
        Some(l) => format!("{{\"schema\":{SCHEMA_VERSION},\"role\":\"{role}\",\"label\":\"{l}\"}}"),
        None => format!("{{\"schema\":{SCHEMA_VERSION},\"role\":\"{role}\"}}"),
    }
}

/// What prompted a NAK transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NakTrigger {
    /// A reception revealed (or extended) a gap.
    Gap,
    /// The `nak_timer` re-sent a suppressed NAK whose interval lapsed.
    Timer,
    /// A PROBE for data we lack forced an immediate NAK.
    Probe,
    /// A KEEPALIVE named a tail packet we never saw.
    Keepalive,
}

/// One JSONL field value: how it renders after its key and how it reads
/// back. Implemented for exactly the types events carry.
pub(crate) trait Field: Sized {
    /// Append the JSON rendering: numbers and booleans bare, names quoted.
    fn write(&self, out: &mut String);
    /// Decode a parsed value; `None` when its type or range is wrong.
    fn read(v: &Value) -> Option<Self>;
}

/// Integers and booleans render as their `Display` form.
macro_rules! display_field {
    ($($ty:ty => $read:expr;)*) => {$(
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(v: &Value) -> Option<$ty> {
                $read(v)
            }
        }
    )*};
}

display_field! {
    u64 => Value::as_u64;
    u32 => |v: &Value| u32::try_from(v.as_u64()?).ok();
    bool => Value::as_bool;
}

impl Field for PeerId {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }
    fn read(v: &Value) -> Option<PeerId> {
        u32::read(v).map(PeerId)
    }
}

/// Give an enum its stable lower-case JSONL names from one list: `name`,
/// its inverse `from_name`, and a quoted-name [`Field`]. A variant with
/// fields lists the value `from_name` rebuilds it with.
macro_rules! names {
    ($ty:ident { $($variant:ident $({ $($f:ident: $v:expr),* })? = $name:literal),* $(,)? }) => {
        impl $ty {
            /// Stable lower-case name (its JSONL field value).
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $name,)*
                }
            }

            /// Inverse of [`Self::name`].
            pub fn from_name(name: &str) -> Option<$ty> {
                match name {
                    $($name => Some($ty::$variant $({ $($f: $v),* })?),)*
                    _ => None,
                }
            }
        }

        impl Field for $ty {
            fn write(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.name());
                out.push('"');
            }
            fn read(v: &Value) -> Option<$ty> {
                $ty::from_name(v.as_str()?)
            }
        }
    };
}

names!(NakTrigger { Gap = "gap", Timer = "timer", Probe = "probe", Keepalive = "keepalive" });
names!(RatePhase {
    SlowStart = "slow_start", CongestionAvoidance = "congestion_avoidance",
    // The line does not carry the resume deadline; no analysis needs it.
    Stopped { until: 0 } = "stopped",
});
names!(Region { Safe = "safe", Warning = "warning", Critical = "critical" });
names!(AlertRule {
    NakStorm = "nak_storm", WindowStall = "window_stall", Livelock = "livelock",
    RttDivergence = "rtt_divergence", BacklogGrowth = "backlog_growth",
    EjectionImminent = "ejection_imminent", FalseEjection = "false_ejection",
});
names!(Severity { Warning = "warning", Critical = "critical" });

/// One protocol state transition. Sender-side events come from
/// [`SenderEngine`](crate::SenderEngine), receiver-side events from
/// [`ReceiverEngine`](crate::ReceiverEngine); a driver that observes both
/// engines sees the full exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    // ---- sender ----
    /// The rate controller changed phase (slow start ↔ congestion
    /// avoidance, halt, restart).
    RatePhaseChanged {
        /// Previous phase.
        from: RatePhase,
        /// New phase.
        to: RatePhase,
        /// Transmission rate after the change (bytes/s).
        rate_bps: u64,
    },
    /// A NAK or warning rate request halved the rate.
    RateHalved {
        /// Transmission rate after the halving (bytes/s).
        rate_bps: u64,
    },
    /// An urgent rate request stopped forward transmission.
    UrgentStopped {
        /// Absolute time transmission may resume.
        until: Micros,
    },
    /// The RTT estimator absorbed a sample (Karn-admissible only).
    RttSample {
        /// The raw sample (µs).
        sample_us: u64,
        /// The smoothed estimate after absorbing it (µs).
        srtt_us: u64,
        /// `true` when measured against a PROBE/UPDATE nonce round trip.
        probe: bool,
    },
    /// A PROBE was sent to resolve unknown receiver state before release.
    ProbeSent {
        /// The sequence number whose state is being probed.
        seq: Seq,
        /// `true` when multicast to the group rather than unicast.
        multicast: bool,
    },
    /// A keepalive fired after an idle period.
    KeepaliveSent {
        /// The controller's backoff delay after this firing (µs).
        backoff_us: u64,
    },
    /// The front segment reached MINBUF residency and a release decision
    /// was taken.
    ReleaseAttempt {
        /// The segment considered.
        seq: Seq,
        /// `true` when the sender had complete receiver information.
        complete: bool,
        /// `true` when the buffer was actually released (always, in RMC
        /// mode; only with complete information, in Hybrid mode).
        released: bool,
    },
    /// A DATA packet was put on the wire.
    DataSent {
        /// Its sequence number.
        seq: Seq,
        /// Payload bytes.
        bytes: u32,
        /// `true` for retransmissions, `false` for first transmissions.
        retransmission: bool,
    },
    /// A receiver joined the group.
    PeerJoined {
        /// Driver-assigned peer id.
        peer: PeerId,
    },
    /// A member was forcibly ejected after consecutive unanswered PROBEs
    /// or silence past the configured deadline; its confirmations no
    /// longer gate buffer release.
    MemberEjected {
        /// The ejected peer.
        peer: PeerId,
    },

    // ---- either side ----
    /// An incoming datagram failed the wire checksum and was discarded.
    ChecksumFailed,

    // ---- receiver ----
    /// The receive window crossed a flow-control region boundary.
    RegionChanged {
        /// Previous region.
        from: Region,
        /// New region.
        to: Region,
    },
    /// A NAK packet was sent for a missing range.
    NakSent {
        /// First missing (unwrapped) sequence number.
        first: u64,
        /// Length of the missing range.
        count: u32,
        /// What prompted it.
        trigger: NakTrigger,
    },
    /// Known gaps were *not* re-NAKed (local NAK suppression held them).
    NakSuppressed {
        /// Number of sequence numbers withheld.
        pending: u32,
    },
    /// An UPDATE was sent to the sender.
    UpdateSent {
        /// Echoed PROBE nonce (nonzero means this UPDATE answers a PROBE
        /// and yields the sender an RTT sample).
        nonce: u32,
    },
    /// Previously missing data arrived (sender retransmission, peer
    /// repair, or FEC reconstruction): NAK-to-repair recovery.
    Recovered {
        /// First recovered (unwrapped) sequence number.
        first: u64,
        /// Length of the recovered range.
        count: u32,
        /// Time from first noting the gap to recovery (µs).
        elapsed_us: u64,
    },
    /// In-order data became deliverable to the application.
    Delivered {
        /// First delivered (unwrapped) sequence number.
        first: u64,
        /// Number of segments that became deliverable.
        count: u32,
    },
    /// The JOIN handshake completed.
    Joined {
        /// Handshake round-trip time, the receiver's RTT seed (µs).
        rtt_us: u64,
    },
    /// Terminal failure: sender presumed dead or JOIN budget exhausted.
    SessionFailed,

    // ---- monitor ----
    /// The online health monitor raised or cleared an invariant alert
    /// (see [`crate::health`]). Evidence is fixed-point: `value_m` and
    /// `limit_m` are the observed value and the raise threshold in
    /// milli-units of the rule's natural unit.
    HealthAlert {
        /// Which invariant.
        rule: AlertRule,
        /// Configured severity of the rule.
        severity: Severity,
        /// `true` = raised, `false` = cleared.
        raised: bool,
        /// Observed value, milli-units.
        value_m: u64,
        /// Raise threshold, milli-units.
        limit_m: u64,
    },
}

/// A schema key: the field's own name unless the table renames it.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// The JSONL event schema. Each line of the table is one [`Event`]
/// variant: its `"event"` name, then its fields in line order, each
/// under its own name unless `as` renames it. [`Event::name`],
/// [`Event::from_json`] and the field writer behind [`event_json_with`]
/// are all generated from the table, so the compiler rejects a variant
/// or a field it leaves out, and encoder and decoder cannot disagree on
/// a key.
macro_rules! schema {
    ($($variant:ident = $name:literal { $($field:ident $(as $key:literal)?),* },)*) => {
        impl Event {
            /// Stable lower-case event name (JSONL `event` field).
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $name,)*
                }
            }

            /// Decode one parsed JSONL event line: the inverse of
            /// [`event_json_with`]. Envelope keys (`t_us`, `host`, `src`)
            /// are left to the caller. `None` for an unknown event name
            /// or a missing or mistyped field.
            pub fn from_json(line: &Value) -> Option<Event> {
                Some(match line.get("event")?.as_str()? {
                    $($name => Event::$variant {
                        $($field: Field::read(line.get(key!($field $($key)?))?)?,)*
                    },)*
                    _ => return None,
                })
            }
        }

        /// Append `ev`'s fields, each as `,"key":value`.
        fn write_fields(ev: &Event, out: &mut String) {
            match *ev {
                $(Event::$variant { $($field),* } => {
                    $(
                        out.push_str(concat!(",\"", key!($field $($key)?), "\":"));
                        $field.write(out);
                    )*
                })*
            }
        }
    };
}

schema! {
    RatePhaseChanged = "rate_phase_changed" { from, to, rate_bps },
    RateHalved = "rate_halved" { rate_bps },
    UrgentStopped = "urgent_stopped" { until as "until_us" },
    RttSample = "rtt_sample" { sample_us, srtt_us, probe },
    ProbeSent = "probe_sent" { seq, multicast },
    KeepaliveSent = "keepalive_sent" { backoff_us },
    ReleaseAttempt = "release_attempt" { seq, complete, released },
    DataSent = "data_sent" { seq, bytes, retransmission },
    PeerJoined = "peer_joined" { peer as "member" },
    MemberEjected = "member_ejected" { peer as "member" },
    ChecksumFailed = "checksum_failed" {},
    RegionChanged = "region_changed" { from, to },
    NakSent = "nak_sent" { first, count, trigger },
    NakSuppressed = "nak_suppressed" { pending },
    UpdateSent = "update_sent" { nonce },
    Recovered = "recovered" { first, count, elapsed_us },
    Delivered = "delivered" { first, count },
    Joined = "joined" { rtt_us },
    SessionFailed = "session_failed" {},
    HealthAlert = "health_alert" { rule, severity, raised, value_m, limit_m },
}

impl Event {
    /// The group member this event refers to, if any — the stable join
    /// key for membership-lifecycle analysis (`"member"` in JSONL).
    pub fn member(&self) -> Option<PeerId> {
        match *self {
            Event::PeerJoined { peer } | Event::MemberEjected { peer } => Some(peer),
            _ => None,
        }
    }
}

/// Hook for protocol state transitions. Implementations must be cheap:
/// the engines call this synchronously from their hot paths.
pub trait ProtocolObserver: Send {
    /// Called at each transition with the engine's current clock.
    fn on_event(&mut self, now: Micros, ev: &Event);
}

/// Invoke an engine's observer with a lazily built event: the event
/// expression is evaluated only when an observer is installed, so each
/// emission site costs one branch otherwise. The event expression may
/// read other fields of `$self` (the borrow of `observer` is disjoint)
/// but must not call full-`self` methods.
macro_rules! emit {
    ($self:ident, $now:expr, $ev:expr) => {
        if let Some(obs) = $self.observer.as_deref_mut() {
            let ev = $ev;
            obs.on_event($now, &ev);
        }
    };
}
pub(crate) use emit;

/// Render one event as a single JSON line (no trailing newline). All
/// field values are numbers, booleans, or fixed identifier strings, so
/// no escaping is needed. `extra` is injected verbatim after the
/// timestamp — either empty or well-formed fields like `"host":3,`.
pub fn event_json_with(now: Micros, ev: &Event, extra: &str) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"t_us\":{now},{extra}\"event\":\"{}\"", ev.name());
    write_fields(ev, &mut s);
    s.push('}');
    s
}

/// [`event_json_with`] without injected fields.
pub fn event_json(now: Micros, ev: &Event) -> String {
    event_json_with(now, ev, "")
}

/// Observer that writes one JSON line per event to any `Write` sink,
/// preceded by one schema header line (see [`header_json`]). Write
/// errors are silently dropped (observability must never take the
/// protocol down).
pub struct JsonlObserver<W: std::io::Write + Send> {
    writer: W,
    extra: String,
    label: Option<String>,
    header_written: bool,
}

impl<W: std::io::Write + Send> JsonlObserver<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> JsonlObserver<W> {
        JsonlObserver {
            writer,
            extra: String::new(),
            label: None,
            header_written: false,
        }
    }

    /// Tag every line with `"src":"<label>"` — e.g. `sender`, `recv0` —
    /// and carry the label in the stream header.
    pub fn with_label(mut self, label: &str) -> JsonlObserver<W> {
        self.extra = format!("\"src\":\"{label}\",");
        self.label = Some(label.to_string());
        self
    }

    /// Flush and recover the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: std::io::Write + Send> ProtocolObserver for JsonlObserver<W> {
    fn on_event(&mut self, now: Micros, ev: &Event) {
        if !self.header_written {
            self.header_written = true;
            let mut header = header_json("endpoint", self.label.as_deref());
            header.push('\n');
            let _ = self.writer.write_all(header.as_bytes());
        }
        let mut line = event_json_with(now, ev, &self.extra);
        line.push('\n');
        let _ = self.writer.write_all(line.as_bytes());
    }
}

/// Observer that aggregates events into a shared [`MetricsRegistry`]:
/// counters for discrete transitions, gauges for the latest rates, and
/// histograms for RTT and recovery latency.
#[derive(Clone, Default)]
pub struct MetricsObserver {
    registry: Arc<Mutex<MetricsRegistry>>,
}

impl MetricsObserver {
    /// A fresh observer around an empty registry.
    pub fn new() -> MetricsObserver {
        MetricsObserver::default()
    }

    /// Handle to the shared registry (lock to read or snapshot).
    pub fn registry(&self) -> Arc<Mutex<MetricsRegistry>> {
        Arc::clone(&self.registry)
    }

    /// Snapshot the registry.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.registry
            .lock()
            .expect("metrics registry poisoned")
            .snapshot()
    }
}

impl ProtocolObserver for MetricsObserver {
    fn on_event(&mut self, _now: Micros, ev: &Event) {
        let mut reg = self.registry.lock().expect("metrics registry poisoned");
        match *ev {
            Event::RatePhaseChanged { rate_bps, .. } => {
                reg.inc("rate_phase_changes");
                reg.set_gauge("rate_bps", rate_bps);
            }
            Event::RateHalved { rate_bps } => {
                reg.inc("rate_halvings");
                reg.set_gauge("rate_bps", rate_bps);
            }
            Event::UrgentStopped { .. } => reg.inc("urgent_stops"),
            Event::RttSample {
                sample_us,
                srtt_us,
                probe,
            } => {
                reg.observe("rtt_us", sample_us);
                if probe {
                    reg.observe("probe_rtt_us", sample_us);
                }
                reg.set_gauge("srtt_us", srtt_us);
            }
            Event::ProbeSent { .. } => reg.inc("probes_sent"),
            Event::KeepaliveSent { backoff_us } => {
                reg.inc("keepalives_sent");
                reg.set_gauge("keepalive_backoff_us", backoff_us);
            }
            Event::ReleaseAttempt {
                complete, released, ..
            } => {
                reg.inc("release_attempts");
                if complete {
                    reg.inc("release_attempts_complete_info");
                }
                if released {
                    reg.inc("segments_released");
                }
            }
            Event::DataSent {
                bytes,
                retransmission,
                ..
            } => {
                if retransmission {
                    reg.inc("retransmissions");
                } else {
                    reg.inc("data_packets_sent");
                }
                reg.add("data_bytes_sent", u64::from(bytes));
            }
            Event::PeerJoined { .. } => reg.inc("peers_joined"),
            Event::MemberEjected { .. } => reg.inc("members_ejected"),
            Event::ChecksumFailed => reg.inc("checksum_failures"),
            Event::RegionChanged { to, .. } => {
                reg.inc("region_changes");
                match to {
                    Region::Safe => reg.inc("region_entered_safe"),
                    Region::Warning => reg.inc("region_entered_warning"),
                    Region::Critical => reg.inc("region_entered_critical"),
                }
            }
            Event::NakSent { .. } => reg.inc("naks_sent"),
            Event::NakSuppressed { pending } => {
                reg.inc("nak_suppressions");
                reg.add("naks_suppressed", u64::from(pending));
            }
            Event::UpdateSent { .. } => reg.inc("updates_sent"),
            Event::Recovered {
                count, elapsed_us, ..
            } => {
                reg.add("segments_recovered", u64::from(count));
                reg.observe("recovery_latency_us", elapsed_us);
            }
            Event::Delivered { count, .. } => reg.add("segments_delivered", u64::from(count)),
            Event::Joined { rtt_us } => {
                reg.inc("joins_completed");
                reg.observe("join_rtt_us", rtt_us);
            }
            Event::SessionFailed => reg.inc("session_failures"),
            Event::HealthAlert { raised, .. } => {
                if raised {
                    reg.inc("alerts_raised");
                } else {
                    reg.inc("alerts_cleared");
                }
            }
        }
    }
}

/// One event captured by a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct RecordedEvent {
    /// Engine clock at emission (µs).
    t_us: Micros,
    event: Event,
}

/// Bounded in-memory ring of the most recent protocol events — a flight
/// recorder cheap enough to leave on in production paths: recording one
/// event is a `VecDeque` push of a `Copy` struct (no allocation, no
/// formatting), overwriting the oldest entry once the fixed capacity is
/// reached and counting what it overwrote. [`FlightRecorder::dump`]
/// renders the surviving window as schema-versioned JSONL, byte-
/// compatible with the streaming [`JsonlObserver`] / sim event-log
/// format, so one analyzer serves both.
pub struct FlightRecorder {
    cap: usize,
    buf: VecDeque<RecordedEvent>,
    dropped: u64,
    peak: usize,
    label: Option<String>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(1);
        FlightRecorder {
            cap,
            buf: VecDeque::with_capacity(cap),
            dropped: 0,
            peak: 0,
            label: None,
        }
    }

    /// Tag dumped lines with `"src":"<label>"` (endpoint identity), like
    /// [`JsonlObserver::with_label`].
    pub fn with_label(mut self, label: &str) -> FlightRecorder {
        self.label = Some(label.to_string());
        self
    }

    /// Record one event.
    pub fn record(&mut self, now: Micros, ev: &Event) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(RecordedEvent {
            t_us: now,
            event: *ev,
        });
        self.peak = self.peak.max(self.buf.len());
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded (or everything overwritten).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events overwritten because the ring was full — the observer-side
    /// backpressure signal.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// High-water mark of the buffer length.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Render the surviving window as JSONL: one schema header line
    /// (role `flight_recorder`, carrying the label if set and the drop
    /// count), then one line per event in record order, formatted exactly
    /// like the streaming paths so `hrmc analyze` reads a dump and a
    /// live trace identically.
    pub fn dump(&self) -> String {
        let mut out = header_json("flight_recorder", self.label.as_deref());
        out.reserve(self.buf.len() * 96);
        out.pop(); // reopen the header object for the drop count
        let _ = writeln!(out, ",\"dropped_events\":{}}}", self.dropped);
        let label_extra = self
            .label
            .as_ref()
            .map(|l| format!("\"src\":\"{l}\","))
            .unwrap_or_default();
        for rec in &self.buf {
            out.push_str(&event_json_with(rec.t_us, &rec.event, &label_extra));
            out.push('\n');
        }
        out
    }

    /// Publish the recorder's backpressure gauges into a metrics
    /// registry: `flight_recorder_dropped_events`,
    /// `flight_recorder_peak_events`, `flight_recorder_capacity`.
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        reg.set_gauge("flight_recorder_dropped_events", self.dropped);
        reg.set_gauge("flight_recorder_peak_events", self.peak as u64);
        reg.set_gauge("flight_recorder_capacity", self.cap as u64);
    }
}

impl ProtocolObserver for FlightRecorder {
    fn on_event(&mut self, now: Micros, ev: &Event) {
        self.record(now, ev);
    }
}

/// Clone-able shared handle around a [`FlightRecorder`]: install clones
/// into several engines (or hand one to a driver thread) and keep one to
/// dump after the run — the same pattern as [`MetricsObserver`].
#[derive(Clone)]
pub struct SharedRecorder {
    inner: Arc<Mutex<FlightRecorder>>,
}

impl SharedRecorder {
    /// A shared recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> SharedRecorder {
        SharedRecorder {
            inner: Arc::new(Mutex::new(FlightRecorder::new(capacity))),
        }
    }

    /// Tag dumped lines with `"src":"<label>"`.
    pub fn with_label(self, label: &str) -> SharedRecorder {
        {
            let mut rec = self.inner.lock().expect("flight recorder poisoned");
            let owned = std::mem::replace(&mut *rec, FlightRecorder::new(1));
            *rec = owned.with_label(label);
        }
        self
    }

    /// Run `f` against the underlying recorder (dump, gauges, …).
    pub fn with_recorder<T>(&self, f: impl FnOnce(&FlightRecorder) -> T) -> T {
        f(&self.inner.lock().expect("flight recorder poisoned"))
    }

    /// Render the surviving window as JSONL (see
    /// [`FlightRecorder::dump`]).
    pub fn dump(&self) -> String {
        self.with_recorder(|r| r.dump())
    }
}

impl ProtocolObserver for SharedRecorder {
    fn on_event(&mut self, now: Micros, ev: &Event) {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .record(now, ev);
    }
}

/// Fan one event stream out to several observers, in order.
#[derive(Default)]
pub struct MultiObserver {
    observers: Vec<Box<dyn ProtocolObserver>>,
}

impl MultiObserver {
    /// An empty fan-out.
    pub fn new() -> MultiObserver {
        MultiObserver::default()
    }

    /// Append an observer (builder style).
    pub fn with(mut self, obs: Box<dyn ProtocolObserver>) -> MultiObserver {
        self.observers.push(obs);
        self
    }

    /// Append an observer.
    pub fn push(&mut self, obs: Box<dyn ProtocolObserver>) {
        self.observers.push(obs);
    }
}

impl ProtocolObserver for MultiObserver {
    fn on_event(&mut self, now: Micros, ev: &Event) {
        for obs in &mut self.observers {
            obs.on_event(now, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_is_one_flat_object() {
        let ev = Event::NakSent {
            first: 17,
            count: 3,
            trigger: NakTrigger::Timer,
        };
        let line = event_json(12345, &ev);
        assert_eq!(
            line,
            "{\"t_us\":12345,\"event\":\"nak_sent\",\"first\":17,\"count\":3,\"trigger\":\"timer\"}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn event_json_with_injects_extra_fields() {
        let ev = Event::Delivered { first: 0, count: 2 };
        let line = event_json_with(7, &ev, "\"host\":3,");
        assert!(line.starts_with("{\"t_us\":7,\"host\":3,\"event\":\"delivered\""));
    }

    #[test]
    fn jsonl_observer_writes_lines() {
        let mut obs = JsonlObserver::new(Vec::new()).with_label("sender");
        obs.on_event(1, &Event::RateHalved { rate_bps: 500 });
        obs.on_event(
            2,
            &Event::ProbeSent {
                seq: 9,
                multicast: false,
            },
        );
        let out = String::from_utf8(obs.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"schema\":2,\"role\":\"endpoint\",\"label\":\"sender\"}"
        );
        assert!(lines[1].contains("\"src\":\"sender\""));
        assert!(lines[1].contains("\"rate_bps\":500"));
        assert!(lines[2].contains("\"event\":\"probe_sent\""));
    }

    #[test]
    fn header_json_shapes() {
        assert_eq!(header_json("sim", None), "{\"schema\":2,\"role\":\"sim\"}");
        assert_eq!(
            header_json("endpoint", Some("recv0")),
            "{\"schema\":2,\"role\":\"endpoint\",\"label\":\"recv0\"}"
        );
    }

    #[test]
    fn member_join_key() {
        assert_eq!(
            Event::MemberEjected { peer: PeerId(2) }.member(),
            Some(PeerId(2))
        );
        assert_eq!(Event::ChecksumFailed.member(), None);
    }

    #[test]
    fn flight_recorder_overwrites_oldest_and_counts_drops() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.record(i, &Event::Delivered { first: i, count: 1 });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.capacity(), 3);
        assert_eq!(rec.dropped_events(), 2);
        assert_eq!(rec.peak_len(), 3);
        let firsts: Vec<u64> = rec.buf.iter().map(|r| r.t_us).collect();
        assert_eq!(firsts, vec![2, 3, 4], "oldest entries are overwritten");
    }

    #[test]
    fn flight_recorder_dump_matches_streaming_format() {
        let ev = Event::Delivered { first: 0, count: 1 };
        let mut rec = FlightRecorder::new(16);
        rec.record(42, &ev);
        let dump = rec.dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(
            lines[0],
            "{\"schema\":2,\"role\":\"flight_recorder\",\"dropped_events\":0}"
        );
        // The event line is byte-identical to what the streaming paths
        // emit for the same event.
        assert_eq!(
            lines[1],
            "{\"t_us\":42,\"event\":\"delivered\",\"first\":0,\"count\":1}"
        );
        assert_eq!(lines[1], event_json(42, &ev));
    }

    #[test]
    fn flight_recorder_labelled_dump_matches_jsonl_observer() {
        let mut rec = FlightRecorder::new(4).with_label("sender");
        rec.record(7, &Event::RateHalved { rate_bps: 100 });
        let dump = rec.dump();
        let mut jsonl = JsonlObserver::new(Vec::new()).with_label("sender");
        jsonl.on_event(7, &Event::RateHalved { rate_bps: 100 });
        let streamed = String::from_utf8(jsonl.into_inner()).unwrap();
        // Same event line; headers differ only in role/drop fields.
        assert_eq!(dump.lines().nth(1), streamed.lines().nth(1));
        assert!(dump
            .lines()
            .next()
            .unwrap()
            .contains("\"label\":\"sender\""));
    }

    #[test]
    fn flight_recorder_publishes_backpressure_gauges() {
        let mut rec = FlightRecorder::new(2);
        for i in 0..5u64 {
            rec.record(i, &Event::ChecksumFailed);
        }
        let mut reg = MetricsRegistry::new();
        rec.publish_metrics(&mut reg);
        assert_eq!(reg.gauge("flight_recorder_dropped_events"), Some(3));
        assert_eq!(reg.gauge("flight_recorder_peak_events"), Some(2));
        assert_eq!(reg.gauge("flight_recorder_capacity"), Some(2));
    }

    #[test]
    fn shared_recorder_is_observable_from_clones() {
        let rec = SharedRecorder::new(8).with_label("recv");
        let mut obs: Box<dyn ProtocolObserver> = Box::new(rec.clone());
        obs.on_event(1, &Event::UpdateSent { nonce: 0 });
        let mut other = rec.clone();
        other.on_event(2, &Event::Delivered { first: 0, count: 1 });
        assert_eq!(rec.with_recorder(|r| r.len()), 2);
        assert!(rec.dump().contains("\"event\":\"update_sent\""));
    }

    #[test]
    fn metrics_observer_aggregates() {
        let mut obs = MetricsObserver::new();
        obs.on_event(0, &Event::RateHalved { rate_bps: 1000 });
        obs.on_event(1, &Event::RateHalved { rate_bps: 500 });
        obs.on_event(
            2,
            &Event::RttSample {
                sample_us: 900,
                srtt_us: 950,
                probe: true,
            },
        );
        obs.on_event(
            3,
            &Event::Recovered {
                first: 4,
                count: 2,
                elapsed_us: 7_000,
            },
        );
        obs.on_event(
            4,
            &Event::RegionChanged {
                from: Region::Safe,
                to: Region::Warning,
            },
        );
        let reg = obs.snapshot();
        assert_eq!(reg.counter("rate_halvings"), 2);
        assert_eq!(reg.gauge("rate_bps"), Some(500));
        assert_eq!(reg.histogram("rtt_us").unwrap().count(), 1);
        assert_eq!(reg.histogram("probe_rtt_us").unwrap().count(), 1);
        assert_eq!(reg.histogram("recovery_latency_us").unwrap().p50(), 7_000);
        assert_eq!(reg.counter("segments_recovered"), 2);
        assert_eq!(reg.counter("region_entered_warning"), 1);
    }

    #[test]
    fn multi_observer_fans_out() {
        let metrics = MetricsObserver::new();
        let reg = metrics.registry();
        let mut multi = MultiObserver::new()
            .with(Box::new(JsonlObserver::new(std::io::sink())))
            .with(Box::new(metrics));
        multi.on_event(0, &Event::UpdateSent { nonce: 0 });
        assert_eq!(reg.lock().unwrap().counter("updates_sent"), 1);
    }

    /// The schema both ways: every variant, at the edge values
    /// `all_events` carries, decodes back from its line under either
    /// envelope tag.
    #[test]
    fn every_event_round_trips_through_its_line() {
        for ev in hrmc_core_event_list::all_events() {
            for tag in ["\"host\":3,", "\"src\":\"recv0\","] {
                let line = event_json_with(u64::MAX, &ev, tag);
                let parsed = serde_json::from_str(&line).unwrap();
                assert_eq!(Event::from_json(&parsed), Some(ev), "{line}");
            }
        }
    }

    #[test]
    fn mistyped_fields_and_unknown_events_decode_to_none() {
        let decode = |line: &str| Event::from_json(&serde_json::from_str(line).unwrap());
        assert!(decode("{\"event\":\"rate_halved\",\"rate_bps\":9}").is_some());
        for bad in [
            "{\"event\":\"rate_halved\",\"rate_bps\":true}",
            "{\"event\":\"warp_drive_engaged\"}",
            "{\"event\":\"update_sent\",\"nonce\":4294967296}",
            "{\"event\":\"nak_sent\",\"first\":0,\"count\":1,\"trigger\":\"hunch\"}",
            "{\"event\":\"delivered\",\"first\":0}",
        ] {
            assert_eq!(decode(bad), None, "{bad}");
        }
    }

    #[test]
    fn every_event_renders_valid_shape() {
        use hrmc_core_event_list::*;
        // Exhaustive render smoke test: each variant yields `{...}` with
        // its name embedded.
        for ev in all_events() {
            let line = event_json(1, &ev);
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(ev.name()), "{line}");
        }
    }

    mod hrmc_core_event_list {
        use super::*;

        pub fn all_events() -> Vec<Event> {
            vec![
                Event::RatePhaseChanged {
                    from: RatePhase::SlowStart,
                    to: RatePhase::CongestionAvoidance,
                    rate_bps: 1,
                },
                Event::RateHalved { rate_bps: 1 },
                Event::UrgentStopped { until: 1 },
                Event::RttSample {
                    sample_us: 1,
                    srtt_us: 1,
                    probe: false,
                },
                Event::ProbeSent {
                    seq: 1,
                    multicast: true,
                },
                Event::KeepaliveSent { backoff_us: 1 },
                Event::ReleaseAttempt {
                    seq: 1,
                    complete: true,
                    released: true,
                },
                Event::DataSent {
                    seq: u32::MAX,
                    bytes: 1,
                    retransmission: false,
                },
                Event::PeerJoined { peer: PeerId(1) },
                Event::MemberEjected { peer: PeerId(1) },
                Event::ChecksumFailed,
                Event::RegionChanged {
                    from: Region::Safe,
                    to: Region::Critical,
                },
                Event::NakSent {
                    first: u64::MAX,
                    count: u32::MAX,
                    trigger: NakTrigger::Gap,
                },
                Event::NakSuppressed { pending: 1 },
                Event::UpdateSent { nonce: 1 },
                Event::Recovered {
                    first: 1,
                    count: 1,
                    elapsed_us: 1,
                },
                Event::Delivered { first: 1, count: 1 },
                Event::Joined { rtt_us: 1 },
                Event::SessionFailed,
                Event::HealthAlert {
                    rule: AlertRule::NakStorm,
                    severity: Severity::Warning,
                    raised: true,
                    value_m: u64::MAX,
                    limit_m: 1,
                },
            ]
        }
    }
}
