//! JSONL trace ingestion: turn an event log back into typed
//! [`Event`]s.
//!
//! Accepts every stream this workspace emits — `Simulation::set_event_log`
//! (`"host"`-tagged lines), [`hrmc_core::JsonlObserver`] (`"src"`-tagged
//! lines), and [`hrmc_core::FlightRecorder::dump`] windows — plus
//! pre-schema traces with no header line. Unknown event names and
//! malformed lines are counted and skipped, never fatal: a trace
//! analyzer that dies on the one line it doesn't understand is useless
//! in a post-mortem.

use hrmc_core::{Event, TelemetrySample, SCHEMA_VERSION};
use serde_json::Value;

/// Who emitted a trace line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Source {
    /// A simulation host (`"host":N`); host 0 is the sender, host `i`
    /// is receiver `i - 1`.
    Host(u32),
    /// A labelled endpoint (`"src":"sender"`, `"src":"recv0"`, …).
    Label(String),
    /// A line with neither tag (single-engine streams).
    Anonymous,
}

impl Source {
    /// Stable display key used to group per-member statistics.
    pub fn key(&self) -> String {
        match self {
            Source::Host(h) => format!("host:{h}"),
            Source::Label(l) => l.clone(),
            Source::Anonymous => "-".to_string(),
        }
    }

    /// The member (receiver index) this source corresponds to under the
    /// simulation convention (receiver `i` is host `i + 1`); labelled
    /// and anonymous sources have no derivable member id.
    pub fn member(&self) -> Option<u32> {
        match self {
            Source::Host(h) if *h > 0 => Some(h - 1),
            _ => None,
        }
    }
}

/// One parsed trace line: a protocol event with its timestamp and
/// emitter.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Engine clock at emission (µs).
    pub t_us: u64,
    /// Who emitted it.
    pub source: Source,
    /// The event.
    pub event: Event,
}

/// What ingestion saw besides the events themselves.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct ParseStats {
    /// Total lines read (including headers and blanks).
    pub lines: u64,
    /// Schema version from the header line, if one was present.
    pub schema: Option<u64>,
    /// Header lines seen (a concatenation of several dumps has several).
    pub headers: u64,
    /// Lines skipped: blank, malformed, or an unknown event name.
    pub skipped: u64,
    /// Telemetry sample lines seen (the `"telemetry":1` discriminator).
    /// [`parse_str`] counts and passes over them — they are a parallel
    /// channel, not protocol events, and not parse failures;
    /// [`parse_telemetry_str`] decodes them.
    pub telemetry: u64,
    /// Health-alert lines seen (`"event":"health_alert"`, schema v2) —
    /// the online monitor's transitions, counted separately so an
    /// analysis can tell whether the monitor was armed at all.
    pub alerts: u64,
}

/// Errors that abort ingestion entirely (per-line problems only bump
/// [`ParseStats::skipped`]).
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io(std::io::Error),
    /// A header declared a schema newer than this analyzer understands.
    UnsupportedSchema(u64),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceError::UnsupportedSchema(v) => write!(
                f,
                "trace schema {v} is newer than supported schema {SCHEMA_VERSION}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// The one line walker every reader shares. Each line is counted; a
/// blank or malformed line is counted skipped; a header line records its
/// schema, and one newer than [`SCHEMA_VERSION`] aborts the walk. Every
/// other JSON line goes to `each`, which decides what it is.
fn walk(
    input: &str,
    mut each: impl FnMut(&Value, &mut ParseStats),
) -> Result<ParseStats, TraceError> {
    let mut stats = ParseStats::default();
    for line in input.lines() {
        stats.lines += 1;
        let Ok(obj) = serde_json::from_str(line.trim()) else {
            stats.skipped += 1;
            continue;
        };
        match obj.get("schema").and_then(Value::as_u64) {
            Some(schema) if schema > u64::from(SCHEMA_VERSION) => {
                return Err(TraceError::UnsupportedSchema(schema));
            }
            Some(schema) => {
                stats.headers += 1;
                stats.schema = Some(schema);
            }
            None => each(&obj, &mut stats),
        }
    }
    Ok(stats)
}

/// `true` for a telemetry sample line (the `"telemetry":1`
/// discriminator).
fn is_telemetry(obj: &Value) -> bool {
    obj.get("telemetry").and_then(Value::as_u64).is_some()
}

/// Parse a whole JSONL trace. Header lines update [`ParseStats`];
/// event lines become [`TraceEvent`]s; anything else is counted and
/// skipped. The only fatal conditions are I/O failure (in the file
/// front-ends) and a header declaring a schema newer than
/// [`SCHEMA_VERSION`].
pub fn parse_str(input: &str) -> Result<(Vec<TraceEvent>, ParseStats), TraceError> {
    let mut events = Vec::new();
    let stats = walk(input, |obj, stats| {
        if is_telemetry(obj) {
            stats.telemetry += 1;
            return;
        }
        let t_us = obj.get("t_us").and_then(Value::as_u64);
        let (Some(t_us), Some(event)) = (t_us, Event::from_json(obj)) else {
            stats.skipped += 1;
            return;
        };
        if matches!(event, Event::HealthAlert { .. }) {
            stats.alerts += 1;
        }
        let host = obj.get("host").and_then(Value::as_u64);
        let source = if let Some(h) = host.and_then(|h| u32::try_from(h).ok()) {
            Source::Host(h)
        } else if let Some(l) = obj.get("src").and_then(Value::as_str) {
            Source::Label(l.to_string())
        } else {
            Source::Anonymous
        };
        events.push(TraceEvent {
            t_us,
            source,
            event,
        });
    })?;
    // Concatenated dumps and multi-endpoint files interleave; analysis
    // assumes global time order.
    events.sort_by_key(|e| e.t_us);
    Ok((events, stats))
}

/// [`parse_str`] over a file.
pub fn parse_file(path: &std::path::Path) -> Result<(Vec<TraceEvent>, ParseStats), TraceError> {
    let body = std::fs::read_to_string(path)?;
    parse_str(&body)
}

/// Extract the telemetry time series from a JSONL stream — the
/// counterpart of [`parse_str`] for the sampler's `"telemetry":1`
/// lines. Designed for mixed streams: protocol events and headers are
/// passed over silently (they are not failures of *this* channel);
/// blank or malformed lines — including telemetry lines with missing
/// sections — are counted skipped. Samples are returned in sample-`seq`
/// order.
pub fn parse_telemetry_str(input: &str) -> Result<(Vec<TelemetrySample>, ParseStats), TraceError> {
    let mut samples = Vec::new();
    let stats = walk(input, |obj, stats| {
        if !is_telemetry(obj) {
            return;
        }
        match TelemetrySample::from_json(obj) {
            Some(s) => {
                stats.telemetry += 1;
                samples.push(s);
            }
            None => stats.skipped += 1,
        }
    })?;
    samples.sort_by_key(|s| s.seq);
    Ok((samples, stats))
}

/// [`parse_telemetry_str`] over a file.
pub fn parse_telemetry_file(
    path: &std::path::Path,
) -> Result<(Vec<TelemetrySample>, ParseStats), TraceError> {
    let body = std::fs::read_to_string(path)?;
    parse_telemetry_str(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrmc_core::{AlertRule, Severity};

    #[test]
    fn header_is_consumed_not_treated_as_event() {
        let input = "{\"schema\":1,\"role\":\"sim\"}\n\
                     {\"t_us\":5,\"host\":0,\"event\":\"checksum_failed\"}\n";
        let (events, stats) = parse_str(input).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(stats.schema, Some(1));
        assert_eq!(stats.headers, 1);
        assert_eq!(stats.skipped, 0);
        assert_eq!(events[0].source, Source::Host(0));
        assert_eq!(events[0].event, Event::ChecksumFailed);
    }

    #[test]
    fn headerless_pre_schema_traces_still_parse() {
        let input = "{\"t_us\":1,\"src\":\"sender\",\"event\":\"rate_halved\",\"rate_bps\":9}\n";
        let (events, stats) = parse_str(input).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(stats.schema, None);
        assert_eq!(events[0].source, Source::Label("sender".into()));
    }

    #[test]
    fn unknown_events_and_garbage_are_skipped_not_fatal() {
        let input = "{\"t_us\":1,\"event\":\"warp_drive_engaged\",\"factor\":9}\n\
                     not json at all\n\
                     \n\
                     {\"t_us\":2,\"event\":\"delivered\",\"first\":0,\"count\":1}\n";
        let (events, stats) = parse_str(input).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(stats.skipped, 3);
    }

    #[test]
    fn newer_schema_is_refused() {
        let input = "{\"schema\":99,\"role\":\"sim\"}\n";
        match parse_str(input) {
            Err(TraceError::UnsupportedSchema(99)) => {}
            other => panic!("expected UnsupportedSchema, got {other:?}"),
        }
    }

    #[test]
    fn events_are_sorted_by_time() {
        let input = "{\"t_us\":9,\"host\":1,\"event\":\"checksum_failed\"}\n\
                     {\"t_us\":3,\"host\":2,\"event\":\"checksum_failed\"}\n";
        let (events, _) = parse_str(input).unwrap();
        assert_eq!(events[0].t_us, 3);
        assert_eq!(events[1].t_us, 9);
    }

    #[test]
    fn source_member_mapping_follows_sim_convention() {
        assert_eq!(Source::Host(0).member(), None, "host 0 is the sender");
        assert_eq!(Source::Host(3).member(), Some(2));
        assert_eq!(Source::Label("recv0".into()).member(), None);
    }

    /// A sampler-produced JSONL stream must round-trip losslessly:
    /// every field of every sample survives render → parse.
    #[test]
    fn telemetry_samples_round_trip_through_jsonl() {
        use hrmc_core::{MetricsRegistry, Sampler};
        let mut reg = MetricsRegistry::new();
        let mut sampler = Sampler::new(16);
        reg.add("naks_sent", 3);
        reg.set_gauge("window_bytes", 4096);
        reg.observe("loop_us", 120);
        sampler.sample(1_000_000, &reg);
        reg.add("naks_sent", 4);
        reg.observe("loop_us", 90);
        sampler.sample(1_500_000, &reg);

        let jsonl: String = sampler.samples().map(|s| s.to_json_line() + "\n").collect();
        let (parsed, stats) = parse_telemetry_str(&jsonl).unwrap();
        assert_eq!(stats.telemetry, 2);
        assert_eq!(stats.skipped, 0);
        let originals: Vec<_> = sampler.samples().cloned().collect();
        assert_eq!(parsed, originals, "lossless round-trip");
        assert_eq!(parsed[1].counter_delta("naks_sent"), 4);
        assert_eq!(parsed[1].total("naks_sent"), 7);
        assert_eq!(parsed[1].gauge("window_bytes"), Some(4096));
        assert_eq!(parsed[1].hists["loop_us"].count, 2);
    }

    /// Mixed streams: `parse_str` counts telemetry lines without
    /// skipping them, and `parse_telemetry_str` ignores event lines.
    #[test]
    fn mixed_stream_separates_events_from_telemetry() {
        use hrmc_core::{MetricsRegistry, Sampler};
        let mut reg = MetricsRegistry::new();
        reg.add("data_packets_sent", 1);
        let mut sampler = Sampler::new(4);
        sampler.sample(500, &reg);
        let mixed = format!(
            "{{\"schema\":1,\"role\":\"sim\"}}\n\
             {{\"t_us\":5,\"host\":0,\"event\":\"checksum_failed\"}}\n\
             {}\n",
            sampler.latest().unwrap().to_json_line()
        );
        let (events, stats) = parse_str(&mixed).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(stats.telemetry, 1);
        assert_eq!(stats.skipped, 0, "telemetry lines are not failures");
        let (samples, tstats) = parse_telemetry_str(&mixed).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(tstats.telemetry, 1);
        assert_eq!(tstats.headers, 1);
        assert_eq!(tstats.skipped, 0, "event lines are not failures here");
        assert_eq!(samples[0].total("data_packets_sent"), 1);
    }

    /// Alert lines (schema v2) round-trip losslessly through a mixed
    /// stream and are counted by [`ParseStats::alerts`].
    #[test]
    fn alert_lines_round_trip_in_mixed_streams() {
        use hrmc_core::obs::event_json;
        let alert = Event::HealthAlert {
            rule: AlertRule::BacklogGrowth,
            severity: Severity::Warning,
            raised: true,
            value_m: 180_500,
            limit_m: 150_000,
        };
        let cleared = Event::HealthAlert {
            rule: AlertRule::BacklogGrowth,
            severity: Severity::Warning,
            raised: false,
            value_m: 12_000,
            limit_m: 150_000,
        };
        let mixed = format!(
            "{{\"schema\":2,\"role\":\"sim\"}}\n\
             {{\"t_us\":5,\"host\":0,\"event\":\"data_sent\",\"seq\":0,\"bytes\":10,\
             \"retransmission\":false}}\n\
             {}\n\
             {}\n",
            event_json(7, &alert),
            event_json(900_007, &cleared),
        );
        let (events, stats) = parse_str(&mixed).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(stats.alerts, 2);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.schema, Some(2));
        assert_eq!(events[1].event, alert, "lossless round-trip");
        assert_eq!(events[2].event, cleared);
        assert_eq!(events[1].source, Source::Anonymous);
        // Re-render: byte-identical to the original line.
        assert_eq!(event_json(7, &events[1].event), event_json(7, &alert));
    }

    #[test]
    fn malformed_telemetry_lines_are_counted_skipped() {
        let input = "{\"telemetry\":1,\"seq\":0}\n\
                     not json\n";
        let (samples, stats) = parse_telemetry_str(input).unwrap();
        assert!(samples.is_empty());
        assert_eq!(stats.skipped, 2);
        assert_eq!(stats.telemetry, 0);
    }
}
