//! Continuous telemetry: periodic, delta-capable snapshots of a
//! [`MetricsRegistry`] over time.
//!
//! The metrics registry accumulates *cumulative* counters — perfect for
//! an end-of-run report, blind while the system runs. "SRM at 30"'s
//! retrospective argues reliable-multicast deployments lived or died by
//! whether operators could watch suppression/recovery dynamics *as they
//! evolved*; this module adds exactly that: a [`Sampler`] turns the
//! registry into a time series of [`TelemetrySample`]s (per-interval
//! counter deltas, latest gauges, histogram quantiles), keeps a bounded
//! in-memory ring of the newest samples, and optionally streams each
//! sample as one JSON line to a sink — the same JSONL discipline as the
//! event traces, parseable by `hrmc-trace`.
//!
//! Everything is integer-valued so a sample round-trips losslessly
//! through its JSONL rendering; *rates* are derived on demand
//! ([`TelemetrySample::rate_per_sec`]) from the delta and the interval
//! rather than stored as floats.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use serde::Value;

use crate::metrics::MetricsRegistry;

/// Condensed view of one histogram at sampling time: the cumulative
/// sample count, how many samples landed in this interval, and the
/// quantiles of the cumulative distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSample {
    /// Cumulative samples recorded since the registry was created.
    pub count: u64,
    /// Samples recorded during this sampling interval.
    pub delta: u64,
    /// Median estimate of the cumulative distribution.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest sample observed so far.
    pub max: u64,
}

/// One timestamped registry delta: what changed since the previous
/// sample, plus the current gauge values and histogram quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySample {
    /// Monotonic sample index (0 for the sampler's first sample).
    pub seq: u64,
    /// Clock at sampling time (µs, whatever timeline the caller uses).
    pub t_us: u64,
    /// Time since the previous sample (µs); 0 for the first sample.
    pub interval_us: u64,
    /// Per-counter increments over the interval (cumulative value for
    /// the first sample).
    pub counters: BTreeMap<String, u64>,
    /// Cumulative counter values at sampling time.
    pub totals: BTreeMap<String, u64>,
    /// Latest gauge values.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries.
    pub hists: BTreeMap<String, HistSample>,
}

impl TelemetrySample {
    /// A counter's increment over the interval (0 when absent).
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A counter's cumulative value at sampling time (0 when absent).
    pub fn total(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    /// A gauge's latest value, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Derived rate: counter increments per second over the interval.
    /// 0.0 for the first sample (no interval to divide by).
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        if self.interval_us == 0 {
            return 0.0;
        }
        self.counter_delta(name) as f64 * 1e6 / self.interval_us as f64
    }

    /// Render the sample as one JSON line (no trailing newline). The
    /// `"telemetry"` discriminator keeps these lines distinguishable
    /// from protocol events in a mixed JSONL stream; names are
    /// identifiers and values unsigned integers, so the rendering is
    /// lossless and needs no escaping.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"telemetry\":1,\"seq\":{},\"t_us\":{},\"interval_us\":{}",
            self.seq, self.t_us, self.interval_us
        );
        for (section, map) in [
            ("counters", &self.counters),
            ("totals", &self.totals),
            ("gauges", &self.gauges),
        ] {
            let _ = write!(out, ",\"{section}\":{{");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push('}');
        }
        out.push_str(",\"hists\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{k}\":{{\"count\":{},\"delta\":{},\"p50\":{},\"p90\":{},\
                 \"p99\":{},\"max\":{}}}",
                h.count, h.delta, h.p50, h.p90, h.p99, h.max
            );
        }
        out.push_str("}}");
        out
    }

    /// Decode one parsed sample line: the inverse of
    /// [`TelemetrySample::to_json_line`]. `None` when the `"telemetry"`
    /// discriminator or any section is missing or malformed.
    pub fn from_json(line: &Value) -> Option<TelemetrySample> {
        let u64_at = |obj: &Value, key: &str| obj.get(key)?.as_u64();
        let map = |key: &str| -> Option<BTreeMap<String, u64>> {
            let obj = line.get(key)?.as_object()?;
            obj.iter()
                .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect()
        };
        u64_at(line, "telemetry")?;
        let hists = line.get("hists")?.as_object()?.iter().map(|(k, h)| {
            let hist = HistSample {
                count: u64_at(h, "count")?,
                delta: u64_at(h, "delta")?,
                p50: u64_at(h, "p50")?,
                p90: u64_at(h, "p90")?,
                p99: u64_at(h, "p99")?,
                max: u64_at(h, "max")?,
            };
            Some((k.clone(), hist))
        });
        Some(TelemetrySample {
            seq: u64_at(line, "seq")?,
            t_us: u64_at(line, "t_us")?,
            interval_us: u64_at(line, "interval_us")?,
            counters: map("counters")?,
            totals: map("totals")?,
            gauges: map("gauges")?,
            hists: hists.collect::<Option<_>>()?,
        })
    }
}

/// Records a bounded time series of [`TelemetrySample`]s from successive
/// registry snapshots.
///
/// The ring keeps the newest `capacity` samples (oldest overwritten
/// first — the flight-recorder discipline); an optional sink receives
/// every sample as one JSONL line regardless of the ring, so a long run
/// can stream its full history to disk while memory stays bounded.
pub struct Sampler {
    capacity: usize,
    ring: VecDeque<TelemetrySample>,
    /// Previous cumulative counter values (delta base).
    prev_counters: BTreeMap<String, u64>,
    /// Previous cumulative histogram counts (delta base).
    prev_hist_counts: BTreeMap<String, u64>,
    prev_t: Option<u64>,
    next_seq: u64,
    overwritten: u64,
    sink: Option<Box<dyn std::io::Write + Send>>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("capacity", &self.capacity)
            .field("len", &self.ring.len())
            .field("next_seq", &self.next_seq)
            .field("overwritten", &self.overwritten)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl Sampler {
    /// A sampler keeping the newest `capacity` samples (minimum 1).
    pub fn new(capacity: usize) -> Sampler {
        let capacity = capacity.max(1);
        Sampler {
            capacity,
            ring: VecDeque::new(),
            prev_counters: BTreeMap::new(),
            prev_hist_counts: BTreeMap::new(),
            prev_t: None,
            next_seq: 0,
            overwritten: 0,
            sink: None,
        }
    }

    /// Stream every future sample to `w` as JSONL, one line per sample.
    pub fn set_sink(&mut self, w: Box<dyn std::io::Write + Send>) {
        self.sink = Some(w);
    }

    /// Builder form of [`Sampler::set_sink`].
    pub fn with_sink(mut self, w: Box<dyn std::io::Write + Send>) -> Sampler {
        self.set_sink(w);
        self
    }

    /// Take one sample: compute the delta against the previous snapshot,
    /// append to the ring (overwriting the oldest once full), and write
    /// the JSONL line to the sink, if any. Returns the recorded sample.
    pub fn sample(&mut self, now_us: u64, reg: &MetricsRegistry) -> &TelemetrySample {
        let interval_us = match self.prev_t {
            // A clock that stalls or rewinds yields a 0 interval, never
            // an underflowed one.
            Some(prev) => now_us.saturating_sub(prev),
            None => 0,
        };
        let mut counters = BTreeMap::new();
        let mut totals = BTreeMap::new();
        for (name, v) in reg.counters() {
            let prev = self.prev_counters.get(name).copied().unwrap_or(0);
            // Counters are monotonic by contract; saturate in case a
            // registry was swapped out from under the sampler.
            counters.insert(name.to_string(), v.saturating_sub(prev));
            totals.insert(name.to_string(), v);
            self.prev_counters.insert(name.to_string(), v);
        }
        let gauges: BTreeMap<String, u64> = reg
            .gauges()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        let mut hists = BTreeMap::new();
        for (name, h) in reg.histograms() {
            let prev = self.prev_hist_counts.get(name).copied().unwrap_or(0);
            hists.insert(
                name.to_string(),
                HistSample {
                    count: h.count(),
                    delta: h.count().saturating_sub(prev),
                    p50: h.p50(),
                    p90: h.p90(),
                    p99: h.p99(),
                    max: h.max().unwrap_or(0),
                },
            );
            self.prev_hist_counts.insert(name.to_string(), h.count());
        }
        let sample = TelemetrySample {
            seq: self.next_seq,
            t_us: now_us,
            interval_us,
            counters,
            totals,
            gauges,
            hists,
        };
        self.next_seq += 1;
        self.prev_t = Some(now_us);
        if let Some(w) = &mut self.sink {
            let mut line = sample.to_json_line();
            line.push('\n');
            let _ = w.write_all(line.as_bytes());
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.overwritten += 1;
        }
        self.ring.push_back(sample);
        self.ring.back().expect("just pushed")
    }

    /// The newest sample, if any were taken.
    pub fn latest(&self) -> Option<&TelemetrySample> {
        self.ring.back()
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TelemetrySample> + '_ {
        self.ring.iter()
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no sample has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity (newest-N retention bound).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples pushed out of the ring to make room for newer ones.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Total samples ever taken (retained + overwritten).
    pub fn taken(&self) -> u64 {
        self.next_seq
    }

    /// Flush the JSONL sink, if any.
    pub fn flush(&mut self) {
        if let Some(w) = &mut self.sink {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(counts: &[(&'static str, u64)]) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for &(k, v) in counts {
            r.add(k, v);
        }
        r
    }

    #[test]
    fn first_sample_reports_cumulative_values_with_zero_interval() {
        let mut s = Sampler::new(8);
        let mut r = reg_with(&[("pkts", 5)]);
        r.set_gauge("rate", 77);
        r.observe("lat", 100);
        let sample = s.sample(1_000, &r).clone();
        assert_eq!(sample.seq, 0);
        assert_eq!(sample.interval_us, 0);
        assert_eq!(sample.counter_delta("pkts"), 5);
        assert_eq!(sample.total("pkts"), 5);
        assert_eq!(sample.gauge("rate"), Some(77));
        assert_eq!(sample.hists["lat"].count, 1);
        assert_eq!(sample.hists["lat"].delta, 1);
        assert_eq!(sample.rate_per_sec("pkts"), 0.0, "no interval yet");
    }

    #[test]
    fn deltas_and_rates_follow_the_interval() {
        let mut s = Sampler::new(8);
        let mut r = reg_with(&[("pkts", 10)]);
        s.sample(0, &r);
        r.add("pkts", 30);
        let sample = s.sample(2_000_000, &r).clone(); // 2 s later
        assert_eq!(sample.interval_us, 2_000_000);
        assert_eq!(sample.counter_delta("pkts"), 30);
        assert_eq!(sample.total("pkts"), 40);
        assert!((sample.rate_per_sec("pkts") - 15.0).abs() < 1e-9);
        assert_eq!(sample.counter_delta("absent"), 0);
        assert_eq!(sample.rate_per_sec("absent"), 0.0);
    }

    #[test]
    fn deltas_sum_to_the_final_snapshot() {
        let mut s = Sampler::new(64);
        let mut r = MetricsRegistry::new();
        for i in 1..=10u64 {
            r.add("a", i);
            r.add("b", 2 * i);
            s.sample(i * 1_000, &r);
        }
        let sum_a: u64 = s.samples().map(|x| x.counter_delta("a")).sum();
        let sum_b: u64 = s.samples().map(|x| x.counter_delta("b")).sum();
        assert_eq!(sum_a, r.counter("a"));
        assert_eq!(sum_b, r.counter("b"));
        assert_eq!(s.latest().unwrap().total("a"), r.counter("a"));
    }

    #[test]
    fn counters_and_time_are_monotonic_across_samples() {
        let mut s = Sampler::new(32);
        let mut r = MetricsRegistry::new();
        for i in 0..20u64 {
            r.add("n", 1 + i % 3);
            s.sample(i * 500, &r);
        }
        let samples: Vec<_> = s.samples().collect();
        for w in samples.windows(2) {
            assert!(w[1].t_us > w[0].t_us);
            assert!(w[1].seq == w[0].seq + 1);
            assert!(w[1].total("n") >= w[0].total("n"), "totals regressed");
        }
    }

    #[test]
    fn ring_overwrite_preserves_newest_n() {
        let mut s = Sampler::new(3);
        let mut r = MetricsRegistry::new();
        for i in 0..10u64 {
            r.inc("n");
            s.sample(i, &r);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.overwritten(), 7);
        assert_eq!(s.taken(), 10);
        let seqs: Vec<u64> = s.samples().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9], "ring must keep the newest 3");
        assert_eq!(s.latest().unwrap().total("n"), 10);
    }

    /// An unbounded sampler (the simulator's) must not reserve its
    /// capacity up front: `with_capacity(usize::MAX)` panics.
    #[test]
    fn unbounded_sampler_takes_and_returns_samples() {
        let mut s = Sampler::new(usize::MAX);
        let mut r = MetricsRegistry::new();
        for i in 0..3u64 {
            r.inc("n");
            s.sample(i, &r);
        }
        assert_eq!(s.capacity(), usize::MAX);
        assert_eq!((s.len(), s.overwritten()), (3, 0));
        let totals: Vec<u64> = s.samples().map(|x| x.total("n")).collect();
        assert_eq!(totals, vec![1, 2, 3]);
    }

    #[test]
    fn clock_rewind_yields_zero_interval_not_underflow() {
        let mut s = Sampler::new(4);
        let r = reg_with(&[("n", 1)]);
        s.sample(5_000, &r);
        let sample = s.sample(4_000, &r).clone();
        assert_eq!(sample.interval_us, 0);
        assert_eq!(sample.rate_per_sec("n"), 0.0);
    }

    #[test]
    fn jsonl_sink_receives_one_line_per_sample() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        let mut s = Sampler::new(2).with_sink(Box::new(buf.clone()));
        let mut r = MetricsRegistry::new();
        for i in 0..5u64 {
            r.inc("n");
            r.set_gauge("g", i);
            s.sample(i * 10, &r);
        }
        s.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // The sink sees every sample, even the ones the ring dropped.
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert!(line.starts_with("{\"telemetry\":1,"), "bad line: {line}");
            assert!(line.ends_with('}'), "bad line: {line}");
            assert!(line.contains("\"counters\":{"), "bad line: {line}");
        }
        assert!(lines[4].contains("\"g\":4"));
    }

    #[test]
    fn json_line_is_stable_and_ordered() {
        let mut s = Sampler::new(1);
        let mut r = MetricsRegistry::new();
        r.add("b", 2);
        r.add("a", 1);
        r.set_gauge("g", 3);
        r.observe("h", 4);
        let line = s.sample(9, &r).to_json_line();
        assert_eq!(
            line,
            "{\"telemetry\":1,\"seq\":0,\"t_us\":9,\"interval_us\":0,\
             \"counters\":{\"a\":1,\"b\":2},\"totals\":{\"a\":1,\"b\":2},\
             \"gauges\":{\"g\":3},\"hists\":{\"h\":{\"count\":1,\"delta\":1,\
             \"p50\":4,\"p90\":4,\"p99\":4,\"max\":4}}}"
        );
    }
}
