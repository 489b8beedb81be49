//! `engine_loop`: the harness itself drives one `SenderEngine` and
//! [`RECEIVERS`] `ReceiverEngine`s on a virtual clock, over a channel it
//! owns (fixed delay, seeded loss on every data copy and every feedback
//! packet). Every packet goes through `Packet::encode_into` and
//! `Packet::decode`. `hrmc-wire` and `hrmc-core` do all the protocol work
//! and, because the harness makes every call, it can time each from
//! outside. Closed loop: the application submits as fast as the send
//! buffer accepts.
//!
//! One step handles one instant of virtual time in phases (pop, decode,
//! dispatch, tick, drain, encode, send, read), so a span covers a batch
//! of calls and the two clock reads stay small against a ~100 ns encode.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hrmc_core::{
    Dest, Event, FlightRecorder, HealthConfig, HealthMonitor, JsonlObserver, MetricsObserver,
    Outgoing, PeerId, ProtocolConfig, ProtocolObserver, ReceiverEngine, ReceiverStats,
    SenderEngine, SenderStats, JIFFY_US,
};
use hrmc_wire::{Packet, HEADER_LEN};

use crate::gen::{self, SplitMix64, StreamCheck, Tally};
use crate::report::{EndToEnd, Layers};
use crate::stats::{best, latency, median, windowed_latency, Latency};
use crate::sys::process_cpu_ns;
use crate::trace::Tracer;
use crate::units;

const RECEIVERS: usize = 8;
const DELAY_US: u64 = 1_000;
const LOSS: f64 = 0.01;
/// Payload of one unit of work (one whole transfer), sized so that a unit
/// takes a fraction of a second and a run holds dozens.
const UNIT_BYTES: usize = 16 << 20;
/// The stream is this many seeded bytes, repeated.
const POOL: usize = 1 << 20;
/// Delivery latency is taken per record of this many bytes.
const RECORD: usize = 16 * 1024;
/// A transfer still unfinished at this virtual time has failed.
const HORIZON_US: u64 = 600 * 1_000_000;

fn protocol() -> ProtocolConfig {
    let mut c = ProtocolConfig::hrmc().with_buffer(1 << 20);
    // With 1 % loss on each of eight copies the sender halves its rate
    // all the time. A floor of 8 MiB/s keeps tens of packets in every
    // tick, so per-packet cost and not idle ticks is what is measured.
    c.min_rate = 8 << 20;
    c.max_rate = 64 << 20;
    c.initial_rtt = 2 * DELAY_US;
    c
}

struct Flight {
    at: u64,
    /// `None` is the sender.
    to: Option<usize>,
    bytes: Rc<Vec<u8>>,
}

/// The harness-owned channel. The delay is constant and the clock only
/// moves forward, so arrival order is send order: a queue, not a heap.
struct Channel {
    flights: VecDeque<Flight>,
    rng: SplitMix64,
    /// Encode buffers whose every copy has been delivered, for reuse.
    spare: Vec<Vec<u8>>,
}

impl Channel {
    fn send(&mut self, now: u64, to: Option<usize>, bytes: &Rc<Vec<u8>>) {
        if self.rng.chance(LOSS) {
            return;
        }
        self.flights.push_back(Flight {
            at: now + DELAY_US,
            to,
            bytes: Rc::clone(bytes),
        });
    }

    fn next_at(&self) -> Option<u64> {
        self.flights.front().map(|f| f.at)
    }
}

/// Which observer, if any, a unit installs in every engine.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sink {
    None,
    Metrics,
    Jsonl,
    Flight,
    Health,
    /// The harness's own tap on `Recovered` events.
    Recovery,
}

/// Records NAK-to-repair latencies (virtual µs) exactly; the library's
/// histograms bucket by powers of two.
struct RecoveryTap(Arc<Mutex<Vec<u64>>>);

impl ProtocolObserver for RecoveryTap {
    fn on_event(&mut self, _now: u64, ev: &Event) {
        if let Event::Recovered { elapsed_us, .. } = *ev {
            self.0.lock().expect("tap mutex").push(elapsed_us);
        }
    }
}

fn observer(sink: Sink, tap: &Arc<Mutex<Vec<u64>>>) -> Option<Box<dyn ProtocolObserver>> {
    Some(match sink {
        Sink::None => return None,
        Sink::Metrics => Box::new(MetricsObserver::new()),
        Sink::Jsonl => Box::new(JsonlObserver::new(std::io::sink())),
        Sink::Flight => Box::new(FlightRecorder::new(4096)),
        Sink::Health => Box::new(HealthMonitor::new(HealthConfig::default())),
        Sink::Recovery => Box::new(RecoveryTap(Arc::clone(tap))),
    })
}

struct Unit {
    setup_s: f64,
    wall_s: f64,
    cpu_ns: u64,
    virtual_us: u64,
    /// Record due → read on the wall clock, nanoseconds, every receiver
    /// pooled, in windows in the order read.
    delivery: Latency,
    /// The same records on the virtual clock, µs: exact for a seed.
    model_delivery: Latency,
    tally: Tally,
    sender: SenderStats,
    rate_halvings: u64,
    urgent_stops: u64,
    receivers: Vec<ReceiverStats>,
    recoveries_us: Vec<u64>,
    wire_bytes: u64,
}

/// One whole transfer of [`UNIT_BYTES`] seeded by `seed`.
fn run_unit(seed: u64, sink: Sink, tr: &mut Tracer) -> Unit {
    // Set-up: inputs and protocol objects.
    let t_setup = Instant::now();
    let pool = gen::payload(gen::derive(seed, 1), POOL);
    let config = protocol();
    let tap = Arc::new(Mutex::new(Vec::new()));
    let mut sender = SenderEngine::new(config.clone(), 7000, 7001, 0, 0);
    if let Some(o) = observer(sink, &tap) {
        sender.set_observer(o);
    }
    let mut receivers: Vec<ReceiverEngine> = (0..RECEIVERS)
        .map(|i| {
            let mut r = ReceiverEngine::new(config.clone(), 8000 + i as u16, 7001, 0);
            // As in the simulator: receivers are up before the sender and
            // expect the stream from its first segment.
            r.expect_stream_start(0);
            if let Some(o) = observer(sink, &tap) {
                r.set_observer(o);
            }
            r
        })
        .collect();
    let mut channel = Channel {
        flights: VecDeque::new(),
        rng: SplitMix64::new(gen::derive(seed, 2)),
        spare: Vec::new(),
    };
    let mut checks: Vec<StreamCheck> = (0..RECEIVERS).map(|_| StreamCheck::default()).collect();
    let records = UNIT_BYTES / RECORD;
    // Per record: when the application first reached it, on the virtual
    // clock (µs) and on the wall clock (ns since the unit started).
    let mut due = vec![(0u64, 0u64); records];
    let mut model_latencies_us = Vec::with_capacity(records * RECEIVERS);
    let mut latencies_ns = Vec::with_capacity(records * RECEIVERS);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut now;
    let mut next_tick = JIFFY_US;
    let mut offset = 0usize;
    let mut closed = false;
    let mut wire_bytes = 0u64;
    // Scratch reused across steps.
    let mut arrived: Vec<Flight> = Vec::new();
    let mut to_sender: Vec<Packet> = Vec::new();
    let mut to_receiver: Vec<(usize, Packet)> = Vec::new();
    let mut outs: Vec<(Option<usize>, Outgoing)> = Vec::new();
    let mut encoded: Vec<(Option<usize>, Dest, Rc<Vec<u8>>)> = Vec::new();
    // What the applications read in one step, as (receiver, start, len)
    // ranges of one buffer, so checking it is a phase of its own.
    let mut staged = vec![0u8; 1 << 20];
    let mut staged_ranges: Vec<(usize, usize, usize)> = Vec::new();

    let cpu0 = process_cpu_ns();
    let t_run = Instant::now();
    tr.enter("engine_loop.unit");
    let finished = loop {
        now = channel.next_at().map_or(next_tick, |at| at.min(next_tick));
        if now > HORIZON_US {
            break false;
        }

        // Pop what arrives now.
        tr.enter("harness.channel");
        while channel.flights.front().is_some_and(|f| f.at <= now) {
            arrived.push(channel.flights.pop_front().expect("front checked"));
        }
        tr.exit();

        if !arrived.is_empty() {
            tr.enter("wire.decode");
            for f in &arrived {
                let pkt = Packet::decode(&f.bytes).expect("the channel corrupts nothing");
                match f.to {
                    None => to_sender.push(pkt),
                    Some(i) => to_receiver.push((i, pkt)),
                }
            }
            tr.exit();
            tr.count("wire.decoded", arrived.len() as u64);
            tr.enter("harness.channel");
            for f in arrived.drain(..) {
                if let Ok(buf) = Rc::try_unwrap(f.bytes) {
                    channel.spare.push(buf);
                }
            }
            tr.exit();
        }

        if !to_sender.is_empty() {
            tr.enter("core.sender.feedback");
            for pkt in &to_sender {
                let peer = PeerId(u32::from(pkt.header.src_port - 8000));
                sender.handle_packet(pkt, peer, now);
            }
            tr.exit();
            tr.count("core.sender.feedback_pkts", to_sender.len() as u64);
            to_sender.clear();
        }
        if !to_receiver.is_empty() {
            tr.enter("core.receiver.data");
            for (i, pkt) in &to_receiver {
                receivers[*i].handle_packet(pkt, now);
            }
            tr.exit();
            tr.count("core.receiver.pkts", to_receiver.len() as u64);
            to_receiver.clear();
        }

        if now == next_tick {
            next_tick += JIFFY_US;
            // The application offers the rest of the stream, a pool's
            // length at a time, until the send buffer refuses.
            let wall_ns = if offset < UNIT_BYTES {
                t_run.elapsed().as_nanos() as u64
            } else {
                0
            };
            while offset < UNIT_BYTES {
                let at = offset % POOL;
                let piece = &pool[at..POOL.min(at + UNIT_BYTES - offset)];
                tr.enter("core.sender.submit");
                let n = sender.submit(piece, now);
                tr.exit();
                tr.count("core.sender.submitted_bytes", n as u64);
                // A record is due when the application first reaches it.
                for d in &mut due[offset.div_ceil(RECORD)..(offset + n).div_ceil(RECORD)] {
                    *d = (now, wall_ns);
                }
                offset += n;
                if n < piece.len() {
                    break;
                }
            }
            if offset == UNIT_BYTES && !closed {
                sender.close(now);
                closed = true;
            }
            tr.enter("core.sender.tick");
            sender.on_tick(now);
            tr.exit();
            tr.count("core.sender.ticks", 1);
            tr.enter("core.receiver.tick");
            for r in &mut receivers {
                r.on_tick(now);
            }
            tr.exit();
            tr.count("core.receiver.ticks", RECEIVERS as u64);
        }

        // Drain every engine's output queue.
        tr.enter("core.sender.poll");
        while let Some(o) = sender.poll_output() {
            outs.push((None, o));
        }
        tr.exit();
        tr.count("core.sender.polled", outs.len() as u64);
        tr.enter("core.receiver.poll");
        for (i, r) in receivers.iter_mut().enumerate() {
            while let Some(o) = r.poll_output() {
                outs.push((Some(i), o));
            }
        }
        tr.exit();

        if !outs.is_empty() {
            tr.enter("wire.encode");
            for (from, o) in outs.drain(..) {
                let mut buf = channel.spare.pop().unwrap_or_default();
                o.packet.encode_into(&mut buf);
                wire_bytes += buf.len() as u64;
                encoded.push((from, o.dest, Rc::new(buf)));
            }
            tr.exit();
            tr.count("wire.encoded", encoded.len() as u64);
            tr.enter("harness.channel");
            for (from, dest, bytes) in encoded.drain(..) {
                match (from, dest) {
                    (None, Dest::Multicast) => {
                        for i in 0..RECEIVERS {
                            channel.send(now, Some(i), &bytes);
                        }
                    }
                    (None, Dest::Unicast(p)) => channel.send(now, Some(p.0 as usize), &bytes),
                    // Receivers answer the sender; with local recovery
                    // off they multicast nothing.
                    (Some(_), _) => channel.send(now, None, &bytes),
                    (None, Dest::Sender) => unreachable!("the sender never addresses itself"),
                }
            }
            tr.exit();
        }

        // The applications read whatever is deliverable.
        tr.enter("core.receiver.read");
        let mut used = 0;
        for (i, r) in receivers.iter_mut().enumerate() {
            loop {
                if staged.len() - used < 64 * 1024 {
                    staged.resize(staged.len() * 2, 0);
                }
                let n = r.read(&mut staged[used..], now);
                if n == 0 {
                    break;
                }
                staged_ranges.push((i, used, n));
                used += n;
            }
        }
        tr.exit();
        if used > 0 {
            tr.count("core.receiver.read_bytes", used as u64);
            tr.enter("harness.verify");
            let wall_ns = t_run.elapsed().as_nanos() as u64;
            for (i, at, n) in staged_ranges.drain(..) {
                let before = checks[i].len();
                checks[i].feed(&pool, &staged[at..at + n]);
                for &(due_us, due_ns) in
                    &due[(before / RECORD).min(records)..((before + n) / RECORD).min(records)]
                {
                    model_latencies_us.push(now - due_us);
                    latencies_ns.push(wall_ns - due_ns);
                }
            }
            tr.exit();
        }

        if sender.is_finished() && receivers.iter().all(ReceiverEngine::fully_consumed) {
            break true;
        }
    };
    tr.exit();
    let wall_s = t_run.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns() - cpu0;

    // One operation per receiver-stream; a transfer that did not finish,
    // or released a buffer nobody had confirmed, fails all of them.
    let sound = finished && sender.stats.unsafe_releases == 0;
    let mut tally = Tally::default();
    for c in &checks {
        tally.op(sound && c.passed(UNIT_BYTES));
    }
    let recoveries_us = std::mem::take(&mut *tap.lock().expect("tap mutex"));
    Unit {
        setup_s,
        wall_s,
        cpu_ns,
        virtual_us: now,
        delivery: windowed_latency(&latencies_ns),
        model_delivery: latency(model_latencies_us),
        tally,
        rate_halvings: sender.rate_halvings(),
        urgent_stops: sender.urgent_stops(),
        sender: sender.stats.clone(),
        receivers: receivers.iter().map(|r| r.stats.clone()).collect(),
        recoveries_us,
        wire_bytes,
    }
}

fn unit_goodput_mbps(u: &Unit) -> f64 {
    UNIT_BYTES as f64 * 8.0 / u.wall_s / 1e6
}

pub fn end_to_end(seed: u64, seconds: u64) -> EndToEnd {
    let mut tr = Tracer::new(false, Instant::now());
    let units = units::repeat(seed, seconds as f64, false, &mut tr, |lane, tr| {
        run_unit(lane, Sink::None, tr)
    });
    let mut tally = Tally::default();
    units.iter().for_each(|u| tally.add(u.tally));
    eprintln!(
        "engine_loop: {} units of {} MiB, delivery latency from {} samples per unit (tail p{})",
        units.len(),
        UNIT_BYTES >> 20,
        units[0].delivery.samples,
        units[0].delivery.tail_permille as f64 / 10.0
    );
    // Every number is that of the run's best unit: see `stats::best`.
    EndToEnd {
        setup_s: best(units.iter().map(|u| u.setup_s), false),
        goodput_mbps: best(units.iter().map(unit_goodput_mbps), true),
        delivery_p50_us: best(units.iter().map(|u| u.delivery.p50 as f64), false) / 1e3,
        delivery_p99_us: best(units.iter().map(|u| u.delivery.tail as f64), false) / 1e3,
        tally,
    }
}

pub fn traced(seed: u64, seconds: u64) -> (Layers, Tracer, Tally) {
    let mut tr = Tracer::new(true, Instant::now());
    let mut l = Layers::default();

    let units = units::repeat(seed, seconds as f64 * 0.6, true, &mut tr, |lane, tr| {
        run_unit(lane, Sink::None, tr)
    });
    let mut tally = Tally::default();
    for u in &units {
        tally.add(u.tally);
    }
    // Even units ran untraced.
    l.set(
        "proc.cpu_ms_per_mb",
        best(
            units
                .iter()
                .step_by(2)
                .map(|u| u.cpu_ns as f64 / 1e6 / (UNIT_BYTES as f64 / 1e6)),
            false,
        ),
    );
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    l.set(
        "harness.trace_overhead_pct",
        units::trace_overhead_pct(&walls),
    );

    // Self times partition the traced units' root spans.
    let selfs = tr.self_times();
    let ns = |name: &str| selfs.get(name).map_or(0, |&(ns, _)| ns) as f64;
    let root_total = tr.total("engine_loop.unit").0 as f64;
    let harness = ns("engine_loop.unit") + ns("harness.channel") + ns("harness.verify");
    l.set("harness.self_share", harness / root_total);
    let per = |span: &str, count: &str| ns(span) / (tr.get(count) as f64).max(1.0);
    l.set(
        "core.sender.submit_ns_per_kb",
        per("core.sender.submit", "core.sender.submitted_bytes") * 1024.0,
    );
    l.set(
        "core.sender.tick_ns",
        per("core.sender.tick", "core.sender.ticks"),
    );
    l.set(
        "core.sender.tick_ns_per_pkt",
        per("core.sender.tick", "core.sender.polled"),
    );
    l.set(
        "core.sender.feedback_ns_per_pkt",
        per("core.sender.feedback", "core.sender.feedback_pkts"),
    );
    l.set(
        "core.sender.poll_ns_per_pkt",
        per("core.sender.poll", "core.sender.polled"),
    );
    l.set(
        "core.receiver.data_ns_per_pkt",
        per("core.receiver.data", "core.receiver.pkts"),
    );
    l.set(
        "core.receiver.tick_ns",
        per("core.receiver.tick", "core.receiver.ticks"),
    );
    l.set(
        "core.receiver.read_ns_per_kb",
        per("core.receiver.read", "core.receiver.read_bytes") * 1024.0,
    );

    // Protocol counts from unit 0 alone: exact for a seed.
    let u = &units[0];
    let s = &u.sender;
    let data = (s.data_packets_sent + s.retransmissions).max(1) as f64;
    let naks: u64 = u.receivers.iter().map(|r| r.naks_sent).sum();
    let feedback: u64 = u.receivers.iter().map(ReceiverStats::feedback_sent).sum();
    l.set(
        "wire.bytes_per_payload_byte",
        u.wire_bytes as f64 / UNIT_BYTES as f64,
    );
    l.set(
        "core.model_goodput_mbps",
        UNIT_BYTES as f64 * 8.0 / u.virtual_us as f64,
    );
    l.set("core.model_delivery_p50_us", u.model_delivery.p50 as f64);
    l.set("core.model_delivery_p99_us", u.model_delivery.tail as f64);
    l.set("core.retx_share", s.retransmissions as f64 / data);
    l.set("core.naks_per_kpkt", naks as f64 * 1000.0 / data);
    l.set("core.feedback_per_data_pkt", feedback as f64 / data);
    l.set(
        "core.probes_per_release",
        s.probes_sent as f64 / s.segments_released.max(1) as f64,
    );
    l.set("core.complete_info_ratio", s.complete_info_ratio());
    l.set("core.rate_halvings", u.rate_halvings as f64);
    l.set("core.urgent_stops", u.urgent_stops as f64);
    l.set("core.gate_checks", s.gate_checks as f64);
    l.set("core.gate_members_scanned", s.gate_members_scanned as f64);

    // Observer price tags: a few more units, untraced, with no observer
    // and with each public sink installed in every engine, interleaved so
    // that a slow phase of the machine touches all of them alike.
    tr.set_enabled(false);
    let sinks = [
        (Sink::None, ""),
        (Sink::Metrics, "core.obs.metrics_overhead_pct"),
        (Sink::Jsonl, "core.obs.jsonl_overhead_pct"),
        (Sink::Flight, "core.obs.flight_overhead_pct"),
        (Sink::Health, "core.obs.health_overhead_pct"),
    ];
    let mut walls = vec![Vec::new(); sinks.len()];
    for rep in 0..5 {
        for (k, &(sink, _)) in sinks.iter().enumerate() {
            let u = run_unit(units::lane(seed, rep), sink, &mut tr);
            walls[k].push(u.wall_s);
            tally.add(u.tally);
        }
    }
    let fastest = |k: usize| best(walls[k].iter().copied(), false);
    for (k, &(_, name)) in sinks.iter().enumerate().skip(1) {
        l.set(name, (fastest(k) / fastest(0) - 1.0) * 100.0);
    }
    // NAK-to-repair latency, exact, from the harness's own tap.
    let tapped = run_unit(units::lane(seed, 0), Sink::Recovery, &mut tr);
    tally.add(tapped.tally);
    if !tapped.recoveries_us.is_empty() {
        let rec = latency(tapped.recoveries_us);
        l.set("core.recovery_p50_us", rec.p50 as f64);
        l.set("core.recovery_p99_us", rec.tail as f64);
    }
    tr.set_enabled(true);

    wire_micro(seed, &mut l, &mut tr);
    (l, tr, tally)
}

/// Bare `hrmc-wire` cost at the largest and a small payload: encode into
/// a reused buffer, decode from it, a batch per clock read.
fn wire_micro(seed: u64, l: &mut Layers, tr: &mut Tracer) {
    const BATCH: usize = 1_000;
    const BATCHES: usize = 200;
    for (size, enc_name, dec_name) in [
        (
            1400usize,
            "wire.encode_ns_per_pkt",
            "wire.decode_ns_per_pkt",
        ),
        (
            64,
            "wire.encode_small_ns_per_pkt",
            "wire.decode_small_ns_per_pkt",
        ),
    ] {
        let body = bytes::Bytes::from(gen::payload(gen::derive(seed, 3), size)[..size].to_vec());
        let pkt = Packet::data(7000, 7001, 1, body);
        let mut buf = Vec::with_capacity(HEADER_LEN + size);
        let (mut enc_ns, mut dec_ns) = (Vec::new(), Vec::new());
        for _ in 0..BATCHES {
            tr.enter("wire.micro.encode");
            let t0 = Instant::now();
            for _ in 0..BATCH {
                std::hint::black_box(&pkt).encode_into(&mut buf);
                std::hint::black_box(&buf);
            }
            enc_ns.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
            tr.exit();
            tr.enter("wire.micro.decode");
            let t0 = Instant::now();
            for _ in 0..BATCH {
                let pkt = Packet::decode(std::hint::black_box(&buf)).expect("just encoded");
                std::hint::black_box(pkt);
            }
            dec_ns.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
            tr.exit();
        }
        l.set(enc_name, median(enc_ns));
        l.set(dec_name, median(dec_ns));
    }
}
