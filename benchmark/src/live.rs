//! The two live workloads: real UDP multicast over the host's loopback
//! interface (not a real link), one sender session and [`RECEIVERS`]
//! receiver sessions on a private epoll [`Reactor`], all in this process.
//!
//! Threads: one producer, one consumer that drains every receiver, and
//! the library's reactor thread. The harness times only the public calls
//! it makes (`bind`, `send`, `recv`, `close_and_wait`) and reads the
//! library's own `stats()`; nothing inside `hrmc-net` is instrumented.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::time::{Duration, Instant};

use hrmc_core::{ProtocolConfig, ReceiverStats, SenderStats};
use hrmc_net::socket::RxBatch;
use hrmc_net::{
    McastSocket, NetError, Reactor, ReactorStats, ReceiverHandle, SenderHandle, Session,
};

use crate::gen::{self, Tally};
use crate::report::{EndToEnd, Layers};
use crate::stats::{latency, median, windowed_latency};
use crate::sys::process_cpu_ns;
use crate::trace::Tracer;

/// Live receivers: with the producer, the consumer and the reactor this
/// keeps a 2-core box busy without oversubscribing it.
pub const RECEIVERS: usize = 2;

const LO: Ipv4Addr = Ipv4Addr::new(127, 0, 0, 1);
const MIB: u64 = 1024 * 1024;

/// The rate ladder of the traced `live_bulk` run, MiB/s.
pub const LADDER: [u64; 4] = [4, 8, 16, 32];

/// What tells the two live workloads apart.
pub struct Spec {
    name: &'static str,
    /// The sender's rate cap, bytes/s.
    rate: u64,
    /// What the producer hands to one `send()`, bytes.
    record: usize,
    load: Load,
    /// A record read later than this after it was due counts as failed.
    late_ns: u64,
}

/// `live_bulk`: 16 KiB records, closed loop, at the ladder's first rung.
/// Above the knee the ladder locates (between 8 and 16 MiB/s here) a
/// jiffy's burst overruns the receivers' socket buffers and goodput
/// collapses to a few Mbit/s that differ by half from run to run; a bound
/// cannot be held there. The ladder rows report that regime.
pub const BULK: Spec = Spec {
    name: "live_bulk",
    rate: LADDER[0] * MIB,
    record: 16 * 1024,
    load: Load::Closed,
    late_ns: u64::MAX,
};

/// `live_stream`: 1 KiB messages at 1024 msg/s (1 MiB/s offered) under a
/// 4 MiB/s cap, open loop; a message is late after one second.
pub const STREAM: Spec = Spec {
    name: "live_stream",
    rate: 4 * MIB,
    record: 1024,
    load: Load::Open { per_s: 1024 },
    late_ns: 1_000_000_000,
};

/// Slow start and the first buffer-full of queued records are over by
/// then: records due earlier are checked but their latency is not sampled
/// (a segment shorter than four times this warms up for a quarter of it).
const WARMUP: Duration = Duration::from_secs(1);

/// Longest a segment may take to drain after producing stops. A rung
/// above the knee drains its 512 KiB send buffer at under 1 Mbit/s; four
/// such rungs must still end inside the driver's 180 s.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// Every record starts with its index and its due time.
const HEADER: usize = 16;
/// Bytes of seeded filler the records are cut from.
const POOL: usize = 1 << 20;
/// Sessions are opened and dropped this many times before the measured
/// ones, so `setup_s` is a median and not one draw.
const SETUP_REPEATS: usize = 4;

fn protocol(max_rate: u64) -> ProtocolConfig {
    let mut c = ProtocolConfig::hrmc().with_buffer(512 * 1024);
    c.max_rate = max_rate;
    // Loopback round trips are tens of microseconds: seed the estimator
    // near them, as the CLI's self-test does, so buffer residency is not
    // ten times a LAN-sized guess.
    c.initial_rtt = 2_000;
    c.anonymous_release_hold = 500_000;
    c
}

/// The multicast group of session set `lane` of this run. Group and port
/// come from the seed, so back-to-back and concurrent runs do not hear
/// each other.
fn group(seed: u64, lane: u64) -> SocketAddrV4 {
    let r = gen::derive(seed, 0x6000 + lane);
    let b = 1 + (r >> 8) % 254;
    let c = 1 + (r >> 16) % 254;
    let port = 20_000 + (r >> 32) % 40_000;
    SocketAddrV4::new(Ipv4Addr::new(239, 255, b as u8, c as u8), port as u16)
}

struct Sessions {
    reactor: Reactor,
    tx: SenderHandle,
    rx: Vec<ReceiverHandle>,
    /// Record 0, already submitted: receivers JOIN in answer to the first
    /// data packet they hear, so set-up has to send one.
    hello: Vec<u8>,
}

/// Bind the receivers, then the sender, submit record 0 and wait until
/// the sender's membership holds every receiver. Returns the sessions and
/// the seconds this took.
fn open(
    group: SocketAddrV4,
    config: &ProtocolConfig,
    pool: &[u8],
    record: usize,
    tr: &mut Tracer,
) -> Result<(Sessions, f64), NetError> {
    let t0 = Instant::now();
    let reactor = Reactor::new()?;
    let mut rx = Vec::with_capacity(RECEIVERS);
    for _ in 0..RECEIVERS {
        tr.enter("net.bind_receiver");
        let r = Session::receiver(group)
            .interface(LO)
            .config(config.clone())
            .reactor(reactor.clone())
            .bind();
        tr.exit();
        rx.push(r?);
    }
    tr.enter("net.bind_sender");
    let tx = Session::sender(group)
        .interface(LO)
        .config(config.clone())
        .reactor(reactor.clone())
        .bind();
    tr.exit();
    let tx = tx?;
    tr.enter("net.join");
    let mut hello = vec![0u8; record];
    fill_record(&mut hello, pool, 0, 0);
    let joined = tx.send(&hello).and_then(|()| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while tx.member_count() < RECEIVERS {
            if Instant::now() >= deadline {
                return Err(NetError::Timeout);
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(())
    });
    tr.exit();
    joined?;
    let sessions = Sessions {
        reactor,
        tx,
        rx,
        hello,
    };
    Ok((sessions, t0.elapsed().as_secs_f64()))
}

/// How the producer offers load.
#[derive(Clone, Copy)]
enum Load {
    /// Closed loop: the next record is sent as soon as `send()` returns.
    Closed,
    /// Open loop: record `i` is due at `i / per_s` seconds whatever
    /// happened to the records before it.
    Open { per_s: u64 },
}

struct Segment {
    /// Payload bytes the producer submitted.
    bytes: u64,
    /// Records the producer submitted.
    records: u64,
    /// Slowest receiver: payload bits ÷ (first submit → its last read).
    goodput_mbps: f64,
    /// Due → read, every receiver pooled, nanoseconds.
    latencies_ns: Vec<u64>,
    tally: Tally,
    /// Process CPU (all threads, user + system) over the segment per MB
    /// of payload submitted.
    cpu_ms_per_mb: f64,
    /// First submit → last read of the slowest receiver.
    wall_ns: u64,
    gen_late_max_ns: u64,
    sender: SenderStats,
    rate_halvings: u64,
    urgent_stops: u64,
    receivers: Vec<ReceiverStats>,
    reactor: ReactorStats,
}

struct Produced {
    first_submit_ns: u64,
    records: u64,
    gen_late_max_ns: u64,
    sender: Option<SenderStats>,
    tracer: Tracer,
}

struct Consumed {
    /// Per receiver: stream bytes read.
    bytes: Vec<u64>,
    last_read_ns: Vec<u64>,
    latencies_ns: Vec<u64>,
    /// Per receiver: records whose index, filler and lateness all passed.
    records_ok: Vec<u64>,
    complete: Vec<bool>,
    tracer: Tracer,
}

/// Cut record `idx` from the pool and stamp it.
fn fill_record(rec: &mut [u8], pool: &[u8], idx: u64, due_ns: u64) {
    let off = record_offset(pool, rec.len(), idx);
    rec.copy_from_slice(&pool[off..off + rec.len()]);
    rec[..8].copy_from_slice(&idx.to_le_bytes());
    rec[8..HEADER].copy_from_slice(&due_ns.to_le_bytes());
}

fn record_offset(pool: &[u8], record: usize, idx: u64) -> usize {
    (idx as usize).wrapping_mul(8 * 131) % (pool.len() - record)
}

/// Reassembles one receiver's byte stream into records.
struct Parser {
    rec: Vec<u8>,
    filled: usize,
    next_idx: u64,
}

impl Parser {
    /// Feed stream bytes read at `now_ns`; for every record completed,
    /// push its due → read latency and count it when it is the expected
    /// record, intact, and not later than `late_ns`. Records due before
    /// `sample_from_ns` (record 0 was sent during set-up, before anyone
    /// read) are checked but their latency is not sampled.
    #[allow(clippy::too_many_arguments)]
    fn feed(
        &mut self,
        mut bytes: &[u8],
        now_ns: u64,
        pool: &[u8],
        sample_from_ns: u64,
        late_ns: u64,
        latencies: &mut Vec<u64>,
        ok: &mut u64,
    ) {
        while !bytes.is_empty() {
            let take = (self.rec.len() - self.filled).min(bytes.len());
            self.rec[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < self.rec.len() {
                break;
            }
            self.filled = 0;
            let idx = u64::from_le_bytes(self.rec[..8].try_into().expect("8-byte index"));
            let due = u64::from_le_bytes(self.rec[8..HEADER].try_into().expect("8-byte stamp"));
            let lat = if idx == 0 {
                0
            } else {
                now_ns.saturating_sub(due)
            };
            if due >= sample_from_ns {
                latencies.push(lat);
            }
            let off = record_offset(pool, self.rec.len(), idx.min(u64::from(u32::MAX)));
            let intact = idx == self.next_idx
                && self.rec[HEADER..] == pool[off + HEADER..off + self.rec.len()];
            if intact && lat <= late_ns {
                *ok += 1;
            }
            self.next_idx = self.next_idx.wrapping_add(1);
        }
    }
}

/// Run one measured segment on open sessions: produce for `duration`,
/// close, drain every receiver to end of stream, and check what arrived.
fn run_segment(
    s: &Sessions,
    pool: &[u8],
    spec: &Spec,
    duration: Duration,
    epoch: Instant,
    trace: bool,
) -> (Segment, Tracer) {
    let (load, late_ns) = (spec.load, spec.late_ns);
    let sample_from_ns = (Instant::now() + WARMUP.min(duration / 4) - epoch).as_nanos() as u64;
    let cpu0 = process_cpu_ns();
    let (produced, consumed) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| produce(s, pool, load, duration, epoch, trace));
        let consumer = scope.spawn(|| {
            consume(
                &s.rx,
                pool,
                s.hello.len(),
                duration,
                sample_from_ns,
                late_ns,
                epoch,
                trace,
            )
        });
        (
            producer.join().expect("producer thread panicked"),
            consumer.join().expect("consumer thread panicked"),
        )
    });
    let cpu_ns = process_cpu_ns() - cpu0;

    let bytes = produced.records * s.hello.len() as u64;
    let mut tally = Tally::default();
    let mut slowest_ns = 0u64;
    for i in 0..RECEIVERS {
        match load {
            // One operation per receiver-stream: it ended, has the
            // length submitted, and every record was the expected one,
            // byte for byte.
            Load::Closed => tally.op(consumed.complete[i]
                && produced.sender.is_some()
                && consumed.bytes[i] == bytes
                && consumed.records_ok[i] == produced.records),
            // One operation per message per receiver: missing, corrupt,
            // out of order or too late all fail.
            Load::Open { .. } => {
                tally.attempted += produced.records;
                tally.failed += produced.records - consumed.records_ok[i].min(produced.records);
            }
        }
        slowest_ns = slowest_ns.max(consumed.last_read_ns[i]);
    }
    let wall_ns = slowest_ns.saturating_sub(produced.first_submit_ns).max(1);
    let mut tracer = produced.tracer;
    tracer.merge(consumed.tracer);
    let sender_health = s
        .reactor
        .session_health()
        .into_iter()
        .find(|h| h.role == "sender");
    let seg = Segment {
        bytes,
        records: produced.records,
        goodput_mbps: bytes as f64 * 8.0 / (wall_ns as f64 / 1e9) / 1e6,
        latencies_ns: consumed.latencies_ns,
        tally,
        cpu_ms_per_mb: cpu_ns as f64 / 1e6 / (bytes.max(1) as f64 / 1e6),
        wall_ns,
        gen_late_max_ns: produced.gen_late_max_ns,
        sender: produced.sender.unwrap_or_default(),
        rate_halvings: sender_health.as_ref().map_or(0, |h| h.rate_halvings),
        urgent_stops: sender_health.as_ref().map_or(0, |h| h.urgent_stops),
        receivers: s.rx.iter().map(ReceiverHandle::stats).collect(),
        reactor: s.reactor.stats(),
    };
    (seg, tracer)
}

fn produce(
    s: &Sessions,
    pool: &[u8],
    load: Load,
    duration: Duration,
    epoch: Instant,
    trace: bool,
) -> Produced {
    let mut tr = Tracer::new(trace, epoch);
    let tx = &s.tx;
    let mut rec = vec![0u8; s.hello.len()];
    let mut gen_late_max_ns = 0u64;
    let mut records = 1u64;
    let mut healthy = true;
    tr.enter("harness.produce");
    let start = Instant::now();
    let first_submit_ns = (start - epoch).as_nanos() as u64;
    let planned = match load {
        Load::Closed => u64::MAX,
        Load::Open { per_s } => 1 + duration.as_nanos() as u64 * per_s / 1_000_000_000,
    };
    while records < planned {
        let due_ns = match load {
            Load::Closed => {
                if start.elapsed() >= duration {
                    break;
                }
                (Instant::now() - epoch).as_nanos() as u64
            }
            Load::Open { per_s } => {
                let due = start + Duration::from_nanos((records - 1) * 1_000_000_000 / per_s);
                let now = Instant::now();
                if due > now {
                    // Waiting for the schedule is not the harness's work.
                    tr.enter("harness.wait");
                    std::thread::sleep(due - now);
                    tr.exit();
                }
                let late = Instant::now().saturating_duration_since(due);
                gen_late_max_ns = gen_late_max_ns.max(late.as_nanos() as u64);
                (due - epoch).as_nanos() as u64
            }
        };
        fill_record(&mut rec, pool, records, due_ns);
        tr.enter("net.send");
        let r = tx.send(&rec);
        tr.exit();
        if r.is_err() {
            healthy = false;
            break;
        }
        records += 1;
    }
    tr.enter("net.close_wait");
    let sender = tx.close_and_wait(DRAIN_LIMIT).ok();
    tr.exit();
    tr.exit();
    Produced {
        first_submit_ns,
        records,
        gen_late_max_ns,
        sender: sender.filter(|_| healthy),
        tracer: tr,
    }
}

#[allow(clippy::too_many_arguments)]
fn consume(
    rx: &[ReceiverHandle],
    pool: &[u8],
    record: usize,
    duration: Duration,
    sample_from_ns: u64,
    late_ns: u64,
    epoch: Instant,
    trace: bool,
) -> Consumed {
    let mut tr = Tracer::new(trace, epoch);
    let n = rx.len();
    let mut out = Consumed {
        bytes: vec![0; n],
        last_read_ns: vec![0; n],
        latencies_ns: Vec::new(),
        records_ok: vec![0; n],
        complete: vec![false; n],
        tracer: Tracer::new(false, epoch),
    };
    let mut parsers: Vec<Parser> = (0..n)
        .map(|_| Parser {
            rec: vec![0u8; record],
            filled: 0,
            next_idx: 0,
        })
        .collect();
    let mut ended = vec![false; n];
    let mut buf = vec![0u8; 64 * 1024];
    // Producing ends at `duration`; a stalled transfer may not hold the
    // run long past it.
    let give_up = Instant::now() + duration + DRAIN_LIMIT;
    tr.enter("harness.consume");
    while ended.iter().any(|e| !e) && Instant::now() < give_up {
        for i in 0..n {
            if ended[i] {
                continue;
            }
            // Block briefly on each receiver in turn: both hear the same
            // multicast packets, so when one has data the other does too.
            tr.enter("net.recv");
            let r = rx[i].recv(&mut buf, Duration::from_millis(10));
            tr.exit();
            match r {
                Ok(0) => {
                    ended[i] = true;
                    out.complete[i] = true;
                }
                Ok(len) => {
                    let now_ns = (Instant::now() - epoch).as_nanos() as u64;
                    out.last_read_ns[i] = now_ns;
                    out.bytes[i] += len as u64;
                    parsers[i].feed(
                        &buf[..len],
                        now_ns,
                        pool,
                        sample_from_ns,
                        late_ns,
                        &mut out.latencies_ns,
                        &mut out.records_ok[i],
                    );
                }
                Err(NetError::Timeout) => {}
                Err(_) => ended[i] = true,
            }
        }
    }
    tr.exit();
    out.tracer = tr;
    out
}

/// A live workload that could not run: every receiver-stream failed.
fn refused(why: &NetError) -> Tally {
    eprintln!("live workload refused: {why}; every receiver-stream counts as failed");
    Tally {
        attempted: RECEIVERS as u64,
        failed: RECEIVERS as u64,
    }
}

/// Open and drop sessions a few times, then open the ones to measure on.
/// Returns them with the median set-up time.
fn open_measured(
    seed: u64,
    config: &ProtocolConfig,
    pool: &[u8],
    record: usize,
    tr: &mut Tracer,
) -> Result<(Sessions, f64), NetError> {
    let mut times = Vec::with_capacity(SETUP_REPEATS + 1);
    for i in 0..SETUP_REPEATS as u64 {
        let (s, t) = open(group(seed, 1 + i), config, pool, record, tr)?;
        drop(s);
        times.push(t);
    }
    let (s, t) = open(group(seed, 0), config, pool, record, tr)?;
    times.push(t);
    Ok((s, median(times)))
}

/// One run's shared context: the clock every span and stamp is read
/// against, and the seeded filler the records are cut from.
struct Run {
    seed: u64,
    epoch: Instant,
    pool: Vec<u8>,
}

impl Run {
    fn new(seed: u64) -> Run {
        Run {
            seed,
            epoch: Instant::now(),
            pool: gen::payload(gen::derive(seed, 1), POOL),
        }
    }

    /// Open fresh sessions on group `lane` at rate cap `rate` and run one
    /// segment of `spec` on them.
    fn segment(
        &self,
        spec: &Spec,
        lane: u64,
        rate: u64,
        duration: Duration,
        trace: bool,
        tr: &mut Tracer,
    ) -> Result<(Segment, Tracer), Tally> {
        let group = group(self.seed, lane);
        let (s, _) =
            open(group, &protocol(rate), &self.pool, spec.record, tr).map_err(|e| refused(&e))?;
        Ok(run_segment(
            &s, &self.pool, spec, duration, self.epoch, trace,
        ))
    }
}

/// A live workload end to end: sessions opened (five times over, for the
/// median set-up time), then one untraced segment of `seconds`.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: u64) -> Result<EndToEnd, Tally> {
    let run = Run::new(seed);
    let mut tr = Tracer::new(false, run.epoch);
    let (s, setup_s) = open_measured(seed, &protocol(spec.rate), &run.pool, spec.record, &mut tr)
        .map_err(|e| refused(&e))?;
    let duration = Duration::from_secs(seconds);
    let (seg, _) = run_segment(&s, &run.pool, spec, duration, run.epoch, false);
    report_segment(spec.name, &seg);
    let lat = windowed_latency(&seg.latencies_ns);
    eprintln!(
        "delivery latency: {} samples, tail is p{}",
        lat.samples,
        lat.tail_permille as f64 / 10.0
    );
    Ok(EndToEnd {
        setup_s,
        goodput_mbps: seg.goodput_mbps,
        delivery_p50_us: lat.p50 as f64 / 1e3,
        delivery_p99_us: lat.tail as f64 / 1e3,
        tally: seg.tally,
    })
}

fn report_segment(name: &str, seg: &Segment) {
    let naks: u64 = seg.receivers.iter().map(|r| r.naks_sent).sum();
    eprintln!(
        "{name}: {} records, {:.1} MB, goodput {:.3} Mbps, wall {:.3} s, retx {}, naks {}, \
         rate halvings {}, cpu {:.2} ms/MB",
        seg.records,
        seg.bytes as f64 / 1e6,
        seg.goodput_mbps,
        seg.wall_ns as f64 / 1e9,
        seg.sender.retransmissions,
        naks,
        seg.rate_halvings,
        seg.cpu_ms_per_mb,
    );
}

/// Which rung is the highest lossless one: every rung up to and including
/// it passed, so a failing lower rung caps the verdict. 0 when the first
/// rung already lost packets.
pub fn lossless_rate(rungs: &[(u64, bool)]) -> u64 {
    rungs
        .iter()
        .take_while(|&&(_, lossless)| lossless)
        .last()
        .map_or(0, |&(rate, _)| rate)
}

fn retx_share(s: &SenderStats) -> f64 {
    let sent = s.data_packets_sent + s.retransmissions;
    if sent == 0 {
        return 0.0;
    }
    s.retransmissions as f64 / sent as f64
}

/// Per-layer rows every live segment can give: protocol counts, session
/// waits and reactor ratios.
fn segment_layers(l: &mut Layers, seg: &Segment, tr: &Tracer) {
    let s = &seg.sender;
    let naks: u64 = seg.receivers.iter().map(|r| r.naks_sent).sum();
    let feedback: u64 = seg.receivers.iter().map(ReceiverStats::feedback_sent).sum();
    let data = (s.data_packets_sent + s.retransmissions).max(1);
    l.set("core.retx_share", retx_share(s));
    l.set("core.naks_per_kpkt", naks as f64 * 1000.0 / data as f64);
    l.set("core.feedback_per_data_pkt", feedback as f64 / data as f64);
    l.set(
        "core.probes_per_release",
        s.probes_sent as f64 / s.segments_released.max(1) as f64,
    );
    l.set("core.complete_info_ratio", s.complete_info_ratio());
    l.set("core.rate_halvings", seg.rate_halvings as f64);
    l.set("core.urgent_stops", seg.urgent_stops as f64);
    l.set("core.gate_checks", s.gate_checks as f64);
    l.set("core.gate_members_scanned", s.gate_members_scanned as f64);

    let wall = seg.wall_ns as f64;
    let (send_ns, _) = tr.total("net.send");
    let (recv_ns, _) = tr.total("net.recv");
    let (close_ns, _) = tr.total("net.close_wait");
    l.set("net.send_blocked_share", send_ns as f64 / wall);
    l.set("net.recv_wait_share", recv_ns as f64 / wall);
    l.set("net.close_wait_ms", close_ns as f64 / 1e6);
    l.set("proc.cpu_ms_per_mb", seg.cpu_ms_per_mb);
    // What the producer and consumer threads spent outside library calls,
    // against the two thread-lifetimes of the segment.
    let own = tr.self_ns("harness.produce") + tr.self_ns("harness.consume");
    let threads = tr.total("harness.produce").0 + tr.total("harness.consume").0;
    l.set("harness.self_share", own as f64 / threads.max(1) as f64);

    let r = &seg.reactor;
    let pkts = (r.packets_rx + r.packets_tx).max(1) as f64;
    l.set("net.reactor.syscalls_per_pkt", r.syscalls_per_packet());
    l.set("net.reactor.rx_batch_mean", r.rx_batch_mean);
    l.set("net.reactor.tx_batch_mean", r.tx_batch_mean);
    l.set("net.reactor.wakeups_per_pkt", r.epoll_wakeups as f64 / pkts);
    l.set(
        "net.reactor.pkts_per_mb",
        pkts / (seg.bytes.max(1) as f64 / 1e6),
    );
    l.set("net.reactor.tx_retries", r.tx_retries as f64);
    l.set("net.reactor.tx_drops", r.tx_drops as f64);
    l.set("net.reactor.loop_p99_us", r.loop_p99_us as f64);
    l.set(
        "net.reactor.timer_slippage_p99_us",
        r.timer_slippage_p99_us as f64,
    );
    l.set(
        "net.reactor.timer_fires_per_s",
        r.timer_fires as f64 / (wall / 1e9),
    );
}

fn setup_layers(l: &mut Layers, tr: &Tracer) {
    let (ns, n) = tr.total("net.bind_sender");
    l.set("net.bind_sender_us", ns as f64 / 1e3 / n.max(1) as f64);
    let (ns, n) = tr.total("net.bind_receiver");
    l.set("net.bind_receiver_us", ns as f64 / 1e3 / n.max(1) as f64);
    let (ns, n) = tr.total("net.join");
    l.set("net.join_ms", ns as f64 / 1e6 / n.max(1) as f64);
}

/// `live_bulk`, traced: an untraced segment at the end-to-end rate (the
/// tracing-overhead reference for the first rung), then the four-rung
/// ladder, traced, on fresh sessions per rung, then the bare socket pair.
pub fn bulk_traced(seed: u64, seconds: u64) -> Result<(Layers, Tracer, Tally), Tally> {
    let run = Run::new(seed);
    let mut tr = Tracer::new(true, run.epoch);
    let mut l = Layers::default();
    // A collapsed rung takes seconds to drain its send buffer after its
    // time is up, so rungs get a fixed duration, not a fixed size.
    let rung_time = Duration::from_millis(seconds * 1000 / (LADDER.len() as u64 + 1));

    let (untraced, _) = run.segment(&BULK, 0, BULK.rate, rung_time, false, &mut tr)?;
    let mut tally = untraced.tally;
    let mut verdicts = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        tr.set_run(i as u32 + 1);
        let (seg, seg_tr) =
            run.segment(&BULK, 1 + i as u64, rate * MIB, rung_time, true, &mut tr)?;
        tally.add(seg.tally);
        report_segment(&format!("live_bulk rung {rate} MiB/s"), &seg);
        let naks: u64 = seg.receivers.iter().map(|r| r.naks_sent).sum();
        verdicts.push((rate, naks == 0 && seg.sender.retransmissions == 0));
        l.set(LADDER_GOODPUT[i], seg.goodput_mbps);
        l.set(LADDER_RETX[i], retx_share(&seg.sender));
        if i == 0 {
            // The first rung is the end-to-end configuration: its rows
            // are the workload's layer rows.
            segment_layers(&mut l, &seg, &seg_tr);
            l.set(
                "net.ladder.delivery_p99_us",
                latency(seg.latencies_ns.clone()).tail as f64 / 1e3,
            );
            l.set(
                "harness.trace_overhead_pct",
                (seg.cpu_ms_per_mb / untraced.cpu_ms_per_mb - 1.0) * 100.0,
            );
        }
        tr.merge(seg_tr);
    }
    l.set(
        "net.ladder.lossless_rate_mibps",
        lossless_rate(&verdicts) as f64,
    );
    setup_layers(&mut l, &tr);
    socket_pair(seed, &mut l, &mut tr).map_err(|e| refused(&NetError::Io(e)))?;
    Ok((l, tr, tally))
}

const LADDER_GOODPUT: [&str; 4] = [
    "net.ladder.r4.goodput_mbps",
    "net.ladder.r8.goodput_mbps",
    "net.ladder.r16.goodput_mbps",
    "net.ladder.r32.goodput_mbps",
];
const LADDER_RETX: [&str; 4] = [
    "net.ladder.r4.retx_share",
    "net.ladder.r8.retx_share",
    "net.ladder.r16.retx_share",
    "net.ladder.r32.retx_share",
];

/// `live_stream`, traced: half the time untraced (the overhead
/// reference), half traced, on fresh sessions each.
pub fn stream_traced(seed: u64, seconds: u64) -> Result<(Layers, Tracer, Tally), Tally> {
    let run = Run::new(seed);
    let mut tr = Tracer::new(true, run.epoch);
    let mut l = Layers::default();
    let half = Duration::from_millis(seconds * 500);

    let (untraced, _) = run.segment(&STREAM, 0, STREAM.rate, half, false, &mut tr)?;
    let (traced, seg_tr) = run.segment(&STREAM, 1, STREAM.rate, half, true, &mut tr)?;
    let mut tally = untraced.tally;
    tally.add(traced.tally);
    report_segment("live_stream traced", &traced);
    segment_layers(&mut l, &traced, &seg_tr);
    tr.merge(seg_tr);

    l.set(
        "harness.trace_overhead_pct",
        (traced.cpu_ms_per_mb / untraced.cpu_ms_per_mb - 1.0) * 100.0,
    );
    l.set(
        "net.stream.gen_late_max_us",
        traced.gen_late_max_ns as f64 / 1e3,
    );
    let max_ns = traced.latencies_ns.iter().max().copied().unwrap_or(0);
    l.set("net.stream.delivery_max_us", (max_ns / 1_000) as f64);
    setup_layers(&mut l, &tr);
    Ok((l, tr, tally))
}

/// The kernel floor: a bare `McastSocket::send_batch` / `RxBatch::recv`
/// pair moving 100 k datagrams of each size with no protocol above it.
fn socket_pair(seed: u64, l: &mut Layers, tr: &mut Tracer) -> std::io::Result<()> {
    const DATAGRAMS: usize = 100_000;
    const BATCH: usize = 32;
    for (size, tx_name, rx_name) in [
        (
            1400usize,
            "net.socket.tx_ns_per_pkt",
            "net.socket.rx_ns_per_pkt",
        ),
        (
            64,
            "net.socket.tx_small_ns_per_pkt",
            "net.socket.rx_small_ns_per_pkt",
        ),
    ] {
        let g = group(seed, 0x100 + size as u64);
        let rx = McastSocket::receiver(g, LO)?;
        let tx = McastSocket::sender(g, LO)?;
        rx.set_nonblocking(true)?;
        let bufs: Vec<Vec<u8>> = (0..BATCH)
            .map(|i| gen::payload(gen::derive(seed, i as u64), size)[..size].to_vec())
            .collect();
        let dsts = vec![SocketAddr::V4(g); BATCH];
        let mut batch = RxBatch::new();
        let (mut tx_ns, mut rx_ns, mut sent, mut got) = (0u64, 0u64, 0u64, 0u64);
        // Send one batch, then drain it: the socket buffer never holds
        // more than a batch, so nothing is dropped and both directions
        // move the same datagrams.
        while (sent as usize) < DATAGRAMS {
            tr.enter("net.socket.tx");
            let t0 = Instant::now();
            let n = tx.send_batch(&bufs, &dsts)?;
            tx_ns += t0.elapsed().as_nanos() as u64;
            tr.exit();
            sent += n as u64;
            let mut drained = 0;
            let give_up = Instant::now() + Duration::from_secs(2);
            while drained < n && Instant::now() < give_up {
                tr.enter("net.socket.rx");
                let t0 = Instant::now();
                let r = batch.recv(&rx);
                let dt = t0.elapsed().as_nanos() as u64;
                tr.exit();
                match r {
                    Ok(k) if k > 0 => {
                        rx_ns += dt;
                        drained += k;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            got += drained as u64;
        }
        if got < sent {
            eprintln!(
                "socket pair: {} of {sent} datagrams of {size} B not received",
                sent - got
            );
        }
        l.set(tx_name, tx_ns as f64 / sent.max(1) as f64);
        l.set(rx_name, rx_ns as f64 / got.max(1) as f64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_lower_rung_caps_the_lossless_rate() {
        assert_eq!(
            lossless_rate(&[(4, true), (8, true), (16, false), (32, true)]),
            8
        );
        assert_eq!(
            lossless_rate(&[(4, true), (8, false), (16, true), (32, true)]),
            4
        );
        assert_eq!(
            lossless_rate(&[(4, false), (8, true), (16, true), (32, true)]),
            0
        );
        assert_eq!(
            lossless_rate(&[(4, true), (8, true), (16, true), (32, true)]),
            32
        );
    }

    #[test]
    fn a_refused_socket_fails_every_stream() {
        let t = refused(&NetError::Timeout);
        assert_eq!(t.failure_share(), 1.0);
        assert_eq!(t.attempted, RECEIVERS as u64);
    }

    #[test]
    fn parser_flags_corrupt_reordered_and_late_records() {
        let pool = gen::payload(5, POOL);
        let mut recs = Vec::new();
        for idx in 0..4u64 {
            let mut r = vec![0u8; 256];
            fill_record(&mut r, &pool, idx, if idx == 0 { 0 } else { 1_000 });
            recs.push(r);
        }
        recs[2][100] ^= 0xFF;
        let stream: Vec<u8> = recs.concat();
        let mut p = Parser {
            rec: vec![0u8; 256],
            filled: 0,
            next_idx: 0,
        };
        let (mut lat, mut ok) = (Vec::new(), 0u64);
        // Uneven chunks: record boundaries fall inside reads.
        for c in stream.chunks(100) {
            p.feed(c, 5_000, &pool, 1_000, 10_000, &mut lat, &mut ok);
        }
        // Record 0 is the set-up record: checked, never timed.
        assert_eq!(lat, vec![4_000; 3]);
        assert_eq!(ok, 3, "the flipped record must not count");

        let (mut lat, mut ok) = (Vec::new(), 0u64);
        p.next_idx = 1;
        p.feed(&recs[1], 50_000, &pool, 1_000, 10_000, &mut lat, &mut ok);
        assert_eq!(ok, 0, "a record later than the limit must not count");
        p.feed(&recs[3], 5_000, &pool, 1_000, 10_000, &mut lat, &mut ok);
        assert_eq!(ok, 0, "an out-of-order record must not count");
    }
}
