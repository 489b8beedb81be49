//! The simulation event loop (paper §5.2).
//!
//! "The simulation of packet flow work\[s\] as follows. At a given host,
//! outgoing packets are constructed with a full H-RMC header and a
//! partial IP header, and then passed to the local router. Within a
//! router, the packets are taken from the local queue, assigned a delay
//! according to the network speed, and passed on to the next router or to
//! the appropriate network interface, as dictated by the IP destination.
//! Multicast packets are duplicated within a router as necessary. At the
//! network interface, packets are received one at a time, held for the
//! assigned delay, and then passed to the host. At the host, incoming
//! packets are passed to the H-RMC protocol, where normal processing
//! continues."
//!
//! The copies a last-hop router hands down for one packet are scheduled
//! as one `Ev::ReceiverRx` event per arrival instant, listing the receiver
//! hosts; dispatch hands the packet to each listed host in turn, one at
//! a time as the paper's interfaces receive it, in exactly the order
//! per-receiver events would have fired.
//!
//! Host 0 is the sender; receiver `i` (0-based) is host `i + 1` and is
//! identified to the sender engine as `PeerId(i)`. All routing state uses
//! receiver indices; conversion to host ids happens only at delivery.

use hrmc_core::{
    Dest, MetricsRegistry, PeerId, ProtocolConfig, ReceiverEngine, Sampler, SenderEngine, JIFFY_US,
};
use hrmc_wire::Packet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use crate::apps::{IoProfile, SinkApp, SourceApp};
use crate::dynamics::{LinkAction, LinkSchedule};
use crate::faults::{ChurnAction, FaultPlan};
use crate::host::{Engine, Host};
use crate::nic::{Nic, TxOutcome};
use crate::obs::{HostObserver, SharedObs};
use crate::queue::EventQueue;
use crate::report::{LatencyReport, ReceiverReport, SimReport};
use crate::router::{EnqueueOutcome, Route, Router, Transit};
use crate::topology::Topology;

/// Drop an arriving packet when the destination host's RX processing
/// backlog exceeds this many microseconds (`netdev_max_backlog` analog):
/// an overdriven host sheds load instead of queueing unboundedly.
const HOST_BACKLOG_US: u64 = 50_000;

/// Parameters of one simulation run.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Protocol configuration shared by the sender and every receiver.
    pub protocol: ProtocolConfig,
    /// Network topology.
    pub topology: Topology,
    /// Transfer size in bytes (the paper's 10 MB / 40 MB files).
    pub transfer_bytes: u64,
    /// Sender application I/O profile (memory or disk read).
    pub source: IoProfile,
    /// Receiver application I/O profile (memory or disk write).
    pub sink: IoProfile,
    /// RNG seed; identical seeds give identical runs.
    pub seed: u64,
    /// Give up after this much simulated time (µs).
    pub horizon_us: u64,
    /// Scale factor on the paper's per-packet host processing delays
    /// (1.0 = the measured 300 MHz constants).
    pub cpu_scale: f64,
    /// When set, sample the world into a [`MetricsRegistry`] every this
    /// many simulated microseconds and record it through the core
    /// [`Sampler`]; retrieve the [`hrmc_core::TelemetrySample`] series
    /// from [`SimReport::timeseries`]. Counters: `data_packets_sent`,
    /// `retransmissions`, `probes_sent`, `naks_sent` (all receivers) and
    /// `rate_halvings`, named as on the live stack, plus the sim-only
    /// `first_tx_bytes`, `bytes_received`, `feedback_received` and
    /// `drops` (router loss and overflow, NIC transmit and receive).
    /// Gauges: `rate_bps` and `srtt_us`, plus the sim-only
    /// `sender_buffered_bytes`, `recovery_backlog`,
    /// `window_occupancy_pct` and `completed_receivers`. Sampling is
    /// read-only — it never schedules events or draws from the RNG, so
    /// an armed run is bit-for-bit identical to an unarmed one.
    pub sample_interval_us: Option<u64>,
    /// Install [`crate::obs`] observers into every engine, collecting
    /// delivery- and recovery-latency histograms reported through
    /// [`SimReport::latency`].
    pub observe: bool,
    /// Arm the online [`hrmc_core::HealthMonitor`] over the pooled event
    /// stream (implies observation), judging ejections against
    /// `protocol.probe_failure_limit`. Alert transitions land in
    /// [`SimReport::alerts`] and, when an event log or flight recorder
    /// is attached, as host-less `health_alert` lines. `false` (the
    /// default) leaves the run bit-for-bit identical to an unmonitored
    /// one.
    pub health: bool,
    /// Injected faults: link misbehavior, partitions, host churn. The
    /// default (empty) plan leaves the run bit-for-bit identical to a
    /// fault-free simulation under the same seed.
    pub faults: FaultPlan,
    /// Time-varying link dynamics: capacity collapse/recovery,
    /// bufferbloat, jitter spikes, asymmetric up-paths, receiver
    /// migration. The default (empty) schedule leaves the run
    /// bit-for-bit identical to a static-network simulation under the
    /// same seed.
    pub links: LinkSchedule,
}

impl SimParams {
    /// Defaults for a memory-to-memory transfer on the given topology.
    pub fn new(protocol: ProtocolConfig, topology: Topology, transfer_bytes: u64) -> SimParams {
        SimParams {
            protocol,
            topology,
            transfer_bytes,
            source: IoProfile::Memory,
            sink: IoProfile::Memory,
            seed: 1,
            horizon_us: 3_600 * 1_000_000, // one simulated hour
            cpu_scale: 1.0,
            sample_interval_us: None,
            observe: false,
            health: false,
            faults: FaultPlan::default(),
            links: LinkSchedule::default(),
        }
    }
}

enum Ev {
    /// Deadline sweep: tick every host whose armed deadline has arrived
    /// (see [`Simulation::on_sweep`]). One sweep event replaces the old
    /// per-host per-jiffy `Tick`, and when the event queue is otherwise
    /// empty the next sweep jumps straight to the earliest armed host
    /// deadline instead of stepping every jiffy.
    Sweep,
    /// A feedback packet from receiver `from` finished the sender host's
    /// RX processing and reaches the sender engine.
    SenderRx { from: usize, pkt: Packet },
    /// One packet finished RX processing, at this same instant, on every
    /// listed receiver host; each gets it in list order. All copies one
    /// `Forward` delivers at one instant form one batch (see
    /// [`Simulation::deliver_to_receiver`]); a batch of k hosts counts
    /// as k events in [`SimReport::events_popped`].
    ReceiverRx { hosts: Vec<usize>, pkt: Packet },
    /// A packet finished host TX processing and reaches the host's NIC.
    NicEnq { host: usize, transit: Transit },
    /// A host NIC finished serializing its head packet.
    NicTxDeq { host: usize },
    /// A packet arrives at a router's input.
    RouterArrive { router: usize, transit: Transit },
    /// A router finished serializing its head packet.
    RouterDeq { router: usize },
    /// A packet finished the router's propagation delay; fan out.
    Forward { router: usize, transit: Transit },
    /// A scheduled churn action (crash / restart / pause / resume) fires;
    /// the index points into [`FaultPlan::churn`].
    Churn { idx: usize },
    /// A scheduled link change fires; the index points into
    /// [`LinkSchedule::events`].
    LinkChange { idx: usize },
}

/// One simulation run. Build with [`Simulation::new`], execute with
/// [`Simulation::run`].
pub struct Simulation {
    params: SimParams,
    queue: EventQueue<Ev>,
    hosts: Vec<Host>,
    nics: Vec<Nic>,
    routers: Vec<Router>,
    rng: SmallRng,
    obs: Option<Arc<Mutex<SharedObs>>>,
    /// Per-host next-tick deadline (absolute, jiffy-grid-aligned), from
    /// the engines' `next_wakeup`; `None` while a host is fully idle.
    /// Re-derived after every tick and every packet arrival. This vector
    /// is the source of truth; `due_heap` is only an index into it.
    due: Vec<Option<u64>>,
    /// Lazy-deletion min-heap over `(deadline, host)` mirroring `due`.
    /// Invariant: every `due[host] == Some(d)` has a `(d, host)` entry.
    /// An arm pushes an entry only when it changes the deadline, disarms
    /// and re-arms leave stale entries behind, and stale entries are
    /// discarded when they surface at the top. Lets a sweep find the
    /// hosts that are actually due — and the earliest armed deadline —
    /// without scanning every host, which is what keeps a 100k-receiver
    /// sweep from costing 100k comparisons per jiffy.
    due_heap: BinaryHeap<Reverse<(u64, usize)>>,
    done: bool,
    /// Packets severed by scheduled partitions.
    partition_drops: u64,
    /// Packets discarded after injected corruption tripped the checksum.
    corruption_drops: u64,
    /// Extra copies delivered by the duplication fault.
    duplicates_injected: u64,
    /// Packets delayed by the reordering fault.
    reorders_injected: u64,
    /// Packets discarded at crashed or frozen hosts.
    churn_drops: u64,
    /// Link-schedule events applied so far.
    link_events_applied: u64,
    /// Down-path packets dropped at an off-path router after a receiver
    /// migrated away (in-flight packets lost to a handover).
    migration_drops: u64,
    /// Feedback packets dropped by the asymmetric up-path impairment.
    up_loss_drops: u64,
    /// Current extra one-way delay on feedback packets (µs; schedule-set).
    up_extra_delay_us: u64,
    /// Current feedback drop probability (schedule-set; 0.0 means the
    /// up-path draws nothing from the RNG, preserving fixture replays).
    up_extra_loss: f64,
    /// Unbounded sim-time telemetry recorder; `None` unless
    /// [`SimParams::sample_interval_us`] is set. Its latest sample fixes
    /// the next grid instant.
    sampler: Option<Sampler>,
    /// Receiver deliveries of the `Forward` being dispatched, grouped by
    /// arrival instant in scheduling order; flushed as
    /// [`Ev::ReceiverRx`] batches before the `Forward` returns, so it is
    /// empty between events.
    pending_rx: Vec<(u64, Vec<usize>)>,
    /// Batch members dispatched after the first of their
    /// [`Ev::ReceiverRx`]: each stands for a per-receiver event, so
    /// `events_popped` adds them to the queue's pop count.
    batched_rx: u64,
}

/// Local port of receiver `i`. Wraps past 65 535 (index 57 536 up): the
/// simulator addresses hosts by index, never by port, and the
/// 100k-receiver fan-out has more hosts than there are ports.
fn receiver_port(i: usize) -> u16 {
    8000u16.wrapping_add(i as u16)
}

/// First jiffy-grid point strictly after `now`.
fn next_grid(now: u64) -> u64 {
    (now / JIFFY_US + 1) * JIFFY_US
}

/// Align an engine wakeup deadline to the jiffy grid: the first grid
/// point at or after both `wakeup` and `now` — the earliest instant the
/// old always-ticking scheduler would have acted on that timer, which is
/// what keeps the two schedulers trajectory-identical.
fn align_to_grid(wakeup: u64, now: u64) -> u64 {
    wakeup.max(now).div_ceil(JIFFY_US) * JIFFY_US
}

impl Simulation {
    /// Construct the simulation world from its parameters.
    pub fn new(params: SimParams) -> Simulation {
        let n = params.topology.receivers();
        let mut hosts = Vec::with_capacity(n + 1);
        let sender = SenderEngine::new(params.protocol.clone(), 7000, 7001, 0, 0);
        hosts.push(Host::sender(
            sender,
            SourceApp::new(params.transfer_bytes, params.source, 0),
        ));
        for i in 0..n {
            let mut engine =
                ReceiverEngine::new(params.protocol.clone(), receiver_port(i), 7001, 0);
            // Experiment semantics: receivers start before the sender and
            // expect the stream from its first segment.
            engine.expect_stream_start(0);
            hosts.push(Host::receiver(engine, SinkApp::new(params.sink, 0)));
        }
        for h in &mut hosts {
            h.cpu_scale = params.cpu_scale;
        }
        let mut nics = Vec::with_capacity(n + 1);
        nics.push(Nic::new(params.topology.sender_nic.clone()));
        for p in &params.topology.receiver_nics {
            nics.push(Nic::new(p.clone()));
        }
        let routers = params
            .topology
            .routers
            .iter()
            .map(|p| Router::new(p.clone()))
            .collect();
        let mut queue = EventQueue::new();
        // Every host starts armed for the first jiffy; a single Sweep
        // event services them all.
        queue.schedule(JIFFY_US, Ev::Sweep);
        // Churn fires at its scheduled instants (none in a fault-free
        // run, so the event stream is untouched by an empty plan).
        for idx in 0..params.faults.churn.len() {
            queue.schedule(params.faults.churn[idx].at_us, Ev::Churn { idx });
        }
        // Link dynamics likewise: an empty schedule adds zero events.
        for idx in 0..params.links.events.len() {
            queue.schedule(params.links.events[idx].at_us, Ev::LinkChange { idx });
        }
        let due = vec![Some(JIFFY_US); n + 1];
        let due_heap = (0..=n).map(|h| Reverse((JIFFY_US, h))).collect();
        let rng = SmallRng::seed_from_u64(params.seed);
        let sampler = params.sample_interval_us.map(|_| Sampler::new(usize::MAX));
        let mut sim = Simulation {
            params,
            queue,
            hosts,
            nics,
            routers,
            rng,
            obs: None,
            due,
            due_heap,
            done: false,
            partition_drops: 0,
            corruption_drops: 0,
            duplicates_injected: 0,
            reorders_injected: 0,
            churn_drops: 0,
            link_events_applied: 0,
            migration_drops: 0,
            up_loss_drops: 0,
            up_extra_delay_us: 0,
            up_extra_loss: 0.0,
            sampler,
            pending_rx: Vec::new(),
            batched_rx: 0,
        };
        if sim.params.observe || sim.params.health {
            sim.install_observers();
        }
        sim
    }

    /// Install a [`HostObserver`] into every engine, all feeding one
    /// shared collector (with the online health monitor armed when
    /// [`SimParams::health`] asks for it). Idempotent.
    fn install_observers(&mut self) {
        let health = self.params.health.then_some(hrmc_core::HealthConfig {
            probe_failure_limit: self.params.protocol.probe_failure_limit,
        });
        let shared = self
            .obs
            .get_or_insert_with(|| {
                let mut obs = SharedObs::new();
                if let Some(cfg) = health {
                    obs.set_monitor(cfg);
                }
                Arc::new(Mutex::new(obs))
            })
            .clone();
        for (host, h) in self.hosts.iter_mut().enumerate() {
            let obs = Box::new(HostObserver::new(host, shared.clone()));
            match &mut h.engine {
                Engine::Sender(e) => e.set_observer(obs),
                Engine::Receiver(e) => e.set_observer(obs),
            }
        }
    }

    /// Stream every protocol event from every host to `w` as JSON lines
    /// (simulation timestamps, a `"host"` field per line). Implies
    /// observation even when [`SimParams::observe`] was not set.
    pub fn set_event_log(&mut self, w: Box<dyn std::io::Write + Send>) {
        if self.obs.is_none() {
            self.install_observers();
        }
        self.obs
            .as_ref()
            .expect("just installed")
            .lock()
            .unwrap()
            .set_log(w);
    }

    /// Run to completion (or the horizon) and report.
    pub fn run(mut self) -> SimReport {
        while self.step() {}
        self.report()
    }

    /// Pop and dispatch one event; `false` once the run is over (queue
    /// drained, horizon passed, or transfer complete).
    fn step(&mut self) -> bool {
        let Some((now, ev)) = self.queue.pop() else {
            return false;
        };
        if now > self.params.horizon_us {
            return false;
        }
        self.maybe_sample(now);
        self.dispatch(now, ev);
        !self.done
    }

    fn dispatch(&mut self, now: u64, ev: Ev) {
        match ev {
            Ev::Sweep => self.on_sweep(now),
            Ev::SenderRx { from, pkt } => self.on_sender_rx(from, &pkt, now),
            Ev::ReceiverRx { hosts, pkt } => {
                // Stop where per-receiver events would have: the run
                // loop pops nothing more once `done` is set.
                for (i, &host) in hosts.iter().enumerate() {
                    if self.done {
                        break;
                    }
                    self.batched_rx += u64::from(i > 0);
                    self.on_receiver_rx(host, &pkt, now);
                }
            }
            Ev::NicEnq { host, transit } => self.on_nic_enq(host, transit, now),
            Ev::NicTxDeq { host } => self.on_nic_tx_deq(host, now),
            Ev::RouterArrive { router, transit } => self.on_router_arrive(router, transit, now),
            Ev::RouterDeq { router } => self.on_router_deq(router, now),
            Ev::Forward { router, transit } => self.on_forward(router, transit, now),
            Ev::Churn { idx } => self.on_churn(idx, now),
            Ev::LinkChange { idx } => self.on_link_change(idx),
        }
    }

    // ------------------------------------------------------------------
    // Hosts
    // ------------------------------------------------------------------

    /// Arm (or re-arm) a host's tick deadline: write the source of truth
    /// and index the new value in the heap. A re-arm leaves the old heap
    /// entry behind as garbage; it is discarded when it surfaces. An
    /// unchanged deadline pushes nothing: its entry is still in the heap
    /// (most packet arrivals re-derive the deadline the host already has).
    fn set_due(&mut self, host: usize, deadline: Option<u64>) {
        if self.due[host] == deadline {
            return;
        }
        self.due[host] = deadline;
        if let Some(d) = deadline {
            self.due_heap.push(Reverse((d, host)));
        }
    }

    /// Pull a host's deadline earlier (never later): used by the wakeup
    /// paths that need a host serviced by `at` without losing an already
    /// sooner deadline.
    fn arm_no_later(&mut self, host: usize, at: u64) {
        let d = self.due[host].map_or(at, |cur| cur.min(at));
        self.set_due(host, Some(d));
    }

    /// Earliest armed host deadline, via the heap: lazy-discard entries
    /// that no longer match `due` until the top is live. Every armed host
    /// keeps at least one matching entry (the invariant on `due_heap`),
    /// so a validating top entry is the true minimum.
    fn earliest_due(&mut self) -> Option<u64> {
        while let Some(&Reverse((t, host))) = self.due_heap.peek() {
            if self.due[host] == Some(t) {
                return Some(t);
            }
            self.due_heap.pop();
        }
        None
    }

    /// Service every host whose deadline has arrived (in host order, as
    /// the old per-host `Tick` events fired), then schedule the next
    /// sweep: one jiffy ahead while packet events are still in flight
    /// (they can arm hosts between grid points), or — the
    /// activity-proportional jump — straight to the earliest armed host
    /// deadline once the event queue is otherwise empty.
    ///
    /// Due hosts come from the deadline heap, not a scan of every host:
    /// pop everything at or before `now` (stale entries included — the
    /// `due` check below rejects them, exactly as the old full scan
    /// did), then service the survivors in host order so the trajectory
    /// is byte-identical to the scanning scheduler's.
    fn on_sweep(&mut self, now: u64) {
        let mut ready: Vec<usize> = Vec::new();
        while let Some(&Reverse((t, host))) = self.due_heap.peek() {
            if t > now {
                break;
            }
            self.due_heap.pop();
            ready.push(host);
        }
        ready.sort_unstable();
        ready.dedup();
        for host in ready {
            if self.due[host].is_some_and(|d| d <= now) {
                self.due[host] = None;
                self.tick_host(host, now);
                if self.done {
                    return;
                }
            }
        }
        let next = if self.queue.is_empty() {
            match self.earliest_due() {
                Some(d) => d.max(next_grid(now)),
                None => return, // fully idle: the run is over
            }
        } else {
            now + JIFFY_US
        };
        self.queue.schedule(next, Ev::Sweep);
    }

    /// Execute one scheduled churn action.
    fn on_churn(&mut self, idx: usize, now: u64) {
        match self.params.faults.churn[idx].action {
            ChurnAction::Crash { host } => {
                if host < self.hosts.len() && !self.hosts[host].crashed {
                    self.hosts[host].crashed = true;
                    self.due[host] = None;
                    // Wake the sender so the completion check (and any
                    // ejection logic) sees the change on the next sweep.
                    if host != 0 {
                        self.arm_no_later(0, next_grid(now));
                    }
                }
            }
            ChurnAction::Restart { host } => self.restart_receiver(host, now),
            ChurnAction::PauseSender => self.hosts[0].paused = true,
            ChurnAction::ResumeSender => {
                if self.hosts[0].paused {
                    self.hosts[0].paused = false;
                    self.arm_no_later(0, next_grid(now));
                }
            }
        }
    }

    /// Apply one scheduled link change. Parameter mutations take effect
    /// from the next enqueue/dequeue (service times are computed per
    /// packet); a packet already being serialized finishes at the old
    /// speed, exactly as a real link change catches a frame in flight.
    /// Malformed events (out-of-range router/receiver, empty migration
    /// path) are ignored rather than panicking — the schedule is data,
    /// often trace-driven, and must never crash the run.
    fn on_link_change(&mut self, idx: usize) {
        match &self.params.links.events[idx].action {
            LinkAction::SetRouterBandwidth {
                router,
                bandwidth_bps,
            } => {
                if let Some(r) = self.routers.get_mut(*router) {
                    r.params.bandwidth_bps = *bandwidth_bps;
                } else {
                    return;
                }
            }
            LinkAction::SetRouterLoss { router, loss } => {
                if let Some(r) = self.routers.get_mut(*router) {
                    r.params.loss = loss.clamp(0.0, 1.0);
                } else {
                    return;
                }
            }
            LinkAction::SetRouterDelay { router, delay_us } => {
                if let Some(r) = self.routers.get_mut(*router) {
                    r.params.delay_us = *delay_us;
                } else {
                    return;
                }
            }
            LinkAction::SetRouterQueue { router, packets } => {
                if let Some(r) = self.routers.get_mut(*router) {
                    r.params.queue_packets = (*packets).max(1);
                } else {
                    return;
                }
            }
            LinkAction::SetNicRxLoss { receiver, model } => {
                let (host, model) = (receiver + 1, *model);
                let Some(nic) = self.nics.get_mut(host) else {
                    return;
                };
                nic.set_rx_loss(model);
            }
            LinkAction::SetUpPath {
                extra_delay_us,
                loss,
            } => {
                self.up_extra_delay_us = *extra_delay_us;
                self.up_extra_loss = loss.clamp(0.0, 1.0);
            }
            LinkAction::Migrate { receiver, path } => {
                let ok = *receiver < self.params.topology.paths.len()
                    && !path.is_empty()
                    && path.iter().all(|&r| r < self.routers.len());
                if !ok {
                    return;
                }
                let path = path.clone();
                self.params.topology.paths[*receiver] = path;
            }
        }
        self.link_events_applied += 1;
    }

    /// Revive a crashed receiver host with a fresh engine. It re-attaches
    /// wherever it tunes in and performs a brand-new JOIN handshake (the
    /// late-join path); the completion check treats it as best-effort.
    fn restart_receiver(&mut self, host: usize, now: u64) {
        if host == 0 || host >= self.hosts.len() || !self.hosts[host].crashed {
            return;
        }
        let i = host - 1;
        let engine = ReceiverEngine::new(self.params.protocol.clone(), receiver_port(i), 7001, now);
        let h = &mut self.hosts[host];
        h.engine = Engine::Receiver(Box::new(engine));
        h.sink = Some(SinkApp::new(self.params.sink, now));
        h.crashed = false;
        h.restarted = true;
        if let Some(shared) = &self.obs {
            let obs = Box::new(HostObserver::new(host, shared.clone()));
            if let Engine::Receiver(e) = &mut self.hosts[host].engine {
                e.set_observer(obs);
            }
        }
        self.set_due(host, Some(next_grid(now)));
    }

    /// `true` when a scheduled partition currently severs `receiver`.
    fn partitioned(&self, receiver: usize, now: u64) -> bool {
        self.params
            .faults
            .partitions
            .iter()
            .any(|p| p.blocks(receiver, now))
    }

    /// One host tick — exactly the old per-jiffy `Tick` body — followed
    /// by re-deriving the host's next deadline from its engine.
    fn tick_host(&mut self, host: usize, now: u64) {
        if self.hosts[host].crashed {
            return; // dead silicon: the deadline stays disarmed
        }
        if self.hosts[host].paused {
            // Frozen process: do nothing, but stay armed so the resume
            // action finds a live timer.
            self.set_due(host, Some(next_grid(now)));
            return;
        }
        {
            let h = &mut self.hosts[host];
            h.ticks += 1;
            if matches!(h.engine, Engine::Sender(_)) {
                h.pump_source(now);
                if let Engine::Sender(e) = &mut h.engine {
                    e.on_tick(now);
                }
            } else if let Engine::Receiver(e) = &mut h.engine {
                e.on_tick(now);
            }
        }
        if host != 0 {
            self.pump_sink_arming(host, now);
        }
        self.drain_engine(host, now);
        if host == 0 && self.check_done(now) {
            self.done = true;
            return;
        }
        self.set_due(host, self.next_due(host, now));
    }

    /// Pump a receiver's sink; when that completes the stream, arm the
    /// sender host so the completion check runs on the next sweep (the
    /// sender may already be idle with no deadline of its own).
    fn pump_sink_arming(&mut self, host: usize, now: u64) {
        let was_complete = self.hosts[host].completed_at.is_some();
        self.hosts[host].pump_sink(now);
        if !was_complete && self.hosts[host].completed_at.is_some() {
            self.arm_no_later(0, next_grid(now));
        }
    }

    /// The host's next tick deadline, from its engine's `next_wakeup` —
    /// the simulator analog of a kernel timer wheel. Forced to the next
    /// grid point while host-level pumping still has work the engine
    /// cannot see: an unclosed source, or a throttled sink with readable
    /// bytes left.
    fn next_due(&self, host: usize, now: u64) -> Option<u64> {
        let h = &self.hosts[host];
        match &h.engine {
            Engine::Sender(e) => {
                if !h.closed {
                    return Some(next_grid(now));
                }
                match e.next_wakeup(now) {
                    None => None,
                    // `now + JIFFY_US` is the engine's "tick me every
                    // jiffy" answer (transfer in progress). The old
                    // scheduler honored it at the very next grid point —
                    // even when the arming packet landed mid-jiffy — so
                    // map the relative wish to the grid, not past it.
                    Some(w) if w == now + JIFFY_US => Some(next_grid(now)),
                    Some(w) => Some(align_to_grid(w, now)),
                }
            }
            Engine::Receiver(e) => {
                if e.readable_bytes() > 0 {
                    return Some(next_grid(now));
                }
                e.next_wakeup(now).map(|w| align_to_grid(w, now))
            }
        }
    }

    fn on_sender_rx(&mut self, from: usize, pkt: &Packet, now: u64) {
        if self.hosts[0].crashed || self.hosts[0].paused {
            self.churn_drops += 1;
            return;
        }
        let Engine::Sender(engine) = &mut self.hosts[0].engine else {
            unreachable!()
        };
        engine.handle_packet(pkt, PeerId(from as u32), now);
        self.drain_engine(0, now);
        // A packet can arm or disarm any engine timer: re-derive the
        // host's deadline.
        self.set_due(0, self.next_due(0, now));
    }

    fn on_receiver_rx(&mut self, host: usize, pkt: &Packet, now: u64) {
        if self.hosts[host].crashed {
            self.churn_drops += 1;
            return;
        }
        let Engine::Receiver(engine) = &mut self.hosts[host].engine else {
            unreachable!()
        };
        engine.handle_packet(pkt, now);
        self.pump_sink_arming(host, now);
        self.drain_engine(host, now);
        self.set_due(host, self.next_due(host, now));
    }

    /// Move every packet the host's engine queued onto the wire: charge
    /// the host CPU, then hand to the NIC transmit queue.
    fn drain_engine(&mut self, host: usize, now: u64) {
        loop {
            let out = match &mut self.hosts[host].engine {
                Engine::Sender(e) => e.poll_output(),
                Engine::Receiver(e) => e.poll_output(),
            };
            let Some(out) = out else { break };
            let n = self.params.topology.receivers();
            let routes: Vec<Route> = match out.dest {
                Dest::Multicast if host == 0 => {
                    vec![Route::Down {
                        dests: (0..n).collect(),
                        hop: 0,
                    }]
                }
                // Receiver-originated multicast (local-recovery NAKs and
                // repairs): one copy climbs to the sender, one is
                // injected at the root and fans to the other receivers
                // (approximation documented in DESIGN.md — the climb to
                // the root is not charged for the fan-out copy).
                Dest::Multicast => {
                    let peers: Vec<usize> = (0..n).filter(|&d| d != host - 1).collect();
                    let mut v = vec![Route::Up {
                        from: host - 1,
                        hop: 0,
                    }];
                    if !peers.is_empty() {
                        v.push(Route::Down {
                            dests: peers,
                            hop: 0,
                        });
                    }
                    v
                }
                Dest::Unicast(p) => vec![Route::Down {
                    dests: vec![p.0 as usize],
                    hop: 0,
                }],
                Dest::Sender => vec![Route::Up {
                    from: host - 1,
                    hop: 0,
                }],
            };
            let ready = self.hosts[host].charge_cpu(out.packet.payload.len(), now);
            for route in routes {
                self.queue.schedule(
                    ready,
                    Ev::NicEnq {
                        host,
                        transit: Transit {
                            pkt: out.packet.clone(),
                            route,
                        },
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // NICs
    // ------------------------------------------------------------------

    fn on_nic_enq(&mut self, host: usize, transit: Transit, now: u64) {
        if let TxOutcome::StartService { service_us } = self.nics[host].tx_enqueue(transit) {
            self.queue.schedule(now + service_us, Ev::NicTxDeq { host });
        }
    }

    fn on_nic_tx_deq(&mut self, host: usize, now: u64) {
        let (transit, next) = self.nics[host].tx_dequeue();
        if let Some(svc) = next {
            self.queue.schedule(now + svc, Ev::NicTxDeq { host });
        }
        // The packet is on the wire: route it to its first router.
        let first_router = match &transit.route {
            Route::Down { dests, .. } => {
                // Sender-rooted paths share their first router.
                self.params.topology.paths[dests[0]][0]
            }
            Route::Up { from, .. } => self.params.topology.paths[*from]
                .last()
                .copied()
                .expect("receiver with empty router path"),
        };
        self.queue.schedule(
            now,
            Ev::RouterArrive {
                router: first_router,
                transit,
            },
        );
    }

    // ------------------------------------------------------------------
    // Routers
    // ------------------------------------------------------------------

    fn on_router_arrive(&mut self, router: usize, transit: Transit, now: u64) {
        let roll = self.rng.gen::<f64>();
        if let EnqueueOutcome::StartService { service_us } =
            self.routers[router].enqueue(transit, roll)
        {
            self.queue
                .schedule(now + service_us, Ev::RouterDeq { router });
        }
    }

    fn on_router_deq(&mut self, router: usize, now: u64) {
        let (transit, next) = self.routers[router].dequeue();
        if let Some(svc) = next {
            self.queue.schedule(now + svc, Ev::RouterDeq { router });
        }
        let delay = self.routers[router].params.delay_us;
        self.queue
            .schedule(now + delay, Ev::Forward { router, transit });
    }

    /// Fan a served packet out of a router: on toward next-hop routers
    /// (multicast duplication happens here, for free, per the paper) or
    /// down to receiver NICs; feedback climbs the reversed path.
    fn on_forward(&mut self, router: usize, transit: Transit, now: u64) {
        match transit.route {
            Route::Down { dests, hop } => {
                let mut by_next: std::collections::BTreeMap<usize, Vec<usize>> =
                    std::collections::BTreeMap::new();
                for d in dests {
                    let path = &self.params.topology.paths[d];
                    // A migration can re-home the receiver while this
                    // packet is mid-path: the old route no longer leads
                    // anywhere, so the packet is lost at the handover
                    // (never delivered down a stale tree).
                    if path.get(hop) != Some(&router) {
                        self.migration_drops += 1;
                        continue;
                    }
                    if hop + 1 < path.len() {
                        by_next.entry(path[hop + 1]).or_default().push(d);
                    } else {
                        // Last router: deliver via the receiver's NIC.
                        self.deliver_to_receiver(d, &transit.pkt, now);
                    }
                }
                for (at, hosts) in self.pending_rx.drain(..) {
                    let pkt = transit.pkt.clone();
                    self.queue.schedule(at, Ev::ReceiverRx { hosts, pkt });
                }
                for (next_router, group) in by_next {
                    self.queue.schedule(
                        now,
                        Ev::RouterArrive {
                            router: next_router,
                            transit: Transit {
                                pkt: transit.pkt.clone(),
                                route: Route::Down {
                                    dests: group,
                                    hop: hop + 1,
                                },
                            },
                        },
                    );
                }
            }
            Route::Up { from, hop } => {
                let path = &self.params.topology.paths[from];
                // Reversed path: index hop counts from the tail.
                let pos_from_tail = hop + 1;
                if pos_from_tail < path.len() {
                    let next_router = path[path.len() - 1 - pos_from_tail];
                    self.queue.schedule(
                        now,
                        Ev::RouterArrive {
                            router: next_router,
                            transit: Transit {
                                pkt: transit.pkt,
                                route: Route::Up { from, hop: hop + 1 },
                            },
                        },
                    );
                } else {
                    // Reached the sender's side: deliver to host 0.
                    if self.hosts[0].crashed || self.hosts[0].paused {
                        self.churn_drops += 1;
                        return;
                    }
                    if self.partitioned(from, now) {
                        self.partition_drops += 1;
                        return; // feedback cannot cross the partition
                    }
                    if self.hosts[0].cpu_backlog(now) > HOST_BACKLOG_US {
                        self.hosts[0].backlog_drops += 1;
                        return; // feedback implosion sheds load too
                    }
                    // Asymmetric up-path impairment (schedule-set).
                    // Gated on a non-zero probability so a static run
                    // draws nothing extra from the RNG.
                    if self.up_extra_loss > 0.0 && self.rng.gen::<f64>() < self.up_extra_loss {
                        self.up_loss_drops += 1;
                        return;
                    }
                    let len = transit.pkt.payload.len();
                    let ready = self.hosts[0].charge_cpu(len, now);
                    self.queue.schedule(
                        ready + self.up_extra_delay_us,
                        Ev::SenderRx {
                            from,
                            pkt: transit.pkt,
                        },
                    );
                }
            }
        }
    }

    /// Run one copy through the receiver's NIC, faults and RX CPU, and
    /// queue its arrival in `pending_rx`: appended to the last group when
    /// it lands at that group's instant, else a new group. `on_forward`
    /// schedules the groups in order once its delivery loop is done.
    ///
    /// That is exact. Per-receiver events scheduled here would take
    /// consecutive insertion counters — nothing else schedules inside the
    /// delivery loop — so a run of them at one instant pops back to back
    /// with nothing in between, and whatever a member schedules at that
    /// instant gets a later counter and pops after the last member
    /// anyway. A group's members are such a run, dispatched in order.
    fn deliver_to_receiver(&mut self, receiver: usize, pkt: &Packet, now: u64) {
        let host = receiver + 1;
        if self.hosts[host].crashed {
            self.churn_drops += 1;
            return; // nobody is listening
        }
        if self.partitioned(receiver, now) {
            self.partition_drops += 1;
            return; // severed by a scheduled partition
        }
        let rolls = (self.rng.gen::<f64>(), self.rng.gen::<f64>());
        if !self.nics[host].rx_accept(rolls.0, rolls.1) {
            return; // uncorrelated NIC loss
        }
        if self.hosts[host].cpu_backlog(now) > HOST_BACKLOG_US {
            self.hosts[host].backlog_drops += 1;
            return; // RX backlog overflow: shed load
        }
        // Link-fault injection. Each fault draws from the RNG only when
        // its probability is non-zero, in a fixed order (corrupt,
        // duplicate, reorder), so an empty plan consumes the exact roll
        // sequence of a fault-free run.
        let f = self.params.faults.link;
        if f.corrupt > 0.0 {
            let roll = self.rng.gen::<f64>();
            if roll < f.corrupt && self.corrupt_and_discard(host, pkt, roll, now) {
                return;
            }
        }
        let copies = if f.duplicate > 0.0 && self.rng.gen::<f64>() < f.duplicate {
            self.duplicates_injected += 1;
            2
        } else {
            1
        };
        let mut extra = 0u64;
        if f.reorder > 0.0 {
            let roll = self.rng.gen::<f64>();
            if roll < f.reorder {
                self.reorders_injected += 1;
                // Reuse the accepted roll as the (uniform) delay fraction.
                extra = ((roll / f.reorder) * f.reorder_max_us as f64) as u64;
            }
        }
        let len = pkt.payload.len();
        for _ in 0..copies {
            let at = self.hosts[host].charge_cpu(len, now) + extra;
            match self.pending_rx.last_mut() {
                Some((t, hosts)) if *t == at => hosts.push(host),
                _ => self.pending_rx.push((at, vec![host])),
            }
        }
    }

    /// Flip one roll-derived bit of the encoded packet and let the wire
    /// checksum judge it. The internet checksum catches every single-bit
    /// flip, so the datagram is discarded and audited: the NIC counts it
    /// and the engine's checksum-failure counter/event fires, exactly as
    /// the UDP drivers do on a failed `Packet::decode`. Returns `true`
    /// when the packet was discarded.
    fn corrupt_and_discard(&mut self, host: usize, pkt: &Packet, roll: f64, now: u64) -> bool {
        let corrupt = self.params.faults.link.corrupt;
        let mut buf = pkt.encode();
        let nbits = buf.len() * 8;
        // Reuse the accepted roll, rescaled, to pick the bit.
        let bit = (((roll / corrupt) * nbits as f64) as usize).min(nbits - 1);
        buf[bit / 8] ^= 1 << (bit % 8);
        if Packet::decode(&buf).is_ok() {
            return false; // unreachable for a 1-bit flip; deliver intact
        }
        self.corruption_drops += 1;
        self.nics[host].rx_checksum_drops += 1;
        match &mut self.hosts[host].engine {
            Engine::Sender(e) => e.note_checksum_failure(now),
            Engine::Receiver(e) => e.note_checksum_failure(now),
        }
        true
    }

    // ------------------------------------------------------------------
    // Completion and reporting
    // ------------------------------------------------------------------

    fn check_done(&self, _now: u64) -> bool {
        let Engine::Sender(sender) = &self.hosts[0].engine else {
            unreachable!()
        };
        if !(self.hosts[0].closed && sender.is_finished()) {
            return false;
        }
        // Crashed receivers, best-effort restarted late joiners, and
        // receivers that declared a terminal session failure no longer
        // gate completion — the transfer is over for the survivors.
        self.hosts[1..].iter().all(|h| {
            if h.crashed || h.restarted || h.completed_at.is_some() {
                return true;
            }
            matches!(&h.engine, Engine::Receiver(r) if r.has_failed())
        })
    }

    /// Take a telemetry sample when sim time has reached the next grid
    /// point. A quiet simulation can jump many intervals in one event
    /// (the activity-proportional sweep), so the next deadline snaps to
    /// the first grid point strictly after `now` — one sample per jump,
    /// never a backfilled run of duplicates.
    fn maybe_sample(&mut self, now: u64) {
        let (Some(sampler), Some(interval)) = (&self.sampler, self.params.sample_interval_us)
        else {
            return;
        };
        let interval = interval.max(1);
        let next = sampler
            .latest()
            .map_or(interval, |s| (s.t_us / interval + 1) * interval);
        if now >= next {
            self.take_sample(now);
        }
    }

    /// Read current world state into a fresh [`MetricsRegistry`] and
    /// record it through the [`Sampler`] (see
    /// [`SimParams::sample_interval_us`] for the names). Read-only with
    /// respect to the simulation: no events scheduled, no RNG draws, no
    /// engine mutation — the event trajectory (and thus the pinned
    /// determinism fixtures) is untouched by sampling.
    fn take_sample(&mut self, now: u64) {
        let Engine::Sender(sender) = &self.hosts[0].engine else {
            unreachable!()
        };
        let s = &sender.stats;
        let mut reg = MetricsRegistry::new();
        reg.add("data_packets_sent", s.data_packets_sent);
        reg.add("first_tx_bytes", s.data_bytes_sent);
        reg.add("retransmissions", s.retransmissions);
        reg.add("probes_sent", s.probes_sent);
        reg.add("feedback_received", s.feedback_received());
        reg.add("rate_halvings", sender.rate_halvings());
        reg.set_gauge("rate_bps", sender.rate());
        reg.set_gauge("srtt_us", sender.rtt());
        reg.set_gauge("sender_buffered_bytes", sender.buffered_bytes() as u64);
        let drops = self.routers.iter().map(|r| r.loss_drops + r.overflow_drops);
        let nic_drops = self.nics.iter().map(|n| n.tx_drops + n.rx_drops());
        reg.add("drops", drops.chain(nic_drops).sum());
        let (mut backlog, mut occupancy, mut completed) = (0, 0.0, 0);
        for h in &self.hosts[1..] {
            let Engine::Receiver(r) = &h.engine else {
                unreachable!()
            };
            if let Some(sink) = &h.sink {
                reg.add("bytes_received", sink.received());
            }
            reg.add("naks_sent", r.stats.naks_sent);
            backlog += r.pending_naks() as u64;
            occupancy += r.window_occupancy();
            completed += u64::from(h.completed_at.is_some());
        }
        let n = (self.hosts.len() - 1).max(1) as f64;
        reg.set_gauge("recovery_backlog", backlog);
        reg.set_gauge(
            "window_occupancy_pct",
            (occupancy / n * 100.0).round() as u64,
        );
        reg.set_gauge("completed_receivers", completed);
        self.sampler
            .as_mut()
            .expect("sampling armed")
            .sample(now, &reg);
    }

    fn report(mut self) -> SimReport {
        // Close the telemetry grid with a final sample at the run's last
        // instant: short runs (finished inside the first interval) still
        // yield a non-empty series, and the series always ends on the
        // final state. A grid sample is taken before the event at its
        // instant runs, so when the last event (a sender tick, on the
        // jiffy grid) lands on a grid point, this one follows it at the
        // same instant with a zero interval.
        if self.sampler.is_some() {
            self.take_sample(self.queue.now());
        }
        let timeseries = self.sampler.take().map(|s| s.samples().cloned().collect());
        let Engine::Sender(sender) = &self.hosts[0].engine else {
            unreachable!()
        };
        let receivers: Vec<ReceiverReport> = self.hosts[1..]
            .iter()
            .map(|h| {
                let Engine::Receiver(r) = &h.engine else {
                    unreachable!()
                };
                let sink = h.sink.as_ref().expect("receiver host without sink");
                ReceiverReport {
                    stats: r.stats.clone(),
                    bytes: sink.received(),
                    completed_at: h.completed_at,
                    intact: sink.intact(),
                    failed: r.has_failed(),
                }
            })
            .collect();
        let completed = self.done;
        let elapsed_us = receivers
            .iter()
            .filter_map(|r| r.completed_at)
            .max()
            .unwrap_or(self.queue.now());
        let throughput_mbps = if elapsed_us > 0 {
            (self.params.transfer_bytes as f64 * 8.0) / elapsed_us as f64
        } else {
            0.0
        };
        // False-ejection audit: an ejection is justified only by ground
        // truth the simulator controls — the host actually crashed (or
        // crashed and was restarted as a late joiner) or was severed by
        // a scheduled partition. Anything else (jitter, bufferbloat,
        // migration) must not cost a member its membership.
        let mut audited = std::collections::BTreeSet::new();
        let false_ejections = sender
            .ejected_members()
            .iter()
            .map(|p| p.0 as usize)
            .filter(|&r| {
                if !audited.insert(r) {
                    return false; // one verdict per member
                }
                let legit_host = self
                    .hosts
                    .get(r + 1)
                    .is_some_and(|h| h.crashed || h.restarted);
                let partitioned = self
                    .params
                    .faults
                    .partitions
                    .iter()
                    .any(|p| p.receivers.contains(&r));
                !legit_host && !partitioned
            })
            .count() as u64;
        let mut alerts = Vec::new();
        let latency = self.obs.as_ref().map(|shared| {
            let mut s = shared.lock().unwrap();
            s.flush();
            alerts = std::mem::take(&mut s.alerts);
            LatencyReport {
                delivery: s.delivery.summary(),
                recovery: s.recovery.summary(),
            }
        });
        SimReport {
            completed,
            elapsed_us,
            throughput_mbps,
            transfer_bytes: self.params.transfer_bytes,
            complete_info_ratio: sender.stats.complete_info_ratio(),
            sender: sender.stats.clone(),
            router_loss_drops: self.routers.iter().map(|r| r.loss_drops).sum(),
            router_overflow_drops: self.routers.iter().map(|r| r.overflow_drops).sum(),
            sender_nic_drops: self.nics[0].tx_drops,
            nic_rx_drops: self.nics[1..].iter().map(|n| n.rx_drops()).sum(),
            host_backlog_drops: self.hosts.iter().map(|h| h.backlog_drops).sum(),
            partition_drops: self.partition_drops,
            corruption_drops: self.corruption_drops,
            duplicates_injected: self.duplicates_injected,
            reorders_injected: self.reorders_injected,
            churn_drops: self.churn_drops,
            link_events_applied: self.link_events_applied,
            migration_drops: self.migration_drops,
            up_loss_drops: self.up_loss_drops,
            rate_halvings: sender.rate_halvings(),
            urgent_stops: sender.urgent_stops(),
            false_ejections,
            final_rtt_us: sender.rtt(),
            final_rate_bps: sender.rate(),
            latency,
            events_popped: self.queue.popped() + self.batched_rx,
            peak_queue_len: self.queue.peak_len(),
            host_ticks: self.hosts.iter().map(|h| h.ticks).collect(),
            receivers,
            timeseries,
            alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn lan_params(n: usize, bandwidth: u64, loss: f64, bytes: u64, buffer: usize) -> SimParams {
        let mut protocol = ProtocolConfig::hrmc().with_buffer(buffer);
        protocol.max_rate = 2 * bandwidth / 8;
        let topology = TopologyBuilder::new().lan(n, bandwidth, loss);
        let mut p = SimParams::new(protocol, topology, bytes);
        p.horizon_us = 600 * 1_000_000;
        p
    }

    /// The lossless fan-out cell on the `hrmc-exp fanout` footing.
    fn fanout_params(n: usize) -> SimParams {
        let (bandwidth, cpu_scale) = (1_000_000_000, 0.01);
        let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
        let cpu_cap = (crate::cpu_tx_rate_bps(protocol.segment_size) as f64 / cpu_scale) as u64;
        let wire_cap = (bandwidth as f64 / 8.0 * 0.01) as u64;
        protocol.max_rate = wire_cap.min(cpu_cap).max(protocol.min_rate);
        protocol.probe_batch_limit = 64;
        let mut builder = TopologyBuilder::new();
        builder.router_queue = 2 * n;
        builder.sender_txqueue = n / 4;
        let mut p = SimParams::new(protocol, builder.lan(n, bandwidth, 0.0), 200_000);
        p.cpu_scale = cpu_scale;
        p
    }

    /// After every event of a 500-receiver lossless fan-out and of the
    /// 64-receiver 0.5 %-loss cell: every armed host has a matching
    /// `(deadline, host)` entry in the deadline heap, and stale entries
    /// stay within a small multiple of the host count. (Pushing on every
    /// re-derivation, changed or not, let the heap reach ~150x.) Also:
    /// no receiver delivery group outlives the `Forward` that made it — a
    /// leftover would be scheduled with the next packet.
    #[test]
    fn due_heap_indexes_every_armed_host_within_a_bound() {
        let mut lan64 = lan_params(64, 1_000_000, 0.005, 200_000, 256 * 1024);
        lan64.protocol.max_rate = 1_000_000 / 8 * 95 / 100;
        for params in [fanout_params(500), lan64] {
            let mut sim = Simulation::new(params);
            let hosts = sim.hosts.len();
            let mut indexed = vec![false; hosts];
            while sim.step() {
                assert!(
                    sim.pending_rx.is_empty(),
                    "{} delivery groups left pending at t={}",
                    sim.pending_rx.len(),
                    sim.queue.now()
                );
                assert!(
                    sim.due_heap.len() <= 8 * hosts,
                    "{} heap entries for {hosts} hosts at t={}",
                    sim.due_heap.len(),
                    sim.queue.now()
                );
                indexed.fill(false);
                for &Reverse((d, host)) in sim.due_heap.iter() {
                    indexed[host] |= sim.due[host] == Some(d);
                }
                for (host, due) in sim.due.iter().enumerate() {
                    assert!(
                        due.is_none() || indexed[host],
                        "host {host} armed for {due:?} with no heap entry at t={}",
                        sim.queue.now()
                    );
                }
            }
            assert!(sim.done, "{hosts}-host run did not complete");
        }
    }

    /// From receiver index 57 536 on, `8000 + i` no longer fits in `u16`
    /// (a plain `+` panics in debug builds); the 100k fan-out that
    /// `scalability` runs goes well past it.
    #[test]
    fn receiver_port_wraps_instead_of_overflowing() {
        assert_eq!(receiver_port(0), 8000);
        assert_eq!(receiver_port(57_535), 65_535);
        assert_eq!(receiver_port(57_536), 0);
        assert_eq!(receiver_port(100_000), 42_464);
    }

    #[test]
    fn lossless_lan_transfer_completes_intact() {
        let report = Simulation::new(lan_params(2, 10_000_000, 0.0, 1_000_000, 256 * 1024)).run();
        assert!(report.completed, "transfer did not complete");
        assert!(report.all_intact());
        for r in &report.receivers {
            assert_eq!(r.bytes, 1_000_000);
        }
        // Throughput must be positive and below the wire speed.
        assert!(report.throughput_mbps > 0.5, "{}", report.throughput_mbps);
        assert!(report.throughput_mbps < 10.0, "{}", report.throughput_mbps);
        assert_eq!(report.sender.unsafe_releases, 0);
    }

    #[test]
    fn lossy_lan_transfer_still_reliable() {
        let report = Simulation::new(lan_params(3, 10_000_000, 0.01, 500_000, 256 * 1024)).run();
        assert!(report.completed, "transfer stalled under loss");
        assert!(report.all_intact());
        assert!(
            report.router_loss_drops + report.nic_rx_drops > 0,
            "loss model never fired"
        );
        assert!(report.sender.retransmissions > 0);
        assert_eq!(report.sender.nak_errs_sent, 0);
    }

    #[test]
    fn observed_lossy_run_reports_latency_percentiles() {
        let mut params = lan_params(2, 10_000_000, 0.01, 500_000, 256 * 1024);
        params.observe = true;
        let report = Simulation::new(params).run();
        assert!(report.completed);
        let lat = report.latency.expect("observe=true must yield latency");
        // Every delivered segment was first sent: the pooled delivery
        // histogram covers both receivers' full streams.
        assert!(lat.delivery.count > 0);
        assert!(lat.delivery.p50 > 0);
        assert!(lat.delivery.p50 <= lat.delivery.p90);
        assert!(lat.delivery.p90 <= lat.delivery.p99);
        // 1% loss forces NAK-driven recoveries.
        assert!(lat.recovery.count > 0);
        assert!(lat.recovery.p99 >= lat.recovery.p50);
    }

    #[test]
    fn sixty_four_receiver_sim_emits_a_timeseries() {
        let mut params = lan_params(64, 10_000_000, 0.005, 300_000, 256 * 1024);
        params.sample_interval_us = Some(50_000);
        let report = Simulation::new(params).run();
        assert!(report.completed, "transfer did not complete");
        let ts = report.timeseries.as_ref().expect("sampling was armed");
        assert!(!ts.is_empty(), "timeseries must be non-empty");
        // The grid is strictly increasing and read-only gauges stay in
        // range.
        for w in ts.windows(2) {
            assert!(w[0].t_us < w[1].t_us, "non-monotonic grid");
            assert!(
                w[0].total("bytes_received") <= w[1].total("bytes_received"),
                "cumulative bytes regressed"
            );
            assert!(
                w[0].total("naks_sent") <= w[1].total("naks_sent"),
                "cumulative NAKs regressed"
            );
        }
        for s in ts {
            assert!(s.gauge("window_occupancy_pct").unwrap() <= 100, "{s:?}");
            assert!(s.gauge("completed_receivers").unwrap() <= 64);
        }
        // The series closes on the final state: everything delivered,
        // all 64 receivers done, recovery backlog drained.
        let last = ts.last().unwrap();
        assert_eq!(last.total("bytes_received"), 64 * 300_000);
        assert_eq!(last.gauge("completed_receivers"), Some(64));
        assert_eq!(last.gauge("recovery_backlog"), Some(0));
        // A mid-flight sample saw the transfer in progress.
        assert!(
            ts.iter().any(|s| s.total("bytes_received") > 0
                && s.gauge("completed_receivers") < Some(64)),
            "no mid-flight sample captured"
        );
    }

    /// The sim series is the report, sliced in time: per-interval deltas
    /// sum to each counter's final total, and the final totals are the
    /// report's own end-of-run counters.
    #[test]
    fn sim_series_agrees_with_the_report() {
        let mut params = lan_params(8, 10_000_000, 0.01, 400_000, 128 * 1024);
        params.sample_interval_us = Some(20_000);
        let report = Simulation::new(params).run();
        assert!(report.completed, "transfer did not complete");
        let ts = report.timeseries.as_ref().expect("sampling was armed");
        let last = ts.last().unwrap();
        for name in last.totals.keys() {
            let sum: u64 = ts.iter().map(|s| s.counter_delta(name)).sum();
            assert_eq!(sum, last.total(name), "{name}: deltas vs total");
        }
        let s = &report.sender;
        assert!(s.retransmissions > 0, "1% loss must force repairs");
        for (name, want) in [
            ("data_packets_sent", s.data_packets_sent),
            ("first_tx_bytes", s.data_bytes_sent),
            ("retransmissions", s.retransmissions),
            ("probes_sent", s.probes_sent),
            ("naks_sent", report.total_naks()),
            (
                "bytes_received",
                report.receivers.iter().map(|r| r.bytes).sum(),
            ),
            ("rate_halvings", report.rate_halvings),
        ] {
            assert_eq!(last.total(name), want, "{name}: series vs report");
        }
        // The gauges close on the final state too: the sender lingers
        // releasing its buffer after the last receiver completes, so only
        // a sample at the run's last instant sees it drained.
        assert_eq!(last.gauge("completed_receivers"), Some(8));
        assert_eq!(last.gauge("sender_buffered_bytes"), Some(0));
        assert_eq!(last.gauge("rate_bps"), Some(report.final_rate_bps));
        assert_eq!(last.gauge("srtt_us"), Some(report.final_rtt_us));
    }

    #[test]
    fn sampling_does_not_change_the_run() {
        let base = Simulation::new(lan_params(3, 10_000_000, 0.01, 300_000, 128 * 1024)).run();
        let mut params = lan_params(3, 10_000_000, 0.01, 300_000, 128 * 1024);
        params.sample_interval_us = Some(10_000);
        let sampled = Simulation::new(params).run();
        assert!(base.timeseries.is_none(), "unarmed run must not sample");
        assert!(sampled.timeseries.is_some());
        assert_eq!(base.elapsed_us, sampled.elapsed_us);
        assert_eq!(base.events_popped, sampled.events_popped);
        assert_eq!(base.sender.naks_received, sampled.sender.naks_received);
        assert_eq!(base.sender.retransmissions, sampled.sender.retransmissions);
    }

    #[test]
    fn observation_does_not_change_the_run() {
        let base = Simulation::new(lan_params(2, 10_000_000, 0.02, 300_000, 128 * 1024)).run();
        let mut params = lan_params(2, 10_000_000, 0.02, 300_000, 128 * 1024);
        params.observe = true;
        let observed = Simulation::new(params).run();
        assert_eq!(base.elapsed_us, observed.elapsed_us);
        assert_eq!(base.sender.naks_received, observed.sender.naks_received);
        assert_eq!(base.sender.retransmissions, observed.sender.retransmissions);
    }

    #[test]
    fn event_log_writes_jsonl() {
        use std::sync::{Arc as A, Mutex as M};
        struct Tee(A<M<Vec<u8>>>);
        impl std::io::Write for Tee {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = A::new(M::new(Vec::new()));
        let mut sim = Simulation::new(lan_params(1, 10_000_000, 0.0, 100_000, 128 * 1024));
        sim.set_event_log(Box::new(Tee(buf.clone())));
        let report = sim.run();
        assert!(report.completed);
        let log = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(!log.is_empty());
        let mut lines = log.lines();
        assert_eq!(
            lines.next(),
            Some("{\"schema\":2,\"role\":\"sim\"}"),
            "the stream must open with the schema header"
        );
        for line in lines {
            assert!(line.starts_with("{\"t_us\":"), "bad line: {line}");
            assert!(line.ends_with('}'), "bad line: {line}");
            assert!(line.contains("\"host\":"), "bad line: {line}");
            assert!(line.contains("\"event\":\""), "bad line: {line}");
        }
        // A clean 1-receiver run still joins, sends data, and delivers.
        assert!(log.contains("\"event\":\"peer_joined\""));
        assert!(log.contains("\"event\":\"data_sent\""));
        assert!(log.contains("\"event\":\"delivered\""));
    }

    /// Arming the online health monitor must be pure observation: the
    /// protocol event stream (and thus the trajectory) is byte-identical
    /// to an unmonitored run — the monitored log only gains host-less
    /// `health_alert` lines.
    #[test]
    fn armed_health_monitor_does_not_perturb_the_trajectory() {
        use std::sync::{Arc as A, Mutex as M};
        struct Tee(A<M<Vec<u8>>>);
        impl std::io::Write for Tee {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let run = |health: bool| {
            let buf = A::new(M::new(Vec::new()));
            let mut params = lan_params(2, 10_000_000, 0.01, 200_000, 128 * 1024);
            params.health = health;
            let mut sim = Simulation::new(params);
            sim.set_event_log(Box::new(Tee(buf.clone())));
            let report = sim.run();
            assert!(report.completed);
            let log = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
            (log, report)
        };
        let (base_log, base) = run(false);
        let (armed_log, armed) = run(true);
        let protocol_lines: Vec<&str> = armed_log
            .lines()
            .filter(|l| !l.contains("\"event\":\"health_alert\""))
            .collect();
        assert_eq!(
            base_log.lines().collect::<Vec<_>>(),
            protocol_lines,
            "monitor must not change the protocol trajectory"
        );
        // Every alert line is host-less, and the report mirrors the log.
        let alert_lines = armed_log
            .lines()
            .filter(|l| l.contains("\"event\":\"health_alert\""))
            .inspect(|l| assert!(!l.contains("\"host\":"), "alert lines are host-less: {l}"))
            .count();
        assert_eq!(armed.alerts.len(), alert_lines);
        assert_eq!(base.elapsed_us, armed.elapsed_us);
        assert_eq!(base.sender.retransmissions, armed.sender.retransmissions);
    }

    #[test]
    fn same_seed_same_run() {
        let a = Simulation::new(lan_params(2, 10_000_000, 0.02, 300_000, 128 * 1024)).run();
        let b = Simulation::new(lan_params(2, 10_000_000, 0.02, 300_000, 128 * 1024)).run();
        assert_eq!(a.elapsed_us, b.elapsed_us);
        assert_eq!(a.sender.naks_received, b.sender.naks_received);
        assert_eq!(a.sender.retransmissions, b.sender.retransmissions);
        let mut c_params = lan_params(2, 10_000_000, 0.02, 300_000, 128 * 1024);
        c_params.seed = 99;
        let c = Simulation::new(c_params).run();
        // Different seed: overwhelmingly likely a different trajectory.
        assert!(
            c.elapsed_us != a.elapsed_us || c.sender.naks_received != a.sender.naks_received,
            "different seeds produced identical runs"
        );
    }

    #[test]
    fn wan_groups_transfer_completes() {
        let specs = crate::topology::test_case(3, 4); // all in C: 100 ms, 2%
        let topology = TopologyBuilder::new().groups(&specs, 10_000_000);
        let mut protocol = ProtocolConfig::hrmc().with_buffer(512 * 1024);
        protocol.max_rate = 2 * 10_000_000 / 8;
        let mut params = SimParams::new(protocol, topology, 300_000);
        params.horizon_us = 1_200 * 1_000_000;
        let report = Simulation::new(params).run();
        assert!(report.completed, "WAN transfer stalled");
        assert!(report.all_intact());
        assert!(report.sender.naks_received > 0, "2% loss must cause NAKs");
    }

    #[test]
    fn bigger_buffers_do_not_reduce_throughput_lan() {
        // The paper's headline: throughput rises with kernel buffer size
        // until ~512K. Check the direction with two sizes.
        let small = Simulation::new(lan_params(1, 10_000_000, 0.0, 2_000_000, 64 * 1024)).run();
        let large = Simulation::new(lan_params(1, 10_000_000, 0.0, 2_000_000, 1024 * 1024)).run();
        assert!(small.completed && large.completed);
        assert!(
            large.throughput_mbps >= small.throughput_mbps * 0.95,
            "large-buffer throughput regressed: {} vs {}",
            large.throughput_mbps,
            small.throughput_mbps
        );
    }

    #[test]
    fn rmc_mode_runs_and_measures_info_ratio() {
        let mut params = lan_params(2, 10_000_000, 0.005, 500_000, 64 * 1024);
        params.protocol = ProtocolConfig::rmc().with_buffer(64 * 1024);
        params.protocol.max_rate = 2 * 10_000_000 / 8;
        let report = Simulation::new(params).run();
        assert!(report.sender.release_attempts > 0);
        assert!(report.sender.probes_sent == 0);
        assert!(report.complete_info_ratio <= 1.0);
    }

    #[test]
    fn noop_link_event_only_costs_one_pop() {
        let base = Simulation::new(lan_params(2, 10_000_000, 0.01, 300_000, 128 * 1024)).run();
        let mut params = lan_params(2, 10_000_000, 0.01, 300_000, 128 * 1024);
        // Re-set the LAN router's delay to the value it already has: the
        // event applies (one extra pop) but the trajectory is untouched —
        // proof that applying a change draws nothing from the RNG.
        params.links.push(
            150_000,
            LinkAction::SetRouterDelay {
                router: 0,
                delay_us: 50,
            },
        );
        let dynamic = Simulation::new(params).run();
        assert_eq!(dynamic.link_events_applied, 1);
        assert_eq!(base.elapsed_us, dynamic.elapsed_us);
        assert_eq!(base.sender.naks_received, dynamic.sender.naks_received);
        assert_eq!(base.sender.retransmissions, dynamic.sender.retransmissions);
        assert_eq!(base.events_popped + 1, dynamic.events_popped);
    }

    #[test]
    fn capacity_collapse_degrades_then_recovers() {
        let base = Simulation::new(lan_params(2, 10_000_000, 0.0, 2_000_000, 256 * 1024)).run();
        let mut params = lan_params(2, 10_000_000, 0.0, 2_000_000, 256 * 1024);
        // Ramp the LAN segment down to 1 Mbit/s mid-transfer, hold, then
        // heal instantly at 2 s (bandwidth 0 = no serialization delay,
        // the segment's original speed).
        params.links.push(
            200_000,
            LinkAction::SetRouterQueue {
                router: 0,
                packets: 64, // a collapsed backhaul buffers little
            },
        );
        params
            .links
            .ramp_bandwidth(0, 200_000, 200_000, 10_000_000, 1_000_000, 4);
        params.links.push(
            2_000_000,
            LinkAction::SetRouterBandwidth {
                router: 0,
                bandwidth_bps: 0,
            },
        );
        let report = Simulation::new(params).run();
        assert!(report.completed, "collapse must degrade, not kill, the run");
        assert!(report.all_intact());
        assert_eq!(report.link_events_applied, 6);
        assert!(
            report.rate_halvings >= 1,
            "no congestion response to the collapse"
        );
        assert!(
            report.router_overflow_drops > 0,
            "collapsed segment never overflowed"
        );
        assert!(
            report.elapsed_us > base.elapsed_us,
            "collapse did not slow the transfer: {} vs {}",
            report.elapsed_us,
            base.elapsed_us
        );
    }

    #[test]
    fn bufferbloat_inflates_rtt_but_completes() {
        let base = Simulation::new(lan_params(2, 10_000_000, 0.0, 400_000, 256 * 1024)).run();
        let mut params = lan_params(2, 10_000_000, 0.0, 400_000, 256 * 1024);
        // Deep queue + slow drain: packets sit instead of dropping and
        // every RTT sample inflates with standing queue depth.
        params.links.bufferbloat(0, 100_000, 4096, 2_000_000);
        let bloated = Simulation::new(params).run();
        assert!(bloated.completed && bloated.all_intact());
        assert_eq!(bloated.link_events_applied, 2);
        assert!(
            bloated.final_rtt_us > base.final_rtt_us,
            "bufferbloat did not inflate the RTT estimate: {} vs {}",
            bloated.final_rtt_us,
            base.final_rtt_us
        );
    }

    #[test]
    fn jitter_spikes_do_not_eject_members() {
        let mut params = lan_params(3, 10_000_000, 0.0, 400_000, 256 * 1024);
        // Arm the failure-domain detectors, then shake the segment:
        // 5 delay spikes to 30 ms. Pure jitter must never look like a
        // dead member.
        params.protocol.probe_failure_limit = 3;
        params.protocol.member_silence_us = 3_000_000;
        params
            .links
            .jitter_spikes(0, 100_000, 100_000, 5, 50, 30_000);
        let report = Simulation::new(params).run();
        assert!(report.completed && report.all_intact());
        assert_eq!(report.link_events_applied, 10);
        assert_eq!(
            report.sender.members_ejected, 0,
            "jitter-only episode ejected a member"
        );
        assert_eq!(report.false_ejections, 0);
    }

    #[test]
    fn uppath_impairment_drops_feedback_only() {
        let mut params = lan_params(2, 10_000_000, 0.01, 400_000, 256 * 1024);
        params.links.push(
            50_000,
            LinkAction::SetUpPath {
                extra_delay_us: 20_000,
                loss: 0.3,
            },
        );
        let report = Simulation::new(params).run();
        assert!(report.completed && report.all_intact());
        assert!(report.up_loss_drops > 0, "up-path loss never fired");
    }

    #[test]
    fn migration_rehomes_receiver_and_drops_in_flight() {
        use crate::topology::{CharacteristicGroup, GroupSpec};
        let specs = vec![
            GroupSpec {
                group: CharacteristicGroup::A,
                receivers: 1,
            },
            GroupSpec {
                group: CharacteristicGroup::A,
                receivers: 1,
            },
        ];
        let topology = TopologyBuilder::new().groups(&specs, 10_000_000);
        let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
        protocol.max_rate = 2 * 10_000_000 / 8;
        let mut params = SimParams::new(protocol, topology, 600_000);
        params.horizon_us = 600 * 1_000_000;
        // Hand receiver 0 over from its home router (1) to the other
        // group's router (2) mid-transfer.
        params.links.push(
            200_000,
            LinkAction::Migrate {
                receiver: 0,
                path: vec![0, 2],
            },
        );
        let report = Simulation::new(params).run();
        assert!(report.completed, "handover must not strand the receiver");
        assert!(report.all_intact());
        assert_eq!(report.link_events_applied, 1);
        assert!(
            report.migration_drops > 0,
            "no in-flight packet was caught by the handover"
        );
    }

    #[test]
    fn malformed_migration_is_ignored() {
        let base = Simulation::new(lan_params(2, 10_000_000, 0.01, 300_000, 128 * 1024)).run();
        let mut params = lan_params(2, 10_000_000, 0.01, 300_000, 128 * 1024);
        params.links.push(
            150_000,
            LinkAction::Migrate {
                receiver: 0,
                path: vec![99], // no such router
            },
        );
        let report = Simulation::new(params).run();
        assert_eq!(report.link_events_applied, 0, "bad event must not apply");
        assert_eq!(report.elapsed_us, base.elapsed_us);
        assert_eq!(report.migration_drops, 0);
    }

    #[test]
    fn scheduled_run_is_deterministic() {
        let mk = || {
            let mut p = lan_params(2, 10_000_000, 0.01, 300_000, 128 * 1024);
            p.links
                .collapse_recover(0, 100_000, 600_000, 10_000_000, 1_000_000, 50_000, 3);
            p.links.push(
                400_000,
                LinkAction::SetUpPath {
                    extra_delay_us: 10_000,
                    loss: 0.2,
                },
            );
            p
        };
        let a = Simulation::new(mk()).run();
        let b = Simulation::new(mk()).run();
        assert_eq!(a.elapsed_us, b.elapsed_us);
        assert_eq!(a.events_popped, b.events_popped);
        assert_eq!(a.up_loss_drops, b.up_loss_drops);
        assert_eq!(a.sender.retransmissions, b.sender.retransmissions);
        assert_eq!(a.rate_halvings, b.rate_halvings);
    }
}
