//! The H-RMC sender engine (paper §4.2, Figure 8).
//!
//! The kernel driver runs five concurrent tasks; here they are methods of
//! one deterministic state machine:
//!
//! | Paper task | Engine entry point |
//! |------------|--------------------|
//! | Application Interface (`hrmc_sendmsg`) | [`SenderEngine::submit`] / [`SenderEngine::close`] |
//! | Transmitter (`transmit_timer`, every jiffy) | [`SenderEngine::transmit`], first half of [`SenderEngine::on_tick`] |
//! | Feedback Processor (`hrmc_master_rcv`) | [`SenderEngine::handle_packet`] |
//! | Retransmitter (`retrans_timer`) | retransmission pass inside [`SenderEngine::transmit`] |
//! | Keepalive Controller (`ka_timer`) | keepalive pass inside [`SenderEngine::on_tick`] |
//!
//! [`SenderEngine::on_tick`] is the paper's jiffy: one transmitter pass,
//! then the housekeeping that releases, probes, ejects and keeps alive. A
//! driver that would rather send when data and credit exist than wait for
//! the jiffy calls [`SenderEngine::transmit`] at the instants
//! [`SenderEngine::next_transmit`] names, and `on_tick` once a jiffy.
//!
//! Outgoing packets accumulate on an output queue drained with
//! [`SenderEngine::poll_output`]. Everything else a host needs is state
//! it reads when it wants to: [`SenderEngine::buffered_bytes`] for a
//! blocked `submit`, [`SenderEngine::is_finished`] for the end of the
//! transfer, `stats.nak_errs_sent` for RMC's retransmission errors and
//! [`SenderEngine::ejected_members`] for forced departures.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;
use hrmc_wire::{seq_le, Packet, PacketType, Seq};

use crate::config::{ProbePolicy, ProbeTransport, ProtocolConfig, ReliabilityMode};
use crate::fec::FecEncoder;
use crate::keepalive::KeepaliveController;
use crate::membership::Membership;
use crate::obs::emit;
use crate::obs::{Event, ProtocolObserver};
use crate::rate::{RateController, RatePhase};
use crate::rtt::RttEstimator;
use crate::stats::SenderStats;
use crate::time::{scale, Micros, JIFFY_US};
use crate::txwindow::SendWindow;
use crate::{Dest, Outgoing, PeerId};

/// How long probe-nonce RTT bookkeeping survives before pruning, in RTTs.
const NONCE_TTL_RTTS: f64 = 16.0;

/// Re-probe interval for an unanswered probe, in RTTs.
const PROBE_RETRY_RTTS: f64 = 2.0;

/// Hold-back before serving a NAK when local recovery is on, in RTTs —
/// the window in which a peer repair can win: first-slot repair
/// (~0.5 RTT) + healing (~0.5 RTT) + the requester's recovery UPDATE
/// (~0.5 RTT) plus margin.
const LOCAL_REPAIR_WAIT_RTTS: f64 = 4.0;

/// Size of the transmission-timestamp ring (power of two).
const SEND_TIMES_RING: usize = 8192;

/// A ring of recent transmission timestamps, independent of the send
/// buffer: RTT samples for JOINs and NAKs must survive buffer release,
/// or a high-delay group can never correct the seed estimate (Karn
/// catch-22: the estimate stays small, releases happen before feedback
/// arrives, and no feedback ever finds its slot).
#[derive(Debug)]
struct SendTimes {
    ring: Vec<(Seq, Micros, u8)>,
}

impl SendTimes {
    fn new() -> SendTimes {
        SendTimes {
            ring: vec![(0, u64::MAX, u8::MAX); SEND_TIMES_RING],
        }
    }

    fn record(&mut self, seq: Seq, now: Micros, tries: u8) {
        self.ring[seq as usize % SEND_TIMES_RING] = (seq, now, tries);
    }

    fn get(&self, seq: Seq) -> Option<(Micros, u8)> {
        let (s, t, tries) = self.ring[seq as usize % SEND_TIMES_RING];
        (s == seq && t != u64::MAX).then_some((t, tries))
    }
}

/// The sender half of the protocol. See the module docs for the mapping
/// to the paper's architecture.
pub struct SenderEngine {
    config: ProtocolConfig,
    local_port: u16,
    group_port: u16,
    window: SendWindow,
    membership: Membership,
    rate: RateController,
    rtt: RttEstimator,
    keepalive: KeepaliveController,
    /// Retransmission request list (`retrans_queue` in Figure 8), deduped.
    /// Each entry carries a not-before time — with local recovery the
    /// sender holds back one repair window to let a peer answer first —
    /// and the first requester, so the hold can be cancelled when that
    /// receiver confirms the data (a later requester deduplicated against
    /// the entry simply re-NAKs after its suppression interval).
    retrans_queue: VecDeque<(Seq, Micros, PeerId)>,
    retrans_set: HashSet<Seq>,
    /// Recent transmission timestamps (survive buffer release).
    send_times: SendTimes,
    /// Optional FEC parity builder (extension).
    fec: Option<FecEncoder>,
    /// Outstanding probe nonces → issue time, for RTT samples on echo.
    probe_nonces: HashMap<u32, Micros>,
    next_nonce: u32,
    /// Reused PROBE-target buffer: the tick path collects laggards here
    /// instead of allocating a fresh `Vec` per gate stall.
    probe_scratch: Vec<PeerId>,
    /// Round-robin cursor into the sorted laggard list, advanced when
    /// `probe_batch_limit` caps a tick's unicast fan-out so successive
    /// ticks sweep the whole set.
    probe_rr_cursor: usize,
    /// Sequence whose release attempt has been counted (Figure 3 metric
    /// counts each segment's *first* eligibility exactly once).
    release_attempt_counted_through: Option<Seq>,
    /// Last sequence number actually transmitted (for KEEPALIVE).
    last_transmitted: Option<Seq>,
    closed: bool,
    /// Every member the failure-domain pass ejected, in ejection order.
    ejected: Vec<PeerId>,
    out: VecDeque<Outgoing>,
    /// Optional observability hook (None by default: zero-cost).
    observer: Option<Box<dyn ProtocolObserver>>,
    /// Rate-controller state last reported to the observer, diffed after
    /// every rate-affecting input to detect transitions.
    last_phase: RatePhase,
    last_halvings: u64,
    last_urgent_stops: u64,
    /// Public counters; the experiment harnesses read these.
    pub stats: SenderStats,
}

impl SenderEngine {
    /// Create a sender bound to `local_port`, streaming toward the group
    /// port, with the first data segment numbered `initial_seq`.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(
        config: ProtocolConfig,
        local_port: u16,
        group_port: u16,
        initial_seq: Seq,
        now: Micros,
    ) -> SenderEngine {
        config.validate().expect("invalid ProtocolConfig");
        let rate = RateController::new(config.min_rate, config.max_rate, now);
        let rtt = RttEstimator::new(config.initial_rtt);
        let keepalive = KeepaliveController::new(now);
        let last_phase = rate.phase();
        SenderEngine {
            window: SendWindow::new(config.sndbuf, initial_seq),
            membership: Membership::new(),
            rate,
            rtt,
            keepalive,
            retrans_queue: VecDeque::new(),
            retrans_set: HashSet::new(),
            send_times: SendTimes::new(),
            fec: config.fec.map(|f| FecEncoder::new(f.k)),
            probe_nonces: HashMap::new(),
            next_nonce: 1,
            probe_scratch: Vec::new(),
            probe_rr_cursor: 0,
            release_attempt_counted_through: None,
            last_transmitted: None,
            closed: false,
            ejected: Vec::new(),
            out: VecDeque::new(),
            observer: None,
            last_phase,
            last_halvings: 0,
            last_urgent_stops: 0,
            stats: SenderStats::default(),
            config,
            local_port,
            group_port,
        }
    }

    /// Install a [`ProtocolObserver`], replacing any previous one. The
    /// engine reports every protocol state transition to it.
    pub fn set_observer(&mut self, observer: Box<dyn ProtocolObserver>) {
        self.observer = Some(observer);
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Current RTT estimate (most distant receiver), microseconds.
    pub fn rtt(&self) -> Micros {
        self.rtt.rtt()
    }

    /// Current advertised transmission rate, bytes/second.
    pub fn rate(&self) -> u64 {
        self.rate.rate()
    }

    /// Cumulative rate-halving episodes (congestion responses to NAKs
    /// and warning rate requests) — the graceful-degradation signal
    /// hostile-network harnesses assert on.
    pub fn rate_halvings(&self) -> u64 {
        self.rate.halvings
    }

    /// Cumulative urgent stops (URG rate requests that froze forward
    /// transmission for two RTTs).
    pub fn urgent_stops(&self) -> u64 {
        self.rate.urgent_stops
    }

    /// Number of receivers currently in the group.
    pub fn member_count(&self) -> usize {
        self.membership.len()
    }

    /// Bytes currently buffered in the send window.
    pub fn buffered_bytes(&self) -> usize {
        self.window.buffered_bytes()
    }

    /// `true` once [`SenderEngine::close`] was called: `submit` accepts
    /// nothing more, whatever the window holds.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// `true` once the stream is closed and every segment released.
    pub fn is_finished(&self) -> bool {
        self.closed && self.window.is_empty() && !self.window.has_unsent()
    }

    /// Absolute time of the next timer this engine needs a tick for, or
    /// `None` when fully idle (a deadline-driven driver may then sleep
    /// until the next `submit`/`handle_packet` call re-arms it).
    ///
    /// While the transfer is in progress — unreleased data in the window,
    /// unsent segments queued, or retransmissions pending — the sender is
    /// jiffy-armed: rate credit accrues per tick and release probes are
    /// re-evaluated every jiffy, so the next deadline is simply `now +
    /// JIFFY_US`. Once the window drains, only the keepalive timer
    /// remains; once finished, nothing does.
    pub fn next_wakeup(&self, now: Micros) -> Option<Micros> {
        if self.is_finished() {
            return None;
        }
        if !self.window.is_empty() || self.window.has_unsent() || !self.retrans_queue.is_empty() {
            return Some(now + JIFFY_US);
        }
        self.last_transmitted
            .map(|_| self.keepalive.next_fire().max(now))
    }

    // ------------------------------------------------------------------
    // Application interface (hrmc_sendmsg)
    // ------------------------------------------------------------------

    /// Hand a slice of the application's stream to the protocol. The data
    /// is fragmented into segments of `segment_size` and queued in the
    /// send window. Returns the number of bytes accepted, which is less
    /// than `data.len()` when the send buffer fills — the application
    /// blocks and retries once [`SenderEngine::buffered_bytes`] falls.
    pub fn submit(&mut self, data: &[u8], _now: Micros) -> usize {
        if self.closed {
            return 0;
        }
        let mut offset = 0;
        while offset < data.len() {
            let take = (data.len() - offset).min(self.config.segment_size);
            // Asked before the copy, so a full window costs no allocation.
            if !self.window.admits(take) {
                break;
            }
            let segment = Bytes::copy_from_slice(&data[offset..offset + take]);
            let pushed = self.window.push(segment, false);
            debug_assert!(pushed, "an admitted segment must be pushed");
            offset += take;
        }
        offset
    }

    /// Close the stream: a zero-length FIN segment is queued after the
    /// data, and the transfer completes once every segment is released.
    pub fn close(&mut self, _now: Micros) {
        if self.closed {
            return;
        }
        self.closed = true;
        // A FIN segment is zero bytes of payload, so it always fits.
        let pushed = self.window.push(Bytes::new(), true);
        debug_assert!(pushed, "zero-length FIN must always fit");
    }

    // ------------------------------------------------------------------
    // Feedback processor (hrmc_master_rcv)
    // ------------------------------------------------------------------

    /// Process a packet that arrived from `from`.
    pub fn handle_packet(&mut self, pkt: &Packet, from: PeerId, now: Micros) {
        match pkt.header.ptype {
            PacketType::Join => self.on_join(pkt, from, now),
            PacketType::Leave => self.on_leave(pkt, from, now),
            PacketType::Nak => self.on_nak(pkt, from, now),
            PacketType::Control => self.on_control(pkt, from, now),
            PacketType::Update => self.on_update(pkt, from, now),
            // Sender-originated types echoed back are ignored.
            _ => {}
        }
    }

    /// Feedback may not claim a sequence the sender has not assigned. A
    /// JOIN echo or a `next_expected` past `window.next_seq()` (in serial
    /// order) comes from a faulty or foreign peer, or from a damaged
    /// packet that passed the checksum; believing it would release data
    /// that member never received. Such a packet is counted as malformed
    /// and dropped whole: it reaches no membership state and does not
    /// refresh `last_heard`, so a peer that sends nothing else ends in
    /// the stall ejection.
    fn claims_unsent(&mut self, seq: Seq) -> bool {
        let unsent = hrmc_wire::seq_lt(self.window.next_seq(), seq);
        if unsent {
            self.stats.malformed_packets += 1;
        }
        unsent
    }

    fn on_join(&mut self, pkt: &Packet, from: PeerId, now: Micros) {
        let echoed = pkt.header.seq;
        if self.claims_unsent(echoed) {
            return;
        }
        let is_new = self.membership.get(from).is_none();
        self.membership.add(from, echoed, now);
        self.stats.joins += 1;
        if is_new {
            emit!(self, now, Event::PeerJoined { peer: from });
        }
        // RTT sample: the JOIN echoes the data packet that triggered it.
        self.rtt_sample_against_slot(echoed, now);
        self.push_out(
            Dest::Unicast(from),
            self.make_control(PacketType::JoinResponse, echoed),
        );
    }

    fn on_leave(&mut self, pkt: &Packet, from: PeerId, now: Micros) {
        if self.membership.remove(from) {
            self.stats.leaves += 1;
            // Restart the keepalive backoff: a departure often precedes a
            // re-JOIN, and a line idling at the 2 s cap would leave the
            // newcomer's loss detection blind for up to that long.
            self.keepalive.on_activity(now);
        }
        self.push_out(
            Dest::Unicast(from),
            self.make_control(PacketType::LeaveResponse, pkt.header.seq),
        );
    }

    fn on_nak(&mut self, pkt: &Packet, from: PeerId, now: Micros) {
        self.stats.naks_received += 1;
        // NAKs piggyback the receiver's next-expected sequence number in
        // the rate-advertisement field (see the Header docs).
        if self.claims_unsent(pkt.header.rate_adv) {
            return;
        }
        self.membership.update(from, pkt.header.rate_adv, now);
        let first = pkt.header.seq;
        // The span is attacker-controlled: clamp before looping. Honest
        // NAK ranges are bounded far below the cap by the send window.
        let count = pkt.header.length.max(1);
        if count > crate::MAX_CONTROL_SPAN {
            self.stats.malformed_packets += 1;
        }
        let count = count.min(crate::MAX_CONTROL_SPAN);
        // RTT sample only from the *first* NAK for this segment: a repeat
        // NAK measures the age of a still-stuck gap, not a round trip,
        // and absorbing those ages would inflate the estimate without
        // bound (each inflation lengthens MINBUF and any local-recovery
        // hold, keeping the gap stuck even longer).
        if !self.retrans_set.contains(&first) {
            self.rtt_sample_against_slot(first, now);
        }
        // Released sequences are a prefix of the span; the rest is still
        // in the window and is being retransmitted.
        let mut released: Option<(Seq, u32)> = None;
        let ready_at = if self.config.local_recovery {
            // Capped: a wild RTT estimate must not park repairs forever.
            now + scale(self.rtt.rtt(), LOCAL_REPAIR_WAIT_RTTS).min(1_000_000)
        } else {
            now
        };
        for i in 0..count {
            let seq = first.wrapping_add(i);
            if self.window.contains(seq) {
                if self.retrans_set.insert(seq) {
                    self.retrans_queue.push_back((seq, ready_at, from));
                }
            } else if self.window.is_released(seq) {
                released.get_or_insert((seq, 0)).1 += 1;
            }
        }
        if let Some((seq, released_count)) = released {
            // In Hybrid mode a release normally required this receiver's
            // own confirmation, so a NAK for released data is usually
            // stale feedback that raced the confirmation — droppable. The
            // exception is the join race: data released while the
            // receiver's JOIN was still in flight was never confirmed by
            // it. The truthful answer in that case (and always in RMC
            // mode) is NAK_ERR: the data is gone.
            let confirmed_by_sender_state = self
                .membership
                .get(from)
                .is_some_and(|m| hrmc_wire::seq_lt(seq, m.next_expected));
            let stale = self.config.mode == ReliabilityMode::Hybrid && confirmed_by_sender_state;
            if !stale {
                let mut err = self.make_control(PacketType::NakErr, seq);
                err.header.length = released_count;
                self.push_out(Dest::Unicast(from), err);
                self.stats.nak_errs_sent += 1;
            }
        }
        // A NAK signals loss: halve the rate (one congestion event per RTT).
        self.rate.on_congestion(now, self.rtt.rtt(), None);
        self.note_rate_events(now);
    }

    fn on_control(&mut self, pkt: &Packet, from: PeerId, now: Micros) {
        self.stats.rate_requests_received += 1;
        if self.claims_unsent(pkt.header.seq) {
            return;
        }
        self.membership.update(from, pkt.header.seq, now);
        if pkt.header.flags.urg {
            self.stats.urgent_rate_requests_received += 1;
            self.rate.on_urgent(now, self.rtt.rtt());
        } else {
            let suggested = u64::from(pkt.header.rate_adv);
            self.rate
                .on_congestion(now, self.rtt.rtt(), Some(suggested));
        }
        self.note_rate_events(now);
    }

    fn on_update(&mut self, pkt: &Packet, from: PeerId, now: Micros) {
        self.stats.updates_received += 1;
        if self.claims_unsent(pkt.header.seq) {
            return;
        }
        self.membership.update(from, pkt.header.seq, now);
        // A nonzero length echoes a probe nonce: an RTT sample.
        let nonce = pkt.header.length;
        if nonce != 0 {
            if let Some(sent) = self.probe_nonces.remove(&nonce) {
                self.rtt.sample(now.saturating_sub(sent), 0);
                emit!(
                    self,
                    now,
                    Event::RttSample {
                        sample_us: now.saturating_sub(sent),
                        srtt_us: self.rtt.rtt(),
                        probe: true,
                    }
                );
            }
        }
    }

    /// Sample the RTT against a segment's transmission timestamp (kept in
    /// a ring that survives buffer release), honoring Karn's rule:
    /// segments transmitted more than once yield no sample.
    fn rtt_sample_against_slot(&mut self, seq: Seq, now: Micros) {
        if let Some((sent, tries)) = self.send_times.get(seq) {
            let karn_tries = if tries == 0 { 0 } else { 1 };
            self.rtt.sample(now.saturating_sub(sent), karn_tries);
            if karn_tries == 0 {
                emit!(
                    self,
                    now,
                    Event::RttSample {
                        sample_us: now.saturating_sub(sent),
                        srtt_us: self.rtt.rtt(),
                        probe: false,
                    }
                );
            }
        }
    }

    /// Report rate-controller transitions to the observer by diffing its
    /// state against the last reported snapshot. Called after every
    /// rate-affecting input (NAK, CONTROL, tick).
    fn note_rate_events(&mut self, now: Micros) {
        if self.observer.is_none() {
            return;
        }
        if self.rate.halvings != self.last_halvings {
            self.last_halvings = self.rate.halvings;
            emit!(
                self,
                now,
                Event::RateHalved {
                    rate_bps: self.rate.rate()
                }
            );
        }
        if self.rate.urgent_stops != self.last_urgent_stops {
            self.last_urgent_stops = self.rate.urgent_stops;
            if let RatePhase::Stopped { until } = self.rate.phase() {
                emit!(self, now, Event::UrgentStopped { until });
            }
        }
        let phase = self.rate.phase();
        if std::mem::discriminant(&phase) != std::mem::discriminant(&self.last_phase) {
            emit!(
                self,
                now,
                Event::RatePhaseChanged {
                    from: self.last_phase,
                    to: phase,
                    rate_bps: self.rate.rate(),
                }
            );
            self.last_phase = phase;
        }
    }

    // ------------------------------------------------------------------
    // Transmitter + Retransmitter + Keepalive (transmit_timer, every jiffy)
    // ------------------------------------------------------------------

    /// Run one jiffy tick at `now`: a transmitter pass, then the
    /// housekeeping (eject, release, probe, keepalive, finish).
    pub fn on_tick(&mut self, now: Micros) {
        self.transmit(now);
        self.housekeeping(now);
    }

    /// When a transmitter pass would next send something: `None` while
    /// nothing is unsent and no retransmission that can still go out is
    /// queued; `now` (or earlier) when [`SenderEngine::transmit`] at `now`
    /// will emit at least one packet; otherwise the first instant worth
    /// asking again at — the rate controller's
    /// [`pacing_deadline`](RateController::pacing_deadline), the end of
    /// an urgent stop, or the expiry of the local-recovery hold on the
    /// retransmission at the head of the queue.
    ///
    /// One case falls outside the `now` promise: with local recovery on,
    /// a queued repair whose requester has left the group is cancelled by
    /// the pass if everyone still present has the data. The pass consumes
    /// the entry, so a driver re-asking afterwards cannot spin on it.
    pub fn next_transmit(&self, now: Micros) -> Option<Micros> {
        let mut held_until = None;
        let mut packet = None;
        for &(seq, ready_at, requester) in &self.retrans_queue {
            if ready_at > now {
                // A held-back head blocks the retransmissions behind it.
                held_until = Some(ready_at);
                break;
            }
            // Entries the pass will drop instead of sending are skipped:
            // released segments and peer-repaired ones. (A NAK can name a
            // segment still in the backlog; that one goes out as new
            // data, so counting it here changes nothing.)
            packet = self
                .window
                .get(seq)
                .filter(|_| !self.peer_repaired(seq, requester));
            if packet.is_some() {
                break;
            }
        }
        match packet.or_else(|| self.window.peek_unsent()) {
            Some(slot) => Some(self.rate.pacing_deadline(
                now,
                self.rtt.rtt(),
                JIFFY_US,
                hrmc_wire::HEADER_LEN + slot.payload.len(),
            )),
            None => held_until,
        }
    }

    /// Local recovery: `true` when `requester` confirmed `seq` while the
    /// sender held its repair back — a peer answered first.
    fn peer_repaired(&self, seq: Seq, requester: PeerId) -> bool {
        self.config.local_recovery
            && self
                .membership
                .get(requester)
                .is_some_and(|m| hrmc_wire::seq_lt(seq, m.next_expected))
    }

    /// Run one transmitter pass at `now`: grow the rate, take the byte
    /// budget accrued since the last pass, and spend it on queued
    /// retransmissions, then on new data. Sends nothing the rate
    /// controller has not granted (beyond finishing the packet that
    /// straddles the allowance, charged to the next pass), so it may be
    /// called at any instant, not only on the jiffy grid.
    pub fn transmit(&mut self, now: Micros) {
        self.rate.on_tick(now, self.rtt.rtt());
        self.note_rate_events(now);
        let allowance = self.rate.budget(now, JIFFY_US);
        let mut spent = 0usize;

        // Retransmissions first: Figure 8 gives the retransmitter
        // priority over new data.
        while spent < allowance {
            match self.retrans_queue.front() {
                Some((_, ready_at, _)) if *ready_at > now => break, // held back
                Some(_) => {}
                None => break,
            }
            let (seq, _, requester) = self.retrans_queue.pop_front().expect("peeked");
            self.retrans_set.remove(&seq);
            // Local recovery: if the requester (or the whole group)
            // confirmed the data while the sender held back, a peer
            // repair won — drop the entry.
            if self.config.local_recovery
                && (self.peer_repaired(seq, requester) || self.membership.all_have(seq))
            {
                self.stats.retransmissions_cancelled += 1;
                continue;
            }
            let Some(slot) = self.window.mark_retransmitted(seq, now) else {
                continue; // released or still unsent; nothing to resend
            };
            let mut pkt = Packet::data(self.local_port, self.group_port, slot.seq, slot.payload);
            pkt.header.tries = slot.tries;
            pkt.header.flags.fin = slot.fin;
            pkt.header.rate_adv = self.rate_adv();
            spent += pkt.wire_len();
            self.send_times.record(slot.seq, now, slot.tries);
            self.stats.retransmissions += 1;
            self.keepalive.on_activity(now);
            emit!(
                self,
                now,
                Event::DataSent {
                    seq: pkt.header.seq,
                    bytes: pkt.header.length,
                    retransmission: true,
                }
            );
            self.push_out(Dest::Multicast, pkt);
        }

        // New data from the backlog.
        while spent < allowance && self.window.has_unsent() {
            let Some(slot) = self.window.take_unsent(now) else {
                break;
            };
            let mut pkt = Packet::data(self.local_port, self.group_port, slot.seq, slot.payload);
            pkt.header.tries = slot.tries;
            pkt.header.flags.fin = slot.fin;
            pkt.header.rate_adv = self.rate_adv();
            spent += pkt.wire_len();
            self.send_times.record(slot.seq, now, slot.tries);
            self.stats.data_packets_sent += 1;
            self.stats.data_bytes_sent += pkt.header.length as u64;
            self.last_transmitted = Some(slot.seq);
            self.keepalive.on_activity(now);
            // FEC: fold first transmissions into the parity block; a
            // completed block's parity rides in the same budget.
            let parity = self.fec.as_mut().and_then(|enc| {
                enc.on_data(slot.seq, &pkt.payload, self.local_port, self.group_port)
            });
            emit!(
                self,
                now,
                Event::DataSent {
                    seq: pkt.header.seq,
                    bytes: pkt.header.length,
                    retransmission: false,
                }
            );
            self.push_out(Dest::Multicast, pkt);
            if let Some(mut parity) = parity {
                parity.header.rate_adv = self.rate_adv();
                spent += parity.wire_len();
                self.stats.fec_parities_sent += 1;
                self.push_out(Dest::Multicast, parity);
            }
        }

        if spent < allowance {
            self.rate.refund(allowance - spent, JIFFY_US);
        } else if spent > allowance {
            self.rate.overdraw(spent - allowance);
        }
    }

    /// The jiffy's work besides transmitting: failure-domain ejection,
    /// buffer release and the PROBEs it asks for, keepalive, completion.
    fn housekeeping(&mut self, now: Micros) {
        let probes_at_entry = self.stats.probes_sent;
        self.maybe_eject(now);
        self.try_release(now);
        self.maybe_early_probe(now);
        self.maybe_keepalive(now);
        self.prune_nonces(now);

        // Refresh the membership-pressure gauges (all serde-skipped, so
        // serialized stats and fixture hashes are unaffected).
        self.stats.probes_last_tick = self.stats.probes_sent - probes_at_entry;
        let costs = self.membership.costs();
        self.stats.gate_checks = costs.gate_checks;
        self.stats.gate_members_scanned = costs.members_scanned;
    }

    /// Failure-domain pass: eject members that stopped answering PROBEs
    /// (`probe_failure_limit` consecutive failures) or fell silent past
    /// `member_silence_us`. An ejected member stops gating buffer
    /// release, so one crashed receiver cannot stall the group forever;
    /// reliability toward it is forfeited (it must re-JOIN to resume).
    /// Both knobs default to 0 (disabled) — the published protocol.
    fn maybe_eject(&mut self, now: Micros) {
        if self.config.probe_failure_limit == 0 && self.config.member_silence_us == 0 {
            return;
        }
        let mut victims = self
            .membership
            .probe_failed(self.config.probe_failure_limit);
        for p in self.membership.stale(now, self.config.member_silence_us) {
            if !victims.contains(&p) {
                victims.push(p);
            }
        }
        victims.sort_unstable();
        for peer in victims {
            if self.membership.eject(peer) {
                self.stats.members_ejected += 1;
                self.ejected.push(peer);
                emit!(self, now, Event::MemberEjected { peer });
                // Restart the keepalive backoff (same rationale as LEAVE:
                // a restarted receiver's re-JOIN should not meet a line
                // idling at the 2 s cap).
                self.keepalive.on_activity(now);
            }
        }
    }

    /// Attempt to advance the send window (release buffer space). This is
    /// the heart of the Figure 3 experiment: each segment's first
    /// eligibility is counted, and whether the sender already had complete
    /// receiver information decides whether the release proceeds (Hybrid)
    /// or merely whether it was *safe* (RMC).
    fn try_release(&mut self, now: Micros) {
        let mut minbuf = scale(self.rtt.rtt(), self.config.minbuf_rtts as f64);
        // Join race guard: while nobody has joined there is no RTT sample
        // and (in Hybrid mode) the membership gate is vacuous, so hold
        // releases long enough for a high-delay JOIN to arrive (see
        // `ProtocolConfig::anonymous_release_hold`). Both modes need it:
        // the paper's RMC, too, seeds its release clock from JOIN-derived
        // RTT estimates.
        if self.membership.is_empty() {
            minbuf = minbuf.max(self.config.anonymous_release_hold);
        }
        #[allow(clippy::while_let_loop)] // two let-else exits; loop reads clearer
        loop {
            let Some(front) = self.window.front() else {
                break;
            };
            let Some(last_sent) = front.last_sent else {
                break;
            };
            if now.saturating_sub(last_sent) < minbuf {
                break; // MINBUF residency not yet met
            }
            let seq = front.seq;
            let complete = self.membership.all_have(seq);
            // Count each segment's first eligibility exactly once.
            let counted = self
                .release_attempt_counted_through
                .is_some_and(|c| seq_le(seq, c));
            if !counted {
                self.stats.release_attempts += 1;
                if complete {
                    self.stats.release_attempts_with_complete_info += 1;
                }
                self.release_attempt_counted_through = Some(seq);
            }
            match self.config.mode {
                ReliabilityMode::RmcNakOnly => {
                    if !complete {
                        self.stats.unsafe_releases += 1;
                    }
                    self.window.release_front();
                    self.stats.segments_released += 1;
                    emit!(
                        self,
                        now,
                        Event::ReleaseAttempt {
                            seq,
                            complete,
                            released: true
                        }
                    );
                }
                ReliabilityMode::Hybrid => {
                    if complete {
                        self.window.release_front();
                        self.stats.segments_released += 1;
                        emit!(
                            self,
                            now,
                            Event::ReleaseAttempt {
                                seq,
                                complete,
                                released: true
                            }
                        );
                    } else {
                        emit!(
                            self,
                            now,
                            Event::ReleaseAttempt {
                                seq,
                                complete,
                                released: false
                            }
                        );
                        // Poll the receivers we lack information from.
                        self.send_probes(seq, now);
                        break;
                    }
                }
            }
        }
    }

    /// Unicast (or multicast, per policy) PROBE packets to the receivers
    /// whose state for `seq` is unknown, rate-limited per receiver.
    ///
    /// The laggard set is collected into a reused scratch buffer (no
    /// per-tick allocation) and, when `probe_batch_limit` is set, unicast
    /// fan-out is capped per tick with a round-robin cursor so successive
    /// ticks sweep the whole set instead of bursting one PROBE per
    /// laggard per jiffy. The multicast-vs-unicast decision is judged on
    /// the *uncapped* laggard count: demand decides the transport, the
    /// cap only paces it.
    fn send_probes(&mut self, seq: Seq, now: Micros) {
        let retry = scale(self.rtt.rtt(), PROBE_RETRY_RTTS).max(JIFFY_US);
        let mut lacking = std::mem::take(&mut self.probe_scratch);
        self.membership.lacking_where(seq, &mut lacking, |m| {
            m.last_probed.is_none_or(|t| now.saturating_sub(t) >= retry)
        });
        if lacking.is_empty() {
            self.probe_scratch = lacking;
            return;
        }
        let multicast = match self.config.probe_transport {
            ProbeTransport::Unicast => false,
            ProbeTransport::MulticastAbove(n) => lacking.len() > n,
        };
        if multicast {
            let pkt = self.make_probe(seq, now);
            self.stats.probes_sent += 1;
            for p in &lacking {
                self.membership.mark_probed(*p, now);
            }
            emit!(
                self,
                now,
                Event::ProbeSent {
                    seq,
                    multicast: true
                }
            );
            self.push_out(Dest::Multicast, pkt);
        } else {
            let total = lacking.len();
            let limit = self.config.probe_batch_limit as usize;
            let (start, count) = if limit == 0 || total <= limit {
                (0, total)
            } else {
                (self.probe_rr_cursor % total, limit)
            };
            for i in 0..count {
                let p = lacking[(start + i) % total];
                let pkt = self.make_probe(seq, now);
                self.stats.probes_sent += 1;
                self.membership.mark_probed(p, now);
                emit!(
                    self,
                    now,
                    Event::ProbeSent {
                        seq,
                        multicast: false
                    }
                );
                self.push_out(Dest::Unicast(p), pkt);
            }
            if count < total {
                self.probe_rr_cursor = (start + count) % total;
                self.stats.probes_deferred_by_batch += (total - count) as u64;
            }
        }
        self.probe_scratch = lacking;
    }

    /// Early-probe optimization (paper future-work item 1): probe lacking
    /// receivers `lead_rtts` before the front segment becomes
    /// release-eligible, so the stop-and-wait stall disappears.
    fn maybe_early_probe(&mut self, now: Micros) {
        let ProbePolicy::Early { lead_rtts } = self.config.probe_policy else {
            return;
        };
        if self.config.mode != ReliabilityMode::Hybrid {
            return;
        }
        let Some(front) = self.window.front() else {
            return;
        };
        let Some(last_sent) = front.last_sent else {
            return;
        };
        let seq = front.seq;
        let eligible_at = last_sent + scale(self.rtt.rtt(), self.config.minbuf_rtts as f64);
        let lead = scale(self.rtt.rtt(), lead_rtts as f64);
        if now + lead >= eligible_at && !self.membership.all_have(seq) {
            self.send_probes(seq, now);
        }
    }

    fn maybe_keepalive(&mut self, now: Micros) {
        // No keepalives before anything was transmitted.
        let Some(last) = self.last_transmitted else {
            return;
        };
        if self.is_finished() {
            return;
        }
        if self.keepalive.poll(now) {
            let pkt = self.make_control(PacketType::Keepalive, last);
            self.stats.keepalives_sent += 1;
            emit!(
                self,
                now,
                Event::KeepaliveSent {
                    backoff_us: self.keepalive.delay()
                }
            );
            self.push_out(Dest::Multicast, pkt);
        }
    }

    fn prune_nonces(&mut self, now: Micros) {
        if self.probe_nonces.len() < 1024 {
            return;
        }
        let ttl = scale(self.rtt.rtt(), NONCE_TTL_RTTS);
        self.probe_nonces
            .retain(|_, sent| now.saturating_sub(*sent) < ttl);
    }

    // ------------------------------------------------------------------
    // Packet construction and output
    // ------------------------------------------------------------------

    fn rate_adv(&self) -> u32 {
        self.rate.rate().min(u64::from(u32::MAX)) as u32
    }

    fn make_control(&self, ptype: PacketType, seq: Seq) -> Packet {
        let mut pkt = Packet::control(ptype, self.local_port, self.group_port, seq);
        pkt.header.rate_adv = self.rate_adv();
        pkt
    }

    fn make_probe(&mut self, seq: Seq, now: Micros) -> Packet {
        let nonce = self.next_nonce;
        self.next_nonce = self.next_nonce.wrapping_add(1).max(1);
        self.probe_nonces.insert(nonce, now);
        let mut pkt = self.make_control(PacketType::Probe, seq);
        pkt.header.length = nonce;
        pkt
    }

    fn push_out(&mut self, dest: Dest, packet: Packet) {
        self.out.push_back(Outgoing { dest, packet });
    }

    /// Drain one outgoing packet, if any.
    pub fn poll_output(&mut self) -> Option<Outgoing> {
        self.out.pop_front()
    }

    /// Every member ejected so far (unanswered PROBEs or silence past
    /// `member_silence_us`), in ejection order; a member ejected again
    /// after re-joining appears again. Data such a member lacked is no
    /// longer guaranteed to it.
    pub fn ejected_members(&self) -> &[PeerId] {
        &self.ejected
    }

    /// Publish membership-pressure gauges into `reg` — the continuous-
    /// telemetry hook. Drivers call this while gathering a sample so
    /// `hrmc top` and `/metrics` show group size and what the release
    /// gate's scans actually cost.
    pub fn publish_metrics(&self, reg: &mut crate::metrics::MetricsRegistry) {
        let costs = self.membership.costs();
        reg.set_gauge("membership_size", self.membership.len() as u64);
        reg.set_gauge("membership_gate_checks", costs.gate_checks);
        reg.set_gauge("membership_gate_members_scanned", costs.members_scanned);
        reg.set_gauge("probes_last_tick", self.stats.probes_last_tick);
        reg.set_gauge(
            "probes_deferred_by_batch",
            self.stats.probes_deferred_by_batch,
        );
    }

    /// Record an incoming datagram discarded for checksum failure. The
    /// driver decodes (and checksum-verifies) before the engine ever
    /// sees a packet, so it reports the failure here for stats/events.
    pub fn note_checksum_failure(&mut self, now: Micros) {
        self.stats.checksum_failures += 1;
        emit!(self, now, Event::ChecksumFailed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keepalive::{KEEPALIVE_INITIAL_US, KEEPALIVE_MAX_US};

    const P1: PeerId = PeerId(1);

    fn engine(mode: ReliabilityMode) -> SenderEngine {
        let config = match mode {
            ReliabilityMode::Hybrid => ProtocolConfig::hrmc(),
            ReliabilityMode::RmcNakOnly => ProtocolConfig::rmc(),
        }
        .with_buffer(64 * 1024);
        SenderEngine::new(config, 7000, 7001, 0, 0)
    }

    fn drain(s: &mut SenderEngine) -> Vec<Outgoing> {
        std::iter::from_fn(|| s.poll_output()).collect()
    }

    fn join(s: &mut SenderEngine, peer: PeerId, echoed: Seq, now: Micros) {
        let pkt = Packet::control(PacketType::Join, 9, 7000, echoed);
        s.handle_packet(&pkt, peer, now);
    }

    fn update(s: &mut SenderEngine, peer: PeerId, next_expected: Seq, now: Micros) {
        let pkt = Packet::control(PacketType::Update, 9, 7000, next_expected);
        s.handle_packet(&pkt, peer, now);
    }

    /// Drive ticks until `deadline`, draining output.
    fn run_until(s: &mut SenderEngine, from: Micros, deadline: Micros) -> Vec<Outgoing> {
        let mut all = Vec::new();
        let mut t = from;
        while t <= deadline {
            s.on_tick(t);
            all.extend(drain(s));
            t += JIFFY_US;
        }
        all
    }

    #[test]
    fn next_wakeup_idle_active_keepalive_finished() {
        let mut s = engine(ReliabilityMode::Hybrid);
        // Nothing queued and nothing ever sent: fully idle.
        assert_eq!(s.next_wakeup(0), None);
        // Unsent data: jiffy-armed.
        s.submit(&vec![7u8; 3000], 0);
        assert_eq!(s.next_wakeup(0), Some(JIFFY_US));
        // With no members the segments sit out the 2 s anonymous release
        // hold, then drain. After that only the keepalive timer remains,
        // and the reported deadline is never in the past.
        let _ = run_until(&mut s, 0, 3_000_000);
        assert_eq!(s.buffered_bytes(), 0);
        let t = s.next_wakeup(3_000_000).expect("keepalive stays armed");
        assert!(t >= 3_000_000);
        // Closing queues the FIN segment: jiffy-armed again.
        s.close(3_010_000);
        assert_eq!(s.next_wakeup(3_010_000), Some(3_010_000 + JIFFY_US));
        let _ = run_until(&mut s, 3_010_000, 6_000_000);
        assert!(s.is_finished());
        assert_eq!(s.next_wakeup(6_000_000), None);
    }

    /// `on_tick` is a transmitter pass followed by the housekeeping and
    /// nothing else: driven either way at the same instants, through
    /// joins, a NAK, confirmations, releases and the FIN, two senders
    /// emit the same packets in the same order and count the same stats.
    #[test]
    fn on_tick_is_transmit_then_housekeeping() {
        fn feedback(s: &mut SenderEngine, t: Micros) {
            match t {
                0 => {
                    join(s, P1, 0, t);
                    join(s, PeerId(2), 0, t);
                    s.submit(&vec![7u8; 40_000], t);
                }
                150_000 => {
                    let mut nak = Packet::control(PacketType::Nak, 9, 7000, 3);
                    nak.header.length = 2;
                    nak.header.rate_adv = 3;
                    s.handle_packet(&nak, P1, t);
                }
                300_000 => {
                    update(s, P1, 20, t);
                    update(s, PeerId(2), 12, t);
                    s.close(t);
                }
                450_000 => {
                    update(s, P1, 30, t);
                    update(s, PeerId(2), 30, t);
                }
                _ => {}
            }
        }
        let sent = |s: &mut SenderEngine| -> Vec<(Dest, Packet)> {
            drain(s).into_iter().map(|o| (o.dest, o.packet)).collect()
        };
        let mut ticked = engine(ReliabilityMode::Hybrid);
        let mut split = engine(ReliabilityMode::Hybrid);
        let (mut out_ticked, mut out_split) = (Vec::new(), Vec::new());
        // The NAK's RTT sample stretches MINBUF past a second: run on
        // until the window has drained.
        let mut t = 0;
        while t <= 4_000_000 {
            feedback(&mut ticked, t);
            ticked.on_tick(t);
            out_ticked.extend(sent(&mut ticked));
            feedback(&mut split, t);
            split.transmit(t);
            split.housekeeping(t);
            out_split.extend(sent(&mut split));
            t += JIFFY_US;
        }
        assert!(ticked.stats.retransmissions > 0 && ticked.stats.probes_sent > 0);
        assert!(ticked.stats.segments_released > 0 && ticked.is_finished());
        assert_eq!(out_ticked, out_split);
        assert_eq!(ticked.stats, split.stats);
    }

    #[test]
    fn next_transmit_names_the_gate() {
        let mut s = engine(ReliabilityMode::Hybrid);
        // Nothing queued: nothing to wait for.
        assert_eq!(s.next_transmit(0), None);
        // Data but no credit yet: a pacing quantum away (at the 64 KiB/s
        // floor one full segment is 1420 wire bytes of line time).
        s.submit(&vec![0u8; 20_000], 0);
        let t = s.next_transmit(0).expect("unsent data");
        assert_eq!(t, (1420u64 * 1_000_000).div_ceil(64 * 1024));
        // Any credit at all sends now, and the pass then waits out the
        // overdraft plus a quantum.
        assert_eq!(s.next_transmit(500), Some(500));
        s.transmit(500);
        assert_eq!(drain(&mut s).len(), 1);
        let again = s.next_transmit(500).expect("backlog left");
        assert!(again > 500 + t, "overdraft not charged: {again}");
        // An urgent stop gates until it ends.
        let mut ctl = Packet::control(PacketType::Control, 9, 7000, 0);
        ctl.header.flags.urg = true;
        s.handle_packet(&ctl, P1, 1_000);
        assert_eq!(s.next_transmit(1_000), Some(1_000 + 2 * s.rtt()));
    }

    #[test]
    fn next_transmit_waits_out_the_local_recovery_hold() {
        let cfg = ProtocolConfig::hrmc()
            .with_buffer(64 * 1024)
            .with_local_recovery();
        let mut s = SenderEngine::new(cfg, 7000, 7001, 0, 0);
        join(&mut s, P1, 0, 0);
        s.submit(&vec![0u8; 1400], 0);
        run_until(&mut s, 0, 100_000);
        assert_eq!(s.next_transmit(100_000), None, "all sent, none queued");
        let mut nak = Packet::control(PacketType::Nak, 9, 7000, 0);
        nak.header.length = 1;
        s.handle_packet(&nak, P1, 100_000);
        let (_, ready_at, _) = s.retrans_queue[0];
        assert!(ready_at > 100_000);
        assert_eq!(s.next_transmit(100_000), Some(ready_at));
        // A peer repaired it meanwhile: the entry will be dropped, so
        // there is nothing to wake for.
        update(&mut s, P1, 1, 100_500);
        assert_eq!(s.next_transmit(ready_at), None);
    }

    #[test]
    fn submit_fragments_into_segments() {
        let mut s = engine(ReliabilityMode::Hybrid);
        let n = s.submit(&vec![7u8; 3000], 0);
        assert_eq!(n, 3000);
        // 1400 + 1400 + 200.
        assert_eq!(s.buffered_bytes(), 3000);
        let sent = run_until(&mut s, 0, 500_000);
        let data: Vec<_> = sent
            .iter()
            .filter(|o| o.packet.header.ptype == PacketType::Data)
            .collect();
        assert_eq!(data.len(), 3);
        assert_eq!(data[0].packet.header.seq, 0);
        assert_eq!(data[0].packet.payload.len(), 1400);
        assert_eq!(data[2].packet.payload.len(), 200);
        assert!(data.iter().all(|o| o.dest == Dest::Multicast));
        assert_eq!(s.stats.data_packets_sent, 3);
    }

    #[test]
    fn submit_blocks_at_sndbuf() {
        let mut s = engine(ReliabilityMode::Hybrid);
        let big = vec![0u8; 128 * 1024];
        let n = s.submit(&big, 0);
        assert!(n < big.len());
        assert!(n >= 64 * 1024 - 1400);
        // Still blocked: nothing more is queued.
        let buffered = s.buffered_bytes();
        assert_eq!(s.submit(&big, 0), 0);
        assert_eq!(s.buffered_bytes(), buffered);
        // A segment that still fits the tail is taken whole.
        let free = 64 * 1024 - buffered;
        assert!(free > 0);
        assert_eq!(s.submit(&vec![2u8; free], 0), free);
    }

    #[test]
    fn rate_limits_transmission_per_tick() {
        let mut s = engine(ReliabilityMode::Hybrid);
        s.submit(&vec![0u8; 60_000], 0);
        // min_rate = 64 KiB/s → ~655 bytes per 10 ms jiffy: one segment
        // roughly every other tick at the start.
        s.on_tick(JIFFY_US);
        let first = drain(&mut s).len();
        assert!(first <= 1, "sent {first} packets in one minimum-rate tick");
    }

    #[test]
    fn join_creates_member_and_responds() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 1000);
        assert_eq!(s.member_count(), 1);
        let out = drain(&mut s);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.header.ptype, PacketType::JoinResponse);
        assert_eq!(out[0].dest, Dest::Unicast(P1));
        assert_eq!(s.stats.joins, 1);
    }

    #[test]
    fn leave_removes_member_and_responds() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 1000);
        drain(&mut s);
        let pkt = Packet::control(PacketType::Leave, 9, 7000, 5);
        s.handle_packet(&pkt, P1, 2000);
        assert_eq!(s.member_count(), 0);
        let out = drain(&mut s);
        assert_eq!(out[0].packet.header.ptype, PacketType::LeaveResponse);
        assert_eq!(s.stats.leaves, 1);
    }

    #[test]
    fn nak_triggers_retransmission_with_tries() {
        let mut s = engine(ReliabilityMode::Hybrid);
        // Join first so the membership gate keeps the segments buffered.
        join(&mut s, P1, 0, 0);
        s.submit(&vec![0u8; 2800], 0);
        run_until(&mut s, 0, 300_000);
        assert_eq!(s.stats.data_packets_sent, 2);
        // NAK for seq 0 (rate_adv piggybacks rcv_nxt = 0).
        let mut nak = Packet::control(PacketType::Nak, 9, 7000, 0);
        nak.header.length = 1;
        nak.header.rate_adv = 0;
        s.handle_packet(&nak, P1, 310_000);
        let out = run_until(&mut s, 310_000, 400_000);
        let retrans: Vec<_> = out
            .iter()
            .filter(|o| o.packet.header.ptype == PacketType::Data && o.packet.header.seq == 0)
            .collect();
        assert_eq!(retrans.len(), 1);
        assert_eq!(retrans[0].packet.header.tries, 1);
        assert_eq!(s.stats.retransmissions, 1);
        assert_eq!(s.stats.naks_received, 1);
    }

    #[test]
    fn duplicate_naks_queue_one_retransmission() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        s.submit(&vec![0u8; 1400], 0);
        run_until(&mut s, 0, 200_000);
        let mut nak = Packet::control(PacketType::Nak, 9, 7000, 0);
        nak.header.length = 1;
        s.handle_packet(&nak, P1, 210_000);
        s.handle_packet(&nak, P1, 210_500);
        let out = run_until(&mut s, 220_000, 400_000);
        let retrans = out
            .iter()
            .filter(|o| o.packet.header.ptype == PacketType::Data)
            .count();
        assert_eq!(retrans, 1);
    }

    #[test]
    fn nak_halves_rate_once_per_rtt() {
        let mut s = engine(ReliabilityMode::Hybrid);
        s.submit(&vec![0u8; 1400], 0);
        run_until(&mut s, 0, 1_000_000);
        let before = s.rate();
        let mut nak = Packet::control(PacketType::Nak, 9, 7000, 0);
        nak.header.length = 1;
        s.handle_packet(&nak, P1, 1_000_000);
        s.handle_packet(&nak, P1, 1_000_100);
        assert_eq!(s.rate(), before / 2);
    }

    #[test]
    fn urgent_control_stops_transmission() {
        let mut s = engine(ReliabilityMode::Hybrid);
        s.submit(&vec![0u8; 60_000], 0);
        run_until(&mut s, 0, 200_000);
        let mut ctl = Packet::control(PacketType::Control, 9, 7000, 0);
        ctl.header.flags.urg = true;
        s.handle_packet(&ctl, P1, 200_000);
        assert_eq!(s.stats.urgent_rate_requests_received, 1);
        // Refill the window (slow start drained the first batch long ago).
        s.submit(&vec![0u8; 20_000], 200_000);
        // No data for the next two RTTs (rtt default 10 ms → 20 ms).
        s.on_tick(205_000);
        s.on_tick(215_000);
        let during: Vec<_> = drain(&mut s)
            .into_iter()
            .filter(|o| o.packet.header.ptype == PacketType::Data)
            .collect();
        assert!(during.is_empty(), "data sent during urgent stop");
        // Transmission resumes afterwards, from the minimum rate.
        let after = run_until(&mut s, 230_000, 500_000);
        assert!(after
            .iter()
            .any(|o| o.packet.header.ptype == PacketType::Data));
        assert_eq!(s.stats.rate_requests_received, 1);
    }

    #[test]
    fn hybrid_release_waits_for_confirmation_and_probes() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        drain(&mut s);
        s.submit(&vec![0u8; 1400], 0);
        // Transmit, then run well past MINBUF × RTT (10 × 10 ms = 100 ms).
        let out = run_until(&mut s, 0, 400_000);
        assert_eq!(s.stats.segments_released, 0, "released unconfirmed data");
        let probes: Vec<_> = out
            .iter()
            .filter(|o| o.packet.header.ptype == PacketType::Probe)
            .collect();
        assert!(!probes.is_empty(), "no probes for the lacking receiver");
        assert!(probes.iter().all(|o| o.dest == Dest::Unicast(P1)));
        // The UPDATE confirming receipt unblocks the release.
        update(&mut s, P1, 1, 400_000);
        run_until(&mut s, 400_000, 450_000);
        assert_eq!(s.stats.segments_released, 1);
        assert_eq!(s.stats.unsafe_releases, 0);
    }

    #[test]
    fn rmc_releases_unconditionally_and_nak_errs() {
        let mut s = engine(ReliabilityMode::RmcNakOnly);
        join(&mut s, P1, 0, 0);
        drain(&mut s);
        s.submit(&vec![0u8; 1400], 0);
        let out = run_until(&mut s, 0, 400_000);
        assert_eq!(s.stats.segments_released, 1);
        assert_eq!(s.stats.unsafe_releases, 1);
        assert!(
            !out.iter()
                .any(|o| o.packet.header.ptype == PacketType::Probe),
            "RMC must not probe"
        );
        // A late NAK for the released segment gets NAK_ERR.
        let mut nak = Packet::control(PacketType::Nak, 9, 7000, 0);
        nak.header.length = 1;
        s.handle_packet(&nak, P1, 500_000);
        let out = drain(&mut s);
        assert!(out
            .iter()
            .any(|o| o.packet.header.ptype == PacketType::NakErr
                && o.packet.header.seq == 0
                && o.dest == Dest::Unicast(P1)));
        assert_eq!(s.stats.nak_errs_sent, 1);
    }

    #[test]
    fn hybrid_ignores_stale_nak_for_released_data() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        s.submit(&vec![0u8; 1400], 0);
        run_until(&mut s, 0, 150_000);
        update(&mut s, P1, 1, 150_000);
        run_until(&mut s, 150_000, 300_000);
        assert_eq!(s.stats.segments_released, 1);
        let mut nak = Packet::control(PacketType::Nak, 9, 7000, 0);
        nak.header.length = 1;
        s.handle_packet(&nak, P1, 310_000);
        let out = drain(&mut s);
        assert!(!out
            .iter()
            .any(|o| o.packet.header.ptype == PacketType::NakErr));
        assert_eq!(s.stats.nak_errs_sent, 0);
    }

    #[test]
    fn release_attempt_counted_once_per_segment() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        s.submit(&vec![0u8; 1400], 0);
        // Many ticks past eligibility: still one attempt counted.
        run_until(&mut s, 0, 800_000);
        assert_eq!(s.stats.release_attempts, 1);
        assert_eq!(s.stats.release_attempts_with_complete_info, 0);
        update(&mut s, P1, 1, 800_000);
        run_until(&mut s, 800_000, 900_000);
        assert_eq!(s.stats.release_attempts, 1);
        assert_eq!(s.complete_info_ratio_test(), 0.0);
    }

    #[test]
    fn keepalive_fires_when_idle_with_backoff() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        s.submit(&vec![0u8; 1400], 0);
        update(&mut s, P1, 1, 0);
        let out = run_until(&mut s, 0, 10_000_000);
        let kas: Vec<&Outgoing> = out
            .iter()
            .filter(|o| o.packet.header.ptype == PacketType::Keepalive)
            .collect();
        assert!(kas.len() >= 3, "got {} keepalives", kas.len());
        assert!(kas
            .iter()
            .all(|o| o.packet.header.seq == 0 && o.dest == Dest::Multicast));
        // Backoff: inter-keepalive spacing must reach but not exceed 2 s.
        assert!(s.stats.keepalives_sent as usize == kas.len());
        assert!(kas.len() <= 10, "backoff failed: {} keepalives", kas.len());
    }

    #[test]
    fn transfer_completes_after_close_and_confirmation() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        s.submit(&vec![0u8; 1400], 0);
        s.close(0);
        assert!(!s.is_finished());
        let out = run_until(&mut s, 0, 200_000);
        // FIN segment (seq 1, empty) transmitted with the FIN flag.
        assert!(out.iter().any(|o| {
            o.packet.header.ptype == PacketType::Data
                && o.packet.header.seq == 1
                && o.packet.header.flags.fin
        }));
        update(&mut s, P1, 2, 200_000); // receiver confirms both segments
        run_until(&mut s, 200_000, 400_000);
        assert!(s.is_finished());
    }

    #[test]
    fn multicast_probe_above_threshold() {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.probe_transport = ProbeTransport::MulticastAbove(2);
        let mut s = SenderEngine::new(cfg, 7000, 7001, 0, 0);
        for p in 1..=4u32 {
            join(&mut s, PeerId(p), 0, 0);
        }
        drain(&mut s);
        s.submit(&vec![0u8; 1400], 0);
        let out = run_until(&mut s, 0, 300_000);
        let probes: Vec<_> = out
            .iter()
            .filter(|o| o.packet.header.ptype == PacketType::Probe)
            .collect();
        assert!(!probes.is_empty());
        assert!(
            probes.iter().all(|o| o.dest == Dest::Multicast),
            "4 lacking receivers > threshold 2 must multicast the probe"
        );
    }

    #[test]
    fn probe_batch_limit_paces_fanout_round_robin() {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.probe_batch_limit = 2;
        let mut s = SenderEngine::new(cfg, 7000, 7001, 0, 0);
        let peers: Vec<PeerId> = (1..=5u32).map(PeerId).collect();
        for &p in &peers {
            join(&mut s, p, 0, 0);
        }
        drain(&mut s);
        s.submit(&vec![0u8; 1400], 0);
        // Drive tick by tick: no tick may exceed the cap, yet the
        // round-robin cursor must reach every laggard.
        let mut probed: HashSet<PeerId> = HashSet::new();
        let mut t = 0;
        while t <= 400_000 {
            s.on_tick(t);
            let probes: Vec<PeerId> = drain(&mut s)
                .into_iter()
                .filter(|o| o.packet.header.ptype == PacketType::Probe)
                .filter_map(|o| match o.dest {
                    Dest::Unicast(p) => Some(p),
                    _ => None,
                })
                .collect();
            assert!(
                probes.len() <= 2,
                "tick at {t} emitted {} probes past the cap",
                probes.len()
            );
            assert_eq!(s.stats.probes_last_tick, probes.len() as u64);
            probed.extend(probes);
            t += JIFFY_US;
        }
        assert_eq!(
            probed.len(),
            peers.len(),
            "round-robin never reached some laggards: {probed:?}"
        );
        assert!(s.stats.probes_deferred_by_batch > 0);
        assert_eq!(s.stats.segments_released, 0);
    }

    #[test]
    fn probe_batch_cap_does_not_defeat_multicast_threshold() {
        // The multicast decision sees all 4 laggards even though the cap
        // would allow only one unicast probe per tick: demand picks the
        // transport, the cap only paces unicast fan-out.
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.probe_transport = ProbeTransport::MulticastAbove(2);
        cfg.probe_batch_limit = 1;
        let mut s = SenderEngine::new(cfg, 7000, 7001, 0, 0);
        for p in 1..=4u32 {
            join(&mut s, PeerId(p), 0, 0);
        }
        drain(&mut s);
        s.submit(&vec![0u8; 1400], 0);
        let out = run_until(&mut s, 0, 300_000);
        let probes: Vec<_> = out
            .iter()
            .filter(|o| o.packet.header.ptype == PacketType::Probe)
            .collect();
        assert!(!probes.is_empty());
        assert!(probes.iter().all(|o| o.dest == Dest::Multicast));
        assert_eq!(s.stats.probes_deferred_by_batch, 0);
    }

    #[test]
    fn early_probe_fires_before_eligibility() {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.probe_policy = ProbePolicy::Early { lead_rtts: 4 };
        let mut s = SenderEngine::new(cfg, 7000, 7001, 0, 0);
        join(&mut s, P1, 0, 0);
        drain(&mut s);
        s.submit(&vec![0u8; 1400], 0);
        // Eligibility at first_sent + 10 RTTs ≈ 100 ms; early probe must
        // appear by ~6 RTTs ≈ 60 ms + transmission time.
        let out = run_until(&mut s, 0, 80_000);
        assert!(
            out.iter()
                .any(|o| o.packet.header.ptype == PacketType::Probe),
            "no early probe before release eligibility"
        );
        assert_eq!(s.stats.segments_released, 0);
    }

    #[test]
    fn update_with_nonce_samples_rtt() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        s.submit(&vec![0u8; 1400], 0);
        let out = run_until(&mut s, 0, 300_000);
        let probe = out
            .iter()
            .find(|o| o.packet.header.ptype == PacketType::Probe)
            .expect("probe");
        let nonce = probe.packet.header.length;
        assert_ne!(nonce, 0);
        let before_samples = s.rtt.samples_taken();
        let mut upd = Packet::control(PacketType::Update, 9, 7000, 1);
        upd.header.length = nonce;
        s.handle_packet(&upd, P1, 305_000);
        assert_eq!(s.rtt.samples_taken(), before_samples + 1);
    }

    #[test]
    fn release_makes_room_for_a_blocked_submit() {
        let mut s = engine(ReliabilityMode::RmcNakOnly);
        let n = s.submit(&vec![0u8; 128 * 1024], 0);
        assert!(n < 128 * 1024);
        let full = s.buffered_bytes();
        assert_eq!(s.submit(&[0u8; 1400], 0), 0);
        // No members: the anonymous-release hold (2 s) applies first.
        run_until(&mut s, 0, 6_000_000);
        assert!(s.stats.segments_released > 0);
        assert!(s.buffered_bytes() < full);
        assert_eq!(s.submit(&[0u8; 1400], 6_000_000), 1400);
    }

    #[test]
    fn keepalive_backoff_resets_on_leave() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        s.submit(&vec![0u8; 1400], 0);
        update(&mut s, P1, 1, 0);
        // Idle long enough for the backoff to reach the 2 s cap.
        run_until(&mut s, 0, 10_000_000);
        assert_eq!(s.keepalive.delay(), KEEPALIVE_MAX_US);
        let pkt = Packet::control(PacketType::Leave, 9, 7000, 0);
        s.handle_packet(&pkt, P1, 10_000_000);
        assert_eq!(
            s.keepalive.delay(),
            KEEPALIVE_INITIAL_US,
            "a re-JOIN after this LEAVE must not inherit the capped backoff"
        );
    }

    #[test]
    fn unanswered_probes_eject_member_and_unblock_release() {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.probe_failure_limit = 3;
        let mut s = SenderEngine::new(cfg, 7000, 7001, 0, 0);
        join(&mut s, P1, 0, 0);
        join(&mut s, PeerId(2), 0, 0);
        s.submit(&vec![0u8; 1400], 0);
        update(&mut s, P1, 1, 0); // P1 confirms; PeerId(2) goes silent
        run_until(&mut s, 0, 1_000_000);
        assert_eq!(s.stats.members_ejected, 1);
        assert_eq!(s.member_count(), 1);
        assert_eq!(s.ejected_members(), [PeerId(2)]);
        assert_eq!(
            s.stats.segments_released, 1,
            "ejection must unblock the release gate"
        );
        // Keepalive backoff restarted at ejection time.
        assert!(s.keepalive.delay() < KEEPALIVE_MAX_US);
    }

    #[test]
    fn silence_deadline_ejects_caught_up_member() {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.member_silence_us = 1_000_000;
        let mut s = SenderEngine::new(cfg, 7000, 7001, 0, 0);
        join(&mut s, P1, 0, 0);
        // Fully caught up (nothing submitted): no probes are ever owed,
        // so only the silence deadline can notice the death.
        run_until(&mut s, 0, 500_000);
        assert_eq!(s.member_count(), 1);
        run_until(&mut s, 500_000, 1_200_000);
        assert_eq!(s.member_count(), 0);
        assert_eq!(s.stats.members_ejected, 1);
    }

    #[test]
    fn checksum_failures_are_counted() {
        let mut s = engine(ReliabilityMode::Hybrid);
        s.note_checksum_failure(100);
        s.note_checksum_failure(200);
        assert_eq!(s.stats.checksum_failures, 2);
    }

    #[test]
    fn hostile_nak_span_is_clamped_and_counted() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        s.submit(&[7u8; 4096], 0);
        let _ = run_until(&mut s, 0, 50_000);
        // A forged NAK naming a 2^32-sequence gap: the honest window is
        // a few segments, so the span must be clamped and audited, and
        // handling it must not buy the attacker four billion loop turns
        // (the test would time out if it did).
        let mut nak = Packet::control(PacketType::Nak, 9, 7000, 0);
        nak.header.length = u32::MAX;
        s.handle_packet(&nak, P1, 60_000);
        assert_eq!(s.stats.malformed_packets, 1);
        // Retransmissions stay bounded by what the window actually
        // holds; the forged span buys nothing extra.
        let retrans_queued = s.retrans_queue.len();
        assert!(
            retrans_queued <= s.config.sndbuf_segments(),
            "forged NAK inflated the retransmission queue: {retrans_queued}"
        );
        // An honest in-window NAK is NOT flagged.
        let mut honest = Packet::control(PacketType::Nak, 9, 7000, 0);
        honest.header.length = 2;
        s.handle_packet(&honest, P1, 70_000);
        assert_eq!(s.stats.malformed_packets, 1);
    }

    #[test]
    fn feedback_past_the_assigned_sequences_is_refused() {
        let mut s = engine(ReliabilityMode::Hybrid);
        join(&mut s, P1, 0, 0);
        s.submit(&[7u8; 4096], 0);
        drain(&mut s);
        let next = s.window.next_seq();
        // Every feedback kind, claiming one past the last assigned
        // sequence, from the member and from an unknown peer.
        let claim = next.wrapping_add(1);
        let mut nak = Packet::control(PacketType::Nak, 9, 7000, 0);
        nak.header.rate_adv = claim;
        let forged = [
            Packet::control(PacketType::Join, 9, 7000, claim),
            nak,
            Packet::control(PacketType::Control, 9, 7000, claim),
            Packet::control(PacketType::Update, 9, 7000, claim),
        ];
        for pkt in &forged {
            s.handle_packet(pkt, P1, 100);
            s.handle_packet(pkt, PeerId(2), 100);
        }
        assert_eq!(s.stats.malformed_packets, 8);
        assert!(drain(&mut s).is_empty(), "a refused packet is not answered");
        assert_eq!(s.member_count(), 1, "a refused JOIN adds no member");
        let m = s.membership.get(P1).unwrap();
        assert_eq!(m.next_expected, 0);
        assert_eq!(m.last_heard, 0, "refused feedback is no sign of life");
        // A claim of exactly `next_seq` is honest: the member has it all.
        update(&mut s, P1, next, 200);
        assert_eq!(s.stats.malformed_packets, 8);
        assert_eq!(s.membership.get(P1).unwrap().next_expected, next);
    }

    impl SenderEngine {
        fn complete_info_ratio_test(&self) -> f64 {
            self.stats.complete_info_ratio()
        }
    }
}
