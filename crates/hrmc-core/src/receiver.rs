//! The H-RMC receiver engine (paper §4.3, Figure 9).
//!
//! The kernel receiver comprises three packet queues and four functional
//! components; here they map to one state machine:
//!
//! | Paper component | Engine location |
//! |-----------------|-----------------|
//! | Initial Packet Processor (`hrmc_ip_rcv`) | driver demux + [`ReceiverEngine::handle_packet`] |
//! | Backlog Queue (`backlog_queue`) | [`ReceiverEngine::lock`] / [`ReceiverEngine::unlock`] |
//! | Main Packet Processor (`hrmc_rcv_data`) | DATA path of [`ReceiverEngine::handle_packet`] |
//! | Out-of-Order Queue (`out_of_order_queue`) | [`crate::rxwindow::ReceiveWindow`] |
//! | Receive Queue (`receive_queue`) | [`crate::rxwindow::ReceiveWindow`] |
//! | NAK Manager (`nak_timer`) | [`crate::nak::NakManager`], scanned in [`ReceiverEngine::on_tick`] |
//! | Update Generator (`update_timer`) | [`crate::update::UpdateGenerator`], polled in [`ReceiverEngine::on_tick`] |
//! | Application Interface (`hrmc_recvmsg`) | [`ReceiverEngine::read`] |

use bytes::Bytes;
use hrmc_wire::{Packet, PacketType, Seq};
use std::collections::BTreeMap;

use crate::config::{ProtocolConfig, UpdateMode};
use crate::fec::FecDecoder;
use crate::keepalive::KEEPALIVE_MAX_US;
use crate::nak::{suppress_interval, NakManager};
use crate::obs::emit;
use crate::obs::{Event, NakTrigger, ProtocolObserver};
use crate::rate::URGENT_STOP_RTTS;
use crate::rtt::MIN_RTT_US;
use crate::rxwindow::{unwrap_seq, Offer, ReceiveWindow, Region};
use crate::stats::ReceiverStats;
use crate::time::{scale, Micros, MS};
use crate::update::UpdateGenerator;
use crate::{Dest, Outgoing};

/// Rate rule 2 look-ahead in RTTs. Paper §2: "the amount of data that may
/// be sent at the advertised rate for the next WARNBUF (currently set to
/// 4) round-trip times".
pub(crate) const WARNBUF_RTTS: f64 = 4.0;

/// Minimum spacing between warning CONTROL packets, in RTTs.
const CONTROL_MIN_INTERVAL_RTTS: f64 = 1.0;

/// JOIN retry interval while unconfirmed.
pub const JOIN_RETRY_US: Micros = 200 * MS;

/// JOIN handshake progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinState {
    /// No data seen yet; nothing to join.
    Idle,
    /// JOIN sent (echoing `echoed`) at the embedded time; awaiting
    /// JOIN_RESPONSE.
    Sent { at: Micros, echoed: Seq },
    /// JOIN_RESPONSE received.
    Confirmed,
}

/// The receiver half of the protocol. See the module docs for the mapping
/// to the paper's architecture.
pub struct ReceiverEngine {
    config: ProtocolConfig,
    local_port: u16,
    group_port: u16,
    window: ReceiveWindow,
    naks: NakManager,
    updates: UpdateGenerator,
    /// Optional FEC payload cache + reconstructor (extension).
    fec: Option<FecDecoder>,
    /// Local-recovery repair cache: recently delivered payloads this
    /// receiver can re-multicast for peers (extension; `None` unless
    /// `local_recovery` is enabled).
    repair_cache: Option<BTreeMap<u64, Bytes>>,
    /// Scheduled peer repairs: unwrapped seq → fire time. Cancelled when
    /// the data is seen on the wire first (another peer, or the sender,
    /// answered).
    pending_repairs: BTreeMap<u64, Micros>,
    /// Throttle for recovery UPDATEs (local recovery: tell the sender
    /// promptly that a peer repair filled our gap, so its held-back
    /// retransmission cancels).
    last_recovery_update: Option<Micros>,
    join: JoinState,
    /// JOINs sent since the last confirmation (bounded by
    /// `join_retry_limit` when nonzero).
    join_attempts: u32,
    /// When we last heard anything sender-originated (death detection).
    last_sender_heard: Option<Micros>,
    /// Terminal failure latch: sender presumed dead or JOIN budget
    /// exhausted. All timers disarm; packets are ignored.
    failed: bool,
    leaving: bool,
    /// Receiver-side RTT estimate, seeded from config and refined by the
    /// JOIN handshake; drives NAK suppression and rate rule 2.
    rtt: Micros,
    /// Most recent rate advertisement heard from the sender (bytes/s).
    advertised_rate: u64,
    /// Throttles warning CONTROL packets.
    last_control: Option<Micros>,
    /// Throttles urgent CONTROL packets.
    last_urgent: Option<Micros>,
    /// Socket-locked flag; packets arriving while locked go to the
    /// backlog queue (paper Figure 9).
    locked: bool,
    backlog: Vec<Packet>,
    out: std::collections::VecDeque<Outgoing>,
    /// Public counters; the experiment harnesses read these.
    pub stats: ReceiverStats,
    /// Optional observability hook (None by default: zero-cost).
    observer: Option<Box<dyn ProtocolObserver>>,
    /// Window region last reported to the observer, diffed to detect
    /// safe → warning → critical crossings in either direction.
    last_region: Region,
}

impl ReceiverEngine {
    /// Create a receiver bound to `local_port` listening on the group
    /// port.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(
        config: ProtocolConfig,
        local_port: u16,
        group_port: u16,
        now: Micros,
    ) -> ReceiverEngine {
        config.validate().expect("invalid ProtocolConfig");
        let window = ReceiveWindow::new(config.rcvbuf, config.segment_size);
        let updates = UpdateGenerator::new(config.update_mode, now);
        let fec = config.fec.map(|f| FecDecoder::new(8 * f.k.max(4)));
        let repair_cache = config.local_recovery.then(BTreeMap::new);
        ReceiverEngine {
            window,
            naks: NakManager::new(),
            updates,
            fec,
            repair_cache,
            pending_repairs: BTreeMap::new(),
            last_recovery_update: None,
            join: JoinState::Idle,
            join_attempts: 0,
            last_sender_heard: None,
            failed: false,
            leaving: false,
            rtt: config.initial_rtt,
            advertised_rate: 0,
            last_control: None,
            last_urgent: None,
            locked: false,
            backlog: Vec::new(),
            out: std::collections::VecDeque::new(),
            stats: ReceiverStats::default(),
            observer: None,
            last_region: Region::Safe,
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

    /// Pre-attach the receive window at a known initial sequence number.
    /// Call before any data arrives, for receivers that start before the
    /// sender (every file-transfer experiment in the paper): a lost
    /// first packet is then a NAKable gap, not a silently missed prefix.
    /// Without this the receiver attaches wherever it tunes in
    /// (late-join semantics).
    pub fn expect_stream_start(&mut self, seq: Seq) {
        self.window.attach_at(seq);
    }

    /// Next expected sequence number, once attached to the stream.
    pub fn rcv_nxt(&self) -> Option<Seq> {
        self.window.rcv_nxt()
    }

    /// Bytes available to [`ReceiverEngine::read`].
    pub fn readable_bytes(&self) -> usize {
        self.window.readable_bytes()
    }

    /// `true` once the FIN arrived and every preceding byte assembled.
    pub fn stream_complete(&self) -> bool {
        self.window.stream_complete()
    }

    /// `true` when complete *and* fully read by the application.
    pub fn fully_consumed(&self) -> bool {
        self.window.fully_consumed()
    }

    /// Receiver-side RTT estimate.
    pub fn rtt(&self) -> Micros {
        self.rtt
    }

    /// Outstanding NAK entries (sequence numbers still missing) —
    /// the recovery backlog a telemetry sampler tracks over time.
    pub fn pending_naks(&self) -> usize {
        self.naks.len()
    }

    /// Receive-window occupancy as a fraction of capacity (0.0–1.0).
    pub fn window_occupancy(&self) -> f64 {
        self.window.occupancy()
    }

    // ------------------------------------------------------------------
    // Socket lock / backlog queue
    // ------------------------------------------------------------------

    /// Lock the socket: subsequent packets queue on the backlog, exactly
    /// as the kernel does while `hrmc_recvmsg` holds the sock. Drivers
    /// use this to model application read latency (the disk-to-disk
    /// tests).
    pub fn lock(&mut self) {
        self.locked = true;
    }

    /// Unlock the socket and process everything that backlogged.
    pub fn unlock(&mut self, now: Micros) {
        self.locked = false;
        let backlog = std::mem::take(&mut self.backlog);
        for pkt in backlog {
            self.process_packet(&pkt, now);
        }
    }

    // ------------------------------------------------------------------
    // Packet processing
    // ------------------------------------------------------------------

    /// Process one packet from the sender.
    pub fn handle_packet(&mut self, pkt: &Packet, now: Micros) {
        if self.locked {
            self.stats.backlogged_packets += 1;
            self.backlog.push(pkt.clone());
            return;
        }
        self.process_packet(pkt, now);
    }

    fn process_packet(&mut self, pkt: &Packet, now: Micros) {
        if self.failed {
            return; // terminal: the application must tear down
        }
        // Every sender packet advertises the current transmission rate.
        if pkt.header.ptype.is_sender_originated() {
            self.advertised_rate = u64::from(pkt.header.rate_adv);
            self.last_sender_heard = Some(now);
        }
        match pkt.header.ptype {
            PacketType::Data => self.on_data(pkt, now),
            PacketType::Parity => self.on_parity(pkt, now),
            PacketType::Probe => self.on_probe(pkt, now),
            PacketType::Keepalive => self.on_keepalive(pkt, now),
            PacketType::NakErr => self.on_nak_err(pkt, now),
            PacketType::JoinResponse => self.on_join_response(pkt, now),
            // Local recovery: peers' multicast NAKs are repair requests.
            PacketType::Nak if self.repair_cache.is_some() => self.on_peer_nak(pkt, now),
            // LEAVE_RESPONSE ends nothing the engine still tracks (LEAVE
            // was final); receiver-originated types looped back are
            // ignored.
            _ => {}
        }
    }

    fn on_data(&mut self, pkt: &Packet, now: Micros) {
        let seq = pkt.header.seq;
        let was_nak_pending =
            self.window.attached() && self.naks.contains(unwrap_seq(seq, self.window.next_u64()));
        // Delivery frontier before the offer, for the Delivered event.
        let next_before = self.window.attached().then(|| self.window.next_u64());
        let outcome = self
            .window
            .offer(seq, pkt.payload.clone(), pkt.header.flags.fin);
        if self.window.attached() {
            let useq = unwrap_seq(seq, self.window.next_u64());
            // Data on the wire (from the sender or a peer repair)
            // suppresses our own scheduled repair for it.
            self.pending_repairs.remove(&useq);
            if let Some(cache) = self.repair_cache.as_mut() {
                if !pkt.payload.is_empty() {
                    cache.insert(useq, pkt.payload.clone());
                    while cache.len() > 4096 {
                        cache.pop_first();
                    }
                }
            }
        }
        if matches!(self.join, JoinState::Idle) && self.window.attached() {
            // Paper §2: a receiver "send[s] a JOIN message to the sender
            // in response to the first data packet that it receives".
            self.send_join(seq, now);
        }
        match outcome {
            Offer::InOrder => {
                self.stats.data_packets_received += 1;
                let next = self.window.next_u64();
                if self.observer.is_some() {
                    let first = next_before.unwrap_or(next.saturating_sub(1));
                    emit!(
                        self,
                        now,
                        Event::Delivered {
                            first,
                            count: next.saturating_sub(first) as u32
                        }
                    );
                }
                let filled = self.naks.satisfy_below(next);
                if !filled.is_empty() {
                    self.emit_recovered(&filled, now);
                }
                if let Some(dec) = self.fec.as_mut() {
                    if !pkt.payload.is_empty() {
                        let useq = unwrap_seq(seq, self.window.next_u64());
                        dec.on_data(useq, pkt.payload.clone());
                    }
                }
            }
            Offer::OutOfOrder => {
                self.stats.data_packets_received += 1;
                let useq = unwrap_seq(seq, self.window.next_u64());
                if let Some(noted) = self.naks.satisfy(useq) {
                    self.emit_recovered(&[(useq, noted)], now);
                }
                if let Some(dec) = self.fec.as_mut() {
                    if !pkt.payload.is_empty() {
                        dec.on_data(useq, pkt.payload.clone());
                    }
                }
                // A gap was revealed (or extended). Without FEC the
                // fresh part is NAKed immediately; with FEC the NAK is
                // held one suppression interval (the nak_timer sends it)
                // so the block's parity gets a chance to repair locally
                // first — otherwise every recovery still costs a
                // retransmission that was already requested.
                let missing = self.window.missing_below(useq);
                if self.fec.is_some() {
                    self.naks.register(&missing, now);
                } else {
                    let fresh = self.naks.note_missing(&missing, now);
                    self.note_suppressed(&missing, &fresh, now);
                    self.send_naks(&fresh, now, NakTrigger::Gap);
                }
            }
            Offer::Duplicate => self.stats.duplicates_dropped += 1,
            Offer::Overflow => self.stats.overflow_drops += 1,
            Offer::BeyondWindow => self.stats.beyond_window_drops += 1,
        }
        self.flow_control(now);
        // Local recovery: a filled gap we had NAKed means the sender may
        // be holding a retransmission for us — refresh its state promptly
        // (throttled to one recovery UPDATE per half RTT).
        if self.config.local_recovery
            && was_nak_pending
            && matches!(outcome, Offer::InOrder | Offer::OutOfOrder)
        {
            let min_gap = (self.rtt / 2).max(1_000);
            if self
                .last_recovery_update
                .is_none_or(|t| now.saturating_sub(t) >= min_gap)
            {
                self.last_recovery_update = Some(now);
                self.send_update(0, now);
            }
        }
    }

    /// PARITY (FEC extension): attempt local reconstruction of a single
    /// lost packet in the covered block; a success is injected through
    /// the normal DATA path (clearing its pending NAK on the way).
    fn on_parity(&mut self, pkt: &Packet, now: Micros) {
        self.stats.fec_parities_received += 1;
        if !self.window.attached() {
            return;
        }
        let next = self.window.next_u64();
        let block_start = unwrap_seq(pkt.header.seq, next);
        let k = u64::from(pkt.header.length);
        // Both fields are attacker-controlled: a forged block position or
        // width must not fabricate a giant missing span (or overflow).
        if k > u64::from(crate::MAX_CONTROL_SPAN)
            || block_start > next.saturating_add(u64::from(crate::MAX_CONTROL_SPAN))
        {
            self.stats.malformed_packets += 1;
            return;
        }
        let missing = self.window.missing_below(block_start + k);
        let have = |s: u64| !missing.iter().any(|&(f, c)| s >= f && s < f + u64::from(c));
        let recovered = self
            .fec
            .as_mut()
            .and_then(|dec| dec.on_parity(block_start, pkt, have));
        if let Some((lost, payload)) = recovered {
            self.stats.fec_recoveries += 1;
            let mut synth = Packet::data(
                pkt.header.src_port,
                pkt.header.dst_port,
                lost as Seq,
                payload,
            );
            synth.header.rate_adv = pkt.header.rate_adv;
            self.on_data(&synth, now);
        }
    }

    fn on_probe(&mut self, pkt: &Packet, now: Micros) {
        self.stats.probes_received += 1;
        self.updates.on_probe();
        if !self.window.attached() {
            return; // never heard any data; nothing to confirm or request
        }
        let next = self.window.next_u64();
        let useq = unwrap_seq(pkt.header.seq, next);
        // A forged sequence far ahead of the stream — or "behind" an
        // early stream position, which unwraps to a huge u64 — would
        // fabricate an enormous missing range. Drop it.
        if useq > next.saturating_add(u64::from(crate::MAX_CONTROL_SPAN)) {
            self.stats.malformed_packets += 1;
            return;
        }
        if self.window.has_all_through(useq) {
            // "If so, then it immediately sends an UPDATE packet to the
            // sender" — echoing the probe nonce for the RTT sample.
            self.send_update(pkt.header.length, now);
        } else {
            // "Otherwise, the receiver generates a NAK message for the
            // needed data" — immediately, bypassing suppression.
            let missing = self.window.missing_below(useq.saturating_add(1));
            self.naks.register(&missing, now);
            let ranges = self.naks.force_below(useq.saturating_add(1), now);
            self.send_naks(&ranges, now, NakTrigger::Probe);
        }
    }

    fn on_keepalive(&mut self, pkt: &Packet, now: Micros) {
        self.stats.keepalives_received += 1;
        if !self.window.attached() {
            return;
        }
        // The keepalive names the last packet transmitted; anything below
        // it that we lack was lost at the tail of a burst (paper §2).
        let next = self.window.next_u64();
        let last = unwrap_seq(pkt.header.seq, next);
        // Same plausibility bound as PROBE: a forged far-future (or
        // wrapped-behind) sequence must not fabricate a giant gap.
        if last > next.saturating_add(u64::from(crate::MAX_CONTROL_SPAN)) {
            self.stats.malformed_packets += 1;
            return;
        }
        let missing = self.window.missing_below(last.saturating_add(1));
        let fresh = self.naks.note_missing(&missing, now);
        self.note_suppressed(&missing, &fresh, now);
        self.send_naks(&fresh, now, NakTrigger::Keepalive);
    }

    fn on_nak_err(&mut self, pkt: &Packet, now: Micros) {
        self.stats.nak_errs_received += 1;
        if !self.window.attached() {
            return;
        }
        // The sender cannot supply these packets; the application is told
        // and the stream continues past the hole (each lost packet becomes
        // a zero-length segment so reassembly can advance). In RMC mode
        // this is the documented reliability hole; in Hybrid mode it can
        // only happen for data released before this receiver's JOIN
        // arrived (the join race — see the sender's NAK handling).
        let first = pkt.header.seq;
        // Attacker-controlled span: clamp before looping (an honest
        // NAK_ERR answers one of our own NAK ranges, which the pending
        // cap already bounds).
        let count = pkt.header.length.max(1);
        let mut malformed = count > crate::MAX_CONTROL_SPAN;
        let count = count.min(crate::MAX_CONTROL_SPAN);
        for i in 0..count {
            let seq = first.wrapping_add(i);
            let useq = unwrap_seq(seq, self.window.next_u64());
            // Only a hole we NAKed is given up: a NAK_ERR we never asked
            // for (a stale session, a forged or damaged packet) must not
            // discard data still on its way. Below `rcv_nxt` it is moot.
            if self.naks.satisfy(useq).is_some() {
                let _ = self.window.offer(seq, bytes::Bytes::new(), false);
            } else if useq >= self.window.next_u64() {
                malformed = true;
            }
        }
        if malformed {
            self.stats.malformed_packets += 1;
        }
        self.naks.satisfy_below(self.window.next_u64());
        let _ = now;
    }

    /// Local recovery: a peer multicast a NAK. If we hold the requested
    /// data, schedule a repair after a port-keyed slot delay; hearing the
    /// data from anyone first cancels it (SRM-style suppression).
    fn on_peer_nak(&mut self, pkt: &Packet, now: Micros) {
        self.stats.peer_naks_heard += 1;
        if !self.window.attached() {
            return;
        }
        let Some(cache) = self.repair_cache.as_ref() else {
            return;
        };
        let first = unwrap_seq(pkt.header.seq, self.window.next_u64());
        // Attacker-controlled span: clamp before looping.
        let raw = pkt.header.length.max(1);
        if raw > crate::MAX_CONTROL_SPAN {
            self.stats.malformed_packets += 1;
        }
        let count = u64::from(raw.min(crate::MAX_CONTROL_SPAN));
        // Slot the response by port with half-RTT spacing: a repair from
        // an earlier slot propagates to later-slot holders before their
        // timers fire, so typically one peer answers (SRM-style
        // suppression without per-pair distance estimates).
        let slot = u64::from(self.local_port % 16);
        let fire_at = now + (self.rtt / 2).max(1_000) * (1 + slot);
        for useq in first..first.saturating_add(count) {
            if cache.contains_key(&useq) {
                self.pending_repairs.entry(useq).or_insert(fire_at);
            }
        }
    }

    /// Fire scheduled peer repairs that came due.
    fn fire_repairs(&mut self, now: Micros) {
        let Some(cache) = self.repair_cache.as_ref() else {
            return;
        };
        let due: Vec<u64> = self
            .pending_repairs
            .iter()
            .filter(|(_, at)| **at <= now)
            .map(|(s, _)| *s)
            .collect();
        if due.is_empty() {
            return;
        }
        let mut repairs = Vec::new();
        for useq in due {
            self.pending_repairs.remove(&useq);
            if let Some(payload) = cache.get(&useq) {
                let mut pkt = Packet::data(
                    self.local_port,
                    self.group_port,
                    useq as Seq,
                    payload.clone(),
                );
                // Preserve the sender's advertisement so peers' flow
                // control keeps a sane rate estimate.
                pkt.header.rate_adv = self.advertised_rate.min(u64::from(u32::MAX)) as u32;
                pkt.header.tries = 1;
                repairs.push(pkt);
            }
        }
        for pkt in repairs {
            self.stats.repairs_sent += 1;
            self.out.push_back(Outgoing {
                dest: Dest::Multicast,
                packet: pkt,
            });
        }
    }

    fn on_join_response(&mut self, _pkt: &Packet, now: Micros) {
        if let JoinState::Sent { at, .. } = self.join {
            // The handshake round trip is the receiver's RTT sample.
            self.rtt = now.saturating_sub(at).max(MIN_RTT_US);
            self.join = JoinState::Confirmed;
            self.join_attempts = 0;
            emit!(self, now, Event::Joined { rtt_us: self.rtt });
        }
    }

    /// Latch the terminal failure state: timers disarm, packets are
    /// ignored, and the application is told once.
    fn fail_session(&mut self, now: Micros) {
        if self.failed {
            return;
        }
        self.failed = true;
        self.stats.session_failures += 1;
        emit!(self, now, Event::SessionFailed);
    }

    /// `true` once the session failed terminally (sender presumed dead or
    /// JOIN retry budget exhausted).
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// Record an incoming datagram discarded for checksum failure. The
    /// driver decodes (and checksum-verifies) before the engine ever
    /// sees a packet, so it reports the failure here for stats/events.
    pub fn note_checksum_failure(&mut self, now: Micros) {
        self.stats.checksum_failures += 1;
        emit!(self, now, Event::ChecksumFailed);
    }

    // ------------------------------------------------------------------
    // Observer helpers
    // ------------------------------------------------------------------

    /// Report each coalesced run of satisfied NAK entries as one recovery,
    /// with latency measured from the earliest first-noted time in the run.
    fn emit_recovered(&mut self, filled: &[(u64, Micros)], now: Micros) {
        if self.observer.is_none() {
            return;
        }
        let mut iter = filled.iter().copied();
        let Some((mut first, mut noted)) = iter.next() else {
            return;
        };
        let mut count = 1u32;
        for (seq, n) in iter {
            if seq == first + u64::from(count) {
                count += 1;
                noted = noted.min(n);
            } else {
                let elapsed_us = now.saturating_sub(noted);
                emit!(
                    self,
                    now,
                    Event::Recovered {
                        first,
                        count,
                        elapsed_us
                    }
                );
                first = seq;
                noted = n;
                count = 1;
            }
        }
        let elapsed_us = now.saturating_sub(noted);
        emit!(
            self,
            now,
            Event::Recovered {
                first,
                count,
                elapsed_us
            }
        );
    }

    /// Report how many already-pending gaps local NAK suppression held
    /// back (the difference between the gaps noted and the fresh ones).
    fn note_suppressed(&mut self, missing: &[(u64, u32)], fresh: &[(u64, u32)], now: Micros) {
        if self.observer.is_none() {
            return;
        }
        let total: u64 = missing.iter().map(|&(_, c)| u64::from(c)).sum();
        let fresh_n: u64 = fresh.iter().map(|&(_, c)| u64::from(c)).sum();
        if total > fresh_n {
            emit!(
                self,
                now,
                Event::NakSuppressed {
                    pending: (total - fresh_n) as u32
                }
            );
        }
    }

    /// Report window-region crossings (both fill-side and drain-side).
    fn note_region(&mut self, now: Micros) {
        if self.observer.is_none() {
            return;
        }
        let region = self.window.region();
        if region != self.last_region {
            emit!(
                self,
                now,
                Event::RegionChanged {
                    from: self.last_region,
                    to: region
                }
            );
            self.last_region = region;
        }
    }

    // ------------------------------------------------------------------
    // Flow control: the three rate-request rules (paper §2)
    // ------------------------------------------------------------------

    fn flow_control(&mut self, now: Micros) {
        self.note_region(now);
        match self.window.region() {
            // Rule 1: "if the receive window is filled only into the safe
            // region, then no flow control action is taken".
            Region::Safe => {}
            // Rule 2: warning region — request a lower rate if the sender
            // would overrun the free window within WARNBUF RTTs at the
            // advertised rate.
            Region::Warning => {
                let lookahead_bytes =
                    self.advertised_rate as f64 * (WARNBUF_RTTS * self.rtt as f64 / 1_000_000.0);
                if lookahead_bytes > self.window.free_bytes() as f64 {
                    let min_gap = scale(self.rtt, CONTROL_MIN_INTERVAL_RTTS);
                    if self
                        .last_control
                        .is_none_or(|t| now.saturating_sub(t) >= min_gap)
                    {
                        self.last_control = Some(now);
                        self.send_control(false, now);
                    }
                }
            }
            // Rule 3: critical region — urgent request, which stops
            // forward transmission for two RTTs regardless of rate.
            Region::Critical => {
                let min_gap = scale(self.rtt, URGENT_STOP_RTTS as f64);
                if self
                    .last_urgent
                    .is_none_or(|t| now.saturating_sub(t) >= min_gap)
                {
                    self.last_urgent = Some(now);
                    self.last_control = Some(now);
                    self.send_control(true, now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers (nak_timer, update_timer, join retry)
    // ------------------------------------------------------------------

    /// Run one receiver tick at `now`. Drivers call this every jiffy.
    pub fn on_tick(&mut self, now: Micros) {
        if self.failed {
            return; // terminal: every timer is disarmed
        }

        // Sender-death detection: silence beyond KEEPALIVE_MAX_US × factor
        // means even a fully backed-off keepalive line went quiet.
        if let Some(deadline) = self.death_deadline() {
            if now >= deadline {
                self.fail_session(now);
                return;
            }
        }

        // NAK manager: re-send suppressed NAKs whose interval lapsed.
        let due = self.naks.due(now, suppress_interval(self.rtt));
        self.send_naks(&due, now, NakTrigger::Timer);

        // Update generator.
        if self.window.attached() && self.updates.poll(now) {
            self.send_update(0, now);
        }

        // JOIN retry while unconfirmed, every JOIN_RETRY_US, bounded by
        // the retry budget when one is configured.
        if let JoinState::Sent { at, echoed } = self.join {
            if now.saturating_sub(at) >= JOIN_RETRY_US {
                if self.config.join_retry_limit != 0
                    && self.join_attempts >= self.config.join_retry_limit
                {
                    self.fail_session(now);
                    return;
                }
                self.send_join(echoed, now);
            }
        }

        // Local recovery: answer peers whose slot delay has lapsed.
        self.fire_repairs(now);
    }

    /// Absolute time at which sender silence becomes terminal, or `None`
    /// when death detection is off, the handshake never completed, the
    /// stream already completed, or nothing was ever heard.
    fn death_deadline(&self) -> Option<Micros> {
        if self.config.sender_death_factor == 0
            || self.join != JoinState::Confirmed
            || self.window.stream_complete()
        {
            return None;
        }
        let heard = self.last_sender_heard?;
        Some(heard + KEEPALIVE_MAX_US * u64::from(self.config.sender_death_factor))
    }

    /// Absolute time of the earliest armed timer [`on_tick`] would act
    /// on, or `None` when the receiver is fully idle (no missing data, no
    /// periodic updates, no JOIN retry pending, no scheduled peer
    /// repairs). A deadline-driven driver may sleep until this time and
    /// re-query after every `handle_packet` call, which can arm or
    /// disarm any of these timers.
    ///
    /// [`on_tick`]: ReceiverEngine::on_tick
    pub fn next_wakeup(&self, now: Micros) -> Option<Micros> {
        if self.failed {
            return None; // terminal: nothing will ever fire again
        }
        let mut next: Option<Micros> = None;
        let mut arm = |t: Micros| next = Some(next.map_or(t, |cur| cur.min(t)));

        if let Some(t) = self.naks.next_due(suppress_interval(self.rtt)) {
            arm(t);
        }
        if self.window.attached() && self.config.update_mode != UpdateMode::Disabled {
            arm(self.updates.next_fire());
        }
        if let JoinState::Sent { at, .. } = self.join {
            arm(at.saturating_add(JOIN_RETRY_US));
        }
        if let Some(t) = self.death_deadline() {
            arm(t);
        }
        if let Some(&t) = self.pending_repairs.values().min() {
            arm(t);
        }
        next.map(|t| t.max(now))
    }

    // ------------------------------------------------------------------
    // Application interface (hrmc_recvmsg)
    // ------------------------------------------------------------------

    /// Copy up to `buf.len()` in-order bytes to the application.
    pub fn read(&mut self, buf: &mut [u8], now: Micros) -> usize {
        let n = self.window.read(buf);
        self.stats.bytes_delivered += n as u64;
        self.note_region(now);
        n
    }

    /// Hand up to `max` in-order bytes to `f` as borrowed slices of the
    /// received payloads, in stream order (see
    /// [`ReceiveWindow::read_with`]). Returns the byte count.
    pub fn read_with(&mut self, max: usize, now: Micros, f: impl FnMut(&[u8])) -> usize {
        let n = self.window.read_with(max, f);
        self.stats.bytes_delivered += n as u64;
        self.note_region(now);
        n
    }

    /// Close the connection: "a receiver informs the supporting network
    /// layer that it wishes to leave the multicast group and sends a
    /// LEAVE message to the sender" (paper §2).
    pub fn close(&mut self, _now: Micros) {
        if self.leaving {
            return;
        }
        self.leaving = true;
        let seq = self.window.rcv_nxt().unwrap_or(0);
        let pkt = Packet::control(PacketType::Leave, self.local_port, self.group_port, seq);
        self.push_out(pkt);
    }

    // ------------------------------------------------------------------
    // Packet construction and output
    // ------------------------------------------------------------------

    fn send_join(&mut self, echoed: Seq, now: Micros) {
        self.join = JoinState::Sent { at: now, echoed };
        self.join_attempts += 1;
        let pkt = Packet::control(PacketType::Join, self.local_port, self.group_port, echoed);
        self.push_out(pkt);
    }

    fn send_update(&mut self, nonce: u32, now: Micros) {
        let Some(rcv_nxt) = self.window.rcv_nxt() else {
            return;
        };
        let mut pkt = Packet::control(
            PacketType::Update,
            self.local_port,
            self.group_port,
            rcv_nxt,
        );
        pkt.header.length = nonce;
        self.stats.updates_sent += 1;
        emit!(self, now, Event::UpdateSent { nonce });
        self.push_out(pkt);
    }

    fn send_naks(&mut self, ranges: &[(u64, u32)], now: Micros, trigger: NakTrigger) {
        let Some(rcv_nxt) = self.window.rcv_nxt() else {
            return;
        };
        for &(first, count) in ranges {
            let mut pkt = Packet::control(
                PacketType::Nak,
                self.local_port,
                self.group_port,
                first as Seq,
            );
            pkt.header.length = count;
            // NAKs piggyback rcv_nxt in the rate-advertisement field so
            // the sender's membership state stays exact (Header docs).
            pkt.header.rate_adv = rcv_nxt;
            self.stats.naks_sent += 1;
            emit!(
                self,
                now,
                Event::NakSent {
                    first,
                    count,
                    trigger
                }
            );
            if self.config.local_recovery {
                // Multicast so peers can repair (the sender hears it too).
                self.out.push_back(Outgoing {
                    dest: Dest::Multicast,
                    packet: pkt,
                });
            } else {
                self.push_out(pkt);
            }
        }
    }

    fn send_control(&mut self, urgent: bool, _now: Micros) {
        let Some(rcv_nxt) = self.window.rcv_nxt() else {
            return;
        };
        let mut pkt = Packet::control(
            PacketType::Control,
            self.local_port,
            self.group_port,
            rcv_nxt,
        );
        pkt.header.flags.urg = urgent;
        // Suggest the rate at which the free window would last WARNBUF
        // round trips.
        let window_secs = (WARNBUF_RTTS * self.rtt as f64 / 1_000_000.0).max(1e-6);
        pkt.header.rate_adv = ((self.window.free_bytes() as f64 / window_secs) as u64)
            .min(u64::from(u32::MAX)) as u32;
        self.stats.rate_requests_sent += 1;
        if urgent {
            self.stats.urgent_rate_requests_sent += 1;
        }
        self.push_out(pkt);
    }

    fn push_out(&mut self, packet: Packet) {
        self.out.push_back(Outgoing {
            dest: Dest::Sender,
            packet,
        });
    }

    /// Drain one outgoing packet, if any (always destined to the sender).
    pub fn poll_output(&mut self) -> Option<Outgoing> {
        self.out.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn engine() -> ReceiverEngine {
        ReceiverEngine::new(ProtocolConfig::hrmc().with_buffer(64 * 1024), 8000, 7001, 0)
    }

    fn data(seq: Seq, len: usize) -> Packet {
        let mut p = Packet::data(7000, 7001, seq, Bytes::from(vec![seq as u8; len]));
        p.header.rate_adv = 1_000_000;
        p
    }

    fn drain(r: &mut ReceiverEngine) -> Vec<Outgoing> {
        std::iter::from_fn(|| r.poll_output()).collect()
    }

    fn packets_of(out: &[Outgoing], t: PacketType) -> Vec<&Outgoing> {
        out.iter().filter(|o| o.packet.header.ptype == t).collect()
    }

    #[test]
    fn next_wakeup_none_when_fully_idle() {
        let r = engine();
        assert_eq!(r.next_wakeup(0), None);
    }

    #[test]
    fn next_wakeup_is_min_of_armed_timers() {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.update_mode = UpdateMode::Disabled;
        let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
        // First data arms the JOIN retry timer.
        r.handle_packet(&data(0, 100), 1_000);
        drain(&mut r);
        assert_eq!(r.next_wakeup(1_000), Some(1_000 + 200_000));
        // JOIN_RESPONSE confirms the handshake and disarms it (updates
        // are disabled, so the receiver goes fully idle). RTT is now
        // 5 ms.
        let resp = Packet::control(PacketType::JoinResponse, 7000, 7001, 0);
        r.handle_packet(&resp, 6_000);
        assert_eq!(r.next_wakeup(6_000), None);
        // A gap arms the NAK suppression timer: last_sent + suppression
        // interval (5 ms RTT × 1.5 = 7.5 ms beats the 2 ms floor).
        r.handle_packet(&data(2, 100), 10_000);
        drain(&mut r);
        assert_eq!(r.next_wakeup(10_000), Some(17_500));
        // The reported deadline is never in the past.
        assert_eq!(r.next_wakeup(30_000), Some(30_000));
        // The retransmission fills the gap and disarms the timer.
        r.handle_packet(&data(1, 100), 12_000);
        assert_eq!(r.next_wakeup(12_000), None);
    }

    #[test]
    fn first_data_triggers_join() {
        let mut r = engine();
        r.handle_packet(&data(10, 100), 1_000);
        let out = drain(&mut r);
        let joins = packets_of(&out, PacketType::Join);
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].packet.header.seq, 10);
        assert_eq!(r.rcv_nxt(), Some(11));
    }

    #[test]
    fn join_response_completes_handshake_and_samples_rtt() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 1_000);
        drain(&mut r);
        let resp = Packet::control(PacketType::JoinResponse, 7000, 7001, 0);
        r.handle_packet(&resp, 6_000);
        assert_eq!(r.rtt(), 5_000);
        assert_eq!(r.readable_bytes(), 100);
        // Confirmed: the JOIN is never retried.
        r.on_tick(1_000_000);
        assert!(packets_of(&drain(&mut r), PacketType::Join).is_empty());
    }

    #[test]
    fn join_retried_until_confirmed() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        r.on_tick(100_000); // before JOIN_RETRY_US (200 ms)
        assert!(drain(&mut r).is_empty());
        r.on_tick(200_000);
        let out = drain(&mut r);
        assert_eq!(packets_of(&out, PacketType::Join).len(), 1);
        // Retries repeat every JOIN_RETRY_US.
        r.on_tick(399_999);
        assert!(packets_of(&drain(&mut r), PacketType::Join).is_empty());
        r.on_tick(400_000);
        assert_eq!(packets_of(&drain(&mut r), PacketType::Join).len(), 1);
        // Confirmed: no more retries.
        let resp = Packet::control(PacketType::JoinResponse, 7000, 7001, 0);
        r.handle_packet(&resp, 410_000);
        r.on_tick(600_000);
        assert!(packets_of(&drain(&mut r), PacketType::Join).is_empty());
    }

    #[test]
    fn hostile_control_packets_are_audited_and_dropped() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        // KEEPALIVE advertising a last-sequence far beyond any plausible
        // window: dropped and audited, and no giant gap is fabricated.
        let far = Packet::control(
            PacketType::Keepalive,
            7000,
            7001,
            crate::MAX_CONTROL_SPAN + 100,
        );
        r.handle_packet(&far, 1_000);
        assert_eq!(r.stats.malformed_packets, 1);
        assert!(packets_of(&drain(&mut r), PacketType::Nak).is_empty());
        // A "behind" sequence that sign-extends and wraps to a huge
        // unwrapped value (the `x + 1` overflow hazard).
        let wrapped = Packet::control(PacketType::Keepalive, 7000, 7001, u32::MAX);
        r.handle_packet(&wrapped, 2_000);
        assert_eq!(r.stats.malformed_packets, 2);
        // Same forged sequence on a PROBE: audited, and no UPDATE or
        // NAK storm is provoked.
        let mut probe = Packet::control(PacketType::Probe, 7000, 7001, u32::MAX);
        probe.header.length = 77; // nonce
        r.handle_packet(&probe, 3_000);
        assert_eq!(r.stats.malformed_packets, 3);
        assert!(packets_of(&drain(&mut r), PacketType::Update).is_empty());
        // NAK_ERR spanning 2^32 sequences: span clamped (the test would
        // hang for minutes if the loop trusted the field). It names a
        // range past the live stream so the clamped prefix it does mark
        // lost cannot eat the honest data below.
        let mut ne = Packet::control(PacketType::NakErr, 7000, 7001, 10_000);
        ne.header.length = u32::MAX;
        r.handle_packet(&ne, 4_000);
        assert_eq!(r.stats.malformed_packets, 4);
        // After all that abuse the receiver still works: honest data
        // flows and an honest KEEPALIVE is not flagged.
        r.handle_packet(&data(1, 100), 5_000);
        let ok = Packet::control(PacketType::Keepalive, 7000, 7001, 1);
        r.handle_packet(&ok, 6_000);
        assert_eq!(r.stats.malformed_packets, 4);
        assert_eq!(r.stats.data_packets_received, 2);
        assert!(!r.has_failed());
    }

    #[test]
    fn gap_naks_immediately_with_rcv_nxt_piggyback() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        r.handle_packet(&data(3, 100), 1_000); // gap: 1, 2
        let out = drain(&mut r);
        let naks = packets_of(&out, PacketType::Nak);
        assert_eq!(naks.len(), 1);
        assert_eq!(naks[0].packet.header.seq, 1);
        assert_eq!(naks[0].packet.header.length, 2);
        assert_eq!(naks[0].packet.header.rate_adv, 1); // rcv_nxt
        assert_eq!(r.stats.naks_sent, 1);
    }

    #[test]
    fn nak_suppression_then_timer_resend() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        r.handle_packet(&data(2, 100), 1_000); // gap: 1
        drain(&mut r);
        // More out-of-order data does not re-NAK the known gap.
        r.handle_packet(&data(3, 100), 2_000);
        assert!(packets_of(&drain(&mut r), PacketType::Nak).is_empty());
        // The nak_timer re-sends after the suppression interval
        // (rtt 10 ms default × 1.5 = 15 ms).
        r.on_tick(10_000);
        assert!(packets_of(&drain(&mut r), PacketType::Nak).is_empty());
        r.on_tick(20_000);
        let naks: Vec<_> = drain(&mut r);
        assert_eq!(packets_of(&naks, PacketType::Nak).len(), 1);
    }

    #[test]
    fn retransmission_fills_gap_and_clears_nak() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        r.handle_packet(&data(2, 100), 1_000);
        drain(&mut r);
        r.handle_packet(&data(1, 100), 5_000);
        assert_eq!(r.rcv_nxt(), Some(3));
        // No pending NAK left: the timer stays silent forever.
        r.on_tick(1_000_000);
        assert!(packets_of(&drain(&mut r), PacketType::Nak).is_empty());
        let mut buf = [0u8; 1024];
        assert_eq!(r.read(&mut buf, 5_000), 300);
    }

    #[test]
    fn probe_when_complete_sends_update_with_nonce() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        r.handle_packet(&data(1, 100), 1_000);
        drain(&mut r);
        let mut probe = Packet::control(PacketType::Probe, 7000, 7001, 1);
        probe.header.length = 77; // nonce
        r.handle_packet(&probe, 2_000);
        let out = drain(&mut r);
        let ups = packets_of(&out, PacketType::Update);
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].packet.header.seq, 2); // rcv_nxt
        assert_eq!(ups[0].packet.header.length, 77); // echoed nonce
        assert_eq!(r.stats.probes_received, 1);
    }

    #[test]
    fn probe_when_incomplete_naks_immediately() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        // The sender asks about seq 2; we lack 1 and 2 entirely (no gap
        // was ever visible from data).
        let probe = Packet::control(PacketType::Probe, 7000, 7001, 2);
        r.handle_packet(&probe, 2_000);
        let out = drain(&mut r);
        let naks = packets_of(&out, PacketType::Nak);
        assert_eq!(naks.len(), 1);
        assert_eq!(naks[0].packet.header.seq, 1);
        assert_eq!(naks[0].packet.header.length, 2);
        assert!(packets_of(&out, PacketType::Update).is_empty());
    }

    #[test]
    fn keepalive_reveals_tail_loss() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        // Sender says the last transmitted packet was 4; 1..=4 missing.
        let ka = Packet::control(PacketType::Keepalive, 7000, 7001, 4);
        r.handle_packet(&ka, 50_000);
        let out = drain(&mut r);
        let naks = packets_of(&out, PacketType::Nak);
        assert_eq!(naks.len(), 1);
        assert_eq!(naks[0].packet.header.seq, 1);
        assert_eq!(naks[0].packet.header.length, 4);
        assert_eq!(r.stats.keepalives_received, 1);
    }

    #[test]
    fn update_timer_fires_and_adapts() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        assert_eq!(r.updates.period() / crate::JIFFY_US, 50);
        r.on_tick(500_000);
        let out = drain(&mut r);
        let ups = packets_of(&out, PacketType::Update);
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].packet.header.seq, 1);
        assert_eq!(ups[0].packet.header.length, 0); // unsolicited: no nonce
                                                    // Probe-free period: period grew by a jiffy.
        assert_eq!(r.updates.period() / crate::JIFFY_US, 51);
        // A probed period shrinks back.
        let probe = Packet::control(PacketType::Probe, 7000, 7001, 0);
        r.handle_packet(&probe, 600_000);
        drain(&mut r);
        r.on_tick(500_000 + 510_000);
        drain(&mut r);
        assert_eq!(r.updates.period() / crate::JIFFY_US, 50);
    }

    #[test]
    fn no_updates_before_attach() {
        let mut r = engine();
        r.on_tick(10_000_000);
        assert!(drain(&mut r).is_empty());
        assert_eq!(r.stats.updates_sent, 0);
    }

    #[test]
    fn warning_region_sends_rate_request() {
        // Tiny buffer so occupancy rises fast; huge advertised rate so
        // rule 2 trips.
        let cfg = ProtocolConfig {
            segment_size: 1_000,
            ..ProtocolConfig::hrmc().with_buffer(4_000)
        };
        let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
        r.handle_packet(&data(0, 1_000), 0); // 25%
        r.handle_packet(&data(1, 1_000), 1_000); // 50% → warning
        let out = drain(&mut r);
        let ctls = packets_of(&out, PacketType::Control);
        assert_eq!(ctls.len(), 1);
        assert!(!ctls[0].packet.header.flags.urg);
        assert_eq!(ctls[0].packet.header.seq, 2); // rcv_nxt
        assert!(ctls[0].packet.header.rate_adv > 0); // suggested rate
        assert_eq!(r.stats.rate_requests_sent, 1);
    }

    #[test]
    fn critical_region_sends_urgent() {
        let cfg = ProtocolConfig {
            segment_size: 1_000,
            ..ProtocolConfig::hrmc().with_buffer(4_000)
        };
        let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
        for i in 0..4 {
            r.handle_packet(&data(i, 1_000), i as u64 * 100);
        }
        let out = drain(&mut r);
        let urgent: Vec<_> = packets_of(&out, PacketType::Control)
            .into_iter()
            .filter(|o| o.packet.header.flags.urg)
            .collect();
        assert_eq!(urgent.len(), 1);
        assert_eq!(r.stats.urgent_rate_requests_sent, 1);
    }

    #[test]
    fn safe_region_sends_nothing() {
        let mut r = engine(); // 64 KiB buffer; 200 bytes is deep in safe
        r.handle_packet(&data(0, 100), 0);
        r.handle_packet(&data(1, 100), 100);
        let out = drain(&mut r);
        assert!(packets_of(&out, PacketType::Control).is_empty());
    }

    #[test]
    fn rate_requests_throttled_per_rtt() {
        let cfg = ProtocolConfig {
            segment_size: 1_000,
            ..ProtocolConfig::hrmc().with_buffer(8_000)
        };
        let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
        // Fill to warning and keep hammering within one RTT (10 ms).
        for i in 0..6 {
            r.handle_packet(&data(i, 1_000), 1_000 + i as u64);
        }
        let out = drain(&mut r);
        let warn: Vec<_> = packets_of(&out, PacketType::Control)
            .into_iter()
            .filter(|o| !o.packet.header.flags.urg)
            .collect();
        assert_eq!(warn.len(), 1, "warning requests not throttled");
    }

    #[test]
    fn locked_socket_backlogs_then_drains() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        r.lock();
        r.handle_packet(&data(1, 100), 1_000);
        r.handle_packet(&data(2, 100), 1_100);
        assert_eq!(r.rcv_nxt(), Some(1)); // nothing processed yet
        assert_eq!(r.stats.backlogged_packets, 2);
        r.unlock(2_000);
        assert_eq!(r.rcv_nxt(), Some(3));
        let mut buf = [0u8; 1024];
        assert_eq!(r.read(&mut buf, 2_000), 300);
    }

    #[test]
    fn fin_completes_stream() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        let mut fin = data(1, 50);
        fin.header.flags.fin = true;
        r.handle_packet(&fin, 1_000);
        assert!(r.stream_complete());
        assert!(!r.fully_consumed());
        let mut buf = [0u8; 1024];
        assert_eq!(r.read(&mut buf, 2_000), 150);
        assert!(r.fully_consumed());
    }

    #[test]
    fn nak_err_skips_hole_and_informs_app() {
        let cfg = ProtocolConfig::rmc().with_buffer(64 * 1024);
        let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
        r.handle_packet(&data(0, 100), 0);
        r.handle_packet(&data(3, 100), 1_000); // gap 1, 2
        drain(&mut r);
        let mut err = Packet::control(PacketType::NakErr, 7000, 7001, 1);
        err.header.length = 2;
        r.handle_packet(&err, 2_000);
        // The hole closed: rcv_nxt advanced past the lost packets.
        assert_eq!(r.rcv_nxt(), Some(4));
        // Only packets 0 and 3 reach the application.
        let mut buf = [0u8; 1024];
        assert_eq!(r.read(&mut buf, 2_000), 200);
        // No NAKs remain pending.
        r.on_tick(1_000_000);
        assert!(packets_of(&drain(&mut r), PacketType::Nak).is_empty());
        assert_eq!(r.stats.nak_errs_received, 1);
    }

    #[test]
    fn unsolicited_nak_err_discards_nothing() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        // NAK_ERR for 1–2 before any loss: this receiver never asked.
        let mut err = Packet::control(PacketType::NakErr, 7000, 7001, 1);
        err.header.length = 2;
        r.handle_packet(&err, 1_000);
        assert_eq!(r.stats.malformed_packets, 1);
        assert_eq!(r.rcv_nxt(), Some(1));
        for seq in 1..4 {
            r.handle_packet(&data(seq, 100), 2_000);
        }
        let mut buf = [0u8; 1024];
        assert_eq!(r.read(&mut buf, 3_000), 400);
        assert_eq!(r.stats.duplicates_dropped, 0);
        assert_eq!(r.stats.naks_sent, 0);
        // Half-solicited: the NAKed hole 5 is given up, the unNAKed 7
        // is not, 4 (already delivered) is moot, and the packet counts
        // once.
        r.handle_packet(&data(4, 100), 4_000);
        r.handle_packet(&data(6, 100), 5_000);
        drain(&mut r);
        let mut err = Packet::control(PacketType::NakErr, 7000, 7001, 4);
        err.header.length = 5;
        r.handle_packet(&err, 6_000);
        assert_eq!(r.stats.malformed_packets, 2);
        assert_eq!(r.rcv_nxt(), Some(7));
        r.handle_packet(&data(7, 100), 7_000);
        assert_eq!(r.read(&mut buf, 8_000), 300);
        assert_eq!(r.stats.duplicates_dropped, 0);
    }

    #[test]
    fn read_with_lends_payloads_and_counts_delivered_bytes() {
        let mut r = engine();
        for seq in 0..3 {
            r.handle_packet(&data(seq, 100), 0);
        }
        let mut lent = Vec::new();
        assert_eq!(r.read_with(250, 1_000, |c| lent.extend_from_slice(c)), 250);
        assert_eq!(lent, [[0u8; 100], [1; 100], [2; 100]].concat()[..250]);
        assert_eq!(r.stats.bytes_delivered, 250);
        assert_eq!(r.read_with(1_000, 2_000, |_| ()), 50);
        assert_eq!(r.stats.bytes_delivered, 300);
        assert_eq!(r.readable_bytes(), 0);
    }

    #[test]
    fn close_sends_leave_once() {
        let mut r = engine();
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        r.close(1_000);
        let out = drain(&mut r);
        assert_eq!(packets_of(&out, PacketType::Leave).len(), 1);
        r.close(1_500); // idempotent
        assert!(drain(&mut r).is_empty());
        let resp = Packet::control(PacketType::LeaveResponse, 7000, 7001, 0);
        r.handle_packet(&resp, 2_000);
        assert!(drain(&mut r).is_empty());
    }

    #[test]
    fn join_budget_exhaustion_fails_session() {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.update_mode = UpdateMode::Disabled;
        cfg.join_retry_limit = 3;
        let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
        r.handle_packet(&data(0, 100), 0); // attempt 1
        drain(&mut r);
        r.on_tick(200_000); // attempt 2
        r.on_tick(400_000); // attempt 3
        assert_eq!(packets_of(&drain(&mut r), PacketType::Join).len(), 2);
        assert!(!r.has_failed());
        r.on_tick(600_000); // budget exhausted
        assert!(r.has_failed());
        assert_eq!(r.stats.session_failures, 1);
        // Terminal: every timer disarmed, no further output, and the
        // failure is reported exactly once.
        assert_eq!(r.next_wakeup(600_000), None);
        r.on_tick(800_000);
        assert!(drain(&mut r).is_empty());
        assert_eq!(r.stats.session_failures, 1);
    }

    #[test]
    fn sender_silence_fails_session() {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.update_mode = UpdateMode::Disabled;
        cfg.sender_death_factor = 2; // 2 × 2 s = 4 s of silence
        let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
        r.handle_packet(&data(0, 100), 0);
        drain(&mut r);
        let resp = Packet::control(PacketType::JoinResponse, 7000, 7001, 0);
        r.handle_packet(&resp, 5_000);
        // The death deadline arms next_wakeup (otherwise idle).
        assert_eq!(r.next_wakeup(6_000), Some(5_000 + 4_000_000));
        r.on_tick(3_000_000);
        assert!(!r.has_failed());
        r.on_tick(4_005_000);
        assert!(r.has_failed());
        assert_eq!(r.next_wakeup(4_005_000), None);
        // Packets after the terminal failure are ignored.
        r.handle_packet(&data(1, 100), 4_100_000);
        assert_eq!(r.rcv_nxt(), Some(1));
    }

    #[test]
    fn completed_stream_never_declares_sender_death() {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
        cfg.update_mode = UpdateMode::Disabled;
        cfg.sender_death_factor = 2;
        let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
        let mut fin = data(0, 50);
        fin.header.flags.fin = true;
        r.handle_packet(&fin, 0);
        drain(&mut r);
        let resp = Packet::control(PacketType::JoinResponse, 7000, 7001, 0);
        r.handle_packet(&resp, 5_000);
        assert!(r.stream_complete());
        r.on_tick(60_000_000); // way past any silence deadline
        assert!(!r.has_failed());
    }

    #[test]
    fn receiver_checksum_failures_are_counted() {
        let mut r = engine();
        r.note_checksum_failure(10);
        assert_eq!(r.stats.checksum_failures, 1);
    }

    #[test]
    fn duplicates_and_overflow_counted() {
        let cfg = ProtocolConfig {
            segment_size: 1_000,
            ..ProtocolConfig::hrmc().with_buffer(2_000)
        };
        let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
        r.handle_packet(&data(0, 1_000), 0);
        r.handle_packet(&data(0, 1_000), 100);
        assert_eq!(r.stats.duplicates_dropped, 1);
        r.handle_packet(&data(1, 1_000), 200);
        r.handle_packet(&data(2, 1_000), 300); // buffer full → drop
        assert_eq!(r.stats.overflow_drops, 1);
    }
}
