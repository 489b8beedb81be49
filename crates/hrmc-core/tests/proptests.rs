//! Property-based tests on the core protocol invariants.

// One oracle keys a `HashMap`; the crate's clippy.toml bans it for the
// engines, whose iteration order must not depend on a hash seed.
#![allow(clippy::disallowed_types)]

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use hrmc_core::membership::Membership;
use hrmc_core::nak::NakManager;
use hrmc_core::rate::RateController;
use hrmc_core::rxwindow::{unwrap_seq, Offer, ReceiveWindow};
use hrmc_core::{PeerId, ProtocolConfig, SenderEngine, JIFFY_US, MAX_CONTROL_SPAN};
use hrmc_wire::{Packet, PacketType, Seq, HEADER_LEN};
use proptest::prelude::*;

const P1: PeerId = PeerId(1);

/// Feed the sender one feedback packet from `P1`.
fn feedback(s: &mut SenderEngine, ptype: PacketType, seq: u32, now: u64, urg: bool) {
    let mut pkt = Packet::control(ptype, 9, 7000, seq);
    pkt.header.length = 1;
    pkt.header.flags.urg = urg;
    s.handle_packet(&pkt, P1, now);
}

/// Drain the output queue; returns how many DATA packets it held and
/// their wire bytes.
fn drain_data(s: &mut SenderEngine) -> (usize, usize) {
    let (mut packets, mut bytes) = (0, 0);
    while let Some(out) = s.poll_output() {
        if out.packet.header.ptype == PacketType::Data {
            packets += 1;
            bytes += out.packet.wire_len();
        }
    }
    (packets, bytes)
}

/// The receive window as it was built on a `BTreeMap` out-of-order queue,
/// kept as the reference the sequence-indexed ring must agree with.
struct MapWindow {
    ready: VecDeque<Bytes>,
    front_offset: usize,
    ooo: BTreeMap<u64, Bytes>,
    next: Option<u64>,
    fin_seq: Option<u64>,
    buffered: usize,
    capacity: usize,
    span: u64,
}

impl MapWindow {
    fn new(capacity: usize, segment_size: usize) -> MapWindow {
        MapWindow {
            ready: VecDeque::new(),
            front_offset: 0,
            ooo: BTreeMap::new(),
            next: None,
            fin_seq: None,
            buffered: 0,
            capacity,
            span: ((capacity / segment_size.max(1)).max(2)) as u64,
        }
    }

    fn attach_at(&mut self, seq: Seq) {
        self.next.get_or_insert(seq as u64);
    }

    fn readable_bytes(&self) -> usize {
        self.ready.iter().map(Bytes::len).sum::<usize>() - self.front_offset
    }

    fn offer(&mut self, seq: Seq, payload: Bytes, fin: bool) -> Offer {
        let next = *self.next.get_or_insert(seq as u64);
        let useq = unwrap_seq(seq, next);
        if useq < next {
            return Offer::Duplicate;
        }
        if useq >= next + self.span {
            return Offer::BeyondWindow;
        }
        if self.buffered + payload.len() > self.capacity {
            return Offer::Overflow;
        }
        if fin {
            self.fin_seq = Some(useq);
        }
        if useq == next {
            self.buffered += payload.len();
            self.accept_in_order(payload);
            while let Some(entry) = self.ooo.first_entry() {
                if *entry.key() != self.next.unwrap() {
                    break;
                }
                let p = entry.remove();
                self.accept_in_order(p);
            }
            Offer::InOrder
        } else {
            if self.ooo.contains_key(&useq) {
                return Offer::Duplicate;
            }
            self.buffered += payload.len();
            self.ooo.insert(useq, payload);
            Offer::OutOfOrder
        }
    }

    fn accept_in_order(&mut self, payload: Bytes) {
        if !payload.is_empty() {
            self.ready.push_back(payload);
        }
        self.next = Some(self.next.unwrap() + 1);
    }

    /// `read` when `out` is given, `consume` otherwise.
    fn take(&mut self, n: usize, mut out: Option<&mut Vec<u8>>) -> usize {
        let mut left = n;
        while left > 0 {
            let Some(front) = self.ready.front() else {
                break;
            };
            let take = (front.len() - self.front_offset).min(left);
            if let Some(out) = out.as_deref_mut() {
                out.extend_from_slice(&front[self.front_offset..self.front_offset + take]);
            }
            left -= take;
            self.front_offset += take;
            self.buffered -= take;
            if self.front_offset == front.len() {
                self.ready.pop_front();
                self.front_offset = 0;
            }
        }
        n - left
    }

    fn missing_below(&self, limit: u64) -> Vec<(u64, u32)> {
        let Some(next) = self.next else {
            return Vec::new();
        };
        if limit <= next {
            return Vec::new();
        }
        let mut gaps = Vec::new();
        let mut cursor = next;
        for &have in self.ooo.range(next..limit).map(|(k, _)| k) {
            if have > cursor {
                gaps.push((cursor, (have - cursor) as u32));
            }
            cursor = have + 1;
        }
        if limit > cursor {
            gaps.push((cursor, (limit - cursor) as u32));
        }
        gaps
    }

    fn fully_consumed(&self) -> bool {
        matches!((self.fin_seq, self.next), (Some(f), Some(n)) if n > f) && self.ready.is_empty()
    }
}

// ----------------------------------------------------------------------
// ReceiveWindow: any arrival order of any subset (with duplicates) of a
// stream reassembles exactly the in-order prefix available, never
// corrupts bytes, and never double-counts buffer space.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rxwindow_reassembles_any_arrival_order(
        n_packets in 1usize..40,
        order in proptest::collection::vec(any::<prop::sample::Index>(), 0..120),
    ) {
        // Stream: packet i carries byte value i, 10 bytes each.
        let mut w = ReceiveWindow::new(1 << 20, 10);
        // Attach at 0 deterministically.
        w.offer(0, Bytes::from(vec![0u8; 10]), false);
        let mut offered = vec![false; n_packets];
        offered[0] = true;
        for idx in order {
            let i = idx.index(n_packets);
            let out = w.offer(i as u32, Bytes::from(vec![i as u8; 10]), false);
            match out {
                Offer::Duplicate => prop_assert!(offered[i]),
                Offer::InOrder | Offer::OutOfOrder => {
                    prop_assert!(!offered[i]);
                    offered[i] = true;
                }
                Offer::BeyondWindow | Offer::Overflow => {
                    prop_assert!(false, "huge window must accept everything: {out:?}");
                }
            }
        }
        // rcv_nxt must equal the length of the received prefix.
        let prefix = offered.iter().take_while(|&&x| x).count();
        prop_assert_eq!(w.rcv_nxt(), Some(prefix as u32));
        // The readable bytes must be exactly the prefix, in order.
        let mut buf = vec![0u8; prefix * 10 + 16];
        let n = w.read(&mut buf);
        prop_assert_eq!(n, prefix * 10);
        for i in 0..prefix {
            prop_assert!(buf[i * 10..(i + 1) * 10].iter().all(|&b| b == i as u8));
        }
        // After reading, buffered bytes are exactly the out-of-order ones.
        let ooo_count = offered.iter().skip(prefix).filter(|&&x| x).count();
        prop_assert_eq!(w.buffered_bytes(), ooo_count * 10);
    }

    #[test]
    fn rxwindow_missing_plus_present_partitions_space(
        present in proptest::collection::btree_set(1u32..60, 0..30),
        limit in 1u64..80,
    ) {
        let mut w = ReceiveWindow::new(1 << 20, 10);
        w.offer(0, Bytes::from(vec![0u8; 10]), false);
        for &s in &present {
            w.offer(s, Bytes::from(vec![1u8; 10]), false);
        }
        let next = u64::from(w.rcv_nxt().unwrap());
        let missing = w.missing_below(limit);
        // Missing ranges are sorted, disjoint, within [rcv_nxt, limit).
        let mut cursor = next;
        for &(first, count) in &missing {
            prop_assert!(first >= cursor);
            prop_assert!(count > 0);
            prop_assert!(first + count as u64 <= limit);
            cursor = first + count as u64;
        }
        // Every seq in [next, limit) is either present (delivered or ooo)
        // or covered by exactly one missing range.
        for s in next..limit {
            let in_missing = missing
                .iter()
                .any(|&(f, c)| s >= f && s < f + c as u64);
            let is_present = s < next || present.contains(&(s as u32));
            prop_assert_eq!(in_missing, !is_present, "seq {}", s);
        }
    }

    // The sequence-indexed ring agrees with the BTreeMap window it
    // replaced on one random script of offers (in order, out of order,
    // duplicate, zero-length, FIN, beyond the window, overflowing),
    // copying and borrowing reads and attaches, started 40 packets
    // before the 32-bit sequence wrap so the wrap lands mid-script.
    #[test]
    fn rxwindow_ring_agrees_with_the_map_window(
        capacity in 100usize..1_200,
        segment in 10usize..60,
        steps in proptest::collection::vec(
            (0u8..10, 0u32..1_000, 0usize..70, 0u8..12, 0u32..=MAX_CONTROL_SPAN),
            1..400,
        ),
    ) {
        const BASE: Seq = u32::MAX - 40;
        let mut ring = ReceiveWindow::new(capacity, segment);
        let mut map = MapWindow::new(capacity, segment);
        for (i, (op, rel, len, roll, reach)) in steps.into_iter().enumerate() {
            let anchor = map.next.map_or(BASE, |n| n as Seq);
            match op {
                0..=5 => {
                    let seq = match rel {
                        // A quarter land exactly on rcv_nxt, so the stream
                        // advances through the wrap.
                        r if r % 4 == 0 => anchor,
                        // Far off: unwraps behind (duplicate) or beyond.
                        r if r >= 990 => anchor.wrapping_add(r.wrapping_mul(4_999_999)),
                        r => anchor.wrapping_add(r % (map.span as u32 + 8)).wrapping_sub(4),
                    };
                    let len = if len < 10 { 0 } else { len };
                    let payload = Bytes::from(vec![seq as u8; len]);
                    let fin = roll == 0;
                    prop_assert_eq!(
                        ring.offer(seq, payload.clone(), fin),
                        map.offer(seq, payload, fin),
                        "step {} offer seq {}", i, seq
                    );
                }
                6 | 7 => {
                    let mut buf = vec![0u8; len];
                    let n = ring.read(&mut buf);
                    let mut want = Vec::new();
                    prop_assert_eq!(n, map.take(len, Some(&mut want)), "step {} read", i);
                    prop_assert_eq!(&buf[..n], &want[..], "step {} bytes", i);
                }
                8 => {
                    let mut lent = Vec::new();
                    let n = ring.read_with(len * 3, |c| {
                        assert!(!c.is_empty());
                        lent.extend_from_slice(c);
                    });
                    let mut want = Vec::new();
                    prop_assert_eq!(n, map.take(len * 3, Some(&mut want)), "step {} read_with", i);
                    prop_assert_eq!(lent, want, "step {} lent bytes", i);
                }
                _ => {
                    ring.attach_at(BASE);
                    map.attach_at(BASE);
                }
            }
            prop_assert_eq!(ring.rcv_nxt(), map.next.map(|n| n as Seq), "step {}", i);
            prop_assert_eq!(ring.buffered_bytes(), map.buffered, "step {}", i);
            prop_assert_eq!(ring.readable_bytes(), map.readable_bytes(), "step {}", i);
            prop_assert_eq!(ring.ooo_len(), map.ooo.len(), "step {}", i);
            prop_assert_eq!(ring.fully_consumed(), map.fully_consumed(), "step {}", i);
            if let Some(next) = map.next {
                let limit = if reach % 2 == 1 {
                    next + u64::from(reach)
                } else {
                    (next + u64::from(reach) % (map.span + 4)).saturating_sub(2)
                };
                prop_assert_eq!(
                    ring.missing_below(limit),
                    map.missing_below(limit),
                    "step {} limit {}", i, limit
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // NakManager: no matter the interleaving of note/satisfy/due, an
    // entry is never reported twice within a suppression window, and
    // satisfied entries never resurface.
    // ------------------------------------------------------------------

    #[test]
    fn nak_manager_suppression_invariant(
        ops in proptest::collection::vec((0u8..3, 0u64..30, 1u32..4), 1..60),
    ) {
        let mut m = NakManager::new();
        let mut now = 0u64;
        let suppress = 1_000u64;
        let mut last_reported: std::collections::HashMap<u64, u64> = Default::default();
        for (op, seq, count) in ops {
            now += 100;
            let reported: Vec<(u64, u32)> = match op {
                0 => m.note_missing(&[(seq, count)], now),
                1 => {
                    m.satisfy(seq);
                    prop_assert!(!m.contains(seq));
                    // A later note for this seq is a brand-new gap.
                    last_reported.remove(&seq);
                    Vec::new()
                }
                _ => m.due(now, suppress),
            };
            for (first, c) in reported {
                for s in first..first + c as u64 {
                    if let Some(&t) = last_reported.get(&s) {
                        prop_assert!(
                            now - t >= suppress || t == now,
                            "seq {s} re-reported after {} µs", now - t
                        );
                    }
                    last_reported.insert(s, now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // RateController: the rate never leaves [min_rate, max_rate], and the
    // long-run byte budget never exceeds rate × time by more than the
    // carry-over bound.
    // ------------------------------------------------------------------

    #[test]
    fn rate_stays_in_bounds_under_any_event_sequence(
        events in proptest::collection::vec(0u8..4, 1..200),
    ) {
        let min_rate = 1_000u64;
        let max_rate = 1_000_000u64;
        let mut c = RateController::new(min_rate, max_rate, 0);
        let rtt = 10_000u64;
        let mut now = 0u64;
        for e in events {
            now += 5_000;
            match e {
                0 => c.on_tick(now, rtt),
                1 => c.on_congestion(now, rtt, None),
                2 => c.on_congestion(now, rtt, Some(u64::from(now as u32))),
                _ => c.on_urgent(now, rtt),
            }
            prop_assert!(c.rate() >= min_rate, "rate {} < min", c.rate());
            prop_assert!(c.rate() <= max_rate, "rate {} > max", c.rate());
        }
    }

    #[test]
    fn rate_budget_bounded_by_rate_times_time(
        ticks in proptest::collection::vec(1_000u64..50_000, 1..100),
    ) {
        let max_rate = 500_000u64;
        let mut c = RateController::new(10_000, max_rate, 0);
        let mut now = 0u64;
        let mut total = 0u128;
        for dt in ticks {
            now += dt;
            c.on_tick(now, 10_000);
            total += c.budget(now, 10_000) as u128;
        }
        // Ceiling: max_rate for the whole run plus two ticks of carry.
        let bound = (max_rate as u128 * now as u128) / 1_000_000 + 2 * (max_rate as u128 / 100);
        prop_assert!(total <= bound, "budget {total} exceeds bound {bound}");
    }

    // ------------------------------------------------------------------
    // Membership: all_have(s) is exactly min(next_expected) > s.
    // ------------------------------------------------------------------

    #[test]
    fn membership_all_have_equals_min_gate(
        peers in proptest::collection::vec(0u32..1_000, 1..20),
        probe in 0u32..1_000,
    ) {
        let mut m = Membership::new();
        for (i, &ne) in peers.iter().enumerate() {
            m.add(PeerId(i as u32), 0, 0);
            m.update(PeerId(i as u32), ne, 1);
        }
        let min = peers.iter().copied().min().unwrap();
        prop_assert_eq!(m.all_have(probe), min > probe);
        prop_assert_eq!(m.min_next_expected(), Some(min));
        let lacking = m.lacking(probe);
        let expected: usize = peers.iter().filter(|&&ne| ne <= probe).count();
        prop_assert_eq!(lacking.len(), expected);
    }

    // ------------------------------------------------------------------
    // Event-driven transmitter: `next_transmit` never lies to a driver.
    // Whatever the interleaving of submits, NAKs (for sent, unsent and
    // released segments), confirmations, urgent stops and housekeeping
    // jiffies at sub-jiffy spacing: an answer at or before `now` means a
    // pass at `now` emits (so a driver that runs a pass whenever the
    // answer is due cannot spin), and `None` means there is nothing a
    // pass could ever send — checked against a pass at `now` and, at the
    // end, against one far enough ahead that no gate is still closed.
    // ------------------------------------------------------------------

    #[test]
    fn next_transmit_due_means_a_pass_emits(
        ops in proptest::collection::vec((0u8..8, 1u32..64, 50u64..4_000), 1..300),
    ) {
        let mut cfg = ProtocolConfig::hrmc().with_buffer(256 * 1024);
        cfg.max_rate = 4 * 1024 * 1024;
        let mut s = SenderEngine::new(cfg, 7000, 7001, 0, 0);
        feedback(&mut s, PacketType::Join, 0, 0, false);
        let mut now = 0u64;
        let mut confirmed = 0u32;
        for (op, arg, dt) in ops {
            now += dt;
            match op {
                0 | 1 => {
                    s.submit(&vec![op; arg as usize * 200], now);
                }
                2 => feedback(&mut s, PacketType::Nak, confirmed + arg % 8, now, false),
                3 => {
                    confirmed += arg % 4;
                    feedback(&mut s, PacketType::Update, confirmed, now, false);
                }
                4 => feedback(&mut s, PacketType::Control, confirmed, now, arg % 5 == 0),
                5 => s.on_tick(now),
                _ => {}
            }
            drain_data(&mut s);
            let answer = s.next_transmit(now);
            s.transmit(now);
            let (emitted, _) = drain_data(&mut s);
            match answer {
                Some(t) if t <= now => prop_assert!(emitted >= 1, "due at {t}, pass at {now} sent nothing"),
                Some(_) => {}
                None => prop_assert_eq!(emitted, 0, "nothing sendable, yet the pass at {} sent", now),
            }
        }
        let answer = s.next_transmit(now);
        s.transmit(now + 10_000_000);
        let (emitted, _) = drain_data(&mut s);
        prop_assert_eq!(answer.is_some(), emitted >= 1, "answer {:?} at {}", answer, now);
    }

    // ------------------------------------------------------------------
    // Rate conformance off the jiffy grid: passes at random sub-jiffy
    // instants over one second, always backlogged, through a halving and
    // an urgent stop, never put more on the wire than the rate in force
    // accrued, plus the two-jiffy carry, plus the one packet a pass may
    // finish past its allowance.
    // ------------------------------------------------------------------

    #[test]
    fn transmit_at_any_instants_conforms_to_the_rate(
        gaps in proptest::collection::vec(20u64..9_000, 120..400),
        halve_at in 100_000u64..450_000,
        stop_at in 500_000u64..900_000,
    ) {
        let max_rate = 1024 * 1024u64;
        let mut cfg = ProtocolConfig::hrmc().with_buffer(4 * 1024 * 1024);
        cfg.min_rate = 256 * 1024;
        cfg.max_rate = max_rate;
        let segment = cfg.segment_size + HEADER_LEN;
        let mut s = SenderEngine::new(cfg, 7000, 7001, 0, 0);
        feedback(&mut s, PacketType::Join, 0, 0, false);
        s.submit(&vec![0u8; 2 * 1024 * 1024], 0);
        let carry = 2 * JIFFY_US as u128 * max_rate as u128 / 1_000_000;
        let (mut now, mut sent, mut accrued) = (0u64, 0u128, 0u128);
        let (mut halved, mut stopped) = (false, false);
        for dt in gaps.into_iter().cycle() {
            if now + dt > 1_000_000 {
                break;
            }
            now += dt;
            if !halved && now >= halve_at {
                halved = true;
                feedback(&mut s, PacketType::Nak, 0, now, false);
            }
            if !stopped && now >= stop_at {
                stopped = true;
                feedback(&mut s, PacketType::Control, 0, now, true);
            }
            s.transmit(now);
            // A pass accrues the whole gap at the rate it leaves in force.
            accrued += s.rate() as u128 * dt as u128;
            sent += drain_data(&mut s).1 as u128;
            let bound = accrued / 1_000_000 + carry + segment as u128;
            prop_assert!(sent <= bound, "{sent} B on the wire by {now} µs, bound {bound}");
        }
        prop_assert!(halved && stopped && s.rate_halvings() == 1 && s.urgent_stops() == 1);
        let ceiling = max_rate as u128 + carry + segment as u128;
        prop_assert!(sent <= ceiling, "{sent} B in one second at {max_rate} B/s");
        // And the pacer is not merely silent: a second at these rates
        // moves at least the floor rate's worth outside the stop.
        prop_assert!(sent >= 128 * 1024, "only {sent} B sent");
    }
}
