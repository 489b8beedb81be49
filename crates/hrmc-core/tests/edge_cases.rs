//! Edge-case and failure-injection tests for the engines: inputs that a
//! hostile network or an unlucky schedule can produce.

use bytes::Bytes;
use hrmc_core::{PeerId, ProtocolConfig, ReceiverEngine, SenderEngine, JIFFY_US};
use hrmc_wire::{Packet, PacketType};

fn receiver() -> ReceiverEngine {
    ReceiverEngine::new(ProtocolConfig::hrmc().with_buffer(64 * 1024), 8000, 7001, 0)
}

fn sender() -> SenderEngine {
    SenderEngine::new(
        ProtocolConfig::hrmc().with_buffer(64 * 1024),
        7000,
        7001,
        0,
        0,
    )
}

fn data(seq: u32, len: usize) -> Packet {
    Packet::data(7000, 7001, seq, Bytes::from(vec![seq as u8; len]))
}

fn drain_r(r: &mut ReceiverEngine) -> Vec<Packet> {
    std::iter::from_fn(|| r.poll_output())
        .map(|o| o.packet)
        .collect()
}

fn drain_s(s: &mut SenderEngine) -> Vec<hrmc_core::Outgoing> {
    std::iter::from_fn(|| s.poll_output()).collect()
}

// ----------------------------------------------------------------------
// Receiver: packets before attachment
// ----------------------------------------------------------------------

#[test]
fn probe_before_any_data_is_ignored() {
    let mut r = receiver();
    let probe = Packet::control(PacketType::Probe, 7000, 7001, 100);
    r.handle_packet(&probe, 1_000);
    assert!(
        drain_r(&mut r).is_empty(),
        "unattached receiver must stay silent"
    );
    assert_eq!(r.stats.probes_received, 1);
}

#[test]
fn keepalive_before_any_data_is_ignored() {
    let mut r = receiver();
    let ka = Packet::control(PacketType::Keepalive, 7000, 7001, 100);
    r.handle_packet(&ka, 1_000);
    assert!(drain_r(&mut r).is_empty());
}

#[test]
fn parity_before_any_data_is_ignored() {
    let mut r = ReceiverEngine::new(
        ProtocolConfig::hrmc().with_buffer(64 * 1024).with_fec(4),
        8000,
        7001,
        0,
    );
    let mut parity = Packet::control(PacketType::Parity, 7000, 7001, 0);
    parity.header.length = 4;
    parity.payload = Bytes::from(vec![0u8; 8 + 100]);
    r.handle_packet(&parity, 1_000);
    assert!(drain_r(&mut r).is_empty());
    assert_eq!(r.stats.fec_parities_received, 1);
    assert_eq!(r.stats.fec_recoveries, 0);
}

#[test]
fn expect_stream_start_turns_lost_prefix_into_gap() {
    let mut r = receiver();
    r.expect_stream_start(0);
    // First packet actually *received* is seq 3: packets 0-2 were lost.
    r.handle_packet(&data(3, 100), 1_000);
    let out = drain_r(&mut r);
    let naks: Vec<&Packet> = out
        .iter()
        .filter(|p| p.header.ptype == PacketType::Nak)
        .collect();
    assert_eq!(naks.len(), 1, "lost prefix must be NAKed");
    assert_eq!(naks[0].header.seq, 0);
    assert_eq!(naks[0].header.length, 3);
    // And the JOIN still goes out on the first received packet.
    assert!(out.iter().any(|p| p.header.ptype == PacketType::Join));
}

#[test]
fn without_expect_stream_start_prefix_is_skipped() {
    let mut r = receiver();
    r.handle_packet(&data(3, 100), 1_000);
    let out = drain_r(&mut r);
    assert!(
        !out.iter().any(|p| p.header.ptype == PacketType::Nak),
        "late-join semantics: no NAK for data before the attach point"
    );
    assert_eq!(r.rcv_nxt(), Some(4));
}

// ----------------------------------------------------------------------
// Receiver: hostile/odd inputs
// ----------------------------------------------------------------------

#[test]
fn receiver_ignores_receiver_originated_types() {
    let mut r = receiver();
    r.handle_packet(&data(0, 100), 0);
    drain_r(&mut r);
    for ptype in [
        PacketType::Nak,
        PacketType::Control,
        PacketType::Update,
        PacketType::Join,
    ] {
        let pkt = Packet::control(ptype, 9999, 7001, 0);
        r.handle_packet(&pkt, 1_000);
    }
    assert!(
        drain_r(&mut r).is_empty(),
        "looped-back feedback must be inert"
    );
}

#[test]
fn duplicate_fin_is_harmless() {
    let mut r = receiver();
    r.handle_packet(&data(0, 100), 0);
    let mut fin = data(1, 0);
    fin.header.flags.fin = true;
    r.handle_packet(&fin, 100);
    r.handle_packet(&fin, 200);
    r.handle_packet(&fin, 300);
    assert!(r.stream_complete());
    assert_eq!(r.stats.duplicates_dropped, 2);
    let mut buf = [0u8; 256];
    assert_eq!(r.read(&mut buf, 400), 100);
    assert!(r.fully_consumed());
}

#[test]
fn far_future_seq_rejected_not_crashing() {
    let mut r = receiver();
    r.handle_packet(&data(0, 100), 0);
    // Way beyond the window span.
    r.handle_packet(&data(1_000_000, 100), 100);
    assert_eq!(r.stats.beyond_window_drops, 1);
    assert_eq!(r.rcv_nxt(), Some(1));
    // No NAK storm for the absurd gap.
    let naks = drain_r(&mut r)
        .iter()
        .filter(|p| p.header.ptype == PacketType::Nak)
        .count();
    assert_eq!(naks, 0);
}

#[test]
fn locked_socket_backlogs_probes_too() {
    let mut r = receiver();
    r.handle_packet(&data(0, 100), 0);
    drain_r(&mut r);
    r.lock();
    let probe = Packet::control(PacketType::Probe, 7000, 7001, 0);
    r.handle_packet(&probe, 1_000);
    assert!(drain_r(&mut r).is_empty(), "locked socket must not respond");
    r.unlock(2_000);
    let out = drain_r(&mut r);
    assert!(
        out.iter().any(|p| p.header.ptype == PacketType::Update),
        "probe must be answered after unlock"
    );
}

// ----------------------------------------------------------------------
// Sender: hostile/odd inputs
// ----------------------------------------------------------------------

#[test]
fn nak_for_never_sent_data_is_safe() {
    let mut s = sender();
    let join = Packet::control(PacketType::Join, 9, 7000, 0);
    s.handle_packet(&join, PeerId(1), 0);
    drain_s(&mut s);
    // NAK for data the sender never transmitted (seq far beyond snd_nxt).
    let mut nak = Packet::control(PacketType::Nak, 9, 7000, 5_000);
    nak.header.length = 10;
    s.handle_packet(&nak, PeerId(1), 1_000);
    s.on_tick(JIFFY_US);
    let out = drain_s(&mut s);
    assert!(
        !out.iter()
            .any(|o| o.packet.header.ptype == PacketType::Data),
        "must not retransmit data that was never sent"
    );
}

#[test]
fn nak_err_names_only_the_released_part_of_a_nak() {
    // RMC: seq 0 is released unconfirmed, seqs 1–2 are still in the
    // window, and the receiver lost all three.
    let cfg = ProtocolConfig::rmc().with_buffer(64 * 1024);
    let mut s = SenderEngine::new(cfg.clone(), 7000, 7001, 0, 0);
    let mut r = ReceiverEngine::new(cfg, 8000, 7001, 0);
    r.expect_stream_start(0);
    s.handle_packet(&Packet::control(PacketType::Join, 9, 7000, 0), PeerId(1), 0);
    s.submit(&vec![0u8; 1400], 0);
    let mut t = 0;
    while s.stats.segments_released == 0 {
        t += JIFFY_US;
        s.on_tick(t);
        drain_s(&mut s);
    }
    s.submit(&vec![0u8; 2800], t);
    s.on_tick(t);
    drain_s(&mut s);
    // The tail's KEEPALIVE reveals the loss: one NAK for 0–2.
    r.handle_packet(&Packet::control(PacketType::Keepalive, 7000, 7001, 2), t);
    let naks: Vec<Packet> = drain_r(&mut r)
        .into_iter()
        .filter(|p| p.header.ptype == PacketType::Nak)
        .collect();
    assert_eq!(naks.len(), 1);
    assert_eq!((naks[0].header.seq, naks[0].header.length), (0, 3));
    s.handle_packet(&naks[0], PeerId(1), t + 1_000);
    s.on_tick(t + JIFFY_US);
    let answer = drain_s(&mut s);
    let err = answer
        .iter()
        .find(|o| o.packet.header.ptype == PacketType::NakErr)
        .expect("released data is answered with NAK_ERR");
    assert_eq!((err.packet.header.seq, err.packet.header.length), (0, 1));
    for o in &answer {
        r.handle_packet(&o.packet, t + 2_000);
    }
    // Only the released segment is a hole; the repairs are delivered.
    let mut buf = vec![0u8; 8192];
    assert_eq!(r.read(&mut buf, t + 3_000), 2800);
    assert_eq!(r.stats.duplicates_dropped, 0);
}

#[test]
fn feedback_from_unknown_peer_does_not_create_membership() {
    let mut s = sender();
    let upd = Packet::control(PacketType::Update, 9, 7000, 50);
    s.handle_packet(&upd, PeerId(7), 0);
    assert_eq!(
        s.member_count(),
        0,
        "UPDATE without JOIN must not add a member"
    );
    assert_eq!(s.stats.updates_received, 1);
}

#[test]
fn feedback_claiming_unsent_data_cannot_release_it() {
    let mut s = sender();
    for p in [1u32, 2] {
        let join = Packet::control(PacketType::Join, 9, 7000, 0);
        s.handle_packet(&join, PeerId(p), 0);
    }
    let segment = ProtocolConfig::hrmc().segment_size;
    s.submit(&vec![0u8; 10 * segment], 0);
    // Member 1 claims sequence 1000 before seq 0 is sent.
    let forged = Packet::control(PacketType::Update, 9, 7000, 1000);
    s.handle_packet(&forged, PeerId(1), 0);
    assert_eq!(s.stats.updates_received, 1);
    assert_eq!(s.stats.malformed_packets, 1, "the claim is refused");
    // Member 2 confirms all ten segments honestly; member 1 nothing.
    let mut t = 0;
    while t < 400_000 {
        t += JIFFY_US;
        s.on_tick(t);
        drain_s(&mut s);
    }
    let honest = Packet::control(PacketType::Update, 9, 7000, 10);
    s.handle_packet(&honest, PeerId(2), t);
    while t < 800_000 {
        t += JIFFY_US;
        s.on_tick(t);
        drain_s(&mut s);
    }
    assert_eq!(
        s.stats.segments_released, 0,
        "nothing may be released before member 1 confirms it"
    );
    s.handle_packet(&honest, PeerId(1), t);
    while t < 1_200_000 {
        t += JIFFY_US;
        s.on_tick(t);
        drain_s(&mut s);
    }
    assert_eq!(s.stats.segments_released, 10);
}

#[test]
fn leave_from_unknown_peer_is_answered_idempotently() {
    let mut s = sender();
    let leave = Packet::control(PacketType::Leave, 9, 7000, 0);
    s.handle_packet(&leave, PeerId(3), 0);
    let out = drain_s(&mut s);
    assert!(out
        .iter()
        .any(|o| o.packet.header.ptype == PacketType::LeaveResponse));
    assert_eq!(s.stats.leaves, 0, "no member was removed");
}

#[test]
fn close_with_no_data_still_completes() {
    let mut s = sender();
    s.close(0);
    let mut t = 0;
    while !s.is_finished() && t < 10_000_000 {
        t += JIFFY_US;
        s.on_tick(t);
        drain_s(&mut s);
    }
    assert!(s.is_finished(), "empty stream must still finish (bare FIN)");
}

#[test]
fn submit_after_close_is_rejected() {
    let mut s = sender();
    s.submit(b"before", 0);
    s.close(0);
    assert_eq!(s.submit(b"after", 100), 0);
}

#[test]
fn member_churn_does_not_wedge_release() {
    let mut s = sender();
    // Two receivers join; one confirms; the other leaves without ever
    // confirming — release must proceed on the survivor's confirmation.
    for p in [1u32, 2] {
        let join = Packet::control(PacketType::Join, 9, 7000, 0);
        s.handle_packet(&join, PeerId(p), 0);
    }
    s.submit(&vec![0u8; 1400], 0);
    let mut t = 0;
    while t < 400_000 {
        t += JIFFY_US;
        s.on_tick(t);
        drain_s(&mut s);
    }
    assert_eq!(s.stats.segments_released, 0, "blocked: nobody confirmed");
    let upd = Packet::control(PacketType::Update, 9, 7000, 1);
    s.handle_packet(&upd, PeerId(1), t);
    let leave = Packet::control(PacketType::Leave, 9, 7000, 0);
    s.handle_packet(&leave, PeerId(2), t);
    while t < 800_000 {
        t += JIFFY_US;
        s.on_tick(t);
        drain_s(&mut s);
    }
    assert_eq!(
        s.stats.segments_released, 1,
        "leave must unblock the release"
    );
}

#[test]
fn sender_ignores_own_packet_types() {
    let mut s = sender();
    for ptype in [
        PacketType::Data,
        PacketType::Probe,
        PacketType::Keepalive,
        PacketType::JoinResponse,
        PacketType::NakErr,
        PacketType::Parity,
    ] {
        let pkt = Packet::control(ptype, 9, 7000, 0);
        s.handle_packet(&pkt, PeerId(1), 0);
    }
    assert!(drain_s(&mut s).is_empty());
    assert_eq!(s.member_count(), 0);
}
