//! Analyzer regression net over the workspace's two pinned deterministic
//! fixtures. The JSONL logs of these runs are FNV-pinned elsewhere
//! (`hrmc-sim/tests/determinism.rs`, `hrmc-experiments/tests/fault_replay.rs`),
//! so the analyzer's reading of them must be exact and eternal: any
//! drift below is an analyzer bug, not run-to-run noise. A third test
//! pins that a full-capacity flight-recorder dump of a live-style engine
//! run analyzes identically to the streaming JSONL path.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use hrmc_core::{
    Dest, JsonlObserver, MultiObserver, Outgoing, PeerId, ProtocolConfig, ProtocolObserver,
    ReceiverEngine, SenderEngine, SharedRecorder, JIFFY_US,
};
use hrmc_sim::{SimParams, Simulation, TopologyBuilder};
use hrmc_trace::analyze_str;

struct Tee(Arc<Mutex<Vec<u8>>>);
impl std::io::Write for Tee {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The determinism fixture's scenario (see
/// `hrmc-sim/tests/determinism.rs`): 3 receivers, 10 Mbps LAN, 1% loss,
/// 500 KB, seed 1.
fn representative_params() -> SimParams {
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    protocol.max_rate = 2 * 10_000_000 / 8;
    let topology = TopologyBuilder::new().lan(3, 10_000_000, 0.01);
    let mut p = SimParams::new(protocol, topology, 500_000);
    p.horizon_us = 600 * 1_000_000;
    p
}

/// The fault fixture's scenario (see
/// `hrmc-experiments/tests/fault_replay.rs`): receiver 2 crashes at
/// 250 ms, receiver 0 partitioned for [150 ms, 900 ms), silence-based
/// ejection, seed 2.
fn faulted_scenario() -> hrmc_app::Scenario {
    let mut s = hrmc_app::Scenario::lan(3, 10_000_000, 256 * 1024, 400_000)
        .with_loss(0.01)
        .with_receiver_crash(2, 250_000)
        .with_partition(vec![0], 150_000, 900_000)
        .with_seed(2);
    // The crash armed 3 s of silence; PROBE-failure ejection stays off.
    s.protocol.probe_failure_limit = 0;
    s
}

fn run_log(params: SimParams) -> String {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(params);
    sim.set_event_log(Box::new(Tee(log.clone())));
    let report = sim.run();
    assert!(report.completed);
    let bytes = log.lock().unwrap().clone();
    String::from_utf8(bytes).expect("JSONL is UTF-8")
}

#[test]
fn determinism_fixture_analysis_is_exact() {
    let a = analyze_str(&run_log(representative_params())).unwrap();

    assert_eq!(a.parse.schema, Some(2));
    assert_eq!(a.parse.headers, 1);
    assert_eq!(a.parse.skipped, 0);
    assert_eq!(a.events, 1_941);
    assert_eq!((a.start_us, a.end_us), (10_000, 4_180_000));

    // Transfer: 500 KB in 359 first transmissions, 15 retransmits.
    assert_eq!(a.transfer.data_packets, 359);
    assert_eq!(a.transfer.unique_seqs, 359);
    assert_eq!(a.transfer.data_bytes, 500_000);
    assert_eq!(a.transfer.retransmissions, 15);
    assert_eq!(a.transfer.keepalives_sent, 7);
    assert_eq!(a.transfer.joins_completed, 3);

    // Suppression: 21 distinct member×seq losses drew 33 NAK packets
    // (45 seqs requested) while suppression withheld 78 — ratio 78/123.
    assert_eq!(a.suppression.losses_observed, 21);
    assert_eq!(a.suppression.naks_sent, 33);
    assert_eq!(a.suppression.nak_seqs, 45);
    assert_eq!(a.suppression.suppression_events, 72);
    assert_eq!(a.suppression.naks_suppressed, 78);
    assert!((a.suppression.suppression_ratio - 78.0 / 123.0).abs() < 1e-9);

    // Flow control: one slow-start → congestion-avoidance transition,
    // 3 halvings, all inside the CA span.
    assert_eq!(a.flow.transitions, 1);
    assert_eq!(a.flow.rate_halvings, 3);
    assert_eq!(a.flow.urgent_stops, 0);
    assert_eq!(a.flow.spans.len(), 2);
    assert_eq!(a.flow.spans[0].phase, "slow_start");
    assert_eq!(a.flow.spans[1].phase, "congestion_avoidance");
    assert_eq!(a.flow.spans[1].halvings, 3);
    assert_eq!(a.flow.slow_start_us, 20_000);
    assert_eq!(a.flow.congestion_avoidance_us, 4_150_000);
    assert_eq!(a.flow.final_rate_bps, 607_412);

    // Release: one PROBE-stalled sequence, resolved after 2.04 s.
    assert_eq!(a.release.attempts, 363);
    assert_eq!(a.release.complete_info, 359);
    assert_eq!(a.release.released, 359);
    assert_eq!(a.release.stalled_attempts, 4);
    assert_eq!(a.release.stalled_seqs, 1);
    assert_eq!(a.release.probe_attributed_seqs, 1);
    assert_eq!(a.release.probes_sent, 12);
    assert_eq!(a.release.stall_latency.count, 1);
    assert_eq!(a.release.stall_latency.max, 2_040_000);

    // RTT: converges to the fixture's pinned final_rtt_us = 172_300.
    assert_eq!(a.rtt.samples, 20);
    assert_eq!(a.rtt.probe_samples, 12);
    assert_eq!(a.rtt.final_srtt_us, 172_300);
    assert_eq!(a.rtt.converged_at_us, Some(2_153_188));

    // Per-member: each of the 3 receivers lost and recovered exactly 7
    // sequences; none unrecovered; nobody ejected.
    assert_eq!(a.members.len(), 3);
    for (i, m) in a.members.iter().enumerate() {
        assert_eq!(m.source, format!("host:{}", i + 1));
        assert_eq!(m.member, Some(i as u32));
        assert_eq!(m.delivered_segments, 359);
        assert_eq!(m.losses, 7);
        assert_eq!(m.recovered_seqs, 7);
        assert_eq!(m.unrecovered, 0);
        assert_eq!(m.recovery_latency.count, 7);
        assert_eq!(m.recovery_latency.p50, 15_158);
        assert!(!m.ejected && !m.session_failed);
    }
    let naks: Vec<u64> = a.members.iter().map(|m| m.naks_sent).collect();
    assert_eq!(naks, vec![11, 11, 11]);
    let supp: Vec<u64> = a.members.iter().map(|m| m.naks_suppressed).collect();
    assert_eq!(supp, vec![26, 26, 26]);

    // Lifecycle: every sequence released AND delivered everywhere.
    assert_eq!(a.lifecycle.seqs_sent, 359);
    assert_eq!(a.lifecycle.released, 359);
    assert_eq!(a.lifecycle.delivered_by_all_live, 359);
    assert_eq!(a.lifecycle.incomplete, 0);
    assert!(a.lifecycle.complete);
}

#[test]
fn fault_fixture_analysis_is_exact() {
    let a = analyze_str(&run_log(faulted_scenario().params())).unwrap();

    assert_eq!(a.events, 2_136);
    assert_eq!((a.start_us, a.end_us), (10_000, 12_070_000));
    assert_eq!(a.transfer.data_packets, 288);
    assert_eq!(a.transfer.retransmissions, 330);
    assert_eq!(a.transfer.data_bytes, 400_000);

    // The partition makes feedback bursty: suppression absorbs only 27%
    // of would-be requests, but NAK packets still stay below one per
    // observed loss (145 / 168).
    assert_eq!(a.suppression.losses_observed, 168);
    assert_eq!(a.suppression.naks_sent, 145);
    assert_eq!(a.suppression.nak_seqs, 3_364);
    assert_eq!(a.suppression.naks_suppressed, 1_239);

    // PROBE stalls: 3 sequences, the worst held 5.53 s (the partition).
    assert_eq!(a.release.stalled_seqs, 3);
    assert_eq!(a.release.probe_attributed_seqs, 3);
    assert_eq!(a.release.probes_sent, 30);
    assert_eq!(a.release.stall_latency.max, 5_530_000);

    // Member attribution: host:1 (member 0) rode out the partition and
    // recovered all 163 losses; host:3 (member 2) crashed at 250 ms and
    // was ejected after delivering only 158 segments.
    assert_eq!(a.members.len(), 3);
    let m0 = &a.members[0];
    assert_eq!((m0.source.as_str(), m0.member), ("host:1", Some(0)));
    assert_eq!(m0.losses, 163);
    assert_eq!(m0.recovered_seqs, 163);
    assert_eq!(m0.unrecovered, 0);
    assert!(!m0.ejected);
    let m1 = &a.members[1];
    assert_eq!(m1.losses, 4);
    assert!(!m1.ejected);
    let m2 = &a.members[2];
    assert_eq!((m2.source.as_str(), m2.member), ("host:3", Some(2)));
    assert_eq!(m2.delivered_segments, 158);
    assert!(m2.ejected, "the crashed receiver must be marked ejected");

    // Lifecycle completeness: every sequence still accounted for — the
    // corpse's missing deliveries are attributed to its ejection, not
    // counted as protocol loss.
    assert_eq!(a.lifecycle.seqs_sent, 288);
    assert_eq!(a.lifecycle.released, 288);
    assert_eq!(a.lifecycle.delivered_by_all_live, 288);
    assert!(a.lifecycle.complete);
}

/// A flight recorder with enough capacity to hold the whole run dumps a
/// window whose analysis is identical to the streaming JSONL path: same
/// events, same diagnosis, byte-for-byte compatible lines. The endpoints
/// are wired as the CLI wires a live session: each engine's observer
/// stack streams labelled JSONL into one shared log and feeds its own
/// labelled recorder, and the recorders' dumps are concatenated.
#[test]
fn flight_recorder_dump_analyzes_identically_to_streaming_log() {
    const ROLES: [&str; 3] = ["sender", "recv0", "recv1"];
    let log = Arc::new(Mutex::new(Vec::new()));
    let recorders: Vec<SharedRecorder> = ROLES
        .iter()
        .map(|role| SharedRecorder::new(1 << 16).with_label(role))
        .collect();
    let observer = |i: usize| -> Box<dyn ProtocolObserver> {
        Box::new(
            MultiObserver::new()
                .with(Box::new(
                    JsonlObserver::new(Tee(log.clone())).with_label(ROLES[i]),
                ))
                .with(Box::new(recorders[i].clone())),
        )
    };
    let cfg = ProtocolConfig::hrmc().with_buffer(64 * 1024);
    let mut sender = SenderEngine::new(cfg.clone(), 7000, 7001, 0, 0);
    sender.set_observer(observer(0));
    let mut receivers: Vec<ReceiverEngine> = (0..2)
        .map(|i| {
            let mut r = ReceiverEngine::new(cfg.clone(), 8000 + i as u16, 7001, 0);
            r.set_observer(observer(i + 1));
            r
        })
        .collect();

    // A 1 ms FIFO channel that drops every 29th packet to `recv1`, so
    // the run has NAKs and recoveries to diagnose. `None` addresses the
    // sender.
    const DELAY_US: u64 = 1_000;
    let mut wire: VecDeque<(u64, Option<usize>, Outgoing)> = VecDeque::new();
    let mut to_recv1 = 0u64;
    let data = vec![7u8; 200_000];
    let (mut offset, mut now) = (0, 0);
    while !(sender.is_finished() && receivers.iter().all(|r| r.fully_consumed())) {
        assert!(now < 60_000_000, "transfer stalled");
        while wire.front().is_some_and(|(t, _, _)| *t <= now) {
            let (_, to, Outgoing { packet: pkt, .. }) = wire.pop_front().unwrap();
            match to {
                None => {
                    let from = PeerId(u32::from(pkt.header.src_port - 8000));
                    sender.handle_packet(&pkt, from, now);
                }
                Some(i) => receivers[i].handle_packet(&pkt, now),
            }
        }
        if offset < data.len() {
            offset += sender.submit(&data[offset..], now);
            if offset == data.len() {
                sender.close(now);
            }
        }
        sender.on_tick(now);
        while let Some(out) = sender.poll_output() {
            let to: Vec<usize> = match out.dest {
                Dest::Unicast(p) => vec![p.0 as usize],
                _ => vec![0, 1],
            };
            for i in to {
                if i == 1 {
                    to_recv1 += 1;
                    if to_recv1.is_multiple_of(29) {
                        continue;
                    }
                }
                wire.push_back((now + DELAY_US, Some(i), out.clone()));
            }
        }
        for r in receivers.iter_mut() {
            r.on_tick(now);
            r.read_with(usize::MAX, now, |_| ());
            while let Some(out) = r.poll_output() {
                wire.push_back((now + DELAY_US, None, out));
            }
        }
        now += JIFFY_US;
    }

    let streamed = String::from_utf8(log.lock().unwrap().clone()).unwrap();
    let dumped: String = recorders.iter().map(|r| r.dump()).collect();
    for r in &recorders {
        assert_eq!(r.with_recorder(|r| r.dropped_events()), 0);
    }

    let a = analyze_str(&streamed).unwrap();
    let mut b = analyze_str(&dumped).unwrap();
    assert_eq!(a.parse.skipped, 0);
    assert!(a.transfer.retransmissions > 0, "the channel lost nothing");
    assert_eq!(a.events, b.events, "recorder missed events");
    // The two ingestion paths differ only in header shape; the whole
    // diagnosis must match field for field.
    b.parse = a.parse.clone();
    assert_eq!(a, b, "flight-recorder dump diverged from streaming log");
}
