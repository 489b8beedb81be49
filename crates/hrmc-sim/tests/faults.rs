//! Fault-injection scenarios: the failure-domain acceptance suite.
//!
//! Each test drives a full simulated transfer through one class of
//! injected failure — receiver crash, sender death, link misbehavior,
//! partitions, churn with restart — and checks the protocol's
//! failure-domain handling end to end: ejection frees the transmit
//! window, sender death is declared at every receiver, corruption is
//! audited, and everything stays deterministic under a seed.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use hrmc_core::keepalive::KEEPALIVE_MAX_US;
use hrmc_core::{Event, ProtocolConfig};
use hrmc_sim::faults::{ChurnAction, ChurnEvent, FaultModel, Partition};
use hrmc_sim::topology::TopologyBuilder;
use hrmc_sim::{SimParams, SimReport, Simulation};

/// An event-log sink the test can read back after the run.
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

/// A LAN scenario: `n` receivers on a 10 Mbps switch with `loss`
/// Bernoulli drop probability, transferring `bytes`.
fn lan_params(n: usize, loss: f64, bytes: u64) -> SimParams {
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    protocol.max_rate = 2 * 10_000_000 / 8;
    let topology = TopologyBuilder::new().lan(n, 10_000_000, loss);
    let mut p = SimParams::new(protocol, topology, bytes);
    p.horizon_us = 600 * 1_000_000;
    p
}

#[test]
fn receiver_crash_is_ejected_and_survivors_complete() {
    let mut params = lan_params(3, 0.0, 500_000);
    // Both ejection triggers armed: three unanswered probes, or three
    // seconds of silence — whichever fires first.
    params.protocol.probe_failure_limit = 3;
    params.protocol.member_silence_us = 3_000_000;
    // Kill receiver 1 (host 2) mid-transfer.
    params.faults.churn.push(ChurnEvent {
        at_us: 500_000,
        action: ChurnAction::Crash { host: 2 },
    });
    let report = Simulation::new(params).run();
    assert!(
        report.completed,
        "survivors did not complete after the crash (elapsed {} µs)",
        report.elapsed_us
    );
    assert_eq!(
        report.sender.members_ejected, 1,
        "crashed member not ejected"
    );
    assert_eq!(
        report.sender.leaves, 0,
        "ejection must not count as a leave"
    );
    assert_eq!(report.false_ejections, 0, "a crash is a justified ejection");
    assert!(
        report.churn_drops > 0,
        "crashed host never dropped a packet"
    );
    // The survivors got every byte, intact.
    assert!(report.receivers[0].intact && report.receivers[0].completed_at.is_some());
    assert!(report.receivers[2].intact && report.receivers[2].completed_at.is_some());
    // The victim did not finish.
    assert!(report.receivers[1].completed_at.is_none());
}

/// The audit's positive path: failure domains armed far too tightly
/// (one unanswered PROBE, 20 ms of silence) under delay spikes eject
/// live receivers, and the audit charges exactly those that neither
/// crashed nor sat behind a partition. Ground truth is the observer's
/// `member_ejected` stream, independent of the report.
#[test]
fn hair_trigger_ejection_of_live_receivers_is_audited_as_false() {
    let mut params = lan_params(4, 0.0, 500_000);
    params.protocol.probe_failure_limit = 1;
    params.protocol.member_silence_us = 20_000;
    params
        .links
        .jitter_spikes(0, 100_000, 100_000, 5, 50, 30_000);
    // Receiver 1 (host 2) really dies; its ejection is justified.
    params.faults.churn.push(ChurnEvent {
        at_us: 200_000,
        action: ChurnAction::Crash { host: 2 },
    });
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(params);
    sim.set_event_log(Box::new(Tee(log.clone())));
    let report = sim.run();
    let log = String::from_utf8(log.lock().unwrap().clone()).unwrap();
    let ejected: BTreeSet<u32> = log
        .lines()
        .skip(1) // schema header
        .filter_map(|l| Event::from_json(&serde_json::from_str(l).expect("valid JSON")))
        .filter_map(|e| match e {
            Event::MemberEjected { peer } => Some(peer.0),
            _ => None,
        })
        .collect();
    assert!(ejected.contains(&1), "the crashed receiver was not ejected");
    let live_ejected = ejected.iter().filter(|&&p| p != 1).count() as u64;
    assert!(report.false_ejections >= 1, "no live receiver was ejected");
    assert_eq!(report.false_ejections, live_ejected);
}

#[test]
fn sender_death_fails_every_receiver() {
    let mut params = lan_params(3, 0.0, 500_000);
    // Presume the sender dead after 2 × the keepalive cap of silence.
    params.protocol.sender_death_factor = 2;
    let death_deadline = 2 * KEEPALIVE_MAX_US;
    params.faults.churn.push(ChurnEvent {
        at_us: 300_000,
        action: ChurnAction::Crash { host: 0 },
    });
    let report = Simulation::new(params).run();
    assert!(
        !report.completed,
        "a dead sender cannot complete a transfer"
    );
    assert_eq!(report.failed_receivers(), 3, "every receiver must give up");
    for r in &report.receivers {
        assert_eq!(r.stats.session_failures, 1);
        assert!(r.completed_at.is_none());
    }
    // The run wound down by itself shortly after the death deadline
    // passed, rather than spinning to the horizon.
    assert!(
        report.elapsed_us < 300_000 + 2 * death_deadline + 1_000_000,
        "run dragged on after all sessions failed: {} µs",
        report.elapsed_us
    );
}

#[test]
fn corruption_duplication_reordering_are_survived_and_audited() {
    let mut params = lan_params(2, 0.0, 300_000);
    params.faults.link = FaultModel {
        corrupt: 0.02,
        duplicate: 0.05,
        reorder: 0.05,
        reorder_max_us: 5_000,
    };
    let report = Simulation::new(params).run();
    assert!(report.completed, "link faults must not stall the transfer");
    assert!(report.all_intact());
    assert!(report.corruption_drops > 0, "corruption fault never fired");
    assert!(
        report.duplicates_injected > 0,
        "duplication fault never fired"
    );
    assert!(report.reorders_injected > 0, "reordering fault never fired");
    // Every corrupt datagram was caught by the checksum and audited at
    // the receiving engine.
    let audited: u64 = report
        .receivers
        .iter()
        .map(|r| r.stats.checksum_failures)
        .sum();
    assert_eq!(audited, report.corruption_drops);
    // Duplicate copies were recognized and dropped by the window.
    let dups: u64 = report
        .receivers
        .iter()
        .map(|r| r.stats.duplicates_dropped)
        .sum();
    assert!(dups > 0, "injected duplicates were never deduplicated");
}

#[test]
fn partition_heals_and_recovery_completes_the_transfer() {
    let mut params = lan_params(3, 0.0, 500_000);
    // Receiver 0 is unreachable (both directions) for a full second.
    params.faults.partitions.push(Partition {
        receivers: vec![0],
        start_us: 200_000,
        end_us: 1_200_000,
    });
    let report = Simulation::new(params).run();
    assert!(report.completed, "transfer did not survive the partition");
    assert!(report.all_intact());
    assert!(
        report.partition_drops > 0,
        "partition never severed a packet"
    );
    // The partitioned receiver recovered everything it missed.
    assert_eq!(report.receivers[0].bytes, 500_000);
    assert!(report.sender.retransmissions > 0 || report.total_naks() > 0);
}

#[test]
fn crashed_receiver_restarts_and_rejoins() {
    let mut params = lan_params(3, 0.0, 500_000);
    params.protocol.probe_failure_limit = 3;
    params.protocol.member_silence_us = 3_000_000;
    params.faults.churn.push(ChurnEvent {
        at_us: 300_000,
        action: ChurnAction::Crash { host: 2 },
    });
    params.faults.churn.push(ChurnEvent {
        at_us: 800_000,
        action: ChurnAction::Restart { host: 2 },
    });
    let report = Simulation::new(params).run();
    assert!(
        report.completed,
        "transfer did not complete around the churn"
    );
    // The revived host performed a brand-new JOIN handshake: the sender
    // processed more JOINs than it has receivers.
    assert!(
        report.sender.joins > 3,
        "restarted receiver never re-joined (joins = {})",
        report.sender.joins
    );
    // The untouched receivers are whole.
    assert!(report.receivers[0].intact && report.receivers[0].completed_at.is_some());
    assert!(report.receivers[2].intact && report.receivers[2].completed_at.is_some());
}

#[test]
fn sender_pause_and_resume_only_delays_the_transfer() {
    let clean = Simulation::new(lan_params(2, 0.0, 300_000)).run();
    let mut params = lan_params(2, 0.0, 300_000);
    params.faults.churn.push(ChurnEvent {
        at_us: 300_000,
        action: ChurnAction::PauseSender,
    });
    params.faults.churn.push(ChurnEvent {
        at_us: 700_000,
        action: ChurnAction::ResumeSender,
    });
    let report = Simulation::new(params).run();
    assert!(report.completed, "transfer did not resume after the stall");
    assert!(report.all_intact());
    assert!(
        report.elapsed_us > clean.elapsed_us,
        "a 400 ms stall must cost wall-clock: {} vs {}",
        report.elapsed_us,
        clean.elapsed_us
    );
}

/// The counters a determinism comparison keys on.
fn fingerprint(r: &SimReport) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        r.elapsed_us,
        r.sender.retransmissions,
        r.sender.members_ejected,
        r.partition_drops,
        r.corruption_drops,
        r.duplicates_injected,
        r.churn_drops,
    )
}

#[test]
fn faulty_runs_are_seed_deterministic() {
    let build = || {
        let mut params = lan_params(3, 0.01, 400_000);
        params.protocol.probe_failure_limit = 3;
        params.faults.link = FaultModel {
            corrupt: 0.01,
            duplicate: 0.02,
            reorder: 0.02,
            reorder_max_us: 3_000,
        };
        params.faults.partitions.push(Partition {
            receivers: vec![1],
            start_us: 150_000,
            end_us: 650_000,
        });
        params.faults.churn.push(ChurnEvent {
            at_us: 400_000,
            action: ChurnAction::Crash { host: 3 },
        });
        params
    };
    let a = Simulation::new(build()).run();
    let b = Simulation::new(build()).run();
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "same seed, same faults, different run"
    );
    let mut other = build();
    other.seed = 42;
    let c = Simulation::new(other).run();
    assert!(
        fingerprint(&c) != fingerprint(&a),
        "different seeds produced identical faulty runs"
    );
}
