//! Deterministic fault replay. A post-mortem is only as good as its
//! reproduction: a run that crashed a receiver and rode out a partition
//! must be replayable bit-for-bit from its seed. The fixture below pins
//! a churn + partition scenario's JSONL event log and report; the second
//! test pins that the parallel sweep runner returns byte-identical
//! reports at every `--jobs` count, so a fault sweep's results do not
//! depend on how many workers happened to run it.

use hrmc_experiments::sweep;
use hrmc_sim::Simulation;
use std::sync::{Arc, Mutex};

/// FNV-1a over a byte stream (stable, dependency-free fingerprint).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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

/// The faulted fixture run: 3 receivers on a lossy 10 Mbps LAN; receiver
/// 2 crashes at t=250 ms, receiver 0 is partitioned off for
/// [150 ms, 900 ms). Ejection is silence-based (3 s) only, so the
/// 750 ms partition is ridden out but the corpse is ejected.
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

fn run_logged() -> (hrmc_sim::SimReport, Vec<u8>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(faulted_scenario().params());
    sim.set_event_log(Box::new(Tee(log.clone())));
    let report = sim.run();
    let bytes = log.lock().unwrap().clone();
    (report, bytes)
}

/// The crash + partition run replays byte-for-byte: same report, same
/// JSONL event log, every time.
#[test]
fn churn_partition_run_replays_byte_identically() {
    let (a, log_a) = run_logged();
    let (b, log_b) = run_logged();
    assert!(a.completed, "the survivor must finish the transfer");
    assert_eq!(
        a.sender.members_ejected, 1,
        "the crashed receiver is ejected"
    );
    assert!(a.partition_drops > 0, "the partition must have bitten");
    assert!(a.churn_drops > 0, "the crash must have eaten packets");
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "same seed must serialize to a byte-identical SimReport"
    );
    assert_eq!(log_a, log_b, "same seed must log identical JSONL");
    assert_eq!(
        fnv1a(&log_a),
        FIXTURE_LOG_FNV,
        "faulted event log diverged from the pinned fixture — \
         fault injection is no longer deterministic (or the fault \
         model changed; recapture deliberately if so)"
    );
    assert_eq!(a.elapsed_us, FIXTURE_ELAPSED_US);
}

/// Fingerprints captured when the fault layer landed, recaptured once
/// when the JSONL schema header + `member` field landed
/// (event-schema 1) and once for the event-schema 2 header digit — the
/// only byte that changed; `elapsed_us` is pinned across both. Any
/// drift means a fault-injected run is no longer replayable from its
/// seed.
const FIXTURE_LOG_FNV: u64 = 0x28a6_467d_7072_7066;
const FIXTURE_ELAPSED_US: u64 = 6_891_606;

/// A faulted sweep returns the same bytes at every worker count.
#[test]
fn faulted_sweep_is_jobs_invariant() {
    let s = faulted_scenario();
    let sequential = sweep::run_seeds(&s, 4, 1);
    for jobs in [2, 4, 8] {
        let parallel = sweep::run_seeds(&s, 4, jobs);
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "faulted sweep diverged at --jobs {jobs}"
            );
        }
    }
}
