//! Scheduler-change regression net. The deadline-sweep scheduler must
//! reproduce the *exact* trajectory of the old always-ticking scheduler:
//! the fingerprints below were captured with `examples/snapshot.rs`
//! before the scheduler change and must never drift. A second test pins
//! the weaker, always-required property that identical seeds produce
//! byte-identical reports and event logs; a third pins the point of the
//! change — idle hosts do not tick.

use hrmc_core::{ProtocolConfig, UpdateMode, JIFFY_US};
use hrmc_sim::{FaultModel, IoProfile, SimParams, SimReport, Simulation, TopologyBuilder};
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

/// The representative lossy topology: 3 receivers, 10 Mbps LAN, 1% loss,
/// 500 KB transfer, 256 KiB buffers, seed 1 — the same run
/// `examples/snapshot.rs` prints.
fn representative_params() -> SimParams {
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    protocol.max_rate = 2 * 10_000_000 / 8;
    let topology = TopologyBuilder::new().lan(3, 10_000_000, 0.01);
    let mut p = SimParams::new(protocol, topology, 500_000);
    p.horizon_us = 600 * 1_000_000;
    p
}

fn run_logged() -> (SimReport, Vec<u8>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(representative_params());
    sim.set_event_log(Box::new(Tee(log.clone())));
    let report = sim.run();
    let bytes = log.lock().unwrap().clone();
    (report, bytes)
}

/// Fixture captured on the per-jiffy `Tick` scheduler (pre-change
/// `main`). Every protocol-visible quantity — completion time, stats,
/// drop counts, the full JSONL event log — must match it exactly.
#[test]
fn representative_lossy_run_matches_prescheduler_fixture() {
    let (report, log) = run_logged();
    assert!(report.completed);
    assert_eq!(report.elapsed_us, 2_453_979);
    assert_eq!(report.transfer_bytes, 500_000);
    assert_eq!(format!("{:.6}", report.complete_info_ratio), "0.997214");
    assert_eq!(
        fnv1a(serde_json::to_string(&report.sender).unwrap().as_bytes()),
        0x057c_018f_a07d_dcb1,
        "sender stats diverged from the pre-scheduler-change fixture"
    );
    assert_eq!(
        (
            report.router_loss_drops,
            report.router_overflow_drops,
            report.sender_nic_drops,
            report.nic_rx_drops,
            report.host_backlog_drops,
        ),
        (4, 0, 3, 1, 0)
    );
    assert_eq!(report.final_rtt_us, 172_300);
    assert_eq!(report.final_rate_bps, 1_328_308);
    let receivers_json: String = report
        .receivers
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(
        fnv1a(receivers_json.as_bytes()),
        0x2a36_017c_f055_c642,
        "receiver stats diverged from the pre-scheduler-change fixture"
    );
    assert_eq!(log.len(), 149_471);
    assert_eq!(log.iter().filter(|&&b| b == b'\n').count(), 1_942);
    assert_eq!(
        fnv1a(&log),
        0x8c34_f207_0126_a09b,
        "JSONL event log diverged from the pinned fixture (captured at \
         event-schema 2: header line + member field; the v1→v2 bump \
         changed only the header's schema digit)"
    );
}

#[test]
fn same_seed_byte_identical_report_and_log() {
    let (a, log_a) = run_logged();
    let (b, log_b) = run_logged();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "same seed must serialize to a byte-identical SimReport"
    );
    assert_eq!(log_a, log_b, "same seed must log identical JSONL");
}

/// The point of the deadline scheduler: a receiver with nothing armed —
/// lossless link (no NAKs), periodic updates disabled, JOIN confirmed —
/// must generate (near) zero ticks between packets, where the old
/// scheduler ticked every host every jiffy of the whole run.
#[test]
fn idle_receiver_generates_no_ticks_between_packets() {
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    protocol.update_mode = UpdateMode::Disabled;
    protocol.max_rate = 2 * 10_000_000 / 8;
    let topology = TopologyBuilder::new().lan(2, 10_000_000, 0.0);
    let mut p = SimParams::new(protocol, topology, 500_000);
    p.horizon_us = 600 * 1_000_000;
    let report = Simulation::new(p).run();
    assert!(report.completed, "lossless transfer must complete");
    assert!(report.all_intact());
    let grid_ticks = report.elapsed_us / JIFFY_US;
    for (host, &ticks) in report.host_ticks.iter().enumerate().skip(1) {
        assert!(
            ticks * 20 < grid_ticks,
            "receiver host {host} ticked {ticks}/{grid_ticks} jiffies — \
             the deadline scheduler should have kept it asleep"
        );
    }
}

/// The scheduler-work cell: 64 mostly-idle receivers on a 1 Mbit/s LAN
/// with 0.5 % loss, 200 KB — the regime where timer work, not packet
/// work, dominates. Ported from the retired `BENCH_sim.json` gate, which
/// allowed +10 % on `events_popped` and `engine_ticks`; the counters are
/// exact on a fixed seed, so any drift is a real scheduler change.
#[test]
fn scalability_cell_scheduler_work_is_pinned() {
    let bandwidth = 1_000_000;
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    protocol.max_rate = ((bandwidth as f64 / 8.0 * 0.95) as u64).max(protocol.min_rate);
    let topology = TopologyBuilder::new().lan(64, bandwidth, 0.005);
    let mut p = SimParams::new(protocol, topology, 200_000);
    p.horizon_us = 1_800 * 1_000_000;
    let report = Simulation::new(p).run();
    assert!(report.completed && report.all_intact());
    assert_eq!(report.events_popped, 14_030);
    assert_eq!(report.host_ticks.iter().sum::<u64>(), 688);
    assert_eq!(report.peak_queue_len, 67); // 126 with one event per receiver copy
    assert_eq!(report.elapsed_us, 2_182_597);
}

/// The lossless fan-out cell on the `hrmc-exp fanout` footing, at 500
/// receivers: a 1 Gbit/s LAN, a ~100x CPU, PROBE fan-out batched 64 per
/// tick, the data plane paced at 1 % of the wire, a router queue of two
/// JOIN waves and a sender ring of a quarter wave. Every other fixture
/// has at most 64 receivers and loss; this one pins the many-receiver,
/// probe-batched path where the deadline sweep and the event queue do
/// most of the work.
#[test]
fn lossless_fanout_cell_matches_fixture() {
    let (n, bandwidth, cpu_scale) = (500, 1_000_000_000, 0.01);
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    let cpu_cap = (hrmc_sim::cpu_tx_rate_bps(protocol.segment_size) as f64 / cpu_scale) as u64;
    let wire_cap = (bandwidth as f64 / 8.0 * 0.01) as u64;
    protocol.max_rate = wire_cap.min(cpu_cap).max(protocol.min_rate);
    protocol.probe_batch_limit = 64;
    let mut builder = TopologyBuilder::new();
    builder.router_queue = 2 * n;
    builder.sender_txqueue = n / 4;
    let topology = builder.lan(n, bandwidth, 0.0);
    let mut p = SimParams::new(protocol, topology, 200_000);
    p.horizon_us = 1_800 * 1_000_000;
    p.cpu_scale = cpu_scale;
    let report = Simulation::new(p).run();
    assert!(report.completed && report.all_intact());
    assert_eq!(report.events_popped, 96_122);
    assert_eq!(report.peak_queue_len, 501); // 1 053 with one event per receiver copy
    assert_eq!(report.host_ticks.iter().sum::<u64>(), 526);
    assert_eq!(report.elapsed_us, 180_066);
    assert_eq!(
        fnv1a(serde_json::to_string(&report.sender).unwrap().as_bytes()),
        0x9ee9_5d0b_ead9_ed14,
        "sender stats diverged from the fan-out fixture"
    );
}

/// A faulted 64-receiver fan-out: 1 % loss on a 10 Mbit/s LAN at the
/// paper's CPU cost, so busy receiver CPUs spread one packet's copies
/// over many arrival instants, and every link fault armed — duplicates
/// and reordered copies land at instants of their own. The other
/// fixtures cannot tell per-packet delivery batching done right from
/// batching that merges a packet's copies across arrival instants; this
/// one can (that mutation finishes at 4 060 416 µs). Captured before
/// receiver deliveries were batched; `peak_queue_len` was 198 then.
#[test]
fn faulted_fanout_run_matches_fixture() {
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    protocol.max_rate = 2 * 10_000_000 / 8;
    let topology = TopologyBuilder::new().lan(64, 10_000_000, 0.01);
    let mut p = SimParams::new(protocol, topology, 300_000);
    p.horizon_us = 600 * 1_000_000;
    p.faults.link = FaultModel {
        corrupt: 0.01,
        duplicate: 0.02,
        reorder: 0.02,
        reorder_max_us: 3_000,
    };
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(p);
    sim.set_event_log(Box::new(Tee(log.clone())));
    let report = sim.run();
    let log = log.lock().unwrap().clone();
    assert!(report.completed && report.all_intact());
    assert_eq!(report.elapsed_us, 4_320_416);
    assert_eq!(report.events_popped, 35_428);
    assert_eq!(report.peak_queue_len, 70);
    assert_eq!(
        (
            report.duplicates_injected,
            report.reorders_injected,
            report.corruption_drops,
        ),
        (447, 413, 208)
    );
    assert_eq!(log.len(), 1_199_312);
    assert_eq!(fnv1a(&log), 0x34fa_d1c0_1c8d_2a50);
    let receivers_json: String = report
        .receivers
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(fnv1a(receivers_json.as_bytes()), 0x434e_7f2f_ee22_e132);
}

/// Disk-to-disk cell: `disk_read()` source, `disk_write()` sinks, two
/// receivers on a lossy 100 Mbps LAN, 5 MB — past both the 800 KB seek
/// stalls and the 4 MB long stall, with the sink (6 MB/s) slower than
/// the wire so the host's partial-capacity read loop runs throughout.
/// The memory-profile fixture above never enters that loop. Captured
/// before the application payload path was made slice-wise; the
/// trajectory must not move.
#[test]
fn disk_to_disk_run_matches_fixture() {
    let mut protocol = ProtocolConfig::hrmc().with_buffer(256 * 1024);
    protocol.max_rate = 2 * 100_000_000 / 8;
    let topology = TopologyBuilder::new().lan(2, 100_000_000, 0.005);
    let mut p = SimParams::new(protocol, topology, 5_000_000);
    p.source = IoProfile::disk_read();
    p.sink = IoProfile::disk_write();
    p.horizon_us = 600 * 1_000_000;
    let report = Simulation::new(p).run();
    assert!(report.completed);
    assert!(report.all_intact());
    assert_eq!(report.elapsed_us, 4_822_849);
    assert_eq!(report.events_popped, 26_945);
    assert_eq!(report.host_ticks, vec![489, 85, 82]);
    let completed: Vec<_> = report.receivers.iter().map(|r| r.completed_at).collect();
    assert_eq!(completed, vec![Some(4_822_849), Some(4_822_849)]);
    assert!(report.receivers.iter().all(|r| r.bytes == 5_000_000));
    assert_eq!(
        fnv1a(serde_json::to_string(&report.sender).unwrap().as_bytes()),
        0xf46d_0d13_75c9_917a,
        "sender stats diverged from the disk-to-disk fixture"
    );
}
