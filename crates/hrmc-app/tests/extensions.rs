//! End-to-end smoke of the protocol variants and the paper's four
//! future-work extensions (DESIGN.md §9): every cell the retired
//! `ablations` criterion bench timed, run once through the simulator,
//! each required to finish with every receiver's stream intact. Until
//! the extensions earn outcome rows of their own, this is the only
//! end-to-end check that they still deliver.

use hrmc_app::Scenario;
use hrmc_core::{ProbePolicy, ProbeTransport, UpdateMode};
use hrmc_sim::{LossModel, SimReport};

const KB: usize = 1024;

#[track_caller]
fn assert_delivered(cell: &str, r: &SimReport) {
    assert!(r.completed, "{cell}: transfer did not complete");
    assert!(r.all_intact(), "{cell}: a receiver's stream is not intact");
}

fn base() -> Scenario {
    Scenario::lan(3, 10_000_000, 128 * KB, 400_000)
}

#[test]
fn update_timer_variants_deliver() {
    for (cell, mode) in [
        ("dynamic", UpdateMode::Dynamic),
        ("fixed_50j", UpdateMode::Fixed(50)),
        ("fixed_5j", UpdateMode::Fixed(5)),
    ] {
        let mut s = base();
        s.protocol.update_mode = mode;
        assert_delivered(cell, &s.run());
    }
}

/// Small buffers, where the paper predicts early probes help.
#[test]
fn early_probes_deliver() {
    for (cell, lead_rtts) in [("early_2rtt", 2), ("early_5rtt", 5)] {
        let mut s = Scenario::lan(2, 100_000_000, 64 * KB, 500_000);
        s.protocol.probe_policy = ProbePolicy::Early { lead_rtts };
        assert_delivered(cell, &s.run());
    }
}

#[test]
fn multicast_probes_deliver() {
    let mut s = Scenario::lan(10, 10_000_000, 64 * KB, 200_000);
    s.protocol.probe_transport = ProbeTransport::MulticastAbove(3);
    assert_delivered("multicast_above_3", &s.run());
}

#[test]
fn fec_blocks_deliver_on_fast_fading() {
    for k in [4, 8, 16] {
        let r = Scenario::wireless(
            2,
            10_000_000,
            256 * KB,
            300_000,
            LossModel::wireless_fast_fading(),
        )
        .with_fec(k)
        .run();
        assert_delivered(&format!("fec_k{k}"), &r);
    }
}

#[test]
fn local_recovery_delivers() {
    let r = Scenario::lan(10, 10_000_000, 256 * KB, 400_000)
        .with_loss(0.01)
        .with_local_recovery()
        .run();
    assert_delivered("local_recovery", &r);
}

#[test]
fn rmc_mode_delivers() {
    assert_delivered("rmc_nak_only", &base().rmc().run());
}
