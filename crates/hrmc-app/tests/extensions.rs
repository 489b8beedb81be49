//! End-to-end smoke of the protocol variants and the two future-work
//! extensions a production caller still sets (DESIGN.md §9): the update
//! timer modes, FEC (the CLI's `--fec` and the `wireless_fec` example),
//! local recovery (the `recovery` set) and the RMC baseline, run once
//! through the simulator, each required to finish with every receiver's
//! stream intact. The PROBE has no variant: DESIGN.md §9 has the
//! ablation that retired early and multicast probes.

use hrmc_app::Scenario;
use hrmc_core::UpdateMode;
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
