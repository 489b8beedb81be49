//! Hostile-matrix regression fixtures. Two contracts beyond the unit
//! suite in `hrmc_experiments::hostile`, plus the matrix's invariants at
//! a second population:
//!
//! 1. A link-dynamics run replays byte-for-byte from its seed (same
//!    serialized report every time), and a scheduled sweep is invariant
//!    to the `--jobs` worker count — network weather must not leak
//!    wall-clock nondeterminism into results.
//! 2. A scenario whose schedule is *empty* serializes identically to
//!    the plain scenario it was built from: the dynamics layer is
//!    provably free when unused.
//!
//! It also pins the health monitor's full alert stream on the two
//! regimes that raise, so a change to any rule threshold, hold or
//! severity shows here as a changed transition, not just a count.

use hrmc_app::Scenario;
use hrmc_experiments::{hostile, runner, sweep, ExpOptions};
use hrmc_sim::{LinkAction, LinkSchedule};

fn scheduled_scenario() -> Scenario {
    let mut links = LinkSchedule::default();
    links.collapse_recover(0, 200_000, 900_000, 10_000_000, 1_000_000, 100_000, 4);
    links.push(
        150_000,
        LinkAction::SetUpPath {
            extra_delay_us: 5_000,
            loss: 0.2,
        },
    );
    Scenario::lan(4, 10_000_000, 256 * 1024, 400_000)
        .with_loss(0.01)
        .with_links(links)
        .with_seed(2)
}

/// A link-scheduled sweep returns the same bytes at every worker count.
#[test]
fn scheduled_sweep_is_jobs_invariant() {
    let s = scheduled_scenario();
    let sequential = sweep::run_seeds(&s, 4, 1);
    for r in &sequential {
        assert!(r.link_events_applied > 0, "schedule never fired");
    }
    for jobs in [2, 4, 8] {
        let parallel = sweep::run_seeds(&s, 4, jobs);
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "link-scheduled sweep diverged at --jobs {jobs}"
            );
        }
    }
}

/// An empty schedule is byte-free: attaching `LinkSchedule::default()`
/// changes nothing in the serialized report.
#[test]
fn empty_schedule_is_byte_identical_to_none() {
    let plain = Scenario::lan(4, 10_000_000, 256 * 1024, 400_000)
        .with_loss(0.01)
        .with_seed(3);
    let noop = plain.clone().with_links(LinkSchedule::default());
    let a = plain.run();
    let b = noop.run();
    assert_eq!(a.link_events_applied, 0);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "an empty link schedule perturbed the simulation"
    );
}

/// The full matrix honors its invariants at a second seed and
/// population, not just the unit test's configuration.
#[test]
fn matrix_invariants_hold_at_alternate_population() {
    let opts = ExpOptions {
        repeats: 1,
        scale_down: 25,
        receivers: Some(3),
        ..ExpOptions::default()
    };
    let out = runner::run_set(runner::find("hostile").unwrap(), &opts);
    assert_eq!(out.violations, Vec::<String>::new());
    let v = &out.files[0].1;
    assert!(v["capacity-collapse"]["rate_halvings"].as_u64().unwrap() >= 1);
    assert!(v["mobile-churn"]["migration_drops"].as_u64().unwrap() > 0);
    assert_eq!(v["baseline"]["false_ejections"].as_u64().unwrap(), 0);
}

/// One alert transition as `(t_us, rule, severity, raised, value_m,
/// limit_m)`.
type AlertRow = (u64, &'static str, &'static str, bool, u64, u64);

/// The complete `SimReport::alerts` of the quick-length, seed-1 hostile
/// regimes that raise: every transition, in order, with its evidence.
#[test]
fn hostile_alert_streams_match_fixture() {
    const CAPACITY_COLLAPSE: &[AlertRow] = &[
        (1_410_000, "nak_storm", "warning", true, 15_454, 1_000),
        (2_990_000, "nak_storm", "warning", false, 0, 1_000),
    ];
    const HOSTILE_COMBINED: &[AlertRow] = &[
        (1_410_000, "nak_storm", "warning", true, 9_656, 1_000),
        (
            1_410_000,
            "backlog_growth",
            "warning",
            true,
            240_000,
            150_000,
        ),
        (1_940_000, "backlog_growth", "warning", false, 0, 150_000),
        (2_990_000, "nak_storm", "warning", false, 0, 1_000),
    ];
    let opts = ExpOptions {
        scale_down: 10,
        ..ExpOptions::default()
    };
    let cells = hostile::cells(&opts);
    for (label, want) in [
        ("capacity-collapse", CAPACITY_COLLAPSE),
        ("hostile-combined", HOSTILE_COMBINED),
    ] {
        let cell = cells.iter().find(|c| c.row == label).expect("regime");
        let report = cell.scenario.clone().with_seed(1).run();
        let got: Vec<AlertRow> = report
            .alerts
            .iter()
            .map(|a| {
                let (rule, severity) = (a.rule.name(), a.severity.name());
                (a.t_us, rule, severity, a.raised, a.value_m, a.limit_m)
            })
            .collect();
        assert_eq!(got, want, "{label}: alert stream moved");
    }
}

/// The full-length `jitter-spikes` regime at seeds 1–3 holds every
/// invariant, its silence included: the monitor counts PROBE rounds,
/// not PROBE packets, so one unanswered round to every receiver does
/// not read as a member nearing ejection. `baseline` armed with the same
/// `probe_failure_limit` 3 stays silent too.
#[test]
fn full_length_jitter_spikes_stay_silent() {
    let cells = hostile::cells(&ExpOptions::default());
    let cell = |label: &str| {
        let cell = cells.iter().find(|c| c.row == label).expect("regime");
        cell.scenario.clone()
    };
    let jitter = cell("jitter-spikes");
    let mut baseline = cell("baseline");
    baseline.protocol.probe_failure_limit = 3;
    for seed in 1..=3 {
        let run = jitter.clone().with_seed(seed).run();
        let violations = hostile::check_invariants("jitter-spikes", &[run], &[]);
        assert_eq!(violations, Vec::<String>::new(), "seed {seed}");
        let quiet = baseline.clone().with_seed(seed).run();
        assert_eq!(quiet.alerts, Vec::new(), "baseline, seed {seed}");
    }
}
