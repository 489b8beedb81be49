//! Hostile-network scenario matrix: the link-dynamics counterpart of
//! the fault matrix in [`crate::churn`]. One fixed transfer is re-run
//! under a pinned set of adversarial *network weather* regimes —
//! capacity collapse and recovery, bufferbloat, jitter storms, an
//! impaired feedback uplink, receiver migration, and all of it at once
//! — and every regime is held to three graceful-degradation contracts
//! ([`check_invariants`]; a broken one is a reported violation, which
//! fails the set and withholds its JSON):
//!
//! 1. **No livelock**: the run terminates and its simulator event count
//!    stays proportional to the bytes it delivered ([`MAX_EVENTS_PER_BYTE`]).
//! 2. **Degrade**: regimes that squeeze capacity must actually engage the
//!    control plane (rate halvings, queue overflows).
//! 3. **Recover, don't amputate**: jitter- and delay-only episodes must
//!    complete with zero ejections — latency is not death — and healing
//!    regimes must still finish the transfer.

use hrmc_app::Scenario;
use hrmc_core::AlertRule;
use hrmc_sim::{CharacteristicGroup, GroupSpec, LinkAction, LinkSchedule, SimReport};
use serde_json::{json, Map, Value};

use crate::runner::{Cell, Done, Output};
use crate::{avg, ExpOptions, Table, MBPS_10, MB_10};

/// Default receiver population.
pub const RECEIVERS: usize = 6;

/// Livelock bound: simulator events popped per byte delivered to any
/// receiver. Healthy runs across the matrix sit near 0.02–0.2
/// events/byte (a packet costs a handful of hops and a segment is
/// ~1.4 KB); a control-plane livelock (NAK storm, probe loop) blows
/// through this by orders of magnitude.
pub const MAX_EVENTS_PER_BYTE: f64 = 2.0;

/// Collapse-and-heal timing (µs) shared by the scenarios that ramp
/// capacity. The collapse lands early enough that even quick-mode
/// transfers are mid-flight when the floor drops out.
const COLLAPSE: u64 = 150_000;
const HEAL: u64 = 1_200_000;

/// Impair the feedback path: extra delay and loss on everything the
/// receivers send upstream.
fn up_path(extra_delay_us: u64, loss: f64) -> LinkAction {
    LinkAction::SetUpPath {
        extra_delay_us,
        loss,
    }
}

/// Resize the backbone router's queue.
fn backbone_queue(packets: usize) -> LinkAction {
    LinkAction::SetRouterQueue { router: 0, packets }
}

/// Move receiver 0 onto a new router path.
fn migrate(path: Vec<usize>) -> LinkAction {
    LinkAction::Migrate { receiver: 0, path }
}

/// The pinned matrix: one cell per regime, rows labelled by regime.
/// `baseline` comes first, carries an empty schedule and anchors the
/// degradation comparisons. Every regime runs with the online health
/// monitor armed — the matrix doubles as the monitor's calibration
/// fixture (quiet regimes must stay silent, violent ones must alert).
pub fn cells(opts: &ExpOptions) -> Vec<Cell> {
    let (receivers, transfer) = (opts.receivers.unwrap_or(RECEIVERS), opts.transfer(MB_10));
    let base = || Scenario::lan(receivers, MBPS_10, 256 * 1024, transfer).with_loss(0.01);
    let mut collapse = LinkSchedule::default();
    // The collapsed backhaul also buffers less: squeeze the queue so
    // the overload is visible as drops, not just delay.
    collapse.push(COLLAPSE, backbone_queue(32));
    collapse.collapse_recover(0, COLLAPSE, HEAL, MBPS_10, MBPS_10 / 20, 100_000, 4);
    collapse.push(HEAL + 200_000, backbone_queue(512));
    let mut bloat = LinkSchedule::default();
    bloat.bufferbloat(0, 200_000, 4096, MBPS_10 / 5);
    // Eight 30 ms delay spikes on a 50 µs LAN — three orders of magnitude
    // of jitter, zero loss — against aggressive ejection thresholds, so
    // "latency is not death" is tested against the *paranoid* sender.
    let mut spikes = LinkSchedule::default();
    spikes.jitter_spikes(0, 200_000, 150_000, 8, 50, 30_000);
    let mut jitter = base().with_links(spikes);
    jitter.protocol.probe_failure_limit = 3;
    jitter.protocol.member_silence_us = 3_000_000;
    // Feedback path only: 30% loss and +20 ms, healing after 1.5 s.
    let mut uplink = LinkSchedule::default();
    uplink.push(100_000, up_path(20_000, 0.30));
    uplink.push(1_600_000, up_path(0, 0.0));
    // Two identical edge groups behind a backbone; one receiver per group
    // so the migration target router exists (router 0 is the backbone, 1
    // and 2 the group routers).
    let edge = GroupSpec {
        group: CharacteristicGroup::A,
        receivers: 1,
    };
    let mut moves = LinkSchedule::default();
    moves.push(300_000, migrate(vec![0, 2]));
    moves.push(900_000, migrate(vec![0, 1]));
    let mobile = Scenario::groups(vec![edge; 2], MBPS_10, 256 * 1024, transfer).with_links(moves);
    let mut combined = collapse.clone();
    combined.jitter_spikes(0, 400_000, 200_000, 5, 50, 20_000);
    combined.push(200_000, up_path(10_000, 0.15));
    combined.push(2_000_000, up_path(0, 0.0));
    [
        ("baseline", base()),
        ("capacity-collapse", base().with_links(collapse)),
        ("bufferbloat", base().with_links(bloat)),
        ("jitter-spikes", jitter),
        ("uplink-impair", base().with_links(uplink)),
        ("mobile-churn", mobile),
        ("hostile-combined", base().with_links(combined)),
    ]
    .map(|(label, s)| Cell::new("", "", label.into(), s.with_health()))
    .into()
}

/// The no-livelock contract: events popped per byte delivered to the
/// applications across all receivers.
pub fn events_per_byte(r: &SimReport) -> f64 {
    let delivered: u64 = r.receivers.iter().map(|x| x.bytes).sum();
    r.events_popped as f64 / delivered.max(1) as f64
}

/// Check one regime's graceful-degradation invariants against its
/// baseline; returns one `"<regime>: <reason>"` per broken check.
pub fn check_invariants(label: &str, runs: &[SimReport], baseline: &[SimReport]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut fail = |reason: &str| violations.push(format!("{label}: {reason}"));
    let rtt_floor = baseline.iter().map(|b| b.final_rtt_us).min().unwrap_or(0);
    for r in runs {
        if !r.completed {
            fail("transfer did not complete within the horizon");
        }
        if !r.all_intact() {
            fail("delivered bytes were corrupted");
        }
        let epb = events_per_byte(r);
        if epb > MAX_EVENTS_PER_BYTE {
            let bound = MAX_EVENTS_PER_BYTE;
            fail(&format!(
                "livelock suspected — {epb:.3} events/byte (bound {bound})"
            ));
        }
        if r.false_ejections != 0 {
            fail("a member that later proved alive was ejected");
        }
        // The online monitor's false-ejection verdict must agree with
        // the ground-truth audit above.
        if r.alerts_raised(AlertRule::FalseEjection) != 0 {
            fail(
                "the online monitor flagged a false ejection the ground truth does not corroborate",
            );
        }
        let alerts = &r.alerts;
        match label {
            "baseline" => {
                if r.link_events_applied != 0 {
                    fail("baseline schedule must be empty");
                }
                if !alerts.is_empty() {
                    fail(&format!("a healthy run raised alerts: {alerts:?}"));
                }
            }
            "capacity-collapse" => {
                if r.rate_halvings < 1 {
                    fail("sender never throttled under collapse");
                }
                if r.router_overflow_drops == 0 {
                    fail("collapsed queue never overflowed");
                }
                let rules = [AlertRule::NakStorm, AlertRule::BacklogGrowth];
                if rules.iter().all(|&rule| r.alerts_raised(rule) == 0) {
                    fail("the monitor slept through the collapse (no nak_storm/backlog_growth alert)");
                }
                if rules.iter().all(|&rule| r.alerts_cleared(rule) == 0) {
                    fail(&format!(
                        "no alert cleared after the heal (alerts: {alerts:?})"
                    ));
                }
            }
            "bufferbloat" if r.final_rtt_us <= rtt_floor => {
                fail("standing queue never inflated the RTT estimate");
            }
            "jitter-spikes" => {
                if r.sender.members_ejected != 0 {
                    fail("jitter-only episode ejected a member");
                }
                if !alerts.is_empty() {
                    fail(&format!(
                        "delay-only jitter must not alarm the monitor (latency is not death): {alerts:?}"
                    ));
                }
            }
            "uplink-impair" if r.up_loss_drops == 0 => fail("impaired uplink dropped nothing"),
            "mobile-churn" if r.migration_drops == 0 => {
                fail("migration never stranded an in-flight packet");
            }
            "hostile-combined" if r.rate_halvings < 1 => fail("no degradation response"),
            _ => {}
        }
    }
    let mean_elapsed =
        |rs: &[SimReport]| rs.iter().map(|r| r.elapsed_us).sum::<u64>() / rs.len().max(1) as u64;
    if label == "capacity-collapse" && mean_elapsed(runs) <= mean_elapsed(baseline) {
        fail("collapse cost no time at all");
    }
    violations
}

/// One row, one `hostile.json` entry and one `alerts.json` entry per
/// regime, each regime checked against the first (`baseline`) cell.
pub fn project(_: &ExpOptions, done: &[Done]) -> Output {
    let headers = [
        "regime", "Mbps", "retrans", "halvings", "overflow", "uploss", "migr", "ej", "falseej",
        "alerts", "ev/B",
    ];
    let mut table = Table::new("hostile-network matrix, 10 Mbps LAN, 1% loss", &headers);
    let (mut series, mut alert_series) = (Map::new(), Map::new());
    let mut out = Output::default();
    for Done { cell, runs, .. } in done {
        let label = &cell.row;
        out.violations
            .extend(check_invariants(label, runs, &done[0].runs));
        let sum = |f: fn(&SimReport) -> u64| -> u64 { runs.iter().map(f).sum() };
        let (mbps, epb) = (avg(runs, |r| r.throughput_mbps), avg(runs, events_per_byte));
        let retrans = avg(runs, |r| r.sender.retransmissions as f64);
        let transitions = sum(|r| r.alerts.len() as u64);
        let counts = [
            ("rate_halvings", sum(|r| r.rate_halvings)),
            ("router_overflow_drops", sum(|r| r.router_overflow_drops)),
            ("up_loss_drops", sum(|r| r.up_loss_drops)),
            ("migration_drops", sum(|r| r.migration_drops)),
            ("members_ejected", sum(|r| r.sender.members_ejected)),
            ("false_ejections", sum(|r| r.false_ejections)),
        ];
        let mut row = vec![label.clone(), format!("{mbps:.2}"), format!("{retrans:.1}")];
        row.extend(counts.iter().map(|(_, n)| n.to_string()));
        row.extend([transitions.to_string(), format!("{epb:.3}")]);
        table.row(row);
        let mut entry = Map::new();
        entry.insert("mbps".into(), json!(mbps));
        entry.insert("retransmissions".into(), json!(retrans));
        for (key, n) in counts {
            entry.insert(key.into(), json!(n));
        }
        let link_events = sum(|r| r.link_events_applied);
        entry.insert("link_events_applied".into(), json!(link_events));
        entry.insert("events_per_byte".into(), json!(epb));
        entry.insert("alert_transitions".into(), json!(transitions));
        series.insert(label.clone(), Value::Object(entry));
        // Per-rule alert fixture: the expected online-monitor verdict
        // for each regime, saved alongside the degradation series so CI
        // archives what "healthy monitoring" looks like.
        let mut by_rule = Map::new();
        for rule in AlertRule::ALL {
            let raised: u64 = runs.iter().map(|r| r.alerts_raised(rule)).sum();
            let cleared: u64 = runs.iter().map(|r| r.alerts_cleared(rule)).sum();
            if raised + cleared > 0 {
                let name = rule.name().into();
                by_rule.insert(name, json!({"raised": raised, "cleared": cleared}));
            }
        }
        let alerts = json!({"transitions": transitions, "by_rule": Value::Object(by_rule)});
        alert_series.insert(label.clone(), alerts);
    }
    out.table(&table);
    out.files.push(("hostile", Value::Object(series)));
    out.files.push(("alerts", Value::Object(alert_series)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, find};
    use hrmc_core::{Alert, Severity};

    #[test]
    fn hostile_matrix_holds_every_invariant() {
        let opts = ExpOptions {
            repeats: 1,
            scale_down: 10,
            out_dir: std::env::temp_dir().join("hrmc-hostile-test"),
            receivers: Some(4),
            ..ExpOptions::default()
        };
        // execute() reports every invariant violation and writes the
        // JSON only when there is none; spot-check that each regime's
        // signature detector actually fired.
        assert!(execute(find("hostile").unwrap(), &opts));
        let read = |name: &str| -> serde_json::Value {
            let text = std::fs::read_to_string(opts.out_dir.join(name)).unwrap();
            serde_json::from_str(&text).unwrap()
        };
        let v = read("hostile.json");
        assert!(v["capacity-collapse"]["rate_halvings"].as_u64().unwrap() >= 1);
        assert!(v["uplink-impair"]["up_loss_drops"].as_u64().unwrap() > 0);
        assert!(v["mobile-churn"]["migration_drops"].as_u64().unwrap() > 0);
        assert_eq!(v["jitter-spikes"]["members_ejected"].as_u64().unwrap(), 0);
        assert_eq!(v["baseline"]["link_events_applied"].as_u64().unwrap(), 0);
        assert!(v["hostile-combined"]["events_per_byte"].as_f64().unwrap() <= MAX_EVENTS_PER_BYTE);
        // The online-monitor fixture: quiet regimes silent, the
        // collapse loud, and the alert artifact on disk for CI.
        assert_eq!(v["baseline"]["alert_transitions"].as_u64().unwrap(), 0);
        assert_eq!(v["jitter-spikes"]["alert_transitions"].as_u64().unwrap(), 0);
        assert!(
            v["capacity-collapse"]["alert_transitions"]
                .as_u64()
                .unwrap()
                >= 2
        );
        let alerts = read("alerts.json");
        assert!(
            alerts["capacity-collapse"]["by_rule"]
                .as_object()
                .is_some_and(|m| !m.is_empty()),
            "{alerts:?}"
        );
    }

    #[test]
    fn a_baseline_alert_is_exactly_one_violation() {
        let mut r = Scenario::lan(2, MBPS_10, 256 * 1024, 100_000).run();
        r.alerts.push(Alert {
            t_us: 50_000,
            rule: AlertRule::NakStorm,
            severity: Severity::Warning,
            raised: true,
            value_m: 3_000,
            limit_m: 1_000,
        });
        let baseline = [r.clone()];
        let violations = check_invariants("baseline", &[r], &baseline);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("baseline: a healthy run raised alerts: [Alert {"),
            "{violations:?}"
        );
    }
}
