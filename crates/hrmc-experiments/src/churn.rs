//! Fault-matrix sweep: the robustness counterpart of the figure sets.
//! One fixed LAN transfer is re-run under a matrix of fault regimes —
//! injected corruption, duplication + reordering, a healing partition,
//! receiver crash, sender pause/resume — and the table reports what each
//! regime cost and what the failure-domain machinery did about it. The
//! paper's evaluation never kills a host mid-run; this set exists so the
//! reproduction's recovery path is exercised as routinely as its
//! throughput path.

use hrmc_app::Scenario;
use hrmc_sim::{ChurnAction, ChurnEvent, FaultModel, FaultPlan, SimReport};
use serde_json::{json, Map, Value};

use crate::runner::{Cell, Done, Output};
use crate::{avg, ExpOptions, Table, MBPS_10, MB_10};

/// Default receiver population (enough that one crash leaves a quorum).
pub const RECEIVERS: usize = 6;

/// The fault matrix: one cell per regime over one fixed 10 Mbps LAN
/// transfer with 1% ambient loss.
pub fn cells(opts: &ExpOptions) -> Vec<Cell> {
    let receivers = opts.receivers.unwrap_or(RECEIVERS);
    let base =
        || Scenario::lan(receivers, MBPS_10, 256 * 1024, opts.transfer(MB_10)).with_loss(0.01);
    let faults = |link, churn| {
        base().with_faults(FaultPlan {
            link,
            churn,
            ..FaultPlan::default()
        })
    };
    let corrupt = FaultModel {
        corrupt: 0.005,
        ..FaultModel::NONE
    };
    let reorder = FaultModel {
        duplicate: 0.01,
        reorder: 0.02,
        reorder_max_us: 20_000,
        ..FaultModel::NONE
    };
    let pause = vec![
        ChurnEvent {
            at_us: 250_000,
            action: ChurnAction::PauseSender,
        },
        ChurnEvent {
            at_us: 750_000,
            action: ChurnAction::ResumeSender,
        },
    ];
    [
        ("baseline", base()),
        ("corrupt-0.5%", faults(corrupt, vec![])),
        ("dup-1%+reorder-2%", faults(reorder, vec![])),
        (
            "partition-1.3s",
            base().with_partition(vec![0], 200_000, 1_500_000),
        ),
        (
            "crash-1rx",
            base().with_receiver_crash(receivers - 1, 300_000),
        ),
        ("pause-0.5s", faults(FaultModel::NONE, pause)),
    ]
    .map(|(label, s)| Cell::new("", "", label.into(), s))
    .into()
}

/// One row and one `churn.json` entry per regime. Every regime must come
/// out the other side: either the run completed, or every incompletion is
/// accounted for by an ejection or a declared session failure.
pub fn project(_: &ExpOptions, done: &[Done]) -> Output {
    let headers = [
        "regime",
        "Mbps",
        "retrans",
        "ejected",
        "failed",
        "corrupt",
        "partition",
        "churn",
    ];
    let mut table = Table::new("fault matrix, 10 Mbps LAN, 1% loss", &headers);
    let mut series = Map::new();
    let mut out = Output::default();
    for Done { cell, runs, .. } in done {
        let label = &cell.row;
        let sum = |f: fn(&SimReport) -> u64| -> u64 { runs.iter().map(f).sum() };
        let ejected = sum(|r| r.sender.members_ejected);
        let failed = sum(|r| r.failed_receivers() as u64);
        for r in runs {
            if !(r.completed || ejected > 0 || failed > 0) {
                let reason = "run neither completed nor resolved its failures";
                out.violations.push(format!("{label}: {reason}"));
            }
        }
        let mbps = avg(runs, |r| r.throughput_mbps);
        let retrans = avg(runs, |r| r.sender.retransmissions as f64);
        let counts = [
            ("members_ejected", ejected),
            ("failed_receivers", failed),
            ("corruption_drops", sum(|r| r.corruption_drops)),
            ("partition_drops", sum(|r| r.partition_drops)),
            ("churn_drops", sum(|r| r.churn_drops)),
        ];
        let mut row = vec![label.clone(), format!("{mbps:.2}"), format!("{retrans:.1}")];
        row.extend(counts.iter().map(|(_, n)| n.to_string()));
        table.row(row);
        let mut entry = Map::new();
        entry.insert("mbps".into(), json!(mbps));
        entry.insert("retransmissions".into(), json!(retrans));
        for (key, n) in counts {
            entry.insert(key.into(), json!(n));
        }
        series.insert(label.clone(), Value::Object(entry));
    }
    out.table(&table);
    out.files.push(("churn", Value::Object(series)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{find, run_set};

    #[test]
    fn fault_matrix_survives_every_regime() {
        let opts = ExpOptions {
            repeats: 1,
            scale_down: 50,
            receivers: Some(4),
            ..ExpOptions::default()
        };
        let out = run_set(find("churn").unwrap(), &opts);
        assert_eq!(out.violations, Vec::<String>::new());
        let v = &out.files[0].1;
        // Each regime's detectors actually fired.
        assert!(v["corrupt-0.5%"]["corruption_drops"].as_u64().unwrap() > 0);
        assert!(v["partition-1.3s"]["partition_drops"].as_u64().unwrap() > 0);
        assert_eq!(v["crash-1rx"]["members_ejected"].as_u64().unwrap(), 1);
        assert_eq!(v["crash-1rx"]["failed_receivers"].as_u64().unwrap(), 0);
        assert!(v["pause-0.5s"]["churn_drops"].as_u64().is_some());
        // The baseline run is unharmed by the harness itself.
        assert!(v["baseline"]["mbps"].as_f64().unwrap() > 0.0);
        assert_eq!(v["baseline"]["members_ejected"].as_u64().unwrap(), 0);
    }
}
