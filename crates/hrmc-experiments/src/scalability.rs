//! The two scalability sweeps (extensions; no paper counterpart).
//!
//! `recovery`: the sender's repair work (retransmissions) vs. receiver
//! population on a lossy LAN, the paper's centralized recovery against
//! the local-recovery extension of its future-work item 3, and how much
//! of that work the peer group absorbs.
//!
//! `fanout`: lossless transfers at 1k / 10k / 100k receivers (or the one
//! `--receivers` population), reporting simulator events per delivered
//! byte and sender work per receiver. Each population runs once at seed
//! 1; its wall-clock time goes to stderr.

use hrmc_app::Scenario;
use serde_json::{json, Map, Value};

use crate::runner::{Cell, Done, Output};
use crate::{avg, ExpOptions, Table, MBPS_10};

/// Ambient loss of the recovery sweep.
const LOSS: f64 = 0.01;

/// Default populations of the fan-out sweep.
const FANOUT: [usize; 3] = [1_000, 10_000, 100_000];

/// A `central` and a `local` cell per population.
pub fn recovery_cells(opts: &ExpOptions) -> Vec<Cell> {
    let transfer = opts.transfer(4_000_000);
    let mut cells = Vec::new();
    for n in [2usize, 5, 10, 20, 40] {
        let base = Scenario::lan(n, MBPS_10, 256 * 1024, transfer).with_loss(LOSS);
        let row = n.to_string();
        cells.push(Cell::new("", "central", row.clone(), base.clone()));
        cells.push(Cell::new("", "local", row, base.with_local_recovery()));
    }
    cells
}

/// One row and one `scalability.json` entry per population.
pub fn recovery(opts: &ExpOptions, done: &[Done]) -> Output {
    let title = format!(
        "Scalability: sender retransmissions, centralized vs local recovery \
         ({} MB, 10 Mbps, {:.1}% loss)",
        opts.transfer(4_000_000) / 1_000_000,
        LOSS * 100.0
    );
    let headers = [
        "receivers",
        "central",
        "local",
        "peer repairs",
        "cancelled",
        "thr c",
        "thr l",
    ];
    let mut table = Table::new(&title, &headers);
    let mut series = Map::new();
    let mut out = Output::default();
    for pair in done.chunks(2) {
        let (central, local, n) = (&pair[0].runs, &pair[1].runs, &pair[0].cell.row);
        for r in central.iter().chain(local) {
            if !(r.completed && r.all_intact()) {
                out.violations.push(format!("{n}: unreliable run at n={n}"));
            }
        }
        let c_retrans = avg(central, |r| r.sender.retransmissions as f64);
        let l_retrans = avg(local, |r| r.sender.retransmissions as f64);
        let repairs = avg(local, |r| {
            r.receivers
                .iter()
                .map(|x| x.stats.repairs_sent as f64)
                .sum()
        });
        let cancelled = avg(local, |r| r.sender.retransmissions_cancelled as f64);
        table.row(vec![
            n.clone(),
            format!("{c_retrans:.0}"),
            format!("{l_retrans:.0}"),
            format!("{repairs:.0}"),
            format!("{cancelled:.0}"),
            format!("{:.2}", avg(central, |r| r.throughput_mbps)),
            format!("{:.2}", avg(local, |r| r.throughput_mbps)),
        ]);
        series.insert(
            n.clone(),
            json!({
                "central_retransmissions": c_retrans,
                "local_retransmissions": l_retrans,
                "peer_repairs": repairs,
                "cancelled": cancelled,
            }),
        );
    }
    out.table(&table);
    out.text.push_str(
        "Peer repairs absorb retransmission work that would otherwise land on\n\
         the sender; the effect grows with the population, which is exactly\n\
         the scalability argument of the paper's future-work item (3).\n",
    );
    out.files.push(("scalability", Value::Object(series)));
    out
}

/// One lossless LAN transfer per population. Small fixed transfer — the
/// quantity under test is per-receiver overhead, not bulk throughput —
/// with PROBE fan-out paced so a single tick never bursts O(receivers)
/// unicast probes.
pub fn fanout_cells(opts: &ExpOptions) -> Vec<Cell> {
    let populations = opts.receivers.map_or(FANOUT.to_vec(), |n| vec![n]);
    let transfer = opts.transfer(200_000);
    let cell = |n: usize| Cell::new("", "", n.to_string(), fanout_scenario(n, transfer));
    populations.into_iter().map(cell).collect()
}

/// Modern-fabric footing, scaled with the population: every 1999-era
/// capacity wall (10 Mbps links, 512-packet router queues, 30-packet NIC
/// rings, a 300 MHz host) delays feedback until its echoes poison SRTT
/// and MINBUF stalls release by minutes (DESIGN.md §16). So: a 1 Gbps
/// fabric and a ~100x CPU; a router queue that holds two JOIN / UPDATE
/// waves of ~n packets; a sender ring that fits the unicast JOIN-response
/// burst; and the data plane paced at the paper's 10 Mbps, so the
/// transfer spans the JOIN wave and the release gate really is evaluated
/// against n live members.
fn fanout_scenario(n: usize, transfer: u64) -> Scenario {
    let mut s = Scenario::lan(n, 1_000_000_000, 256 * 1024, transfer).with_probe_batch(64);
    s.cpu_scale = 0.01;
    s.router_queue = s.router_queue.max(2 * n);
    s.max_rate_factor = 0.01;
    s.sender_txqueue = s.sender_txqueue.max(n / 4);
    s
}

/// One row and one `scalability_fanout.json` entry per population.
pub fn fanout(opts: &ExpOptions, done: &[Done]) -> Output {
    let title = format!(
        "Scalability: sender fan-out, lossless LAN ({} KB, 1 Gbps)",
        opts.transfer(200_000) / 1000
    );
    let headers = [
        "receivers",
        "events",
        "ev/KB delivered",
        "sender ticks",
        "ticks/rcv",
        "sim s",
    ];
    let mut table = Table::new(&title, &headers);
    let mut series = Map::new();
    let mut out = Output::default();
    for Done { cell, runs, wall } in done {
        let (n, r) = (cell.scenario.receivers, &runs[0]);
        eprintln!("fanout n={n}: {:.2} s wall", wall.as_secs_f64());
        for (ok, what) in [
            (r.completed, "did not complete"),
            (r.all_intact(), "corrupted data"),
        ] {
            if !ok {
                out.violations
                    .push(format!("{n}: fan-out run {what} at n={n}"));
            }
        }
        let delivered: u64 = r.receivers.iter().map(|x| x.bytes).sum();
        let ev_per_kb = r.events_popped as f64 * 1000.0 / delivered as f64;
        let sender_ticks = r.host_ticks[0];
        let ticks_per_rcv = sender_ticks as f64 / n as f64;
        table.row(vec![
            n.to_string(),
            r.events_popped.to_string(),
            format!("{ev_per_kb:.2}"),
            sender_ticks.to_string(),
            format!("{ticks_per_rcv:.3}"),
            format!("{:.2}", r.elapsed_us as f64 / 1e6),
        ]);
        series.insert(
            n.to_string(),
            json!({
                "events_popped": r.events_popped,
                "events_per_delivered_kb": ev_per_kb,
                "sender_ticks": sender_ticks,
                "sender_ticks_per_receiver": ticks_per_rcv,
                "elapsed_us": r.elapsed_us,
                "peak_queue_len": r.peak_queue_len,
            }),
        );
    }
    out.table(&table);
    out.text.push_str(
        "Sender ticks per receiver fall as the population grows 1k -> 100k:\n\
         the release gate reads the group minimum and the simulator sweeps\n\
         a deadline heap, so sender ticks track activity, not the group\n\
         size. (Events per delivered KB track raw control traffic — the\n\
         receivers' periodic UPDATE waves are inherently O(n) — so that\n\
         column grows with the feedback volume, not with sender-side work.)\n",
    );
    out.files
        .push(("scalability_fanout", Value::Object(series)));
    out
}
