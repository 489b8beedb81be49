//! The metric tables `BENCHMARK.json` mirrors, and the one JSON line a run
//! ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::gen::Tally;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "engine_loop",
        why: "1 sender to 8 receiver engines on a virtual clock, 1% loss: hrmc-wire and hrmc-core do all the work, hrmc-sim and hrmc-net none",
    },
    Workload {
        name: "sim_figures",
        why: "a basket of paper cells (Fig. 10, 12, 15 WAN, 64-receiver lossy LAN) through Scenario::run: simulator models, scheduler and engines with loss recovery active",
    },
    Workload {
        name: "sim_fanout",
        why: "lossless 1-to-thousands fan-out: membership gate, deadline sweep and event queue dominate, loss recovery idle; the counter-workload for the two above",
    },
    Workload {
        name: "live_bulk",
        why: "closed-loop bulk transfer to 2 receivers over loopback multicast: hrmc-net reactor, datapath and kernel UDP do the work; the paper's file distribution",
    },
    Workload {
        name: "live_stream",
        why: "open-loop 1 KiB messages at 1024/s on the same stack: timer path and per-packet cost dominate, send-buffer queueing none; latency from due time",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one;
/// `README.md` says what each means on each workload.
pub const END_TO_END: [Metric; 5] = [
    e2e("goodput_mbps", "Mbit/s", Higher, 0.25),
    e2e("delivery_p50_us", "us", Lower, 0.20),
    e2e("delivery_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One row per layer boundary the harness can time or count from
/// outside. A workload that leaves a layer idle reports 0 for its rows.
pub const PER_LAYER: [Metric; 86] = [
    // hrmc-wire: bare encode/decode, measured on engine_loop.
    layer("wire.encode_ns_per_pkt", "ns", Lower),
    layer("wire.decode_ns_per_pkt", "ns", Lower),
    layer("wire.encode_small_ns_per_pkt", "ns", Lower),
    layer("wire.decode_small_ns_per_pkt", "ns", Lower),
    layer("wire.bytes_per_payload_byte", "ratio", Lower),
    // hrmc-core sender and receiver, in place in engine_loop.
    layer("core.sender.submit_ns_per_kb", "ns", Lower),
    layer("core.sender.tick_ns", "ns", Lower),
    layer("core.sender.tick_ns_per_pkt", "ns", Lower),
    layer("core.sender.feedback_ns_per_pkt", "ns", Lower),
    layer("core.sender.poll_ns_per_pkt", "ns", Lower),
    layer("core.receiver.data_ns_per_pkt", "ns", Lower),
    layer("core.receiver.tick_ns", "ns", Lower),
    layer("core.receiver.read_ns_per_kb", "ns", Lower),
    // hrmc-core membership: direct calls at 20 k members, on sim_fanout.
    layer("core.membership.update_ns", "ns", Lower),
    layer("core.membership.all_have_ns", "ns", Lower),
    layer("core.membership.lacking_ns", "ns", Lower),
    layer("core.membership.scanned_per_lacking", "count", Lower),
    layer("core.gate_checks", "count", Lower),
    layer("core.gate_members_scanned", "count", Lower),
    // hrmc-core protocol counts, every workload.
    layer("core.model_goodput_mbps", "Mbit/s", Higher),
    layer("core.model_delivery_p50_us", "us", Lower),
    layer("core.model_delivery_p99_us", "us", Lower),
    layer("core.retx_share", "ratio", Lower),
    layer("core.naks_per_kpkt", "1/kpkt", Lower),
    layer("core.feedback_per_data_pkt", "ratio", Lower),
    layer("core.probes_per_release", "ratio", Lower),
    layer("core.complete_info_ratio", "ratio", Higher),
    layer("core.rate_halvings", "count", Lower),
    layer("core.urgent_stops", "count", Lower),
    layer("core.recovery_p50_us", "us", Lower),
    layer("core.recovery_p99_us", "us", Lower),
    // hrmc-core observers: engine_loop again with each sink installed.
    layer("core.obs.metrics_overhead_pct", "%", Lower),
    layer("core.obs.jsonl_overhead_pct", "%", Lower),
    layer("core.obs.flight_overhead_pct", "%", Lower),
    layer("core.obs.health_overhead_pct", "%", Lower),
    // hrmc-sim and hrmc-app.
    layer("sim.run_s.fig10", "s", Lower),
    layer("sim.run_s.fig12", "s", Lower),
    layer("sim.run_s.fig15", "s", Lower),
    layer("sim.run_s.lan64", "s", Lower),
    layer("sim.run_s.fanout", "s", Lower),
    layer("sim.build_s", "s", Lower),
    layer("app.params_s", "s", Lower),
    layer("sim.events_popped", "count", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.ns_per_event", "ns", Lower),
    layer("sim.peak_queue_len", "count", Lower),
    layer("sim.engine_ticks", "count", Lower),
    layer("sim.drops", "count", Lower),
    layer("sim.observe_overhead_pct", "%", Lower),
    // hrmc-net session.
    layer("net.bind_sender_us", "us", Lower),
    layer("net.bind_receiver_us", "us", Lower),
    layer("net.join_ms", "ms", Lower),
    layer("net.send_blocked_share", "ratio", Lower),
    layer("net.recv_wait_share", "ratio", Lower),
    layer("net.close_wait_ms", "ms", Lower),
    // hrmc-net reactor and datapath, from Reactor::stats().
    layer("net.reactor.syscalls_per_pkt", "ratio", Lower),
    layer("net.reactor.rx_batch_mean", "count", Higher),
    layer("net.reactor.tx_batch_mean", "count", Higher),
    layer("net.reactor.wakeups_per_pkt", "ratio", Lower),
    layer("net.reactor.pkts_per_mb", "1/MB", Lower),
    layer("net.reactor.tx_retries", "count", Lower),
    layer("net.reactor.tx_drops", "count", Lower),
    layer("net.reactor.loop_p99_us", "us", Lower),
    layer("net.reactor.timer_slippage_p99_us", "us", Lower),
    layer("net.reactor.timer_fires_per_s", "1/s", Lower),
    // hrmc-net socket: the bare kernel floor, on live_bulk.
    layer("net.socket.tx_ns_per_pkt", "ns", Lower),
    layer("net.socket.rx_ns_per_pkt", "ns", Lower),
    layer("net.socket.tx_small_ns_per_pkt", "ns", Lower),
    layer("net.socket.rx_small_ns_per_pkt", "ns", Lower),
    // live_bulk rate ladder and live_stream detail.
    layer("net.ladder.lossless_rate_mibps", "MiB/s", Higher),
    layer("net.ladder.r4.goodput_mbps", "Mbit/s", Higher),
    layer("net.ladder.r8.goodput_mbps", "Mbit/s", Higher),
    layer("net.ladder.r16.goodput_mbps", "Mbit/s", Higher),
    layer("net.ladder.r32.goodput_mbps", "Mbit/s", Higher),
    layer("net.ladder.r4.retx_share", "ratio", Lower),
    layer("net.ladder.r8.retx_share", "ratio", Lower),
    layer("net.ladder.r16.retx_share", "ratio", Lower),
    layer("net.ladder.r32.retx_share", "ratio", Lower),
    layer("net.ladder.delivery_p99_us", "us", Lower),
    layer("net.stream.gen_late_max_us", "us", Lower),
    layer("net.stream.delivery_max_us", "us", Lower),
    // The whole process: CPU (user + system, all threads) per MB of
    // payload. Not end to end: on the live workloads it moves by 10-25 %
    // between runs of the same build here, and by 3x for minutes at a time.
    layer("proc.cpu_ms_per_mb", "ms/MB", Lower),
    // The harness itself.
    layer("harness.self_share", "ratio", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.spans", "count", Lower),
    layer("harness.failure_share", "ratio", Lower),
];

/// The end-to-end result of one untraced run (`peak_rss_mb` is read by
/// `main` when the workload has ended).
pub struct EndToEnd {
    pub setup_s: f64,
    pub goodput_mbps: f64,
    pub delivery_p50_us: f64,
    pub delivery_p99_us: f64,
    pub tally: Tally,
}

/// Per-layer values a traced run collected, by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// JSON number: every digit of a finite value, 0 for anything else.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of a run.
pub fn result_line(tally: Tally, values: &[(&Metric, f64)]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted > 0 && tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (m, v)) in values.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            number(*v),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

pub fn end_to_end_values(e: &EndToEnd, peak_rss_mb: f64) -> Vec<(&'static Metric, f64)> {
    END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "goodput_mbps" => e.goodput_mbps,
                "delivery_p50_us" => e.delivery_p50_us,
                "delivery_p99_us" => e.delivery_p99_us,
                "peak_rss_mb" => peak_rss_mb,
                "setup_s" => e.setup_s,
                other => unreachable!("{other} has no source"),
            };
            (m, v)
        })
        .collect()
}

pub fn per_layer_values(l: &Layers) -> Vec<(&'static Metric, f64)> {
    PER_LAYER.iter().map(|m| (m, l.get(m.name))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let e = EndToEnd {
            setup_s: 0.25,
            goodput_mbps: 33.5,
            delivery_p50_us: 5170.0,
            delivery_p99_us: 10200.0,
            tally: Tally {
                attempted: 2,
                failed: 0,
            },
        };
        let line = result_line(e.tally, &end_to_end_values(&e, 12.5));
        let v = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(2));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
        let m = v.get("metrics").expect("metrics");
        for metric in &END_TO_END {
            let entry = m
                .get(metric.name)
                .unwrap_or_else(|| panic!("{} missing", metric.name));
            assert!(entry.get("value").and_then(|x| x.as_f64()).unwrap() > 0.0);
            assert_eq!(
                entry.get("unit").and_then(|x| x.as_str()),
                Some(metric.unit)
            );
        }
    }

    #[test]
    fn failed_or_empty_runs_are_not_correct() {
        let bad = Tally {
            attempted: 2,
            failed: 2,
        };
        assert!(result_line(bad, &[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 2"));
        assert!(result_line(Tally::default(), &[]).starts_with("{\"correct\": false"));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = serde_json::from_str(&body).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect("array")
                .clone()
        };
        let s =
            |o: &serde_json::Value, k: &str| o.get(k).and_then(|x| x.as_str()).map(String::from);

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, j) in WORKLOADS.iter().zip(&workloads) {
            assert_eq!(s(j, "name").as_deref(), Some(w.name));
            assert_eq!(s(j, "why").as_deref(), Some(w.why));
            assert!(w.why.len() <= 200, "{} why too long", w.name);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(&e2e) {
            assert_eq!(s(j, "name").as_deref(), Some(m.name));
            assert_eq!(s(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(s(j, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(j.get("bound").and_then(|b| b.as_f64()), Some(m.bound));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (m, j) in PER_LAYER.iter().zip(&layers) {
            assert_eq!(s(j, "name").as_deref(), Some(m.name));
            assert_eq!(s(j, "unit").as_deref(), Some(m.unit));
            assert_eq!(s(j, "better").as_deref(), Some(m.better.as_str()));
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
        }
    }
}
