//! The paper's figures (§5) as grid sets. Every cell is one kernel-buffer
//! size (row) of one series (column) in one panel; a figure supplies its
//! cells, a point function over a cell's seeded runs and the tables it
//! prints. The shared projection, `plot`, writes the figure's JSON as
//! `{panel: {series: [{"buffer": bytes, <point>...}]}}` and renders each
//! table from that JSON. The §5.1 testbed (Figs. 10–13) is the simulated
//! LAN with the paper's host-processing constants; EXPERIMENTS.md states
//! each figure's claims and how they compare.

use std::collections::BTreeMap;

use hrmc_app::Scenario;
use hrmc_sim::topology::test_case;
use hrmc_sim::{CharacteristicGroup, GroupSpec, SimReport};
use serde_json::{json, Map, Value};

use crate::runner::{Cell, Done, Output};
use crate::{avg, buf_label, ExpOptions, Table, BUFFERS, MBPS_10, MBPS_100, MB_10, MB_40};

/// A grid cell's point: named values over its seeded runs.
type Point = Vec<(&'static str, f64)>;

/// Receiver counts of the experimental study (Figs. 10–13), by series.
const RECEIVERS: [(&str, usize); 3] = [("1_receivers", 1), ("2_receivers", 2), ("3_receivers", 3)];
const RCVRS: &[&str] = &["buffer", "1 rcvr", "2 rcvrs", "3 rcvrs"];

/// The five test cases of Fig. 14(b) (Figs. 15–16), by series.
const TESTS: [(&str, usize); 5] = [
    ("test1", 1),
    ("test2", 2),
    ("test3", 3),
    ("test4", 4),
    ("test5", 5),
];
const TEST_COLS: &[&str] = &["buffer", "Test 1", "Test 2", "Test 3", "Test 4", "Test 5"];
const NAK_COLS: &[&str] = &[
    "buffer",
    "NAKs(1r)",
    "NAKs(2r)",
    "NAKs(3r)",
    "nic_drops(1r)",
];

/// Cells for every `(panel, buffer, series)` of a grid, in that order —
/// the order the JSON series and the table rows come out in.
fn grid<P: Copy, S: Copy>(
    panels: &[(&'static str, P)],
    buffers: &[usize],
    series: &[(&'static str, S)],
    scenario: impl Fn(P, S, usize) -> Scenario,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &(panel, p) in panels {
        for &buffer in buffers {
            for &(column, s) in series {
                let row = buf_label(buffer);
                cells.push(Cell::new(panel, column, row, scenario(p, s, buffer)));
            }
        }
    }
    cells
}

/// One printed table: `field` of every series of `panel` to `digits`
/// places, one row per buffer, plus an optional `extra` `(series, field)`
/// column.
#[derive(Clone)]
struct View {
    title: String,
    panel: String,
    field: &'static str,
    digits: usize,
    headers: &'static [&'static str],
    extra: Option<(&'static str, &'static str)>,
}

fn view(
    title: impl Into<String>,
    panel: impl Into<String>,
    field: &'static str,
    digits: usize,
    headers: &'static [&'static str],
) -> View {
    let (title, panel) = (title.into(), panel.into());
    View {
        title,
        panel,
        field,
        digits,
        headers,
        extra: None,
    }
}

impl View {
    fn table(&self, panel: &Value) -> Table {
        let series: Vec<&Vec<Value>> = panel
            .as_object()
            .expect("panels are objects")
            .iter()
            .map(|(_, s)| s.as_array().expect("series are arrays"))
            .collect();
        let digits = self.digits;
        let value = |p: &Value, field: &str| {
            let v = p[field].as_f64().expect("numeric field");
            format!("{v:.digits$}")
        };
        let mut table = Table::new(&self.title, self.headers);
        for (i, first) in series[0].iter().enumerate() {
            let buffer = first["buffer"].as_u64().expect("buffer size");
            let mut row = vec![buf_label(buffer as usize)];
            row.extend(series.iter().map(|s| value(&s[i], self.field)));
            if let Some((s, field)) = self.extra {
                row.push(value(&panel[s][i], field));
            }
            table.row(row);
        }
        table
    }
}

/// The grid projection: JSON file `name` plus one table per view. With
/// `split`, each point field becomes its own panel `<field>_<panel>`
/// holding plain `count`s (Figure 11's layout).
fn plot(
    done: &[Done],
    name: &'static str,
    split: bool,
    point: fn(&[SimReport]) -> Point,
    views: &[View],
) -> Output {
    // Panels in key order, whatever order the cells fill them in.
    let mut panels: BTreeMap<String, Map> = BTreeMap::new();
    for Done { cell, runs, .. } in done {
        let buffer = cell.scenario.protocol.sndbuf;
        let mut points = Vec::new();
        let mut whole = Map::new();
        whole.insert("buffer".into(), json!(buffer));
        for (field, v) in point(runs) {
            if split {
                let count = json!({"buffer": buffer, "count": v});
                points.push((format!("{field}_{}", cell.panel), count));
            }
            whole.insert(field.into(), json!(v));
        }
        if !split {
            points.push((cell.panel.into(), Value::Object(whole)));
        }
        for (panel, p) in points {
            let series = panels.entry(panel).or_default().entry(cell.column);
            let series = series.or_insert_with(|| json!([]));
            series.as_array_mut().expect("series are arrays").push(p);
        }
    }
    let mut json = Map::new();
    for (panel, series) in panels {
        json.insert(panel, Value::Object(series));
    }
    let json = Value::Object(json);
    let mut out = Output::default();
    for v in views {
        out.table(&v.table(&json[v.panel.as_str()]));
    }
    out.files.push((name, json));
    out
}

/// Figure 3: % of buffer releases at which the sender has complete
/// receiver information, (a) without updates (RMC) and (b) with them
/// (H-RMC); 10 receivers in characteristic group A (LAN), B (MAN) or C
/// (WAN), whose loss rates are the paper's 0.005% / 0.5% / 2%.
pub fn fig03_cells(o: &ExpOptions) -> Vec<Cell> {
    let receivers = o.receivers.unwrap_or(10);
    let envs = [
        ("LAN", CharacteristicGroup::A),
        ("MAN", CharacteristicGroup::B),
        ("WAN", CharacteristicGroup::C),
    ];
    let panels = [
        ("a_without_updates_rmc", true),
        ("b_with_updates_hrmc", false),
    ];
    grid(&panels, &BUFFERS, &envs, |rmc, group, b| {
        let spec = GroupSpec { group, receivers };
        let s = Scenario::groups(vec![spec], MBPS_10, b, o.transfer(MB_10));
        if rmc {
            s.rmc()
        } else {
            s
        }
    })
}

fn fig03_point(runs: &[SimReport]) -> Point {
    vec![("percent", avg(runs, |r| r.complete_info_ratio * 100.0))]
}

/// Figure 3's projection.
pub fn fig03(_: &ExpOptions, done: &[Done]) -> Output {
    const ENVS: &[&str] = &["buffer", "LAN", "MAN", "WAN"];
    let views = [
        ("a", "a_without_updates_rmc", "WITHOUT updates (RMC)"),
        ("b", "b_with_updates_hrmc", "WITH updates (H-RMC)"),
    ]
    .map(|(x, panel, mode)| {
        let title = format!("Figure 3({x}): % complete info at release — {mode}");
        view(title, panel, "percent", 1, ENVS)
    });
    plot(done, "fig03", false, fig03_point, &views)
}

/// Figure 10: throughput on a 10 Mbps LAN against kernel buffer size for
/// 1–3 receivers: (a) memory-to-memory 10 MB, (b) 40 MB, (c)
/// disk-to-disk 10 MB, (d) 40 MB.
pub fn fig10_cells(o: &ExpOptions) -> Vec<Cell> {
    let panels = [
        ("a_mem_10MB", (MB_10, false)),
        ("b_mem_40MB", (MB_40, false)),
        ("c_disk_10MB", (MB_10, true)),
        ("d_disk_40MB", (MB_40, true)),
    ];
    grid(&panels, &BUFFERS, &RECEIVERS, |(size, disk), n, b| {
        let s = Scenario::lan(n, MBPS_10, b, o.transfer(size));
        if disk {
            s.disk_to_disk()
        } else {
            s
        }
    })
}

fn fig10_point(runs: &[SimReport]) -> Point {
    debug_assert!(runs.iter().all(|r| r.completed && r.all_intact()));
    vec![("mbps", avg(runs, |r| r.throughput_mbps))]
}

/// Figure 10's projection.
pub fn fig10(_: &ExpOptions, done: &[Done]) -> Output {
    let views = [
        ("Figure 10(a): memory-to-memory, 10 MB (Mbps)", "a_mem_10MB"),
        ("Figure 10(b): memory-to-memory, 40 MB (Mbps)", "b_mem_40MB"),
        ("Figure 10(c): disk-to-disk, 10 MB (Mbps)", "c_disk_10MB"),
        ("Figure 10(d): disk-to-disk, 40 MB (Mbps)", "d_disk_40MB"),
    ]
    .map(|(title, panel)| view(title, panel, "mbps", 2, RCVRS));
    plot(done, "fig10", false, fig10_point, &views)
}

/// Figure 11: rate requests and NAKs arriving at the sender during the
/// disk-to-disk tests of Figure 10, for 10 MB and 40 MB.
pub fn fig11_cells(o: &ExpOptions) -> Vec<Cell> {
    let panels = [("10MB", MB_10), ("40MB", MB_40)];
    grid(&panels, &BUFFERS, &RECEIVERS, |size, n, b| {
        Scenario::lan(n, MBPS_10, b, o.transfer(size)).disk_to_disk()
    })
}

fn fig11_point(runs: &[SimReport]) -> Point {
    let rate_requests = avg(runs, |r| r.sender.rate_requests_received as f64);
    let naks = avg(runs, |r| r.sender.naks_received as f64);
    vec![("rate_requests", rate_requests), ("naks", naks)]
}

/// Figure 11's projection: one panel per counter and size.
pub fn fig11(_: &ExpOptions, done: &[Done]) -> Output {
    let views = ["10", "40"].map(|mb| {
        [("rate requests", "rate_requests"), ("NAKs", "naks")].map(|(what, counter)| {
            let title = format!("Figure 11: {what}, {mb} MB, disk-to-disk");
            view(title, format!("{counter}_{mb}MB"), "count", 1, RCVRS)
        })
    });
    plot(done, "fig11", true, fig11_point, &views.concat())
}

/// Figure 12: memory-to-memory throughput on 100 Mbps, (a) 10 MB and (b)
/// 40 MB, 1–3 receivers; small buffers behave "like a stop-and-wait
/// protocol".
pub fn fig12_cells(o: &ExpOptions) -> Vec<Cell> {
    let panels = [("a_mem_10MB", MB_10), ("b_mem_40MB", MB_40)];
    grid(&panels, &BUFFERS, &RECEIVERS, |size, n, b| {
        Scenario::lan(n, MBPS_100, b, o.transfer(size))
    })
}

fn fig12_point(runs: &[SimReport]) -> Point {
    vec![("mbps", avg(runs, |r| r.throughput_mbps))]
}

/// Figure 12's projection.
pub fn fig12(_: &ExpOptions, done: &[Done]) -> Output {
    let views = [("a", "10", "a_mem_10MB"), ("b", "40", "b_mem_40MB")].map(|(x, mb, panel)| {
        let title = format!("Figure 12({x}): memory-to-memory, {mb} MB, 100 Mbps (Mbps)");
        view(title, panel, "mbps", 1, RCVRS)
    });
    plot(done, "fig12", false, fig12_point, &views)
}

/// Figure 13: NAKs in the 100 Mbps memory-to-memory tests, (a) 10 MB and
/// (b) 40 MB, with the buffer sweep extended past 1024K, where the paper
/// saw NAKs caused by the network card dropping what a large send window
/// bursts in one jiffy. Reproducing that *mechanism* needs a transmit
/// path that outruns the card: the real Pentium II's DMA-overlapped send
/// path was faster than the serial (10 + 0.025·l) + 150 µs model, so
/// these cells run the hosts 2× faster (`cpu_scale` 0.5) with the rate
/// window overdriven past the card (`max_rate_factor` 2.0). The NAK onset
/// then lands where the paper saw it: none through 512K, some beyond
/// 1024K, with the sender-NIC drops shown alongside as the cause.
pub fn fig13_cells(o: &ExpOptions) -> Vec<Cell> {
    let panels = [("a_naks_10MB", MB_10), ("b_naks_40MB", MB_40)];
    let buffers = [&BUFFERS[..], &[2048 * 1024, 4096 * 1024]].concat();
    grid(&panels, &buffers, &RECEIVERS, |size, n, b| {
        let mut s = Scenario::lan(n, MBPS_100, b, o.transfer(size));
        s.cpu_scale = 0.5;
        s.max_rate_factor = 2.0;
        s.sender_txqueue = 100; // a 100 Mbps card's deeper ring (Linux default)
        s
    })
}

fn fig13_point(runs: &[SimReport]) -> Point {
    let naks = avg(runs, |r| r.sender.naks_received as f64);
    let drops = avg(runs, |r| r.sender_nic_drops as f64);
    vec![("naks", naks), ("nic_drops", drops)]
}

/// Figure 13's projection.
pub fn fig13(_: &ExpOptions, done: &[Done]) -> Output {
    let views = [("a", "10", "a_naks_10MB"), ("b", "40", "b_naks_40MB")].map(|(x, mb, panel)| {
        let title = format!("Figure 13({x}): NAK activity, {mb} MB, memory-to-memory, 100 Mbps");
        View {
            extra: Some(("1_receivers", "nic_drops")),
            ..view(title, panel, "naks", 1, NAK_COLS)
        }
    });
    plot(done, "fig13", false, fig13_point, &views)
}

/// One Test 1–5 cell of the §5.2 simulation study.
fn wan_test(o: &ExpOptions, test: usize, receivers: usize, buffer: usize, bps: u64) -> Scenario {
    Scenario::groups(test_case(test, receivers), bps, buffer, o.transfer(MB_10))
}

fn wan_point(runs: &[SimReport]) -> Point {
    let mbps = avg(runs, |r| r.throughput_mbps);
    let rate_requests = avg(runs, |r| r.sender.rate_requests_received as f64);
    vec![("mbps", mbps), ("rate_requests", rate_requests)]
}

/// The throughput and rate-reduce-request tables of a Tests 1–5 panel.
fn wan_views(panel: &'static str, label: &str) -> [View; 2] {
    let thr = format!("throughput, {label} (Mbps)");
    let rr = format!("rate-reduce requests, {label}");
    [
        view(thr, panel, "mbps", 2, TEST_COLS),
        view(rr, panel, "rate_requests", 1, TEST_COLS),
    ]
}

/// Figure 15: simulated 10 Mbps, Tests 1–5 of Figure 14(b) — (a)
/// throughput and (b) rate-reduce requests with 10 receivers, (c)
/// throughput with 100.
pub fn fig15_cells(o: &ExpOptions) -> Vec<Cell> {
    let ten = o.receivers.unwrap_or(10);
    let hundred = o.receivers.map(|r| r * 10).unwrap_or(100);
    let panels = [("ab_10_receivers", ten), ("c_100_receivers", hundred)];
    grid(&panels, &BUFFERS, &TESTS, |receivers, test, b| {
        wan_test(o, test, receivers, b, MBPS_10)
    })
}

/// Figure 15's projection.
pub fn fig15(_: &ExpOptions, done: &[Done]) -> Output {
    let [thr, rr] = wan_views("ab_10_receivers", "Figure 15(a/b): 10 receivers, 10 Mbps");
    let [thr100, _] = wan_views("c_100_receivers", "Figure 15(c): 100 receivers, 10 Mbps");
    plot(done, "fig15", false, wan_point, &[thr, rr, thr100])
}

/// Figure 16: Figure 15(a)(b) on 100 Mbps, plus one extra cell for the
/// §5.2 claim S1: with 100 receivers and large buffers "the maximum
/// throughput of H-RMC reduced to approximately 66 Mbps".
pub fn fig16_cells(o: &ExpOptions) -> Vec<Cell> {
    let panels = [("ab_10_receivers", o.receivers.unwrap_or(10))];
    let mut cells = grid(&panels, &BUFFERS, &TESTS, |receivers, test, b| {
        wan_test(o, test, receivers, b, MBPS_100)
    });
    let hundred = o.receivers.map(|r| r * 10).unwrap_or(100);
    let s1 = wan_test(o, 1, hundred, 1024 * 1024, MBPS_100);
    cells.push(Cell::new("s1_100_receivers", "test1", "1024K".into(), s1));
    cells
}

/// Figure 16's projection: the grid, then the S1 point.
pub fn fig16(_: &ExpOptions, done: &[Done]) -> Output {
    let (s1, done) = done.split_last().expect("fig16 ends with its S1 cell");
    let views = wan_views("ab_10_receivers", "Figure 16(a/b): 10 receivers, 100 Mbps");
    let mut out = plot(done, "fig16", false, wan_point, &views);
    let receivers = s1.cell.scenario.receivers;
    let mbps = avg(&s1.runs, |r| r.throughput_mbps);
    out.text.push_str(&format!(
        "== S1: Test 1, {receivers} receivers, 1024K buffers, 100 Mbps ==\n\
         max throughput = {mbps:.1} Mbps (paper: ~66 Mbps, \"not a significant decrease\")\n\n"
    ));
    if let Value::Object(panels) = &mut out.files[0].1 {
        let s1 = json!({"receivers": receivers, "mbps": mbps});
        panels.insert("s1_100_receivers".into(), s1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{find, run_cells, run_set};

    fn opts(scale_down: u64, receivers: Option<usize>) -> ExpOptions {
        ExpOptions {
            repeats: 1,
            scale_down,
            receivers,
            ..ExpOptions::default()
        }
    }

    /// A probe of one figure at `o`: runs the one cell keyed `[panel,
    /// column, row]` and returns `field` of its point.
    fn at<'a>(
        cells: fn(&ExpOptions) -> Vec<Cell>,
        point: fn(&[SimReport]) -> Point,
        o: &'a ExpOptions,
    ) -> impl Fn([&str; 3], &str) -> f64 + 'a {
        move |key, field| {
            let mut cells = cells(o);
            cells.retain(|c| [c.panel, c.column, c.row.as_str()] == key);
            assert_eq!(cells.len(), 1, "no cell {key:?}");
            let done = run_cells(cells, o.repeats, o.jobs);
            point(&done[0].runs)
                .into_iter()
                .find(|&(f, _)| f == field)
                .unwrap()
                .1
        }
    }

    #[test]
    fn updates_raise_completeness_in_lan() {
        let o = opts(50, Some(3));
        let fig03 = at(fig03_cells, fig03_point, &o);
        let rmc = fig03(["a_without_updates_rmc", "LAN", "64K"], "percent");
        let hrmc = fig03(["b_with_updates_hrmc", "LAN", "64K"], "percent");
        // The paper's headline: in a low-loss environment the RMC sender
        // almost never has full information, while updates fix that.
        assert!(
            hrmc >= rmc,
            "updates must not lower completeness: hrmc={hrmc:.1} rmc={rmc:.1}"
        );
        assert!(hrmc > 50.0, "H-RMC completeness too low: {hrmc:.1}");
    }

    #[test]
    fn run_produces_both_panels() {
        let out = run_set(find("fig03").unwrap(), &opts(50, Some(3)));
        let v = &out.files[0].1;
        assert!(v.get("a_without_updates_rmc").is_some());
        assert!(v.get("b_with_updates_hrmc").is_some());
        let lan = &v["b_with_updates_hrmc"]["LAN"];
        assert_eq!(lan.as_array().unwrap().len(), BUFFERS.len());
    }

    #[test]
    fn throughput_grows_then_plateaus_with_buffer() {
        let o = opts(20, None);
        let fig10 = at(fig10_cells, fig10_point, &o);
        let small = fig10(["a_mem_10MB", "1_receivers", "64K"], "mbps");
        let large = fig10(["a_mem_10MB", "1_receivers", "1024K"], "mbps");
        assert!(small > 0.0 && large > 0.0);
        assert!(
            large >= small,
            "throughput must not shrink with buffer: {small:.2} -> {large:.2}"
        );
        // On a 10 Mbps wire nothing exceeds 10 Mbps.
        assert!(large < 10.0, "throughput {large:.2} exceeds the wire");
    }

    #[test]
    fn receiver_count_is_mostly_neutral() {
        // Paper: "the number of receivers does not affect the overall
        // throughput as long as there is sufficient kernel buffer space."
        let o = opts(20, None);
        let fig10 = at(fig10_cells, fig10_point, &o);
        let one = fig10(["a_mem_10MB", "1_receivers", "1024K"], "mbps");
        let three = fig10(["a_mem_10MB", "3_receivers", "1024K"], "mbps");
        assert!(
            (one - three).abs() / one < 0.35,
            "receiver count changed throughput too much: {one:.2} vs {three:.2}"
        );
    }

    #[test]
    fn lossless_lan_disk_tests_have_few_naks() {
        // Paper: "Data loss was minimal; consequently there were very few
        // NAKs" (Figure 11(b)).
        let o = opts(20, None);
        let naks = at(fig11_cells, fig11_point, &o)(["10MB", "2_receivers", "256K"], "naks");
        assert!(naks < 20.0, "too many NAKs on a lossless LAN: {naks}");
    }

    #[test]
    fn small_buffers_see_more_rate_requests() {
        // Paper: "the number of rate-reduce requests is seen to reduce
        // with increase in buffer size."
        let o = opts(20, None);
        let fig11 = at(fig11_cells, fig11_point, &o);
        let rr_small = fig11(["10MB", "2_receivers", "64K"], "rate_requests");
        let rr_large = fig11(["10MB", "2_receivers", "1024K"], "rate_requests");
        assert!(
            rr_small >= rr_large,
            "rate requests should shrink with buffer: {rr_small} -> {rr_large}"
        );
    }

    #[test]
    fn throughput_increases_with_buffer_at_100mbps() {
        let o = opts(20, None);
        let fig12 = at(fig12_cells, fig12_point, &o);
        let small = fig12(["b_mem_40MB", "1_receivers", "64K"], "mbps");
        let large = fig12(["b_mem_40MB", "1_receivers", "1024K"], "mbps");
        assert!(
            large > small * 1.5,
            "100 Mbps throughput must grow strongly with buffer: {small:.1} -> {large:.1}"
        );
        assert!(large < 100.0);
    }

    #[test]
    fn small_buffers_produce_no_naks() {
        let o = opts(10, None);
        let naks = at(fig13_cells, fig13_point, &o)(["a_naks_10MB", "1_receivers", "128K"], "naks");
        assert_eq!(naks, 0.0, "NAKs with a 128K buffer contradict Figure 13");
    }

    #[test]
    fn very_large_buffers_produce_naks_via_nic_drops() {
        let o = opts(10, None);
        let fig13 = at(fig13_cells, fig13_point, &o);
        let key = ["b_naks_40MB", "1_receivers", "4096K"];
        let (naks, drops) = (fig13(key, "naks"), fig13(key, "nic_drops"));
        assert!(
            naks > 0.0,
            "no NAKs at 4096K: the Figure 13 mechanism is missing"
        );
        assert!(drops > 0.0, "NAKs without NIC drops: wrong mechanism");
    }

    #[test]
    fn test1_beats_test3_and_test5_tracks_wan() {
        let o = opts(50, Some(5));
        let fig15 = at(fig15_cells, wan_point, &o);
        let mbps = |test| fig15(["ab_10_receivers", test, "512K"], "mbps");
        let (t1, t3, t5) = (mbps("test1"), mbps("test3"), mbps("test5"));
        assert!(
            t1 > t3,
            "LAN test must beat WAN test: t1={t1:.2} t3={t3:.2}"
        );
        // Test 5 (80% WAN) lands near Test 3, far from Test 1.
        assert!(
            (t5 - t3).abs() < (t1 - t3).abs(),
            "t5={t5:.2} should track t3={t3:.2}, not t1={t1:.2}"
        );
    }

    // Full-size transfers below: the rate-request ordering the paper
    // claims only emerges at scale (tiny scaled-down transfers invert it).

    #[test]
    fn hundred_mbps_ordering_holds() {
        let o = opts(1, Some(5));
        let fig16 = at(fig16_cells, wan_point, &o);
        let t1 = fig16(["ab_10_receivers", "test1", "1024K"], "mbps");
        let t3 = fig16(["ab_10_receivers", "test3", "1024K"], "mbps");
        assert!(
            t1 > t3,
            "Test 1 must beat Test 3 at 100 Mbps: {t1:.1} vs {t3:.1}"
        );
    }

    #[test]
    fn rate_requests_exceed_10mbps_levels() {
        // Paper: "the number of rate requests is relatively larger than
        // that obtained for the 10Mbps network" (receiver windows fill
        // faster while the application drains no faster).
        let o = opts(1, Some(5));
        let key = ["ab_10_receivers", "test3", "64K"];
        let rr_fast = at(fig16_cells, wan_point, &o)(key, "rate_requests");
        let rr_slow = at(fig15_cells, wan_point, &o)(key, "rate_requests");
        assert!(
            rr_fast >= rr_slow,
            "100 Mbps should provoke at least as many rate requests: {rr_fast} vs {rr_slow}"
        );
    }
}
