//! The two simulator workloads. Both run paper scenarios exactly as
//! `hrmc_app::Scenario::run()` does (`params()`, `Simulation::new`,
//! `run()`), split only so that each step is timed apart.
//!
//! * `sim_figures`: a fixed basket of paper cells with loss recovery
//!   active: router, NIC, host and loss models, scheduler and engines.
//! * `sim_fanout`: one lossless 1-to-thousands transfer on the
//!   `scalability` binary's footing: membership gate, deadline sweep and
//!   event queue dominate and loss recovery does nothing.
//!
//! One unit of work is one pass over the workload's cells; units repeat,
//! each on its own lane of the seed, until the run's seconds are spent.

use std::time::Instant;

use hrmc_app::Scenario;
use hrmc_core::membership::Membership;
use hrmc_core::PeerId;
use hrmc_sim::topology::test_case;
use hrmc_sim::{SimReport, Simulation};

use crate::gen::{self, Tally};
use crate::report::{EndToEnd, Layers};
use crate::stats::{best, median};
use crate::sys::process_cpu_ns;
use crate::trace::Tracer;
use crate::units;

/// Receivers of the `sim_fanout` transfer, sized so a unit takes about a
/// second and a run holds several.
const FANOUT_RECEIVERS: usize = 2_000;

struct Cell {
    /// The per-layer row that carries this cell's run time.
    row: &'static str,
    scenario: Scenario,
}

/// The `sim_figures` basket, transfers scaled so one pass takes about a
/// second.
fn figure_cells(seed: u64) -> Vec<Cell> {
    let kib = 1024;
    let cells = vec![
        // Fig. 10: 2 receivers, 10 Mbps LAN, 256 KiB buffers.
        Cell {
            row: "sim.run_s.fig10",
            scenario: Scenario::lan(2, 10_000_000, 256 * kib, 16_000_000),
        },
        // Fig. 12: 2 receivers, 100 Mbps LAN, 512 KiB buffers.
        Cell {
            row: "sim.run_s.fig12",
            scenario: Scenario::lan(2, 100_000_000, 512 * kib, 32_000_000),
        },
        // Fig. 15, test 3: 12 receivers behind the WAN group.
        Cell {
            row: "sim.run_s.fig15",
            scenario: Scenario::groups(test_case(3, 12), 10_000_000, 512 * kib, 4_000_000),
        },
        // The BENCH_sim.json scenario: 64 receivers, 1 Mbps, 0.5 % loss.
        Cell {
            row: "sim.run_s.lan64",
            scenario: Scenario::lan(64, 1_000_000, 256 * kib, 800_000).with_loss(0.005),
        },
    ];
    with_seeds(cells, seed)
}

/// The `sim_fanout` cell, on the `scalability` binary's footing.
fn fanout_cells(seed: u64) -> Vec<Cell> {
    let n = FANOUT_RECEIVERS;
    let mut s = Scenario::lan(n, 1_000_000_000, 256 * 1024, 200_000).with_probe_batch(64);
    s.cpu_scale = 0.01;
    s.max_rate_factor = 0.01;
    s.router_queue = s.router_queue.max(2 * n);
    s.sender_txqueue = s.sender_txqueue.max(n / 4);
    with_seeds(
        vec![Cell {
            row: "sim.run_s.fanout",
            scenario: s,
        }],
        seed,
    )
}

fn with_seeds(cells: Vec<Cell>, seed: u64) -> Vec<Cell> {
    cells
        .into_iter()
        .enumerate()
        .map(|(i, c)| Cell {
            row: c.row,
            scenario: c.scenario.with_seed(gen::derive(seed, i as u64)),
        })
        .collect()
}

pub enum Which {
    Figures,
    Fanout,
}

impl Which {
    fn cells(&self, seed: u64) -> Vec<Cell> {
        match self {
            Which::Figures => figure_cells(seed),
            Which::Fanout => fanout_cells(seed),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Which::Figures => "sim_figures",
            Which::Fanout => "sim_fanout",
        }
    }
}

struct CellRun {
    row: &'static str,
    params_s: f64,
    build_s: f64,
    run_s: f64,
    cpu_ns: u64,
    report: SimReport,
}

struct Unit {
    cells: Vec<CellRun>,
}

impl Unit {
    /// The measured work is what `Scenario::run()` does with the
    /// parameters: `Simulation::new` and `run`. Building the world is
    /// work, not set-up: for thousands of hosts it is a few hundred
    /// microseconds of page faults, which here differ by 30 % from one
    /// quarter of an hour to the next; a set-up time made of them cannot
    /// hold a bound, and inside the measured work nothing can hide.
    fn run_s(&self) -> f64 {
        self.cells.iter().map(|c| c.build_s + c.run_s).sum()
    }
    fn bytes(&self) -> u64 {
        self.cells.iter().map(|c| c.report.transfer_bytes).sum()
    }
    fn goodput_mbps(&self) -> f64 {
        self.bytes() as f64 * 8.0 / self.run_s() / 1e6
    }
    fn cpu_ms_per_mb(&self) -> f64 {
        let cpu_ns: u64 = self.cells.iter().map(|c| c.cpu_ns).sum();
        cpu_ns as f64 / 1e6 / (self.bytes() as f64 / 1e6)
    }
    /// Virtual time at which the median and the slowest receiver held the
    /// whole transfer, summed over the cells.
    fn completion_us(&self) -> (f64, f64) {
        let (mut typical, mut slowest) = (0.0, 0.0);
        for c in &self.cells {
            let mut done: Vec<f64> = c
                .report
                .receivers
                .iter()
                .map(|r| r.completed_at.unwrap_or(c.report.elapsed_us) as f64)
                .collect();
            done.sort_by(f64::total_cmp);
            typical += median(done.iter().copied());
            slowest += done[done.len() - 1];
        }
        (typical, slowest)
    }
    /// One operation per receiver-stream: the simulator's sink checks
    /// every byte against the expected pattern.
    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for c in &self.cells {
            for r in &c.report.receivers {
                t.op(c.report.completed && r.intact && r.bytes == c.report.transfer_bytes);
            }
        }
        t
    }
}

fn run_unit(which: &Which, seed: u64, observe: bool, tr: &mut Tracer) -> Unit {
    tr.enter("sim.unit");
    let cells = which
        .cells(seed)
        .into_iter()
        .map(|c| {
            tr.enter("app.params");
            let t0 = Instant::now();
            let mut params = c.scenario.params();
            params.observe = observe;
            let params_s = t0.elapsed().as_secs_f64();
            tr.exit();
            let cpu0 = process_cpu_ns();
            tr.enter("sim.build");
            let t0 = Instant::now();
            let sim = Simulation::new(params);
            let build_s = t0.elapsed().as_secs_f64();
            tr.exit();
            tr.enter(c.row);
            let t0 = Instant::now();
            let report = sim.run();
            let run_s = t0.elapsed().as_secs_f64();
            let cpu_ns = process_cpu_ns() - cpu0;
            tr.exit();
            CellRun {
                row: c.row,
                params_s,
                build_s,
                run_s,
                cpu_ns,
                report,
            }
        })
        .collect();
    tr.exit();
    Unit { cells }
}

/// What an untraced run keeps of one unit. The reports are dropped with
/// the unit, so that the warm-up pass and the measured pass allocate and
/// free alike (kept, the measured pass reused what the warm-up had freed
/// and the next warm-up paid the page faults: 35 % slower in a bad spell)
/// and `peak_rss_mb` is one simulation, not the run's reports.
struct Pass {
    setup_s: f64,
    run_s: f64,
    goodput_mbps: f64,
    bytes: u64,
}

pub fn end_to_end(which: Which, seed: u64, seconds: u64) -> EndToEnd {
    let mut tr = Tracer::new(false, Instant::now());
    let mut tally = Tally::default();
    let passes = units::repeat(seed, seconds as f64, false, &mut tr, |lane, tr| {
        // Set-up: the scenarios, their parameters, and one whole unmeasured
        // pass over the same cells, which lets the allocator's arenas and
        // the caches fill. Every measured pass has its own, so the set-ups
        // are spread over the run like the passes.
        let t0 = Instant::now();
        tally.add(run_unit(&which, lane, false, tr).tally());
        let setup_s = t0.elapsed().as_secs_f64();
        let unit = run_unit(&which, lane, false, tr);
        tally.add(unit.tally());
        Pass {
            setup_s,
            run_s: unit.run_s(),
            goodput_mbps: unit.goodput_mbps(),
            bytes: unit.bytes(),
        }
    });
    eprintln!(
        "{}: {} units, {:.3} s per pass, {:.1} MB modelled per pass",
        which.name(),
        passes.len(),
        median(passes.iter().map(|p| p.run_s)),
        passes[0].bytes as f64 / 1e6
    );
    // Every number is that of the run's best unit: see `stats::best`. One
    // delivery is one whole pass, verified, so both delivery rows carry
    // the best pass time.
    let pass_us = best(passes.iter().map(|p| p.run_s), false) * 1e6;
    EndToEnd {
        setup_s: best(passes.iter().map(|p| p.setup_s), false),
        goodput_mbps: best(passes.iter().map(|p| p.goodput_mbps), true),
        delivery_p50_us: pass_us,
        delivery_p99_us: pass_us,
        tally,
    }
}

pub fn traced(which: Which, seed: u64, seconds: u64) -> (Layers, Tracer, Tally) {
    let mut tr = Tracer::new(true, Instant::now());
    let mut l = Layers::default();
    let units = units::repeat(seed, seconds as f64 * 0.6, true, &mut tr, |lane, tr| {
        run_unit(&which, lane, false, tr)
    });
    let mut tally = Tally::default();
    units.iter().for_each(|u| tally.add(u.tally()));
    let median_of = |f: &dyn Fn(&Unit) -> f64| median(units.iter().map(f));
    // Even units ran untraced.
    l.set(
        "proc.cpu_ms_per_mb",
        best(units.iter().step_by(2).map(Unit::cpu_ms_per_mb), false),
    );
    let run_s: Vec<f64> = units.iter().map(Unit::run_s).collect();
    l.set(
        "harness.trace_overhead_pct",
        units::trace_overhead_pct(&run_s),
    );
    let root = tr.total("sim.unit").0 as f64;
    l.set(
        "harness.self_share",
        tr.self_ns("sim.unit") as f64 / root.max(1.0),
    );

    for (i, c) in units[0].cells.iter().enumerate() {
        l.set(c.row, median_of(&|u| u.cells[i].run_s));
    }
    l.set(
        "sim.build_s",
        median_of(&|u| u.cells.iter().map(|c| c.build_s).sum()),
    );
    l.set(
        "app.params_s",
        median_of(&|u| u.cells.iter().map(|c| c.params_s).sum()),
    );

    // Counts from unit 0 alone: they repeat exactly for a seed.
    let u0 = &units[0];
    let sum = |f: &dyn Fn(&SimReport) -> u64| -> f64 {
        u0.cells.iter().map(|c| f(&c.report)).sum::<u64>() as f64
    };
    let events = sum(&|r| r.events_popped);
    l.set("sim.events_popped", events);
    l.set(
        "sim.events_per_s",
        median_of(&|u| {
            u.cells.iter().map(|c| c.report.events_popped).sum::<u64>() as f64 / u.run_s()
        }),
    );
    l.set(
        "sim.ns_per_event",
        median_of(&|u| {
            u.run_s() * 1e9 / u.cells.iter().map(|c| c.report.events_popped).sum::<u64>() as f64
        }),
    );
    l.set(
        "sim.peak_queue_len",
        u0.cells
            .iter()
            .map(|c| c.report.peak_queue_len)
            .max()
            .unwrap_or(0) as f64,
    );
    l.set("sim.engine_ticks", sum(&|r| r.host_ticks.iter().sum()));
    l.set(
        "sim.drops",
        sum(&|r| {
            r.router_loss_drops
                + r.router_overflow_drops
                + r.sender_nic_drops
                + r.nic_rx_drops
                + r.host_backlog_drops
        }),
    );
    let data = (sum(&|r| r.sender.data_packets_sent + r.sender.retransmissions)).max(1.0);
    let (typical_us, slowest_us) = u0.completion_us();
    l.set(
        "core.model_goodput_mbps",
        u0.bytes() as f64 * 8.0 / slowest_us,
    );
    l.set("core.model_delivery_p50_us", typical_us);
    l.set("core.model_delivery_p99_us", slowest_us);
    l.set("core.retx_share", sum(&|r| r.sender.retransmissions) / data);
    l.set(
        "core.naks_per_kpkt",
        sum(&SimReport::total_naks) * 1000.0 / data,
    );
    l.set(
        "core.feedback_per_data_pkt",
        sum(&|r| r.receivers.iter().map(|x| x.stats.feedback_sent()).sum()) / data,
    );
    l.set(
        "core.probes_per_release",
        sum(&|r| r.sender.probes_sent) / sum(&|r| r.sender.segments_released).max(1.0),
    );
    l.set(
        "core.complete_info_ratio",
        sum(&|r| r.sender.release_attempts_with_complete_info)
            / sum(&|r| r.sender.release_attempts).max(1.0),
    );
    l.set("core.rate_halvings", sum(&|r| r.rate_halvings));
    l.set("core.urgent_stops", sum(&|r| r.urgent_stops));
    l.set("core.gate_checks", sum(&|r| r.sender.gate_checks));
    l.set(
        "core.gate_members_scanned",
        sum(&|r| r.sender.gate_members_scanned),
    );

    // The simulator's own observers: unit 0 again, observed and not,
    // untraced. The observed report carries the recovery percentiles.
    tr.set_enabled(false);
    let lane0 = units::lane(seed, 0);
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plain.push(run_unit(&which, lane0, false, &mut tr));
        observed.push(run_unit(&which, lane0, true, &mut tr));
    }
    tr.set_enabled(true);
    let fast = |units: &[Unit]| best(units.iter().map(Unit::run_s), false);
    l.set(
        "sim.observe_overhead_pct",
        (fast(&observed) / fast(&plain) - 1.0) * 100.0,
    );
    observed.iter().for_each(|u| tally.add(u.tally()));
    // The cell with the most repairs speaks for the basket.
    if let Some(rec) = observed[0]
        .cells
        .iter()
        .filter_map(|c| c.report.latency.map(|lat| lat.recovery))
        .max_by_key(|r| r.count)
        .filter(|r| r.count > 0)
    {
        l.set("core.recovery_p50_us", rec.p50 as f64);
        l.set("core.recovery_p99_us", rec.p99 as f64);
    }

    if matches!(which, Which::Fanout) {
        membership_micro(&mut l, &mut tr);
    }
    (l, tr, tally)
}

/// Direct `Membership` calls at 20 k members in the sender's MINBUF
/// query mix: the group marches forward one shard span per round while
/// one laggard trails, so the gate fails on a small trailing set,
/// `lacking` names it, the laggard catches up and the gate passes.
fn membership_micro(l: &mut Layers, tr: &mut Tracer) {
    const MEMBERS: usize = 20_000;
    const ROUNDS: u32 = 64;
    const STRIDE: u32 = 64;
    // Cross the sequence wrap mid-march.
    let base: u32 = u32::MAX - ROUNDS * STRIDE / 2;
    let mut m = Membership::new();
    for p in 0..MEMBERS {
        m.add(PeerId(p as u32), base, p as u64);
    }
    let mut now = MEMBERS as u64;
    let (mut update_ns, mut all_have_ns, mut lacking_ns) = (0u128, 0u128, 0u128);
    let mut scratch: Vec<PeerId> = Vec::new();
    let mut sound = true;
    for r in 1..=ROUNDS {
        let front = base.wrapping_add(r * STRIDE);
        tr.enter("core.membership.update");
        let t0 = Instant::now();
        for p in 1..MEMBERS {
            now += 1;
            m.update(PeerId(p as u32), front.wrapping_add(1), now);
        }
        update_ns += t0.elapsed().as_nanos();
        tr.exit();
        tr.enter("core.membership.all_have");
        let t0 = Instant::now();
        sound &= !m.all_have(front);
        all_have_ns += t0.elapsed().as_nanos();
        tr.exit();
        tr.enter("core.membership.lacking");
        let t0 = Instant::now();
        m.lacking_into(front, &mut scratch);
        lacking_ns += t0.elapsed().as_nanos();
        tr.exit();
        sound &= scratch.len() == 1;
        now += 1;
        m.update(PeerId(0), front.wrapping_add(1), now);
        tr.enter("core.membership.all_have");
        let t0 = Instant::now();
        sound &= m.all_have(front);
        all_have_ns += t0.elapsed().as_nanos();
        tr.exit();
    }
    assert!(
        sound,
        "membership gate gave a wrong answer in the micro-benchmark"
    );
    let updates = u128::from(ROUNDS) * (MEMBERS as u128 - 1);
    l.set(
        "core.membership.update_ns",
        update_ns as f64 / updates as f64,
    );
    l.set(
        "core.membership.all_have_ns",
        all_have_ns as f64 / f64::from(2 * ROUNDS),
    );
    l.set(
        "core.membership.lacking_ns",
        lacking_ns as f64 / f64::from(ROUNDS),
    );
    l.set(
        "core.membership.scanned_per_lacking",
        m.costs().members_scanned as f64 / f64::from(ROUNDS),
    );
}
