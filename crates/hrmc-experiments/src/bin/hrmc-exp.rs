//! `hrmc-exp`: the one experiment binary; README.md and EXPERIMENTS.md
//! describe its sets and flags. Sets print tables on stdout and write
//! JSON under `--out`; a set whose invariants fail prints one `FAIL
//! <set>/<row>: <reason>` line per violation on stderr, writes no JSON,
//! and makes the run exit 1 once the remaining sets have run. Bad
//! arguments exit 2. `timeline` observes one 5 MB LAN transfer through
//! the simulator's telemetry sampler: one activity row per sample
//! (`--sample-ms`, default 1000), latency percentiles, and optionally
//! its event stream (`--events`, `--analyze`) and the samples as
//! telemetry JSONL that `hrmc top` reads (`--timeseries`).

use std::slice::Iter;
use std::str::FromStr;
use std::time::Instant;

use hrmc_app::Scenario;
use hrmc_core::TelemetrySample;
use hrmc_experiments::runner::{self, SETS};
use hrmc_experiments::{analyze, ExpOptions};
use hrmc_sim::Simulation;

/// Command-line usage.
const USAGE: &str =
    "usage: hrmc-exp <set>...|all [--quick] [--repeats N] [--out DIR] [--jobs N] [--receivers N]
       hrmc-exp timeline [--receivers N] [--buffer-kb N] [--loss PCT] [--bandwidth-mbps N]
           [--events PATH] [--analyze] [--timeseries PATH] [--sample-ms N (default 1000)]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "timeline" => timeline(rest),
        _ => sweep(&args),
    };
    std::process::exit(match result {
        Ok(passed) => i32::from(!passed),
        Err(e) => {
            let sets: Vec<&str> = SETS.iter().map(|s| s.name).collect();
            eprintln!("hrmc-exp: {e}\n{USAGE}\nsets: {}", sets.join(" "));
            2
        }
    });
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(args: &mut Iter<String>, flag: &str) -> Result<T, String> {
    let v = args.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
}

/// Run the named sets in order; `Ok(false)` if any failed.
fn sweep(args: &[String]) -> Result<bool, String> {
    let mut opts = ExpOptions::default();
    let mut sets = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => (opts.repeats, opts.scale_down) = (1, 10),
            "--repeats" => opts.repeats = value(&mut args, arg)?,
            "--out" => opts.out_dir = value(&mut args, arg)?,
            "--jobs" => opts.jobs = value::<usize>(&mut args, arg)?.max(1),
            "--receivers" => opts.receivers = Some(value(&mut args, arg)?),
            "all" => sets.extend(runner::all()),
            name => sets.push(runner::find(name).ok_or(format!("unknown set or flag {name}"))?),
        }
    }
    if sets.is_empty() {
        return Err("no set named".into());
    }
    let (repeats, scale_down, jobs) = (opts.repeats, opts.scale_down, opts.jobs);
    eprintln!("hrmc-exp: repeats={repeats} scale_down={scale_down} jobs={jobs}");
    let mut passed = true;
    for set in sets {
        let started = Instant::now();
        eprintln!("--- {} ---", set.name);
        passed &= runner::execute(set, &opts);
        let secs = started.elapsed().as_secs_f64();
        eprintln!("--- {} done in {secs:.1}s ---", set.name);
    }
    Ok(passed)
}

/// One observed 5 MB LAN transfer; `Ok(false)` if an output file could
/// not be written.
fn timeline(args: &[String]) -> Result<bool, String> {
    let (mut receivers, mut buffer_kb, mut loss_pct, mut mbps) = (3usize, 256usize, 0.5f64, 10u64);
    let (mut events, mut analyze, mut timeseries) = (None::<String>, false, None::<String>);
    let mut sample_ms = 1000u64;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--receivers" => receivers = value(&mut args, arg)?,
            "--buffer-kb" => buffer_kb = value(&mut args, arg)?,
            "--loss" => loss_pct = value(&mut args, arg)?,
            "--bandwidth-mbps" => mbps = value(&mut args, arg)?,
            "--events" => events = Some(value(&mut args, arg)?),
            "--analyze" => analyze = true,
            "--timeseries" => timeseries = Some(value(&mut args, arg)?),
            "--sample-ms" => sample_ms = value::<u64>(&mut args, arg)?.max(1),
            other => return Err(format!("unknown timeline flag {other}")),
        }
    }
    println!("timeline: {receivers} receivers, {buffer_kb}K buffers, {loss_pct}% loss, {mbps} Mbps, 5 MB\n");
    let scenario = Scenario::lan(receivers, mbps * 1_000_000, buffer_kb * 1024, 5_000_000);
    let mut params = scenario.with_loss(loss_pct / 100.0).params();
    params.observe = true;
    params.sample_interval_us = Some(sample_ms * 1_000);
    // The event stream is captured in memory, for --analyze and --events.
    let (report, captured) = if analyze || events.is_some() {
        let (report, log, analysis) = analyze::run_analyzed(params);
        (report, Some((log, analysis)))
    } else {
        (Simulation::new(params).run(), None)
    };
    let samples = report.timeseries.as_deref().unwrap_or_default();
    print!("{}", activity_table(samples));
    let s = &report.sender;
    println!(
        "\ncompleted={} throughput={:.2} Mbps naks={} rate_requests={} probes={} retrans={}",
        report.completed,
        report.throughput_mbps,
        s.naks_received,
        s.rate_requests_received,
        s.probes_sent,
        s.retransmissions,
    );
    if let Some(lat) = &report.latency {
        for (name, h) in [("delivery", lat.delivery), ("recovery", lat.recovery)] {
            let (n, p50, p90, p99) = (h.count, h.p50, h.p90, h.p99);
            println!("{name} latency (µs): n={n} p50={p50} p90={p90} p99={p99}");
        }
    }
    // A file is announced on stdout only once it is on disk.
    let save = |path: &str, text: &str, announce: String| match std::fs::write(path, text) {
        Ok(()) => {
            println!("{announce}");
            true
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            false
        }
    };
    let mut written = true;
    if let Some((log, analysis)) = captured {
        if analyze {
            println!("\n{}", analysis.render_table());
        }
        if let Some(path) = &events {
            let announce = format!("event log: {path} (diagnose with: hrmc analyze {path})");
            written &= save(path, &log, announce);
        }
    }
    if let Some(path) = &timeseries {
        let lines: String = samples.iter().map(|s| s.to_json_line() + "\n").collect();
        let n = samples.len();
        let announce = format!("timeseries: {path} ({n} samples, {sample_ms} sim-ms grid)");
        written &= save(path, &lines, announce);
    }
    Ok(written)
}

/// One row per telemetry sample: DATA packets on the wire (first
/// transmissions plus retransmissions), first-transmission payload
/// bytes, feedback reaching the sender, PROBEs and drops over the
/// interval, and the sender's rate at the sample instant.
fn activity_table(samples: &[TelemetrySample]) -> String {
    let mut out = String::from("  t(s)   data  bytes      fbk  probe  drops  rate(KB/s)\n");
    for s in samples {
        out += &format!(
            "{:>6.2} {:>6} {:>10} {:>6} {:>6} {:>6} {:>11}\n",
            s.t_us as f64 / 1e6,
            s.counter_delta("data_packets_sent") + s.counter_delta("retransmissions"),
            s.counter_delta("first_tx_bytes"),
            s.counter_delta("feedback_received"),
            s.counter_delta("probes_sent"),
            s.counter_delta("drops"),
            s.gauge("rate_bps").unwrap_or(0) / 1024,
        );
    }
    out
}
