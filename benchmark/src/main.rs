//! The H-RMC benchmark.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and ends with one JSON line: the end-to-end metrics of an
//! untraced run, or the per-layer metrics of a traced one (whose spans go
//! to `out/trace-<workload>.json` beside this crate).
//!
//! `--workload all` runs every workload, each in a child process of its
//! own so that `peak_rss_mb` is its own, and prints one table. `--aa`
//! makes the untraced pass twice on this build and fails if any
//! end-to-end metric differs between the passes by more than its bound.
//! See `README.md`.

mod engine_loop;
mod gen;
mod live;
mod report;
mod sim;
mod stats;
mod sys;
mod trace;
mod units;

use std::process::{Command, ExitCode};

use gen::Tally;
use report::{Better, EndToEnd, Layers, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: hrmc-benchmark --workload <{}|all> --seed <n> --seconds <1..60> --trace <0|1> [--aa]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--aa" => a.aa = true,
            _ => usage(),
        }
    }
    let known = a.workload == "all" || WORKLOADS.iter().any(|w| w.name == a.workload);
    if !(1..=60).contains(&a.seconds) || !known || (a.aa && a.trace) {
        usage();
    }
    a
}

/// `run_seconds` of `BENCHMARK.json`, the default when run by hand.
const RUN_SECONDS: u64 = 12;

/// What a workload hands back: the end-to-end numbers of an untraced run,
/// or the per-layer numbers and spans of a traced one. `Err` is a
/// workload that could not run at all; its tally says what failed.
enum Outcome {
    EndToEnd(EndToEnd),
    Layers(Layers, Tracer, Tally),
}

fn run(a: &Args) -> Result<Outcome, Tally> {
    let layers = |(l, t, tally)| Outcome::Layers(l, t, tally);
    Ok(match (a.workload.as_str(), a.trace) {
        ("engine_loop", false) => Outcome::EndToEnd(engine_loop::end_to_end(a.seed, a.seconds)),
        ("engine_loop", true) => layers(engine_loop::traced(a.seed, a.seconds)),
        ("sim_figures", false) => {
            Outcome::EndToEnd(sim::end_to_end(sim::Which::Figures, a.seed, a.seconds))
        }
        ("sim_figures", true) => layers(sim::traced(sim::Which::Figures, a.seed, a.seconds)),
        ("sim_fanout", false) => {
            Outcome::EndToEnd(sim::end_to_end(sim::Which::Fanout, a.seed, a.seconds))
        }
        ("sim_fanout", true) => layers(sim::traced(sim::Which::Fanout, a.seed, a.seconds)),
        ("live_bulk", false) => {
            Outcome::EndToEnd(live::end_to_end(&live::BULK, a.seed, a.seconds)?)
        }
        ("live_bulk", true) => layers(live::bulk_traced(a.seed, a.seconds)?),
        ("live_stream", false) => {
            Outcome::EndToEnd(live::end_to_end(&live::STREAM, a.seed, a.seconds)?)
        }
        ("live_stream", true) => layers(live::stream_traced(a.seed, a.seconds)?),
        _ => unreachable!("parse_args admits only known workloads"),
    })
}

fn run_one(a: &Args) -> ExitCode {
    match run(a) {
        Ok(Outcome::EndToEnd(e)) => {
            let values = report::end_to_end_values(&e, sys::peak_rss_mb());
            println!("{}", report::result_line(e.tally, &values));
            ExitCode::SUCCESS
        }
        Ok(Outcome::Layers(mut l, tracer, tally)) => {
            l.set("harness.spans", tracer.spans.len() as f64);
            l.set("harness.failure_share", tally.failure_share());
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("trace-{}.json", a.workload));
            if let Err(e) = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, tracer.to_json(&a.workload)))
            {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "{}",
                report::result_line(tally, &report::per_layer_values(&l))
            );
            ExitCode::SUCCESS
        }
        Err(tally) => {
            // Could not run: no measurement exists, so no result line.
            eprintln!(
                "{}: failure_share = {} ({} of {} operations failed)",
                a.workload,
                tally.failure_share(),
                tally.failed,
                tally.attempted
            );
            ExitCode::FAILURE
        }
    }
}

/// One workload's result line, from a child process of this program.
struct ChildResult {
    tally: Tally,
    values: Vec<f64>,
}

/// Run `workload` in a child process and read its result line. The child
/// is waited for; a child that fails counts every operation as failed.
fn child(workload: &str, a: &Args, metrics: &[Metric]) -> ChildResult {
    let failed = ChildResult {
        tally: Tally {
            attempted: 1,
            failed: 1,
        },
        values: vec![0.0; metrics.len()],
    };
    let exe = std::env::current_exe().expect("path of this program");
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .output();
    let Ok(out) = out else { return failed };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let Some(v) = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
    else {
        return failed;
    };
    let count = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    ChildResult {
        tally: Tally {
            attempted: count("attempted"),
            failed: count("failed"),
        },
        values: metrics
            .iter()
            .map(|m| {
                v.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|e| e.get("value"))
                    .and_then(|x| x.as_f64())
                    .unwrap_or(0.0)
            })
            .collect(),
    }
}

fn pass(a: &Args, metrics: &[Metric]) -> Vec<ChildResult> {
    WORKLOADS
        .iter()
        .map(|w| {
            eprintln!("running {} ...", w.name);
            child(w.name, a, metrics)
        })
        .collect()
}

/// A markdown table: one row per metric, one column per workload.
fn print_table(metrics: &[Metric], results: &[ChildResult]) {
    println!(
        "| metric | unit | better | {} |",
        WORKLOADS.map(|w| w.name).join(" | ")
    );
    println!("|---|---|---|{}", "---:|".repeat(WORKLOADS.len()));
    for (i, m) in metrics.iter().enumerate() {
        let cells: Vec<String> = results
            .iter()
            .map(|r| format!("{:.6}", r.values[i]))
            .collect();
        println!(
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            cells.join(" | ")
        );
    }
    let shares: Vec<String> = results
        .iter()
        .map(|r| format!("{}/{}", r.tally.failed, r.tally.attempted))
        .collect();
    println!(
        "| failed/attempted | count | lower | {} |",
        shares.join(" | ")
    );
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

fn run_all(a: &Args) -> ExitCode {
    let metrics: &[Metric] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let first = pass(a, metrics);
    let mut ok = first
        .iter()
        .all(|r| r.tally.attempted > 0 && r.tally.failed == 0);
    println!(
        "seed {}, {} s per workload, {} run, {} cores\n",
        a.seed,
        a.seconds,
        if a.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for w in &WORKLOADS {
        println!("- `{}`: {}", w.name, w.why);
    }
    println!();
    print_table(metrics, &first);
    if a.aa {
        let second = pass(a, metrics);
        ok &= second
            .iter()
            .all(|r| r.tally.attempted > 0 && r.tally.failed == 0);
        println!("\nsecond pass, same build, same seed\n");
        print_table(metrics, &second);
        println!("\n| workload | metric | first | second | differ by | bound | verdict |");
        println!("|---|---|---:|---:|---:|---:|---|");
        for (w, (r1, r2)) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
            for (i, m) in metrics.iter().enumerate() {
                let (x, y) = (r1.values[i], r2.values[i]);
                let differ = worse_by(m, x, y).abs().max(worse_by(m, y, x).abs());
                let pass = differ <= m.bound;
                ok &= pass;
                println!(
                    "| {} | `{}` | {x:.6} | {y:.6} | {:.2} % | {:.0} % | {} |",
                    w.name,
                    m.name,
                    differ * 100.0,
                    m.bound * 100.0,
                    if pass { "ok" } else { "DIFFERS" }
                );
            }
        }
    }
    println!("\n{{\"claim\": null}}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = parse_args();
    if a.workload == "all" {
        run_all(&a)
    } else {
        run_one(&a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let goodput = &END_TO_END[0];
        assert_eq!(goodput.better, Better::Higher);
        assert!((worse_by(goodput, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(goodput, 100.0, 110.0) < 0.0);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!((worse_by(setup, 2.0, 2.5) - 0.25).abs() < 1e-12);
    }
}
