//! # hrmc-experiments
//!
//! Regeneration of every table and figure in the paper's evaluation
//! (§5), plus the robustness and scalability sweeps, through the
//! simulator. Each experiment is a [`runner::Set`]: a list of cells (a
//! key plus a [`hrmc_app::Scenario`]) and one projection from the cells'
//! seeded reports to printed tables, JSON files and invariant
//! violations. One binary, `hrmc-exp`, runs any of them (its docs list
//! the flags):
//!
//! ```sh
//! cargo run --release -p hrmc-experiments --bin hrmc-exp -- all --repeats 3
//! ```
//!
//! Absolute numbers are not expected to match the 1999 testbed — the
//! substrate here is the paper's own simulator model, re-implemented —
//! but the *shapes* are: who wins, by roughly what factor, and where the
//! knees fall. `EXPERIMENTS.md` records paper-vs-measured for each id.

pub mod analyze;
pub mod churn;
mod figures;
pub mod hostile;
pub mod options;
pub mod runner;
mod scalability;
pub mod sweep;
pub mod table;

pub use options::ExpOptions;
pub use table::Table;

/// The paper's kernel-buffer sweep: 64 K – 1024 K (Figure 13 extends it
/// to 4096 K).
pub const BUFFERS: [usize; 5] = [64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024];

/// 10 Mbps.
pub const MBPS_10: u64 = 10_000_000;

/// 100 Mbps.
pub const MBPS_100: u64 = 100_000_000;

/// 10 MB transfer (the paper's small file).
pub const MB_10: u64 = 10_000_000;

/// 40 MB transfer (the paper's large file).
pub const MB_40: u64 = 40_000_000;

/// Label for a buffer size, paper-style ("64K", "1024K").
pub fn buf_label(bytes: usize) -> String {
    format!("{}K", bytes / 1024)
}

/// Mean of `f` over a cell's seeded runs.
pub fn avg(runs: &[hrmc_sim::SimReport], f: impl Fn(&hrmc_sim::SimReport) -> f64) -> f64 {
    hrmc_app::mean(&runs.iter().map(f).collect::<Vec<_>>())
}
