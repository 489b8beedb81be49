//! The experiment runner. Every figure, matrix and sweep is a [`Set`]: a
//! function from the options to a list of [`Cell`]s, plus one projection
//! from the cells' seeded reports to printed text, JSON files and
//! invariant violations. The runner expands cells × seeds `1..=repeats`,
//! runs them all through one [`sweep::parallel_map`] pool per set, and
//! hands the reports back grouped per cell in input order, so a set's
//! output depends only on the set and its options, never on `--jobs`.

use std::time::{Duration, Instant};

use hrmc_app::Scenario;
use hrmc_sim::SimReport;
use serde_json::Value;

use crate::scalability::{fanout, fanout_cells, recovery, recovery_cells};
use crate::{churn, figures, hostile, sweep, ExpOptions};

/// One simulation configuration of a set, under the key its projection
/// places the result by: panel (`""` for one-table sets), column (series;
/// `""` when there is one) and row label. The runner overrides only the
/// scenario's seed.
#[derive(Debug, Clone)]
pub struct Cell {
    pub panel: &'static str,
    pub column: &'static str,
    pub row: String,
    pub scenario: Scenario,
}

impl Cell {
    /// A cell keyed `(panel, column, row)`.
    pub fn new(panel: &'static str, column: &'static str, row: String, scenario: Scenario) -> Cell {
        Cell {
            panel,
            column,
            row,
            scenario,
        }
    }
}

/// A cell with its reports (seeds `1..=repeats`, in order) and the
/// wall-clock time they took (informational: stderr only).
#[derive(Debug)]
pub struct Done {
    pub cell: Cell,
    pub runs: Vec<SimReport>,
    pub wall: Duration,
}

/// What a set's projection makes of its reports: stdout text, JSON
/// files as `(name, value)` for `<out>/<name>.json`, and invariant
/// violations (`"<row>: <reason>"`), any of which fails the set and
/// withholds its files.
#[derive(Debug, Default)]
pub struct Output {
    pub text: String,
    pub files: Vec<(&'static str, Value)>,
    pub violations: Vec<String>,
}

impl Output {
    /// Append a rendered table and its trailing blank line.
    pub fn table(&mut self, table: &crate::Table) {
        self.text.push_str(&table.render());
        self.text.push('\n');
    }
}

/// One experiment, named for `hrmc-exp`: its cells and the projection of
/// their reports (grouped per cell, in cell order). A `once` set runs
/// each cell at its own seed only, ignoring `--repeats`.
pub struct Set {
    pub name: &'static str,
    pub cells: fn(&ExpOptions) -> Vec<Cell>,
    pub project: fn(&ExpOptions, &[Done]) -> Output,
    pub once: bool,
}

/// Every set, in `hrmc-exp all` order followed by the two scalability
/// sweeps (which `all` leaves out).
pub const SETS: [Set; 11] = [
    set("fig03", figures::fig03_cells, figures::fig03),
    set("fig10", figures::fig10_cells, figures::fig10),
    set("fig11", figures::fig11_cells, figures::fig11),
    set("fig12", figures::fig12_cells, figures::fig12),
    set("fig13", figures::fig13_cells, figures::fig13),
    set("fig15", figures::fig15_cells, figures::fig15),
    set("fig16", figures::fig16_cells, figures::fig16),
    set("churn", churn::cells, churn::project),
    set("hostile", hostile::cells, hostile::project),
    set("recovery", recovery_cells, recovery),
    Set {
        once: true,
        ..set("fanout", fanout_cells, fanout)
    },
];

const fn set(
    name: &'static str,
    cells: fn(&ExpOptions) -> Vec<Cell>,
    project: fn(&ExpOptions, &[Done]) -> Output,
) -> Set {
    Set {
        name,
        cells,
        project,
        once: false,
    }
}

/// The sets `hrmc-exp all` runs: every set but the two scalability
/// sweeps at the end.
pub fn all() -> &'static [Set] {
    &SETS[..SETS.len() - 2]
}

/// The set called `name`.
pub fn find(name: &str) -> Option<&'static Set> {
    SETS.iter().find(|s| s.name == name)
}

/// Run every cell at seeds `1..=repeats` over one pool of `jobs`
/// workers; reports come back grouped per cell, in cell order.
pub fn run_cells(cells: Vec<Cell>, repeats: u64, jobs: usize) -> Vec<Done> {
    let work: Vec<(usize, u64)> = (0..cells.len())
        .flat_map(|i| (1..=repeats).map(move |seed| (i, seed)))
        .collect();
    let runs = sweep::parallel_map(&work, jobs, |&(i, seed)| {
        let started = Instant::now();
        let report = cells[i].scenario.clone().with_seed(seed).run();
        (report, started.elapsed())
    });
    let mut runs = runs.into_iter();
    cells
        .into_iter()
        .map(|cell| {
            let (runs, walls): (Vec<_>, Vec<Duration>) =
                runs.by_ref().take(repeats as usize).unzip();
            Done {
                cell,
                runs,
                wall: walls.iter().sum(),
            }
        })
        .collect()
}

/// Run one set and project its reports.
pub fn run_set(set: &Set, opts: &ExpOptions) -> Output {
    let repeats = if set.once { 1 } else { opts.repeats };
    (set.project)(opts, &run_cells((set.cells)(opts), repeats, opts.jobs))
}

/// Run one set and emit it: its text on stdout, one `FAIL <set>/<row>:
/// <reason>` line on stderr per violation, and its JSON files under
/// `--out` only if there was none. Returns whether the set passed.
pub fn execute(set: &Set, opts: &ExpOptions) -> bool {
    let out = run_set(set, opts);
    print!("{}", out.text);
    for v in &out.violations {
        eprintln!("FAIL {}/{v}", set.name);
    }
    if !out.violations.is_empty() {
        return false;
    }
    for (name, value) in &out.files {
        if let Err(e) = opts.save_json(name, value) {
            eprintln!("FAIL {}: cannot write {name}.json: {e}", set.name);
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every set at test scale writes the same stdout, JSON and
    /// violations with one worker as with four.
    #[test]
    fn every_set_is_jobs_invariant() {
        let opts = |jobs| ExpOptions {
            repeats: 1,
            scale_down: 1000,
            receivers: Some(2),
            jobs,
            ..ExpOptions::default()
        };
        for set in &SETS {
            let (a, b) = (run_set(set, &opts(1)), run_set(set, &opts(4)));
            assert_eq!(a.text, b.text, "{}: stdout depends on --jobs", set.name);
            assert_eq!(a.violations, b.violations, "{}", set.name);
            let json = |o: &Output| {
                o.files
                    .iter()
                    .map(|(n, v)| (*n, serde_json::to_string_pretty(v).unwrap()))
                    .collect::<Vec<_>>()
            };
            assert!(!a.files.is_empty(), "{}: no JSON", set.name);
            assert_eq!(json(&a), json(&b), "{}: JSON depends on --jobs", set.name);
        }
    }
}
