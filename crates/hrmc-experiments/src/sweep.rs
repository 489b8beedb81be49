//! Parallel sweep pool. Every simulation run is an isolated, seeded,
//! deterministic function of its parameters, so workers claim items from
//! a shared index and write each result into its input's slot: the
//! collected `Vec` is in input order and byte-identical to a sequential
//! sweep at any worker count.

use hrmc_app::Scenario;
use hrmc_sim::SimReport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count to use when the user did not pick one: the machine's
/// available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Apply `f` to every item on up to `jobs` worker threads and collect
/// the results **in input order**. `jobs <= 1` (or a single item) runs
/// inline with no threads spawned. A panicking `f` propagates, as it
/// would sequentially.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let workers = jobs.min(items.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().unwrap() = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// Run `repeats` seeded copies of `scenario` (seeds `1..=repeats`, the
/// same seeds the sequential [`Scenario::run_seeds`] uses) across `jobs`
/// workers; reports come back ordered by seed.
pub fn run_seeds(scenario: &Scenario, repeats: u64, jobs: usize) -> Vec<SimReport> {
    let seeded: Vec<Scenario> = (1..=repeats)
        .map(|seed| scenario.clone().with_seed(seed))
        .collect();
    parallel_map(&seeded, jobs, Scenario::run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..37).collect();
        let got = parallel_map(&items, 8, |&x| x * x);
        assert_eq!(got, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_sweep_matches_sequential_byte_for_byte() {
        let s = hrmc_app::Scenario::lan(2, 10_000_000, 128 * 1024, 200_000).with_loss(0.01);
        let sequential = s.run_seeds(3);
        let parallel = run_seeds(&s, 3, 4);
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "parallel sweep must reproduce the sequential reports exactly"
            );
        }
    }
}
