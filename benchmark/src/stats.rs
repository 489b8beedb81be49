//! Medians and percentiles, with the rule for how far into the tail a
//! sample of a given size may be read.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The best of `values`: the largest when higher is better, else the
/// smallest.
///
/// Used for times of repeated, equal-sized pieces of work. The sandbox's
/// memory system slows by up to 40 % for seconds at a time (the same
/// 16 MiB transfer takes 65 ms or 100 ms; a loop that only computes does
/// not see it, a loop that copies does) and never speeds up. The median
/// piece of a run can lie wholly inside such a phase; the best piece does
/// only when the entire run was slow.
pub fn best(values: impl IntoIterator<Item = f64>, higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.into_iter().reduce(pick).expect("best of nothing")
}

/// Percentiles a report may quote, in per mille (whole numbers, so the
/// "ten beyond" rule is exact), lowest first.
const LADDER: [usize; 4] = [500, 900, 990, 999];

/// Nearest rank of the `permille` percentile among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it, or `None` when even the median has not.
pub fn highest_supported_percentile(n: usize) -> Option<usize> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pm| n >= 10 && n - rank(n, pm) >= 10)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[u64], permille: usize) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    sorted[rank(sorted.len(), permille) - 1]
}

/// The median and tail of a latency sample. The tail is the 99th
/// percentile when the sample supports it and the highest supported
/// percentile otherwise, which is returned so the report can say so.
pub struct Latency {
    pub samples: usize,
    pub p50: u64,
    pub tail: u64,
    /// Per mille: 990 is the 99th percentile.
    pub tail_permille: usize,
}

/// Samples per window of [`windowed_latency`]: enough for a 99th
/// percentile with ten samples beyond it.
pub const WINDOW: usize = 1024;

/// Latency percentiles that one stall cannot move: the samples, in the
/// order they were taken, are cut into windows of [`WINDOW`]; each window
/// gives its own median and tail, and the median window is reported. A
/// 100 ms stall in a 12 s run then costs one window, not the run's tail.
/// Fewer samples than two windows are treated as one window.
pub fn windowed_latency(samples: &[u64]) -> Latency {
    assert!(!samples.is_empty(), "latency of nothing");
    if samples.len() < 2 * WINDOW {
        return latency(samples.to_vec());
    }
    let windows: Vec<Latency> = samples
        .chunks_exact(WINDOW)
        .map(|w| latency(w.to_vec()))
        .collect();
    let mid = |f: fn(&Latency) -> u64| median(windows.iter().map(|w| f(w) as f64)).round() as u64;
    Latency {
        samples: samples.len(),
        p50: mid(|w| w.p50),
        tail: mid(|w| w.tail),
        tail_permille: windows[0].tail_permille,
    }
}

pub fn latency(mut samples: Vec<u64>) -> Latency {
    assert!(!samples.is_empty(), "latency of nothing");
    samples.sort_unstable();
    let tail_permille = highest_supported_percentile(samples.len())
        .unwrap_or(500)
        .min(990);
    Latency {
        samples: samples.len(),
        p50: percentile_sorted(&samples, 500),
        tail: percentile_sorted(&samples, tail_permille),
        tail_permille,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_follows_the_direction() {
        assert_eq!(best([2.0, 9.0, 4.0], true), 9.0);
        assert_eq!(best([2.0, 9.0, 4.0], false), 2.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(500));
        assert_eq!(highest_supported_percentile(99), Some(500));
        assert_eq!(highest_supported_percentile(100), Some(900));
        assert_eq!(highest_supported_percentile(999), Some(900));
        assert_eq!(highest_supported_percentile(1_000), Some(990));
        assert_eq!(highest_supported_percentile(9_999), Some(990));
        assert_eq!(highest_supported_percentile(10_000), Some(999));
        assert_eq!(highest_supported_percentile(30_000), Some(999));
    }

    #[test]
    fn one_stall_does_not_move_the_windowed_tail() {
        // Ten windows of steady 100..=1123 µs, one of them stalled.
        let mut samples: Vec<u64> = Vec::new();
        for w in 0..10u64 {
            for i in 0..WINDOW as u64 {
                samples.push(if w == 4 { 500_000 + i } else { 100 + i });
            }
        }
        let win = windowed_latency(&samples);
        assert_eq!((win.p50, win.tail, win.tail_permille), (611, 1113, 990));
        let pooled = latency(samples);
        assert!(pooled.tail > 500_000, "pooled, the stall owns the tail");
    }

    #[test]
    fn latency_quotes_p99_only_when_supported() {
        let big = latency((1..=2_000).collect());
        assert_eq!((big.p50, big.tail, big.tail_permille), (1_000, 1_980, 990));
        let small = latency((1..=200).collect());
        assert_eq!((small.tail, small.tail_permille), (180, 900));
    }
}
