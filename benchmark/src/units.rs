//! Repeating a unit of work for the length of a run: shared by the three
//! model workloads.

use std::time::Instant;

use crate::gen;
use crate::stats::best;
use crate::trace::Tracer;

/// Run `unit` again and again, each time on its own lane of `seed`, until
/// `seconds` have passed; at least three times. With `alternate` set, the
/// tracer is off for even units and on for odd ones, so that traced and
/// untraced units see the same machine.
pub fn repeat<U>(
    seed: u64,
    seconds: f64,
    alternate: bool,
    tr: &mut Tracer,
    mut unit: impl FnMut(u64, &mut Tracer) -> U,
) -> Vec<U> {
    let t0 = Instant::now();
    let mut units = Vec::new();
    while units.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        if alternate {
            tr.set_enabled(units.len() % 2 == 1);
        }
        tr.set_run(units.len() as u32);
        units.push(unit(lane(seed, units.len()), tr));
    }
    if alternate {
        tr.set_enabled(true);
    }
    units
}

/// The seed of unit `index` of a run seeded `seed`.
pub fn lane(seed: u64, index: usize) -> u64 {
    gen::derive(seed, 0x100 + index as u64)
}

/// Tracing overhead in per cent from the costs of units run by
/// [`repeat`] with `alternate` set: best traced ÷ best untraced − 1.
pub fn trace_overhead_pct(costs: &[f64]) -> f64 {
    let side = |odd: usize| costs.iter().copied().skip(odd).step_by(2);
    (best(side(1), false) / best(side(0), false) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_units_are_the_traced_ones() {
        let mut tr = Tracer::new(true, Instant::now());
        let seen = repeat(9, 0.0, true, &mut tr, |lane, tr| {
            tr.enter("unit");
            tr.exit();
            lane
        });
        assert_eq!(seen, [lane(9, 0), lane(9, 1), lane(9, 2)]);
        assert_eq!(tr.spans.len(), 1, "only unit 1 was traced");
        assert_eq!(tr.spans[0].run, 1);
        // Untraced 10 and 12, traced 11 and 13: best against best.
        let pct = trace_overhead_pct(&[10.0, 13.0, 12.0, 11.0]);
        assert!((pct - 10.0).abs() < 1e-9);
    }
}
