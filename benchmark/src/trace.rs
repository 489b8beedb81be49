//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span is `(name, start, end, parent, run)`. Spans nest strictly per
//! thread (each thread owns a [`Tracer`]), so a layer's self time is its
//! span's duration minus its children's. Counts are recorded beside the
//! spans, at the same boundaries, so ratios are taken where the work
//! happens. A disabled tracer reads no clock and stores nothing: that is
//! the untraced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Which unit, rung or segment of the run this span belongs to.
    pub run: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    open: Vec<u32>,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// All tracers of one process share `epoch`, so spans from different
    /// threads lie on one time axis.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switch recording on or off between units (never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle tracing only between spans");
        self.on = on;
    }

    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: self.run,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Add to a count. Counts cover what the spans cover: a disabled
    /// tracer keeps neither.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Fold another thread's tracer into this one, re-basing its parent
    /// links.
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "merge only closed tracers");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    /// Self time per span name, in nanoseconds, with the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        self_times(&self.spans)
    }

    /// Total (not self) nanoseconds and number of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.end_ns - s.start_ns, n + 1))
    }

    /// Self nanoseconds of `name` (0 when it never ran).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_times().get(name).map_or(0, |&(ns, _)| ns)
    }

    /// The spans and counts as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut ids: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &self.spans {
            ids.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
        }
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"names\":[");
        for (i, n) in names.iter().enumerate() {
            let _ = write!(out, "{}\"{n}\"", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\"self_ns\":{");
        for (i, (k, (ns, n))) in self.self_times().iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{k}\":{{\"self_ns\":{ns},\"spans\":{n}}}",
                if i > 0 { "," } else { "" }
            );
        }
        // One row per span: [name index, start ns, end ns, parent, run];
        // parent -1 marks a root.
        out.push_str("},\"span_columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"run\"],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "[{},{},{},{parent},{}]{}",
                ids[s.name],
                s.start_ns,
                s.end_ns,
                s.run,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time per name: each span's duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 holds a 10..40 and b 50..70; a holds c 20..30.
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("c", 20, 30, 1),
            span("b", 50, 70, 0),
            span("a", 80, 90, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (100 - 30 - 20 - 10, 1));
        assert_eq!(t["a"], (30 - 10 + 10, 2));
        assert_eq!(t["c"], (10, 1));
        assert_eq!(t["b"], (20, 1));
        // Self times partition the root exactly.
        let total: u64 = t.values().map(|&(ns, _)| ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.enter("x");
        t.count("pkts", 3);
        t.exit();
        assert!(t.spans.is_empty());
        assert_eq!(t.get("pkts"), 0);
        t.set_enabled(true);
        t.count("pkts", 3);
        assert_eq!(t.get("pkts"), 3);
    }

    #[test]
    fn nesting_and_merge_keep_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.enter("outer");
        a.enter("inner");
        a.exit();
        a.exit();
        let mut b = Tracer::new(true, epoch);
        b.enter("other");
        b.enter("leaf");
        b.exit();
        b.exit();
        a.merge(b);
        assert_eq!(a.spans[1].parent, 0);
        assert_eq!(a.spans[2].parent, NO_PARENT);
        assert_eq!(a.spans[3].parent, 2);
        assert!(a
            .to_json("w")
            .contains("\"names\":[\"outer\",\"inner\",\"other\",\"leaf\"]"));
    }
}
