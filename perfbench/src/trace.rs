//! In-memory span recording for the traced run, and self-time accounting.
//!
//! Spans are taken by the benchmark around its calls into the program
//! (query execution, admission, input pulls, storage calls), kept in
//! memory, and written out once the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use histok_types::JsonValue;

/// One timed interval of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the interval covers (`query`, `admission_wait`, `storage.read`, …).
    pub name: &'static str,
    /// The query the work belongs to.
    pub query: u64,
    /// Unique span id.
    pub id: u64,
    /// The enclosing span on the same thread; `None` for roots and for
    /// work done on other threads on the query's behalf.
    pub parent: Option<u64>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// True when the duration is a *sum* of many short disjoint intervals
    /// inside the parent that overlap no sibling (per-row input pulls):
    /// `start_ns` is the first interval's start and `end_ns - start_ns`
    /// the total.
    pub summed: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("tracer mutex poisoned by a panicking thread").push(span);
    }

    /// Everything recorded so far, in recording order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self.spans.lock().expect("tracer mutex poisoned by a panicking thread"),
        )
    }
}

/// A span's self time: its duration minus the part of its interval its
/// children cover. Interval children are clipped to the parent and
/// merged where they overlap; `summed` children subtract their total.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .filter(|c| !c.summed)
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    let summed: u64 = children.iter().filter(|c| c.summed).map(|c| c.duration_ns()).sum();
    parent.duration_ns().saturating_sub(covered + summed)
}

/// Writes spans as JSON lines, one object per span with the fields of
/// [`Span`].
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let span = JsonValue::obj([
            ("name", JsonValue::from(s.name)),
            ("query", JsonValue::from(s.query)),
            ("id", JsonValue::from(s.id)),
            ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
            ("start_ns", JsonValue::from(s.start_ns)),
            ("end_ns", JsonValue::from(s.end_ns)),
            ("summed", JsonValue::Bool(s.summed)),
        ]);
        writeln!(out, "{}", span.to_json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "t", query: 1, id, parent, start_ns, end_ns, summed: false }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let root = span(1, None, 0, 100);
        let a = span(2, Some(1), 10, 20);
        let b = span(3, Some(1), 50, 80);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 60);
        assert_eq!(self_time_ns(&root, &[]), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        let root = span(1, None, 0, 100);
        let a = span(2, Some(1), 10, 40);
        let b = span(3, Some(1), 30, 60);
        let inside = span(4, Some(1), 35, 45);
        assert_eq!(self_time_ns(&root, &[&b, &a, &inside]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let root = span(1, None, 100, 200);
        let early = span(2, Some(1), 50, 120);
        let late = span(3, Some(1), 190, 400);
        let outside = span(4, Some(1), 300, 400);
        assert_eq!(self_time_ns(&root, &[&early, &late, &outside]), 70);
        let all = span(5, Some(1), 0, 1000);
        assert_eq!(self_time_ns(&root, &[&all]), 0);
    }

    #[test]
    fn summed_children_subtract_their_total() {
        let root = span(1, None, 0, 100);
        let io = span(2, Some(1), 60, 90);
        let pulls = Span { summed: true, ..span(3, Some(1), 5, 25) };
        assert_eq!(self_time_ns(&root, &[&io, &pulls]), 50);
    }

    #[test]
    fn tracer_collects_spans_from_threads() {
        let tracer = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let id = tracer.next_id();
                    tracer.record(span(id, None, 0, 1));
                });
            }
        });
        let mut ids: Vec<u64> = tracer.take().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert!(tracer.take().is_empty());
    }
}
