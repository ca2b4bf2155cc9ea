//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (the layer function called), start and end, the
//! span that caused it, and the operation id shared by every span of
//! one request. Spans stay in memory during the run and are written
//! out when it ends. A span's self time is its duration minus the part
//! of its interval that its children cover.
//!
//! Every span, stored or not, also lands in its name's running totals
//! (count, summed time, latency histogram), so per-layer figures cover
//! the whole traced phase however long it runs; the storage cap only
//! bounds the span file.

use crate::measure::Hist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// Spans one tracer stores for the span file; later spans still count
/// in their name's totals, so a long traced run cannot grow memory
/// without bound yet measures every span.
const CAP: usize = 400_000;

/// Index of a span in its tracer (`NONE` when it was not stored).
pub type SpanId = usize;

const NONE: SpanId = usize::MAX;

/// One recorded span; times are ns since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call, e.g. `chip.shard.run_refs`.
    pub name: &'static str,
    /// Operation (request) id shared by all spans of one request.
    pub op: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Running figures of every span of one name.
#[derive(Debug, Clone, Default)]
struct Totals {
    /// Spans seen.
    count: u64,
    /// Their summed duration, ns.
    ns: u64,
    /// Their durations, ns.
    hist: Hist,
}

impl Totals {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
        self.hist.add(ns);
    }

    fn merge(&mut self, other: &Totals) {
        self.count += other.count;
        self.ns += other.ns;
        self.hist.merge(&other.hist);
    }
}

/// A span opened with [`Tracer::open`], to be closed with
/// [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    start: Instant,
    id: SpanId,
}

impl Open {
    /// The span's id, to name it as a parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    /// Totals by span name (a handful of names, so a list).
    totals: Vec<(&'static str, Totals)>,
}

impl Tracer {
    /// A recorder whose times count from `epoch` (share one epoch
    /// across threads so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    fn tally(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = crate::measure::nanos(end.saturating_duration_since(start));
        match self.totals.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => t.add(ns),
            None => {
                let mut t = Totals::default();
                t.add(ns);
                self.totals.push((name, t));
            }
        }
    }

    fn at(&self, t: Instant) -> u64 {
        crate::measure::nanos(t.saturating_duration_since(self.epoch))
    }

    /// Records a finished span from its two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.tally(name, start, end);
        self.store(name, op, parent, start, end)
    }

    /// Stores a span for the span file, if there is room.
    fn store(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if self.spans.len() >= CAP {
            self.dropped += 1;
            return NONE;
        }
        let span = Span {
            name,
            op,
            parent: parent.filter(|&p| p != NONE),
            start: self.at(start),
            end: self.at(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Open {
        let start = Instant::now();
        let id = self.store(name, op, parent, start, start);
        Open { name, start, id }
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, open: Open) {
        let end = Instant::now();
        self.tally(open.name, open.start, end);
        if open.id != NONE {
            self.spans[open.id].end = self.at(end);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }
}

/// Spans of several tracers, with self times computed, and the
/// totals of every span by name.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl Trace {
    /// Merges tracers; parent links are re-based into the merged list.
    pub fn merge(tracers: Vec<Tracer>) -> Self {
        let mut spans = Vec::new();
        let mut dropped = 0;
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for t in tracers {
            let base = spans.len();
            dropped += t.dropped;
            for (name, tot) in &t.totals {
                totals.entry(name).or_default().merge(tot);
            }
            spans.extend(t.spans.into_iter().map(|s| Span {
                parent: s.parent.map(|p| p + base),
                ..s
            }));
        }
        let self_ns = self_times(&spans);
        Trace {
            spans,
            self_ns,
            dropped,
            totals,
        }
    }

    /// Median duration of every span called `name`, stored or not, in
    /// µs; 0 if there was none.
    pub fn p50_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.hist.percentile(50.0) / 1e3)
    }

    /// Total duration of every span called `name`, stored or not,
    /// divided by `per`, in µs.
    pub fn per_op_us(&self, name: &str, per: u64) -> f64 {
        self.totals.get(name).map_or(0, |t| t.ns) as f64 / per.max(1) as f64 / 1e3
    }

    /// Spans called `name`, stored or not.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.count)
    }

    /// Per-name count and total self time (ns) of the stored spans,
    /// sorted by name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&self.self_ns) {
            let e = by.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += own;
        }
        by
    }

    /// Spans that were counted but not stored.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every span as a tab-separated line: id, parent (-1 for
    /// a root), op, name, start ns, end ns, self ns.
    ///
    /// # Errors
    ///
    /// I/O errors writing `path`.
    pub fn write(&self, path: &Path, header: &str) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        let _ = writeln!(out, "# {header}");
        let _ = writeln!(out, "# id\tparent\top\tname\tstart_ns\tend_ns\tself_ns");
        for (i, (s, own)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.op, s.name, s.start, s.end
            );
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent's own interval).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let epoch = Instant::now();
        let at = |ns| epoch + Duration::from_nanos(ns);
        let mut t = Tracer::new(epoch);
        let root = t.record("root", 1, None, at(0), at(100));
        t.record("a", 1, Some(root), at(10), at(30));
        t.record("b", 1, Some(root), at(20), at(50)); // overlaps a
        t.record("c", 1, Some(root), at(90), at(120)); // runs past root
        let trace = Trace::merge(vec![t]);
        assert_eq!(trace.self_ns, vec![100 - 40 - 10, 20, 30, 30]);
    }

    #[test]
    fn figures_count_spans_past_the_storage_cap() {
        let epoch = Instant::now();
        let at = |ns| epoch + Duration::from_nanos(ns);
        let mut t = Tracer::new(epoch);
        // CAP short spans fill the store; twice as many long ones
        // after them are not stored but must still count.
        for _ in 0..CAP {
            t.record("a", 0, None, at(0), at(100));
        }
        for _ in 0..2 * CAP {
            t.record("a", 0, None, at(0), at(300));
        }
        let open = t.open("b", 0, None);
        t.close(open);
        let trace = Trace::merge(vec![t]);
        assert_eq!(trace.dropped(), 2 * CAP as u64 + 1);
        assert_eq!(trace.count("a"), 3 * CAP as u64);
        assert_eq!(trace.count("b"), 1);
        let per_op = trace.per_op_us("a", 3 * CAP as u64);
        assert!((per_op - 0.7 / 3.0).abs() < 1e-9, "per_op_us {per_op}");
        let p50 = trace.p50_us("a");
        assert!((p50 - 0.3).abs() / 0.3 < 0.016, "p50_us {p50}");
    }
}
