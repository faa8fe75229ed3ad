//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! *self time* is its duration minus the part of that interval its child
//! spans cover — the union of the children, not their sum, because
//! `wan_overlap` runs endpoint calls in parallel.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `parent == 0` marks a root; ids are 1-based indices
/// into the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `endpoint.select`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u32,
    /// Index of the `workload/pass/query` identifier shared by every span
    /// of one request.
    pub trace: u32,
    /// The count taken at the same boundary (rows returned, result rows).
    pub n: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe in-memory span log.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    traces: Mutex<Vec<String>>,
    /// The open span endpoint calls are attributed to, and its trace id.
    /// Solo workloads run one query at a time, so one slot is enough;
    /// `serve_open` leaves it 0 (concurrent requests cannot be told apart
    /// from outside the server).
    current: AtomicU32,
    current_trace: AtomicU32,
}

impl Recorder {
    /// An empty recorder whose trace id 0 is `unattributed`.
    pub fn new(unattributed: &str) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            traces: Mutex::new(vec![unattributed.to_string()]),
            current: AtomicU32::new(0),
            current_trace: AtomicU32::new(0),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Registers a `workload/pass/query` identifier.
    pub fn trace_id(&self, id: String) -> u32 {
        let mut traces = self.traces.lock().expect("trace table poisoned");
        traces.push(id);
        (traces.len() - 1) as u32
    }

    /// Opens a span now and returns its id; [`Recorder::close`] ends it.
    pub fn open(&self, name: &'static str, parent: u32, trace: u32) -> u32 {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace,
            n: 0,
        });
        spans.len() as u32
    }

    /// Ends span `id` now, attaching the count taken at its boundary.
    pub fn close(&self, id: u32, n: u64) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned");
        let span = &mut spans[id as usize - 1];
        span.end_ns = end_ns;
        span.n = n;
    }

    /// Makes `id` the span that endpoint calls are children of.
    pub fn set_current(&self, id: u32, trace: u32) {
        self.current.store(id, Ordering::SeqCst);
        self.current_trace.store(trace, Ordering::SeqCst);
    }

    /// Records a finished child of the current span (the endpoint wrapper's
    /// path: one lock, no open/close pair).
    pub fn record_child(&self, name: &'static str, start_ns: u64, end_ns: u64, n: u64) {
        let span = Span {
            name,
            start_ns,
            end_ns,
            parent: self.current.load(Ordering::SeqCst),
            trace: self.current_trace.load(Ordering::SeqCst),
            n,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let selfs = self_times(&spans);
        let traces = self.traces.lock().expect("trace table poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace_id\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"n\":{}}}",
                i + 1,
                span.parent,
                crate::json::escape(&traces[span.trace as usize]),
                span.name,
                span.start_ns,
                span.end_ns,
                self_ns,
                span.n
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of every span, in span order: duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != 0 {
            children[span.parent as usize - 1].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - union_ns(kids, span.start_ns, span.end_ns))
        .collect()
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
            trace: 0,
            n: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // root 0..100; children 10..40 and 30..60 overlap by 10, 70..80 is
        // apart; the grandchild 12..20 only reduces its own parent.
        let spans = vec![
            span("root", 0, 100, 0),
            span("a", 10, 40, 1),
            span("b", 30, 60, 1),
            span("c", 70, 80, 1),
            span("a.inner", 12, 20, 2),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60, 30 - 8, 30, 10, 8]);
    }

    #[test]
    fn sequential_children_make_self_times_sum_to_the_root() {
        let spans = vec![
            span("root", 0, 1000, 0),
            span("exec", 100, 900, 1),
            span("ask", 150, 250, 2),
            span("select", 300, 800, 2),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("root", 100, 200, 0), span("late", 150, 400, 1)];
        assert_eq!(self_times(&spans), vec![50, 250]);
    }

    #[test]
    fn recorder_links_children_to_the_current_span() {
        let rec = Recorder::new("w/-/-");
        let trace = rec.trace_id("w/0/Q1".into());
        let root = rec.open("query", 0, trace);
        rec.set_current(root, trace);
        let t = rec.now_ns();
        rec.record_child("endpoint.ask", t, t + 5, 1);
        rec.set_current(0, 0);
        rec.close(root, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].trace, trace);
        assert_eq!(spans[0].n, 7);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}
