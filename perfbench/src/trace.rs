//! In-memory spans recorded by the benchmark around calls into the
//! program's layers, written out as JSONL when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Simulated tick the span belongs to, where there is one.
    pub tick: Option<u64>,
    /// Recording thread (0 = the benchmark's main thread).
    pub thread: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread. Spans nest by a stack: a span begun
/// while another is open becomes its child.
pub struct Trace {
    epoch: Instant,
    thread: u32,
    /// Parent given to spans begun with an empty stack (a worker's spans
    /// hang under the span that spawned it).
    root: Option<usize>,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    tick: Option<u64>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            thread: 0,
            root: None,
            spans: Vec::new(),
            open: Vec::new(),
            tick: None,
        }
    }

    /// A recorder for worker `thread`, sharing this trace's epoch; its
    /// top-level spans become children of the innermost open span here.
    /// Fold it back with [`Trace::merge`].
    pub fn worker(&self, thread: u32) -> Trace {
        Trace {
            epoch: self.epoch,
            thread,
            root: self.open.last().copied(),
            spans: Vec::new(),
            open: Vec::new(),
            tick: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags spans begun from now on with simulated tick `tick`.
    pub fn set_tick(&mut self, tick: Option<u64>) {
        self.tick = tick;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            tick: self.tick,
            thread: self.thread,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Appends a finished worker trace, renumbering its parent links.
    pub fn merge(&mut self, worker: Trace) {
        assert!(worker.open.is_empty(), "worker trace has open spans");
        let base = self.spans.len();
        self.spans.extend(worker.spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => worker.root,
            };
            s
        }));
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Sum of the durations of spans named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur_ns)
            .sum()
    }

    /// Appends every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, pass: &str, out: &mut String) {
        let selfs = self_times(&self.spans);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"tick\":{},\"thread\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.tick),
                s.thread,
                selfs[i],
            );
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children on other
/// threads may overlap each other; overlap is counted once.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            tick: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("tick", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let spans = [
            span("prefetch", 100, 200, None),
            span("task", 100, 180, Some(0)),
            span("task", 150, 200, Some(0)),
            // A child that outlives its parent only covers the overlap.
            span("late", 190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let spans = [
            span("p", 0, 100, None),
            span("c", 20, 40, Some(0)),
            span("c", 30, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn nesting_and_worker_merge_keep_parent_links() {
        let mut t = Trace::new();
        let outer = t.begin("outer");
        let mut w = t.worker(1);
        w.time("task", || ());
        let inner = w.begin("task2");
        w.time("task2.child", || ());
        w.end(inner);
        t.time("inline", || ());
        t.end(outer);
        t.merge(w);
        let by = |n: &str| t.spans().iter().position(|s| s.name == n).unwrap();
        let s = t.spans();
        assert_eq!(s[by("inline")].parent, Some(outer));
        assert_eq!(s[by("task")].parent, Some(outer));
        assert_eq!(s[by("task2")].parent, Some(outer));
        assert_eq!(s[by("task2.child")].parent, Some(by("task2")));
        assert_eq!(s[by("task")].thread, 1);
    }
}
