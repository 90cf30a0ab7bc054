//! Span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (name, start, end, parent span, workload), kept in memory, and
//! written out as JSON lines when the run ends. A span's **self time** is
//! its duration minus the part of its interval covered by its children.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are ns since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `parser.parse`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (`start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// In-memory span recorder. A disabled tracer records nothing and costs
/// one branch per call, so untraced runs share the code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let t = self.now();
        let id = self.spans.len();
        self.spans.push(Span { name, start: t, end: t, parent: self.open.last().copied() });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and any span opened inside it and left open).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let t = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = t;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{workload}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}}}",
                s.name, s.start, s.end, selfs[i]
            )?;
        }
        f.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
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
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Total self time and span count per name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_children_on_a_synthetic_tree() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90);
        // b ⊃ b1 [50,60) and an overlapping b2 [55,70) (union 20).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
            span("b1", 50, 60, Some(3)),
            span("b2", 55, 70, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 20, 10, 15]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["root"], (30, 1));
        // Without overlapping siblings, self times add up to the root.
        assert_eq!(self_times(&spans[..5]).iter().sum::<u64>(), 100);
    }

    #[test]
    fn child_clipped_to_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let x = t.span("inner", || 7);
        t.exit(outer);
        assert_eq!(x, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);

        let mut off = Tracer::new(false);
        let id = off.enter("x");
        off.exit(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let _leaked = t.enter("leaked");
        t.exit(outer);
        assert!(t.spans().iter().all(|s| s.end >= s.start));
        let inner = t.enter("after");
        t.exit(inner);
        assert_eq!(t.spans()[2].parent, None, "stack unwound past the leaked span");
    }
}
