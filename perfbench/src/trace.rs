//! The traced run's span recorder.
//!
//! The benchmark wraps each call it makes into a layer of the library in a
//! span: name, start, end, parent span and request id.  Spans stay in memory
//! until the run ends and are then written out as JSON lines, followed by
//! one summary line per span name with its total and self time.  A span's
//! self time is its duration minus the part of it covered by its children.
//! Phases and counters the library reports itself (the `JoinMetrics` of
//! joins, builds and probes; compactions seen through `DeltaStats`) are
//! attached to the matching span as attributes.
//!
//! [`Tracer::off`] records nothing, so untraced code paths run the same
//! calls with only a branch added.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one span within a run.
pub type SpanId = u32;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(String, f64)>,
}

/// Per-name totals over a run's spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

thread_local! {
    /// The open spans of this thread, innermost last: a new span's default
    /// parent.
    static OPEN: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether this tracer records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span whose parent is this thread's innermost open span.
    pub fn open(&self, name: &'static str, request: u64) -> Guard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.open_under(parent, name, request)
    }

    /// Opens a span under an explicit parent, for work that continues a
    /// request on another thread.
    pub fn open_under(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        request: u64,
    ) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: None,
                parent,
                name,
                request,
                start: None,
                attrs: Vec::new(),
            };
        }
        // ORDERING: Relaxed — ids only need to be unique, nothing is
        // published through this counter.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        Guard {
            tracer: self,
            id: Some(id),
            parent,
            name,
            request,
            start: Some(Instant::now()),
            attrs: Vec::new(),
        }
    }

    /// Takes every span recorded so far, in closing order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// An open span; it closes, and is recorded, when dropped.
#[derive(Debug)]
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: Option<SpanId>,
    parent: Option<SpanId>,
    name: &'static str,
    request: u64,
    start: Option<Instant>,
    attrs: Vec<(String, f64)>,
}

impl Guard<'_> {
    /// This span's id (`None` when the tracer is off).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// Attaches a phase time or counter the library reported for this call.
    pub fn attr(&mut self, key: impl Into<String>, value: f64) {
        if self.id.is_some() {
            self.attrs.push((key.into(), value));
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let (Some(id), Some(start)) = (self.id, self.start) else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&o| o == id) {
                open.remove(pos);
            }
        });
        let span = Span {
            id,
            parent: self.parent,
            name: self.name,
            request: self.request,
            start_ns: self.tracer.nanos(start),
            end_ns: self.tracer.nanos(end),
            attrs: std::mem::take(&mut self.attrs),
        };
        // A poisoned log only means another thread panicked mid-push; the
        // run fails on that panic anyway, so dropping this span is fine and
        // a Drop must not panic.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Count, total time and self time per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for span in spans {
        let total = span.end_ns.saturating_sub(span.start_ns);
        let covered = children
            .get(&span.id)
            .map_or(0, |c| covered_ns(span.start_ns, span.end_ns, c));
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered.min(total);
    }
    out
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Writes every span as one JSON line, then one summary line per name.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let mut attrs = String::new();
        for (i, (key, value)) in span.attrs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(attrs, "{sep}\"{key}\":{}", crate::report::number(*value));
        }
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"attrs\":{{{attrs}}}}}",
            span.id, span.name, span.request, span.start_ns, span.end_ns
        )?;
    }
    for (name, s) in summarize(spans) {
        writeln!(
            out,
            "{{\"summary\":\"{name}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
            s.count,
            s.total_ns as f64 * 1e-9,
            s.self_ns as f64 * 1e-9
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start_ns: start,
            end_ns: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "run", 0, 100),
            span(1, Some(0), "child", 10, 30),
            span(2, Some(0), "child", 20, 50),
            span(3, Some(0), "child", 60, 70),
            span(4, Some(3), "grandchild", 60, 65),
        ];
        let summary = summarize(&spans);
        assert_eq!(summary["run"].self_ns, 50);
        assert_eq!(summary["run"].total_ns, 100);
        assert_eq!(summary["child"].count, 3);
        assert_eq!(summary["child"].self_ns, 20 + 30 + 5);
        assert_eq!(summary["grandchild"].self_ns, 5);
    }

    #[test]
    fn nesting_follows_the_thread_and_off_records_nothing() {
        let tracer = Tracer::on();
        {
            let outer = tracer.open("outer", 1);
            let outer_id = outer.id();
            {
                let mut inner = tracer.open("inner", 2);
                inner.attr("dists", 3.0);
            }
            std::thread::scope(|scope| {
                scope.spawn(|| drop(tracer.open_under(outer_id, "remote", 3)));
            });
        }
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        for name in ["inner", "remote"] {
            let child = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(child.parent, Some(outer.id));
        }
        assert_eq!(
            spans
                .iter()
                .find(|s| s.name == "inner")
                .unwrap()
                .attrs
                .len(),
            1
        );

        let off = Tracer::off();
        drop(off.open("x", 0));
        assert!(off.take().is_empty());
    }
}
