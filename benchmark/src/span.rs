//! Outside-in tracing: spans recorded by the benchmark around each call
//! into a layer of the program. Nothing inside the program is
//! instrumented. Coarse calls are individual spans with a parent;
//! per-packet and per-cycle calls go into [`LogHist`]s, so memory is
//! bounded by the number of distinct call sites, not by the run length.
//! Spans are kept in memory and serialised once, at exit, as
//! Chrome-trace JSON (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{Map, Value};

use crate::stats::LogHist;

/// One closed or open interval on the benchmark's single thread.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to
/// [`Tracer::end`]. `None` inside when tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

/// Span and histogram recorder. With tracing off every method is a
/// branch on one bool, so the untraced reps time the program and
/// nothing else.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    hists: BTreeMap<&'static str, LogHist>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            hists: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`. Spans close in LIFO order (one thread, lexical
    /// nesting), which is what makes `parent` well defined.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost-first");
        self.stack.pop();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Adds one duration sample to the histogram `name`.
    pub fn record(&mut self, name: &'static str, ns: u64) {
        if self.on {
            self.hists.entry(name).or_default().record(ns);
        }
    }

    pub fn hist(&self, name: &str) -> Option<&LogHist> {
        self.hists.get(name)
    }

    /// Total busy nanoseconds recorded under histogram `name`.
    pub fn hist_sum_ns(&self, name: &str) -> u64 {
        self.hist(name).map_or(0, |h| h.sum_ns)
    }

    /// Sum of the durations of every span called `name`.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Durations (ns) of every span called `name`, in start order.
    pub fn span_durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Per-name totals: `(calls, total ns, self ns)` where self time is
    /// a span's duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Chrome-trace events for this tracer: one complete (`"ph":"X"`)
    /// event per span, `pid` = the workload's id (all spans of one
    /// workload share it), `args.parent` = the causing span's id, plus
    /// one metadata event naming the process after the workload.
    /// Timestamps are microseconds. At most `max_spans` spans are
    /// exported — the first ones, so parents precede children; totals
    /// and self times always cover every span.
    pub fn chrome_events(&self, workload: &str, pid: u64, max_spans: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.spans.len().min(max_spans) + 1);
        let mut meta = Map::new();
        meta.insert("name".into(), Value::String("process_name".into()));
        meta.insert("ph".into(), Value::String("M".into()));
        meta.insert("pid".into(), Value::U64(pid));
        let mut args = Map::new();
        args.insert("name".into(), Value::String(workload.into()));
        meta.insert("args".into(), Value::Object(args));
        out.push(Value::Object(meta));
        for (i, s) in self.spans.iter().enumerate().take(max_spans) {
            let mut e = Map::new();
            e.insert("name".into(), Value::String(s.name.into()));
            e.insert("cat".into(), Value::String(layer_of(s.name).into()));
            e.insert("ph".into(), Value::String("X".into()));
            e.insert("ts".into(), Value::F64(s.start_ns as f64 / 1e3));
            e.insert(
                "dur".into(),
                Value::F64((s.end_ns - s.start_ns) as f64 / 1e3),
            );
            e.insert("pid".into(), Value::U64(pid));
            e.insert("tid".into(), Value::U64(1));
            let mut args = Map::new();
            args.insert("id".into(), Value::U64(i as u64));
            if let Some(p) = s.parent {
                args.insert("parent".into(), Value::U64(p as u64));
            }
            e.insert("args".into(), Value::Object(args));
            out.push(Value::Object(e));
        }
        out
    }
}

/// The layer (crate) a span belongs to: the part of its name before
/// the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Wraps events from one or more workloads into a Chrome-trace document.
pub fn chrome_document(events: Vec<Value>) -> Value {
    let mut doc = Map::new();
    doc.insert("displayTimeUnit".into(), Value::String("ms".into()));
    doc.insert("traceEvents".into(), Value::Array(events));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("bench.rep");
        let a = t.begin("core.new");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("core.finish");
        t.end(b);
        t.end(outer);
        let st = t.self_times();
        let (calls, total, own) = st["bench.rep"];
        let children = st["core.new"].1 + st["core.finish"].1;
        assert_eq!(calls, 1);
        assert_eq!(own, total - children);
        assert!(st["core.new"].1 >= 2_000_000);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("core.new");
        t.record("core.tick", 10);
        t.end(id);
        assert!(t.spans.is_empty());
        assert!(t.hist("core.tick").is_none());
    }

    #[test]
    fn chrome_export_is_loadable_json_with_parents() {
        let mut t = Tracer::new(true);
        t.span("bench.rep", |t| t.span("core.new", |_| ()));
        let doc = chrome_document(t.chrome_events("dc-flowlet", 3, 100));
        let text = serde_json::to_string(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        let evs = back["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0]["ph"], "M");
        assert_eq!(evs[2]["name"], "core.new");
        assert_eq!(evs[2]["cat"], "core");
        assert_eq!(evs[2]["args"]["parent"], 0u64);
        assert_eq!(evs[0]["args"]["name"], "dc-flowlet");
        assert_eq!(t.chrome_events("dc-flowlet", 3, 1).len(), 2);
    }
}
