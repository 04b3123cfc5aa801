//! Spans recorded by the benchmark's own code around its calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! Only the traced run (`--trace 1`) owns an enabled [`Tracer`]; with a
//! disabled one every method returns at once, so the end-to-end run pays
//! one branch per call site and records nothing.

use crate::json::{num, obj, render, text, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: Option<u64>,
}

/// One row of the per-layer time table derived from the spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: u64,
    /// Summed duration, milliseconds.
    pub total_ms: f64,
    /// Summed duration minus the part covered by child spans.
    pub self_ms: f64,
}

/// In-memory span recorder shared by the threads of one run.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span caused by `parent`, belonging to operation `op`.
    pub fn start(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            op,
        });
        Some(SpanId(spans.len() - 1))
    }

    /// Closes a span opened by [`start`](Self::start).
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let end_ns = self.now_ns();
            self.lock()[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: Option<u64>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.start(name, parent, op);
        let out = f(id);
        self.end(id);
        out
    }

    /// Time per span name: total, and self time (duration minus the part
    /// of the interval its child spans cover), ordered by self time.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += dur;
            // Children on other threads can overlap their parent's
            // interval more than once over; self time stops at zero.
            row.2 += dur.saturating_sub(child_ns[i]);
        }
        let mut out: Vec<LayerTime> = rows
            .into_iter()
            .map(|(name, (count, total, own))| LayerTime {
                name,
                count,
                total_ms: total as f64 / 1e6,
                self_ms: own as f64 / 1e6,
            })
            .collect();
        out.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        out
    }

    /// The span file: one header line carrying `descriptor`, then one
    /// JSON object per span.
    pub fn to_jsonl(&self, descriptor: &Value) -> String {
        let mut out = render(&obj([("descriptor", descriptor.clone())]));
        out.push('\n');
        for (i, s) in self.lock().iter().enumerate() {
            let line = obj([
                ("id", num(i as f64)),
                ("name", text(s.name)),
                ("start_ns", num(s.start_ns as f64)),
                ("end_ns", num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Value::Null, |p| num(p as f64))),
                ("op", s.op.map_or(Value::Null, |o| num(o as f64))),
            ]);
            out.push_str(&render(&line));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.start("op", None, Some(1));
        t.end(id);
        assert!(id.is_none());
        assert!(t.layer_times().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.scope("op", None, Some(0), |op| {
            t.scope("core.query", op, Some(0), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let rows = t.layer_times();
        let op = rows.iter().find(|r| r.name == "op").expect("op row");
        let core = rows
            .iter()
            .find(|r| r.name == "core.query")
            .expect("core row");
        assert!(core.self_ms >= 5.0);
        assert!(op.total_ms >= core.total_ms);
        assert!(op.self_ms < core.self_ms);
        assert_eq!(t.to_jsonl(&Value::Null).lines().count(), 3);
    }
}
