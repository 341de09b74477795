//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans are kept in a vector while the benchmark runs and written out
//! once at the end, so recording one costs two clock reads and a push.

use crate::stats::covered;
use serde::{Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `[start_ms, end_ms)` since the tracer's origin, and
/// the index of the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ms: f64,
    pub end_ms: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Span recorder with a stack of open spans; the innermost open span is
/// the parent of the next one. A disabled tracer records nothing and reads no clock, so untraced
/// passes run the same code at no cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Milliseconds since the tracer's origin.
    pub fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ms = self.now_ms();
        self.spans.push(Span {
            name: name.to_string(),
            start_ms,
            end_ms: start_ms,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ms = self.now_ms();
        out
    }

    /// Records an already-timed span (e.g. one measured on another
    /// thread) under the innermost open span.
    pub fn record(&mut self, name: &str, start_ms: f64, end_ms: f64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_ms,
            end_ms,
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans and per-name self time as one JSON document.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut m = Map::new();
                m.insert("name", Value::Str(s.name.clone()));
                m.insert("start_ms", Value::Float(s.start_ms));
                m.insert("end_ms", Value::Float(s.end_ms));
                m.insert(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u128)),
                );
                Value::Object(m)
            })
            .collect();
        let mut by_name = Map::new();
        for (name, ms) in self_time_by_name(&self.spans) {
            by_name.insert(name, Value::Float(ms));
        }
        let mut doc = Map::new();
        doc.insert("spans", Value::Array(spans));
        doc.insert("self_ms_by_name", Value::Object(by_name));
        Value::Object(doc)
    }
}

/// Self time of each span: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ms, s.end_ms));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.ms() - covered(s.start_ms, s.end_ms, kids))
        .collect()
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut totals = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(s.name.clone()).or_insert(0.0) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ms: f64, end_ms: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ms,
            end_ms,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", 0.0, 100.0, None),
            span("generate", 0.0, 40.0, Some(0)),
            span("pipeline", 40.0, 90.0, Some(0)),
            span("stage", 45.0, 85.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![10.0, 40.0, 10.0, 40.0]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["op"], 10.0);
        assert_eq!(by_name["stage"], 40.0);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        // Two concurrent client requests under one session span.
        let spans = [
            span("session", 0.0, 10.0, None),
            span("req", 1.0, 6.0, Some(0)),
            span("req", 4.0, 8.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_span() {
        let mut t = Tracer::new();
        let v = t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| 7)
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ms >= spans[2].end_ms);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("outer", |t| t.span("inner", |_| 3)), 3);
        t.record("wire", 0.0, 1.0);
        assert!(t.spans().is_empty());
    }
}
