//! In-memory span trace of a traced run.
//!
//! Spans are recorded from `perf`'s own files, around the calls into
//! each layer: `workload` > `setup` | `repeat` > `tick[t]` | `finish`,
//! and `probe.<metric>`. They stay in memory until the run ends and are
//! then written as one JSON file. A span's self time is its duration
//! minus the part of it its children cover.

use crate::json::{arr, obj, s, u, Json};
use serde::Value;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    /// `"call"`: measured around a call. `"total"`: a phase total taken
    /// from the program's `TelemetryReport`, laid out from its parent's
    /// start — its duration is exact, its position is not.
    kind: &'static str,
}

pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer for one workload run; with `enabled` false nothing is
    /// recorded.
    pub fn new(workload: &str, enabled: bool) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns: now,
            end_ns: now,
            kind: "call",
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records an already-timed call (the run loops time ticks
    /// themselves, tracing or not).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            parent: Some(parent),
            start_ns: at(start),
            end_ns: at(end),
            kind: "call",
        });
    }

    /// Attaches the program's own phase totals under `parent`, end to
    /// end from its start.
    pub fn attach_totals(&mut self, parent: SpanId, totals: &[(String, u64)]) {
        if !self.enabled {
            return;
        }
        let mut at = self.spans[parent].start_ns;
        for (name, total_ns) in totals {
            self.spans.push(Span {
                name: name.clone(),
                parent: Some(parent),
                start_ns: at,
                end_ns: at + total_ns,
                kind: "total",
            });
            at += total_ns;
        }
    }

    /// The trace as JSON: every span carries its id, its parent's id
    /// and the workload's id, so spans of one run can be joined.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, sp)| {
            obj([
                ("id", u(id as u64)),
                ("parent", sp.parent.map_or(Value::Null, |p| u(p as u64))),
                ("workload", s(&self.workload)),
                ("name", s(&sp.name)),
                ("kind", s(sp.kind)),
                ("start_ns", u(sp.start_ns)),
                ("end_ns", u(sp.end_ns)),
            ])
        });
        Json(obj([
            ("workload", s(&self.workload)),
            ("spans", arr(spans)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_totals_chain_from_parent_start() {
        let mut tr = Tracer::new("w", true);
        let root = tr.begin("workload", None);
        let rep = tr.begin("repeat", Some(root));
        let t0 = Instant::now();
        tr.record("tick[0]", rep, t0, Instant::now());
        tr.end(rep);
        tr.attach_totals(rep, &[("phase.a".into(), 5), ("phase.b".into(), 7)]);
        tr.end(root);
        let spans = tr.to_json().get("spans").unwrap().items();
        assert_eq!(spans.len(), 5);
        let start = |i: usize| spans[i].get("start_ns").unwrap().as_u64().unwrap();
        let end = |i: usize| spans[i].get("end_ns").unwrap().as_u64().unwrap();
        assert_eq!(spans[2].get("parent").unwrap().as_u64(), Some(rep as u64));
        assert_eq!(start(3), start(rep));
        assert_eq!(end(3) - start(3), 5);
        assert_eq!(start(4), end(3));
        assert_eq!(spans[4].get("kind").unwrap().as_str(), Some("total"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new("w", false);
        let id = tr.begin("workload", None);
        tr.end(id);
        assert!(tr.to_json().get("spans").unwrap().items().is_empty());
    }
}
