//! The benchmark's own in-memory span recorder.
//!
//! Per-layer attribution is taken *from outside*: a span wraps each call
//! the benchmark makes into a layer's public function. Nothing inside the
//! program is read (no `giant-obs` spans, no `StageTimings`), so a later PR
//! may move or delete the program's instrumentation without changing what
//! this benchmark measures.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the operation it belongs to. A span's *self time* is its duration
//! minus the part of that interval its children cover. Spans stay in
//! memory and are written out once, when the benchmark ends.

use giant::ontology::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted `layer.what` name.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation id: spans of one request/rep/batch share it.
    pub op: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Raw spans kept in the trace file; the per-name totals always cover all.
const MAX_RAW_SPANS: usize = 20_000;

/// Records spans when armed; a disarmed recorder still runs the wrapped
/// call and returns its duration, so traced and untraced runs share code.
pub struct Recorder {
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder; `armed = false` records nothing.
    pub fn new(armed: bool) -> Self {
        Recorder {
            armed,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Arms or disarms recording (the traced run alternates, to measure
    /// the recorder's own overhead on identical work).
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Starts a new operation: spans recorded from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// duration in seconds (measured whether or not the recorder is armed).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let slot = self.armed.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.stack.pop();
            self.spans[i].start_ns = self.ns(start);
            self.spans[i].end_ns = self.ns(end);
        }
        (out, (end - start).as_secs_f64())
    }

    /// Adds an interval measured elsewhere (a generator thread's request)
    /// as a child of the span currently open on this recorder.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, op: u64) {
        if self.armed {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.stack.last().copied(),
                op,
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace document: per-name totals over all spans, then the first
    /// [`MAX_RAW_SPANS`] raw spans (`parent` is an index into that list,
    /// or null for a root or for a parent beyond the cap).
    pub fn to_json(&self, workload: &str) -> Json {
        let totals = totals_by_name(&self.spans)
            .into_iter()
            .map(|(name, t)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.into())),
                    ("count".into(), Json::Num(t.count as f64)),
                    ("total_s".into(), Json::Num(t.total_s)),
                    ("self_s".into(), Json::Num(t.self_s)),
                ])
            })
            .collect();
        let raw = self
            .spans
            .iter()
            .take(MAX_RAW_SPANS)
            .enumerate()
            .map(|(i, s)| {
                let parent = match s.parent {
                    Some(p) if p < MAX_RAW_SPANS => Json::Num(p as f64),
                    _ => Json::Null,
                };
                Json::Obj(vec![
                    ("id".into(), Json::Num(i as f64)),
                    ("parent".into(), parent),
                    ("op".into(), Json::Num(s.op as f64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us".into(), Json::Num(s.end_ns as f64 / 1e3)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("spans_recorded".into(), Json::Num(self.spans.len() as f64)),
            (
                "spans_listed".into(),
                Json::Num(self.spans.len().min(MAX_RAW_SPANS) as f64),
            ),
            ("by_name".into(), Json::Arr(totals)),
            ("spans".into(), Json::Arr(raw)),
        ])
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals (clipped to the span, so concurrent children — two
/// connections' requests under one segment — are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += (s.end_ns - s.start_ns) as f64 / 1e9;
        t.self_s += self_ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100; a 10..40; b 30..60 (overlaps a); c 70..120 (clipped
        // to the root's end); leaf 15..25 under a.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 70, 120, Some(0)),
            span("leaf", 15, 25, Some(1)),
        ];
        // Children cover 10..60 and 70..100 = 80 of the root's 100.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 50, 10]);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["root"].count, 1);
        assert!((by_name["root"].self_s - 20e-9).abs() < 1e-15);
        assert!((by_name["a"].total_s - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn disarmed_recorder_times_but_records_nothing() {
        let mut rec = Recorder::new(false);
        let (v, secs) = rec.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty());
        rec.set_armed(true);
        rec.span("outer", |r| {
            r.span("inner", |_| ());
        });
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }
}
