//! Fleet-wide distributed tracing: one span tree per traced request.
//!
//! The router is the only vantage point that sees a request end to
//! end — the routing decision, every upstream copy (initial, retry,
//! hedge), the split plan's scatter-gather structure, and the local
//! expiry backstop.  This module gives it a [`SpanRecorder`]: traced
//! requests get a [`TraceHandle`] whose spans the data path fills in
//! as the request moves, and the finished tree is queryable through
//! the router's `op:"trace"` verb.
//!
//! ## Propagation
//!
//! A trace is born at the router (sampled via `--trace-sample`) or
//! supplied by the client as `"trace":{"trace_id":...}` — a client
//! context always wins and is always recorded (while tracing is
//! enabled at all), so callers can trace a specific request on
//! demand.  Every upstream copy carries
//! `"trace":{"trace_id":...,"parent_span":<span>}`, where `<span>`
//! is the dispatch span created for that copy; the replica echoes the
//! context with its own stage offsets, which land on the span as
//! `stages`/`work` detail.  The client reply carries the `trace_id`
//! so the tree can be fetched afterwards.
//!
//! ## Span model
//!
//! Spans are flat records `{id, parent, kind, label, start_us,
//! end_us, status, ...detail}` with microsecond offsets from the
//! trace's start; the tree is the `parent` relation.  The root span
//! (id 1, kind `request`) brackets the whole request.  Everything is
//! offsets on one clock — the router's — so sibling spans are
//! directly comparable, and replica-relative stage offsets are
//! rebased by adding them to their span's `start_us`.

use gt_analysis::Json;
use gt_serve::protocol::TraceContext;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The root span's id in every trace.
pub const ROOT_SPAN: u64 = 1;

/// One node of a span tree.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Parent span id; `None` only for the root (or for a root whose
    /// client supplied `parent_span` — then it grafts into the
    /// client's own, larger tree).
    pub parent: Option<u64>,
    /// What the span covers: `request`, `route`, `dispatch`, `retry`,
    /// `hedge`, `split`, `subeval`, `redispatch`, `skip`, `discard`,
    /// `expire`.
    pub kind: &'static str,
    pub label: String,
    /// Offset from the trace's start, microseconds.
    pub start_us: u64,
    /// `None` while the span is still open.
    pub end_us: Option<u64>,
    /// Terminal status (`ok`, `busy`, `error`, `timeout`, `lost`,
    /// `discarded`, …); `None` while open.
    pub status: Option<String>,
    /// Extra fields rendered flat into the span's JSON object —
    /// replica echo (`stages`, `work`), counts, window bounds.
    pub extra: Vec<(String, Json)>,
}

impl Span {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("id".into(), Json::from(self.id)),
            (
                "parent".into(),
                match self.parent {
                    Some(p) => Json::from(p),
                    None => Json::Null,
                },
            ),
            ("kind".into(), Json::from(self.kind)),
            ("label".into(), Json::from(self.label.clone())),
            ("start_us".into(), Json::from(self.start_us)),
            (
                "end_us".into(),
                match self.end_us {
                    Some(e) => Json::from(e),
                    None => Json::Null,
                },
            ),
            (
                "status".into(),
                match &self.status {
                    Some(s) => Json::from(s.clone()),
                    None => Json::Null,
                },
            ),
        ];
        fields.extend(self.extra.iter().cloned());
        Json::Object(fields)
    }
}

struct TraceState {
    spans: Vec<Span>,
    next: u64,
}

/// One traced request's span tree, shared by everything that touches
/// the request (the io threads of its client, whose timers fire there
/// too, and of its replicas).  All methods take the internal lock
/// briefly; none call out while holding it.
pub struct TraceHandle {
    pub trace_id: String,
    started: Instant,
    state: Mutex<TraceState>,
}

impl TraceHandle {
    fn new(trace_id: String, root_label: String, client_parent: Option<u64>) -> TraceHandle {
        TraceHandle {
            trace_id,
            started: Instant::now(),
            state: Mutex::new(TraceState {
                spans: vec![Span {
                    id: ROOT_SPAN,
                    parent: client_parent,
                    kind: "request",
                    label: root_label,
                    start_us: 0,
                    end_us: None,
                    status: None,
                    extra: Vec::new(),
                }],
                next: ROOT_SPAN + 1,
            }),
        }
    }

    /// Microseconds since the trace began.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Open a child span; returns its id.
    pub fn span(&self, parent: u64, kind: &'static str, label: String) -> u64 {
        let start_us = self.elapsed_us();
        let mut st = self.state.lock().unwrap();
        let id = st.next;
        st.next += 1;
        st.spans.push(Span {
            id,
            parent: Some(parent),
            kind,
            label,
            start_us,
            end_us: None,
            status: None,
            extra: Vec::new(),
        });
        id
    }

    /// Record an instantaneous event as an already-closed span.
    pub fn event(&self, parent: u64, kind: &'static str, label: String, status: &str) -> u64 {
        let id = self.span(parent, kind, label);
        self.end(id, status);
        id
    }

    pub fn end(&self, id: u64, status: &str) {
        self.end_with(id, status, Vec::new());
    }

    /// Close a span with extra detail (idempotent: the first close
    /// wins, like the reply claims it mirrors).
    pub fn end_with(&self, id: u64, status: &str, extra: Vec<(String, Json)>) {
        let end_us = self.elapsed_us();
        let mut st = self.state.lock().unwrap();
        if let Some(span) = st.spans.iter_mut().find(|s| s.id == id) {
            if span.end_us.is_none() {
                span.end_us = Some(end_us);
                span.status = Some(status.to_string());
                span.extra.extend(extra);
            }
        }
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.state.lock().unwrap().spans.len()
    }

    /// The assembled tree: `{"trace_id":..., "spans":[...]}`.
    pub fn to_json(&self) -> Json {
        let st = self.state.lock().unwrap();
        Json::Object(vec![
            ("trace_id".into(), Json::from(self.trace_id.clone())),
            (
                "spans".into(),
                Json::Array(st.spans.iter().map(Span::to_json).collect()),
            ),
        ])
    }
}

struct RecorderState {
    active: HashMap<String, Arc<TraceHandle>>,
    finished: VecDeque<Arc<TraceHandle>>,
}

/// The router's trace registry: sampling decision, id generation,
/// the active map, and a bounded ring of finished trees served by
/// `op:"trace"`.
pub struct SpanRecorder {
    /// Fraction of requests traced when the client supplies no
    /// context; `0` disables tracing entirely, `1` traces everything.
    sample: f64,
    ring: usize,
    ids: RandomState,
    seq: AtomicU64,
    sampled_seq: AtomicU64,
    started: AtomicU64,
    finished_total: AtomicU64,
    /// Spans of every finished trace, added as each one finishes.
    spans_total: AtomicU64,
    state: Mutex<RecorderState>,
}

impl SpanRecorder {
    pub fn new(sample: f64, ring: usize) -> SpanRecorder {
        SpanRecorder {
            sample: sample.clamp(0.0, 1.0),
            ring: ring.max(1),
            ids: RandomState::new(),
            seq: AtomicU64::new(0),
            sampled_seq: AtomicU64::new(0),
            started: AtomicU64::new(0),
            finished_total: AtomicU64::new(0),
            spans_total: AtomicU64::new(0),
            state: Mutex::new(RecorderState {
                active: HashMap::new(),
                finished: VecDeque::new(),
            }),
        }
    }

    /// Whether tracing is enabled at all.
    pub fn enabled(&self) -> bool {
        self.sample > 0.0
    }

    fn fresh_id(&self) -> String {
        let mut h = self.ids.build_hasher();
        h.write_u64(self.seq.fetch_add(1, Ordering::Relaxed));
        format!("rt-{:016x}", h.finish())
    }

    /// Deterministic 1-in-N sampling (N = round(1/sample)); cheaper
    /// and steadier than a coin flip, and reproducible under load.
    fn sampled(&self) -> bool {
        if self.sample <= 0.0 {
            return false;
        }
        if self.sample >= 1.0 {
            return true;
        }
        let interval = (1.0 / self.sample).round().max(1.0) as u64;
        self.sampled_seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(interval)
    }

    /// Start a trace for one request, or `None` when it goes
    /// untraced.  A client-supplied context is always honoured (its
    /// id becomes the trace id and its `parent_span` grafts the root)
    /// unless tracing is disabled outright.
    pub fn begin(
        &self,
        client: Option<&TraceContext>,
        root_label: &str,
    ) -> Option<Arc<TraceHandle>> {
        if !self.enabled() {
            return None;
        }
        if client.is_none() && !self.sampled() {
            return None;
        }
        let (trace_id, parent) = match client {
            Some(ctx) => (ctx.trace_id.clone(), ctx.parent_span),
            None => (self.fresh_id(), None),
        };
        let handle = Arc::new(TraceHandle::new(
            trace_id.clone(),
            root_label.to_string(),
            parent,
        ));
        self.started.fetch_add(1, Ordering::Relaxed);
        self.state
            .lock()
            .unwrap()
            .active
            .insert(trace_id, Arc::clone(&handle));
        Some(handle)
    }

    /// The request answered: move its trace from the active map to
    /// the finished ring (oldest evicted beyond capacity).
    pub fn finish(&self, handle: &Arc<TraceHandle>) {
        self.finished_total.fetch_add(1, Ordering::Relaxed);
        self.spans_total
            .fetch_add(handle.span_count() as u64, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap();
        st.active.remove(&handle.trace_id);
        st.finished.push_back(Arc::clone(handle));
        while st.finished.len() > self.ring {
            st.finished.pop_front();
        }
    }

    /// Look up one tree by id — active traces included, so a slow
    /// request can be inspected mid-flight.
    pub fn lookup(&self, trace_id: &str) -> Option<Arc<TraceHandle>> {
        let st = self.state.lock().unwrap();
        st.active.get(trace_id).cloned().or_else(|| {
            st.finished
                .iter()
                .rev()
                .find(|h| h.trace_id == trace_id)
                .cloned()
        })
    }

    /// The most recent `n` finished trees, newest first.
    pub fn latest(&self, n: usize) -> Vec<Arc<TraceHandle>> {
        let st = self.state.lock().unwrap();
        st.finished.iter().rev().take(n).cloned().collect()
    }

    /// Traces opened so far (sampled or client-pinned).
    pub fn started_total(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }

    /// Traces whose request has been answered.
    pub fn finished_total(&self) -> u64 {
        self.finished_total.load(Ordering::Relaxed)
    }

    /// Spans of every finished trace — monotone, unlike a sum over the
    /// trees the ring still holds.
    pub fn spans_total(&self) -> u64 {
        self.spans_total.load(Ordering::Relaxed)
    }

    /// Traces still being assembled, and finished ones in the ring.
    pub fn held(&self) -> (u64, u64) {
        let st = self
            .state
            .lock()
            .expect("recorder lock holders never panic");
        (st.active.len() as u64, st.finished.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_assembles_with_offsets_and_detail() {
        let rec = SpanRecorder::new(1.0, 8);
        let h = rec.begin(None, "worst:d=2,n=4|cascade:w=1").unwrap();
        assert!(h.trace_id.starts_with("rt-"));
        let route = h.event(ROOT_SPAN, "route", "0,1".into(), "ok");
        let d = h.span(ROOT_SPAN, "dispatch", "127.0.0.1:7171".into());
        h.end_with(
            d,
            "ok",
            vec![("work".into(), Json::obj([("leaves", Json::from(16u64))]))],
        );
        h.end(ROOT_SPAN, "ok");
        rec.finish(&h);

        let j = h.to_json();
        let spans = match j.get("spans").unwrap() {
            Json::Array(s) => s.clone(),
            other => panic!("spans not an array: {other:?}"),
        };
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("kind").and_then(Json::as_str), Some("request"));
        assert!(matches!(spans[0].get("parent"), Some(Json::Null)));
        assert_eq!(spans[1].get("id").and_then(Json::as_u64), Some(route));
        assert_eq!(
            spans[2].get("parent").and_then(Json::as_u64),
            Some(ROOT_SPAN)
        );
        assert_eq!(
            spans[2]
                .get("work")
                .and_then(|w| w.get("leaves"))
                .and_then(Json::as_u64),
            Some(16)
        );
        // Offsets are monotone within a span.
        let s = spans[2].get("start_us").and_then(Json::as_u64).unwrap();
        let e = spans[2].get("end_us").and_then(Json::as_u64).unwrap();
        assert!(e >= s);
        assert_eq!(rec.finished_total(), 1);
        assert_eq!(rec.spans_total(), 3);
    }

    #[test]
    fn client_context_pins_the_id_and_grafts_the_root() {
        let rec = SpanRecorder::new(1.0, 8);
        let ctx = TraceContext {
            trace_id: "client-7".into(),
            parent_span: Some(42),
        };
        let h = rec.begin(Some(&ctx), "spec").unwrap();
        assert_eq!(h.trace_id, "client-7");
        let j = h.to_json();
        let spans = match j.get("spans").unwrap() {
            Json::Array(s) => s.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(spans[0].get("parent").and_then(Json::as_u64), Some(42));
        // Mid-flight lookup sees the active trace.
        assert!(rec.lookup("client-7").is_some());
        rec.finish(&h);
        assert!(rec.lookup("client-7").is_some());
        assert!(rec.lookup("nope").is_none());
    }

    #[test]
    fn ring_evicts_oldest_and_latest_is_newest_first() {
        let rec = SpanRecorder::new(1.0, 2);
        let ids: Vec<String> = (0..3)
            .map(|_| {
                let h = rec.begin(None, "x").unwrap();
                h.end(ROOT_SPAN, "ok");
                rec.finish(&h);
                h.trace_id.clone()
            })
            .collect();
        assert!(rec.lookup(&ids[0]).is_none(), "oldest evicted");
        let latest = rec.latest(8);
        assert_eq!(latest.len(), 2);
        assert_eq!(latest[0].trace_id, ids[2]);
        assert_eq!(latest[1].trace_id, ids[1]);
        assert_eq!(rec.started_total(), 3);
        assert_eq!(rec.held(), (0, 2));
    }

    #[test]
    fn span_total_counts_every_finished_trace_and_never_falls() {
        let rec = SpanRecorder::new(1.0, 2);
        let mut last = 0;
        for i in 0..8u64 {
            let h = rec.begin(None, "x").unwrap();
            h.event(ROOT_SPAN, "route", "0".into(), "ok");
            h.event(ROOT_SPAN, "dispatch", "a".into(), "ok");
            // Trees of different sizes, so ring eviction changes what
            // a sum over the held trees would say.
            for _ in 0..i % 3 {
                h.event(ROOT_SPAN, "retry", "b".into(), "busy");
            }
            h.end(ROOT_SPAN, "ok");
            rec.finish(&h);
            let now = rec.spans_total();
            assert!(now >= last, "span total fell from {last} to {now}");
            last = now;
        }
        let expected: u64 = (0..8u64).map(|i| 3 + i % 3).sum();
        assert_eq!(rec.spans_total(), expected);
        assert_eq!(rec.held(), (0, 2));
    }

    #[test]
    fn sampling_zero_disables_even_client_contexts() {
        let rec = SpanRecorder::new(0.0, 8);
        assert!(!rec.enabled());
        let ctx = TraceContext {
            trace_id: "t".into(),
            parent_span: None,
        };
        assert!(rec.begin(Some(&ctx), "x").is_none());
        assert!(rec.begin(None, "x").is_none());
    }

    #[test]
    fn fractional_sampling_traces_one_in_n() {
        let rec = SpanRecorder::new(0.25, 64);
        let traced = (0..40).filter(|_| rec.begin(None, "x").is_some()).count();
        assert_eq!(traced, 10, "deterministic 1-in-4");
    }

    #[test]
    fn double_end_keeps_the_first_close() {
        let rec = SpanRecorder::new(1.0, 8);
        let h = rec.begin(None, "x").unwrap();
        let s = h.span(ROOT_SPAN, "dispatch", "a".into());
        h.end(s, "ok");
        h.end(s, "discarded");
        let j = h.to_json();
        let spans = match j.get("spans").unwrap() {
            Json::Array(s) => s.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(spans[1].get("status").and_then(Json::as_str), Some("ok"));
    }
}
