//! gt-trace: per-request stage tracing and a flight recorder for
//! gt-serve.
//!
//! Two pieces, all std-only:
//!
//! * [`StageStamps`] — a per-flight timestamp card.  The base instant
//!   is taken when the flight is enqueued; workers stamp microsecond
//!   offsets (dispatch, engine start, engine end) into relaxed atomics
//!   as the job moves through the executor.  The server folds the
//!   deltas into the per-algorithm stage histograms
//!   ([`crate::metrics::AlgoStages`]) and into a [`TraceRecord`].
//! * [`FlightRecorder`] — two fixed-size rings of completed request
//!   traces.  The *recent* ring holds the last N requests regardless
//!   of outcome; the *notable* ring holds slow (≥ `--slow-us`), shed,
//!   timed-out and failed requests so a burst of healthy traffic
//!   cannot wash away the evidence of a bad one.  Memory is bounded by
//!   construction: two `Vec`s of `Option<Arc<TraceRecord>>` slots that
//!   are overwritten in place, never grown.  The `op:"trace"` protocol
//!   verb snapshots both rings, newest first.
//!
//! `/metrics` is served by the connection loop itself
//! ([`crate::eventloop::LoopConfig::metrics`]).

use crate::workload::EvalOutcome;
use gt_analysis::Json;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sentinel for "stage not reached".
const UNSET: u64 = u64::MAX;

/// Microsecond stage offsets for one engine flight, stamped lock-free
/// as the job crosses thread boundaries.  The base instant is the
/// moment the flight was created — i.e. right before the executor
/// enqueue — so `dispatch` is the queue wait.
pub struct StageStamps {
    base: Instant,
    dispatch: AtomicU64,
    engine_start: AtomicU64,
    engine_end: AtomicU64,
}

impl Default for StageStamps {
    fn default() -> Self {
        StageStamps {
            base: Instant::now(),
            dispatch: AtomicU64::new(UNSET),
            engine_start: AtomicU64::new(UNSET),
            engine_end: AtomicU64::new(UNSET),
        }
    }
}

impl StageStamps {
    fn now_us(&self) -> u64 {
        // Saturate the sentinel away: a real offset of u64::MAX µs
        // would need half a million years of queueing.
        (self.base.elapsed().as_micros() as u64).min(UNSET - 1)
    }

    /// The enqueue instant the offsets are relative to.
    pub fn base(&self) -> Instant {
        self.base
    }

    /// Stamp "a worker took this job".
    pub fn stamp_dispatch(&self) {
        self.dispatch.store(self.now_us(), Ordering::Relaxed);
    }

    /// Stamp "the engine for this job started".
    pub fn stamp_engine_start(&self) {
        self.engine_start.store(self.now_us(), Ordering::Relaxed);
    }

    /// Stamp "the engine for this job returned".
    pub fn stamp_engine_end(&self) {
        self.engine_end.store(self.now_us(), Ordering::Relaxed);
    }

    fn get(cell: &AtomicU64) -> Option<u64> {
        match cell.load(Ordering::Relaxed) {
            UNSET => None,
            us => Some(us),
        }
    }

    /// Offset of the dispatch stamp, if the job left the queue.
    pub fn dispatch_us(&self) -> Option<u64> {
        Self::get(&self.dispatch)
    }

    /// Offset of the engine-start stamp.
    pub fn engine_start_us(&self) -> Option<u64> {
        Self::get(&self.engine_start)
    }

    /// Offset of the engine-end stamp.
    pub fn engine_end_us(&self) -> Option<u64> {
        Self::get(&self.engine_end)
    }
}

/// One finished request, flattened into plain data for the flight
/// recorder and the `op:"trace"` reply.  All `_us` fields are offsets
/// from the moment the request line was read off the socket.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Recorder-assigned sequence number (monotone, newest = highest).
    pub seq: u64,
    /// The request's echoed `id`, if it sent one.
    pub id: Option<String>,
    /// Canonical cache key (`spec|algo`).
    pub key: String,
    /// Algorithm selector name (`cascade`, `seq-solve`, …).
    pub algo: String,
    /// Final disposition: `ok`, `timeout`, `busy`, `internal`,
    /// `cancelled`.
    pub status: String,
    /// Answered from the result cache without touching the executor.
    pub cached: bool,
    /// Joined another request's in-flight engine run.
    pub coalesced: bool,
    /// recv → reply bytes written.
    pub latency_us: u64,
    /// recv → request line parsed.
    pub parse_us: u64,
    /// recv → cache probed (hit answered / miss validated).
    pub probe_us: u64,
    /// recv → flight enqueued on the executor (`None` for cache hits).
    pub enqueue_us: Option<u64>,
    /// recv → a worker took the job.
    pub dispatch_us: Option<u64>,
    /// recv → engine started.
    pub engine_start_us: Option<u64>,
    /// recv → engine returned.
    pub engine_end_us: Option<u64>,
    /// The engine's answer and work counters, when it produced one.
    pub work: Option<EvalOutcome>,
    /// Distributed-trace id propagated on the request, when the
    /// sender attached one — links this record to a fleet-wide span
    /// tree assembled upstream.
    pub trace_id: Option<String>,
    /// Span id of the sender's dispatch span (this record is its
    /// child).
    pub parent_span: Option<u64>,
    /// The request's `tenant` tag, when it carried one — lets a trace
    /// query attribute a slow or shed request to its tenant.
    pub tenant: Option<String>,
}

fn opt_u64(v: Option<u64>) -> Json {
    match v {
        Some(us) => Json::from(us),
        None => Json::Null,
    }
}

impl TraceRecord {
    /// Should this trace be pinned in the notable ring?
    pub fn is_notable(&self, slow_us: u64) -> bool {
        self.status != "ok" || self.latency_us >= slow_us
    }

    /// Serialize for the `op:"trace"` reply.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            (
                "id",
                match &self.id {
                    Some(id) => Json::from(id.as_str()),
                    None => Json::Null,
                },
            ),
            ("key", Json::from(self.key.as_str())),
            ("algo", Json::from(self.algo.as_str())),
            ("status", Json::from(self.status.as_str())),
            ("cached", Json::from(self.cached)),
            ("coalesced", Json::from(self.coalesced)),
            ("latency_us", Json::from(self.latency_us)),
            ("parse_us", Json::from(self.parse_us)),
            ("probe_us", Json::from(self.probe_us)),
            ("enqueue_us", opt_u64(self.enqueue_us)),
            ("dispatch_us", opt_u64(self.dispatch_us)),
            ("engine_start_us", opt_u64(self.engine_start_us)),
            ("engine_end_us", opt_u64(self.engine_end_us)),
            (
                "work",
                match &self.work {
                    Some(w) => w.work_json(),
                    None => Json::Null,
                },
            ),
            (
                "trace_id",
                match &self.trace_id {
                    Some(t) => Json::from(t.as_str()),
                    None => Json::Null,
                },
            ),
            ("parent_span", opt_u64(self.parent_span)),
            (
                "tenant",
                match &self.tenant {
                    Some(t) => Json::from(t.as_str()),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parse a record rendered by [`TraceRecord::to_json`] — used by
    /// clients of `op:"trace"` and the round-trip tests.
    pub fn from_json(j: &Json) -> Result<TraceRecord, String> {
        let need_u64 = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace record missing {k}"))
        };
        let need_str = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("trace record missing {k}"))
        };
        let opt = |k: &str| j.get(k).and_then(Json::as_u64);
        let work = match j.get("work") {
            None | Some(Json::Null) => None,
            Some(w) => Some(EvalOutcome {
                value: w
                    .get("value")
                    .and_then(Json::as_int)
                    .ok_or("work missing value")? as i64,
                work: w
                    .get("leaves")
                    .and_then(Json::as_u64)
                    .ok_or("work missing leaves")?,
                steps: w
                    .get("steps")
                    .and_then(Json::as_u64)
                    .ok_or("work missing steps")?,
                max_width: w
                    .get("max_width")
                    .and_then(Json::as_u64)
                    .ok_or("work missing max_width")? as u32,
                pruned: w
                    .get("pruned")
                    .and_then(Json::as_u64)
                    .ok_or("work missing pruned")?,
            }),
        };
        Ok(TraceRecord {
            seq: need_u64("seq")?,
            id: j.get("id").and_then(Json::as_str).map(str::to_string),
            key: need_str("key")?,
            algo: need_str("algo")?,
            status: need_str("status")?,
            cached: j.get("cached").and_then(Json::as_bool).unwrap_or(false),
            coalesced: j.get("coalesced").and_then(Json::as_bool).unwrap_or(false),
            latency_us: need_u64("latency_us")?,
            parse_us: need_u64("parse_us")?,
            probe_us: need_u64("probe_us")?,
            enqueue_us: opt("enqueue_us"),
            dispatch_us: opt("dispatch_us"),
            engine_start_us: opt("engine_start_us"),
            engine_end_us: opt("engine_end_us"),
            work,
            trace_id: j.get("trace_id").and_then(Json::as_str).map(str::to_string),
            parent_span: opt("parent_span"),
            tenant: j.get("tenant").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// A fixed-capacity overwrite-in-place ring of trace records.  Slots
/// are individually locked so writers on different slots never
/// contend; the cursor is a relaxed fetch-add, making `push` wait-free
/// against other pushers apart from the (uncontended) slot lock.
struct Ring {
    slots: Vec<Mutex<Option<Arc<TraceRecord>>>>,
    cursor: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    fn push(&self, rec: Arc<TraceRecord>) {
        if self.slots.is_empty() {
            return;
        }
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[at].lock().unwrap() = Some(rec);
    }

    fn collect_into(&self, out: &mut Vec<Arc<TraceRecord>>) {
        for slot in &self.slots {
            if let Some(rec) = slot.lock().unwrap().as_ref() {
                out.push(Arc::clone(rec));
            }
        }
    }
}

/// The flight recorder: last-N ring plus a pinned ring of notable
/// (slow / shed / timed-out / failed) requests.  Total memory is
/// `2 × capacity` records no matter how much traffic flows through.
pub struct FlightRecorder {
    recent: Ring,
    notable: Ring,
    slow_us: u64,
    next_seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining `capacity` recent and `capacity` notable
    /// traces; requests at or above `slow_us` microseconds end-to-end
    /// count as notable.  `capacity = 0` disables recording.
    pub fn new(capacity: usize, slow_us: u64) -> FlightRecorder {
        FlightRecorder {
            recent: Ring::new(capacity),
            notable: Ring::new(capacity),
            slow_us,
            next_seq: AtomicU64::new(0),
        }
    }

    /// The slow-trace threshold, microseconds.
    pub fn slow_us(&self) -> u64 {
        self.slow_us
    }

    /// Record one finished request.  Assigns the record's `seq`.
    pub fn record(&self, mut rec: TraceRecord) {
        rec.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let rec = Arc::new(rec);
        if rec.is_notable(self.slow_us) {
            self.notable.push(Arc::clone(&rec));
        }
        self.recent.push(rec);
    }

    /// Up to `limit` retained traces, newest first, notable and recent
    /// merged without duplicates.
    pub fn snapshot(&self, limit: usize) -> Vec<Arc<TraceRecord>> {
        let mut all = Vec::new();
        self.recent.collect_into(&mut all);
        self.notable.collect_into(&mut all);
        all.sort_by_key(|r| std::cmp::Reverse(r.seq));
        all.dedup_by(|a, b| a.seq == b.seq);
        all.truncate(limit);
        all
    }

    /// Serialize a snapshot for the `op:"trace"` reply.
    pub fn snapshot_json(&self, limit: usize) -> Json {
        Json::Array(self.snapshot(limit).iter().map(|r| r.to_json()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record(seq_hint: u64, status: &str, latency_us: u64) -> TraceRecord {
        TraceRecord {
            seq: 0,
            id: Some(format!("r{seq_hint}")),
            key: "worst:d=2,n=8|cascade:w=1".into(),
            algo: "cascade".into(),
            status: status.into(),
            cached: false,
            coalesced: false,
            latency_us,
            parse_us: 3,
            probe_us: 7,
            enqueue_us: Some(11),
            dispatch_us: Some(40),
            engine_start_us: Some(45),
            engine_end_us: Some(latency_us.saturating_sub(5)),
            work: Some(EvalOutcome {
                value: 1,
                work: 64,
                steps: 9,
                max_width: 4,
                pruned: 2,
            }),
            trace_id: None,
            parent_span: None,
            tenant: None,
        }
    }

    #[test]
    fn stamps_record_monotonic_offsets() {
        let s = StageStamps::default();
        assert_eq!(s.dispatch_us(), None);
        assert_eq!(s.engine_end_us(), None);
        s.stamp_dispatch();
        std::thread::sleep(Duration::from_millis(1));
        s.stamp_engine_start();
        std::thread::sleep(Duration::from_millis(1));
        s.stamp_engine_end();
        let d = s.dispatch_us().unwrap();
        let es = s.engine_start_us().unwrap();
        let ee = s.engine_end_us().unwrap();
        assert!(d <= es && es <= ee, "{d} {es} {ee}");
        assert!(es >= d + 500, "sleep should be visible: {d} {es}");
    }

    #[test]
    fn ring_is_bounded_under_churn() {
        let rec = FlightRecorder::new(8, 1_000_000);
        for i in 0..1_000 {
            rec.record(record(i, "ok", 50));
        }
        let snap = rec.snapshot(usize::MAX);
        // Nothing was notable, so only the recent ring holds entries.
        assert_eq!(snap.len(), 8);
        // Newest first, and they are the newest.
        assert_eq!(snap[0].seq, 999);
        assert_eq!(snap[7].seq, 992);
        assert!(snap.windows(2).all(|w| w[0].seq > w[1].seq));
    }

    #[test]
    fn slow_and_error_traces_survive_churn() {
        let rec = FlightRecorder::new(8, 10_000);
        rec.record(record(0, "ok", 50_000)); // slow
        rec.record(record(1, "timeout", 200));
        rec.record(record(2, "busy", 10));
        for i in 3..200 {
            rec.record(record(i, "ok", 50)); // healthy churn
        }
        let snap = rec.snapshot(usize::MAX);
        let statuses: Vec<&str> = snap.iter().map(|r| r.status.as_str()).collect();
        assert!(statuses.contains(&"timeout"), "{statuses:?}");
        assert!(statuses.contains(&"busy"), "{statuses:?}");
        assert!(
            snap.iter().any(|r| r.latency_us == 50_000),
            "slow trace evicted"
        );
        // Still bounded: 8 recent + up to 8 notable.
        assert!(snap.len() <= 16);
        // And the limit parameter caps the reply.
        assert_eq!(rec.snapshot(3).len(), 3);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let rec = FlightRecorder::new(0, 0);
        rec.record(record(0, "timeout", 1_000_000));
        assert!(rec.snapshot(usize::MAX).is_empty());
    }

    #[test]
    fn trace_json_round_trips() {
        let rec = {
            let mut r = record(7, "ok", 1234);
            r.seq = 42;
            r.coalesced = true;
            r
        };
        let text = rec.to_json().render();
        let back = TraceRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, rec);

        // The same record as older servers wrote it, with work-stealing
        // counters in `work`: it parses to the same record.
        let old = r#"{"seq":42,"id":"r7","key":"worst:d=2,n=8|cascade:w=1","algo":"cascade","status":"ok","cached":false,"coalesced":true,"latency_us":1234,"parse_us":3,"probe_us":7,"enqueue_us":11,"dispatch_us":40,"engine_start_us":45,"engine_end_us":1229,"work":{"value":1,"leaves":64,"steps":9,"max_width":4,"pruned":2,"steals":3,"retired":2,"narrowed":1},"trace_id":null,"parent_span":null,"tenant":null}"#;
        let back = TraceRecord::from_json(&Json::parse(old).unwrap()).unwrap();
        assert_eq!(back, rec);
        assert_eq!(
            text,
            old.replace(r#","steals":3,"retired":2,"narrowed":1"#, "")
        );

        // Optional fields may be null (a cache hit never dispatched).
        let hit = TraceRecord {
            enqueue_us: None,
            dispatch_us: None,
            engine_start_us: None,
            engine_end_us: None,
            work: None,
            cached: true,
            ..rec
        };
        let text = hit.to_json().render();
        let back = TraceRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, hit);

        // Distributed-trace linkage survives the round trip.
        let linked = TraceRecord {
            trace_id: Some("t-abc".into()),
            parent_span: Some(12),
            tenant: Some("acme".into()),
            ..record(9, "ok", 500)
        };
        let text = linked.to_json().render();
        let back = TraceRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.trace_id.as_deref(), Some("t-abc"));
        assert_eq!(back.parent_span, Some(12));
        assert_eq!(back.tenant.as_deref(), Some("acme"));
        assert_eq!(back, linked);
    }
}
