//! The evaluation server: the serve tier's handler on the shared
//! connection loop ([`crate::eventloop`]), the shared evaluation
//! executor, sharded result cache, single-flight coalescing, and
//! graceful shutdown.
//!
//! ## Thread structure
//!
//! ```text
//! I/O threads (the connection loop; thread 0 owns the listeners)
//!   ├─ request line──▶ inline replies (control ops, cache hits),
//!   │                  one sub-grain miss per iteration run in place,
//!   │                  other misses submitted, deadline timer scheduled
//!   ├─ due timer──▶ 408 reply, flight detach
//!   └─ /metrics scrape──▶ Prometheus text, rendered inline
//! eval workers (fixed pool) ──pop one job, evaluate, publish──▶ Flight
//! publish ──drained waiters──▶ replies enqueued, owning I/O thread
//!                              listed (its own run) or woken (else)
//! ```
//!
//! Each connection is **pipelined**: its I/O thread parses NDJSON
//! lines as they arrive, answers control ops and cache hits inline,
//! runs a miss below the grain in place (see below), and *submits*
//! every other miss to the shared executor, at most `conn_window` of
//! them outstanding per connection — past the window the loop defers
//! parsing (bytes queue in the carry buffer and the kernel) until a
//! slot frees.  Total engine concurrency is the executor's fixed
//! worker count plus at most one in-place run per I/O thread, no
//! matter how many connections are open.  Replies complete by
//! enqueueing onto the connection's outbound queue and waking its I/O
//! thread; they go out in completion order, correlated by the echoed
//! `id`.  Slow readers and both shapes of slowloris are the loop's to
//! contain.
//!
//! ## Misses below the grain
//!
//! Handing a miss to a worker costs a thread wake, and its reply costs
//! a waker byte back: about as much as a small engine run.  So a miss
//! that leads its flight, whose job is small (estimated cost at or
//! below `--small-cost`) and whose engine the sequential walk prices
//! ([`walk_priced`]), runs on the I/O thread that read it: evaluated,
//! cached, published and answered before the thread polls again, with
//! no hand-off, no waker byte and no deadline timer.  Each thread runs
//! one such miss per loop iteration ([`claim_turn`]); a later one in
//! the same iteration is submitted, so a burst of them delays the
//! thread's other lines by one run at most.
//!
//! ## Single flight, asynchronously
//!
//! A miss first joins the [`FlightTable`].  The first request for a
//! canonical key (the *leader*) runs or submits the job; every
//! concurrent duplicate attaches its [`Pending`] reply record to the
//! leader's [`Flight`] and is counted as a `coalesced_hit` — one engine
//! run, N replies.  No thread ever parks on a flight: the thread that
//! publishes a result (an eval worker, or the I/O thread of an
//! in-place run) receives the drained waiter list and writes every
//! reply itself.  It inserts the outcome into the cache *before*
//! publishing, so by the time any waiter (or any later request) looks,
//! the result is already cached.
//!
//! ## Deadlines
//!
//! Every dispatched request not yet answered when its dispatch
//! returns — every one but an in-place run — schedules its deadline as
//! a timer on its client's connection ([`ConnReply::schedule`]), which
//! lands on that connection's I/O thread's heap.  When a deadline
//! fires first, the timer claims the pending reply, answers `timeout`
//! on its own thread (no wake), and detaches it from its flight;
//! detaching the last waiter cancels the engine run cooperatively.
//! Publication and expiry race on an atomic claim, so every request is
//! answered exactly once.  An in-place run cannot be cancelled, and
//! needs no deadline: the grain bounds it.
//!
//! ## Shutdown
//!
//! `request_shutdown` (or a `shutdown` request, or the CLI's SIGINT
//! handler) sets a flag that every loop polls: the I/O threads drop
//! the listener, stop parsing input, and hold each connection open
//! just long enough to flush its in-flight replies (bounded by the
//! requests' own deadlines, whose timers keep firing), new evals are
//! refused with `draining`, and [`Server::join`] reaps every thread —
//! I/O pool, then executor workers — before handing back the final
//! metrics snapshot.

use crate::cache::ShardedCache;
use crate::deadline::Answerable;
use crate::eventloop::{
    claim_turn, ConnCounters, ConnReply, IoLoop, IoLoopStats, LineHandler, LoopConfig, Timer,
};
use crate::executor::{CostClass, Executor, ExecutorConfig, SubmitError, TenantGovernor};
use crate::metrics::{Metrics, ServeView, SERVE_FAMILIES};
use crate::protocol::{
    error_line, error_line_with, ok_line, ErrorCode, Op, Request, Response, TraceContext,
    PROTOCOL_VERSION,
};
use crate::registry::{prometheus_text, stats_json, Stats};
use crate::singleflight::{Flight, FlightResult, FlightTable, Joined};
use crate::snapshot;
use crate::trace::{FlightRecorder, StageStamps, TraceRecord};
use crate::workload::{
    estimated_cost, estimated_subtree_cost, evaluate, evaluate_subtree, validate, validate_subeval,
    walk_priced, AlgoSpec, EvalError, EvalOutcome,
};
use gt_analysis::Json;
use gt_tree::{GenSpec, SubtreeSpec};
use std::io::{BufRead, BufReader, ErrorKind, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Algorithm used when an eval names none: cancellable and valid for
/// both NOR and minmax workloads.
const DEFAULT_ALGO: &str = "cascade:w=1";

/// Entries a `cachepull` returns when the request names no `n`.
const CACHEPULL_DEFAULT_LIMIT: u64 = 512;
/// Hard per-request cap on `cachepull` entries, bounding reply size
/// (and the reader-thread time spent serializing it).
const CACHEPULL_MAX_LIMIT: u64 = 4096;

/// How many times the announce thread retries a join before giving up
/// (the router may come up after its replicas).
const ANNOUNCE_ATTEMPTS: u32 = 50;
/// Pause between announce retries.
const ANNOUNCE_RETRY: Duration = Duration::from_millis(100);
/// Connect/read/write timeout for every fleet control call (join,
/// health, cachepull) so a dead peer can never wedge the announce
/// thread past shutdown.
const FLEET_IO_TIMEOUT: Duration = Duration::from_millis(2_000);
/// Most peers a (re)joining replica warm-fills from.
const WARMFILL_PEERS: usize = 3;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Evaluation worker threads: how many evals run at once,
    /// independent of connection count (`--eval-workers`, default 4).
    pub workers: usize,
    /// Bounded queue depth across all algorithm queues; submits
    /// beyond it are shed with `busy`.
    pub queue_depth: usize,
    /// Estimated-cost threshold (leaves) at or below which a job is
    /// small work, served before any large job.
    pub small_cost_max: u64,
    /// Result-cache entries across all shards (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// Cached results older than this many milliseconds expire on
    /// lookup; `None` keeps entries until LRU eviction.
    pub cache_ttl_ms: Option<u64>,
    /// Concurrent evals allowed per connection (pipelining window);
    /// requests past it wait in the reader until a slot frees.
    pub conn_window: usize,
    /// Deadline applied to evals that do not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Flight-recorder capacity: the last N request traces are kept,
    /// plus up to N notable (slow/shed/timeout/failed) ones
    /// (`--trace-ring`; 0 disables tracing).
    pub trace_ring: usize,
    /// End-to-end latency at or above which a request trace counts as
    /// slow and is pinned in the notable ring (`--slow-us`).
    pub slow_us: u64,
    /// Bind address for the Prometheus `/metrics` HTTP listener
    /// (`--metrics-addr`); `None` disables it.
    pub metrics_addr: Option<String>,
    /// Readiness-driven I/O threads (`--io-threads`).  Thread 0 owns
    /// the listener; connections are distributed round-robin.  This is
    /// the whole front-door thread budget no matter how many
    /// connections are open.
    pub io_threads: usize,
    /// Close a connection after this many milliseconds without a
    /// completed request line, once nothing is in flight on it
    /// (`--conn-idle-timeout`); `None` keeps idle connections forever.
    pub conn_idle_timeout_ms: Option<u64>,
    /// Cache snapshot file (`--snapshot`): restored on boot (stale
    /// entries age out, never un-expire), rewritten on drain.  `None`
    /// boots cold and saves nothing.
    pub snapshot_path: Option<String>,
    /// Most dispatched-and-unanswered evals a single named tenant may
    /// hold (`--tenant-max-inflight`); past it the tenant is shed with
    /// `busy` + `retry_after_ms`.  0 disables the cap.  Untagged
    /// requests are never capped (they are bounded by the global
    /// queue, exactly as before tenancy existed).
    pub tenant_max_inflight: usize,
    /// Router address to announce this replica to at boot
    /// (`--announce`); also the membership source for peer warm-fill.
    /// `None` means a statically configured replica: no announcement,
    /// no warm-fill.
    pub announce: Option<String>,
    /// Address announced to the router (`--advertise`); defaults to
    /// the bound listener address, which is wrong exactly when binding
    /// a wildcard address.
    pub advertise: Option<String>,
    /// Routing weight announced on join (`--weight`): this replica
    /// receives keys in proportion to its weight under weighted
    /// rendezvous hashing.
    pub weight: u64,
    /// Announce generation (`--generation`): the router accepts the
    /// highest generation it has seen per address, so a restarted
    /// replica announces a higher one to refresh its registration.
    pub generation: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            small_cost_max: 4096,
            cache_capacity: 256,
            cache_shards: 8,
            cache_ttl_ms: None,
            conn_window: 32,
            default_deadline_ms: 10_000,
            trace_ring: 256,
            slow_us: 100_000,
            metrics_addr: None,
            io_threads: 2,
            conn_idle_timeout_ms: None,
            snapshot_path: None,
            tenant_max_inflight: 0,
            announce: None,
            advertise: None,
            weight: 1,
            generation: 0,
        }
    }
}

/// What an executor worker runs for one queued job.
enum JobWork {
    /// A whole-tree (or game) evaluation.
    Eval { spec: GenSpec, algo: AlgoSpec },
    /// One subtree under an α/β window.
    Subeval { sub: SubtreeSpec },
}

impl JobWork {
    /// The per-algorithm metrics dimension; sub-evaluations share one
    /// `subeval` bucket.
    fn algo_label(&self) -> &str {
        match self {
            JobWork::Eval { algo, .. } => &algo.name,
            JobWork::Subeval { .. } => SUBEVAL_ALGO,
        }
    }

    /// [`Self::algo_label`], owned: an eval's name is moved out, not
    /// copied.
    fn into_algo_label(self) -> String {
        match self {
            JobWork::Eval { algo, .. } => algo.name,
            JobWork::Subeval { .. } => SUBEVAL_ALGO.to_string(),
        }
    }

    /// Estimated leaves, for the executor's small/large split.
    fn estimated_cost(&self) -> u64 {
        match self {
            JobWork::Eval { spec, algo } => estimated_cost(spec, algo),
            JobWork::Subeval { sub } => estimated_subtree_cost(sub),
        }
    }

    /// Whether the estimate bounds the run time (see [`walk_priced`]);
    /// a subeval runs the sequential kernels, so it always does.
    fn walk_priced(&self) -> bool {
        match self {
            JobWork::Eval { algo, .. } => walk_priced(algo),
            JobWork::Subeval { .. } => true,
        }
    }
}

/// Where a job runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Site {
    /// On an eval worker, after the executor's queue.
    Worker,
    /// On the I/O thread that read its request, before it polls again.
    InPlace,
}

/// The stage-metrics label (and executor queue name) for `subeval`
/// jobs.
const SUBEVAL_ALGO: &str = "subeval";

/// One queued evaluation.  The flight carries the cancellation flag
/// and every waiter; the worker publishes its result there.
struct Job {
    work: JobWork,
    cache_key: String,
    flight: Arc<Flight<Pending>>,
}

type ResultCache = Arc<ShardedCache<String, EvalOutcome>>;

/// Everything request handling needs, cheap to clone.
#[derive(Clone)]
struct Shared {
    metrics: Arc<Metrics>,
    cache: ResultCache,
    flights: Arc<FlightTable<Pending>>,
    executor: Arc<Executor<Job>>,
    recorder: Arc<FlightRecorder>,
    governor: Arc<TenantGovernor>,
    shutdown: Arc<AtomicBool>,
    default_deadline_ms: u64,
    small_cost_max: u64,
    workers: usize,
    io_threads: usize,
}

impl Shared {
    /// One read of everything the serve family table reports.
    fn view(&self) -> ServeView {
        ServeView {
            metrics: Arc::clone(&self.metrics),
            cache: self.cache.stats(),
            executor_queued: self.executor.queued(),
            flights_inflight: self.flights.len(),
            io_threads: self.io_threads,
        }
    }

    fn stats(&self) -> Stats {
        stats_json(SERVE_FAMILIES, &self.view())
    }

    /// The `retry_after_ms` hint of a shed with `queued` jobs ahead of
    /// it, priced by the eval workers' own runs.
    fn retry_after_ms(&self, queued: usize) -> u64 {
        retry_after_hint_ms(queued, self.workers, self.metrics.mean_executor_engine_us())
    }
}

/// The serve tier on the connection loop: control ops and cache hits
/// answer inline, misses dispatch to the executor.
impl LineHandler for Shared {
    fn line(shared: &Arc<Shared>, line: &str, recv: Instant, conn: &Arc<ConnReply>) {
        shared.metrics.received.fetch_add(1, Ordering::Relaxed);
        match process_line(line, shared, recv) {
            Handled::Inline(out) => {
                conn.enqueue(&out);
            }
            Handled::Dispatch {
                id,
                work,
                cache_key,
                cost,
                deadline,
                start,
                parse_us,
                probe_us,
                trace,
                tenant,
            } => {
                // The loop hands a line over only with a window slot
                // free; settling the request releases it.
                conn.claim_slot();
                dispatch_eval(
                    shared, conn, id, work, cache_key, cost, deadline, start, parse_us, probe_us,
                    trace, tenant,
                );
            }
        }
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn counters(&self) -> &ConnCounters {
        &self.metrics.conns
    }

    fn loop_stats(&self) -> Arc<IoLoopStats> {
        self.metrics.register_io_loop()
    }

    /// Thread 0 samples the executor's queue depth into its
    /// distribution-over-time histogram.
    fn sample(&self) {
        self.metrics.record_queue_depth(self.executor.queued());
    }

    fn metrics_text(shared: &Arc<Shared>) -> String {
        prometheus_text(SERVE_FAMILIES, &shared.view())
    }
}

/// One dispatched request awaiting its reply: everything needed to
/// answer the client from whichever thread settles it first (the
/// thread that publishes its flight, or its I/O thread expiring it).
/// The `answered` claim guarantees exactly one reply per request.
struct Pending {
    answered: AtomicBool,
    id: Option<String>,
    coalesced: bool,
    /// When the request line came off the socket — the origin every
    /// stage offset and the end-to-end latency are measured from.
    start: Instant,
    /// Canonical cache key (for the trace record).
    key: String,
    /// Algorithm selector name (stage-histogram dimension).
    algo: String,
    /// recv → request line parsed, microseconds.
    parse_us: u64,
    /// recv → cache probed, microseconds.
    probe_us: u64,
    /// Distributed-trace context the request carried, echoed (with
    /// stage offsets) in the reply so the sender can graft this run
    /// into its span tree.
    trace: Option<TraceContext>,
    /// The request's `tenant` tag, if any — the per-tenant accounting
    /// dimension.
    tenant: Option<String>,
    /// The tenant-inflight slot this request holds.  Released
    /// explicitly before the reply is enqueued (so a one-at-a-time
    /// client's next request can never race the release and get shed
    /// at its own cap), and by Drop on every other settling path —
    /// deadline, drain, connection teardown.
    slot: Mutex<Option<GovernorSlot>>,
    /// The connection's reply queue and pipelining window.
    conn: Arc<ConnReply>,
}

/// One held per-tenant inflight slot.  Lives inside the [`Pending`]
/// it was claimed for, so however the request settles — publish,
/// deadline, drain — dropping the answered record releases the slot.
struct GovernorSlot {
    governor: Arc<TenantGovernor>,
    tenant: String,
}

impl Drop for GovernorSlot {
    fn drop(&mut self) {
        self.governor.release(&self.tenant);
    }
}

impl Pending {
    /// Claim the right to answer; false means someone else already
    /// replied.
    fn try_claim(&self) -> bool {
        !self.answered.swap(true, Ordering::SeqCst)
    }

    /// Release the tenant-inflight slot now instead of at drop time.
    /// Idempotent; the Drop impl on the slot handles paths that never
    /// call this.
    fn release_tenant_slot(&self) {
        drop(self.slot.lock().unwrap().take());
    }
}

/// Flatten one settled request into a [`TraceRecord`].  Flight stamps
/// are offsets from the flight's enqueue instant; the record wants
/// offsets from recv, so they are rebased through the enqueue offset.
fn trace_from(
    p: &Pending,
    status: &str,
    stamps: Option<&StageStamps>,
    work: Option<EvalOutcome>,
    latency_us: u64,
) -> TraceRecord {
    let enqueue_us = stamps.map(|s| s.base().saturating_duration_since(p.start).as_micros() as u64);
    let rebase = |offset: Option<u64>| match (enqueue_us, offset) {
        (Some(e), Some(us)) => Some(e + us),
        _ => None,
    };
    TraceRecord {
        seq: 0, // assigned by the recorder
        id: p.id.clone(),
        key: p.key.clone(),
        algo: p.algo.clone(),
        status: status.to_string(),
        cached: false,
        coalesced: p.coalesced,
        latency_us,
        parse_us: p.parse_us,
        probe_us: p.probe_us,
        enqueue_us,
        dispatch_us: rebase(stamps.and_then(StageStamps::dispatch_us)),
        engine_start_us: rebase(stamps.and_then(StageStamps::engine_start_us)),
        engine_end_us: rebase(stamps.and_then(StageStamps::engine_end_us)),
        work,
        trace_id: p.trace.as_ref().map(|t| t.trace_id.clone()),
        parent_span: p.trace.as_ref().and_then(|t| t.parent_span),
        tenant: p.tenant.clone(),
    }
}

/// The reply's `trace` echo: the propagated context plus this
/// replica's stage offsets (rebased onto recv, like the trace record)
/// so the sender can place the replica span inside its own tree.
fn trace_echo_json(
    ctx: &TraceContext,
    start: Instant,
    parse_us: u64,
    probe_us: u64,
    stamps: Option<&StageStamps>,
) -> Json {
    let enqueue_us = stamps.map(|s| s.base().saturating_duration_since(start).as_micros() as u64);
    let rebase = |offset: Option<u64>| match (enqueue_us, offset) {
        (Some(e), Some(us)) => Some(e + us),
        _ => None,
    };
    let mut stages: Vec<(String, Json)> = vec![
        ("parse_us".into(), Json::from(parse_us)),
        ("probe_us".into(), Json::from(probe_us)),
    ];
    for (k, v) in [
        ("enqueue_us", enqueue_us),
        (
            "dispatch_us",
            rebase(stamps.and_then(StageStamps::dispatch_us)),
        ),
        (
            "engine_start_us",
            rebase(stamps.and_then(StageStamps::engine_start_us)),
        ),
        (
            "engine_end_us",
            rebase(stamps.and_then(StageStamps::engine_end_us)),
        ),
    ] {
        if let Some(us) = v {
            stages.push((k.to_string(), Json::from(us)));
        }
    }
    let mut fields = vec![("trace_id".to_string(), Json::from(ctx.trace_id.clone()))];
    if let Some(span) = ctx.parent_span {
        fields.push(("parent_span".into(), Json::from(span)));
    }
    fields.push(("stages".into(), Json::Object(stages)));
    Json::Object(fields)
}

/// Answer a drained waiter with a flight result.  Safe to call from
/// any thread; the claim makes duplicate calls no-ops.  Also the
/// choke point where the `write` stage histogram and the request's
/// flight-recorder trace are emitted.
fn answer_pending(
    p: &Pending,
    m: &Metrics,
    result: &FlightResult,
    recorder: &FlightRecorder,
    stamps: Option<&StageStamps>,
) {
    if !p.try_claim() {
        return;
    }
    // Free the tenant's inflight slot before the reply can reach the
    // client: a closed-loop client's follow-up request must find the
    // slot open, not race the answered record's teardown.
    p.release_tenant_slot();
    let (reply, status, work) = match result {
        FlightResult::Done(outcome) => {
            // Render with the pre-write latency (a reply cannot embed
            // the cost of its own write); the e2e histogram entry is
            // taken just before the reply is queued below, at the same
            // instant as the write stage, so the stage ledger
            // (… + write) and the histogram bracket the same interval.
            let render_us = p.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            m.ok.fetch_add(1, Ordering::Relaxed);
            let echo = p
                .trace
                .as_ref()
                .map(|ctx| trace_echo_json(ctx, p.start, p.parse_us, p.probe_us, stamps));
            (
                render_ok_eval(&p.id, outcome, false, p.coalesced, render_us, echo),
                "ok",
                Some(*outcome),
            )
        }
        FlightResult::Cancelled => {
            // Only reachable through drain races; waiters normally
            // expire (and count their own timeout) before a run is
            // cancelled.
            m.timeout.fetch_add(1, Ordering::Relaxed);
            (
                error_line(&p.id, ErrorCode::Timeout, "evaluation cancelled"),
                "cancelled",
                None,
            )
        }
        FlightResult::Failed(e) => {
            m.internal.fetch_add(1, Ordering::Relaxed);
            (error_line(&p.id, ErrorCode::Internal, e), "internal", None)
        }
        FlightResult::Busy(retry_after_ms) => {
            m.shed.fetch_add(1, Ordering::Relaxed);
            (
                error_line_with(
                    &p.id,
                    ErrorCode::Busy,
                    "queue full",
                    vec![("retry_after_ms", Json::from(*retry_after_ms))],
                ),
                "busy",
                None,
            )
        }
    };
    // Every counter this request moves is recorded before its reply
    // is queued, so a `stats` read the client sends after the reply
    // always sees them.
    let latency_us = p.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
    if matches!(result, FlightResult::Done(_)) {
        m.latency.record(latency_us);
    }
    // Fold the outcome into the tenant's accounting card.  (Timeouts
    // settle through `Expiry`, internal failures through neither
    // counter — requests/ok/shed is the fairness ledger.)
    if let Some(t) = &p.tenant {
        let ts = m.tenant_stats(t);
        match result {
            FlightResult::Done(_) => {
                ts.ok.fetch_add(1, Ordering::Relaxed);
                ts.latency.record(latency_us);
            }
            FlightResult::Busy(_) => {
                ts.shed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
    // The write stage: result published (≈ engine end) → reply handed
    // to the connection's outbound queue (the latency above brackets
    // the same instant, so the stage ledger still sums to it).
    if let Some(s) = stamps {
        if let Some(ee) = s.engine_end_us() {
            let total = s.base().elapsed().as_micros() as u64;
            m.algo_stages(&p.algo)
                .write
                .record(total.saturating_sub(ee));
        }
    }
    let _ = p.conn.enqueue(&reply);
    recorder.record(trace_from(p, status, stamps, work, latency_us));
    p.conn.release_slot();
}

/// Backoff hint attached to shed (`busy`) replies: roughly how long
/// the current backlog needs to drain — queue depth × mean engine
/// time of the eval workers' runs ÷ workers — clamped to `[1, 5000]`
/// ms.  Before any worker has run an engine there is no mean to
/// derive, so the hint falls back to 1 ms (retry almost immediately;
/// an empty-history shed is transient).
fn retry_after_hint_ms(queued: usize, workers: usize, mean_engine_us: Option<f64>) -> u64 {
    let Some(mean_us) = mean_engine_us else {
        return 1;
    };
    let drain_ms = (queued.max(1) as f64 * mean_us) / (workers.max(1) as f64 * 1_000.0);
    (drain_ms.ceil() as u64).clamp(1, 5_000)
}

/// A dispatched request's deadline, a timer on its client's
/// connection.  Weak handles keep it from extending the request's
/// lifetime, though each still pins its `Pending` and `Flight`
/// allocations until the entry goes.  Once the request is answered
/// the timer is dropped unfired, or swept out earlier as its thread's
/// heap grows.
struct Expiry {
    pending: Weak<Pending>,
    flight: Weak<Flight<Pending>>,
    shared: Arc<Shared>,
}

impl Answerable for Expiry {
    fn answered(&self) -> bool {
        self.pending
            .upgrade()
            .is_none_or(|p| p.answered.load(Ordering::SeqCst))
    }
}

impl Timer for Expiry {
    fn fire(self: Box<Self>) {
        let Some(p) = self.pending.upgrade() else {
            return; // already answered and dropped
        };
        if !p.try_claim() {
            return; // publication won the race
        }
        // The request is answered: its tenant-inflight slot frees
        // before the timeout reply can trigger a follow-up.
        p.release_tenant_slot();
        self.shared.metrics.timeout.fetch_add(1, Ordering::Relaxed);
        // Traced before the reply goes out, so a client that has seen
        // its 408 can always fetch the trace (`op:"trace"`).
        let latency_us = p.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let flight = self.flight.upgrade();
        self.shared.recorder.record(trace_from(
            &p,
            "timeout",
            flight.as_deref().map(|f| &f.stamps),
            None,
            latency_us,
        ));
        let _ = p
            .conn
            .enqueue(&error_line(&p.id, ErrorCode::Timeout, "deadline exceeded"));
        p.conn.release_slot();
        // Leaving the flight cancels the run if nobody else waits.
        if let Some(f) = flight {
            f.detach(&p);
        }
    }
}

/// A running evaluation server.
pub struct Server {
    local_addr: SocketAddr,
    shared: Shared,
    io: IoLoop,
    metrics_addr: Option<SocketAddr>,
    snapshot_path: Option<String>,
    announce_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start accepting; returns once the listener is live.
    pub fn start(config: Config) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // The fork-join engines' pool starts now, so its threads belong
        // to the fixed census rather than appearing under load.
        gt_tree::par::start_pool();

        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Metrics::default());
        let cache: ResultCache = Arc::new(ShardedCache::with_ttl(
            config.cache_capacity,
            config.cache_shards,
            config.cache_ttl_ms.map(Duration::from_millis),
        ));
        let flights: Arc<FlightTable<Pending>> = Arc::new(FlightTable::new());
        let recorder = Arc::new(FlightRecorder::new(config.trace_ring, config.slow_us));
        let governor = Arc::new(TenantGovernor::new(config.tenant_max_inflight));

        // Boot warm: restore the previous drain's snapshot, if one
        // exists.  A missing file is a first boot; a damaged one is
        // reported and skipped — the server comes up cold either way.
        if let Some(path) = &config.snapshot_path {
            match snapshot::load(Path::new(path), &cache) {
                Ok(report) => {
                    metrics
                        .snapshot_restored
                        .fetch_add(report.restored as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => eprintln!("gt-serve: snapshot {path} not restored: {e}"),
            }
        }

        let executor = {
            let cache = Arc::clone(&cache);
            let flights = Arc::clone(&flights);
            let metrics = Arc::clone(&metrics);
            let recorder = Arc::clone(&recorder);
            Arc::new(Executor::start(
                ExecutorConfig {
                    workers: config.workers,
                    queue_depth: config.queue_depth,
                },
                move |jobs: Vec<Job>| {
                    for job in jobs {
                        run_job(job, Site::Worker, &cache, &flights, &metrics, &recorder);
                    }
                },
            ))
        };

        let io_threads = config.io_threads.max(1);
        let shared = Shared {
            metrics: Arc::clone(&metrics),
            cache: Arc::clone(&cache),
            flights,
            executor: Arc::clone(&executor),
            recorder: Arc::clone(&recorder),
            governor,
            shutdown: Arc::clone(&shutdown),
            default_deadline_ms: config.default_deadline_ms,
            small_cost_max: config.small_cost_max,
            workers: config.workers.max(1),
            io_threads,
        };
        let metrics_listener = config
            .metrics_addr
            .as_deref()
            .map(TcpListener::bind)
            .transpose()?;
        let metrics_addr = metrics_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;
        let io = IoLoop::spawn(
            listener,
            LoopConfig {
                name: "gt-serve-io",
                threads: io_threads,
                window: config.conn_window,
                idle_timeout: config.conn_idle_timeout_ms.map(Duration::from_millis),
                metrics: metrics_listener,
            },
            Arc::new(shared.clone()),
        )?;

        // Dynamic membership: announce this replica to the router and
        // warm-fill from already-joined peers, off the serving path —
        // the listener is live before the first announce attempt, so a
        // routed request can never beat the replica it is routed to.
        let announce_handle = match &config.announce {
            Some(router) => {
                let router = router.clone();
                let advertise = config
                    .advertise
                    .clone()
                    .unwrap_or_else(|| local_addr.to_string());
                let weight = config.weight;
                let generation = config.generation;
                let cache = Arc::clone(&cache);
                let metrics = Arc::clone(&metrics);
                let shutdown = Arc::clone(&shutdown);
                Some(
                    thread::Builder::new()
                        .name("gt-serve-announce".into())
                        .spawn(move || {
                            announce_and_warmfill(
                                &router, &advertise, weight, generation, &cache, &metrics,
                                &shutdown,
                            )
                        })?,
                )
            }
            None => None,
        };

        Ok(Server {
            local_addr,
            shared,
            io,
            metrics_addr,
            snapshot_path: config.snapshot_path.clone(),
            announce_handle,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared shutdown flag — hand this to a signal handler.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The flight recorder (shared with every connection thread).
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }

    /// Where the `/metrics` endpoint is listening, if enabled (useful
    /// with port 0 in `--metrics-addr`).
    pub fn metrics_listener_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Begin a graceful drain (idempotent, returns immediately).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.io.wake();
    }

    /// The live `stats` object, as the `stats` request returns it.
    pub fn stats(&self) -> Stats {
        self.shared.stats()
    }

    /// Drain and reap every thread; returns the final `stats`.  Call
    /// [`Server::request_shutdown`] first (or let a client's `shutdown`
    /// request do it) or this blocks until one arrives.
    pub fn join(self) -> Stats {
        // Each I/O thread drops the listener, flushes every
        // connection's in-flight replies, and exits; the workers are
        // still live here and the threads still fire their timers, so
        // every outstanding reply is settled by result or by deadline.
        self.io.join();
        self.shared.executor.shutdown();
        if let Some(h) = self.announce_handle {
            let _ = h.join();
        }
        // Every engine result is published and cached by now: freeze
        // the hit set to disk so the next boot starts warm.
        if let Some(path) = &self.snapshot_path {
            if let Err(e) = snapshot::save(Path::new(path), &self.shared.cache) {
                eprintln!("gt-serve: snapshot {path} not saved: {e}");
            }
        }
        self.shared.stats()
    }
}

/// One fleet control call: connect with a timeout, send one request
/// line, read one reply line.  Bounded at every step, so a dead or
/// wedged peer costs at most the I/O timeout — never a hung thread.
fn fleet_request(addr: &str, request: &Request) -> std::io::Result<Response> {
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, FLEET_IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(FLEET_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(FLEET_IO_TIMEOUT))?;
    stream.write_all(format!("{}\n", request.render()).as_bytes())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "peer closed the connection",
        ));
    }
    Response::parse(line.trim()).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
}

/// The member addresses in a router `health` reply.
fn member_addrs(r: &Response) -> Vec<String> {
    match r.body.get("members") {
        Some(Json::Array(list)) => list
            .iter()
            .filter_map(|m| m.get("addr").and_then(Json::as_str).map(str::to_string))
            .collect(),
        _ => Vec::new(),
    }
}

/// Join the fleet: announce `advertise` to the router (retrying while
/// it comes up), then warm-fill the cache from peers the router
/// already knows, via bounded `cachepull`s.  Gives up quietly on
/// shutdown or once the retry budget is spent — a replica that never
/// reaches its router still serves direct traffic, exactly like a
/// statically configured one.
fn announce_and_warmfill(
    router: &str,
    advertise: &str,
    weight: u64,
    generation: u64,
    cache: &ResultCache,
    metrics: &Metrics,
    shutdown: &AtomicBool,
) {
    let join = Request::join(advertise, weight, generation);
    let mut announced = false;
    for _ in 0..ANNOUNCE_ATTEMPTS {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match fleet_request(router, &join) {
            Ok(r) if r.ok => {
                announced = true;
                break;
            }
            Ok(r) => {
                // The router heard us and said no (a stale generation,
                // say): repeating the same announcement cannot succeed.
                eprintln!(
                    "gt-serve: join rejected by {router}: {}",
                    r.error.as_deref().unwrap_or("error")
                );
                return;
            }
            Err(_) => thread::sleep(ANNOUNCE_RETRY),
        }
    }
    if !announced {
        eprintln!("gt-serve: router {router} unreachable; serving unannounced");
        return;
    }
    // Peer warm-fill: ask the router who else is in, then pull each
    // peer's hottest entries.  `insert_aged` honors the TTL and the
    // LRU bound, so an over-pull costs wire bytes, never correctness.
    let members = match fleet_request(
        router,
        &Request {
            op: Op::Health,
            ..Default::default()
        },
    ) {
        Ok(r) if r.ok => member_addrs(&r),
        _ => Vec::new(),
    };
    let mut filled = 0u64;
    for peer in members
        .iter()
        .filter(|a| a.as_str() != advertise)
        .take(WARMFILL_PEERS)
    {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(r) = fleet_request(peer, &Request::cachepull(CACHEPULL_MAX_LIMIT)) else {
            continue;
        };
        if !r.ok {
            continue;
        }
        let Some(Json::Array(entries)) = r.body.get("entries") else {
            continue;
        };
        for e in entries {
            if let Some((key, outcome, age_ms)) = snapshot::entry_from(e) {
                if cache.insert_aged(key, outcome, Duration::from_millis(age_ms)) {
                    filled += 1;
                }
            }
        }
    }
    metrics
        .warmfill_entries
        .fetch_add(filled, Ordering::Relaxed);
}

/// Evaluate one job, on a worker or in place: cancellation check,
/// engine run, cache insert, publish, and every drained waiter
/// answered.
fn run_job(
    job: Job,
    site: Site,
    cache: &ResultCache,
    flights: &FlightTable<Pending>,
    metrics: &Metrics,
    recorder: &FlightRecorder,
) {
    let stamps = &job.flight.stamps;
    stamps.stamp_dispatch();
    // Every waiter already gave up (last one out set the flag): skip
    // the run, retire the flight.
    if job.flight.cancel.load(Ordering::Relaxed) {
        for w in flights.publish(&job.cache_key, &job.flight, FlightResult::Cancelled) {
            answer_pending(&w, metrics, &FlightResult::Cancelled, recorder, None);
        }
        return;
    }
    stamps.stamp_engine_start();
    // A panicking engine fails its flight, so each waiter gets one 500,
    // and the thread lives on: an eval worker, or an I/O thread with
    // every connection on it.
    let evaluated = panic::catch_unwind(AssertUnwindSafe(|| match &job.work {
        JobWork::Eval { spec, algo } => evaluate(spec, algo, &job.flight.cancel),
        JobWork::Subeval { sub } => evaluate_subtree(sub, &job.flight.cancel),
    }))
    .unwrap_or_else(|_| Err(EvalError::Bad("engine panicked".into())));
    stamps.stamp_engine_end();

    // Fold this run into the per-algorithm stage histograms and work
    // aggregates (every stamp was taken above, so the lets below cannot
    // misfire — but stay defensive).
    let stages = metrics.algo_stages(job.work.algo_label());
    if let Some(d) = stamps.dispatch_us() {
        stages.queue_wait.record(d);
    }
    if let (Some(es), Some(ee)) = (stamps.engine_start_us(), stamps.engine_end_us()) {
        let engine_us = ee.saturating_sub(es);
        stages.engine.record(engine_us);
        if site == Site::Worker {
            metrics.record_executor_run(engine_us);
        }
    }

    let result = match evaluated {
        Ok(outcome) => {
            metrics.evaluated.fetch_add(1, Ordering::Relaxed);
            if matches!(job.work, JobWork::Subeval { .. }) {
                metrics.subevals.fetch_add(1, Ordering::Relaxed);
            }
            stages.record_work(&outcome);
            // Insert before publishing: once any waiter observes the
            // result, the cache must already have it.
            cache.insert(job.cache_key.clone(), outcome);
            FlightResult::Done(outcome)
        }
        Err(EvalError::Cancelled) => FlightResult::Cancelled,
        Err(EvalError::Bad(e)) => FlightResult::Failed(e),
    };
    for w in flights.publish(&job.cache_key, &job.flight, result.clone()) {
        answer_pending(&w, metrics, &result, recorder, Some(stamps));
    }
}

/// How one request line is to be answered.
// Transient: built and destructured within one reader turn, never
// stored, so the Inline/Dispatch size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum Handled {
    /// Reply computed on the reader thread (control ops, cache hits,
    /// and every error that needs no engine run).
    Inline(String),
    /// A cache miss that must go through the flight table: answered
    /// in place, or asynchronously when its flight publishes or its
    /// deadline fires.
    Dispatch {
        id: Option<String>,
        work: JobWork,
        cache_key: String,
        /// Estimated leaves, for the executor's small/large split.
        cost: u64,
        deadline: Instant,
        start: Instant,
        parse_us: u64,
        probe_us: u64,
        trace: Option<TraceContext>,
        tenant: Option<String>,
    },
}

/// Handle one request line on its I/O thread.  `recv` is when the
/// line came off the socket — the origin of every stage offset.
fn process_line(line: &str, shared: &Shared, recv: Instant) -> Handled {
    let m = &shared.metrics;
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            m.bad_request.fetch_add(1, Ordering::Relaxed);
            return Handled::Inline(error_line(&None, ErrorCode::BadRequest, &e));
        }
    };
    let parse_us = recv.elapsed().as_micros() as u64;
    let id = request.id.clone();
    match request.op {
        Op::Ping => Handled::Inline(ok_line(
            &id,
            vec![
                ("version", Json::from(PROTOCOL_VERSION)),
                (
                    "draining",
                    Json::Bool(shared.shutdown.load(Ordering::SeqCst)),
                ),
            ],
        )),
        Op::Stats => Handled::Inline(ok_line(&id, vec![("stats", shared.stats().0)])),
        Op::Trace => {
            let limit = request.n.unwrap_or(64).min(usize::MAX as u64) as usize;
            Handled::Inline(ok_line(
                &id,
                vec![
                    ("traces", shared.recorder.snapshot_json(limit)),
                    ("slow_us", Json::from(shared.recorder.slow_us())),
                ],
            ))
        }
        Op::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Handled::Inline(ok_line(&id, vec![("draining", Json::Bool(true))]))
        }
        // The cheap probe verb: three atomic loads and two lock-free
        // length reads — no stats snapshot allocation, so a router
        // polling every replica at high frequency costs nothing.
        Op::Health => Handled::Inline(ok_line(
            &id,
            vec![
                ("uptime_s", Json::from(m.uptime_us() as f64 / 1e6)),
                ("queued", Json::from(shared.executor.queued() as u64)),
                ("inflight", Json::from(shared.flights.len() as u64)),
                (
                    "draining",
                    Json::Bool(shared.shutdown.load(Ordering::SeqCst)),
                ),
            ],
        )),
        // A replica is never the membership authority; a misdirected
        // announcement gets a crisp 400 instead of a silent ok.
        Op::Join => Handled::Inline(error_line(
            &id,
            ErrorCode::BadRequest,
            "join is a router verb; replicas only announce, never accept",
        )),
        // Bounded bulk cache read for peer warm-fill: up to `n` of the
        // hottest entries (MRU-first), in the snapshot entry shape.
        Op::Cachepull => {
            let limit = request
                .n
                .unwrap_or(CACHEPULL_DEFAULT_LIMIT)
                .min(CACHEPULL_MAX_LIMIT) as usize;
            let entries: Vec<Json> = shared
                .cache
                .export(limit)
                .iter()
                .map(|(k, o, age)| crate::snapshot::entry_json(k, o, *age))
                .collect();
            m.cachepull_served.fetch_add(1, Ordering::Relaxed);
            m.cachepull_entries
                .fetch_add(entries.len() as u64, Ordering::Relaxed);
            Handled::Inline(ok_line(
                &id,
                vec![
                    ("count", Json::from(entries.len())),
                    ("entries", Json::Array(entries)),
                ],
            ))
        }
        Op::Eval | Op::Subeval => process_eval(&request, shared, recv, parse_us),
    }
}

/// Validate an `eval` or `subeval` line into its cache key and the
/// work a miss would run.  The two verbs differ only here.
fn validate_job(request: &Request) -> Result<(String, JobWork), String> {
    let spec_text = request.spec.as_deref().unwrap_or_default();
    if request.op == Op::Subeval {
        let path_text = request.path.as_deref().unwrap_or_default();
        let v = validate_subeval(spec_text, path_text, request.alpha, request.beta)?;
        Ok((v.cache_key, JobWork::Subeval { sub: v.sub }))
    } else {
        let algo_text = request.algo.as_deref().unwrap_or(DEFAULT_ALGO);
        let v = validate(spec_text, algo_text)?;
        let work = JobWork::Eval {
            spec: v.spec,
            algo: v.algo,
        };
        Ok((v.cache_key, work))
    }
}

/// Handle one `eval` or `subeval` line: answer a cache hit inline, or
/// hand a miss to the flight table and the executor.
fn process_eval(request: &Request, shared: &Shared, recv: Instant, parse_us: u64) -> Handled {
    let m = &shared.metrics;
    let id = &request.id;
    if request.op == Op::Subeval {
        m.subeval_requests.fetch_add(1, Ordering::Relaxed);
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        m.draining.fetch_add(1, Ordering::Relaxed);
        return Handled::Inline(error_line(id, ErrorCode::Draining, "server is draining"));
    }
    let (cache_key, work) = match validate_job(request) {
        Ok(v) => v,
        Err(e) => {
            m.bad_request.fetch_add(1, Ordering::Relaxed);
            return Handled::Inline(error_line(id, ErrorCode::BadRequest, &e));
        }
    };

    if let Some(hit) = shared.cache.get(&cache_key) {
        let probe_us = recv.elapsed().as_micros() as u64;
        record_tenant_hit(m, request.tenant.as_deref(), recv);
        let echo = request
            .trace
            .as_ref()
            .map(|ctx| trace_echo_json(ctx, recv, parse_us, probe_us, None));
        let reply = ok_eval_line(id, &hit, true, false, recv, m, echo);
        shared.recorder.record(TraceRecord {
            seq: 0,
            id: id.clone(),
            key: cache_key,
            algo: work.into_algo_label(),
            status: "ok".to_string(),
            cached: true,
            coalesced: false,
            latency_us: recv.elapsed().as_micros() as u64,
            parse_us,
            probe_us,
            enqueue_us: None,
            dispatch_us: None,
            engine_start_us: None,
            engine_end_us: None,
            work: Some(hit),
            trace_id: request.trace.as_ref().map(|t| t.trace_id.clone()),
            parent_span: request.trace.as_ref().and_then(|t| t.parent_span),
            tenant: request.tenant.clone(),
        });
        return Handled::Inline(reply);
    }
    let probe_us = recv.elapsed().as_micros() as u64;

    let deadline_ms = request.deadline_ms.unwrap_or(shared.default_deadline_ms);
    // Clamp to a day so absurd values cannot overflow Instant math.
    let deadline = recv + Duration::from_millis(deadline_ms.min(86_400_000));
    Handled::Dispatch {
        id: id.clone(),
        cost: work.estimated_cost(),
        work,
        cache_key,
        deadline,
        start: recv,
        parse_us,
        probe_us,
        trace: request.trace.clone(),
        tenant: request.tenant.clone(),
    }
}

/// Tenant accounting for a request answered straight from the cache:
/// requests, ok, and latency all land on the tenant's card without
/// ever touching the governor (a hit holds no inflight slot).
fn record_tenant_hit(m: &Metrics, tenant: Option<&str>, recv: Instant) {
    if let Some(t) = tenant {
        let ts = m.tenant_stats(t);
        ts.requests.fetch_add(1, Ordering::Relaxed);
        ts.ok.fetch_add(1, Ordering::Relaxed);
        ts.latency.record(recv.elapsed().as_micros() as u64);
    }
}

/// Run one cache miss through the flight table on the I/O thread:
/// lead (run the job in place, or submit it to the executor) or follow
/// (coalesce), attach the pending reply, and schedule its deadline on
/// the connection unless it is already answered.
/// Never blocks — the caller already claimed a window slot.
#[allow(clippy::too_many_arguments)]
fn dispatch_eval(
    shared: &Arc<Shared>,
    conn: &Arc<ConnReply>,
    id: Option<String>,
    work: JobWork,
    cache_key: String,
    cost: u64,
    deadline: Instant,
    start: Instant,
    parse_us: u64,
    probe_us: u64,
    trace: Option<TraceContext>,
    tenant: Option<String>,
) {
    let m = &shared.metrics;
    let recorder = &shared.recorder;
    let key = cache_key;
    let algo_name = work.algo_label().to_string();
    // Every path below builds the request's pending reply exactly once.
    let new_pending = |answered: bool, coalesced: bool, slot: Option<GovernorSlot>| Pending {
        answered: AtomicBool::new(answered),
        id,
        coalesced,
        start,
        key: key.clone(),
        algo: algo_name.clone(),
        parse_us,
        probe_us,
        trace,
        tenant: tenant.clone(),
        slot: Mutex::new(slot),
        conn: Arc::clone(conn),
    };
    // Every dispatched request lands on its tenant's card and claims
    // a tenant-inflight slot (leaders and coalesced followers alike —
    // the cap bounds dispatched-and-unanswered requests, however they
    // are served).  A tenant at its cap is shed here, before it can
    // occupy a flight, a queue slot, or an engine.
    if let Some(t) = tenant.as_deref() {
        m.tenant_stats(t).requests.fetch_add(1, Ordering::Relaxed);
    }
    let slot = match tenant.as_deref() {
        Some(t) if shared.governor.enabled() => {
            if !shared.governor.try_acquire(t) {
                let hint = shared.retry_after_ms(shared.governor.inflight(t));
                let pending = new_pending(true, false, None);
                m.shed.fetch_add(1, Ordering::Relaxed);
                m.tenant_stats(t).shed.fetch_add(1, Ordering::Relaxed);
                let _ = conn.enqueue(&error_line_with(
                    &pending.id,
                    ErrorCode::Busy,
                    "tenant at max inflight",
                    vec![("retry_after_ms", Json::from(hint))],
                ));
                let latency_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
                recorder.record(trace_from(&pending, "busy", None, None, latency_us));
                conn.release_slot();
                return;
            }
            Some(GovernorSlot {
                governor: Arc::clone(&shared.governor),
                tenant: t.to_string(),
            })
        }
        _ => None,
    };
    let (pending, flight) = match shared.flights.join(&key) {
        Joined::Leader(flight) => {
            let pending = Arc::new(new_pending(false, false, slot));
            // Fresh flight: nothing published yet, attach always parks.
            let _ = flight.attach(&pending);
            let class = CostClass::classify(cost, shared.small_cost_max);
            let job = Job {
                work,
                cache_key: key.clone(),
                flight: Arc::clone(&flight),
            };
            // Below the grain a walk-priced run costs about what its
            // hand-off and its reply's wake would: on the thread's one
            // turn of this iteration it runs here, and is answered
            // before this returns, so it takes no deadline timer.
            if class == CostClass::Small && job.work.walk_priced() && claim_turn() {
                run_job(
                    job,
                    Site::InPlace,
                    &shared.cache,
                    &shared.flights,
                    m,
                    recorder,
                );
            } else {
                let tenant = tenant.as_deref().unwrap_or("");
                match shared
                    .executor
                    .submit_tagged(tenant, &algo_name, class, job)
                {
                    Ok(()) => {}
                    Err(SubmitError::Full) => {
                        // Publish so any follower that raced in is also
                        // answered instead of hanging.
                        let hint = shared.retry_after_ms(shared.executor.queued());
                        let busy = FlightResult::Busy(hint);
                        for w in shared.flights.publish(&key, &flight, busy.clone()) {
                            answer_pending(&w, m, &busy, recorder, None);
                        }
                    }
                    Err(SubmitError::Closed) => {
                        let result = FlightResult::Failed("worker pool is gone".into());
                        for w in shared.flights.publish(&key, &flight, result.clone()) {
                            answer_pending(&w, m, &result, recorder, None);
                        }
                    }
                }
            }
            (pending, flight)
        }
        Joined::Follower(flight) => {
            m.coalesced_hits.fetch_add(1, Ordering::Relaxed);
            let pending = Arc::new(new_pending(false, true, slot));
            if let Some(result) = flight.attach(&pending) {
                // The flight completed between join and attach.
                answer_pending(&pending, m, &result, recorder, Some(&flight.stamps));
            }
            (pending, flight)
        }
    };
    // Cheap pre-check only: an entry whose request is answered after
    // this point is skipped at its deadline, or swept out earlier by a
    // later registration, so a racing answer is harmless.
    if !pending.answered.load(Ordering::SeqCst) {
        let expiry = Expiry {
            pending: Arc::downgrade(&pending),
            flight: Arc::downgrade(&flight),
            shared: Arc::clone(shared),
        };
        conn.schedule(deadline, Box::new(expiry));
    }
}

#[allow(clippy::too_many_arguments)]
fn ok_eval_line(
    id: &Option<String>,
    outcome: &EvalOutcome,
    cached: bool,
    coalesced: bool,
    start: Instant,
    m: &Metrics,
    trace: Option<Json>,
) -> String {
    let latency_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
    m.ok.fetch_add(1, Ordering::Relaxed);
    m.latency.record(latency_us);
    render_ok_eval(id, outcome, cached, coalesced, latency_us, trace)
}

fn render_ok_eval(
    id: &Option<String>,
    outcome: &EvalOutcome,
    cached: bool,
    coalesced: bool,
    latency_us: u64,
    trace: Option<Json>,
) -> String {
    let mut fields = vec![
        ("value", Json::from(outcome.value)),
        ("work", outcome.work_json()),
        ("steps", Json::from(outcome.steps)),
        ("cached", Json::Bool(cached)),
        ("coalesced", Json::Bool(coalesced)),
        ("latency_us", Json::from(latency_us)),
    ];
    if let Some(t) = trace {
        fields.push(("trace", t));
    }
    ok_line(id, fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use crate::workload::PANIC_ALGO;
    use std::io::{BufRead, BufReader, Write};

    fn send(stream: &TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Response {
        let mut w = stream.try_clone().unwrap();
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        w.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::parse(reply.trim()).unwrap()
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn serves_eval_ping_stats_and_drains() {
        let server = Server::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let (stream, mut reader) = connect(server.local_addr());

        let r = send(&stream, &mut reader, r#"{"op":"ping"}"#);
        assert!(r.ok);
        assert_eq!(r.body.get("version").and_then(Json::as_u64), Some(1));

        let r = send(
            &stream,
            &mut reader,
            r#"{"id":"a","spec":"worst:d=2,n=6","algo":"seq-solve"}"#,
        );
        assert!(r.ok, "eval failed: {:?}", r.error);
        assert_eq!(r.id.as_deref(), Some("a"));
        // `work` is an object carrying the paper's counters.
        let work = r.body.get("work").unwrap();
        assert_eq!(work.get("leaves").and_then(Json::as_u64), Some(64));
        assert_eq!(work.get("max_width").and_then(Json::as_u64), Some(1));
        assert!(work.get("pruned").and_then(Json::as_u64).is_some());
        assert!(!r.cached());

        // Same canonical request again: cache hit.
        let r = send(
            &stream,
            &mut reader,
            r#"{"spec":"worst: n=6 ,d=2","algo":"seq-solve"}"#,
        );
        assert!(r.ok);
        assert!(r.cached());

        // Malformed line: error reply, connection survives.
        let r = send(&stream, &mut reader, "{nope");
        assert!(!r.ok);
        assert_eq!(r.status, 400);
        let r = send(&stream, &mut reader, r#"{"op":"stats"}"#);
        let stats = r.body.get("stats").unwrap();
        assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("bad_request").and_then(Json::as_u64), Some(1));
        // The stats snapshot also reports the sharded cache.
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("len").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("shards").and_then(Json::as_u64), Some(8));

        let r = send(&stream, &mut reader, r#"{"op":"shutdown"}"#);
        assert!(r.ok);
        let snapshot = server.join();
        assert_eq!(snapshot.u64("ok"), 2);
        assert_eq!(snapshot.u64("cache_hits"), 1);
        assert_eq!(snapshot.u64("evaluated"), 1);
    }

    fn test_shared(draining: bool) -> Shared {
        Shared {
            metrics: Arc::new(Metrics::default()),
            cache: Arc::new(ShardedCache::new(4, 2)),
            flights: Arc::new(FlightTable::new()),
            executor: Arc::new(Executor::start(
                ExecutorConfig {
                    workers: 1,
                    queue_depth: 1,
                },
                |_jobs: Vec<Job>| {},
            )),
            recorder: Arc::new(FlightRecorder::new(16, 100_000)),
            governor: Arc::new(TenantGovernor::new(0)),
            shutdown: Arc::new(AtomicBool::new(draining)),
            default_deadline_ms: 1000,
            small_cost_max: 4096,
            workers: 1,
            io_threads: 1,
        }
    }

    #[test]
    fn retry_after_hint_tracks_backlog() {
        // No engine history: near-immediate retry.
        assert_eq!(retry_after_hint_ms(64, 2, None), 1);
        // 64 queued × 1ms mean ÷ 2 workers = 32ms of backlog.
        assert_eq!(retry_after_hint_ms(64, 2, Some(1_000.0)), 32);
        // Heavier engines push the hint up, the clamp caps it.
        assert_eq!(retry_after_hint_ms(64, 2, Some(1_000_000.0)), 5_000);
        // Degenerate inputs never panic or return zero.
        assert_eq!(retry_after_hint_ms(0, 0, Some(0.0)), 1);
    }

    /// The job a miss on `line` would run, leading a fresh flight.
    fn miss_job(shared: &Shared, line: &str) -> Job {
        let request = Request::parse(line).unwrap();
        let (cache_key, work) = validate_job(&request).unwrap();
        let Joined::Leader(flight) = shared.flights.join(&cache_key) else {
            panic!("{cache_key} already in flight");
        };
        Job {
            work,
            cache_key,
            flight,
        }
    }

    #[test]
    fn the_retry_hint_learns_only_from_eval_worker_runs() {
        let shared = test_shared(false);
        let run = |seed: u32, site: Site| {
            let line = format!(r#"{{"spec":"worst:d=2,n=14,seed={seed}","algo":"seq-solve"}}"#);
            let job = miss_job(&shared, &line);
            let m = &shared.metrics;
            run_job(
                job,
                site,
                &shared.cache,
                &shared.flights,
                m,
                &shared.recorder,
            );
        };
        let engine_us = || {
            let stages = shared.metrics.algo_stages("seq-solve");
            stages.engine.snapshot().sum
        };
        // In-place runs alone leave no executor history: 1 ms.
        for seed in 0..3 {
            run(seed, Site::InPlace);
        }
        assert!(engine_us() > 0, "the in-place runs took no time");
        assert_eq!(shared.retry_after_ms(1_000), 1);
        // One worker run sets the mean to its own engine time.
        let before = engine_us();
        run(3, Site::Worker);
        let worker_us = engine_us() - before;
        assert_eq!(
            shared.metrics.mean_executor_engine_us(),
            Some(worker_us as f64)
        );
        assert_eq!(
            shared.retry_after_ms(1_000),
            retry_after_hint_ms(1_000, shared.workers, Some(worker_us as f64))
        );
        assert!(shared.retry_after_ms(1_000) > 1);
        shared.executor.shutdown();
    }

    #[test]
    fn health_op_answers_inline_without_stats() {
        let shared = test_shared(false);
        let reply = match process_line(r#"{"op":"health","id":"h"}"#, &shared, Instant::now()) {
            Handled::Inline(reply) => reply,
            Handled::Dispatch { .. } => panic!("health is inline"),
        };
        let r = Response::parse(&reply).unwrap();
        assert!(r.ok);
        assert_eq!(r.id.as_deref(), Some("h"));
        assert!(r.body.get("uptime_s").is_some());
        assert_eq!(r.body.get("queued").and_then(Json::as_u64), Some(0));
        assert_eq!(r.body.get("inflight").and_then(Json::as_u64), Some(0));
        assert_eq!(r.body.get("draining").and_then(Json::as_bool), Some(false));
        // A draining server still answers health, flagged as draining.
        let shared = test_shared(true);
        let reply = match process_line(r#"{"op":"health"}"#, &shared, Instant::now()) {
            Handled::Inline(reply) => reply,
            Handled::Dispatch { .. } => panic!("health is inline"),
        };
        let r = Response::parse(&reply).unwrap();
        assert!(r.ok);
        assert_eq!(r.body.get("draining").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn draining_server_refuses_new_evals() {
        // Unit-level: a request processed after the flag flips gets a
        // 503 (over the wire this is a race window, so test it here).
        let shared = test_shared(true);
        let reply = match process_line(r#"{"spec":"worst:d=2,n=4"}"#, &shared, Instant::now()) {
            Handled::Inline(reply) => reply,
            Handled::Dispatch { .. } => panic!("draining evals must not dispatch"),
        };
        let r = Response::parse(&reply).unwrap();
        assert!(!r.ok);
        assert_eq!(r.status, 503);
        assert_eq!(r.code.as_deref(), Some("draining"));
        assert_eq!(shared.stats().u64("draining"), 1);
        // Control ops still answer while draining.
        let reply = match process_line(r#"{"op":"ping"}"#, &shared, Instant::now()) {
            Handled::Inline(reply) => reply,
            Handled::Dispatch { .. } => panic!("ping is inline"),
        };
        let r = Response::parse(&reply).unwrap();
        assert!(r.ok);
        assert_eq!(r.body.get("draining").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn cache_misses_dispatch_and_hits_stay_inline() {
        let shared = test_shared(false);
        let line = r#"{"spec":"worst:d=2,n=4","algo":"seq-solve"}"#;
        match process_line(line, &shared, Instant::now()) {
            Handled::Dispatch { cache_key, .. } => {
                assert_eq!(cache_key, "worst:d=2,n=4|seq-solve");
            }
            Handled::Inline(r) => panic!("miss must dispatch, got {r}"),
        }
        let hit = EvalOutcome {
            value: 1,
            work: 16,
            steps: 0,
            max_width: 1,
            pruned: 0,
        };
        shared.cache.insert("worst:d=2,n=4|seq-solve".into(), hit);
        match process_line(line, &shared, Instant::now()) {
            Handled::Inline(reply) => {
                let r = Response::parse(&reply).unwrap();
                assert!(r.ok);
                assert!(r.cached());
            }
            Handled::Dispatch { .. } => panic!("hit must answer inline"),
        }
        assert_eq!(shared.stats().u64("cache_hits"), 1);
        assert_eq!(shared.stats().u64("cache_misses"), 1);
    }

    #[test]
    fn subeval_round_trips_and_cache_is_window_scoped() {
        use gt_tree::split::sub_evaluate;
        use gt_tree::Value;
        let server = Server::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let (stream, mut reader) = connect(server.local_addr());

        // A windowed sub-eval matches the tree-layer reference.
        let spec = "minmax:d=3,n=5,seed=13";
        let want = sub_evaluate(&gt_tree::SubtreeSpec {
            spec: GenSpec::parse(spec).unwrap(),
            path: vec![1],
            alpha: -3,
            beta: 7,
        })
        .unwrap();
        let line = format!(
            r#"{{"op":"subeval","id":"w","spec":"{spec}","path":"1","alpha":-3,"beta":7}}"#
        );
        let r = send(&stream, &mut reader, &line);
        assert!(r.ok, "subeval failed: {:?}", r.error);
        assert_eq!(r.value(), Some(want.value));
        assert_eq!(r.leaves(), Some(want.leaves_evaluated));
        assert!(!r.cached());

        // The same triple again is a cache hit...
        let r = send(&stream, &mut reader, &line);
        assert!(r.ok && r.cached());

        // ...but the full-window probe of the same subtree is NOT
        // served by the narrow-window entry: it runs fresh and may
        // return a different (exact, not fail-soft) value.
        let full = format!(r#"{{"op":"subeval","id":"f","spec":"{spec}","path":"1"}}"#);
        let r = send(&stream, &mut reader, &full);
        assert!(r.ok, "{:?}", r.error);
        assert!(
            !r.cached(),
            "narrow-window result must not serve a wider probe"
        );
        let exact = sub_evaluate(&gt_tree::SubtreeSpec {
            spec: GenSpec::parse(spec).unwrap(),
            path: vec![1],
            alpha: Value::MIN,
            beta: Value::MAX,
        })
        .unwrap();
        assert_eq!(r.value(), Some(exact.value));

        // Bad path: 400, connection survives.
        let r = send(
            &stream,
            &mut reader,
            r#"{"op":"subeval","spec":"minmax:d=3,n=5","path":"9"}"#,
        );
        assert!(!r.ok);
        assert_eq!(r.status, 400);

        let r = send(&stream, &mut reader, r#"{"op":"stats"}"#);
        let stats = r.body.get("stats").unwrap();
        assert_eq!(
            stats.get("subeval_requests").and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(stats.get("subevals").and_then(Json::as_u64), Some(2));
        // Sub-evals land in their own stage bucket.
        assert!(stats.get("stages").and_then(|s| s.get("subeval")).is_some());

        server.request_shutdown();
        let snapshot = server.join();
        assert_eq!(snapshot.u64("subevals"), 2);
        assert_eq!(snapshot.u64("subeval_requests"), 4);
    }

    #[test]
    fn join_after_request_shutdown_reaps_everything() {
        let server = Server::start(Config::default()).unwrap();
        let addr = server.local_addr();
        let (stream, mut reader) = connect(addr);
        let r = send(
            &stream,
            &mut reader,
            r#"{"spec":"crit:d=2,n=4","algo":"round:w=2"}"#,
        );
        assert!(r.ok);
        server.request_shutdown();
        let snapshot = server.join();
        assert_eq!(snapshot.u64("ok"), 1);
        assert_eq!(snapshot.u64("connections"), 1);
    }

    #[test]
    fn pipelined_small_and_large_misses_all_get_replies() {
        // Two distinct small specs and a large one, pipelined on one
        // connection: the first small one runs on the I/O thread's
        // turn, the rest go to the one worker, and every reply arrives.
        let server = Server::start(Config {
            workers: 1,
            ..Config::default()
        })
        .unwrap();
        let (stream, mut reader) = connect(server.local_addr());
        let mut w = stream.try_clone().unwrap();
        for (i, spec) in ["worst:d=2,n=4", "worst:d=2,n=5", "worst:d=2,n=16"]
            .iter()
            .enumerate()
        {
            let line = format!(r#"{{"id":"{i}","spec":"{spec}","algo":"seq-solve"}}"#);
            w.write_all(line.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
        }
        w.flush().unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3 {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let r = Response::parse(reply.trim()).unwrap();
            assert!(r.ok, "{:?}", r.error);
            seen.insert(r.id.unwrap());
        }
        assert_eq!(seen.len(), 3);
        server.request_shutdown();
        let snapshot = server.join();
        assert_eq!(snapshot.u64("evaluated"), 3);
    }

    #[test]
    fn an_engine_panic_answers_500_and_keeps_its_thread() {
        let server = Server::start(Config {
            workers: 1,
            io_threads: 1,
            ..Config::default()
        })
        .unwrap();
        let (stream, mut reader) = connect(server.local_addr());
        let panic = |spec: &str| format!(r#"{{"spec":"{spec}","algo":"{PANIC_ALGO}"}}"#);
        // Below the grain it panics on the I/O thread, which lives on:
        // the next request on the connection is served.
        let r = send(&stream, &mut reader, &panic("worst:d=2,n=6"));
        assert_eq!((r.status, r.code.as_deref()), (500, Some("internal")));
        let r = send(
            &stream,
            &mut reader,
            r#"{"spec":"worst:d=2,n=7","algo":"seq-solve"}"#,
        );
        assert!(r.ok, "the I/O thread died: {:?}", r.error);
        // Above it, it panics on the sole eval worker, which lives on:
        // a large eval after it completes.
        let r = send(&stream, &mut reader, &panic("worst:d=2,n=13"));
        assert_eq!((r.status, r.code.as_deref()), (500, Some("internal")));
        let r = send(
            &stream,
            &mut reader,
            r#"{"spec":"worst:d=2,n=13","algo":"seq-solve","deadline_ms":5000}"#,
        );
        assert!(r.ok, "the eval worker died: {:?}", r.error);
        server.request_shutdown();
        let snapshot = server.join();
        assert_eq!(snapshot.u64("internal"), 2);
        assert_eq!(snapshot.u64("ok"), 2);
    }

    #[test]
    fn tagged_evals_land_on_the_tenant_card() {
        let server = Server::start(Config {
            workers: 2,
            tenant_max_inflight: 8,
            ..Config::default()
        })
        .unwrap();
        let (stream, mut reader) = connect(server.local_addr());
        // A miss and then a hit, both tagged: two requests, two oks.
        for _ in 0..2 {
            let r = send(
                &stream,
                &mut reader,
                r#"{"spec":"worst:d=2,n=6","algo":"seq-solve","tenant":"acme"}"#,
            );
            assert!(r.ok, "{:?}", r.error);
        }
        // An untagged request stays off every tenant card.
        let r = send(&stream, &mut reader, r#"{"spec":"worst:d=2,n=5"}"#);
        assert!(r.ok);

        let s = send(&stream, &mut reader, r#"{"op":"stats"}"#);
        let tenants = s.body.get("stats").and_then(|s| s.get("tenants")).unwrap();
        let acme = tenants.get("acme").expect("acme card in stats");
        assert_eq!(acme.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(acme.get("ok").and_then(Json::as_u64), Some(2));
        assert_eq!(acme.get("shed").and_then(Json::as_u64), Some(0));

        server.request_shutdown();
        let snapshot = server.join();
        let tenants = snapshot.get("tenants").unwrap();
        assert!(
            matches!(tenants, Json::Object(t) if t.len() == 1),
            "only named tenants tracked"
        );
        assert_eq!(snapshot.u64("tenants.acme.ok"), 2);
    }

    #[test]
    fn tenant_governor_sheds_at_cap_with_retry_hint() {
        let shared = Arc::new(Shared {
            governor: Arc::new(TenantGovernor::new(1)),
            ..test_shared(false)
        });
        // Occupy the tenant's only slot, as a dispatched-and-pending
        // request would.
        assert!(shared.governor.try_acquire("acme"));
        let reply = ConnReply::detached().unwrap();
        reply.claim_slot();
        let line = r#"{"id":"x","spec":"worst:d=2,n=4","algo":"seq-solve","tenant":"acme"}"#;
        let Handled::Dispatch {
            id,
            work,
            cache_key,
            cost,
            deadline,
            start,
            parse_us,
            probe_us,
            trace,
            tenant,
        } = process_line(line, &shared, Instant::now())
        else {
            panic!("miss must dispatch");
        };
        dispatch_eval(
            &shared, &reply, id, work, cache_key, cost, deadline, start, parse_us, probe_us, trace,
            tenant,
        );
        // The shed reply is already in the outbox: 429, with a hint.
        let front = reply.queued().into_iter().next().expect("shed reply");
        let r = Response::parse(front.trim()).unwrap();
        assert!(!r.ok);
        assert_eq!(r.status, 429);
        assert_eq!(r.code.as_deref(), Some("busy"));
        assert!(r.body.get("retry_after_ms").and_then(Json::as_u64).unwrap() >= 1);
        // The window slot came back and the ledger shows the shed.
        assert_eq!(reply.in_flight(), 0);
        let snap = shared.stats();
        assert_eq!(snap.u64("shed"), 1);
        assert!(matches!(snap.get("tenants"), Some(Json::Object(t)) if t.len() == 1));
        assert_eq!(snap.u64("tenants.acme.requests"), 1);
        assert_eq!(snap.u64("tenants.acme.shed"), 1);
        // Releasing the held slot reopens the tenant — nothing leaked.
        shared.governor.release("acme");
        assert!(shared.governor.try_acquire("acme"));
        shared.executor.shutdown();
    }

    #[test]
    fn snapshot_restores_the_cache_across_a_restart() {
        let path = std::env::temp_dir().join(format!(
            "gt-serve-restart-snapshot-{}.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let config = Config {
            workers: 2,
            snapshot_path: Some(path.to_string_lossy().into_owned()),
            ..Config::default()
        };

        let server = Server::start(config.clone()).unwrap();
        let (stream, mut reader) = connect(server.local_addr());
        let r = send(
            &stream,
            &mut reader,
            r#"{"spec":"worst:d=2,n=6","algo":"seq-solve"}"#,
        );
        assert!(r.ok);
        assert!(!r.cached());
        server.request_shutdown();
        server.join(); // writes the snapshot

        // The reborn server answers the same request from the restored
        // cache without running an engine.
        let server = Server::start(config).unwrap();
        let (stream, mut reader) = connect(server.local_addr());
        let r = send(
            &stream,
            &mut reader,
            r#"{"spec":"worst:d=2,n=6","algo":"seq-solve"}"#,
        );
        assert!(r.ok);
        assert!(r.cached(), "restored entry must hit");
        server.request_shutdown();
        let snapshot = server.join();
        assert_eq!(snapshot.u64("snapshot_restored"), 1);
        assert_eq!(snapshot.u64("cache_hits"), 1);
        assert_eq!(snapshot.u64("evaluated"), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replica_announces_and_warmfills_from_peers() {
        // A warm peer holding one cached result.
        let peer = Server::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let (stream, mut reader) = connect(peer.local_addr());
        let r = send(
            &stream,
            &mut reader,
            r#"{"spec":"worst:d=2,n=6","algo":"seq-solve"}"#,
        );
        assert!(r.ok);

        // A hand-rolled router: records the join, then answers health
        // with the warm peer as the only member.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let router_addr = listener.local_addr().unwrap().to_string();
        let peer_addr = peer.local_addr().to_string();
        let joins: Arc<Mutex<Vec<(String, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let router = {
            let joins = Arc::clone(&joins);
            thread::spawn(move || {
                for _ in 0..2 {
                    let Ok((stream, _)) = listener.accept() else {
                        return;
                    };
                    let mut rd = BufReader::new(stream.try_clone().unwrap());
                    let mut line = String::new();
                    if rd.read_line(&mut line).unwrap_or(0) == 0 {
                        continue;
                    }
                    let req = Request::parse(line.trim()).unwrap();
                    let mut w = stream;
                    let reply = match req.op {
                        Op::Join => {
                            joins.lock().unwrap().push((
                                req.addr.clone().unwrap(),
                                req.weight.unwrap(),
                                req.generation.unwrap(),
                            ));
                            ok_line(&req.id, vec![("action", Json::from("admitted"))])
                        }
                        Op::Health => ok_line(
                            &req.id,
                            vec![(
                                "members",
                                Json::Array(vec![Json::obj([(
                                    "addr",
                                    Json::from(peer_addr.as_str()),
                                )])]),
                            )],
                        ),
                        _ => panic!("unexpected op from announce thread"),
                    };
                    writeln!(w, "{reply}").unwrap();
                }
            })
        };

        let replica = Server::start(Config {
            workers: 2,
            announce: Some(router_addr),
            weight: 3,
            generation: 7,
            ..Config::default()
        })
        .unwrap();
        // The announce thread runs off the serving path; wait for the
        // warm-fill to land.
        let deadline = Instant::now() + Duration::from_secs(10);
        while replica.stats().u64("warmfill_entries") == 0 {
            assert!(Instant::now() < deadline, "warm-fill never arrived");
            thread::sleep(Duration::from_millis(10));
        }
        router.join().unwrap();
        assert_eq!(
            joins.lock().unwrap().as_slice(),
            &[(replica.local_addr().to_string(), 3, 7)],
            "announcement carries the advertised addr, weight, generation"
        );

        // The pulled entry answers without an engine run.
        let (stream, mut reader) = connect(replica.local_addr());
        let r = send(
            &stream,
            &mut reader,
            r#"{"spec":"worst:d=2,n=6","algo":"seq-solve"}"#,
        );
        assert!(r.ok);
        assert!(r.cached(), "warm-filled entry must hit");

        replica.request_shutdown();
        let snapshot = replica.join();
        assert_eq!(snapshot.u64("warmfill_entries"), 1);
        assert_eq!(snapshot.u64("evaluated"), 0);
        // The peer served exactly one cachepull.
        peer.request_shutdown();
        let snapshot = peer.join();
        assert_eq!(snapshot.u64("cachepull_served"), 1);
        assert_eq!(snapshot.u64("cachepull_entries"), 1);
    }
}
