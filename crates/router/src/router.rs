//! The routing tier itself: the router's handler on gt-serve's
//! connection loop, rendezvous routing, one pipelined connection per
//! replica, retry/hedge pacing, and lifecycle (spawned replicas,
//! probes, graceful drain).
//!
//! ## Data path
//!
//! Client connections run on [`gt_serve::eventloop`], the loop
//! `gtree serve` runs, with the same contract: a connection's reads
//! stop while its window or outbox is full, replies are enqueued by
//! whichever thread settles them and written only by the connection's
//! own I/O thread, and a connection whose queued replies reach the
//! outbox cap is closed.  A client speaks the same NDJSON protocol as
//! `gt-serve`.  Each `eval` is validated at the edge (bad requests
//! never cost an upstream round trip), keyed by its canonical cache
//! key, and routed along the key's rendezvous order re-sorted by
//! health tier.  The request is relayed on the replica's one
//! connection with a globally unique numeric id; replies are matched
//! back to their [`Relay`], rewritten to carry the client's original
//! id (plus `replica`, `retries`, `hedged` annotations), and queued
//! for the client.  One request may have several upstream copies in
//! flight (a hedge, or a retry racing a slow first attempt); the first
//! reply wins via an atomic claim and the rest are discarded.
//!
//! Replica connections run on the same loop and the same two I/O
//! threads, adopted as outbound connections: a send only enqueues, so
//! no thread ever waits on a replica.  A request that finds no
//! connected replica with window room waits (a timer, [`ROOM_WAIT`])
//! while some member of its route is routable, and is shed only when
//! none is.
//!
//! ## Control path
//!
//! A background prober drives each replica's health machine (see
//! [`crate::health`] — data-path errors never touch health) and, after
//! a probe that succeeds, reconnects a member whose connection is
//! down.  Deferred retries, hedges, re-sends of waiting requests, and
//! a last-resort expiry for every relay and every split plan are
//! timers on the client's connection ([`ConnReply::schedule`]): each
//! fires on that connection's I/O thread, so what it answers leaves
//! with no wake.  When a replica's connection closes, its close notice
//! re-dispatches every request orphaned on it.

use crate::hash;
use crate::health::{tier_route, HealthMachine, HealthPolicy};
use crate::membership::{self, JoinAction, RoutingTable};
use crate::metrics::{ReplicaCounters, RouterMetrics, RouterView, ROUTER_FAMILIES};
use crate::split::{plan_levels, Dispatch, Effects, FailKind, Outcome, SplitConfig, SplitMachine};
use crate::trace::{SpanRecorder, TraceHandle, ROOT_SPAN};
use gt_analysis::Json;
use gt_serve::deadline::Answerable;
use gt_serve::eventloop::{ConnCounters, ConnReply, IoLoop, LineHandler, LoopConfig, Timer};
use gt_serve::protocol::{
    error_line, error_line_with, ok_line, ErrorCode, Op, Request, Response, TraceContext,
    PROTOCOL_VERSION,
};
use gt_serve::registry::{prometheus_text, stats_json, Stats};
use gt_serve::workload;
use gt_tree::split::{path_text, SubtreeSpec};
use gt_tree::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a request that found no connected upstream with room
/// waits before it walks its route again: a tenth of the default probe
/// interval, within which a replica that comes back is reconnected.
const ROOM_WAIT: Duration = Duration::from_millis(10);

/// The router's own 408: a deadline passed with no upstream answer.
const EXPIRED: &str = "deadline expired in router";

/// Slack past a relay's deadline before the router answers `timeout`
/// locally.  Within the slack the upstream — which was handed the same
/// deadline — gets to deliver its own, more informative, timeout.
const EXPIRE_GRACE: Duration = Duration::from_millis(100);

/// Algorithm used when an eval names none (mirrors gt-serve).
const DEFAULT_ALGO: &str = "cascade:w=1";

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address for the client listener; port 0 for ephemeral.
    pub addr: String,
    /// Upstream replica addresses (`host:port`).
    pub replicas: Vec<String>,
    /// Number of in-process `gt-serve` replicas to spawn on ephemeral
    /// ports, in addition to `replicas`.
    pub spawn: usize,
    /// Configuration template for spawned replicas (its `addr` is
    /// ignored; each replica binds `127.0.0.1:0`).
    pub spawn_config: gt_serve::Config,
    /// Requests in flight on a replica's connection; the router's side
    /// of gt-serve's `--conn-window` contract.
    pub conn_window: usize,
    /// Requests in flight per client connection.
    pub client_window: usize,
    /// Scheduled failover retries per request (inline skips over dead
    /// replicas are not budgeted — they are how a live one is found).
    pub retries: u32,
    /// Hedge a request still unanswered after this many milliseconds
    /// against the next replica in route order; `None` disables.
    pub hedge_ms: Option<u64>,
    /// Base backoff before a busy-retry, doubled per retry, capped at
    /// 250ms; the upstream's `retry_after_ms` hint overrides it.
    pub backoff_ms: u64,
    /// Health probe period.
    pub probe_interval_ms: u64,
    /// Health probe connect/read timeout.
    pub probe_timeout_ms: u64,
    /// Deadline applied to evals that do not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Bind address for the Prometheus `/metrics` listener; `None`
    /// disables it.
    pub metrics_addr: Option<String>,
    /// Health state-machine thresholds.
    pub health: HealthPolicy,
    /// Scatter-gather split planning (see [`crate::split`]).
    pub split: SplitConfig,
    /// Fraction of requests traced when the client supplies no trace
    /// context (`0` disables tracing, `1` traces everything).  A
    /// client-supplied `trace` object is always honoured whenever this
    /// is above zero.  Defaults to 1-in-20: span trees cost a few
    /// microseconds of router CPU per request, which saturated
    /// cached-hit traffic would otherwise pay on every single reply
    /// (the `trace_overhead` scenario in scripts/bench_serve.sh holds
    /// the default under a 3% p50 budget).
    pub trace_sample: f64,
    /// Finished span trees kept for `op:"trace"`.
    pub trace_ring: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            replicas: Vec::new(),
            spawn: 0,
            spawn_config: gt_serve::Config::default(),
            conn_window: 32,
            client_window: 32,
            retries: 3,
            hedge_ms: None,
            backoff_ms: 2,
            probe_interval_ms: 100,
            probe_timeout_ms: 250,
            default_deadline_ms: 10_000,
            metrics_addr: None,
            health: HealthPolicy::default(),
            split: SplitConfig::default(),
            trace_sample: 0.05,
            trace_ring: 256,
        }
    }
}

// ---------------------------------------------------------------------------
// Upstream state.
// ---------------------------------------------------------------------------

/// A replica's one pipelined connection as senders see it.
#[derive(Default)]
struct Upstream {
    /// The write half on the loop; `None` while disconnected, until
    /// the prober reconnects.
    conn: Option<Arc<ConnReply>>,
    /// Upstream sequence ids awaiting a reply, and what awaits each.
    pending: HashMap<u64, PendingReply>,
}

/// What an upstream sequence id resolves to: a whole client request
/// being relayed, or one subeval of a split plan.
enum PendingReply {
    Whole(Arc<Relay>),
    Sub(Arc<SubFlight>),
}

/// One replica: its address, connection, health trajectory, and
/// data-path counters.
pub(crate) struct Replica {
    idx: usize,
    pub(crate) addr: String,
    upstream: Mutex<Upstream>,
    pub(crate) health: Mutex<HealthMachine>,
    pub(crate) counters: ReplicaCounters,
    /// Routing weight under weighted rendezvous hashing; updated in
    /// place by `join` announcements (see [`crate::membership`]).
    pub(crate) weight: AtomicU64,
    /// Last generation this member announced (0 for static seeds).
    pub(crate) generation: AtomicU64,
    /// When the prober last finished a round trip against this
    /// replica, in `RouterMetrics::uptime_us` units; `u64::MAX`
    /// until the first probe completes.
    pub(crate) last_probe_us: AtomicU64,
}

impl Replica {
    fn new(idx: usize, addr: String, health: HealthPolicy, weight: u64) -> Replica {
        Replica {
            idx,
            addr,
            upstream: Mutex::default(),
            health: Mutex::new(HealthMachine::new(health)),
            counters: ReplicaCounters::default(),
            weight: AtomicU64::new(weight),
            generation: AtomicU64::new(0),
            last_probe_us: AtomicU64::new(u64::MAX),
        }
    }

    pub(crate) fn tier(&self) -> u8 {
        self.health.lock().unwrap().state().tier()
    }

    /// Not ejected: routing still prefers it over an ejected member.
    fn routable(&self) -> bool {
        self.tier() < 3
    }

    pub(crate) fn inflight(&self) -> u64 {
        self.upstream().pending.len() as u64
    }

    /// Whether the router holds this member's write half.
    pub(crate) fn connected(&self) -> bool {
        self.upstream().conn.is_some()
    }

    fn upstream(&self) -> MutexGuard<'_, Upstream> {
        self.upstream.lock().expect("upstream holders never panic")
    }
}

/// Where an upstream copy of a relay currently lives.
struct OutstandingEntry {
    replica: usize,
    seq: u64,
    is_hedge: bool,
    /// The dispatch span covering this copy; `0` when untraced.
    span: u64,
}

/// One client request in flight through the router.  Shared by the
/// client's I/O thread (creation, and its timers: retries, hedges,
/// expiry) and the replica connections' I/O threads (replies);
/// `answered` is the single claim that guarantees exactly one reply
/// line reaches the client.
struct Relay {
    client_id: Option<String>,
    /// What every attempt sends upstream, less its `id`, `deadline_ms`
    /// and `trace`: an `eval` or `subeval` carrying the canonical
    /// strings that formed the routing key, so every replica computes
    /// the identical cache key, and the client's tenant, so replica-
    /// side fair scheduling sees the tenant the client declared.
    upstream: Request,
    start: Instant,
    deadline: Instant,
    /// Replica indices in routing preference order.
    route: Vec<usize>,
    /// Next position in `route` to try (monotone; wraps via modulo).
    cursor: AtomicUsize,
    retries: AtomicU32,
    hedged: AtomicBool,
    answered: AtomicBool,
    outstanding: Mutex<Vec<OutstandingEntry>>,
    /// The client connection's reply queue and window slot.
    conn: Arc<ConnReply>,
    /// The request's span tree, when it is being traced.
    trace: Option<Arc<TraceHandle>>,
}

impl Relay {
    /// Claim the right to answer; at most one caller ever wins.
    fn try_claim(&self) -> bool {
        !self.answered.swap(true, Ordering::SeqCst)
    }

    fn remove_outstanding(&self, seq: u64) -> Option<OutstandingEntry> {
        let mut out = self.outstanding.lock().unwrap();
        out.iter()
            .position(|e| e.seq == seq)
            .map(|i| out.swap_remove(i))
    }
}

// ---------------------------------------------------------------------------
// Timers: deferred actions on the client's connection.
// ---------------------------------------------------------------------------

/// What a timer fires on.
enum Target {
    /// Launch a relay's hedge copy if it is still unanswered.
    Hedge(Weak<Relay>),
    /// Last resort: answer a relay `timeout` locally, so the client
    /// window is always released, even with a wedged upstream.
    Expire(Weak<Relay>),
    /// A relay to dispatch again: after a busy backoff, or once it has
    /// waited for a connected upstream with room.  The timer owns the
    /// relay until then.
    Resend(Arc<Relay>, AttemptKind),
    /// A split plan's deadline: fail it with `timeout` if unanswered.
    Plan(Weak<ActivePlan>),
    /// A subeval waiting for a connected upstream with room: send it
    /// again.  The timer owns the subeval until then.
    Sub(Arc<SubFlight>),
}

/// A [`Target`] due at some instant, scheduled on the connection of
/// the client it answers, so it fires on that client's I/O thread.
struct Deferred {
    inner: Arc<Inner>,
    target: Target,
}

impl Answerable for Deferred {
    fn answered(&self) -> bool {
        match &self.target {
            Target::Hedge(relay) | Target::Expire(relay) => relay
                .upgrade()
                .is_none_or(|r| r.answered.load(Ordering::SeqCst)),
            Target::Resend(relay, _) => relay.answered.load(Ordering::SeqCst),
            Target::Plan(plan) => plan
                .upgrade()
                .is_none_or(|p| p.answered.load(Ordering::SeqCst)),
            Target::Sub(sf) => sf.plan.answered.load(Ordering::SeqCst),
        }
    }
}

impl Timer for Deferred {
    fn fire(self: Box<Self>) {
        let Deferred { inner, target } = *self;
        match target {
            Target::Hedge(relay) => {
                if let Some(relay) = relay.upgrade() {
                    if !relay.hedged.swap(true, Ordering::SeqCst) {
                        RouterMetrics::bump(&inner.metrics.hedges);
                        dispatch_attempt(&inner, &relay, AttemptKind::Hedge);
                    }
                }
            }
            Target::Expire(relay) => {
                if let Some(relay) = relay.upgrade() {
                    settle_local(&inner, &relay, ErrorCode::Timeout, EXPIRED, Vec::new());
                }
            }
            Target::Resend(relay, kind) => dispatch_attempt(&inner, &relay, kind),
            Target::Plan(plan) => {
                if let Some(plan) = plan.upgrade() {
                    fail_plan(&inner, &plan, FailKind::Timeout, EXPIRED);
                }
            }
            Target::Sub(sf) => resend_sub(&inner, &sf),
        }
    }
}

/// Fire `target` at `due` on the I/O thread of `conn`, the connection
/// of the client it answers.
fn defer(inner: &Arc<Inner>, conn: &ConnReply, due: Instant, target: Target) {
    let inner = Arc::clone(inner);
    conn.schedule(due, Box::new(Deferred { inner, target }));
}

// ---------------------------------------------------------------------------
// Shared router state.
// ---------------------------------------------------------------------------

pub(crate) struct Inner {
    config: RouterConfig,
    /// The append-only member list.  Swapped whole (never mutated in
    /// place) so every reader takes one `Arc` snapshot; raw replica
    /// indices carried by relays and split plans stay valid across
    /// joins because members are only ever appended.
    replicas: RwLock<Arc<Vec<Arc<Replica>>>>,
    /// `(addr, weight)` pairs routing hashes over; rebuilt from the
    /// member list on every membership change.
    pub(crate) table: RoutingTable,
    /// Serializes membership changes; the data path never takes it.
    member_lock: Mutex<()>,
    /// `join` announcements from new addresses, each with the window
    /// slot of the connection it came on, for the prober to admit.
    joins: Mutex<Vec<(Request, Arc<ConnReply>)>>,
    pub(crate) metrics: RouterMetrics,
    pub(crate) recorder: SpanRecorder,
    seq: AtomicU64,
    /// Client-facing drain flag: stop accepting, reject new evals.
    draining: AtomicBool,
    /// Second shutdown phase: stop the prober.
    stop_probe: AtomicBool,
    /// The prober's thread, unparked to start a round at once.
    prober: OnceLock<std::thread::Thread>,
}

impl Inner {
    /// The current member list.  Holders keep whatever snapshot they
    /// took; a concurrent join never perturbs it.
    pub(crate) fn members(&self) -> Arc<Vec<Arc<Replica>>> {
        Arc::clone(&self.replicas.read().unwrap())
    }
}

/// Compute a key's routing order: weighted rendezvous rank over the
/// routing table, stable-sorted by health tier so healthier replicas
/// come first but hash affinity survives within a tier.
fn route_for(key: &str, table: &[(String, u64)], tiers: &[u8]) -> Vec<usize> {
    tier_route(&hash::rank_weighted(key, table), tiers)
}

/// One coherent routing view: the `(addr, weight)` table snapshot and
/// the matching health tiers.  The member list is read *after* the
/// table and truncated to it — a join appends to the member list
/// before swapping the table in, so the list is never the shorter of
/// the two.
fn routing_view(inner: &Inner) -> (Arc<Vec<(String, u64)>>, Vec<u8>) {
    let table = inner.table.snapshot();
    let reps = inner.members();
    let tiers = reps.iter().take(table.len()).map(|r| r.tier()).collect();
    (table, tiers)
}

/// Record the routing decision as an instantaneous span: the chosen
/// candidate order, each annotated with its health tier.
fn record_route_span(h: &TraceHandle, route: &[usize], table: &[(String, u64)], tiers: &[u8]) {
    let label = route
        .iter()
        .map(|&i| format!("{}(t{})", table[i].0, tiers[i]))
        .collect::<Vec<_>>()
        .join(" > ");
    h.event(ROOT_SPAN, "route", label, "ok");
}

/// Rebuild an upstream reply line for the client: drop the upstream
/// sequence id, restore the client's id (right after `ok`, where
/// gt-serve puts it), and annotate with the answering replica plus
/// retry/hedge provenance.  Pure for testability.
fn rewrite_reply(
    body: &Json,
    client_id: &Option<String>,
    replica_addr: &str,
    retries: u32,
    hedged: bool,
    trace_id: Option<&str>,
) -> String {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    if let Json::Object(fields) = body {
        for (k, v) in fields {
            if k == "id" {
                continue;
            }
            pairs.push((k.clone(), v.clone()));
            if k == "ok" {
                if let Some(id) = client_id {
                    pairs.push(("id".into(), Json::from(id.clone())));
                }
            }
        }
    }
    pairs.push(("replica".into(), Json::from(replica_addr)));
    if retries > 0 {
        pairs.push(("retries".into(), Json::from(u64::from(retries))));
    }
    if hedged {
        pairs.push(("hedged".into(), Json::Bool(true)));
    }
    if let Some(id) = trace_id {
        pairs.push(("trace_id".into(), Json::from(id)));
    }
    Json::Object(pairs).render()
}

/// Detail copied from an upstream reply onto its dispatch span: the
/// answering replica, the replica's stage-offset echo, and its work
/// counters (leaves, steps, width, pruned) when present.
fn span_detail_from(resp: &Response, replica_addr: &str) -> Vec<(String, Json)> {
    let mut extra = vec![("replica".into(), Json::from(replica_addr))];
    if let Some(stages) = resp.body.get("trace").and_then(|t| t.get("stages")) {
        extra.push(("stages".into(), stages.clone()));
    }
    if let Some(work) = resp.body.get("work") {
        extra.push(("work".into(), work.clone()));
    }
    extra
}

// ---------------------------------------------------------------------------
// Settling: exactly one reply per relay.
// ---------------------------------------------------------------------------

/// Remove every upstream copy of `relay` from the pending maps so a
/// late duplicate reply is counted stale instead of re-settling.
fn cleanup_outstanding(inner: &Inner, relay: &Relay) {
    let entries: Vec<OutstandingEntry> = std::mem::take(&mut *relay.outstanding.lock().unwrap());
    let reps = inner.members();
    for e in entries {
        reps[e.replica].upstream().pending.remove(&e.seq);
    }
}

/// Forward an upstream reply (ok or non-retryable error) to the
/// client, if this copy wins the claim.
fn settle_forward(
    inner: &Inner,
    relay: &Relay,
    replica: &Replica,
    resp: &Response,
    is_hedge: bool,
    span: u64,
) {
    let status = if resp.ok { "ok" } else { "error" };
    if !relay.try_claim() {
        // This copy lost the race: its span records the wasted work.
        if let Some(h) = &relay.trace {
            if span != 0 {
                h.end_with(span, "discarded", span_detail_from(resp, &replica.addr));
            }
        }
        if relay.hedged.load(Ordering::SeqCst) {
            RouterMetrics::bump(&inner.metrics.hedge_losers);
        }
        return;
    }
    if is_hedge {
        RouterMetrics::bump(&inner.metrics.hedge_wins);
    }
    cleanup_outstanding(inner, relay);
    if let Some(h) = &relay.trace {
        if span != 0 {
            h.end_with(span, status, span_detail_from(resp, &replica.addr));
        }
        h.end(ROOT_SPAN, status);
        inner.recorder.finish(h);
    }
    let line = rewrite_reply(
        &resp.body,
        &relay.client_id,
        &replica.addr,
        relay.retries.load(Ordering::SeqCst),
        relay.hedged.load(Ordering::SeqCst),
        relay.trace.as_ref().map(|h| h.trace_id.as_str()),
    );
    relay.conn.enqueue(&line);
    if resp.ok {
        RouterMetrics::bump(&inner.metrics.ok);
        inner
            .metrics
            .route_latency
            .record(relay.start.elapsed().as_micros() as u64);
    } else {
        RouterMetrics::bump(&inner.metrics.forwarded_errors);
    }
    relay.conn.release_slot();
}

/// Answer the client from the router itself (shed/timeout/draining).
fn settle_local(
    inner: &Inner,
    relay: &Relay,
    code: ErrorCode,
    message: &str,
    mut extra: Vec<(&'static str, Json)>,
) {
    if !relay.try_claim() {
        return;
    }
    cleanup_outstanding(inner, relay);
    let status = match code {
        ErrorCode::Busy => "busy",
        ErrorCode::Timeout => "timeout",
        ErrorCode::Draining => "draining",
        _ => "error",
    };
    if let Some(h) = &relay.trace {
        if matches!(code, ErrorCode::Timeout) {
            // The local 408 backstop: upstream never answered in time.
            h.event(ROOT_SPAN, "expire", message.to_string(), status);
        }
        h.end(ROOT_SPAN, status);
        inner.recorder.finish(h);
        extra.push(("trace_id", Json::from(h.trace_id.clone())));
    }
    relay
        .conn
        .enqueue(&error_line_with(&relay.client_id, code, message, extra));
    match code {
        ErrorCode::Busy => RouterMetrics::bump(&inner.metrics.shed),
        ErrorCode::Timeout => RouterMetrics::bump(&inner.metrics.expired),
        ErrorCode::Draining => RouterMetrics::bump(&inner.metrics.draining),
        _ => {}
    }
    relay.conn.release_slot();
}

/// Out of candidates: shed, unless another copy is still racing.
fn fail_unrouted(inner: &Inner, relay: &Relay) {
    if !relay.outstanding.lock().unwrap().is_empty() {
        return;
    }
    RouterMetrics::bump(&inner.metrics.unrouted);
    settle_local(
        inner,
        relay,
        ErrorCode::Busy,
        "no routable replica",
        vec![("retry_after_ms", Json::from(inner.config.backoff_ms.max(1)))],
    );
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum AttemptKind {
    Initial,
    Retry,
    Hedge,
}

impl AttemptKind {
    fn span_kind(self) -> &'static str {
        match self {
            AttemptKind::Initial => "dispatch",
            AttemptKind::Retry => "retry",
            AttemptKind::Hedge => "hedge",
        }
    }

    fn is_hedge(self) -> bool {
        matches!(self, AttemptKind::Hedge)
    }
}

/// Try to place one upstream copy of `relay`, walking its route from
/// the cursor.  The first candidate of an Initial or Hedge attempt is
/// free; every further candidate — reached because the previous one
/// was disconnected or full — counts as a retry, as does the whole of
/// a scheduled Retry attempt.  So `retries` reflects every time the
/// request moved because the fleet made it move; it is counted when
/// the copy is placed, so a walk that places nothing counts nothing.
///
/// A walk that places nothing leaves the request to a copy still
/// racing, if there is one (a hedge is then simply not sent).
/// Otherwise the request waits [`ROOM_WAIT`] and walks again while
/// some member of its route is routable, as a subeval does, and is
/// shed once none is.
fn dispatch_attempt(inner: &Arc<Inner>, relay: &Arc<Relay>, kind: AttemptKind) {
    if relay.answered.load(Ordering::SeqCst) {
        return;
    }
    if Instant::now() >= relay.deadline {
        settle_local(inner, relay, ErrorCode::Timeout, EXPIRED, Vec::new());
        return;
    }
    let reps = inner.members();
    let len = relay.route.len();
    for iter in 0..len {
        let pos = relay.cursor.fetch_add(1, Ordering::SeqCst) % len;
        let replica = &reps[relay.route[pos]];
        let moves = iter as u32 + u32::from(matches!(kind, AttemptKind::Retry));
        let placed = send_upstream(
            inner,
            replica,
            PendingReply::Whole(Arc::clone(relay)),
            |seq| {
                if moves > 0 {
                    relay.retries.fetch_add(moves, Ordering::SeqCst);
                    inner
                        .metrics
                        .retries
                        .fetch_add(u64::from(moves), Ordering::Relaxed);
                }
                // One span per wire attempt.
                let span = match &relay.trace {
                    Some(h) => h.span(ROOT_SPAN, kind.span_kind(), replica.addr.clone()),
                    None => 0,
                };
                relay.outstanding.lock().unwrap().push(OutstandingEntry {
                    replica: replica.idx,
                    seq,
                    is_hedge: kind.is_hedge(),
                    span,
                });
                let remaining = relay
                    .deadline
                    .saturating_duration_since(Instant::now())
                    .as_millis() as u64;
                Request {
                    id: Some(seq.to_string()),
                    deadline_ms: Some(remaining.max(1)),
                    trace: relay.trace.as_ref().map(|h| TraceContext {
                        trace_id: h.trace_id.clone(),
                        parent_span: Some(span),
                    }),
                    ..relay.upstream.clone()
                }
                .render()
            },
        );
        if placed {
            return;
        }
    }
    if kind.is_hedge() || !relay.outstanding.lock().unwrap().is_empty() {
        return;
    }
    if relay.route.iter().any(|&i| reps[i].routable()) {
        let resend = Target::Resend(Arc::clone(relay), kind);
        defer(inner, &relay.conn, Instant::now() + ROOM_WAIT, resend);
        return;
    }
    fail_unrouted(inner, relay);
}

/// Put one request on `replica`'s connection, if it is connected and
/// has window room; a send that finds it down counts as a transport
/// failure.  Under the connection's lock, `stage` gets the
/// request's fresh upstream id: it records the copy where its owner
/// looks for it and renders the line.  The pending entry goes in under
/// the same lock, so from then on the connection's close notice owns
/// the request (see [`conn_died`]), and the send itself only enqueues.
fn send_upstream(
    inner: &Inner,
    replica: &Replica,
    entry: PendingReply,
    stage: impl FnOnce(u64) -> String,
) -> bool {
    let (conn, line) = {
        let mut up = replica.upstream();
        let Some(conn) = up.conn.clone() else {
            ReplicaCounters::bump(&replica.counters.transport);
            return false;
        };
        if up.pending.len() >= inner.config.conn_window.max(1) {
            return false;
        }
        let seq = inner.seq.fetch_add(1, Ordering::SeqCst) + 1;
        let line = stage(seq);
        up.pending.insert(seq, entry);
        (conn, line)
    };
    if conn.enqueue(&line) {
        ReplicaCounters::bump(&replica.counters.sent);
    }
    true
}

/// Schedule a deferred re-dispatch after a busy reply, biased by the
/// upstream's own estimate of when its backlog will have drained.
fn schedule_retry(inner: &Arc<Inner>, relay: &Arc<Relay>, hint_ms: Option<u64>) {
    if relay.answered.load(Ordering::SeqCst) {
        return;
    }
    let n = relay.retries.load(Ordering::SeqCst);
    if n >= inner.config.retries {
        fail_unrouted(inner, relay);
        return;
    }
    let backoff = hint_ms
        .unwrap_or(inner.config.backoff_ms << n.min(4))
        .clamp(1, 250);
    let due = Instant::now() + Duration::from_millis(backoff);
    if due >= relay.deadline {
        settle_local(inner, relay, ErrorCode::Timeout, EXPIRED, Vec::new());
        return;
    }
    let retry = Target::Resend(Arc::clone(relay), AttemptKind::Retry);
    defer(inner, &relay.conn, due, retry);
}

/// Put a freshly built relay in flight: schedule its expiry (and
/// hedge) on the client's connection, then make the first attempt.
fn launch_relay(inner: &Arc<Inner>, relay: &Arc<Relay>) {
    let expire = Target::Expire(Arc::downgrade(relay));
    defer(inner, &relay.conn, relay.deadline + EXPIRE_GRACE, expire);
    if let Some(hedge_ms) = inner.config.hedge_ms {
        if relay.route.len() > 1 {
            let hedge = Target::Hedge(Arc::downgrade(relay));
            defer(
                inner,
                &relay.conn,
                relay.start + Duration::from_millis(hedge_ms),
                hedge,
            );
        }
    }
    dispatch_attempt(inner, relay, AttemptKind::Initial);
}

// ---------------------------------------------------------------------------
// Split plans: scatter-gather evaluation across the fleet.
// ---------------------------------------------------------------------------

/// One split plan in flight: the pure [`SplitMachine`] plus everything
/// the router needs to answer the client exactly once.  The machine
/// holds all evaluation state; this wrapper only does I/O bookkeeping.
struct ActivePlan {
    client_id: Option<String>,
    /// Canonical spec text (no path, no window) — the stable part of
    /// every subeval routing key and upstream request.
    spec_text: String,
    machine: Mutex<SplitMachine>,
    answered: AtomicBool,
    start: Instant,
    deadline: Instant,
    depth: usize,
    naive: bool,
    /// The client connection's reply queue and window slot.
    conn: Arc<ConnReply>,
    /// The request's span tree, when it is being traced.
    trace: Option<Arc<TraceHandle>>,
    /// The `split` span every subeval span parents to; `0` untraced.
    split_span: u64,
}

impl ActivePlan {
    /// Claim the right to answer; at most one caller ever wins.
    fn try_claim(&self) -> bool {
        !self.answered.swap(true, Ordering::SeqCst)
    }
}

/// One subeval of a split plan on the wire.  Routing state mirrors a
/// [`Relay`]'s, but under the paper's no-abort rule there is never
/// more than one live copy: the router never hedges a subeval and
/// never sends abort traffic — a loser is simply skipped before
/// dispatch or discarded on arrival.
struct SubFlight {
    plan: Arc<ActivePlan>,
    level: usize,
    child: usize,
    /// Replica indices in routing preference order for this subtree.
    route: Vec<usize>,
    /// Next position in `route` (monotone; wraps via modulo), so a
    /// re-dispatch walks on down the hash order.
    cursor: AtomicUsize,
    /// Busy-retry budget consumed (transport skips are unbudgeted).
    busy_retries: AtomicU32,
    /// The span covering the current wire copy (`0` when none); a
    /// re-dispatch replaces it — subevals never have two live copies.
    span: AtomicU64,
}

/// Answer the plan's client exactly once and release the window slot.
fn answer_plan(inner: &Inner, plan: &ActivePlan, outcome: &Outcome) {
    if !plan.try_claim() {
        return;
    }
    match outcome {
        Outcome::Value {
            value,
            work,
            subevals,
        } => {
            if let Some(h) = &plan.trace {
                h.end(plan.split_span, "ok");
                h.end(ROOT_SPAN, "ok");
                inner.recorder.finish(h);
            }
            let mut fields = vec![
                ("value", Json::from(*value)),
                (
                    "work",
                    Json::Object(vec![("leaves".into(), Json::from(*work))]),
                ),
                ("cached", Json::Bool(false)),
                (
                    "split",
                    Json::Object(vec![
                        ("depth".into(), Json::from(plan.depth)),
                        ("subevals".into(), Json::from(*subevals)),
                        ("naive".into(), Json::Bool(plan.naive)),
                    ]),
                ),
                (
                    "latency_us",
                    Json::from(plan.start.elapsed().as_micros() as u64),
                ),
            ];
            if let Some(h) = &plan.trace {
                fields.push(("trace_id", Json::from(h.trace_id.clone())));
            }
            plan.conn.enqueue(&ok_line(&plan.client_id, fields));
            RouterMetrics::bump(&inner.metrics.ok);
            inner
                .metrics
                .route_latency
                .record(plan.start.elapsed().as_micros() as u64);
        }
        Outcome::Fail { kind, message } => {
            let code = match kind {
                FailKind::Busy => ErrorCode::Busy,
                FailKind::Timeout => ErrorCode::Timeout,
                FailKind::Internal => ErrorCode::Internal,
            };
            let status = match kind {
                FailKind::Busy => "busy",
                FailKind::Timeout => "timeout",
                FailKind::Internal => "error",
            };
            let mut extra: Vec<(&'static str, Json)> = Vec::new();
            if let Some(h) = &plan.trace {
                if matches!(kind, FailKind::Timeout) {
                    h.event(ROOT_SPAN, "expire", message.to_string(), status);
                }
                h.end(plan.split_span, status);
                h.end(ROOT_SPAN, status);
                inner.recorder.finish(h);
                extra.push(("trace_id", Json::from(h.trace_id.clone())));
            }
            plan.conn
                .enqueue(&error_line_with(&plan.client_id, code, message, extra));
            match code {
                ErrorCode::Busy => RouterMetrics::bump(&inner.metrics.shed),
                ErrorCode::Timeout => RouterMetrics::bump(&inner.metrics.expired),
                _ => RouterMetrics::bump(&inner.metrics.forwarded_errors),
            }
        }
    }
    plan.conn.release_slot();
}

/// Fail the plan: feed the machine (so late arrivals count as
/// discards) and answer the client.
fn fail_plan(inner: &Arc<Inner>, plan: &Arc<ActivePlan>, kind: FailKind, message: &str) {
    let fx = plan.machine.lock().unwrap().on_fail(kind, message);
    apply_effects(inner, plan, fx);
}

/// Carry out what a machine event asked for: cutoff counters, new
/// subeval dispatches, or the terminal answer.  Always called with the
/// machine lock released — dispatch does socket writes.
fn apply_effects(inner: &Arc<Inner>, plan: &Arc<ActivePlan>, fx: Effects) {
    if fx.skipped > 0 {
        inner
            .metrics
            .subevals_skipped_on_cutoff
            .fetch_add(fx.skipped, Ordering::Relaxed);
        if let Some(h) = &plan.trace {
            h.event(
                plan.split_span,
                "skip",
                format!("cutoff skipped {} undispatched sibling(s)", fx.skipped),
                "skipped",
            );
        }
    }
    if fx.discarded > 0 {
        inner
            .metrics
            .subevals_discarded_on_cutoff
            .fetch_add(fx.discarded, Ordering::Relaxed);
        if let Some(h) = &plan.trace {
            h.event(
                plan.split_span,
                "discard",
                format!("cutoff discarded {} in-flight result(s)", fx.discarded),
                "discarded",
            );
        }
    }
    if let Some(outcome) = fx.done {
        // Dispatches staged by the same event are moot: the plan has
        // its answer, and the no-abort rule means nothing to cancel.
        answer_plan(inner, plan, &outcome);
        return;
    }
    for d in fx.dispatch {
        dispatch_new_sub(inner, plan, d);
    }
}

/// Route one fresh subeval by rendezvous hash on its subtree key and
/// put it on the wire.
fn dispatch_new_sub(inner: &Arc<Inner>, plan: &Arc<ActivePlan>, d: Dispatch) {
    // The routing key deliberately omits the window: re-dispatches
    // re-stamp the window from the live aggregator, and the subtree
    // keeps its replica (cache) affinity across that.
    let key = format!("sub:{}#{}", plan.spec_text, path_text(&d.sub.path));
    let (table, tiers) = routing_view(inner);
    let route = route_for(&key, &table, &tiers);
    let sf = Arc::new(SubFlight {
        plan: Arc::clone(plan),
        level: d.level,
        child: d.child,
        route,
        cursor: AtomicUsize::new(0),
        busy_retries: AtomicU32::new(0),
        span: AtomicU64::new(0),
    });
    send_sub(inner, &sf, &d.sub, "subeval");
}

/// Walk the subflight's route from its cursor until a replica takes
/// the subeval; once the plan is answered, nothing more goes out.
/// When no member has a connected upstream with window room, the
/// subeval waits [`ROOM_WAIT`] and tries again (see [`resend_sub`]) as
/// long as some member of its route is routable.  Once none is, the
/// whole plan fails — a missing child value cannot be folded around.
fn send_sub(inner: &Arc<Inner>, sf: &Arc<SubFlight>, sub: &SubtreeSpec, kind: &'static str) {
    if sf.plan.answered.load(Ordering::SeqCst) {
        if kind == "subeval" {
            // A first dispatch the plan's answer overtook (a naive plan
            // stages every child at once): it never reaches a replica,
            // so it counts as skipped, like a sibling a cutoff skips.
            RouterMetrics::bump(&inner.metrics.subevals_skipped_on_cutoff);
        }
        return;
    }
    let reps = inner.members();
    let len = sf.route.len();
    for _ in 0..len {
        let pos = sf.cursor.fetch_add(1, Ordering::SeqCst) % len;
        let replica = &reps[sf.route[pos]];
        let placed = send_upstream(inner, replica, PendingReply::Sub(Arc::clone(sf)), |seq| {
            // The subeval's span: labelled with path, replica, and the
            // (possibly narrowed) alpha/beta window of this copy.
            let span = match &sf.plan.trace {
                Some(h) => {
                    let label = format!(
                        "{}@{} window=[{},{}]",
                        path_text(&sub.path),
                        replica.addr,
                        sub.alpha,
                        sub.beta
                    );
                    let s = h.span(sf.plan.split_span, kind, label);
                    sf.span.store(s, Ordering::SeqCst);
                    s
                }
                None => 0,
            };
            let remaining = sf
                .plan
                .deadline
                .saturating_duration_since(Instant::now())
                .as_millis() as u64;
            let mut req = Request::subeval(
                &sf.plan.spec_text,
                &path_text(&sub.path),
                sub.alpha,
                sub.beta,
                Some(remaining.max(1)),
            );
            req.id = Some(seq.to_string());
            req.trace = sf.plan.trace.as_ref().map(|h| TraceContext {
                trace_id: h.trace_id.clone(),
                parent_span: Some(span),
            });
            req.render()
        });
        if placed {
            RouterMetrics::bump(&inner.metrics.subevals_dispatched);
            return;
        }
    }
    if sf.route.iter().any(|&i| reps[i].routable()) {
        // A member that is not ejected is reconnecting or has a full
        // window.  Waiting for it spends no retry budget, as a dead
        // connection's orphans spend none; the plan's deadline timer
        // still answers 408 if nothing comes back in time.
        let resend = Target::Sub(Arc::clone(sf));
        defer(inner, &sf.plan.conn, Instant::now() + ROOM_WAIT, resend);
        return;
    }
    fail_plan(
        inner,
        &sf.plan,
        FailKind::Busy,
        "no routable replica for subeval",
    );
}

/// A subeval bounced off a busy replica: re-stamp the window from the
/// live aggregator and walk on down the hash order, bounded by the
/// retry budget.
fn retry_sub(inner: &Arc<Inner>, sf: &Arc<SubFlight>) {
    let n = sf.busy_retries.fetch_add(1, Ordering::SeqCst) + 1;
    if n > inner.config.retries {
        fail_plan(inner, &sf.plan, FailKind::Busy, "subeval retries exhausted");
        return;
    }
    let Some(sub) = sf
        .plan
        .machine
        .lock()
        .unwrap()
        .redispatch(sf.level, sf.child)
    else {
        // The level settled while this copy bounced: its value no
        // longer matters.  Dropping it here IS the pre-emption — no
        // abort message, nothing to clean up.
        return;
    };
    RouterMetrics::bump(&inner.metrics.subevals_retried);
    send_sub(inner, sf, &sub, "redispatch");
}

/// A subeval's connection died with it in flight, or it waited out
/// [`ROOM_WAIT`] for one: send it again under the level's current
/// window, unbudgeted — the route walk is how a live replica is found.
fn resend_sub(inner: &Arc<Inner>, sf: &Arc<SubFlight>) {
    if sf.plan.answered.load(Ordering::SeqCst) {
        return;
    }
    let Some(sub) = sf
        .plan
        .machine
        .lock()
        .unwrap()
        .redispatch(sf.level, sf.child)
    else {
        return;
    };
    RouterMetrics::bump(&inner.metrics.subevals_retried);
    send_sub(inner, sf, &sub, "redispatch");
}

/// An upstream reply matched a subeval: feed the machine and carry out
/// what it wants.
fn handle_sub_reply(inner: &Arc<Inner>, replica: &Replica, sf: &Arc<SubFlight>, resp: &Response) {
    if let Some(h) = &sf.plan.trace {
        let span = sf.span.load(Ordering::SeqCst);
        if span != 0 {
            let status = if resp.ok {
                "ok"
            } else if resp.status == 429 || resp.status == 503 {
                "busy"
            } else {
                "error"
            };
            h.end_with(span, status, span_detail_from(resp, &replica.addr));
        }
    }
    if resp.ok {
        ReplicaCounters::bump(&replica.counters.ok);
        let Some(value) = resp.value() else {
            fail_plan(
                inner,
                &sf.plan,
                FailKind::Internal,
                "subeval reply carried no value",
            );
            return;
        };
        let leaves = resp.leaves().unwrap_or(0);
        let fx = sf
            .plan
            .machine
            .lock()
            .unwrap()
            .on_value(sf.level, sf.child, value, leaves);
        apply_effects(inner, &sf.plan, fx);
    } else if resp.status == 429 || resp.status == 503 {
        ReplicaCounters::bump(&replica.counters.busy);
        retry_sub(inner, sf);
    } else {
        // A deterministic upstream failure fails the plan: its child
        // value is a hole the aggregation cannot fold around.
        ReplicaCounters::bump(&replica.counters.errors);
        let kind = if resp.status == 408 {
            FailKind::Timeout
        } else {
            FailKind::Internal
        };
        let msg = resp.error.as_deref().unwrap_or("upstream error");
        fail_plan(inner, &sf.plan, kind, msg);
    }
}

/// Decide whether this eval splits across the fleet.  Returns `true`
/// if the request was consumed (plan launched, or rejected with an
/// error); `false` to fall through to whole-eval relaying.
fn start_split_plan(
    inner: &Arc<Inner>,
    conn: &Arc<ConnReply>,
    req: &Request,
    spec_c: &str,
) -> bool {
    let Some(threshold) = inner.config.split.cost_threshold else {
        return false;
    };
    // Explicit alpha/beta on an eval seed the plan's root window
    // (full when absent).
    let root = match workload::validate_subeval(spec_c, "", req.alpha, req.beta) {
        Ok(v) => v.sub,
        Err(e) => {
            if req.alpha.is_some() || req.beta.is_some() {
                RouterMetrics::bump(&inner.metrics.bad_request);
                conn.enqueue(&error_line(&req.id, ErrorCode::BadRequest, &e));
                return true;
            }
            // Games and other non-decomposable workloads relay whole.
            return false;
        }
    };
    let shape = match plan_levels(&root, threshold, inner.config.split.max_depth) {
        Ok(Some(shape)) => shape,
        // Too cheap, too narrow, or (unreachably, post-validate) a
        // build error: relay whole.
        _ => return false,
    };
    conn.claim_slot();
    let deadline_ms = req
        .deadline_ms
        .unwrap_or(inner.config.default_deadline_ms)
        .max(1);
    let now = Instant::now();
    let (machine, fx) = SplitMachine::new(shape, &inner.config.split);
    let depth = machine.depth();
    let trace = inner.recorder.begin(req.trace.as_ref(), spec_c);
    let split_span = match &trace {
        Some(h) => h.span(
            ROOT_SPAN,
            "split",
            format!(
                "depth={} naive={} threshold={}",
                depth, inner.config.split.naive, threshold
            ),
        ),
        None => 0,
    };
    let plan = Arc::new(ActivePlan {
        client_id: req.id.clone(),
        spec_text: spec_c.to_string(),
        machine: Mutex::new(machine),
        answered: AtomicBool::new(false),
        start: now,
        deadline: now + Duration::from_millis(deadline_ms),
        depth,
        naive: inner.config.split.naive,
        conn: Arc::clone(conn),
        trace,
        split_span,
    });
    RouterMetrics::bump(&inner.metrics.splits_total);
    inner.metrics.record_split_depth(depth as u64);
    // The same last-resort expiry a relay gets.
    let expire = Target::Plan(Arc::downgrade(&plan));
    defer(inner, &plan.conn, plan.deadline + EXPIRE_GRACE, expire);
    apply_effects(inner, &plan, fx);
    true
}

// ---------------------------------------------------------------------------
// Upstream connections.
// ---------------------------------------------------------------------------

fn connect_to(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = None;
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        )
    }))
}

/// A replica's connection closed: orphan every pending request and
/// re-dispatch the ones with no other copy still racing.  This is the
/// connection's close notice from the loop, so it runs once per
/// connection, after its last reply.
fn conn_died(inner: &Arc<Inner>, replica: &Replica) {
    let orphans: Vec<(u64, PendingReply)> = {
        let mut up = replica.upstream();
        up.conn = None;
        up.pending.drain().collect()
    };
    for (seq, entry) in orphans {
        ReplicaCounters::bump(&replica.counters.transport);
        match entry {
            PendingReply::Whole(relay) => {
                if let Some(e) = relay.remove_outstanding(seq) {
                    if let Some(h) = &relay.trace {
                        if e.span != 0 {
                            h.end(e.span, "lost");
                        }
                    }
                }
                if relay.answered.load(Ordering::SeqCst) {
                    continue;
                }
                if relay.outstanding.lock().unwrap().is_empty() {
                    dispatch_attempt(inner, &relay, AttemptKind::Retry);
                }
            }
            PendingReply::Sub(sf) => {
                if let Some(h) = &sf.plan.trace {
                    let span = sf.span.load(Ordering::SeqCst);
                    if span != 0 {
                        h.end(span, "lost");
                    }
                }
                resend_sub(inner, &sf);
            }
        }
    }
}

fn handle_reply(inner: &Arc<Inner>, replica: &Replica, line: &str) {
    let Ok(resp) = Response::parse(line) else {
        RouterMetrics::bump(&inner.metrics.stale_replies);
        return;
    };
    let Some(seq) = resp.id.as_deref().and_then(|s| s.parse::<u64>().ok()) else {
        RouterMetrics::bump(&inner.metrics.stale_replies);
        return;
    };
    let Some(entry) = replica.upstream().pending.remove(&seq) else {
        RouterMetrics::bump(&inner.metrics.stale_replies);
        return;
    };
    let relay = match entry {
        PendingReply::Whole(relay) => relay,
        PendingReply::Sub(sf) => {
            handle_sub_reply(inner, replica, &sf, &resp);
            return;
        }
    };
    let (is_hedge, span) = relay
        .remove_outstanding(seq)
        .map(|e| (e.is_hedge, e.span))
        .unwrap_or((false, 0));
    if resp.ok {
        ReplicaCounters::bump(&replica.counters.ok);
        settle_forward(inner, &relay, replica, &resp, is_hedge, span);
    } else if resp.status == 429 || resp.status == 503 {
        // Retryable: the next replica in hash order gets its chance.
        ReplicaCounters::bump(&replica.counters.busy);
        if let Some(h) = &relay.trace {
            if span != 0 {
                h.end_with(span, "busy", span_detail_from(&resp, &replica.addr));
            }
        }
        schedule_retry(inner, &relay, resp.retry_after_ms());
    } else {
        // Deterministic failures (bad request, internal, timeout)
        // would fail identically elsewhere: forward verbatim.
        ReplicaCounters::bump(&replica.counters.errors);
        settle_forward(inner, &relay, replica, &resp, is_hedge, span);
    }
}

/// Open `replica`'s connection, bounded by the probe timeout, and
/// hand it to the loop.  It is installed under the connection's lock,
/// which its close notice takes too, so the notice can only follow.
fn connect_member(inner: &Inner, io: &IoLoop, replica: &Replica) {
    let timeout = Duration::from_millis(inner.config.probe_timeout_ms.max(10));
    let Ok(stream) = connect_to(&replica.addr, timeout) else {
        return;
    };
    let mut up = replica.upstream();
    if up.conn.is_none() {
        up.conn = Some(io.adopt(stream, replica.idx));
    }
}

// ---------------------------------------------------------------------------
// Health probing.
// ---------------------------------------------------------------------------

/// One probe round trip on a fresh connection: `{"op":"health"}`,
/// with connect and read bounded by the probe timeout.  A replica is
/// up iff it answers ok and is not draining — a draining replica still
/// evaluates, but routing new work at it only buys 503s later.
fn probe_once(addr: &str, timeout: Duration) -> bool {
    let Ok(mut stream) = connect_to(addr, timeout) else {
        return false;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    if stream.write_all(b"{\"op\":\"health\"}\n").is_err() {
        return false;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => match Response::parse(line.trim()) {
            Ok(resp) => {
                let draining = resp
                    .body
                    .get("draining")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                resp.ok && !draining
            }
            Err(_) => false,
        },
        _ => false,
    }
}

/// The prober: each round it admits the new members announced since
/// the last, connecting to each first; then it makes one health round
/// trip per member, and after one that succeeds, opens the member's
/// connection if it is down.  So a replica that comes back is routed
/// to again within one round.
fn probe_loop(inner: Arc<Inner>, io: Arc<IoLoop>) {
    let interval = Duration::from_millis(inner.config.probe_interval_ms.max(10));
    let timeout = Duration::from_millis(inner.config.probe_timeout_ms.max(10));
    while !inner.stop_probe.load(Ordering::SeqCst) {
        let joins =
            std::mem::take(&mut *inner.joins.lock().expect("join queue holders never panic"));
        for (req, conn) in joins {
            let stream = connect_to(req.addr.as_deref().unwrap_or_default(), timeout).ok();
            conn.enqueue(&handle_join(&inner, &req, stream.map(|s| (&*io, s))));
            conn.release_slot();
        }
        // Re-snapshot each round so members that joined since the
        // last round are probed too.
        let reps = inner.members();
        for replica in reps.iter() {
            if inner.stop_probe.load(Ordering::SeqCst) {
                break;
            }
            let up = probe_once(&replica.addr, timeout);
            replica
                .last_probe_us
                .store(inner.metrics.uptime_us(), Ordering::Relaxed);
            let now = Instant::now();
            {
                let mut h = replica.health.lock().unwrap();
                h.tick(now);
                if up {
                    h.on_success();
                } else {
                    h.on_failure(now);
                    ReplicaCounters::bump(&replica.counters.probe_failures);
                }
            }
            if up && replica.upstream().conn.is_none() {
                connect_member(&inner, &io, replica);
            }
        }
        // A join or a shutdown unparks it early.
        std::thread::park_timeout(interval);
    }
}

// ---------------------------------------------------------------------------
// Client connections.
// ---------------------------------------------------------------------------

/// The routing key of a relayed `eval` or `subeval`, and the canonical
/// request every upstream attempt sends.  A subeval's key omits its
/// window, so a client probing a subtree lands on the replica the split
/// planner would use.
fn relay_target(req: &Request) -> Result<(String, Request), String> {
    let spec_text = req.spec.as_deref().unwrap_or("");
    let mut upstream = Request {
        op: req.op,
        tenant: req.tenant.clone(),
        ..Default::default()
    };
    let key = if req.op == Op::Eval {
        let algo_text = req.algo.as_deref().unwrap_or(DEFAULT_ALGO);
        let key = workload::validate(spec_text, algo_text)?.cache_key;
        // The canonical key is "spec|algo"; send those exact strings
        // upstream so the replica's cache key matches the routing key.
        let (spec, algo) = key.split_once('|').unwrap_or((spec_text, algo_text));
        upstream.spec = Some(spec.to_string());
        upstream.algo = Some(algo.to_string());
        key
    } else {
        let path_str = req.path.as_deref().unwrap_or("");
        let sub = workload::validate_subeval(spec_text, path_str, req.alpha, req.beta)?.sub;
        // `render()` is "spec#path#window"; the leading segment is the
        // canonical spec text.
        let rendered = sub.render();
        let spec = rendered.split('#').next().unwrap_or(spec_text);
        let path = path_text(&sub.path);
        let key = format!("sub:{spec}#{path}");
        upstream.spec = Some(spec.to_string());
        upstream.path = Some(path).filter(|p| !p.is_empty());
        upstream.alpha = (sub.alpha != Value::MIN).then_some(sub.alpha);
        upstream.beta = (sub.beta != Value::MAX).then_some(sub.beta);
        key
    };
    Ok((key, upstream))
}

/// Relay a client `eval` or `subeval` to the fleet, with failover,
/// hedging and expiry.  An eval above the split threshold is not
/// relayed at all: the split planner scatters subevals across the
/// fleet and the router itself aggregates the answer.
fn route_request(inner: &Arc<Inner>, conn: &Arc<ConnReply>, req: Request) {
    RouterMetrics::bump(&inner.metrics.requests);
    if inner.draining.load(Ordering::SeqCst) {
        RouterMetrics::bump(&inner.metrics.draining);
        conn.enqueue(&error_line(
            &req.id,
            ErrorCode::Draining,
            "router is draining",
        ));
        return;
    }
    let (key, upstream) = match relay_target(&req) {
        Ok(target) => target,
        Err(e) => {
            RouterMetrics::bump(&inner.metrics.bad_request);
            conn.enqueue(&error_line(&req.id, ErrorCode::BadRequest, &e));
            return;
        }
    };
    let spec_c = upstream.spec.as_deref().unwrap_or_default();
    if req.op == Op::Eval && start_split_plan(inner, conn, &req, spec_c) {
        return;
    }
    let (table, tiers) = routing_view(inner);
    let route = route_for(&key, &table, &tiers);
    let trace = inner.recorder.begin(req.trace.as_ref(), &key);
    if let Some(h) = &trace {
        record_route_span(h, &route, &table, &tiers);
    }
    conn.claim_slot();
    let deadline_ms = req
        .deadline_ms
        .unwrap_or(inner.config.default_deadline_ms)
        .max(1);
    let now = Instant::now();
    let relay = Arc::new(Relay {
        client_id: req.id,
        upstream,
        start: now,
        deadline: now + Duration::from_millis(deadline_ms),
        route,
        cursor: AtomicUsize::new(0),
        retries: AtomicU32::new(0),
        hedged: AtomicBool::new(false),
        answered: AtomicBool::new(false),
        outstanding: Mutex::new(Vec::new()),
        conn: Arc::clone(conn),
        trace,
    });
    launch_relay(inner, &relay);
}

// ---------------------------------------------------------------------------
// Membership: the `join` control verb.
// ---------------------------------------------------------------------------

/// Rebuild the routing table from the member list.  Caller holds the
/// membership lock.
fn rebuild_table(inner: &Inner) {
    let reps = inner.members();
    inner.table.replace(
        reps.iter()
            .map(|r| (r.addr.clone(), r.weight.load(Ordering::Relaxed)))
            .collect(),
    );
}

/// Record a membership change as its own queryable trace.  The
/// synthetic context pins the trace past sampling, so every admit /
/// refresh / reweight leaves a span tree (when tracing is on at all).
fn record_membership_trace(inner: &Inner, action: JoinAction, addr: &str, weight: u64, gen: u64) {
    let ctx = TraceContext {
        trace_id: format!("member-{}-v{}", addr, inner.table.version()),
        parent_span: None,
    };
    if let Some(h) = inner.recorder.begin(Some(&ctx), "membership") {
        let label = format!("{action:?} {addr} weight={weight} generation={gen}");
        h.event(ROOT_SPAN, "member", label, "ok");
        h.end(ROOT_SPAN, "ok");
        inner.recorder.finish(&h);
    }
}

/// Apply one `join` announcement under the membership lock; returns
/// the announcer's reply.  See [`crate::membership`] for the protocol.
///
/// A new member is admitted by the prober, with `link` the connection
/// it has just opened to it (`None` when that failed; a later probe
/// round reconnects).  The connection is installed before the member
/// enters the routing table, so it is never routed to unconnected.
fn handle_join(inner: &Arc<Inner>, req: &Request, link: Option<(&IoLoop, TcpStream)>) -> String {
    let addr = req.addr.clone().unwrap_or_default();
    let weight = req.weight.unwrap_or(membership::DEFAULT_WEIGHT);
    let generation = req.generation.unwrap_or(0);
    let _guard = inner.member_lock.lock().unwrap();
    let reps = inner.members();
    let existing = reps.iter().find(|r| r.addr == addr);
    let action = membership::classify_join(
        existing.map(|r| {
            (
                r.weight.load(Ordering::Relaxed),
                r.generation.load(Ordering::Relaxed),
            )
        }),
        weight,
        generation,
    );
    inner.metrics.members.record(action);
    match action {
        JoinAction::Admit => {
            let replica = Arc::new(Replica::new(
                reps.len(),
                addr.clone(),
                inner.config.health.clone(),
                weight,
            ));
            replica.generation.store(generation, Ordering::Relaxed);
            let mut grown: Vec<Arc<Replica>> = reps.as_ref().clone();
            grown.push(Arc::clone(&replica));
            // List, then connection, then table: `routing_view` relies
            // on the member list never being the shorter of the two,
            // and a close notice finds its member by index.
            *inner.replicas.write().unwrap() = Arc::new(grown);
            if let Some((io, stream)) = link {
                replica.upstream().conn = Some(io.adopt(stream, replica.idx));
            }
            rebuild_table(inner);
        }
        JoinAction::Refresh => {
            let r = existing.expect("refresh implies a known member");
            r.weight.store(weight, Ordering::Relaxed);
            r.generation.store(generation, Ordering::Relaxed);
            rebuild_table(inner);
        }
        JoinAction::Reweight => {
            let r = existing.expect("reweight implies a known member");
            r.weight.store(weight, Ordering::Relaxed);
            rebuild_table(inner);
        }
        JoinAction::Duplicate | JoinAction::Stale => {}
    }
    if !matches!(action, JoinAction::Duplicate | JoinAction::Stale) {
        record_membership_trace(inner, action, &addr, weight, generation);
    }
    let action_name = match action {
        JoinAction::Admit => "admitted",
        JoinAction::Refresh => "refreshed",
        JoinAction::Reweight => "reweighted",
        JoinAction::Duplicate => "duplicate",
        JoinAction::Stale => "stale",
    };
    ok_line(
        &req.id,
        vec![
            ("member", Json::from(addr)),
            ("action", Json::from(action_name)),
            ("members", Json::from(inner.table.len())),
            ("membership_version", Json::from(inner.table.version())),
        ],
    )
}

/// I/O threads.  Two carry every client connection, thousands of them
/// mostly idle, and every replica connection.
const IO_THREADS: usize = 2;

/// The router on the connection loop: a client's control verbs answer
/// inline and its `eval`/`subeval` are relayed or split; a replica's
/// lines are replies.
impl LineHandler for Inner {
    fn line(inner: &Arc<Inner>, line: &str, _recv: Instant, conn: &Arc<ConnReply>) {
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                RouterMetrics::bump(&inner.metrics.bad_request);
                conn.enqueue(&error_line(&None, ErrorCode::BadRequest, &e));
                return;
            }
        };
        let reply = match req.op {
            Op::Eval | Op::Subeval => return route_request(inner, conn, req),
            Op::Join => {
                if !inner
                    .members()
                    .iter()
                    .any(|r| req.addr.as_ref() == Some(&r.addr))
                {
                    // A new address: the prober connects to it, admits
                    // it, and answers (see `probe_loop`).
                    conn.claim_slot();
                    inner
                        .joins
                        .lock()
                        .expect("join queue holders never panic")
                        .push((req, Arc::clone(conn)));
                    if let Some(prober) = inner.prober.get() {
                        prober.unpark();
                    }
                    return;
                }
                handle_join(inner, &req, None)
            }
            Op::Ping => ok_line(
                &req.id,
                vec![
                    ("version", Json::from(PROTOCOL_VERSION)),
                    ("role", Json::from("router")),
                    ("replicas", Json::from(inner.members().len())),
                ],
            ),
            Op::Health => {
                let reps = inner.members();
                let routable = reps.iter().filter(|r| r.routable()).count();
                let members: Vec<Json> = reps
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("addr", Json::from(r.addr.as_str())),
                            ("weight", Json::from(r.weight.load(Ordering::Relaxed))),
                            (
                                "generation",
                                Json::from(r.generation.load(Ordering::Relaxed)),
                            ),
                            ("tier", Json::from(u64::from(r.tier()))),
                        ])
                    })
                    .collect();
                ok_line(
                    &req.id,
                    vec![
                        (
                            "uptime_s",
                            Json::from(inner.metrics.uptime_us() as f64 / 1e6),
                        ),
                        ("replicas", Json::from(reps.len())),
                        ("routable", Json::from(routable)),
                        ("membership_version", Json::from(inner.table.version())),
                        ("members", Json::Array(members)),
                        (
                            "draining",
                            Json::Bool(inner.draining.load(Ordering::SeqCst)),
                        ),
                    ],
                )
            }
            Op::Cachepull => {
                RouterMetrics::bump(&inner.metrics.bad_request);
                error_line(
                    &req.id,
                    ErrorCode::BadRequest,
                    "cachepull is a replica verb; ask a gt-serve member directly",
                )
            }
            Op::Stats => ok_line(&req.id, vec![("stats", stats_of(inner).0)]),
            Op::Trace => trace_reply(inner, &req),
            Op::Shutdown => {
                inner.draining.store(true, Ordering::SeqCst);
                ok_line(&req.id, vec![("draining", Json::Bool(true))])
            }
        };
        conn.enqueue(&reply);
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn counters(&self) -> &ConnCounters {
        &self.metrics.conns
    }

    fn not_utf8(&self) -> Option<String> {
        RouterMetrics::bump(&self.metrics.bad_request);
        Some(error_line(
            &None,
            ErrorCode::BadRequest,
            "request line is not UTF-8",
        ))
    }

    fn outbound_line(inner: &Arc<Inner>, peer: usize, line: &str) {
        handle_reply(inner, &inner.members()[peer], line);
    }

    fn outbound_closed(inner: &Arc<Inner>, peer: usize) {
        conn_died(inner, &inner.members()[peer]);
    }

    fn metrics_text(inner: &Arc<Inner>) -> String {
        prometheus_text(ROUTER_FAMILIES, &RouterView::of(inner))
    }
}

/// Answer `op:"trace"`: one assembled tree by id (active or finished),
/// or the latest `n`.
fn trace_reply(inner: &Inner, req: &Request) -> String {
    if !inner.recorder.enabled() {
        RouterMetrics::bump(&inner.metrics.bad_request);
        return error_line(
            &req.id,
            ErrorCode::BadRequest,
            "tracing is disabled (--trace-sample 0)",
        );
    }
    if let Some(ctx) = &req.trace {
        return match inner.recorder.lookup(&ctx.trace_id) {
            Some(h) => ok_line(&req.id, vec![("trace", h.to_json())]),
            None => {
                RouterMetrics::bump(&inner.metrics.bad_request);
                error_line(
                    &req.id,
                    ErrorCode::BadRequest,
                    "unknown trace_id (expired from the ring?)",
                )
            }
        };
    }
    let n = req.n.unwrap_or(16).min(1024) as usize;
    let traces: Vec<Json> = inner
        .recorder
        .latest(n)
        .iter()
        .map(|h| h.to_json())
        .collect();
    ok_line(&req.id, vec![("traces", Json::Array(traces))])
}

fn stats_of(inner: &Arc<Inner>) -> Stats {
    stats_json(ROUTER_FAMILIES, &RouterView::of(inner))
}

// ---------------------------------------------------------------------------
// The Router handle.
// ---------------------------------------------------------------------------

/// A running router: the connection loop for its clients, replicas
/// and scrapes, the prober, and any replicas it spawned itself.
pub struct Router {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    io: Arc<IoLoop>,
    probe_thread: Option<JoinHandle<()>>,
    metrics_addr: Option<SocketAddr>,
    spawned: Vec<gt_serve::Server>,
}

impl Router {
    /// Spawn any owned replicas, start accepting clients, and connect
    /// to each replica.  Each connection is opened here, each bounded
    /// by `probe_timeout_ms`, so the first request finds every
    /// reachable replica connected; a replica that refuses is left to
    /// the prober, which reconnects it once it answers.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        let mut spawned = Vec::new();
        let mut addrs = config.replicas.clone();
        for _ in 0..config.spawn {
            let server = gt_serve::Server::start(gt_serve::Config {
                addr: "127.0.0.1:0".into(),
                ..config.spawn_config.clone()
            })?;
            addrs.push(server.local_addr().to_string());
            spawned.push(server);
        }
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one replica (--replica or --spawn)",
            ));
        }
        let replicas: Vec<Arc<Replica>> = addrs
            .iter()
            .enumerate()
            .map(|(idx, addr)| {
                Arc::new(Replica::new(
                    idx,
                    addr.clone(),
                    config.health.clone(),
                    membership::DEFAULT_WEIGHT,
                ))
            })
            .collect();
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let recorder = SpanRecorder::new(config.trace_sample, config.trace_ring);
        let inner = Arc::new(Inner {
            config,
            table: RoutingTable::seeded(&addrs),
            replicas: RwLock::new(Arc::new(replicas)),
            member_lock: Mutex::new(()),
            joins: Mutex::new(Vec::new()),
            metrics: RouterMetrics::default(),
            seq: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop_probe: AtomicBool::new(false),
            prober: OnceLock::new(),
            recorder,
        });

        let metrics_listener = inner
            .config
            .metrics_addr
            .as_deref()
            .map(TcpListener::bind)
            .transpose()?;
        let metrics_addr = metrics_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;
        let io = Arc::new(IoLoop::spawn(
            listener,
            LoopConfig {
                name: "gt-router-io",
                threads: IO_THREADS,
                window: inner.config.client_window,
                idle_timeout: None,
                metrics: metrics_listener,
            },
            Arc::clone(&inner),
        )?);
        for replica in inner.members().iter() {
            connect_member(&inner, &io, replica);
        }
        let probe_thread = {
            let inner2 = Arc::clone(&inner);
            let io2 = Arc::clone(&io);
            std::thread::Builder::new()
                .name("gt-router-probe".into())
                .spawn(move || probe_loop(inner2, io2))?
        };
        let _ = inner.prober.set(probe_thread.thread().clone());
        Ok(Router {
            inner,
            local_addr,
            io,
            probe_thread: Some(probe_thread),
            metrics_addr,
            spawned,
        })
    }

    #[cfg(test)]
    pub(crate) fn inner(&self) -> &Arc<Inner> {
        &self.inner
    }

    /// The client-facing bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The upstream replica addresses, spawned and joined ones
    /// included.
    pub fn replica_addrs(&self) -> Vec<String> {
        self.inner
            .members()
            .iter()
            .map(|r| r.addr.clone())
            .collect()
    }

    /// The bound `/metrics` address, when the listener is enabled.
    pub fn metrics_listener_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Begin a graceful drain: stop accepting, reject new evals,
    /// finish in-flight ones.  `join` completes the shutdown.
    pub fn request_shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.io.wake();
    }

    /// Whether a drain has been requested (by signal or by a client's
    /// `shutdown` op).
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// The live `stats` object, as `op:"stats"` returns it.
    pub fn stats(&self) -> Stats {
        stats_of(&self.inner)
    }

    /// Drain and stop everything, in dependency order: the listener
    /// and client connections first (their windows guarantee every
    /// accepted eval has been answered — the io threads' timers, the
    /// prober and the replica connections must still be alive for
    /// that), then the replica connections and `/metrics`, then the
    /// prober, then owned replicas.  Returns the final `stats`.
    pub fn join(mut self) -> Stats {
        self.inner.draining.store(true, Ordering::SeqCst);
        // The io threads drop the listener, hold each client connection
        // until its window empties and its replies are out, close the
        // replica connections once no client is left, then exit.
        self.io.join();
        self.inner.stop_probe.store(true, Ordering::SeqCst);
        if let Some(h) = self.probe_thread.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        let snap = stats_of(&self.inner);
        for server in self.spawned.drain(..) {
            server.request_shutdown();
            let _ = server.join();
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_serve::Client;

    #[test]
    fn rewrite_restores_the_client_id_and_annotates_provenance() {
        let body = Json::parse(
            r#"{"ok":true,"id":"41","value":1,"work":64,"cached":false,"latency_us":812}"#,
        )
        .unwrap();
        let line = rewrite_reply(&body, &Some("r7".into()), "127.0.0.1:7171", 2, true, None);
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("id").and_then(Json::as_str), Some("r7"));
        assert_eq!(back.get("value").and_then(Json::as_u64), Some(1));
        assert_eq!(
            back.get("replica").and_then(Json::as_str),
            Some("127.0.0.1:7171")
        );
        assert_eq!(back.get("retries").and_then(Json::as_u64), Some(2));
        assert_eq!(back.get("hedged").and_then(Json::as_bool), Some(true));
        // The upstream sequence id must not leak to the client.
        assert!(!line.contains("\"41\""), "{line}");
    }

    #[test]
    fn rewrite_omits_noise_on_the_clean_path() {
        let body = Json::parse(r#"{"ok":true,"id":"9","value":0}"#).unwrap();
        let line = rewrite_reply(&body, &None, "a:1", 0, false, None);
        assert!(!line.contains("retries"), "{line}");
        assert!(!line.contains("hedged"), "{line}");
        assert!(!line.contains("\"id\""), "{line}");
    }

    #[test]
    fn route_prefers_health_but_keeps_affinity_within_a_tier() {
        let table: Vec<(String, u64)> = (0..3).map(|i| (format!("10.0.0.{i}:7171"), 1)).collect();
        let key = "worst:d=3,n=8|cascade:w=1";
        let all_up = route_for(key, &table, &[0, 0, 0]);
        // Same key, same fleet: same route, every time.
        assert_eq!(all_up, route_for(key, &table, &[0, 0, 0]));
        // Eject the owner: it drops to the back, the rest keep order.
        let mut tiers = [0u8; 3];
        tiers[all_up[0]] = 3;
        let rerouted = route_for(key, &table, &tiers);
        assert_eq!(rerouted[2], all_up[0]);
        assert_eq!(rerouted[..2], all_up[1..]);
    }

    #[test]
    fn router_round_trips_an_eval_through_a_spawned_replica() {
        let router = Router::start(RouterConfig {
            spawn: 1,
            ..RouterConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(router.local_addr()).unwrap();

        let ping = client.ping().unwrap();
        assert!(ping.ok);
        assert_eq!(ping.body.get("role").and_then(Json::as_str), Some("router"));

        let reply = client.eval("worst:d=2,n=8", "cascade:w=1", None).unwrap();
        assert!(reply.ok, "{reply:?}");
        assert!(reply.body.get("replica").and_then(Json::as_str).is_some());

        // Same key again: replica-local cache serves it.
        let again = client.eval("worst:d=2,n=8", "cascade:w=1", None).unwrap();
        assert!(again.ok && again.cached(), "{again:?}");

        let stats = client.stats().unwrap();
        assert!(stats.ok);
        let snap = router.join();
        assert_eq!(snap.u64("ok"), 2);
        assert_eq!(snap.u64("requests"), 2);
        assert_eq!(snap.u64("forwarded_errors"), 0);
    }

    #[test]
    fn split_eval_matches_sequential_and_reports_provenance() {
        let router = Router::start(RouterConfig {
            spawn: 3,
            split: SplitConfig {
                cost_threshold: Some(16),
                ..SplitConfig::default()
            },
            ..RouterConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(router.local_addr()).unwrap();
        let spec = "minmax:d=3,n=7,seed=11";
        let expected = gt_tree::split::sub_evaluate(&SubtreeSpec::whole(
            gt_tree::GenSpec::parse(spec).unwrap(),
        ))
        .unwrap()
        .value;

        let reply = client.eval(spec, "cascade:w=1", None).unwrap();
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.value(), Some(expected));
        // The answer is router-aggregated, with split provenance
        // instead of a single answering replica.
        let split = reply.body.get("split").expect("split provenance");
        assert!(split.get("depth").and_then(Json::as_u64).unwrap_or(0) >= 1);
        assert!(reply.leaves().unwrap_or(0) > 0, "{reply:?}");

        let snap = router.join();
        assert_eq!(snap.u64("splits_total"), 1, "{snap:?}");
        assert!(snap.u64("subevals_dispatched") >= 2, "{snap:?}");
        assert_eq!(snap.u64("ok"), 1);
    }

    #[test]
    fn split_cutoffs_skip_undispatched_siblings_across_the_fleet() {
        let router = Router::start(RouterConfig {
            spawn: 3,
            split: SplitConfig {
                cost_threshold: Some(8),
                max_depth: 3,
                ..SplitConfig::default()
            },
            ..RouterConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(router.local_addr()).unwrap();
        // allones NOR values alternate with height parity, so the
        // deepest eldest level settles to 1 and cuts its parent: the
        // parent's three siblings are never dispatched.
        let reply = client.eval("allones:d=4,n=6", "cascade:w=1", None).unwrap();
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.value(), Some(1));
        let snap = router.join();
        assert_eq!(snap.u64("splits_total"), 1, "{snap:?}");
        assert_eq!(snap.u64("subevals_skipped_on_cutoff"), 3, "{snap:?}");
        assert_eq!(snap.u64("subevals_dispatched"), 7, "{snap:?}");
    }

    #[test]
    fn join_admits_reweights_and_rejects_stale_announcements() {
        let router = Router::start(RouterConfig {
            spawn: 1,
            ..RouterConfig::default()
        })
        .unwrap();
        let extra = gt_serve::Server::start(gt_serve::Config {
            addr: "127.0.0.1:0".into(),
            ..gt_serve::Config::default()
        })
        .unwrap();
        let addr = extra.local_addr().to_string();
        let mut client = Client::connect(router.local_addr()).unwrap();

        let action = |resp: &gt_serve::protocol::Response| {
            resp.body
                .get("action")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        // Admit: unknown address joins the fleet.
        let r = client.send(&Request::join(&addr, 2, 1)).unwrap();
        assert!(r.ok, "{r:?}");
        assert_eq!(action(&r), "admitted");
        assert_eq!(r.body.get("members").and_then(Json::as_u64), Some(2));
        // Announce retries are idempotent.
        let r = client.send(&Request::join(&addr, 2, 1)).unwrap();
        assert_eq!(action(&r), "duplicate");
        // Same generation, new weight: reweight in place.
        let r = client.send(&Request::join(&addr, 5, 1)).unwrap();
        assert_eq!(action(&r), "reweighted");
        // An old announcement arriving late changes nothing.
        let r = client.send(&Request::join(&addr, 9, 0)).unwrap();
        assert_eq!(action(&r), "stale");
        assert_eq!(r.body.get("members").and_then(Json::as_u64), Some(2));

        // Health enumerates the membership with weight and generation.
        let h = client.health().unwrap();
        assert_eq!(h.body.get("replicas").and_then(Json::as_u64), Some(2));
        let members = match h.body.get("members") {
            Some(Json::Array(ms)) => ms.clone(),
            other => panic!("members not an array: {other:?}"),
        };
        let joined = members
            .iter()
            .find(|m| m.get("addr").and_then(Json::as_str) == Some(addr.as_str()))
            .expect("joined member listed");
        assert_eq!(joined.get("weight").and_then(Json::as_u64), Some(5));
        assert_eq!(joined.get("generation").and_then(Json::as_u64), Some(1));

        // The fleet still answers evals after the churn, and stats
        // reports the membership counters.
        let reply = client.eval("worst:d=2,n=6", "cascade:w=1", None).unwrap();
        assert!(reply.ok, "{reply:?}");
        let snap = router.join();
        assert_eq!(snap.u64("membership.joined"), 1, "{snap:?}");
        assert_eq!(snap.u64("membership.reweighted"), 1, "{snap:?}");
        assert_eq!(snap.u64("membership.duplicate_joins"), 1, "{snap:?}");
        assert_eq!(snap.u64("membership.stale_joins"), 1, "{snap:?}");
        assert_eq!(
            snap.get("replicas")
                .and_then(Json::as_array)
                .map(<[_]>::len),
            Some(2)
        );
        assert!(snap.u64("membership.version") >= 2, "{snap:?}");
        extra.request_shutdown();
        extra.join();
    }

    #[test]
    fn router_relays_a_client_subeval() {
        let router = Router::start(RouterConfig {
            spawn: 2,
            ..RouterConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(router.local_addr()).unwrap();
        let sub = SubtreeSpec {
            spec: gt_tree::GenSpec::parse("minmax:d=2,n=5,seed=3").unwrap(),
            path: vec![1],
            alpha: Value::MIN,
            beta: Value::MAX,
        };
        let expected = gt_tree::split::sub_evaluate(&sub).unwrap().value;
        let reply = client
            .subeval("minmax:d=2,n=5,seed=3", "1", Value::MIN, Value::MAX, None)
            .unwrap();
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.value(), Some(expected));
        assert!(reply.body.get("replica").and_then(Json::as_str).is_some());
        router.join();
    }
}
