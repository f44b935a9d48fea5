//! The load generator: client fleets for measuring throughput, tail
//! latency, and shedding behaviour against a running server.
//!
//! Two modes, chosen by [`LoadgenConfig::rps`]:
//!
//! * **Open loop** (`rps > 0`) — each connection fires on a fixed
//!   schedule regardless of how long replies take, the model that
//!   actually exposes queueing delay (closed-loop clients slow down
//!   with the server and hide it).  Late ticks are not skipped; the
//!   generator sends them back-to-back, which is exactly the burst an
//!   open-loop arrival process produces.
//! * **Closed loop** (`rps == 0`) — each connection sends the next
//!   request as soon as the previous reply lands: a saturation probe.
//!
//! The closed loop optionally **pipelines**: with
//! [`LoadgenConfig::pipeline`] `= n > 1`, each connection keeps `n`
//! requests outstanding, reading one reply and immediately sending
//! the next.  Requests carry sequence-number ids and latencies are
//! correlated through them, since a pipelined server replies in
//! completion order.
//!
//! **Fan-in mode** ([`LoadgenConfig::connections`] `= n > 0`) layers
//! `n` additional mostly-idle connections under whatever active load
//! the run generates, from this one process: a small pool of
//! connector threads opens the connections up front (one retry each),
//! parks them for the run, and reports how many actually came up
//! ([`LoadgenReport::fan_in_open`] / [`LoadgenReport::fan_in_failed`]).
//! This is how the c10k benchmarks and smoke tests drive thousands of
//! concurrent sockets against a replica without a client fleet.

use crate::client::Client;
use crate::protocol::{Op, Request};
use gt_analysis::{percentile, Json};
use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

/// Load generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Concurrent connections.
    pub conns: usize,
    /// Extra mostly-idle connections held open for the whole run
    /// (fan-in mode); 0 disables.  These carry no requests — they
    /// exist to push the server's concurrent-connection count to
    /// c10k-scale while the `conns` workers generate the actual load.
    pub connections: usize,
    /// Total target request rate across all connections; 0 runs closed
    /// loop.
    pub rps: f64,
    /// How long to generate load.
    pub duration: Duration,
    /// Workload spec sent in every request.
    pub spec: String,
    /// Algorithm selector sent in every request.
    pub algo: String,
    /// Per-request deadline, if any.
    pub deadline_ms: Option<u64>,
    /// Requests kept in flight per connection in closed-loop mode;
    /// 0 or 1 is the classic one-at-a-time loop.  Ignored in open
    /// loop (`rps > 0`).
    pub pipeline: usize,
    /// Cold-storm mode: append a unique `seed=<k>` parameter to every
    /// request's spec so each request has a distinct canonical key and
    /// nothing is served from the cache or coalesced — the measurement
    /// exercises the cold dispatch path exclusively.
    pub distinct: bool,
    /// Split-heavy mode: ignore `spec` and send a rotating pool of
    /// large-tree specs sized to clear a router's split threshold, so
    /// every request exercises the scatter-gather planner (and repeat
    /// seeds still exercise the fleet's subeval caches).
    pub split_heavy: bool,
    /// After the run, fetch the server's `stats` snapshot over a fresh
    /// connection and embed it in the report (engine runs, stage
    /// histograms, cache telemetry, ...).
    pub include_server_stats: bool,
    /// After the run, fetch the span trees of the N slowest traced
    /// requests via the router's `op:"trace"` verb and embed them in
    /// the report (flame-style in `render`, raw trees in `to_json`).
    /// Requires the target to be a router with tracing enabled; 0
    /// disables.
    pub sample_traces: usize,
    /// Multi-tenant mode (`--tenants N`): tag requests round-robin
    /// with tenants `t0..t{N-1}` and break the report out per tenant
    /// (sent/ok/shed and latency quantiles).  0 sends untagged
    /// requests, exactly as before tenancy existed.
    pub tenants: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7171".into(),
            conns: 1,
            connections: 0,
            rps: 0.0,
            duration: Duration::from_secs(5),
            spec: "worst:d=2,n=8".into(),
            algo: "cascade:w=1".into(),
            deadline_ms: None,
            pipeline: 1,
            distinct: false,
            split_heavy: false,
            include_server_stats: false,
            sample_traces: 0,
            tenants: 0,
        }
    }
}

/// The tenant tag for one request: round-robin `t0..t{N-1}` over the
/// request sequence when multi-tenant mode is on, `None` otherwise.
/// The connection index is folded in so single-request connections
/// still spread across tenants.
fn tenant_for(config: &LoadgenConfig, conn: usize, seq: u64) -> Option<String> {
    if config.tenants == 0 {
        None
    } else {
        Some(format!("t{}", (conn as u64 + seq) % config.tenants as u64))
    }
}

/// The spec text for one request: verbatim, or — in cold-storm mode —
/// salted with a per-(connection, sequence) seed so every request has
/// its own canonical key.
fn spec_for(config: &LoadgenConfig, conn: usize, seq: u64) -> String {
    if config.split_heavy {
        // Eight seeds: large enough a fleet sees variety, small
        // enough that subeval results get cache hits on repeats.
        let seed = (conn as u64 * 7 + seq) % 8;
        return format!("minmax:d=3,n=8,seed={seed}");
    }
    if !config.distinct {
        return config.spec.clone();
    }
    let salt = conn as u64 * 1_000_000 + seq;
    if config.spec.contains(':') {
        format!("{},seed={salt}", config.spec)
    } else {
        format!("{}:seed={salt}", config.spec)
    }
}

/// Per-thread tally, merged into the final report.
#[derive(Debug, Default, Clone)]
struct Tally {
    sent: u64,
    ok: u64,
    cached: u64,
    coalesced: u64,
    shed: u64,
    timeout: u64,
    bad: u64,
    draining: u64,
    other_error: u64,
    transport_errors: u64,
    retry_hints: u64,
    latencies_us: Vec<f64>,
    /// `(latency_us, trace_id)` of each ok reply that carried one.
    traced: Vec<(f64, String)>,
    /// Per-tenant slices, populated when [`LoadgenConfig::tenants`]
    /// tags requests.
    tenants: HashMap<String, TenantTally>,
}

/// One tenant's slice of a [`Tally`].
#[derive(Debug, Default, Clone)]
struct TenantTally {
    sent: u64,
    ok: u64,
    shed: u64,
    latencies_us: Vec<f64>,
}

impl Tally {
    /// Count one request sent, on the run total and on the tenant's
    /// slice when the request was tagged.
    fn note_sent(&mut self, tenant: Option<&str>) {
        self.sent += 1;
        if let Some(t) = tenant {
            self.tenants.entry(t.to_string()).or_default().sent += 1;
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.cached += other.cached;
        self.coalesced += other.coalesced;
        self.shed += other.shed;
        self.timeout += other.timeout;
        self.bad += other.bad;
        self.draining += other.draining;
        self.other_error += other.other_error;
        self.transport_errors += other.transport_errors;
        self.retry_hints += other.retry_hints;
        self.latencies_us.extend(other.latencies_us);
        self.traced.extend(other.traced);
        for (name, t) in other.tenants {
            let mine = self.tenants.entry(name).or_default();
            mine.sent += t.sent;
            mine.ok += t.ok;
            mine.shed += t.shed;
            mine.latencies_us.extend(t.latencies_us);
        }
    }
}

/// Aggregated results of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests sent.
    pub sent: u64,
    /// Successful replies.
    pub ok: u64,
    /// Successful replies served from the cache.
    pub cached: u64,
    /// Successful replies coalesced onto another request's engine run.
    pub coalesced: u64,
    /// 429 `busy` rejections (queue full).
    pub shed: u64,
    /// 408 `timeout` replies.
    pub timeout: u64,
    /// 400 `bad-request` replies.
    pub bad: u64,
    /// 503 `draining` rejections.
    pub draining: u64,
    /// Error replies outside the codes above.
    pub other_error: u64,
    /// Connections that failed at the transport level (connect, I/O,
    /// or unparseable replies).
    pub transport_errors: u64,
    /// Shed replies whose `retry_after_ms` hint the generator honored
    /// by backing off before its next send.
    pub retry_hints: u64,
    /// Idle fan-in connections successfully opened and held for the
    /// run ([`LoadgenConfig::connections`] mode).
    pub fan_in_open: u64,
    /// Idle fan-in connections that failed to open even after one
    /// retry.
    pub fan_in_failed: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Client-observed latencies of successful replies, microseconds.
    pub latencies_us: Vec<f64>,
    /// Latencies of the replies that carried a `trace_id` — the
    /// requests the router actually traced.  Comparing their p50
    /// against the run-wide p50 isolates the cost of span recording
    /// inside one run, immune to run-to-run machine drift (the
    /// `trace_overhead` scenario in scripts/bench_serve.sh).
    pub traced_latencies_us: Vec<f64>,
    /// The server's post-run `stats` snapshot, when
    /// [`LoadgenConfig::include_server_stats`] asked for it.
    pub server_stats: Option<Json>,
    /// Span trees of the slowest traced requests, fetched post-run
    /// when [`LoadgenConfig::sample_traces`] `> 0`.  Each entry is
    /// `{"latency_us":..., "trace":{"trace_id":...,"spans":[...]}}`.
    pub sampled_traces: Vec<Json>,
    /// Per-tenant breakdown, sorted by tenant tag.  Empty unless
    /// [`LoadgenConfig::tenants`] tagged the run's requests.
    pub tenants: Vec<TenantReport>,
}

/// One tenant's slice of a [`LoadgenReport`]: how a single tenant
/// fared inside a shared run — the view that makes fairness (or its
/// absence) visible when one tenant floods the server.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant tag (`t0`, `t1`, ...).
    pub tenant: String,
    /// Requests sent under this tag.
    pub sent: u64,
    /// Successful replies.
    pub ok: u64,
    /// 429 `busy` rejections (queue full or tenant over its inflight
    /// cap).
    pub shed: u64,
    /// Client-observed latencies of this tenant's successful replies,
    /// microseconds.
    pub latencies_us: Vec<f64>,
}

impl TenantReport {
    /// Latency quantile over this tenant's successful replies.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        if self.latencies_us.is_empty() {
            None
        } else {
            Some(percentile(&self.latencies_us, q))
        }
    }

    fn to_json(&self) -> Json {
        let quantile = |q: f64| match self.latency_quantile(q) {
            Some(v) => Json::from(v),
            None => Json::Null,
        };
        Json::obj([
            ("sent", Json::from(self.sent)),
            ("ok", Json::from(self.ok)),
            ("shed", Json::from(self.shed)),
            ("latency_p50_us", quantile(0.50)),
            ("latency_p99_us", quantile(0.99)),
        ])
    }
}

impl LoadgenReport {
    /// Replies received per second (any status).
    pub fn achieved_rps(&self) -> f64 {
        let replies =
            self.ok + self.shed + self.timeout + self.bad + self.draining + self.other_error;
        replies as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn latency_quantile(&self, q: f64) -> Option<f64> {
        if self.latencies_us.is_empty() {
            None
        } else {
            Some(percentile(&self.latencies_us, q))
        }
    }

    /// Serialize for scripting.
    pub fn to_json(&self) -> Json {
        let quantile = |q: f64| match self.latency_quantile(q) {
            Some(v) => Json::from(v),
            None => Json::Null,
        };
        Json::obj([
            ("sent", Json::from(self.sent)),
            ("ok", Json::from(self.ok)),
            ("cached", Json::from(self.cached)),
            ("coalesced", Json::from(self.coalesced)),
            ("shed", Json::from(self.shed)),
            ("timeout", Json::from(self.timeout)),
            ("bad", Json::from(self.bad)),
            ("draining", Json::from(self.draining)),
            ("other_error", Json::from(self.other_error)),
            ("transport_errors", Json::from(self.transport_errors)),
            ("retry_hints_honored", Json::from(self.retry_hints)),
            ("fan_in_open", Json::from(self.fan_in_open)),
            ("fan_in_failed", Json::from(self.fan_in_failed)),
            ("elapsed_ms", Json::from(self.elapsed.as_millis() as u64)),
            ("achieved_rps", Json::from(self.achieved_rps())),
            ("latency_p50_us", quantile(0.50)),
            ("latency_p90_us", quantile(0.90)),
            ("latency_p99_us", quantile(0.99)),
            ("traced", Json::from(self.traced_latencies_us.len() as u64)),
            (
                "latency_p50_traced_us",
                if self.traced_latencies_us.is_empty() {
                    Json::Null
                } else {
                    Json::from(percentile(&self.traced_latencies_us, 0.50))
                },
            ),
            (
                "server",
                match &self.server_stats {
                    Some(s) => s.clone(),
                    None => Json::Null,
                },
            ),
            ("sampled_traces", Json::Array(self.sampled_traces.clone())),
            (
                "tenants",
                Json::Object(
                    self.tenants
                        .iter()
                        .map(|t| (t.tenant.clone(), t.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sent {} in {:.2}s ({:.1} replies/s)",
            self.sent,
            self.elapsed.as_secs_f64(),
            self.achieved_rps()
        );
        let _ = writeln!(
            out,
            "ok {} (cached {} coalesced {})  shed {}  timeout {}  bad {}  draining {}  other {}  \
             transport {}",
            self.ok,
            self.cached,
            self.coalesced,
            self.shed,
            self.timeout,
            self.bad,
            self.draining,
            self.other_error,
            self.transport_errors
        );
        if self.retry_hints > 0 {
            let _ = writeln!(out, "honored {} retry_after_ms hints", self.retry_hints);
        }
        if self.fan_in_open > 0 || self.fan_in_failed > 0 {
            let _ = writeln!(
                out,
                "fan-in {} idle connections held ({} failed to open)",
                self.fan_in_open, self.fan_in_failed
            );
        }
        if !self.latencies_us.is_empty() {
            let _ = writeln!(
                out,
                "latency p50 {:.0}us  p90 {:.0}us  p99 {:.0}us",
                self.latency_quantile(0.50).unwrap_or(0.0),
                self.latency_quantile(0.90).unwrap_or(0.0),
                self.latency_quantile(0.99).unwrap_or(0.0),
            );
        }
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "tenant {}: sent {}  ok {}  shed {}  p50 {:.0}us  p99 {:.0}us",
                t.tenant,
                t.sent,
                t.ok,
                t.shed,
                t.latency_quantile(0.50).unwrap_or(0.0),
                t.latency_quantile(0.99).unwrap_or(0.0),
            );
        }
        if !self.traced_latencies_us.is_empty() {
            let _ = writeln!(
                out,
                "traced {} requests  p50 {:.0}us",
                self.traced_latencies_us.len(),
                percentile(&self.traced_latencies_us, 0.50),
            );
        }
        if !self.sampled_traces.is_empty() {
            let _ = writeln!(
                out,
                "--- span trees of the {} slowest traced requests ---",
                self.sampled_traces.len()
            );
            for entry in &self.sampled_traces {
                let us = entry
                    .get("latency_us")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let tid = entry
                    .get("trace")
                    .and_then(|t| t.get("trace_id"))
                    .and_then(Json::as_str)
                    .unwrap_or("?");
                let _ = writeln!(out, "{tid} ({us:.0}us client latency)");
                if let Some(trace) = entry.get("trace") {
                    render_trace_tree(trace, &mut out);
                }
            }
        }
        out
    }
}

/// Flame-style indented rendering of one span tree fetched via
/// `op:"trace"`: each line is a span at its tree depth, with its
/// start offset, duration, and terminal status.  Children print in
/// open order (span ids are issued in open order), which is also
/// start order on the router's single clock.
fn render_trace_tree(trace: &Json, out: &mut String) {
    let spans = match trace.get("spans") {
        Some(Json::Array(spans)) => spans,
        _ => return,
    };
    let ids: std::collections::HashSet<u64> = spans
        .iter()
        .filter_map(|s| s.get("id").and_then(Json::as_u64))
        .collect();
    let mut children: HashMap<u64, Vec<&Json>> = HashMap::new();
    let mut roots: Vec<&Json> = Vec::new();
    for span in spans {
        // A span whose parent is absent from this tree is a root —
        // either the true root (parent null) or one grafted into a
        // larger client-side trace via `parent_span`.
        match span.get("parent").and_then(Json::as_u64) {
            Some(p) if ids.contains(&p) => children.entry(p).or_default().push(span),
            _ => roots.push(span),
        }
    }
    fn line(span: &Json, depth: usize, children: &HashMap<u64, Vec<&Json>>, out: &mut String) {
        use std::fmt::Write as _;
        let start = span.get("start_us").and_then(Json::as_u64).unwrap_or(0);
        let dur = match span.get("end_us").and_then(Json::as_u64) {
            Some(end) => format!("+{}us", end.saturating_sub(start)),
            None => "open".into(),
        };
        let _ = writeln!(
            out,
            "  {:indent$}{} {} [{start}us {dur}] {}",
            "",
            span.get("kind").and_then(Json::as_str).unwrap_or("?"),
            span.get("label").and_then(Json::as_str).unwrap_or(""),
            span.get("status").and_then(Json::as_str).unwrap_or("open"),
            indent = depth * 2
        );
        if let Some(id) = span.get("id").and_then(Json::as_u64) {
            if let Some(kids) = children.get(&id) {
                for kid in kids {
                    line(kid, depth + 1, children, out);
                }
            }
        }
    }
    for root in roots {
        line(root, 0, &children, out);
    }
}

/// Longest per-reply backoff the generator will sit out; a hint above
/// this is truncated so one overloaded server cannot park a worker for
/// the rest of the run.
const MAX_SHED_BACKOFF_MS: u64 = 250;

/// Honor the `retry_after_ms` hint on a shed reply: back off for the
/// server's suggested drain time before this worker's next send.
fn honor_shed_hint(tally: &mut Tally, reply: &crate::protocol::Response) {
    if reply.status != 429 {
        return;
    }
    if let Some(ms) = reply.retry_after_ms() {
        tally.retry_hints += 1;
        thread::sleep(Duration::from_millis(ms.min(MAX_SHED_BACKOFF_MS)));
    }
}

fn classify(
    tally: &mut Tally,
    tenant: Option<&str>,
    reply: &crate::protocol::Response,
    latency_us: Option<f64>,
) {
    if reply.ok {
        tally.ok += 1;
        if reply.cached() {
            tally.cached += 1;
        }
        if reply.coalesced() {
            tally.coalesced += 1;
        }
        if let Some(t) = tenant {
            tally.tenants.entry(t.to_string()).or_default().ok += 1;
        }
        if let Some(us) = latency_us {
            tally.latencies_us.push(us);
            if let Some(tid) = reply.trace_id() {
                tally.traced.push((us, tid.to_string()));
            }
            if let Some(t) = tenant {
                tally
                    .tenants
                    .entry(t.to_string())
                    .or_default()
                    .latencies_us
                    .push(us);
            }
        }
        return;
    }
    match reply.status {
        429 => {
            tally.shed += 1;
            if let Some(t) = tenant {
                tally.tenants.entry(t.to_string()).or_default().shed += 1;
            }
        }
        408 => tally.timeout += 1,
        400 => tally.bad += 1,
        503 => tally.draining += 1,
        _ => tally.other_error += 1,
    }
}

fn connection_worker(
    config: &LoadgenConfig,
    conn: usize,
    per_conn_interval: Option<Duration>,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = match Client::connect(&config.addr) {
        Ok(c) => c,
        Err(_) => {
            tally.transport_errors += 1;
            return tally;
        }
    };
    let start = Instant::now();
    let mut i: u32 = 0;
    while start.elapsed() < config.duration {
        if let Some(interval) = per_conn_interval {
            // Open loop: wait for this request's scheduled send time.
            let due = start + interval * i;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            if start.elapsed() >= config.duration {
                break;
            }
        }
        let spec = spec_for(config, conn, i as u64);
        let tenant = tenant_for(config, conn, i as u64);
        i += 1;
        tally.note_sent(tenant.as_deref());
        let request = Request {
            op: Op::Eval,
            spec: Some(spec),
            algo: Some(config.algo.clone()),
            deadline_ms: config.deadline_ms,
            tenant: tenant.clone(),
            ..Default::default()
        };
        let sent_at = Instant::now();
        match client.send(&request) {
            Ok(reply) => {
                let latency_us = sent_at.elapsed().as_secs_f64() * 1e6;
                classify(&mut tally, tenant.as_deref(), &reply, Some(latency_us));
                honor_shed_hint(&mut tally, &reply);
            }
            Err(_) => {
                tally.transport_errors += 1;
                return tally; // the connection is broken; stop this worker
            }
        }
    }
    tally
}

/// Closed loop with `window` requests outstanding: pre-fill the
/// window, then read-one-send-one until the clock runs out and the
/// window drains.  Latencies are correlated by sequence-number id
/// because replies arrive in completion order.
fn pipelined_worker(config: &LoadgenConfig, conn: usize, window: usize) -> Tally {
    let mut tally = Tally::default();
    let mut client = match Client::connect(&config.addr) {
        Ok(c) => c,
        Err(_) => {
            tally.transport_errors += 1;
            return tally;
        }
    };
    let start = Instant::now();
    // Replies arrive in completion order, so each in-flight id keeps
    // both its send time and its tenant tag for correlation.
    let mut in_flight: HashMap<String, (Instant, Option<String>)> = HashMap::new();
    let mut seq: u64 = 0;
    let mut send_next = |client: &mut Client,
                         in_flight: &mut HashMap<String, (Instant, Option<String>)>,
                         tally: &mut Tally| {
        let id = seq.to_string();
        let spec = spec_for(config, conn, seq);
        let tenant = tenant_for(config, conn, seq);
        seq += 1;
        let request = Request {
            id: Some(id.clone()),
            op: Op::Eval,
            spec: Some(spec),
            algo: Some(config.algo.clone()),
            deadline_ms: config.deadline_ms,
            tenant: tenant.clone(),
            ..Default::default()
        };
        tally.note_sent(tenant.as_deref());
        match client.write_request(&request) {
            Ok(()) => {
                in_flight.insert(id, (Instant::now(), tenant));
                true
            }
            Err(_) => {
                tally.transport_errors += 1;
                false
            }
        }
    };
    while in_flight.len() < window && start.elapsed() < config.duration {
        if !send_next(&mut client, &mut in_flight, &mut tally) {
            return tally;
        }
    }
    while !in_flight.is_empty() {
        let reply = match client.read_response() {
            Ok(r) => r,
            Err(_) => {
                // Everything still outstanding is lost with the
                // connection.
                tally.transport_errors += in_flight.len() as u64;
                return tally;
            }
        };
        let entry = reply.id.as_ref().and_then(|id| in_flight.remove(id));
        let latency_us = entry
            .as_ref()
            .map(|(at, _)| at.elapsed().as_secs_f64() * 1e6);
        let tenant = entry.and_then(|(_, t)| t);
        classify(&mut tally, tenant.as_deref(), &reply, latency_us);
        honor_shed_hint(&mut tally, &reply);
        if start.elapsed() < config.duration && !send_next(&mut client, &mut in_flight, &mut tally)
        {
            return tally;
        }
    }
    tally
}

/// Threads used to open fan-in connections; each opens its share of
/// [`LoadgenConfig::connections`] and then parks holding them.
const FAN_IN_CONNECTORS: usize = 16;

/// Open `count` idle connections (one retry each), hold them until
/// `done` flips, and report `(opened, failed)`.  The streams carry no
/// traffic — their job is to occupy server-side connection slots.
fn fan_in_worker(addr: &str, count: usize, done: &std::sync::atomic::AtomicBool) -> (u64, u64) {
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    let mut held: Vec<TcpStream> = Vec::with_capacity(count);
    let mut failed = 0u64;
    for _ in 0..count {
        match TcpStream::connect(addr).or_else(|_| {
            // One retry: listen backlogs overflow transiently when
            // thousands of SYNs land at once.
            thread::sleep(Duration::from_millis(10));
            TcpStream::connect(addr)
        }) {
            Ok(s) => held.push(s),
            Err(_) => failed += 1,
        }
    }
    let opened = held.len() as u64;
    while !done.load(Ordering::Acquire) {
        thread::sleep(Duration::from_millis(20));
    }
    (opened, failed)
}

/// Run a load-generation session against `config.addr` and aggregate
/// the results.
pub fn run_loadgen(config: &LoadgenConfig) -> LoadgenReport {
    use std::sync::atomic::{AtomicBool, Ordering};
    let conns = config.conns.max(1);
    let per_conn_interval = if config.rps > 0.0 {
        Some(Duration::from_secs_f64(conns as f64 / config.rps))
    } else {
        None
    };
    let window = config.pipeline.max(1);
    let fan_in_done = AtomicBool::new(false);
    let started = Instant::now();
    let (tallies, fan_in): (Vec<Tally>, Vec<(u64, u64)>) = thread::scope(|scope| {
        let fan_in_handles: Vec<_> = if config.connections > 0 {
            let connectors = FAN_IN_CONNECTORS.min(config.connections);
            let per = config.connections / connectors;
            let extra = config.connections % connectors;
            let done = &fan_in_done;
            (0..connectors)
                .map(|i| {
                    let count = per + usize::from(i < extra);
                    scope.spawn(move || fan_in_worker(&config.addr, count, done))
                })
                .collect()
        } else {
            Vec::new()
        };
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || {
                    if per_conn_interval.is_none() && window > 1 {
                        pipelined_worker(config, conn, window)
                    } else {
                        connection_worker(config, conn, per_conn_interval)
                    }
                })
            })
            .collect();
        let tallies = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        fan_in_done.store(true, Ordering::Release);
        let fan_in = fan_in_handles
            .into_iter()
            .map(|h| h.join().unwrap_or((0, 0)))
            .collect();
        (tallies, fan_in)
    });
    let elapsed = started.elapsed();
    let mut total = Tally::default();
    for t in tallies {
        total.absorb(t);
    }
    let (fan_in_open, fan_in_failed) = fan_in
        .into_iter()
        .fold((0, 0), |(o, f), (po, pf)| (o + po, f + pf));
    let server_stats = if config.include_server_stats {
        Client::connect(&config.addr)
            .ok()
            .and_then(|mut c| c.stats().ok())
            .and_then(|reply| reply.body.get("stats").cloned())
    } else {
        None
    };
    let sampled_traces = if config.sample_traces > 0 {
        fetch_slowest_traces(&config.addr, &total.traced, config.sample_traces)
    } else {
        Vec::new()
    };
    let traced_latencies_us: Vec<f64> = total.traced.iter().map(|(us, _)| *us).collect();
    let mut tenants: Vec<TenantReport> = total
        .tenants
        .into_iter()
        .map(|(tenant, t)| TenantReport {
            tenant,
            sent: t.sent,
            ok: t.ok,
            shed: t.shed,
            latencies_us: t.latencies_us,
        })
        .collect();
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    LoadgenReport {
        sent: total.sent,
        ok: total.ok,
        cached: total.cached,
        coalesced: total.coalesced,
        shed: total.shed,
        timeout: total.timeout,
        bad: total.bad,
        draining: total.draining,
        other_error: total.other_error,
        transport_errors: total.transport_errors,
        retry_hints: total.retry_hints,
        fan_in_open,
        fan_in_failed,
        elapsed,
        latencies_us: total.latencies_us,
        traced_latencies_us,
        server_stats,
        sampled_traces,
        tenants,
    }
}

/// Fetch the span trees of the `n` slowest traced requests from the
/// router's trace ring.  Best-effort: traces evicted from the ring
/// (or a target that is not a tracing router) just drop out.
fn fetch_slowest_traces(addr: &str, traced: &[(f64, String)], n: usize) -> Vec<Json> {
    let mut slowest: Vec<&(f64, String)> = traced.iter().collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut seen = std::collections::HashSet::new();
    let picked: Vec<&(f64, String)> = slowest
        .into_iter()
        .filter(|(_, tid)| seen.insert(tid.clone()))
        .take(n)
        .collect();
    if picked.is_empty() {
        return Vec::new();
    }
    let Ok(mut client) = Client::connect(addr) else {
        return Vec::new();
    };
    picked
        .iter()
        .enumerate()
        .filter_map(|(i, (latency_us, tid))| {
            let line = format!(r#"{{"op":"trace","id":"lg-{i}","trace":{{"trace_id":"{tid}"}}}}"#);
            client
                .send_line(&line)
                .ok()
                .filter(|reply| reply.ok)
                .and_then(|reply| reply.body.get("trace").cloned())
                .map(|trace| Json::obj([("latency_us", Json::from(*latency_us)), ("trace", trace)]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Config, Server};

    #[test]
    fn closed_loop_run_against_a_live_server() {
        let server = Server::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let report = run_loadgen(&LoadgenConfig {
            addr: server.local_addr().to_string(),
            conns: 2,
            rps: 0.0,
            duration: Duration::from_millis(300),
            spec: "worst:d=2,n=6".into(),
            algo: "seq-solve".into(),
            deadline_ms: Some(5_000),
            pipeline: 1,
            ..LoadgenConfig::default()
        });
        assert!(report.sent > 0);
        assert_eq!(report.transport_errors, 0);
        assert!(report.ok > 0, "report: {}", report.render());
        // Identical requests: everything after the first misses is
        // served from the cache.
        assert!(report.cached > 0);
        assert!(!report.render().is_empty());
        let j = report.to_json();
        assert_eq!(j.get("ok").and_then(Json::as_u64), Some(report.ok));
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn open_loop_paces_requests() {
        let server = Server::start(Config::default()).unwrap();
        let report = run_loadgen(&LoadgenConfig {
            addr: server.local_addr().to_string(),
            conns: 1,
            rps: 50.0,
            duration: Duration::from_millis(400),
            spec: "worst:d=2,n=4".into(),
            algo: "seq-solve".into(),
            deadline_ms: Some(5_000),
            pipeline: 1,
            ..LoadgenConfig::default()
        });
        // 50 rps for 0.4s ≈ 20 requests; allow generous slack for
        // scheduling noise but catch runaway closed-loop behaviour.
        assert!(report.sent <= 30, "sent {}", report.sent);
        assert!(report.sent >= 5, "sent {}", report.sent);
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn pipelined_closed_loop_keeps_a_window_in_flight() {
        let server = Server::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let report = run_loadgen(&LoadgenConfig {
            addr: server.local_addr().to_string(),
            conns: 1,
            rps: 0.0,
            duration: Duration::from_millis(300),
            spec: "worst:d=2,n=6".into(),
            algo: "seq-solve".into(),
            deadline_ms: Some(5_000),
            pipeline: 8,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.transport_errors, 0, "report: {}", report.render());
        assert!(report.ok > 0);
        // Identical requests: the first cold burst coalesces, the
        // rest hit the cache; every reply is accounted for.
        assert_eq!(
            report.ok
                + report.shed
                + report.timeout
                + report.bad
                + report.draining
                + report.other_error,
            report.sent
        );
        assert!(report.cached > 0, "report: {}", report.render());
        assert_eq!(report.latencies_us.len() as u64, report.ok);
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn shed_hints_back_off_and_are_counted() {
        use crate::protocol::{error_line, error_line_with, ErrorCode, Response};
        let line = error_line_with(
            &None,
            ErrorCode::Busy,
            "queue full",
            vec![("retry_after_ms", Json::from(20u64))],
        );
        let reply = Response::parse(&line).unwrap();
        let mut tally = Tally::default();
        let start = Instant::now();
        honor_shed_hint(&mut tally, &reply);
        assert_eq!(tally.retry_hints, 1);
        assert!(start.elapsed() >= Duration::from_millis(20));
        // No hint, or a non-shed reply: no sleep, no count.
        let bare = Response::parse(&error_line(&None, ErrorCode::Busy, "queue full")).unwrap();
        honor_shed_hint(&mut tally, &bare);
        let to = Response::parse(&error_line(&None, ErrorCode::Timeout, "late")).unwrap();
        honor_shed_hint(&mut tally, &to);
        assert_eq!(tally.retry_hints, 1);
    }

    #[test]
    fn fan_in_holds_idle_connections_alongside_active_load() {
        let server = Server::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let report = run_loadgen(&LoadgenConfig {
            addr: server.local_addr().to_string(),
            conns: 1,
            connections: 50,
            rps: 0.0,
            duration: Duration::from_millis(300),
            spec: "worst:d=2,n=6".into(),
            algo: "seq-solve".into(),
            deadline_ms: Some(5_000),
            pipeline: 1,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.fan_in_open, 50, "report: {}", report.render());
        assert_eq!(report.fan_in_failed, 0);
        assert!(report.ok > 0, "active load ran under the idle fan-in");
        let j = report.to_json();
        assert_eq!(j.get("fan_in_open").and_then(Json::as_u64), Some(50));
        assert_eq!(j.get("fan_in_failed").and_then(Json::as_u64), Some(0));
        assert!(report.render().contains("fan-in 50 idle connections"));
        server.request_shutdown();
        let stats = server.join();
        // The server accounted every socket: 50 idle + 1 worker (plus
        // none left open at join time).
        assert!(
            stats.u64("connections") >= 51,
            "connections {}",
            stats.u64("connections")
        );
        assert_eq!(stats.u64("open_conns"), 0);
    }

    #[test]
    fn flame_rendering_indents_children_under_parents() {
        let trace = Json::parse(
            r#"{"trace_id":"rt-1","spans":[
                {"id":1,"parent":null,"kind":"request","label":"worst:d=2,n=6","start_us":0,"end_us":900,"status":"ok"},
                {"id":2,"parent":1,"kind":"route","label":"a(t0) > b(t1)","start_us":5,"end_us":5,"status":"ok"},
                {"id":3,"parent":1,"kind":"dispatch","label":"a:7171","start_us":10,"end_us":880,"status":"ok"},
                {"id":4,"parent":9,"kind":"orphan","label":"grafted","start_us":1,"end_us":2,"status":"ok"}
            ]}"#,
        )
        .unwrap();
        let mut out = String::new();
        render_trace_tree(&trace, &mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].contains("request worst:d=2,n=6 [0us +900us] ok"),
            "{out}"
        );
        // Children are indented one level deeper than the root.
        assert!(lines[1].starts_with("    route"), "{out}");
        assert!(
            lines[2].contains("dispatch a:7171 [10us +870us] ok"),
            "{out}"
        );
        // A span whose parent is missing from the tree prints as a root.
        assert!(lines[3].starts_with("  orphan"), "{out}");
    }

    #[test]
    fn multi_tenant_runs_break_the_report_out_per_tenant() {
        let server = Server::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let report = run_loadgen(&LoadgenConfig {
            addr: server.local_addr().to_string(),
            conns: 2,
            duration: Duration::from_millis(300),
            spec: "worst:d=2,n=6".into(),
            algo: "seq-solve".into(),
            deadline_ms: Some(5_000),
            pipeline: 4,
            tenants: 3,
            include_server_stats: true,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.transport_errors, 0, "report: {}", report.render());
        assert!(report.ok > 0);
        // Every request was tagged, so the per-tenant slices cover the
        // whole run exactly.
        assert_eq!(report.tenants.len(), 3, "report: {}", report.render());
        let tags: Vec<&str> = report.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(tags, ["t0", "t1", "t2"]);
        let sent: u64 = report.tenants.iter().map(|t| t.sent).sum();
        let ok: u64 = report.tenants.iter().map(|t| t.ok).sum();
        let shed: u64 = report.tenants.iter().map(|t| t.shed).sum();
        assert_eq!(sent, report.sent);
        assert_eq!(ok, report.ok);
        assert_eq!(shed, report.shed);
        for t in &report.tenants {
            assert_eq!(t.latencies_us.len() as u64, t.ok);
        }
        // The report surfaces the breakdown in both formats...
        let j = report.to_json();
        let jt = j.get("tenants").expect("tenants object in json");
        assert_eq!(
            jt.get("t0")
                .and_then(|t| t.get("ok"))
                .and_then(Json::as_u64),
            Some(report.tenants[0].ok)
        );
        assert!(report.render().contains("tenant t0:"));
        // ...and the server kept its own per-tenant cards for the same
        // tags (dispatch-side accounting, so totals can differ from
        // the client's view only by coalesced followers — never by tag).
        let stats = report.server_stats.as_ref().expect("server stats embedded");
        let server_tenants = stats.get("tenants").expect("server tenants object");
        for tag in ["t0", "t1", "t2"] {
            assert!(
                server_tenants.get(tag).is_some(),
                "server stats missing tenant {tag}: {stats:?}"
            );
        }
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn distinct_mode_defeats_cache_and_coalescing() {
        let server = Server::start(Config {
            workers: 2,
            ..Config::default()
        })
        .unwrap();
        let report = run_loadgen(&LoadgenConfig {
            addr: server.local_addr().to_string(),
            conns: 2,
            duration: Duration::from_millis(300),
            spec: "crit:d=2,n=4".into(),
            algo: "seq-solve".into(),
            deadline_ms: Some(5_000),
            pipeline: 4,
            distinct: true,
            include_server_stats: true,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.transport_errors, 0, "report: {}", report.render());
        assert!(report.ok > 0);
        assert_eq!(report.cached, 0, "every key is distinct: no cache hits");
        assert_eq!(report.coalesced, 0, "no two requests share a key");
        let stats = report.server_stats.as_ref().expect("server stats embedded");
        assert_eq!(
            stats.get("cache_hits").and_then(Json::as_u64),
            Some(0),
            "server agrees nothing hit the cache"
        );
        assert!(
            stats.get("evaluated").and_then(Json::as_u64).unwrap_or(0) > 0,
            "every distinct request ran an engine"
        );
        let j = report.to_json();
        assert!(j.get("server").is_some());
        server.request_shutdown();
        server.join();
    }
}
