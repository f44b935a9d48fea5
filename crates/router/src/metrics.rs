//! Router metrics: fleet-level counters, per-replica counters, a
//! route-latency histogram, and the one table that declares how each
//! is exported.
//!
//! Counters are atomics (plus gt-serve's lock-free
//! [`Histogram`]) so the data path never takes a lock to count.
//! [`ROUTER_FAMILIES`] declares every series once, reading a
//! [`RouterView`]; `op:"stats"`, the `/metrics` listener and the
//! shutdown dump of `gtree route` are all rendered from it by
//! [`gt_serve::registry`].

use crate::membership::MembershipCounters;
use crate::router::{Inner, Replica};
use gt_serve::eventloop::ConnCounters;
use gt_serve::metrics::Histogram;
use gt_serve::protocol::PROTOCOL_VERSION;
use gt_serve::registry::{
    build_info, counter, gauge, histogram, info, one, uptime, Family, Sample, Value,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-replica data-path counters.  These live on the replica (next
/// to its connections), not in [`RouterMetrics`].
#[derive(Default)]
pub struct ReplicaCounters {
    /// Eval attempts written to this replica.
    pub sent: AtomicU64,
    /// Ok replies received.
    pub ok: AtomicU64,
    /// 429/503 replies received (each triggers a failover retry).
    pub busy: AtomicU64,
    /// Other error replies (forwarded to the client as-is).
    pub errors: AtomicU64,
    /// Transport failures: sends that found the connection down, and
    /// in-flight requests orphaned when it closed.
    pub transport: AtomicU64,
    /// Failed health probes.
    pub probe_failures: AtomicU64,
}

impl ReplicaCounters {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Fleet-level router counters and the end-to-end route-latency
/// histogram (client line in → client line out, for ok replies).
pub struct RouterMetrics {
    start: Instant,
    /// Eval requests accepted from clients.
    pub requests: AtomicU64,
    /// Ok replies relayed to clients.
    pub ok: AtomicU64,
    /// Upstream error replies relayed verbatim (not busy/draining).
    pub forwarded_errors: AtomicU64,
    /// Failover re-dispatches (busy reply, transport loss, dead
    /// candidate skipped).
    pub retries: AtomicU64,
    /// Hedge attempts launched.
    pub hedges: AtomicU64,
    /// Requests won by the hedge copy.
    pub hedge_wins: AtomicU64,
    /// Duplicate replies discarded because the other copy won.
    pub hedge_losers: AtomicU64,
    /// Requests shed by the router itself (window full or no
    /// routable replica).
    pub shed: AtomicU64,
    /// Requests that exhausted their deadline inside the router.
    pub expired: AtomicU64,
    /// Requests rejected because the router is draining.
    pub draining: AtomicU64,
    /// Malformed or invalid client requests.
    pub bad_request: AtomicU64,
    /// Upstream replies that matched no pending request.
    pub stale_replies: AtomicU64,
    /// Requests that ran out of routable candidates.
    pub unrouted: AtomicU64,
    /// Client accepts and closes, kept by the connection loop.
    pub conns: ConnCounters,
    /// Evals decomposed into scatter-gather split plans.
    pub splits_total: AtomicU64,
    /// Subevals placed on replicas (initial sends and re-dispatches).
    pub subevals_dispatched: AtomicU64,
    /// Subevals sent again: down the hash order after a busy reply or
    /// a transport loss, or after waiting for a connected upstream.
    pub subevals_retried: AtomicU64,
    /// In-flight subeval results discarded on arrival because a
    /// cutoff had already settled their level (the no-abort rule).
    pub subevals_discarded_on_cutoff: AtomicU64,
    /// Subevals never dispatched: a cutoff skipped them, or the plan
    /// was answered while they were still staged.
    pub subevals_skipped_on_cutoff: AtomicU64,
    /// Deepest eldest chain any plan has used (monotone high-water).
    pub split_depth: AtomicU64,
    /// Membership-change counters (joins, refreshes, reweights).
    pub members: MembershipCounters,
    /// End-to-end latency of ok replies, microseconds.
    pub route_latency: Histogram,
}

impl Default for RouterMetrics {
    fn default() -> Self {
        RouterMetrics {
            start: Instant::now(),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            forwarded_errors: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
            hedge_losers: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            draining: AtomicU64::new(0),
            bad_request: AtomicU64::new(0),
            stale_replies: AtomicU64::new(0),
            unrouted: AtomicU64::new(0),
            conns: ConnCounters::default(),
            splits_total: AtomicU64::new(0),
            subevals_dispatched: AtomicU64::new(0),
            subevals_retried: AtomicU64::new(0),
            subevals_discarded_on_cutoff: AtomicU64::new(0),
            subevals_skipped_on_cutoff: AtomicU64::new(0),
            split_depth: AtomicU64::new(0),
            members: MembershipCounters::default(),
            route_latency: Histogram::default(),
        }
    }
}

impl RouterMetrics {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Microseconds since the registry (≈ the router) started.
    pub fn uptime_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Raise the split-depth high-water mark.
    pub fn record_split_depth(&self, depth: u64) {
        self.split_depth.fetch_max(depth, Ordering::Relaxed);
    }
}

/// What [`ROUTER_FAMILIES`] read: the router, one read of its member
/// list (so every per-replica family walks the same rows), and one
/// clock read.
pub(crate) struct RouterView {
    pub inner: Arc<Inner>,
    pub members: Arc<Vec<Arc<Replica>>>,
    pub now_us: u64,
}

impl RouterView {
    pub(crate) fn of(inner: &Arc<Inner>) -> RouterView {
        RouterView {
            inner: Arc::clone(inner),
            members: inner.members(),
            now_us: inner.metrics.uptime_us(),
        }
    }
}

fn per_replica(v: &RouterView, pick: impl Fn(&Replica) -> Value) -> Vec<Sample> {
    let rows = v.members.iter();
    rows.map(|r| Sample::new([("replica", r.addr.clone())], pick(r)))
        .collect()
}

fn ejects(r: &Replica) -> u64 {
    r.health
        .lock()
        .expect("health lock holders never panic")
        .ejects
}

fn state_name(r: &Replica) -> Value {
    let health = r.health.lock().expect("health lock holders never panic");
    health.state().name().into()
}

/// Every series the router exports, each declared once, in `stats` key
/// order.
pub(crate) const ROUTER_FAMILIES: &[Family<RouterView>] = &[
    info("version", "Wire protocol version.", |_| {
        one(PROTOCOL_VERSION)
    }),
    info("uptime_us", "Microseconds since the router started.", |v| {
        one(v.now_us)
    }),
    uptime("router_uptime_seconds", |v| one(v.now_us as f64 / 1e6)),
    build_info("router_build_info"),
    counter(
        "router_requests_total",
        "requests",
        "Eval requests accepted from clients.",
        |v| one(&v.inner.metrics.requests),
    ),
    counter(
        "router_ok_total",
        "ok",
        "Ok replies relayed to clients.",
        |v| one(&v.inner.metrics.ok),
    ),
    counter(
        "router_forwarded_errors_total",
        "forwarded_errors",
        "Upstream error replies relayed verbatim.",
        |v| one(&v.inner.metrics.forwarded_errors),
    ),
    counter(
        "router_retries_total",
        "retries",
        "Failover re-dispatches to another replica.",
        |v| one(&v.inner.metrics.retries),
    ),
    counter(
        "router_hedges_total",
        "hedges",
        "Hedge attempts launched.",
        |v| one(&v.inner.metrics.hedges),
    ),
    counter(
        "router_hedge_wins_total",
        "hedge_wins",
        "Requests won by the hedge copy.",
        |v| one(&v.inner.metrics.hedge_wins),
    ),
    counter(
        "router_hedge_losers_total",
        "hedge_losers",
        "Duplicate replies discarded because the other copy won.",
        |v| one(&v.inner.metrics.hedge_losers),
    ),
    counter(
        "router_shed_total",
        "shed",
        "Requests shed by the router (window full or unroutable).",
        |v| one(&v.inner.metrics.shed),
    ),
    counter(
        "router_expired_total",
        "expired",
        "Requests that exhausted their deadline in the router.",
        |v| one(&v.inner.metrics.expired),
    ),
    counter(
        "router_draining_total",
        "draining",
        "Requests rejected because the router is draining.",
        |v| one(&v.inner.metrics.draining),
    ),
    counter(
        "router_bad_request_total",
        "bad_request",
        "Malformed or invalid client requests.",
        |v| one(&v.inner.metrics.bad_request),
    ),
    counter(
        "router_stale_replies_total",
        "stale_replies",
        "Upstream replies that matched no pending request.",
        |v| one(&v.inner.metrics.stale_replies),
    ),
    counter(
        "router_unrouted_total",
        "unrouted",
        "Requests that ran out of routable candidates.",
        |v| one(&v.inner.metrics.unrouted),
    ),
    counter(
        "router_connections_total",
        "connections",
        "Client connections accepted.",
        |v| one(&v.inner.metrics.conns.accepted),
    ),
    gauge(
        "router_open_connections",
        "open_conns",
        "Client connections currently registered with an I/O thread.",
        |v| one(&v.inner.metrics.conns.open),
    ),
    counter(
        "router_conn_overflow_closed_total",
        "overflow_closed",
        "Client connections closed for overflowing their outbound queue.",
        |v| one(&v.inner.metrics.conns.overflow_closed),
    ),
    counter(
        "router_conn_overlong_closed_total",
        "overlong_closed",
        "Client connections closed for an over-long request line.",
        |v| one(&v.inner.metrics.conns.overlong_closed),
    ),
    counter(
        "router_splits_total",
        "splits_total",
        "Evals decomposed into scatter-gather split plans.",
        |v| one(&v.inner.metrics.splits_total),
    ),
    counter(
        "router_subevals_dispatched_total",
        "subevals_dispatched",
        "Subevals placed on replicas.",
        |v| one(&v.inner.metrics.subevals_dispatched),
    ),
    counter(
        "router_subevals_retried_total",
        "subevals_retried",
        "Subevals sent again (busy reply, transport loss, or a wait for a connection).",
        |v| one(&v.inner.metrics.subevals_retried),
    ),
    counter(
        "router_subevals_discarded_on_cutoff_total",
        "subevals_discarded_on_cutoff",
        "In-flight subeval results discarded after a cutoff.",
        |v| one(&v.inner.metrics.subevals_discarded_on_cutoff),
    ),
    counter(
        "router_subevals_skipped_on_cutoff_total",
        "subevals_skipped_on_cutoff",
        "Subevals never dispatched: skipped by a cutoff or overtaken by the answer.",
        |v| one(&v.inner.metrics.subevals_skipped_on_cutoff),
    ),
    gauge(
        "router_split_depth",
        "split_depth",
        "Deepest eldest chain any split plan has used.",
        |v| one(&v.inner.metrics.split_depth),
    ),
    counter(
        "router_ejects_total",
        "ejects",
        "Replica ejections by the health prober, summed over members.",
        |v| one(v.members.iter().map(|r| ejects(r)).sum::<u64>()),
    ),
    gauge(
        "router_membership_version",
        "membership.version",
        "Routing-table revision (bumped per membership change).",
        |v| one(v.inner.table.version()),
    ),
    gauge(
        "router_members",
        "membership.members",
        "Members in the routing table.",
        |v| one(v.members.len()),
    ),
    counter(
        "router_members_joined_total",
        "membership.joined",
        "Members admitted by a join announcement.",
        |v| one(&v.inner.metrics.members.joined),
    ),
    counter(
        "router_members_refreshed_total",
        "membership.refreshed",
        "Re-joins of a known address with a higher generation.",
        |v| one(&v.inner.metrics.members.refreshed),
    ),
    counter(
        "router_members_reweighted_total",
        "membership.reweighted",
        "In-place weight changes.",
        |v| one(&v.inner.metrics.members.reweighted),
    ),
    counter(
        "router_members_stale_joins_total",
        "membership.stale_joins",
        "Stale (lower-generation) announcements ignored.",
        |v| one(&v.inner.metrics.members.stale_joins),
    ),
    counter(
        "router_members_duplicate_joins_total",
        "membership.duplicate_joins",
        "Announce retries that changed nothing.",
        |v| one(&v.inner.metrics.members.duplicate_joins),
    ),
    counter(
        "router_span_traces_started_total",
        "traces.started",
        "Traces the span recorder opened (sampled or client-pinned).",
        |v| one(v.inner.recorder.started_total()),
    ),
    counter(
        "router_span_traces_finished_total",
        "traces.finished",
        "Traces whose request has been answered.",
        |v| one(v.inner.recorder.finished_total()),
    ),
    counter(
        "router_span_spans_total",
        "traces.spans",
        "Spans of every finished trace.",
        |v| one(v.inner.recorder.spans_total()),
    ),
    gauge(
        "router_span_active_traces",
        "traces.active",
        "Traces still being assembled.",
        |v| one(v.inner.recorder.held().0),
    ),
    gauge(
        "router_span_ring_traces",
        "traces.ringed",
        "Finished traces held in the query ring.",
        |v| one(v.inner.recorder.held().1),
    ),
    histogram(
        "router_route_latency_seconds",
        "route_latency",
        "End-to-end latency of ok replies.",
        |v| one(&v.inner.metrics.route_latency),
    ),
    info("replicas[].addr", "The member's address.", |v| {
        per_replica(v, |r| r.addr.as_str().into())
    }),
    info(
        "replicas[].state",
        "Health state (healthy, degraded, ejected, half-open).",
        |v| per_replica(v, state_name),
    ),
    gauge(
        "router_replica_tier",
        "replicas[].tier",
        "Routing tier (0 healthy .. 3 ejected).",
        |v| per_replica(v, |r| Value::from(u64::from(r.tier()))),
    ),
    gauge(
        "router_replica_weight",
        "replicas[].weight",
        "Weighted-rendezvous routing weight per member.",
        |v| per_replica(v, |r| Value::from(&r.weight)),
    ),
    gauge(
        "router_replica_generation",
        "replicas[].generation",
        "Last generation each member announced (0 for static seeds).",
        |v| per_replica(v, |r| Value::from(&r.generation)),
    ),
    counter(
        "router_replica_ejects_total",
        "replicas[].ejects",
        "Ejections of each member by the health prober.",
        |v| per_replica(v, |r| Value::from(ejects(r))),
    ),
    counter(
        "router_replica_requests_total",
        "replicas[].sent",
        "Eval attempts sent per replica.",
        |v| per_replica(v, |r| Value::from(&r.counters.sent)),
    ),
    counter(
        "router_replica_ok_total",
        "replicas[].ok",
        "Ok replies received per replica.",
        |v| per_replica(v, |r| Value::from(&r.counters.ok)),
    ),
    counter(
        "router_replica_busy_total",
        "replicas[].busy",
        "Busy (429/503) replies received per replica.",
        |v| per_replica(v, |r| Value::from(&r.counters.busy)),
    ),
    counter(
        "router_replica_errors_total",
        "replicas[].errors",
        "Other error replies received per replica.",
        |v| per_replica(v, |r| Value::from(&r.counters.errors)),
    ),
    counter(
        "router_replica_transport_errors_total",
        "replicas[].transport",
        "Transport failures per replica (sends that found the connection down, orphaned requests).",
        |v| per_replica(v, |r| Value::from(&r.counters.transport)),
    ),
    counter(
        "router_replica_probe_failures_total",
        "replicas[].probe_failures",
        "Failed health probes per replica.",
        |v| per_replica(v, |r| Value::from(&r.counters.probe_failures)),
    ),
    gauge(
        "router_replica_connected",
        "replicas[].connected",
        "1 while the router holds the member's connection, else 0.",
        |v| per_replica(v, |r| Value::from(u64::from(r.connected()))),
    ),
    gauge(
        "router_replica_inflight",
        "replicas[].inflight",
        "Requests awaiting a reply per replica.",
        |v| per_replica(v, |r| Value::from(r.inflight())),
    ),
    gauge(
        "router_replica_last_probe_age_seconds",
        "replicas[].last_probe_age_s",
        "Seconds since the last health probe of each member finished.",
        |v| {
            per_replica(v, |r| match r.last_probe_us.load(Ordering::Relaxed) {
                u64::MAX => Value::Absent,
                at => Value::from(v.now_us.saturating_sub(at) as f64 / 1e6),
            })
        },
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::JoinAction;
    use crate::router::{Router, RouterConfig};
    use crate::trace::ROOT_SPAN;
    use gt_analysis::Json;
    use gt_serve::registry::{prometheus_text, stats_json};
    use std::time::Duration;

    /// A router over two spawned replicas whose prober has finished
    /// its first round and will not run again during the test.
    fn quiet_router() -> Router {
        let router = Router::start(RouterConfig {
            spawn: 2,
            probe_interval_ms: 60_000,
            trace_sample: 1.0,
            ..RouterConfig::default()
        })
        .unwrap();
        let inner = router.inner();
        while inner
            .members()
            .iter()
            .any(|r| r.last_probe_us.load(Ordering::Relaxed) == u64::MAX)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        for r in inner.members().iter() {
            r.weight.store(2, Ordering::Relaxed);
            r.counters.sent.fetch_add(10, Ordering::Relaxed);
            r.health.lock().unwrap().ejects = 2;
        }
        for _ in 0..3 {
            let h = inner.recorder.begin(None, "x").unwrap();
            h.event(ROOT_SPAN, "route", "0".into(), "ok");
            h.end(ROOT_SPAN, "ok");
            inner.recorder.finish(&h);
        }
        router
    }

    #[test]
    fn stats_round_trip_counters_into_json() {
        let router = quiet_router();
        let inner = router.inner();
        let m = &inner.metrics;
        m.requests.fetch_add(7, Ordering::Relaxed);
        m.retries.fetch_add(3, Ordering::Relaxed);
        m.splits_total.fetch_add(2, Ordering::Relaxed);
        m.subevals_dispatched.fetch_add(9, Ordering::Relaxed);
        m.subevals_discarded_on_cutoff
            .fetch_add(1, Ordering::Relaxed);
        m.hedge_losers.fetch_add(4, Ordering::Relaxed);
        m.record_split_depth(3);
        m.record_split_depth(2);
        m.route_latency.record(500);
        m.members.record(JoinAction::Admit);
        m.members.record(JoinAction::Reweight);
        let s = stats_json(ROUTER_FAMILIES, &RouterView::of(inner));
        assert_eq!(s.u64("version"), 1);
        assert!(
            s.get("uptime_s").and_then(Json::as_f64).is_some(),
            "stats must expose uptime_s for parity with the replica tier"
        );
        assert_eq!(s.u64("requests"), 7);
        assert_eq!(s.u64("traces.started"), 3);
        assert_eq!(s.u64("traces.spans"), 6);
        assert_eq!(s.u64("traces.ringed"), 3);
        assert_eq!(s.u64("retries"), 3);
        assert_eq!(s.u64("hedge_losers"), 4);
        assert_eq!(s.u64("splits_total"), 2);
        assert_eq!(s.u64("subevals_dispatched"), 9);
        assert_eq!(s.u64("subevals_discarded_on_cutoff"), 1);
        assert_eq!(
            s.u64("split_depth"),
            3,
            "split_depth is a high-water mark, not a sum"
        );
        assert_eq!(s.u64("route_latency.count"), 1);
        assert_eq!(s.u64("route_latency.sum_us"), 500);
        assert_eq!(s.u64("membership.version"), inner.table.version());
        assert_eq!(s.u64("membership.members"), 2);
        assert_eq!(s.u64("membership.joined"), 1);
        assert_eq!(s.u64("membership.reweighted"), 1);
        let addrs = router.replica_addrs();
        assert_eq!(
            s.get("replicas.0.addr").and_then(Json::as_str),
            Some(addrs[0].as_str())
        );
        assert_eq!(
            s.get("replicas.0.state").and_then(Json::as_str),
            Some("healthy")
        );
        assert_eq!(s.u64("replicas.0.ejects"), 2);
        assert_eq!(s.u64("replicas.0.weight"), 2);
        assert_eq!(s.u64("replicas.0.generation"), 0);
        assert_eq!(s.u64("replicas.1.sent"), 10);
        assert_eq!(s.u64("ejects"), 4);
        router.join();
    }

    #[test]
    fn prometheus_exposition_names_the_required_series() {
        let router = quiet_router();
        let inner = router.inner();
        let m = &inner.metrics;
        m.retries.fetch_add(4, Ordering::Relaxed);
        m.splits_total.fetch_add(1, Ordering::Relaxed);
        m.subevals_skipped_on_cutoff.fetch_add(5, Ordering::Relaxed);
        m.route_latency.record(1_000);
        m.members.record(JoinAction::Admit);
        // Pretend replica 0 was last probed 250 ms ago.
        while inner.metrics.uptime_us() < 300_000 {
            std::thread::sleep(Duration::from_millis(10));
        }
        let r0 = &inner.members()[0];
        r0.last_probe_us.store(
            inner.metrics.uptime_us().saturating_sub(250_000),
            Ordering::Relaxed,
        );
        let text = prometheus_text(ROUTER_FAMILIES, &RouterView::of(inner));
        let addrs = router.replica_addrs();
        assert!(text.contains("router_retries_total 4"), "{text}");
        assert!(text.contains("router_requests_total"), "{text}");
        let sent = format!(
            "router_replica_requests_total{{replica=\"{}\"}} 10",
            addrs[1]
        );
        assert!(text.contains(&sent), "{text}");
        // Route latency is a histogram in seconds, aggregatable across
        // routers: 1000 µs lands in the [512, 1024) µs bucket.
        assert!(
            text.contains("# TYPE router_route_latency_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("router_route_latency_seconds_bucket{le=\"0.000512\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("router_route_latency_seconds_bucket{le=\"0.001024\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("router_route_latency_seconds_sum 0.001\n"),
            "{text}"
        );
        assert!(
            text.contains("router_route_latency_seconds_count 1"),
            "{text}"
        );
        // ejects sums across replicas
        assert!(text.contains("router_ejects_total 4"), "{text}");
        assert!(text.contains("router_splits_total 1"), "{text}");
        assert!(
            text.contains("router_subevals_dispatched_total 0"),
            "{text}"
        );
        assert!(
            text.contains("router_subevals_skipped_on_cutoff_total 5"),
            "{text}"
        );
        assert!(text.contains("router_split_depth 0"), "{text}");
        assert!(text.contains("router_members 2"), "{text}");
        let version = format!("router_membership_version {}", inner.table.version());
        assert!(text.contains(&version), "{text}");
        assert!(text.contains("router_members_joined_total 1"), "{text}");
        let weight = format!("router_replica_weight{{replica=\"{}\"}} 2", addrs[0]);
        assert!(text.contains(&weight), "{text}");
        assert!(
            text.contains("router_span_traces_started_total 3"),
            "{text}"
        );
        assert!(text.contains("router_span_spans_total 6"), "{text}");
        assert!(text.contains("router_span_ring_traces 3"), "{text}");
        let age = format!(
            "router_replica_last_probe_age_seconds{{replica=\"{}\"}} ",
            addrs[0]
        );
        let age: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix(age.as_str()))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no probe age for {}: {text}", addrs[0]));
        assert!((0.25..0.35).contains(&age), "probe age {age}");
        assert!(text.contains("router_build_info{version=\""), "{text}");
        assert!(
            text.contains("# TYPE router_uptime_seconds gauge"),
            "{text}"
        );
        router.join();
    }
}
