//! Router metrics registry: fleet-level counters, per-replica
//! counters, and a route-latency histogram.
//!
//! The registry is all atomics (plus gt-serve's lock-free
//! [`LatencyHistogram`]) so the data path never takes a lock to count.
//! [`RouterMetrics::snapshot`] freezes the fleet-level half; the
//! router adds per-replica rows (whose counters live next to the
//! connection state) to form a [`RouterSnapshot`], which renders both
//! as `op:"stats"` JSON and Prometheus text exposition for the
//! `/metrics` listener.

use crate::membership::MembershipCounters;
use crate::trace::TraceStats;
use gt_analysis::json::Json;
use gt_serve::metrics::{HistogramSnapshot, LatencyHistogram};
use gt_serve::protocol::PROTOCOL_VERSION;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-replica data-path counters.  These live on the replica (next
/// to its connections), not in [`RouterMetrics`], but snapshot into
/// the same [`RouterSnapshot`].
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
    /// Transport failures: write errors, resets, orphaned in-flight
    /// requests on connection death.
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
    /// Client connections accepted.
    pub connections: AtomicU64,
    /// Evals decomposed into scatter-gather split plans.
    pub splits_total: AtomicU64,
    /// Subevals placed on replicas (initial sends and re-dispatches).
    pub subevals_dispatched: AtomicU64,
    /// Subevals re-dispatched down the hash order (busy reply or
    /// transport loss).
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
    pub route_latency: LatencyHistogram,
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
            connections: AtomicU64::new(0),
            splits_total: AtomicU64::new(0),
            subevals_dispatched: AtomicU64::new(0),
            subevals_retried: AtomicU64::new(0),
            subevals_discarded_on_cutoff: AtomicU64::new(0),
            subevals_skipped_on_cutoff: AtomicU64::new(0),
            split_depth: AtomicU64::new(0),
            members: MembershipCounters::default(),
            route_latency: LatencyHistogram::default(),
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

    /// Freeze the fleet-level counters.  The router supplies the
    /// per-replica rows it assembles from live replica state and the
    /// routing table's membership revision.
    pub fn snapshot(
        &self,
        replicas: Vec<ReplicaSnapshot>,
        trace: TraceStats,
        membership_version: u64,
    ) -> RouterSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RouterSnapshot {
            uptime_us: self.start.elapsed().as_micros() as u64,
            trace,
            membership_version,
            members_joined: load(&self.members.joined),
            members_refreshed: load(&self.members.refreshed),
            members_reweighted: load(&self.members.reweighted),
            members_stale_joins: load(&self.members.stale_joins),
            members_duplicate_joins: load(&self.members.duplicate_joins),
            requests: load(&self.requests),
            ok: load(&self.ok),
            forwarded_errors: load(&self.forwarded_errors),
            retries: load(&self.retries),
            hedges: load(&self.hedges),
            hedge_wins: load(&self.hedge_wins),
            hedge_losers: load(&self.hedge_losers),
            shed: load(&self.shed),
            expired: load(&self.expired),
            draining: load(&self.draining),
            bad_request: load(&self.bad_request),
            stale_replies: load(&self.stale_replies),
            unrouted: load(&self.unrouted),
            connections: load(&self.connections),
            splits_total: load(&self.splits_total),
            subevals_dispatched: load(&self.subevals_dispatched),
            subevals_retried: load(&self.subevals_retried),
            subevals_discarded_on_cutoff: load(&self.subevals_discarded_on_cutoff),
            subevals_skipped_on_cutoff: load(&self.subevals_skipped_on_cutoff),
            split_depth: load(&self.split_depth),
            route_latency: self.route_latency.snapshot_full(),
            replicas,
        }
    }

    /// Raise the split-depth high-water mark.
    pub fn record_split_depth(&self, depth: u64) {
        self.split_depth.fetch_max(depth, Ordering::Relaxed);
    }
}

/// One replica's row in the stats snapshot.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    pub addr: String,
    /// Health state name (`healthy`/`degraded`/`ejected`/`half-open`).
    pub state: &'static str,
    /// Routing preference tier (0 best, 3 worst).
    pub tier: u8,
    /// Weighted-rendezvous routing weight.
    pub weight: u64,
    /// Last generation this member announced (0 for static seeds).
    pub generation: u64,
    /// Times this replica has been ejected.
    pub ejects: u64,
    pub sent: u64,
    pub ok: u64,
    pub busy: u64,
    pub errors: u64,
    pub transport: u64,
    pub probe_failures: u64,
    /// Requests currently awaiting a reply from this replica.
    pub inflight: u64,
    /// Seconds since the prober last finished a probe of this
    /// replica; `None` until the first probe completes.
    pub last_probe_age_s: Option<f64>,
}

impl ReplicaSnapshot {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("addr", Json::from(self.addr.as_str())),
            ("state", Json::from(self.state)),
            ("tier", Json::from(u64::from(self.tier))),
            ("weight", Json::from(self.weight)),
            ("generation", Json::from(self.generation)),
            ("ejects", Json::from(self.ejects)),
            ("sent", Json::from(self.sent)),
            ("ok", Json::from(self.ok)),
            ("busy", Json::from(self.busy)),
            ("errors", Json::from(self.errors)),
            ("transport", Json::from(self.transport)),
            ("probe_failures", Json::from(self.probe_failures)),
            ("inflight", Json::from(self.inflight)),
            (
                "last_probe_age_s",
                match self.last_probe_age_s {
                    Some(age) => Json::from(age),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// A frozen view of the whole router: fleet counters, route latency,
/// and one row per replica.
#[derive(Debug, Clone)]
pub struct RouterSnapshot {
    pub uptime_us: u64,
    pub requests: u64,
    pub ok: u64,
    pub forwarded_errors: u64,
    pub retries: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub hedge_losers: u64,
    pub shed: u64,
    pub expired: u64,
    pub draining: u64,
    pub bad_request: u64,
    pub stale_replies: u64,
    pub unrouted: u64,
    pub connections: u64,
    pub splits_total: u64,
    pub subevals_dispatched: u64,
    pub subevals_retried: u64,
    pub subevals_discarded_on_cutoff: u64,
    pub subevals_skipped_on_cutoff: u64,
    pub split_depth: u64,
    /// Routing-table revision: bumped on every membership change.
    pub membership_version: u64,
    pub members_joined: u64,
    pub members_refreshed: u64,
    pub members_reweighted: u64,
    pub members_stale_joins: u64,
    pub members_duplicate_joins: u64,
    pub route_latency: HistogramSnapshot,
    pub replicas: Vec<ReplicaSnapshot>,
    /// Span-recorder counters (traces started/finished, spans opened,
    /// live and ring-buffered trees).
    pub trace: TraceStats,
}

impl RouterSnapshot {
    /// The `stats` object returned by `op:"stats"`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::from(PROTOCOL_VERSION)),
            ("uptime_us", Json::from(self.uptime_us)),
            ("uptime_s", Json::from(self.uptime_us as f64 / 1e6)),
            ("requests", Json::from(self.requests)),
            ("ok", Json::from(self.ok)),
            ("forwarded_errors", Json::from(self.forwarded_errors)),
            ("retries", Json::from(self.retries)),
            ("hedges", Json::from(self.hedges)),
            ("hedge_wins", Json::from(self.hedge_wins)),
            ("hedge_losers", Json::from(self.hedge_losers)),
            ("shed", Json::from(self.shed)),
            ("expired", Json::from(self.expired)),
            ("draining", Json::from(self.draining)),
            ("bad_request", Json::from(self.bad_request)),
            ("stale_replies", Json::from(self.stale_replies)),
            ("unrouted", Json::from(self.unrouted)),
            ("connections", Json::from(self.connections)),
            ("splits_total", Json::from(self.splits_total)),
            ("subevals_dispatched", Json::from(self.subevals_dispatched)),
            ("subevals_retried", Json::from(self.subevals_retried)),
            (
                "subevals_discarded_on_cutoff",
                Json::from(self.subevals_discarded_on_cutoff),
            ),
            (
                "subevals_skipped_on_cutoff",
                Json::from(self.subevals_skipped_on_cutoff),
            ),
            ("split_depth", Json::from(self.split_depth)),
            (
                "membership",
                Json::obj([
                    ("version", Json::from(self.membership_version)),
                    ("members", Json::from(self.replicas.len())),
                    ("joined", Json::from(self.members_joined)),
                    ("refreshed", Json::from(self.members_refreshed)),
                    ("reweighted", Json::from(self.members_reweighted)),
                    ("stale_joins", Json::from(self.members_stale_joins)),
                    ("duplicate_joins", Json::from(self.members_duplicate_joins)),
                ]),
            ),
            (
                "traces",
                Json::obj([
                    ("started", Json::from(self.trace.started)),
                    ("finished", Json::from(self.trace.finished)),
                    ("spans", Json::from(self.trace.spans)),
                    ("active", Json::from(self.trace.active)),
                    ("ringed", Json::from(self.trace.ringed)),
                ]),
            ),
            ("route_latency", self.route_latency.to_json()),
            (
                "replicas",
                Json::Array(self.replicas.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }

    /// Prometheus text exposition (format 0.0.4) for the `/metrics`
    /// listener.  Route latency renders as a summary.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        fn counter(out: &mut String, name: &str, help: &str, v: u64) {
            use std::fmt::Write as _;
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        let mut out = String::new();
        counter(
            &mut out,
            "router_requests_total",
            "Eval requests accepted from clients.",
            self.requests,
        );
        counter(
            &mut out,
            "router_ok_total",
            "Ok replies relayed to clients.",
            self.ok,
        );
        counter(
            &mut out,
            "router_retries_total",
            "Failover re-dispatches to another replica.",
            self.retries,
        );
        counter(
            &mut out,
            "router_hedges_total",
            "Hedge attempts launched.",
            self.hedges,
        );
        counter(
            &mut out,
            "router_hedge_wins_total",
            "Requests won by the hedge copy.",
            self.hedge_wins,
        );
        counter(
            &mut out,
            "router_ejects_total",
            "Replica ejections by the health prober.",
            self.replicas.iter().map(|r| r.ejects).sum(),
        );
        counter(
            &mut out,
            "router_shed_total",
            "Requests shed by the router (window full or unroutable).",
            self.shed,
        );
        counter(
            &mut out,
            "router_expired_total",
            "Requests that exhausted their deadline in the router.",
            self.expired,
        );
        counter(
            &mut out,
            "router_forwarded_errors_total",
            "Upstream error replies relayed verbatim.",
            self.forwarded_errors,
        );
        counter(
            &mut out,
            "router_connections_total",
            "Client connections accepted.",
            self.connections,
        );
        counter(
            &mut out,
            "router_splits_total",
            "Evals decomposed into scatter-gather split plans.",
            self.splits_total,
        );
        counter(
            &mut out,
            "router_subevals_dispatched_total",
            "Subevals placed on replicas.",
            self.subevals_dispatched,
        );
        counter(
            &mut out,
            "router_subevals_retried_total",
            "Subevals re-dispatched down the hash order.",
            self.subevals_retried,
        );
        counter(
            &mut out,
            "router_subevals_discarded_on_cutoff_total",
            "In-flight subeval results discarded after a cutoff.",
            self.subevals_discarded_on_cutoff,
        );
        counter(
            &mut out,
            "router_subevals_skipped_on_cutoff_total",
            "Subevals never dispatched: skipped by a cutoff or overtaken by the answer.",
            self.subevals_skipped_on_cutoff,
        );
        let _ = writeln!(
            out,
            "# HELP router_split_depth Deepest eldest chain any split plan has used."
        );
        let _ = writeln!(out, "# TYPE router_split_depth gauge");
        let _ = writeln!(out, "router_split_depth {}", self.split_depth);

        let _ = writeln!(out, "# HELP router_members Members in the routing table.");
        let _ = writeln!(out, "# TYPE router_members gauge");
        let _ = writeln!(out, "router_members {}", self.replicas.len());
        let _ = writeln!(
            out,
            "# HELP router_membership_version Routing-table revision (bumped per membership change)."
        );
        let _ = writeln!(out, "# TYPE router_membership_version gauge");
        let _ = writeln!(out, "router_membership_version {}", self.membership_version);
        counter(
            &mut out,
            "router_members_joined_total",
            "Members admitted by a join announcement.",
            self.members_joined,
        );
        counter(
            &mut out,
            "router_members_refreshed_total",
            "Re-joins of a known address with a higher generation.",
            self.members_refreshed,
        );
        counter(
            &mut out,
            "router_members_reweighted_total",
            "In-place weight changes.",
            self.members_reweighted,
        );
        counter(
            &mut out,
            "router_members_stale_joins_total",
            "Stale (lower-generation) announcements ignored.",
            self.members_stale_joins,
        );
        counter(
            &mut out,
            "router_members_duplicate_joins_total",
            "Announce retries that changed nothing.",
            self.members_duplicate_joins,
        );
        let _ = writeln!(
            out,
            "# HELP router_replica_weight Weighted-rendezvous routing weight per member."
        );
        let _ = writeln!(out, "# TYPE router_replica_weight gauge");
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "router_replica_weight{{replica=\"{}\"}} {}",
                r.addr, r.weight
            );
        }

        counter(
            &mut out,
            "router_span_traces_started_total",
            "Traces the span recorder opened (sampled or client-pinned).",
            self.trace.started,
        );
        counter(
            &mut out,
            "router_span_traces_finished_total",
            "Traces whose root span has closed.",
            self.trace.finished,
        );
        counter(
            &mut out,
            "router_span_spans_total",
            "Spans opened across all traces.",
            self.trace.spans,
        );
        let _ = writeln!(
            out,
            "# HELP router_span_active_traces Traces still being assembled."
        );
        let _ = writeln!(out, "# TYPE router_span_active_traces gauge");
        let _ = writeln!(out, "router_span_active_traces {}", self.trace.active);
        let _ = writeln!(
            out,
            "# HELP router_span_ring_traces Finished traces held in the query ring."
        );
        let _ = writeln!(out, "# TYPE router_span_ring_traces gauge");
        let _ = writeln!(out, "router_span_ring_traces {}", self.trace.ringed);

        let _ = writeln!(
            out,
            "# HELP router_route_latency_us End-to-end ok-reply latency."
        );
        let _ = writeln!(out, "# TYPE router_route_latency_us summary");
        for (label, q) in [("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99)] {
            let v = self.route_latency.quantile_us(q).unwrap_or(0);
            let _ = writeln!(out, "router_route_latency_us{{quantile=\"{label}\"}} {v}");
        }
        let _ = writeln!(
            out,
            "router_route_latency_us_sum {}",
            self.route_latency.sum_us
        );
        let _ = writeln!(
            out,
            "router_route_latency_us_count {}",
            self.route_latency.count
        );

        let _ = writeln!(
            out,
            "# HELP router_replica_requests_total Eval attempts sent per replica."
        );
        let _ = writeln!(out, "# TYPE router_replica_requests_total counter");
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "router_replica_requests_total{{replica=\"{}\"}} {}",
                r.addr, r.sent
            );
        }
        let _ = writeln!(
            out,
            "# HELP router_replica_tier Routing tier (0 healthy .. 3 ejected)."
        );
        let _ = writeln!(out, "# TYPE router_replica_tier gauge");
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "router_replica_tier{{replica=\"{}\"}} {}",
                r.addr, r.tier
            );
        }
        let _ = writeln!(
            out,
            "# HELP router_replica_inflight Requests awaiting a reply per replica."
        );
        let _ = writeln!(out, "# TYPE router_replica_inflight gauge");
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "router_replica_inflight{{replica=\"{}\"}} {}",
                r.addr, r.inflight
            );
        }
        let _ = writeln!(
            out,
            "# HELP router_replica_last_probe_age_s Seconds since the last health probe finished."
        );
        let _ = writeln!(out, "# TYPE router_replica_last_probe_age_s gauge");
        for r in &self.replicas {
            if let Some(age) = r.last_probe_age_s {
                let _ = writeln!(
                    out,
                    "router_replica_last_probe_age_s{{replica=\"{}\"}} {age:.3}",
                    r.addr
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica_row(addr: &str) -> ReplicaSnapshot {
        ReplicaSnapshot {
            addr: addr.to_string(),
            state: "healthy",
            tier: 0,
            weight: 2,
            generation: 1,
            ejects: 2,
            sent: 10,
            ok: 8,
            busy: 1,
            errors: 0,
            transport: 1,
            probe_failures: 3,
            inflight: 1,
            last_probe_age_s: Some(0.25),
        }
    }

    #[test]
    fn snapshot_round_trips_counters_into_json() {
        let m = RouterMetrics::default();
        m.requests.fetch_add(7, Ordering::Relaxed);
        m.retries.fetch_add(3, Ordering::Relaxed);
        m.splits_total.fetch_add(2, Ordering::Relaxed);
        m.subevals_dispatched.fetch_add(9, Ordering::Relaxed);
        m.subevals_discarded_on_cutoff
            .fetch_add(1, Ordering::Relaxed);
        m.record_split_depth(3);
        m.record_split_depth(2);
        m.route_latency.record(500);
        m.members.record(crate::membership::JoinAction::Admit);
        m.members.record(crate::membership::JoinAction::Reweight);
        let snap = m.snapshot(
            vec![replica_row("127.0.0.1:7171")],
            TraceStats {
                started: 5,
                finished: 4,
                spans: 21,
                active: 1,
                ringed: 4,
            },
            3,
        );
        let j = snap.to_json();
        assert_eq!(j.get("version").and_then(Json::as_u64), Some(1));
        assert!(
            j.get("uptime_s").and_then(Json::as_f64).is_some(),
            "stats must expose uptime_s for parity with the replica tier"
        );
        assert_eq!(j.get("requests").and_then(Json::as_u64), Some(7));
        let traces = j.get("traces").expect("traces block");
        assert_eq!(traces.get("started").and_then(Json::as_u64), Some(5));
        assert_eq!(traces.get("ringed").and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("retries").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("splits_total").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("subevals_dispatched").and_then(Json::as_u64), Some(9));
        assert_eq!(
            j.get("subevals_discarded_on_cutoff").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            j.get("split_depth").and_then(Json::as_u64),
            Some(3),
            "split_depth is a high-water mark, not a sum"
        );
        let membership = j.get("membership").expect("membership block");
        assert_eq!(membership.get("version").and_then(Json::as_u64), Some(3));
        assert_eq!(membership.get("members").and_then(Json::as_u64), Some(1));
        assert_eq!(membership.get("joined").and_then(Json::as_u64), Some(1));
        assert_eq!(membership.get("reweighted").and_then(Json::as_u64), Some(1));
        let replicas = match j.get("replicas") {
            Some(Json::Array(rs)) => rs,
            other => panic!("replicas not an array: {other:?}"),
        };
        assert_eq!(replicas.len(), 1);
        assert_eq!(
            replicas[0].get("addr").and_then(Json::as_str),
            Some("127.0.0.1:7171")
        );
        assert_eq!(replicas[0].get("ejects").and_then(Json::as_u64), Some(2));
        assert_eq!(replicas[0].get("weight").and_then(Json::as_u64), Some(2));
        assert_eq!(
            replicas[0].get("generation").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn prometheus_exposition_names_the_required_series() {
        let m = RouterMetrics::default();
        m.retries.fetch_add(4, Ordering::Relaxed);
        m.splits_total.fetch_add(1, Ordering::Relaxed);
        m.subevals_skipped_on_cutoff.fetch_add(5, Ordering::Relaxed);
        m.route_latency.record(1_000);
        m.members.record(crate::membership::JoinAction::Admit);
        let text = m
            .snapshot(
                vec![replica_row("127.0.0.1:7171"), replica_row("127.0.0.1:7172")],
                TraceStats {
                    started: 6,
                    finished: 6,
                    spans: 30,
                    active: 0,
                    ringed: 6,
                },
                1,
            )
            .render_prometheus();
        assert!(text.contains("router_retries_total 4"), "{text}");
        assert!(text.contains("router_requests_total"), "{text}");
        assert!(
            text.contains("router_replica_requests_total{replica=\"127.0.0.1:7172\"} 10"),
            "{text}"
        );
        assert!(
            text.contains("router_route_latency_us{quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("router_route_latency_us_count 1"), "{text}");
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
        assert!(text.contains("router_membership_version 1"), "{text}");
        assert!(text.contains("router_members_joined_total 1"), "{text}");
        assert!(
            text.contains("router_replica_weight{replica=\"127.0.0.1:7171\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("router_span_traces_started_total 6"),
            "{text}"
        );
        assert!(text.contains("router_span_spans_total 30"), "{text}");
        assert!(text.contains("router_span_ring_traces 6"), "{text}");
        assert!(
            text.contains("router_replica_last_probe_age_s{replica=\"127.0.0.1:7171\"} 0.250"),
            "{text}"
        );
    }
}
