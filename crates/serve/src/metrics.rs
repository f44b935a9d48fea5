//! The serve tier's metrics: where each counter is recorded, and the
//! one table that declares how each is exported.
//!
//! Counters are plain relaxed atomics on named fields of [`Metrics`]
//! and its lazily registered cards ([`AlgoStages`] per algorithm,
//! [`TenantStats`] per tenant, `IoLoopStats` per I/O thread).  Every
//! code path that touches them is already synchronized by the channels
//! it communicates over, so the registry never becomes a contention
//! point.  Distributions land in power-of-two [`Histogram`] buckets;
//! quantiles are read back by linear interpolation within the bucket
//! holding the target rank, so unimodal load does not collapse
//! p50/p90/p99 onto one bucket bound.  Each algorithm gets three stage
//! histograms (`queue_wait`, `engine`, `write`) and the paper's work
//! counters (leaves, steps, max frontier width, pruning events).
//!
//! [`SERVE_FAMILIES`] declares every series once: its exposition name,
//! type, help text and `stats` key, and how to read it from a
//! [`ServeView`].  The `stats` reply, `/metrics` and the shutdown dump
//! are all rendered from it by [`crate::registry`].

use crate::cache::CacheStats;
use crate::eventloop::{ConnCounters, IoLoopStats};
use crate::registry::{
    build_info, counter, gauge, histogram, info, one, uptime, Family, Sample, Unit, Value,
};
use crate::workload::EvalOutcome;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Inclusive-exclusive value range of bucket `i`: `[0,2)` for bucket 0,
/// `[2^i, 2^{i+1})` above it.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let lo = if i == 0 { 0 } else { 1u64 << i };
    (lo, 1u64 << (i + 1))
}

/// Buckets per [`Histogram`].
const BUCKETS: usize = 40;

/// Lock-free histogram over 40 power-of-two buckets, for microsecond
/// latencies (and the unitless executor queue depth): bucket `i`
/// counts observations in `[2^i, 2^{i+1})` (0 and 1 land in bucket 0,
/// everything past the top bound in the last bucket).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(v: u64) -> usize {
        (63 - v.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Freeze the histogram into a plain-data [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A frozen histogram: counts plus derived statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Power-of-two bucket counts.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// `q`-quantile, `0.0 < q <= 1.0`, linearly interpolated within
    /// the bucket holding the target rank (rank semantics: the value
    /// at the ceiling rank, with uniform mass assumed across each
    /// bucket's range); `None` when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = (target - seen) as f64 / c as f64;
                return Some(lo + (frac * (hi - lo) as f64) as u64);
            }
            seen += c;
        }
        None
    }

    /// Mean observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// Per-algorithm stage histograms plus the paper's engine work
/// aggregates, registered lazily the first time an algorithm is
/// dispatched.
#[derive(Default)]
pub struct AlgoStages {
    /// Enqueue → a worker took the job.
    pub queue_wait: Histogram,
    /// Engine run time.
    pub engine: Histogram,
    /// Result published → reply bytes written.
    pub write: Histogram,
    /// Engine runs completed for this algorithm.
    pub evals: AtomicU64,
    /// Total leaves/positions evaluated — the paper's work `W(T)`,
    /// summed over runs.
    pub leaves: AtomicU64,
    /// Total parallel steps/rounds — the paper's `P(T)`, summed.
    pub steps: AtomicU64,
    /// Total pruning events (α≥β cutoffs, NOR short-circuits, tt hits).
    pub pruned: AtomicU64,
    /// Largest frontier width any run reached — "processors used".
    pub max_width: AtomicU64,
}

impl AlgoStages {
    /// Fold one completed engine run into the work aggregates.
    pub fn record_work(&self, outcome: &EvalOutcome) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.leaves.fetch_add(outcome.work, Ordering::Relaxed);
        self.steps.fetch_add(outcome.steps, Ordering::Relaxed);
        self.pruned.fetch_add(outcome.pruned, Ordering::Relaxed);
        self.max_width
            .fetch_max(u64::from(outcome.max_width), Ordering::Relaxed);
    }
}

/// Per-tenant request accounting, registered lazily on the first
/// request that names the tenant (the anonymous shared tenant is not
/// tracked here — it is the untagged remainder of the global
/// counters).
#[derive(Default)]
pub struct TenantStats {
    /// Eval/subeval requests attributed to this tenant.
    pub requests: AtomicU64,
    /// Successful replies.
    pub ok: AtomicU64,
    /// Requests shed by the tenant's inflight cap (429).
    pub shed: AtomicU64,
    /// End-to-end latency of this tenant's answered requests.
    pub latency: Histogram,
}

/// Server start time with a `Default` impl so [`Metrics`] can keep
/// deriving `Default`.
struct StartTime(Instant);

impl Default for StartTime {
    fn default() -> Self {
        StartTime(Instant::now())
    }
}

/// The registry: one instance per server, shared by every thread.
#[derive(Default)]
pub struct Metrics {
    /// Request lines received (including malformed ones).
    pub received: AtomicU64,
    /// Successful replies (evals, including cache hits).
    pub ok: AtomicU64,
    /// Malformed or invalid requests.
    pub bad_request: AtomicU64,
    /// Requests shed because the queue was full.
    pub shed: AtomicU64,
    /// Requests that missed their deadline (queued or running).
    pub timeout: AtomicU64,
    /// Requests rejected during shutdown drain.
    pub draining: AtomicU64,
    /// Internal failures.
    pub internal: AtomicU64,
    /// Evals that joined another request's in-flight engine run
    /// instead of starting their own (single-flight coalescing).
    pub coalesced_hits: AtomicU64,
    /// Jobs a worker actually evaluated to completion.
    pub evaluated: AtomicU64,
    /// `subeval` request lines received (hits, misses, and rejects).
    pub subeval_requests: AtomicU64,
    /// Subtree evaluations a worker ran to completion (the scatter
    /// half of split plans landing on this replica).
    pub subevals: AtomicU64,
    /// Accepts and closes, kept by the connection loop.
    pub conns: ConnCounters,
    /// End-to-end server-side latency of eval requests.
    pub latency: Histogram,
    /// `cachepull` requests served (peers warm-filling from us).
    pub cachepull_served: AtomicU64,
    /// Entries shipped across all served `cachepull`s.
    pub cachepull_entries: AtomicU64,
    /// Entries this replica warm-filled from peers at (re)join.
    pub warmfill_entries: AtomicU64,
    /// Entries restored from the boot snapshot file.
    pub snapshot_restored: AtomicU64,
    /// Per-algorithm stage histograms and work aggregates.
    stages: RwLock<BTreeMap<String, Arc<AlgoStages>>>,
    /// Per-tenant request accounting, registered lazily on first use.
    tenants: RwLock<BTreeMap<String, Arc<TenantStats>>>,
    /// Per-io-thread event-loop health, registered at loop spawn in
    /// loop order (index = loop number).
    io_loops: RwLock<Vec<Arc<IoLoopStats>>>,
    /// Executor queue depth sampled over time (power-of-two depth
    /// buckets, not microseconds) — the queue-depth-over-time series.
    pub queue_depth: Histogram,
    /// Engine µs of the jobs eval workers ran, summed, and how many:
    /// the drain rate behind `retry_after_ms`.  A run in place on an
    /// I/O thread never queued, so it stays out.  Not a series.
    executor_engine_us: AtomicU64,
    executor_runs: AtomicU64,
    /// When this registry (≈ the server) came up.
    started: StartTime,
}

impl Metrics {
    /// Register one I/O event loop's health card; call once per loop
    /// at spawn, in loop order.
    pub fn register_io_loop(&self) -> Arc<IoLoopStats> {
        let stats = Arc::new(IoLoopStats::default());
        self.io_loops.write().unwrap().push(Arc::clone(&stats));
        stats
    }

    /// Record one executor queue-depth observation.
    pub fn record_queue_depth(&self, depth: usize) {
        self.queue_depth.record(depth as u64);
    }

    /// The stage/work accumulator for `algo`, created on first use.
    pub fn algo_stages(&self, algo: &str) -> Arc<AlgoStages> {
        if let Some(s) = self.stages.read().unwrap().get(algo) {
            return Arc::clone(s);
        }
        let mut w = self.stages.write().unwrap();
        Arc::clone(w.entry(algo.to_string()).or_default())
    }

    /// The accounting card for `tenant`, created on first use.
    pub fn tenant_stats(&self, tenant: &str) -> Arc<TenantStats> {
        if let Some(s) = self.tenants.read().unwrap().get(tenant) {
            return Arc::clone(s);
        }
        let mut w = self.tenants.write().unwrap();
        Arc::clone(w.entry(tenant.to_string()).or_default())
    }

    /// Microseconds since the registry was created.
    pub fn uptime_us(&self) -> u64 {
        self.started.0.elapsed().as_micros() as u64
    }

    /// Fold one eval worker's engine run into the executor's mean.
    pub fn record_executor_run(&self, engine_us: u64) {
        self.executor_engine_us
            .fetch_add(engine_us, Ordering::Relaxed);
        self.executor_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Mean engine time of the runs eval workers made, in
    /// microseconds; `None` until the first completes.  Feeds the
    /// `retry_after_ms` hint on shed replies, which is about the queue.
    pub fn mean_executor_engine_us(&self) -> Option<f64> {
        let count = self.executor_runs.load(Ordering::Relaxed);
        let sum = self.executor_engine_us.load(Ordering::Relaxed);
        (count > 0).then(|| sum as f64 / count as f64)
    }

    fn algos(&self) -> Vec<(String, Arc<AlgoStages>)> {
        cards(&self.stages)
    }

    fn tenant_cards(&self) -> Vec<(String, Arc<TenantStats>)> {
        cards(&self.tenants)
    }
}

fn cards<T>(map: &RwLock<BTreeMap<String, Arc<T>>>) -> Vec<(String, Arc<T>)> {
    let map = map.read().expect("card registration never panics");
    map.iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect()
}

/// What [`SERVE_FAMILIES`] read: the live registry plus one read of
/// the state whose size they report.
pub(crate) struct ServeView {
    pub metrics: Arc<Metrics>,
    pub cache: CacheStats,
    pub executor_queued: usize,
    pub flights_inflight: usize,
    pub io_threads: usize,
}

fn per_algo(v: &ServeView, pick: impl Fn(&AlgoStages) -> Value) -> Vec<Sample> {
    let algos = v.metrics.algos().into_iter();
    algos
        .map(|(a, s)| Sample::new([("algo", a)], pick(&s)))
        .collect()
}

fn per_tenant(v: &ServeView, pick: impl Fn(&TenantStats) -> Value) -> Vec<Sample> {
    let tenants = v.metrics.tenant_cards().into_iter();
    tenants
        .map(|(t, s)| Sample::new([("tenant", t)], pick(&s)))
        .collect()
}

fn per_loop(v: &ServeView, pick: impl Fn(&IoLoopStats) -> Value) -> Vec<Sample> {
    let loops = v
        .metrics
        .io_loops
        .read()
        .expect("loop registration never panics");
    let loops = loops.iter().enumerate();
    loops
        .map(|(i, l)| Sample::new([("loop", i.to_string())], pick(l)))
        .collect()
}

fn per_shard<T: Copy + Into<Value>>(values: &[T]) -> Vec<Sample> {
    let shards = values.iter().enumerate();
    shards
        .map(|(i, &n)| Sample::new([("shard", i.to_string())], n))
        .collect()
}

/// Every series the serve tier exports, each declared once, in `stats`
/// key order.
pub(crate) const SERVE_FAMILIES: &[Family<ServeView>] = &[
    counter(
        "gtserve_requests_total",
        "received",
        "Request lines received, malformed ones included.",
        |v| one(&v.metrics.received),
    ),
    counter("gtserve_ok_total", "ok", "Successful eval replies.", |v| {
        one(&v.metrics.ok)
    }),
    counter(
        "gtserve_bad_request_total",
        "bad_request",
        "Malformed or invalid requests.",
        |v| one(&v.metrics.bad_request),
    ),
    counter(
        "gtserve_shed_total",
        "shed",
        "Requests shed by backpressure.",
        |v| one(&v.metrics.shed),
    ),
    counter(
        "gtserve_timeout_total",
        "timeout",
        "Requests that missed their deadline.",
        |v| one(&v.metrics.timeout),
    ),
    counter(
        "gtserve_draining_total",
        "draining",
        "Requests rejected during drain.",
        |v| one(&v.metrics.draining),
    ),
    counter(
        "gtserve_internal_total",
        "internal",
        "Internal failures.",
        |v| one(&v.metrics.internal),
    ),
    counter(
        "gtserve_cache_hits_total",
        "cache_hits",
        "Eval and subeval cache probes that found a live entry.",
        |v| one(v.cache.hits),
    ),
    counter(
        "gtserve_cache_misses_total",
        "cache_misses",
        "Eval and subeval cache probes that found none.",
        |v| one(v.cache.misses),
    ),
    counter(
        "gtserve_coalesced_total",
        "coalesced_hits",
        "Evals that joined an in-flight run.",
        |v| one(&v.metrics.coalesced_hits),
    ),
    counter(
        "gtserve_evaluated_total",
        "evaluated",
        "Engine runs completed.",
        |v| one(&v.metrics.evaluated),
    ),
    counter(
        "gtserve_subeval_requests_total",
        "subeval_requests",
        "subeval request lines received.",
        |v| one(&v.metrics.subeval_requests),
    ),
    counter(
        "gtserve_subevals_total",
        "subevals",
        "Subtree evaluations completed.",
        |v| one(&v.metrics.subevals),
    ),
    counter(
        "gtserve_connections_total",
        "connections",
        "Connections accepted.",
        |v| one(&v.metrics.conns.accepted),
    ),
    gauge(
        "gtserve_open_connections",
        "open_conns",
        "Connections currently registered with an I/O thread.",
        |v| one(&v.metrics.conns.open),
    ),
    counter(
        "gtserve_conn_idle_closed_total",
        "idle_closed",
        "Connections closed by the idle timeout.",
        |v| one(&v.metrics.conns.idle_closed),
    ),
    counter(
        "gtserve_conn_overflow_closed_total",
        "overflow_closed",
        "Connections closed for overflowing their outbound queue.",
        |v| one(&v.metrics.conns.overflow_closed),
    ),
    counter(
        "gtserve_conn_overlong_closed_total",
        "overlong_closed",
        "Connections closed for an over-long request line.",
        |v| one(&v.metrics.conns.overlong_closed),
    ),
    histogram(
        "gtserve_latency_seconds",
        "latency_",
        "End-to-end server-side latency of eval requests.",
        |v| one(&v.metrics.latency),
    ),
    counter(
        "gtserve_cachepull_served_total",
        "cachepull_served",
        "cachepull requests served to warm-filling peers.",
        |v| one(&v.metrics.cachepull_served),
    ),
    counter(
        "gtserve_cachepull_entries_total",
        "cachepull_entries",
        "Entries shipped across served cachepulls.",
        |v| one(&v.metrics.cachepull_entries),
    ),
    counter(
        "gtserve_warmfill_entries_total",
        "warmfill_entries",
        "Cache entries warm-filled from peers at (re)join.",
        |v| one(&v.metrics.warmfill_entries),
    ),
    counter(
        "gtserve_snapshot_restored_total",
        "snapshot_restored",
        "Cache entries restored from the boot snapshot.",
        |v| one(&v.metrics.snapshot_restored),
    ),
    histogram(
        "gtserve_stage_latency_seconds",
        "stages.{algo}.{stage}",
        "Per-stage latency by algorithm (queue_wait, engine, write).",
        |v| {
            let mut out = Vec::new();
            for (algo, s) in v.metrics.algos() {
                for (stage, h) in [
                    ("queue_wait", &s.queue_wait),
                    ("engine", &s.engine),
                    ("write", &s.write),
                ] {
                    out.push(Sample::new(
                        [("algo", algo.clone()), ("stage", stage.to_string())],
                        h,
                    ));
                }
            }
            out
        },
    ),
    counter(
        "gtserve_engine_work_total",
        "stages.{algo}.work.{counter}",
        "Engine work counters by algorithm (paper: leaves = W(T), steps = rounds).",
        |v| {
            let mut out = Vec::new();
            for (algo, s) in v.metrics.algos() {
                for (c, n) in [
                    ("evals", &s.evals),
                    ("leaves", &s.leaves),
                    ("steps", &s.steps),
                    ("pruned", &s.pruned),
                ] {
                    out.push(Sample::new(
                        [("algo", algo.clone()), ("counter", c.to_string())],
                        n,
                    ));
                }
            }
            out
        },
    ),
    gauge(
        "gtserve_engine_max_width",
        "stages.{algo}.work.max_width",
        "Largest evaluation frontier any run reached (processors used).",
        |v| per_algo(v, |s| Value::from(&s.max_width)),
    ),
    counter(
        "gtserve_tenant_requests_total",
        "tenants.{tenant}.requests",
        "Requests attributed to each tenant.",
        |v| per_tenant(v, |t| Value::from(&t.requests)),
    ),
    counter(
        "gtserve_tenant_ok_total",
        "tenants.{tenant}.ok",
        "Successful replies to each tenant.",
        |v| per_tenant(v, |t| Value::from(&t.ok)),
    ),
    counter(
        "gtserve_tenant_shed_total",
        "tenants.{tenant}.shed",
        "Requests shed by a tenant's inflight cap.",
        |v| per_tenant(v, |t| Value::from(&t.shed)),
    ),
    histogram(
        "gtserve_tenant_latency_seconds",
        "tenants.{tenant}.latency",
        "End-to-end latency by tenant.",
        |v| per_tenant(v, |t| Value::from(&t.latency)),
    ),
    counter(
        "gtserve_io_loop_iterations_total",
        "io_loops[].iterations",
        "Event-loop iterations completed, per I/O thread.",
        |v| per_loop(v, |l| Value::from(&l.iterations)),
    ),
    Family {
        unit: Unit::Micros,
        ..counter(
            "gtserve_io_loop_wait_seconds_total",
            "io_loops[].wait_us",
            "Seconds spent blocked in epoll/poll waits, per I/O thread.",
            |v| per_loop(v, |l| Value::from(&l.wait_us)),
        )
    },
    Family {
        unit: Unit::Micros,
        ..counter(
            "gtserve_io_loop_work_seconds_total",
            "io_loops[].work_us",
            "Seconds spent doing work between waits, per I/O thread.",
            |v| per_loop(v, |l| Value::from(&l.work_us)),
        )
    },
    gauge(
        "gtserve_io_loop_connections",
        "io_loops[].connections",
        "Connections currently owned by each I/O thread.",
        |v| per_loop(v, |l| Value::from(&l.connections)),
    ),
    gauge(
        "gtserve_io_loop_outbox_bytes",
        "io_loops[].outbox_bytes",
        "Bytes queued in each I/O thread's connection outboxes.",
        |v| per_loop(v, |l| Value::from(&l.outbox_bytes)),
    ),
    histogram(
        "gtserve_io_loop_lag_seconds",
        "io_loops[].lag",
        "Per-iteration event-loop work time (loop-iteration lag), per I/O thread.",
        |v| per_loop(v, |l| Value::from(&l.lag)),
    ),
    Family {
        unit: Unit::One,
        ..histogram(
            "gtserve_executor_queue_depth",
            "queue_depth",
            "Executor queue depth sampled over time (le = jobs queued).",
            |v| one(&v.metrics.queue_depth),
        )
    },
    uptime("gtserve_uptime_seconds", |v| {
        one(v.metrics.uptime_us() as f64 / 1e6)
    }),
    info("version", "Package version of the running binary.", |_| {
        one(env!("CARGO_PKG_VERSION"))
    }),
    build_info("gtserve_build_info"),
    gauge(
        "gtserve_cache_shards",
        "cache.shards",
        "Independently locked cache shards.",
        |v| one(v.cache.per_shard_len.len()),
    ),
    gauge(
        "gtserve_cache_entries",
        "cache.len",
        "Entries currently cached.",
        |v| one(v.cache.len),
    ),
    gauge(
        "gtserve_cache_capacity",
        "cache.capacity",
        "Configured cache capacity.",
        |v| one(v.cache.capacity),
    ),
    counter(
        "gtserve_cache_admitted_total",
        "cache.admitted",
        "Cache inserts that created an entry.",
        |v| one(v.cache.admitted),
    ),
    counter(
        "gtserve_cache_evictions_total",
        "cache.evictions",
        "Cache entries displaced to make room.",
        |v| one(v.cache.evictions),
    ),
    counter(
        "gtserve_cache_ttl_evictions_total",
        "cache.ttl_evictions",
        "Cache entries aged out by TTL.",
        |v| one(v.cache.ttl_evictions),
    ),
    info(
        "cache.ttl_ms",
        "Configured cache TTL in milliseconds (null: none).",
        |v| one(v.cache.ttl_ms),
    ),
    gauge(
        "gtserve_cache_shard_entries",
        "cache.per_shard_len[]",
        "Entries per cache shard.",
        |v| per_shard(&v.cache.per_shard_len),
    ),
    counter(
        "gtserve_cache_shard_evictions_total",
        "cache.per_shard_evictions[]",
        "Evictions per cache shard (capacity and TTL).",
        |v| per_shard(&v.cache.per_shard_evictions),
    ),
    gauge(
        "gtserve_executor_queued",
        "executor_queued",
        "Jobs waiting in the executor's queues.",
        |v| one(v.executor_queued),
    ),
    gauge(
        "gtserve_flights_inflight",
        "flights_inflight",
        "Engine runs currently in flight (single-flight table size).",
        |v| one(v.flights_inflight),
    ),
    gauge(
        "gtserve_io_threads",
        "io_threads",
        "I/O event-loop threads.",
        |v| one(v.io_threads),
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{prometheus_text, stats_json, Stats};
    use gt_analysis::Json;

    fn view_of(metrics: Metrics) -> ServeView {
        ServeView {
            metrics: Arc::new(metrics),
            cache: CacheStats {
                hits: 1,
                misses: 2,
                admitted: 2,
                evictions: 0,
                ttl_evictions: 0,
                len: 2,
                capacity: 256,
                ttl_ms: None,
                per_shard_len: vec![1, 1],
                per_shard_evictions: vec![0, 0],
            },
            executor_queued: 3,
            flights_inflight: 1,
            io_threads: 2,
        }
    }

    fn stats(m: Metrics) -> Stats {
        stats_json(SERVE_FAMILIES, &view_of(m))
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), 39);
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let m = Metrics::default();
        for us in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 5000] {
            m.latency.record(us);
        }
        let s = m.latency.snapshot();
        assert_eq!(s.count, 10);
        // p50 is rank 5 of 9 in the [8,16) bucket → 8 + 5/9·8 = 12.
        assert_eq!(s.quantile(0.5), Some(12));
        // p99 rank is the 5000µs outlier — last rank of the [4096,8192)
        // bucket, so interpolation lands on the upper bound.
        assert_eq!(s.quantile(0.99), Some(8192));
        assert!(s.mean().unwrap() > 10.0);
    }

    #[test]
    fn quantiles_do_not_saturate_within_one_bucket() {
        // The cold_storm failure mode: every observation in one bucket
        // used to collapse p50 = p90 = p99 onto the bucket bound.
        let m = Metrics::default();
        for _ in 0..100 {
            m.latency.record(70_000); // bucket [65536, 131072)
        }
        let s = m.latency.snapshot();
        let p50 = s.quantile(0.50).unwrap();
        let p90 = s.quantile(0.90).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!(p50 < p90 && p90 < p99, "{p50} {p90} {p99}");
        assert!((65_536..131_072).contains(&p50));
        assert!((65_536..=131_072).contains(&p99));
    }

    #[test]
    fn stage_registry_accumulates_per_algorithm() {
        let m = Metrics::default();
        let st = m.algo_stages("cascade");
        st.queue_wait.record(100);
        st.engine.record(2_000);
        st.record_work(&EvalOutcome {
            value: 1,
            work: 64,
            steps: 8,
            max_width: 4,
            pruned: 3,
        });
        st.record_work(&EvalOutcome {
            value: 0,
            work: 36,
            steps: 6,
            max_width: 9,
            pruned: 1,
        });
        // Same name returns the same accumulator.
        assert_eq!(m.algo_stages("cascade").evals.load(Ordering::Relaxed), 2);
        let s = stats(m);
        assert!(matches!(s.get("stages"), Some(Json::Object(algos)) if algos.len() == 1));
        assert_eq!(s.u64("stages.cascade.work.leaves"), 100);
        assert_eq!(s.u64("stages.cascade.work.steps"), 14);
        assert_eq!(s.u64("stages.cascade.work.pruned"), 4);
        assert_eq!(s.u64("stages.cascade.work.max_width"), 9);
        assert_eq!(s.u64("stages.cascade.queue_wait.count"), 1);
        assert_eq!(s.u64("stages.cascade.engine.count"), 1);
        assert!(s.get("stages.cascade.batch_wait").is_none());
    }

    #[test]
    fn mean_executor_engine_time_counts_executor_runs_only() {
        let m = Metrics::default();
        assert_eq!(m.mean_executor_engine_us(), None, "no engine runs yet");
        // A stage sample alone (as an in-place run leaves) is no
        // executor history.
        m.algo_stages("a").engine.record(100);
        assert_eq!(m.mean_executor_engine_us(), None);
        m.record_executor_run(100);
        m.record_executor_run(300);
        assert_eq!(m.mean_executor_engine_us(), Some(200.0));
    }

    #[test]
    fn stats_report_uptime_and_version() {
        let m = Metrics::default();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(m.uptime_us() >= 1_000);
        let s = stats(m);
        assert!(s.get("uptime_s").and_then(Json::as_f64).unwrap() >= 0.001);
        assert_eq!(
            s.get("version").and_then(Json::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
    }

    #[test]
    fn io_loop_registry_and_queue_depth_sampling() {
        let m = Metrics::default();
        let l0 = m.register_io_loop();
        let l1 = m.register_io_loop();
        l0.record_iteration(10, 2);
        l1.set_gauges(5, 100);
        m.record_queue_depth(0);
        m.record_queue_depth(7);
        let s = stats(m);
        assert_eq!(
            s.get("io_loops").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(s.u64("io_loops.0.iterations"), 1);
        assert_eq!(s.u64("io_loops.1.connections"), 5);
        assert_eq!(s.u64("io_loops.1.outbox_bytes"), 100);
        // Queue depth counts jobs, not microseconds.
        assert_eq!(s.u64("queue_depth.count"), 2);
        assert_eq!(s.u64("queue_depth.sum"), 7);
        assert!(s.get("queue_depth.sum_us").is_none());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Metrics::default().latency.snapshot();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        let s = stats(Metrics::default());
        assert_eq!(s.get("latency_p50_us"), Some(&Json::Null));
        assert_eq!(s.get("latency_mean_us"), Some(&Json::Null));
    }

    #[test]
    fn stats_counters_round_trip_through_json() {
        let m = Metrics::default();
        m.received.fetch_add(7, Ordering::Relaxed);
        m.ok.fetch_add(5, Ordering::Relaxed);
        m.shed.fetch_add(2, Ordering::Relaxed);
        m.latency.record(100);
        let s = stats(m);
        assert_eq!(s.u64("received"), 7);
        assert_eq!(s.u64("ok"), 5);
        assert_eq!(s.u64("shed"), 2);
        assert_eq!(s.u64("latency_count"), 1);
        assert_eq!(s.u64("cache_hits"), 1);
        assert_eq!(s.u64("cache.per_shard_len.1"), 1);
        assert_eq!(s.get("cache.ttl_ms"), Some(&Json::Null));
        // The rendered JSON reparses (the stats reply embeds it).
        let back = Json::parse(&s.0.render()).unwrap();
        assert_eq!(Stats(back).u64("received"), 7);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = Metrics::default();
        m.received.fetch_add(5, Ordering::Relaxed);
        m.ok.fetch_add(4, Ordering::Relaxed);
        m.latency.record(100);
        m.latency.record(3_000);
        let st = m.algo_stages("cascade");
        st.queue_wait.record(10);
        st.engine.record(1_000);
        st.record_work(&EvalOutcome {
            value: 1,
            work: 64,
            steps: 9,
            max_width: 4,
            pruned: 2,
        });
        let loop0 = m.register_io_loop();
        loop0.record_iteration(900, 100);
        loop0.set_gauges(2, 512);
        m.record_queue_depth(3);
        m.record_queue_depth(5);
        let text = prometheus_text(SERVE_FAMILIES, &view_of(m));
        assert!(text.contains("# TYPE gtserve_requests_total counter"));
        assert!(text.contains("gtserve_requests_total 5"));
        assert!(text.contains("# TYPE gtserve_latency_seconds histogram"));
        assert!(text.contains("gtserve_latency_seconds_count 2"));
        assert!(text.contains("gtserve_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text
            .contains("gtserve_stage_latency_seconds_count{algo=\"cascade\",stage=\"engine\"} 1"));
        assert!(text.contains("gtserve_engine_work_total{algo=\"cascade\",counter=\"leaves\"} 64"));
        assert!(text.contains("gtserve_engine_max_width{algo=\"cascade\"} 4"));
        assert!(text.contains("gtserve_cache_shard_entries{shard=\"1\"} 1"));
        assert!(text.contains("gtserve_executor_queued 3"));
        assert!(text.contains("gtserve_flights_inflight 1"));
        assert!(text.contains("gtserve_build_info{version=\""));
        assert!(text.contains("gtserve_io_loop_iterations_total{loop=\"0\"} 1"));
        assert!(text.contains("gtserve_io_loop_wait_seconds_total{loop=\"0\"} 0.0009"));
        assert!(text.contains("gtserve_io_loop_connections{loop=\"0\"} 2"));
        assert!(text.contains("gtserve_io_loop_outbox_bytes{loop=\"0\"} 512"));
        assert!(text.contains("gtserve_io_loop_lag_seconds_count{loop=\"0\"} 1"));
        assert!(text.contains("# TYPE gtserve_executor_queue_depth histogram"));
        // Depth buckets are unitless: both samples (3 and 5) sit at or
        // below the le="8" bound, and the sum is raw jobs not seconds.
        assert!(text.contains("gtserve_executor_queue_depth_bucket{le=\"8\"} 2"));
        assert!(text.contains("gtserve_executor_queue_depth_sum 8"));
        // Buckets are cumulative: each bucket line's value never
        // decreases as le grows.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("gtserve_latency_seconds_bucket{le=\"") {
                let v: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(v >= last, "non-cumulative: {line}");
                last = v;
            }
        }
        assert_eq!(last, 2);
    }

    /// A sample line: a name, optional `{k="v",…}` labels whose values
    /// hold no raw quote, backslash or newline, a space, and a number.
    fn well_formed_sample(line: &str) -> bool {
        let (series, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return false,
        };
        if value.parse::<f64>().is_err() && value != "+Inf" {
            return false;
        }
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => match rest.strip_suffix('}') {
                Some(labels) => (name, labels),
                None => return false,
            },
            None => (series, ""),
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return false;
        }
        let mut rest = labels;
        while !rest.is_empty() {
            let Some((label, after)) = rest.split_once("=\"") else {
                return false;
            };
            if !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return false;
            }
            // Walk the quoted value: only \\, \" and \n escapes.
            let mut chars = after.char_indices();
            let end = loop {
                match chars.next() {
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '\\' | '"' | 'n')) => {}
                        _ => return false,
                    },
                    Some((i, '"')) => break i,
                    Some(_) => {}
                    None => return false,
                }
            };
            rest = &after[end + 1..];
            rest = match rest.strip_prefix(',') {
                Some(r) => r,
                None if rest.is_empty() => rest,
                None => return false,
            };
        }
        true
    }

    #[test]
    fn client_tenant_ids_cannot_forge_samples() {
        let m = Metrics::default();
        m.ok.fetch_add(1, Ordering::Relaxed);
        let evil = "x\"} 1\ngtserve_ok_total 999999\n# evil \\";
        m.tenant_stats(evil)
            .requests
            .fetch_add(1, Ordering::Relaxed);
        m.tenant_stats(evil).latency.record(10);
        let text = prometheus_text(SERVE_FAMILIES, &view_of(m));
        for line in text.lines() {
            assert!(
                line.starts_with("# HELP ")
                    || line.starts_with("# TYPE ")
                    || well_formed_sample(line),
                "malformed exposition line: {line:?}"
            );
        }
        let ok_samples = text
            .lines()
            .filter(|l| l.starts_with("gtserve_ok_total"))
            .count();
        assert_eq!(ok_samples, 1, "{text}");
        assert!(text.contains("gtserve_tenant_requests_total{tenant=\"x\\\"} 1\\ngtserve_ok_total 999999\\n# evil \\\\\"} 1"));
    }

    #[test]
    fn every_family_renders_and_names_are_unique() {
        let m = Metrics::default();
        m.algo_stages("a").engine.record(1);
        m.tenant_stats("t").ok.fetch_add(1, Ordering::Relaxed);
        m.register_io_loop();
        let view = view_of(m);
        let text = prometheus_text(SERVE_FAMILIES, &view);
        let s = stats_json(SERVE_FAMILIES, &view);
        let mut names = std::collections::HashSet::new();
        let mut keys = std::collections::HashSet::new();
        for f in SERVE_FAMILIES {
            assert!(
                f.name.is_empty() || names.insert(f.name),
                "{} twice",
                f.name
            );
            assert!(f.key.is_empty() || keys.insert(f.key), "{} twice", f.key);
            if !f.name.is_empty() {
                assert!(f.name.starts_with("gtserve_"), "{}", f.name);
                assert!(
                    text.contains(&format!("# TYPE {} ", f.name)),
                    "{} not exported",
                    f.name
                );
            }
        }
        assert!(s.get("tenants.t.latency.p99_us").is_some());
        assert!(s.get("io_loops.0.lag.count").is_some());
    }
}
