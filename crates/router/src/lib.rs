//! gt-router: a replica-aware routing tier that makes N `gt-serve`
//! replicas behave like one fast evaluator.
//!
//! The router is a standalone NDJSON/TCP front tier owning a pool of
//! replica addresses.  Each eval request is validated at the edge and
//! routed by **rendezvous hashing on its canonical cache key**, so a
//! given key always lands on the replica whose LRU already holds it —
//! replica-local caches compose into one sharded fleet cache without
//! any cross-replica invalidation traffic.  Around that core:
//!
//! * **Health gating** ([`health`]) — a background probe loop drives a
//!   per-replica state machine (healthy → degraded → ejected, with
//!   half-open re-admission); routing prefers healthier tiers and only
//!   falls back to ejected replicas when nothing else is left.
//! * **Failover** — 429/503 replies and transport failures re-route
//!   the request to the next replica in hash order, bounded by a retry
//!   budget and biased by the upstream's `retry_after_ms` hint.
//! * **Hedging** — with a latency threshold configured, a request
//!   still unanswered after `hedge_ms` is raced against the next
//!   candidate; the first reply wins and the loser is discarded under
//!   last-waiter-out semantics.
//! * **Observability** ([`metrics`]) — per-replica request / retry /
//!   hedge / eject counters and a route-latency histogram, declared
//!   once in one family table and rendered from it for `op:"stats"`
//!   and the Prometheus `/metrics` listener.
//! * **Distributed tracing** ([`trace`]) — a sampled span recorder
//!   assembles one span tree per request (routing decision, every
//!   dispatch/retry/hedge attempt, split-plan structure, replica-side
//!   stage offsets), queryable via `op:"trace"`.
//!
//! This is the serving-fleet analogue of the paper's Section 7
//! machine: a fixed processor set, work assigned by a fixed rule, and
//! a pre-emption mechanism (here: hedging and failover) that keeps
//! every processor useful even when one stalls.

pub mod hash;
pub mod health;
pub mod membership;
pub mod metrics;
pub mod router;
pub mod split;
pub mod trace;

pub use health::{HealthPolicy, HealthState};
pub use metrics::RouterMetrics;
pub use router::{Router, RouterConfig};
pub use split::SplitConfig;
pub use trace::{SpanRecorder, TraceHandle};
