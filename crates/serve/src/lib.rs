//! # gt-serve — a backpressure-aware game-tree evaluation service
//!
//! Everything before this crate was a one-shot process: generate a
//! workload, evaluate it, print, exit.  `gt-serve` turns the Karp–Zhang
//! engines into a long-lived network service, the hot path every
//! scaling and robustness PR can target:
//!
//! * **Wire protocol** ([`protocol`]) — newline-delimited JSON over
//!   TCP.  A request names a workload with the `gt_tree::spec::GenSpec`
//!   string format (`worst:d=2,n=10`) plus an algorithm selector
//!   (`cascade:w=2`, `round:w=1`, `seq-solve`, …); the reply carries
//!   the root value, work/step metrics, and server-side latency.
//!   Requests on one connection may be **pipelined**: the server reads
//!   continuously, evaluates concurrently (bounded per connection),
//!   and replies out of order, correlated by the echoed `id`.
//! * **Readiness-driven connection handling** ([`eventloop`], [`io`])
//!   — a fixed pool of event-loop threads (epoll on Linux, poll
//!   elsewhere) multiplexes every connection: incremental line parsing
//!   with pooled carry buffers, per-connection pipelining windows,
//!   bounded outbound queues drained by vectored writes, an idle sweep
//!   that closes dribbling connections, and a self-pipe waker for
//!   replies settled on other threads (a reply an I/O thread settles
//!   itself is written before it next polls, with no wake).  No
//!   thread per connection: the
//!   thread census at 10 000 open connections equals the census at
//!   ten.  The loop takes a per-tier line handler, and both tiers run
//!   on it: [`server`] for `gtree serve` and `gt-router` for its
//!   clients and, adopted as outbound connections, its replicas.
//! * **Shared evaluation executor** ([`executor`]) — a fixed pool of
//!   evaluation workers fed by per-algorithm queues, so total engine
//!   concurrency is `--eval-workers`, plus one in-place run per I/O
//!   thread, no matter how many connections are open.  A miss below
//!   the grain (estimated cost at or below `--small-cost`, on an
//!   engine the sequential walk prices) runs on the I/O thread that
//!   read it, one per loop iteration, with no hand-off and no wake.
//!   Each dispatch carries one job; cheap jobs are served before big
//!   ones; submissions past the bounded depth are shed with a
//!   429-style `busy` error instead of growing a backlog.
//! * **Deadlines without parked threads** ([`server`], [`deadline`]) —
//!   per-request deadlines are timers on the client connection's I/O
//!   thread, in that thread's min-heap (the router's retries, hedges
//!   and expiries are timers on the same loop), and drive the
//!   engines' cooperative cancellation
//!   (`gt_core::engine::Cancelled`); an expired request gets a timely
//!   `timeout` reply even while its abandoned work winds down.
//! * **Sharded LRU result cache** ([`cache`]) — keyed by the canonical
//!   spec+algorithm string and spread across independently locked
//!   shards, so repeated requests are O(1) and concurrent traffic
//!   does not serialize on one cache lock.
//! * **Single-flight coalescing** ([`singleflight`]) — concurrent
//!   requests for the same canonical key share one engine run; the
//!   duplicates wait on the leader's flight instead of occupying
//!   queue slots.
//! * **Metrics** ([`metrics`], [`registry`]) — request/reject/timeout/
//!   cache counters, a log-bucketed latency histogram, and
//!   per-algorithm stage histograms with aggregated engine work
//!   counters.  One table declares every series once; the `stats`
//!   request, the shutdown dump and the Prometheus text exposition on
//!   `--metrics-addr` are all rendered from it (see
//!   `docs/OBSERVABILITY.md`).
//! * **Tracing** ([`trace`]) — every request is stamped through recv →
//!   parse → probe → enqueue → dispatch → engine → write; a bounded
//!   flight recorder retains recent and notable (slow/shed/timed-out)
//!   traces for the `trace` request; `/metrics` is a second listener
//!   on the connection loop.
//! * **Load generator** ([`loadgen`]) — open- and closed-loop client
//!   fleets, optionally pipelined, so throughput and tail latency are
//!   measurable in-repo.
//!
//! The crate is std-only: threads, `std::net`, and `std::sync::mpsc` —
//! no async runtime, no serialization dependency (JSON I/O rides on
//! `gt_analysis::json`).
//!
//! ## Quick start
//!
//! ```no_run
//! use gt_serve::{Client, Config, Server};
//!
//! let server = Server::start(Config {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 4,
//!     ..Config::default()
//! })
//! .unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client.eval("worst:d=2,n=8", "cascade:w=1", None).unwrap();
//! assert!(reply.ok);
//! server.request_shutdown();
//! let stats = server.join();
//! assert_eq!(stats.u64("ok"), 1);
//! ```

pub mod cache;
pub mod client;
pub mod deadline;
pub mod eventloop;
pub mod executor;
pub mod io;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod singleflight;
pub mod snapshot;
pub mod trace;
pub mod workload;

pub use cache::{CacheStats, LruCache, ShardedCache};
pub use client::Client;
pub use executor::{
    CostClass, Executor, ExecutorConfig, Scheduler, SubmitError, TenantGovernor, TenantScheduler,
};
pub use io::{BufferPool, LineAction, LineReader, Poller, Waker};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport, TenantReport};
pub use metrics::Metrics;
pub use protocol::{ErrorCode, Op, Request, Response};
pub use registry::Stats;
pub use server::{Config, Server};
pub use singleflight::{Flight, FlightResult, FlightTable, Joined};
pub use trace::{FlightRecorder, StageStamps, TraceRecord};
pub use workload::{estimated_cost, AlgoSpec, EvalOutcome};
