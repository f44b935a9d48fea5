//! The shared evaluation executor: a fixed pool of workers fed by
//! per-algorithm queues with a small/large priority split and
//! cross-key micro-batching of small jobs.
//!
//! Before this module, every cache miss spawned a detached request
//! thread, so total engine concurrency was `connections × window` —
//! unbounded in the number of clients.  The executor inverts that:
//! readers *submit* jobs and return to their socket immediately, and a
//! fixed set of evaluation workers (the only threads that ever run an
//! engine) pull work off a shared [`Scheduler`].  Engine concurrency
//! is exactly `workers`, no matter how many connections are open.
//!
//! ## Scheduling discipline
//!
//! Jobs are keyed by algorithm and classified by estimated cost
//! ([`CostClass`]):
//!
//! * **Small** jobs — cheap, deterministic specs whose per-job
//!   dispatch overhead (queue handoff, fork-join pool entry, allocator
//!   traffic, cache/single-flight bookkeeping) rivals their actual
//!   evaluation cost.  A worker drains up to `batch_max` of them from
//!   one algorithm's queue in a single dispatch and evaluates the
//!   whole batch back-to-back on its own thread, amortizing that
//!   overhead across the batch.  The batch crosses cache keys but
//!   never priority classes.
//! * **Large** jobs — everything else.  One job per dispatch, so a
//!   long engine run occupies exactly one worker and its cooperative
//!   cancellation flag stays per-flight.
//!
//! `pop` serves small work first (across all algorithms, round-robin
//! between their queues so no algorithm starves another) and falls
//! back to large jobs only when no small work is queued.  This is the
//! serving-layer analogue of the paper's processor-per-level machine
//! (Section 7): many cheap units of work share one processor bank,
//! while expensive subtree evaluations get dedicated processors.
//!
//! The queue is bounded *globally* (`queue_depth`); a submit past the
//! bound fails fast so the server can shed with `busy` instead of
//! building an invisible backlog.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// Cost class of one job, decided before it enters the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Cheap enough that dispatch overhead matters: batchable.
    Small,
    /// Runs long enough to deserve a dedicated worker.
    Large,
}

impl CostClass {
    /// Classify by estimated cost (e.g. leaf count) against the
    /// configured threshold.
    pub fn classify(estimated_cost: u64, small_cost_max: u64) -> CostClass {
        if estimated_cost <= small_cost_max {
            CostClass::Small
        } else {
            CostClass::Large
        }
    }
}

struct AlgoQueue<J> {
    small: VecDeque<J>,
    large: VecDeque<J>,
}

impl<J> AlgoQueue<J> {
    fn new() -> Self {
        AlgoQueue {
            small: VecDeque::new(),
            large: VecDeque::new(),
        }
    }
}

/// The executor's queue discipline, free of threads and locks so it
/// can be property-tested and benchmarked directly.
///
/// Holds one [`AlgoQueue`] per algorithm name, each split into a
/// small (batchable) and a large band.  Total occupancy is bounded by
/// `capacity` across all queues.
pub struct Scheduler<J> {
    queues: Vec<AlgoQueue<J>>,
    index: HashMap<String, usize>,
    /// Round-robin cursor over `queues`.
    cursor: usize,
    len: usize,
    capacity: usize,
}

impl<J> Scheduler<J> {
    /// A scheduler admitting at most `capacity` queued jobs (clamped
    /// to at least 1).
    pub fn new(capacity: usize) -> Self {
        Scheduler {
            queues: Vec::new(),
            index: HashMap::new(),
            cursor: 0,
            len: 0,
            capacity: capacity.max(1),
        }
    }

    /// Queued jobs across all algorithms and classes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured global bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue `job` on `algo`'s queue in its class band; returns the
    /// job when the global bound is reached.
    pub fn push(&mut self, algo: &str, class: CostClass, job: J) -> Result<(), J> {
        if self.len >= self.capacity {
            return Err(job);
        }
        let qi = match self.index.get(algo) {
            Some(&qi) => qi,
            None => {
                let qi = self.queues.len();
                self.queues.push(AlgoQueue::new());
                self.index.insert(algo.to_string(), qi);
                qi
            }
        };
        match class {
            CostClass::Small => self.queues[qi].small.push_back(job),
            CostClass::Large => self.queues[qi].large.push_back(job),
        }
        self.len += 1;
        Ok(())
    }

    /// Dequeue the next dispatch: up to `batch_max` small jobs from
    /// one algorithm's queue, or a single large job when no small
    /// work is queued anywhere.  Within one `(algorithm, class)` band
    /// jobs leave in arrival order; the round-robin cursor rotates
    /// between algorithms so none starves.
    pub fn pop_batch(&mut self, batch_max: usize) -> Vec<J> {
        let n = self.queues.len();
        if n == 0 || self.len == 0 {
            return Vec::new();
        }
        let batch_max = batch_max.max(1);
        // First pass: small work anywhere wins.
        for step in 0..n {
            let qi = (self.cursor + step) % n;
            if !self.queues[qi].small.is_empty() {
                self.cursor = (qi + 1) % n;
                let take = self.queues[qi].small.len().min(batch_max);
                let batch: Vec<J> = self.queues[qi].small.drain(..take).collect();
                self.len -= batch.len();
                return batch;
            }
        }
        // No small work: one large job, dedicated dispatch.
        for step in 0..n {
            let qi = (self.cursor + step) % n;
            if let Some(job) = self.queues[qi].large.pop_front() {
                self.cursor = (qi + 1) % n;
                self.len -= 1;
                return vec![job];
            }
        }
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Per-tenant fairness: deficit round-robin over tenant lanes.
// ---------------------------------------------------------------------------

/// One tenant's lane: its own [`Scheduler`] (so the small/large and
/// per-algorithm disciplines hold *within* the tenant) plus its DRR
/// deficit.
struct TenantLane<J> {
    sched: Scheduler<J>,
    /// Jobs this lane may still dispatch in its current turn.
    deficit: u64,
}

/// Deficit-round-robin across per-tenant lanes, layered over the
/// per-algorithm [`Scheduler`] discipline.
///
/// Every submitted job carries a tenant id (the anonymous tenant `""`
/// is a lane like any other).  A lane with queued work is visited in
/// round-robin order and granted a `quantum` of dispatch credit; each
/// dispatch costs the number of jobs it pops, and the cursor only
/// moves on when the lane's credit is spent or its queue drains.  A
/// tenant flooding the queue therefore cannot starve another: each
/// nonempty lane dispatches ~`quantum` jobs per cycle regardless of
/// how deep any one lane's backlog is.
///
/// The cost unit is *jobs dispatched*, not engine time — a large job
/// costs one unit just like a small one.  Runtime skew from expensive
/// jobs is bounded separately, by the per-tenant inflight cap
/// ([`TenantGovernor`]) and the router's deadline machinery.
///
/// Capacity is global across lanes, same contract as [`Scheduler`]:
/// a push past the bound fails fast so the server sheds instead of
/// building invisible backlog.
pub struct TenantScheduler<J> {
    lanes: Vec<TenantLane<J>>,
    index: HashMap<String, usize>,
    /// Round-robin cursor over `lanes`.
    cursor: usize,
    len: usize,
    capacity: usize,
    quantum: u64,
}

impl<J> TenantScheduler<J> {
    /// A scheduler admitting at most `capacity` queued jobs across
    /// all tenants, granting `quantum` jobs of credit per DRR turn
    /// (both clamped to at least 1).
    pub fn new(capacity: usize, quantum: u64) -> Self {
        TenantScheduler {
            lanes: Vec::new(),
            index: HashMap::new(),
            cursor: 0,
            len: 0,
            capacity: capacity.max(1),
            quantum: quantum.max(1),
        }
    }

    /// Queued jobs across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured global bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs queued for one tenant.
    pub fn queued_for(&self, tenant: &str) -> usize {
        self.index
            .get(tenant)
            .map_or(0, |&ti| self.lanes[ti].sched.len())
    }

    /// Enqueue `job` for `tenant` on `algo`'s queue in its class
    /// band; returns the job when the global bound is reached.
    pub fn push(&mut self, tenant: &str, algo: &str, class: CostClass, job: J) -> Result<(), J> {
        if self.len >= self.capacity {
            return Err(job);
        }
        let ti = match self.index.get(tenant) {
            Some(&ti) => ti,
            None => {
                let ti = self.lanes.len();
                self.lanes.push(TenantLane {
                    // The global bound is enforced here, so the inner
                    // scheduler's own bound must never bind first.
                    sched: Scheduler::new(self.capacity),
                    deficit: 0,
                });
                self.index.insert(tenant.to_string(), ti);
                ti
            }
        };
        self.lanes[ti].sched.push(algo, class, job)?;
        self.len += 1;
        Ok(())
    }

    /// Dequeue the next dispatch from the lane whose DRR turn it is:
    /// up to `batch_max` jobs (further capped by the lane's remaining
    /// credit), chosen by the lane's own small/large discipline.  An
    /// empty lane forfeits its credit and its turn.
    pub fn pop_batch(&mut self, batch_max: usize) -> Vec<J> {
        let n = self.lanes.len();
        if n == 0 || self.len == 0 {
            return Vec::new();
        }
        for step in 0..n {
            let ti = (self.cursor + step) % n;
            if self.lanes[ti].sched.is_empty() {
                self.lanes[ti].deficit = 0;
                continue;
            }
            let quantum = self.quantum;
            let lane = &mut self.lanes[ti];
            if lane.deficit == 0 {
                lane.deficit = quantum;
            }
            let cap = lane.deficit.min(batch_max.max(1) as u64) as usize;
            let batch = lane.sched.pop_batch(cap);
            self.len -= batch.len();
            lane.deficit = lane.deficit.saturating_sub(batch.len() as u64);
            if lane.sched.is_empty() {
                lane.deficit = 0;
            }
            // A lane with credit left keeps the floor; otherwise the
            // next lane is up.
            self.cursor = if lane.deficit > 0 { ti } else { (ti + 1) % n };
            return batch;
        }
        Vec::new()
    }
}

/// Per-tenant inflight governor: admission control for
/// `--tenant-max-inflight`.
///
/// A leader flight acquires a slot for its tenant before entering the
/// executor and holds it until the flight publishes; past the cap the
/// server sheds that tenant's request with `429` + `retry_after_ms`
/// while other tenants sail on.  The anonymous tenant (`""`) is never
/// limited — untagged traffic keeps the pre-tenant behaviour, bounded
/// only by the global queue.
pub struct TenantGovernor {
    /// Per-tenant inflight cap; `0` disables the governor entirely.
    max_inflight: usize,
    counts: Mutex<HashMap<String, usize>>,
}

impl TenantGovernor {
    pub fn new(max_inflight: usize) -> TenantGovernor {
        TenantGovernor {
            max_inflight,
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// Whether the governor does anything at all.
    pub fn enabled(&self) -> bool {
        self.max_inflight > 0
    }

    /// Claim a slot for `tenant`; `false` means the tenant is at its
    /// cap and the request should be shed.
    pub fn try_acquire(&self, tenant: &str) -> bool {
        if self.max_inflight == 0 || tenant.is_empty() {
            return true;
        }
        let mut counts = self.counts.lock().unwrap();
        let n = counts.entry(tenant.to_string()).or_insert(0);
        if *n >= self.max_inflight {
            return false;
        }
        *n += 1;
        true
    }

    /// Release a slot claimed by [`try_acquire`](Self::try_acquire).
    pub fn release(&self, tenant: &str) {
        if self.max_inflight == 0 || tenant.is_empty() {
            return;
        }
        let mut counts = self.counts.lock().unwrap();
        if let Some(n) = counts.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                counts.remove(tenant);
            }
        }
    }

    /// Flights `tenant` currently has inside the evaluation pipeline.
    pub fn inflight(&self, tenant: &str) -> usize {
        self.counts
            .lock()
            .unwrap()
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }
}

/// Effective small-batch cap for the current backlog: spread the
/// queued jobs evenly across the worker pool instead of always filling
/// a dispatch to `batch_max`.
///
/// An idle server (one queued job, several free workers) dispatches a
/// batch of 1, so a lone request never waits behind batch assembly;
/// only when the backlog exceeds `workers × batch_max` does every
/// dispatch fill to the configured cap.  Monotone in `queued`, clamped
/// to `1..=batch_max`.
pub fn adaptive_batch_cap(queued: usize, workers: usize, batch_max: usize) -> usize {
    let per_worker = queued.div_ceil(workers.max(1));
    per_worker.clamp(1, batch_max.max(1))
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The global queue bound is reached; shed the request.
    Full,
    /// The executor is shutting down.
    Closed,
}

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Evaluation worker threads (clamped to at least 1).
    pub workers: usize,
    /// Global queue bound across all algorithm queues.
    pub queue_depth: usize,
    /// Most small jobs evaluated per dispatch.
    pub batch_max: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 2,
            queue_depth: 64,
            batch_max: 16,
        }
    }
}

struct Core<J> {
    sched: TenantScheduler<J>,
    closed: bool,
}

struct ExecutorShared<J> {
    core: Mutex<Core<J>>,
    cv: Condvar,
    batch_max: usize,
    workers: usize,
}

/// A fixed pool of evaluation workers over a shared [`Scheduler`].
///
/// Generic over the job type and the dispatch function so the serving
/// layer, the unit tests, and the criterion bench can all drive it;
/// `run` receives each popped batch on a worker thread.
pub struct Executor<J: Send + 'static> {
    shared: Arc<ExecutorShared<J>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<J: Send + 'static> Executor<J> {
    /// Start `config.workers` worker threads dispatching batches to
    /// `run`.
    pub fn start<F>(config: ExecutorConfig, run: F) -> Executor<J>
    where
        F: Fn(Vec<J>) + Send + Sync + 'static,
    {
        let shared = Arc::new(ExecutorShared {
            core: Mutex::new(Core {
                sched: TenantScheduler::new(config.queue_depth, config.batch_max.max(1) as u64),
                closed: false,
            }),
            cv: Condvar::new(),
            batch_max: config.batch_max.max(1),
            workers: config.workers.max(1),
        });
        let run = Arc::new(run);
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let run = Arc::clone(&run);
                thread::Builder::new()
                    .name(format!("gt-serve-eval-{i}"))
                    .spawn(move || worker_loop(&shared, run.as_ref()))
                    .expect("an eval worker thread starts")
            })
            .collect();
        Executor {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submit one job for the anonymous tenant; fails fast when the
    /// queue is at its bound or the executor is closed.
    pub fn submit(&self, algo: &str, class: CostClass, job: J) -> Result<(), SubmitError> {
        self.submit_tagged("", algo, class, job)
    }

    /// Submit one job for `tenant`; jobs are dispatched under deficit
    /// round-robin across tenants (see [`TenantScheduler`]).
    pub fn submit_tagged(
        &self,
        tenant: &str,
        algo: &str,
        class: CostClass,
        job: J,
    ) -> Result<(), SubmitError> {
        let mut core = self.shared.core.lock().unwrap();
        if core.closed {
            return Err(SubmitError::Closed);
        }
        core.sched
            .push(tenant, algo, class, job)
            .map_err(|_| SubmitError::Full)?;
        drop(core);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Jobs currently queued (not yet popped by a worker).
    pub fn queued(&self) -> usize {
        self.shared.core.lock().unwrap().sched.len()
    }

    /// Close the queue and reap every worker.  Jobs still queued are
    /// dropped, not run: by shutdown time their waiters have already
    /// been answered (drained windows or expired deadlines), so
    /// running them would only delay the exit.
    pub fn shutdown(&self) {
        {
            let mut core = self.shared.core.lock().unwrap();
            core.closed = true;
        }
        self.shared.cv.notify_all();
        let handles: Vec<JoinHandle<()>> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop<J, F>(shared: &ExecutorShared<J>, run: &F)
where
    F: Fn(Vec<J>),
{
    loop {
        let batch = {
            let mut core = shared.core.lock().unwrap();
            loop {
                if core.closed {
                    return;
                }
                if !core.sched.is_empty() {
                    let cap =
                        adaptive_batch_cap(core.sched.len(), shared.workers, shared.batch_max);
                    break core.sched.pop_batch(cap);
                }
                core = shared.cv.wait(core).unwrap();
            }
        };
        if !batch.is_empty() {
            run(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn classify_splits_on_the_threshold() {
        assert_eq!(CostClass::classify(100, 100), CostClass::Small);
        assert_eq!(CostClass::classify(101, 100), CostClass::Large);
        assert_eq!(CostClass::classify(0, 0), CostClass::Small);
    }

    #[test]
    fn scheduler_is_fifo_within_a_band() {
        let mut s = Scheduler::new(16);
        for i in 0..5 {
            s.push("a", CostClass::Small, i).unwrap();
        }
        assert_eq!(s.pop_batch(16), vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn scheduler_batches_at_most_batch_max() {
        let mut s = Scheduler::new(64);
        for i in 0..10 {
            s.push("a", CostClass::Small, i).unwrap();
        }
        assert_eq!(s.pop_batch(4), vec![0, 1, 2, 3]);
        assert_eq!(s.pop_batch(4), vec![4, 5, 6, 7]);
        assert_eq!(s.pop_batch(4), vec![8, 9]);
    }

    #[test]
    fn small_jobs_preempt_large_ones_across_algorithms() {
        let mut s = Scheduler::new(16);
        s.push("big", CostClass::Large, 100).unwrap();
        s.push("tiny", CostClass::Small, 1).unwrap();
        s.push("tiny", CostClass::Small, 2).unwrap();
        // Small band drains first even though the large job arrived
        // earlier on a different queue.
        assert_eq!(s.pop_batch(8), vec![1, 2]);
        assert_eq!(s.pop_batch(8), vec![100]);
    }

    #[test]
    fn large_jobs_pop_one_at_a_time() {
        let mut s = Scheduler::new(16);
        s.push("a", CostClass::Large, 1).unwrap();
        s.push("a", CostClass::Large, 2).unwrap();
        assert_eq!(s.pop_batch(8), vec![1]);
        assert_eq!(s.pop_batch(8), vec![2]);
    }

    #[test]
    fn round_robin_rotates_between_algorithm_queues() {
        let mut s = Scheduler::new(64);
        for i in 0..3 {
            s.push("a", CostClass::Small, 10 + i).unwrap();
            s.push("b", CostClass::Small, 20 + i).unwrap();
        }
        // Alternating dispatches: neither algorithm starves.
        assert_eq!(s.pop_batch(2), vec![10, 11]);
        assert_eq!(s.pop_batch(2), vec![20, 21]);
        assert_eq!(s.pop_batch(2), vec![12]);
        assert_eq!(s.pop_batch(2), vec![22]);
    }

    #[test]
    fn capacity_bounds_the_whole_scheduler() {
        let mut s = Scheduler::new(2);
        s.push("a", CostClass::Small, 1).unwrap();
        s.push("b", CostClass::Large, 2).unwrap();
        assert_eq!(s.push("c", CostClass::Small, 3), Err(3));
        let _ = s.pop_batch(8);
        assert!(s.push("c", CostClass::Small, 3).is_ok());
    }

    #[test]
    fn adaptive_cap_scales_with_backlog() {
        // Idle: a lone job dispatches alone, no batch-wait added.
        assert_eq!(adaptive_batch_cap(1, 2, 16), 1);
        assert_eq!(adaptive_batch_cap(0, 2, 16), 1);
        // Light backlog: batches stay proportional to depth.
        assert_eq!(adaptive_batch_cap(4, 2, 16), 2);
        assert_eq!(adaptive_batch_cap(5, 2, 16), 3);
        // Saturated: the configured cap is the ceiling.
        assert_eq!(adaptive_batch_cap(64, 2, 16), 16);
        assert_eq!(adaptive_batch_cap(1_000_000, 2, 16), 16);
        // Degenerate knobs are clamped, never zero or a panic.
        assert_eq!(adaptive_batch_cap(10, 0, 0), 1);
        // Monotone in queue depth.
        let caps: Vec<usize> = (0..200).map(|q| adaptive_batch_cap(q, 3, 8)).collect();
        assert!(caps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tenant_drr_shares_dispatches_between_backlogged_tenants() {
        // Tenant "flood" queues 40 jobs, tenant "calm" queues 8.
        // With a quantum of 4 the dispatch stream must alternate
        // 4-job turns until calm drains, instead of serving flood's
        // whole backlog first.
        let mut s: TenantScheduler<&'static str> = TenantScheduler::new(64, 4);
        for _ in 0..40 {
            s.push("flood", "a", CostClass::Small, "flood").unwrap();
        }
        for _ in 0..8 {
            s.push("calm", "a", CostClass::Small, "calm").unwrap();
        }
        let mut calm_done_at = None;
        let mut served = 0usize;
        while !s.is_empty() {
            let batch = s.pop_batch(16);
            assert!(!batch.is_empty());
            served += batch.len();
            if calm_done_at.is_none() && s.queued_for("calm") == 0 {
                calm_done_at = Some(served);
            }
        }
        assert_eq!(served, 48);
        // Calm's 8 jobs ride along in the first few cycles: by the
        // time ~2 full cycles (2 × (4+4) = 16 jobs) have been served,
        // calm must be drained.  FIFO-by-arrival would have made calm
        // wait for all 40 flood jobs.
        assert!(
            calm_done_at.unwrap() <= 16,
            "calm drained only after {} dispatched jobs",
            calm_done_at.unwrap()
        );
    }

    #[test]
    fn tenant_lane_keeps_the_floor_while_it_has_credit() {
        // quantum 4, batch cap 2: a lane's turn spans two dispatches
        // before the cursor moves on.
        let mut s: TenantScheduler<u32> = TenantScheduler::new(64, 4);
        for i in 0..8 {
            s.push("a", "x", CostClass::Small, 10 + i).unwrap();
            s.push("b", "x", CostClass::Small, 20 + i).unwrap();
        }
        assert_eq!(s.pop_batch(2), vec![10, 11]);
        assert_eq!(s.pop_batch(2), vec![12, 13]); // credit left: same lane
        assert_eq!(s.pop_batch(2), vec![20, 21]); // quantum spent: next lane
        assert_eq!(s.pop_batch(2), vec![22, 23]);
        assert_eq!(s.pop_batch(2), vec![14, 15]);
    }

    #[test]
    fn tenant_scheduler_keeps_small_over_large_within_a_lane() {
        let mut s: TenantScheduler<u32> = TenantScheduler::new(16, 8);
        s.push("t", "a", CostClass::Large, 100).unwrap();
        s.push("t", "a", CostClass::Small, 1).unwrap();
        assert_eq!(s.pop_batch(8), vec![1]);
        assert_eq!(s.pop_batch(8), vec![100]);
        assert!(s.is_empty());
    }

    #[test]
    fn tenant_scheduler_capacity_is_global_across_lanes() {
        let mut s: TenantScheduler<u32> = TenantScheduler::new(2, 4);
        s.push("a", "x", CostClass::Small, 1).unwrap();
        s.push("b", "x", CostClass::Small, 2).unwrap();
        assert_eq!(s.push("c", "x", CostClass::Small, 3), Err(3));
        let _ = s.pop_batch(8);
        assert!(s.push("c", "x", CostClass::Small, 3).is_ok());
    }

    #[test]
    fn governor_caps_each_tenant_but_never_the_anonymous_lane() {
        let g = TenantGovernor::new(2);
        assert!(g.enabled());
        assert!(g.try_acquire("a"));
        assert!(g.try_acquire("a"));
        assert!(!g.try_acquire("a"), "third flight must shed");
        // Another tenant is unaffected.
        assert!(g.try_acquire("b"));
        // Anonymous traffic is never limited.
        for _ in 0..10 {
            assert!(g.try_acquire(""));
        }
        g.release("a");
        assert_eq!(g.inflight("a"), 1);
        assert!(g.try_acquire("a"));
        // Disabled governor admits everything.
        let off = TenantGovernor::new(0);
        assert!(!off.enabled());
        for _ in 0..100 {
            assert!(off.try_acquire("a"));
        }
    }

    #[test]
    fn executor_runs_tagged_jobs_from_every_tenant() {
        let total = Arc::new(AtomicUsize::new(0));
        let exec: Executor<usize> = Executor::start(
            ExecutorConfig {
                workers: 2,
                queue_depth: 256,
                batch_max: 4,
            },
            {
                let total = Arc::clone(&total);
                move |batch: Vec<usize>| {
                    total.fetch_add(batch.iter().sum::<usize>(), Ordering::SeqCst);
                }
            },
        );
        let mut want = 0usize;
        for i in 1..=60usize {
            let tenant = ["", "team-a", "team-b"][i % 3];
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match exec.submit_tagged(tenant, "algo", CostClass::Small, i) {
                    Ok(()) => break,
                    Err(SubmitError::Full) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("submit failed: {e:?}"),
                }
            }
            want += i;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while total.load(Ordering::SeqCst) < want && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        exec.shutdown();
        assert_eq!(total.load(Ordering::SeqCst), want);
    }

    #[test]
    fn executor_runs_every_submitted_job() {
        let total = Arc::new(AtomicUsize::new(0));
        let batches = Arc::new(AtomicUsize::new(0));
        let exec: Executor<usize> = Executor::start(
            ExecutorConfig {
                workers: 3,
                queue_depth: 256,
                batch_max: 8,
            },
            {
                let total = Arc::clone(&total);
                let batches = Arc::clone(&batches);
                move |batch| {
                    batches.fetch_add(1, Ordering::SeqCst);
                    total.fetch_add(batch.iter().sum::<usize>(), Ordering::SeqCst);
                }
            },
        );
        let mut want = 0usize;
        for i in 1..=100usize {
            let class = if i % 10 == 0 {
                CostClass::Large
            } else {
                CostClass::Small
            };
            // Submit with retry: workers drain concurrently.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match exec.submit("algo", class, i) {
                    Ok(()) => break,
                    Err(SubmitError::Full) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("submit failed: {e:?}"),
                }
            }
            want += i;
        }
        // Wait for the queue to drain, then shut down.
        let deadline = Instant::now() + Duration::from_secs(10);
        while total.load(Ordering::SeqCst) < want && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        exec.shutdown();
        assert_eq!(total.load(Ordering::SeqCst), want);
        assert!(
            batches.load(Ordering::SeqCst) >= 10,
            "large jobs alone force ≥10 dispatches"
        );
        assert_eq!(
            exec.submit("algo", CostClass::Small, 1),
            Err(SubmitError::Closed)
        );
    }

    #[test]
    fn shed_when_full_then_closed_when_shut_down() {
        // One worker blocked forever on a sentinel lets the queue fill.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let exec: Executor<u32> = Executor::start(
            ExecutorConfig {
                workers: 1,
                queue_depth: 1,
                batch_max: 1,
            },
            move |_| {
                let _ = gate_rx.lock().unwrap().recv();
            },
        );
        // First job occupies the worker; second fills the queue.
        exec.submit("a", CostClass::Large, 0).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while exec.queued() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        exec.submit("a", CostClass::Large, 1).unwrap();
        assert_eq!(
            exec.submit("a", CostClass::Large, 2),
            Err(SubmitError::Full)
        );
        drop(gate_tx); // unblock the worker
        exec.shutdown();
        assert_eq!(
            exec.submit("a", CostClass::Large, 3),
            Err(SubmitError::Closed)
        );
    }
}
