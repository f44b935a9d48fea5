//! The shared evaluation executor: a fixed pool of workers fed by
//! per-algorithm queues with a small/large priority split, one job per
//! dispatch.
//!
//! Before this module, every cache miss spawned a detached request
//! thread, so total engine concurrency was `connections × window` —
//! unbounded in the number of clients.  The executor inverts that:
//! readers *submit* jobs and return to their socket immediately, and a
//! fixed set of evaluation workers pull work off a shared
//! [`Scheduler`].  The only other threads that run an engine are the
//! I/O threads, each at most one sub-grain miss per loop iteration,
//! in place of a hand-off (see [`crate::server`]).  Engine concurrency
//! is `workers` plus one per I/O thread, no matter how many
//! connections are open.
//!
//! ## Scheduling discipline
//!
//! Jobs are keyed by algorithm and classified by estimated cost
//! ([`CostClass`]).  [`Scheduler::pop`] serves **small** work first
//! (across all algorithms, round-robin between their queues so no
//! algorithm starves another) and falls back to **large** jobs only
//! when no small work is queued.  This is the serving-layer analogue
//! of the paper's processor-per-level machine (Section 7): each
//! processor takes one message at a time, and cheap `val` messages get
//! ahead of long `P-SOLVE*` searches by the order they are served in.
//! Most small misses never queue (they run in place), so the small
//! band orders the rest: sub-grain jobs that missed their I/O thread's
//! turn, and the small jobs of engines the walk does not price (the
//! step simulators and `tt`).
//!
//! Every dispatch carries exactly one job.  A worker holds only the
//! job it is running, so every job not yet started is visible to
//! [`Executor::queued`], and a job's cooperative cancellation flag
//! stays its own flight's.
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
    /// Cheap: served before any large job.
    Small,
    /// Runs long; waits while small work is queued.
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

/// One algorithm's queue: a FIFO band per [`CostClass`], indexed by
/// the class.
type AlgoQueue<J> = [VecDeque<J>; 2];

/// The executor's queue discipline, free of threads and locks so it
/// can be property-tested directly.
///
/// Holds one [`AlgoQueue`] per algorithm name, each split into a small
/// and a large band.  Total occupancy is bounded by `capacity` across
/// all queues.
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
                self.queues.push(Default::default());
                self.index.insert(algo.to_string(), qi);
                qi
            }
        };
        self.queues[qi][class as usize].push_back(job);
        self.len += 1;
        Ok(())
    }

    /// Dequeue the next job: the small band of every algorithm before
    /// any large band.  Within one `(algorithm, class)` band jobs leave
    /// in arrival order; the round-robin cursor rotates between
    /// algorithms so none starves.
    pub fn pop(&mut self) -> Option<J> {
        let n = self.queues.len();
        for band in [CostClass::Small, CostClass::Large] {
            for step in 0..n {
                let qi = (self.cursor + step) % n;
                if let Some(job) = self.queues[qi][band as usize].pop_front() {
                    self.cursor = (qi + 1) % n;
                    self.len -= 1;
                    return Some(job);
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Per-tenant fairness: round-robin over tenant lanes.
// ---------------------------------------------------------------------------

/// Round-robin across per-tenant lanes, each its own [`Scheduler`], so
/// the small/large and per-algorithm disciplines hold *within* a
/// tenant.
///
/// Every submitted job carries a tenant id (the anonymous tenant `""`
/// is a lane like any other).  Each pop takes one job from the next
/// lane with queued work, so with `k` tenants backlogged a tenant
/// waits at most `k − 1` pops between two of its own, however deep any
/// one lane's backlog is.  A lane exists only while it holds work: the
/// pop that empties it drops it, so tenants that come and go leave
/// nothing behind for later pops to walk.
///
/// The cost unit is *jobs dispatched*, not engine time — a large job
/// counts once just like a small one.  Runtime skew from expensive
/// jobs is bounded separately, by the per-tenant inflight cap
/// ([`TenantGovernor`]) and the router's deadline machinery.
///
/// Capacity is global across lanes, same contract as [`Scheduler`]:
/// a push past the bound fails fast so the server sheds instead of
/// building invisible backlog.
pub struct TenantScheduler<J> {
    /// The lane of each tenant with queued work.
    lanes: HashMap<String, Scheduler<J>>,
    /// The tenants with queued work, in turn order: the front one is
    /// served next, then goes to the back if it still has work.
    turns: VecDeque<String>,
    len: usize,
    capacity: usize,
}

impl<J> TenantScheduler<J> {
    /// A scheduler admitting at most `capacity` queued jobs across
    /// all tenants (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        TenantScheduler {
            lanes: HashMap::new(),
            turns: VecDeque::new(),
            len: 0,
            capacity: capacity.max(1),
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

    /// Jobs queued for one tenant.
    pub fn queued_for(&self, tenant: &str) -> usize {
        self.lanes.get(tenant).map_or(0, Scheduler::len)
    }

    /// Enqueue `job` for `tenant` on `algo`'s queue in its class
    /// band; returns the job when the global bound is reached.  A
    /// tenant without a lane gets one, and its turn comes after every
    /// tenant already waiting.
    pub fn push(&mut self, tenant: &str, algo: &str, class: CostClass, job: J) -> Result<(), J> {
        if self.len >= self.capacity {
            return Err(job);
        }
        let lane = match self.lanes.get_mut(tenant) {
            Some(lane) => lane,
            None => {
                self.turns.push_back(tenant.to_string());
                // The global bound is enforced here, so the lane's own
                // bound must never bind first.
                self.lanes
                    .entry(tenant.to_string())
                    .or_insert_with(|| Scheduler::new(self.capacity))
            }
        };
        lane.push(algo, class, job)?;
        self.len += 1;
        Ok(())
    }

    /// Dequeue one job from the next lane with queued work, chosen by
    /// that lane's own small/large discipline; a lane left empty is
    /// dropped.
    pub fn pop(&mut self) -> Option<J> {
        let tenant = self.turns.pop_front()?;
        let lane = self
            .lanes
            .get_mut(&tenant)
            .expect("every tenant with a turn has a lane");
        let job = lane.pop().expect("a lane exists only while it holds work");
        if lane.is_empty() {
            self.lanes.remove(&tenant);
        } else {
            self.turns.push_back(tenant);
        }
        self.len -= 1;
        Some(job)
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
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 2,
            queue_depth: 64,
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
}

/// A fixed pool of evaluation workers over a shared [`Scheduler`].
///
/// Generic over the job type and the dispatch function so the serving
/// layer and the unit tests can both drive it; `run` is called on a
/// worker thread with exactly one job per dispatch.
pub struct Executor<J: Send + 'static> {
    shared: Arc<ExecutorShared<J>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<J: Send + 'static> Executor<J> {
    /// Start `config.workers` worker threads dispatching jobs to `run`,
    /// one job per call.
    pub fn start<F>(config: ExecutorConfig, run: F) -> Executor<J>
    where
        F: Fn(Vec<J>) + Send + Sync + 'static,
    {
        let shared = Arc::new(ExecutorShared {
            core: Mutex::new(Core {
                sched: TenantScheduler::new(config.queue_depth),
                closed: false,
            }),
            cv: Condvar::new(),
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

    /// Submit one job for `tenant`; jobs are dispatched round-robin
    /// across tenants (see [`TenantScheduler`]).
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

    /// Jobs currently queued (not yet taken by a worker).
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
        let job = {
            let mut core = shared.core.lock().unwrap();
            loop {
                if core.closed {
                    return;
                }
                if let Some(job) = core.sched.pop() {
                    break job;
                }
                core = shared.cv.wait(core).unwrap();
            }
        };
        run(vec![job]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn drain<J>(s: &mut Scheduler<J>) -> Vec<J> {
        std::iter::from_fn(|| s.pop()).collect()
    }

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
        assert_eq!(drain(&mut s), vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn small_jobs_preempt_large_ones_across_algorithms() {
        let mut s = Scheduler::new(16);
        s.push("big", CostClass::Large, 100).unwrap();
        s.push("tiny", CostClass::Small, 1).unwrap();
        s.push("tiny", CostClass::Small, 2).unwrap();
        // Small band drains first even though the large job arrived
        // earlier on a different queue.
        assert_eq!(drain(&mut s), vec![1, 2, 100]);
    }

    #[test]
    fn large_jobs_pop_one_at_a_time() {
        let mut s = Scheduler::new(16);
        s.push("a", CostClass::Large, 1).unwrap();
        s.push("a", CostClass::Large, 2).unwrap();
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn round_robin_rotates_between_algorithm_queues() {
        let mut s = Scheduler::new(64);
        for i in 0..3 {
            s.push("a", CostClass::Small, 10 + i).unwrap();
            s.push("b", CostClass::Small, 20 + i).unwrap();
        }
        // Alternating dispatches: neither algorithm starves.
        assert_eq!(drain(&mut s), vec![10, 20, 11, 21, 12, 22]);
    }

    #[test]
    fn capacity_bounds_the_whole_scheduler() {
        let mut s = Scheduler::new(2);
        s.push("a", CostClass::Small, 1).unwrap();
        s.push("b", CostClass::Large, 2).unwrap();
        assert_eq!(s.push("c", CostClass::Small, 3), Err(3));
        let _ = s.pop();
        assert!(s.push("c", CostClass::Small, 3).is_ok());
    }

    #[test]
    fn tenant_round_robin_shares_dispatches_between_backlogged_tenants() {
        // Tenant "flood" queues 40 jobs, tenant "calm" queues 8.  The
        // dispatch stream must alternate until calm drains, instead of
        // serving flood's whole backlog first.
        let mut s: TenantScheduler<&'static str> = TenantScheduler::new(64);
        for _ in 0..40 {
            s.push("flood", "a", CostClass::Small, "flood").unwrap();
        }
        for _ in 0..8 {
            s.push("calm", "a", CostClass::Small, "calm").unwrap();
        }
        let mut calm_done_at = None;
        let mut served = 0usize;
        while let Some(_job) = s.pop() {
            served += 1;
            if calm_done_at.is_none() && s.queued_for("calm") == 0 {
                calm_done_at = Some(served);
            }
        }
        assert_eq!(served, 48);
        assert!(s.is_empty());
        // Calm's 8 jobs alternate with flood's: calm is drained after
        // 16 dispatches.  FIFO-by-arrival would have made calm wait
        // for all 40 flood jobs.
        assert_eq!(calm_done_at, Some(16));
    }

    #[test]
    fn a_tenant_that_comes_and_goes_leaves_no_lane() {
        let mut s: TenantScheduler<usize> = TenantScheduler::new(4);
        for i in 0..20_000 {
            s.push(&format!("tenant-{i}"), "a", CostClass::Small, i)
                .unwrap();
            assert_eq!(s.pop(), Some(i));
        }
        assert!(s.is_empty());
        assert_eq!((s.lanes.len(), s.turns.len()), (0, 0), "lanes left behind");
    }

    #[test]
    fn an_emptied_lane_hands_the_turn_to_the_next_tenant() {
        let mut s: TenantScheduler<&'static str> = TenantScheduler::new(8);
        for (tenant, jobs) in [("a", 2), ("b", 1), ("c", 2)] {
            for _ in 0..jobs {
                s.push(tenant, "x", CostClass::Small, tenant).unwrap();
            }
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(order, ["a", "b", "c", "a", "c"]);
        assert!(s.lanes.is_empty());
    }

    #[test]
    fn tenant_scheduler_keeps_small_over_large_within_a_lane() {
        let mut s: TenantScheduler<u32> = TenantScheduler::new(16);
        s.push("t", "a", CostClass::Large, 100).unwrap();
        s.push("t", "a", CostClass::Small, 1).unwrap();
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), Some(100));
        assert!(s.is_empty());
    }

    #[test]
    fn tenant_scheduler_capacity_is_global_across_lanes() {
        let mut s: TenantScheduler<u32> = TenantScheduler::new(2);
        s.push("a", "x", CostClass::Small, 1).unwrap();
        s.push("b", "x", CostClass::Small, 2).unwrap();
        assert_eq!(s.push("c", "x", CostClass::Small, 3), Err(3));
        let _ = s.pop();
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
            },
            {
                let total = Arc::clone(&total);
                move |jobs: Vec<usize>| {
                    total.fetch_add(jobs.iter().sum::<usize>(), Ordering::SeqCst);
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
        let calls = Arc::new(AtomicUsize::new(0));
        let not_one = Arc::new(AtomicUsize::new(0));
        let exec: Executor<usize> = Executor::start(
            ExecutorConfig {
                workers: 3,
                queue_depth: 256,
            },
            {
                let total = Arc::clone(&total);
                let calls = Arc::clone(&calls);
                let not_one = Arc::clone(&not_one);
                move |jobs: Vec<usize>| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    if jobs.len() != 1 {
                        not_one.fetch_add(1, Ordering::SeqCst);
                    }
                    total.fetch_add(jobs.iter().sum::<usize>(), Ordering::SeqCst);
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
        assert_eq!(calls.load(Ordering::SeqCst), 100, "one run per job");
        assert_eq!(
            not_one.load(Ordering::SeqCst),
            0,
            "every run receives exactly one job"
        );
        assert_eq!(
            exec.submit("algo", CostClass::Small, 1),
            Err(SubmitError::Closed)
        );
    }

    #[test]
    fn a_busy_worker_holds_one_job_and_the_queue_counts_the_rest() {
        // Each run blocks until the test releases it, so the one
        // worker's second dispatch happens with four jobs queued.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let calls = Arc::new(AtomicUsize::new(0));
        let exec: Executor<u32> = Executor::start(
            ExecutorConfig {
                workers: 1,
                queue_depth: 4,
            },
            {
                let calls = Arc::clone(&calls);
                move |jobs: Vec<u32>| {
                    assert_eq!(jobs.len(), 1);
                    calls.fetch_add(1, Ordering::SeqCst);
                    let _ = gate_rx.lock().unwrap().recv();
                }
            },
        );
        let wait_for = |what: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !what() {
                assert!(Instant::now() < deadline, "executor stalled");
                thread::sleep(Duration::from_millis(1));
            }
        };
        exec.submit("a", CostClass::Small, 0).unwrap();
        wait_for(&|| calls.load(Ordering::SeqCst) == 1);
        for i in 1..=4 {
            exec.submit("a", CostClass::Small, i).unwrap();
        }
        assert_eq!(
            exec.submit("a", CostClass::Small, 5),
            Err(SubmitError::Full)
        );
        // Release the first run: the worker takes one more job and
        // blocks in it; the other three stay queued and counted.
        gate_tx.send(()).unwrap();
        wait_for(&|| calls.load(Ordering::SeqCst) == 2);
        assert_eq!(exec.queued(), 3);
        assert!(exec.submit("a", CostClass::Small, 6).is_ok());
        assert_eq!(
            exec.submit("a", CostClass::Small, 7),
            Err(SubmitError::Full)
        );
        drop(gate_tx); // unblock every later run
        exec.shutdown();
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
