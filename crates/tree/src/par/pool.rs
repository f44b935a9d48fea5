//! The fork-join pool: [`join`] and the index-ordered [`map`] built on
//! it, both running on one process-wide set of threads.
//!
//! Like the paper's Section 7 machine, this is a fixed bank of
//! processors that work is handed to, not a thread per fork.  The pool
//! is sized once, from `available_parallelism()`, and starts at the
//! first fork (or at [`start_pool`]); its threads live for the rest of
//! the process.
//!
//! `join(a, b)` queues `b`, runs `a` on the caller, then takes `b` back
//! and runs it inline if no pool thread has started it, or waits for it
//! to finish.  A waiter never picks up other queued work, so it only
//! ever waits on a job that some thread is running.  The waits
//! therefore form chains that end in a running thread, and nested joins
//! from any number of threads cannot deadlock.  Because an unstarted
//! `b` always comes back to its caller, the forks complete even if
//! every pool thread is busy.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// Run `a` and `b`, potentially in parallel, and return both results.
///
/// `b` is queued for the pool and `a` runs on the caller.  If `a` or
/// `b` panics, the panic reaches the caller only after both arms have
/// stopped.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = pool();
    let job = StackJob {
        f: UnsafeCell::new(Some(b)),
        result: UnsafeCell::new(None),
        owner: thread::current(),
        done: AtomicBool::new(false),
    };
    // SAFETY: the queue holds a pointer to `job`, which lives in this
    // frame.  The frame is left only after one of two things: `take_back`
    // removed the pointer from the queue unrun, or the pool thread that
    // popped it stored `done`, its last access to `job`.  Nothing between
    // the push and that point can unwind: `a` runs under `catch_unwind`.
    let job_ref = unsafe { JobRef::new(&job) };
    let addr = job_ref.job;
    pool.push(job_ref);
    let ra = panic::catch_unwind(AssertUnwindSafe(a));
    let rb = if pool.take_back(addr) {
        let b = job
            .f
            .into_inner()
            .expect("an unstarted job still holds its closure");
        panic::catch_unwind(AssertUnwindSafe(b))
    } else {
        while !job.done.load(Ordering::Acquire) {
            thread::park();
        }
        job.result
            .into_inner()
            .expect("a finished job holds its result")
    };
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) | (_, Err(payload)) => panic::resume_unwind(payload),
    }
}

/// `(0..n).map(f)`, with the calls spread over the pool: the index range
/// is halved recursively through [`join`], and the results come back in
/// index order.  Index 0 always runs on the caller, so a one-element
/// input runs inline.
pub fn map<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    fn fill<U: Send>(slots: &mut [Option<U>], first: usize, f: &(impl Fn(usize) -> U + Sync)) {
        if let [slot] = slots {
            *slot = Some(f(first));
        } else if slots.len() > 1 {
            let (lo, hi) = slots.split_at_mut(slots.len() / 2);
            let mid = first + lo.len();
            join(|| fill(lo, first, f), || fill(hi, mid, f));
        }
    }
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    fill(&mut slots, 0, &f);
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is mapped"))
        .collect()
}

/// Start the pool now rather than at the first fork, and return its
/// thread count.  A server calls this at boot so the pool belongs to
/// its fixed thread census.
pub fn start_pool() -> usize {
    pool().threads
}

/// The `b` arm of a [`join`], in the caller's frame.
struct StackJob<F, R> {
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
    owner: Thread,
    done: AtomicBool,
}

impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
    /// Run the job on the pool thread that popped it.
    ///
    /// # Safety
    ///
    /// `job` comes from [`JobRef::new`] on a `StackJob<F, R>`, and the
    /// calling thread popped it from the queue: while `done` is false,
    /// no other thread touches `f` or `result`.
    unsafe fn run(job: *const ()) {
        // SAFETY: per the contract above, `job` is live and ours to run.
        let job = unsafe { &*job.cast::<Self>() };
        // SAFETY: only the popping thread accesses `f` and `result`
        // until `done` is stored.
        let f = unsafe { (*job.f.get()).take() }.expect("a queued job runs once");
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        // SAFETY: as above.
        unsafe { *job.result.get() = Some(result) };
        let owner = job.owner.clone();
        // The last access to `job`: once `done` reads true, the owner
        // may return and free it.
        job.done.store(true, Ordering::Release);
        owner.unpark();
    }
}

/// A queued job with its type and lifetime erased.
struct JobRef {
    job: *const (),
    run: unsafe fn(*const ()),
}

// SAFETY: `job` points at a `StackJob` whose closure and result are
// `Send` and which exactly one thread runs; `run` is a function pointer.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Erase `job` for the queue.
    ///
    /// # Safety
    ///
    /// `job` must stay alive and in place until the `JobRef` has been
    /// taken back out of the queue unrun, or run up to storing `done`.
    unsafe fn new<F: FnOnce() -> R + Send, R: Send>(job: &StackJob<F, R>) -> JobRef {
        JobRef {
            job: (job as *const StackJob<F, R>).cast(),
            run: StackJob::<F, R>::run,
        }
    }
}

struct Queue {
    jobs: VecDeque<JobRef>,
    /// Pool threads waiting on `ready` that no push has notified yet.
    /// A spurious wake-up can leave this one too high; the next push
    /// then notifies nobody and the count corrects itself.
    sleeping: usize,
}

struct Pool {
    queue: Mutex<Queue>,
    ready: Condvar,
    threads: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        for i in 0..threads {
            thread::Builder::new()
                .name(format!("gt-par-{i}"))
                .spawn(|| POOL.wait().work())
                .expect("spawn a fork-join pool thread");
        }
        Pool {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                sleeping: 0,
            }),
            ready: Condvar::new(),
            threads,
        }
    })
}

impl Pool {
    /// The queue lock.  No code panics while holding it, and `join` must
    /// not unwind while its job is queued, so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: JobRef) {
        let mut q = self.lock();
        q.jobs.push_back(job);
        if q.sleeping > 0 {
            q.sleeping -= 1;
            drop(q);
            self.ready.notify_one();
        }
    }

    /// Remove the job at `addr` from the queue if no pool thread has
    /// popped it.  The caller's own job is usually the latest push.
    fn take_back(&self, addr: *const ()) -> bool {
        let mut q = self.lock();
        let found = q.jobs.iter().rposition(|j| j.job == addr);
        found.and_then(|i| q.jobs.remove(i)).is_some()
    }

    /// A pool thread's loop: run the oldest queued job, the one nearest
    /// the root of its fork tree, or sleep until a push.
    fn work(&self) {
        let mut q = self.lock();
        loop {
            match q.jobs.pop_front() {
                Some(job) => {
                    drop(q);
                    // SAFETY: this thread popped `job`, so it is live
                    // until `run` stores `done` (see `join`).
                    unsafe { (job.run)(job.job) };
                    q = self.lock();
                }
                None => {
                    q.sleeping += 1;
                    q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
    }

    #[test]
    fn map_keeps_index_order() {
        let v = map(1000, |i| i * 2);
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
        assert!(map(0, |i| i).is_empty());
        let caller = thread::current().id();
        assert_eq!(map(1, |_| thread::current().id()), vec![caller]);
    }

    #[test]
    fn a_depth_200_spine_completes() {
        // Recurse down the queued arm: every level may be stolen, and
        // every level's caller waits on the rest of the spine.
        fn spine(depth: u32) -> u32 {
            if depth == 0 {
                return 0;
            }
            let (one, rest) = join(|| 1, || spine(depth - 1));
            one + rest
        }
        assert_eq!(spine(200), 200);
    }

    /// Spin until `flag` is set: holds the caller's arm until a pool
    /// thread has started the queued one.
    fn wait_for(flag: &AtomicBool) {
        let give_up = Instant::now() + Duration::from_secs(30);
        while !flag.load(Ordering::Acquire) {
            assert!(Instant::now() < give_up, "no pool thread started the arm");
            thread::yield_now();
        }
    }

    #[test]
    fn a_panic_in_either_arm_reaches_the_caller_after_both_arms_stop() {
        for a_panics in [true, false] {
            // `a` holds the caller until a pool thread runs `b`.
            let started = AtomicBool::new(false);
            let other_done = AtomicBool::new(false);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                join(
                    || {
                        wait_for(&started);
                        assert!(!a_panics, "arm a");
                        other_done.store(true, Ordering::SeqCst);
                    },
                    || {
                        started.store(true, Ordering::Release);
                        assert!(a_panics, "arm b");
                        thread::sleep(Duration::from_millis(20));
                        other_done.store(true, Ordering::SeqCst);
                    },
                )
            }));
            let want = if a_panics { "arm a" } else { "arm b" };
            assert_eq!(caught.unwrap_err().downcast_ref::<&str>(), Some(&want));
            assert!(
                other_done.load(Ordering::SeqCst),
                "the other arm must finish first"
            );
        }
        // The pool survives: later joins still work.
        assert_eq!(join(|| 1, || 2), (1, 2));
        assert_eq!(map(64, |i| i).len(), 64);
    }

    #[test]
    fn outside_threads_doing_nested_joins_do_not_deadlock() {
        fn leaves(depth: u32) -> u64 {
            if depth == 0 {
                return 1;
            }
            let (l, r) = join(|| leaves(depth - 1), || leaves(depth - 1));
            l + r
        }
        thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| leaves(10))).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 1024);
            }
        });
    }
}
