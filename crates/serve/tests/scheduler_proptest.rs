//! Property tests for the executor's queue discipline.  Random
//! push/pop interleavings must preserve, for [`Scheduler::pop`], FIFO
//! order within every `(algorithm, class)` band, the small-before-large
//! priority, no loss or duplication, and the exact global capacity
//! bound; and for [`TenantScheduler::pop`], that a backlogged tenant
//! waits at most `k − 1` pops between two of its own while `k` tenants
//! hold queued work.
//!
//! Both schedulers are pure (no threads, no locks), so these
//! properties check the discipline itself rather than racing worker
//! timing.

use gt_serve::{CostClass, Scheduler, TenantScheduler};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One scripted operation against a scheduler.
#[derive(Debug, Clone)]
enum Op {
    Push {
        tenant: usize,
        algo: usize,
        small: bool,
    },
    Pop,
}

fn op_strategy(tenants: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..tenants, 0..ALGO_NAMES.len(), any::<bool>())
            .prop_map(|(tenant, algo, small)| Op::Push { tenant, algo, small }),
        2 => Just(Op::Pop),
    ]
}

const ALGO_NAMES: [&str; 4] = ["seq-solve", "parallel-solve", "round", "cascade"];
const TENANT_NAMES: [&str; 5] = ["", "t1", "t2", "t3", "t4"];

fn class(small: bool) -> CostClass {
    if small {
        CostClass::Small
    } else {
        CostClass::Large
    }
}

/// A job as the properties see it: its tenant, which queue it went
/// to, its class, and its arrival number within that `(algo, class)`
/// band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    tenant: usize,
    algo: usize,
    small: bool,
    seq: usize,
}

/// What a single-tenant run expects to come out next.
#[derive(Default)]
struct BandModel {
    next_seq: [[usize; 2]; ALGO_NAMES.len()],
    popped_seq: [[usize; 2]; ALGO_NAMES.len()],
    queued_small: usize,
    pushed: usize,
    popped: usize,
}

impl BandModel {
    fn job(&self, algo: usize, small: bool) -> Job {
        let seq = self.next_seq[algo][usize::from(small)];
        Job {
            tenant: 0,
            algo,
            small,
            seq,
        }
    }

    fn pushed(&mut self, job: Job) {
        self.next_seq[job.algo][usize::from(job.small)] += 1;
        self.pushed += 1;
        self.queued_small += usize::from(job.small);
    }

    fn popped(&mut self, job: Job) {
        if job.small {
            self.queued_small -= 1;
        } else {
            assert_eq!(
                self.queued_small, 0,
                "a large job left while small work was queued"
            );
        }
        let band = usize::from(job.small);
        assert_eq!(
            job.seq, self.popped_seq[job.algo][band],
            "band served out of arrival order"
        );
        self.popped_seq[job.algo][band] += 1;
        self.popped += 1;
    }
}

/// What the tenant property tracks between operations.
#[derive(Default)]
struct TenantModel {
    queued: [usize; TENANT_NAMES.len()],
    /// Per waiting tenant: the tenants seen backlogged since it began
    /// to wait, and the pops of others it has waited through.
    waits: [Option<(BTreeSet<usize>, usize)>; TENANT_NAMES.len()],
    pushed: usize,
    popped: BTreeSet<usize>,
}

impl TenantModel {
    fn pushed(&mut self, tenant: usize) {
        self.pushed += 1;
        self.queued[tenant] += 1;
        if self.queued[tenant] == 1 {
            self.waits[tenant] = Some((BTreeSet::new(), 0));
        }
    }

    fn pop(&mut self, sched: &mut TenantScheduler<Job>) {
        let Some(job) = sched.pop() else {
            assert_eq!(
                self.queued.iter().sum::<usize>(),
                0,
                "pop returned nothing while jobs were queued"
            );
            return;
        };
        assert!(self.popped.insert(job.seq), "job {} popped twice", job.seq);
        let queued = self.queued;
        let backlogged = (0..queued.len()).filter(|&t| queued[t] > 0);
        for (t, wait) in self.waits.iter_mut().enumerate() {
            let Some((seen, others)) = wait else {
                continue;
            };
            seen.extend(backlogged.clone());
            if t == job.tenant {
                assert!(
                    *others < seen.len(),
                    "tenant {t} waited {others} pops with {} tenants backlogged",
                    seen.len()
                );
            } else {
                *others += 1;
            }
        }
        self.queued[job.tenant] -= 1;
        self.waits[job.tenant] = (self.queued[job.tenant] > 0).then(|| (BTreeSet::new(), 0));
    }
}

proptest! {
    /// The full discipline under random interleavings:
    ///  * a large job is popped only when no small job is queued;
    ///  * within one `(algo, class)` band, jobs leave in arrival order;
    ///  * nothing is lost or duplicated, and a pop finds a job
    ///    whenever one is queued;
    ///  * the queue never exceeds its capacity, and a push fails
    ///    exactly when the queue is at capacity.
    #[test]
    fn discipline_holds_under_random_interleavings(
        ops in proptest::collection::vec(op_strategy(1), 1..200),
        capacity in 1usize..32,
    ) {
        let mut sched: Scheduler<Job> = Scheduler::new(capacity);
        let mut model = BandModel::default();

        for op in ops {
            match op {
                Op::Push { algo, small, .. } => {
                    let job = model.job(algo, small);
                    let was_full = sched.len() >= capacity;
                    match sched.push(ALGO_NAMES[algo], class(small), job) {
                        Ok(()) => {
                            prop_assert!(!was_full, "push admitted past capacity");
                            model.pushed(job);
                        }
                        Err(returned) => {
                            prop_assert!(was_full, "push refused below capacity");
                            prop_assert_eq!(returned, job, "refused push must hand the job back");
                        }
                    }
                }
                Op::Pop => {
                    let before = sched.len();
                    match sched.pop() {
                        Some(job) => model.popped(job),
                        None => prop_assert_eq!(before, 0, "pop returned nothing while jobs were queued"),
                    }
                }
            }
            prop_assert!(sched.len() <= capacity);
            prop_assert_eq!(sched.len(), model.pushed - model.popped, "len out of sync with traffic");
        }

        // Drain: everything pushed comes back out, in order.
        while let Some(job) = sched.pop() {
            model.popped(job);
        }
        prop_assert_eq!(model.popped, model.pushed, "jobs lost or duplicated");
        prop_assert!(sched.is_empty());
    }

    /// Tenant round-robin under random interleavings: a tenant with
    /// queued work — since a push to its empty lane, or after one of
    /// its pops — is popped within `k − 1` other pops, where `k` counts
    /// the tenants (itself included) that held queued work at some pop
    /// in between.  Every job comes out exactly once, and the bound on
    /// queued jobs is global across tenants.
    #[test]
    fn a_backlogged_tenant_waits_at_most_k_minus_one_pops(
        ops in proptest::collection::vec(op_strategy(TENANT_NAMES.len()), 1..300),
        capacity in 1usize..48,
    ) {
        let mut sched: TenantScheduler<Job> = TenantScheduler::new(capacity);
        let mut model = TenantModel::default();
        for op in ops {
            match op {
                Op::Push { tenant, algo, small } => {
                    // `seq` is a global job id here.
                    let job = Job { tenant, algo, small, seq: model.pushed };
                    let was_full = sched.len() >= capacity;
                    match sched.push(TENANT_NAMES[tenant], ALGO_NAMES[algo], class(small), job) {
                        Ok(()) => {
                            prop_assert!(!was_full, "push admitted past capacity");
                            model.pushed(tenant);
                        }
                        Err(returned) => {
                            prop_assert!(was_full, "push refused below capacity");
                            prop_assert_eq!(returned, job);
                        }
                    }
                }
                Op::Pop => model.pop(&mut sched),
            }
            prop_assert_eq!(sched.len(), model.queued.iter().sum::<usize>());
            for (t, name) in TENANT_NAMES.iter().enumerate() {
                prop_assert_eq!(sched.queued_for(name), model.queued[t]);
            }
        }
        while !sched.is_empty() {
            model.pop(&mut sched);
        }
        prop_assert_eq!(model.popped.len(), model.pushed, "jobs lost or duplicated");
    }
}
