//! The fork-join pool is fixed: once it is up, forking adds no threads,
//! and neither do the `par-*` engines, whose workers are pool jobs.
//! A test binary of its own with a single test, so no other test's
//! threads move the count.

#[cfg(target_os = "linux")]
#[test]
fn joins_and_par_evaluations_leave_the_thread_count_unchanged() {
    use gt_tree::minimax::{seq_alphabeta, seq_solve};
    use gt_tree::par::{join, par_alphabeta, par_solve, start_pool};
    use gt_tree::{GenSpec, TreeSource, Value};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    let tasks = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let pool = start_pool();
    assert!(pool >= 1);
    let before = tasks();
    let (mut sum, mut most) = (0u64, 0usize);
    for i in 0..10_000u64 {
        // The queued arm counts threads while it runs, wherever it runs.
        let (a, (b, during)) = join(|| i, || (i + 1, tasks()));
        sum += a + b;
        most = most.max(during);
    }
    assert_eq!(sum, 10_000 * 10_000);
    assert_eq!(most, before, "a join ran on a thread outside the pool");
    assert_eq!(tasks(), before, "joins left threads behind");

    /// Counts threads every 64th leaf, from whichever worker reads it.
    struct Census<S> {
        inner: S,
        leaves: AtomicU64,
        most: AtomicUsize,
    }
    impl<S: TreeSource> TreeSource for Census<S> {
        fn arity(&self, path: &[u32]) -> u32 {
            self.inner.arity(path)
        }
        fn leaf_value(&self, path: &[u32]) -> Value {
            if self
                .leaves
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(64)
            {
                let n = std::fs::read_dir("/proc/self/task").unwrap().count();
                self.most.fetch_max(n, Ordering::Relaxed);
            }
            self.inner.leaf_value(path)
        }
        fn height_hint(&self) -> Option<u32> {
            self.inner.height_hint()
        }
    }
    let census = |spec: &str| Census {
        inner: GenSpec::parse(spec).unwrap().build().unwrap(),
        leaves: AtomicU64::new(0),
        most: AtomicUsize::new(0),
    };
    let never = AtomicBool::new(false);
    let workers_cap = pool as u32 + 1;
    for seed in 0..200 {
        let src = census(&format!("minmax:d=2,n=12,seed={seed}"));
        let st = par_alphabeta(&src, 4, &never).unwrap();
        assert_eq!(st.value, seq_alphabeta(&src.inner, false).value);
        assert!(st.workers <= workers_cap, "{} workers", st.workers);
        assert_eq!(
            src.most.load(Ordering::Relaxed),
            before,
            "par_alphabeta seed {seed}"
        );

        let src = census(&format!("nor:d=2,n=12,seed={seed}"));
        let st = par_solve(&src, 4, &never).unwrap();
        assert_eq!(st.value, seq_solve(&src.inner, false).value);
        assert!(st.workers <= workers_cap, "{} workers", st.workers);
        assert_eq!(
            src.most.load(Ordering::Relaxed),
            before,
            "par_solve seed {seed}"
        );
    }
    assert_eq!(tasks(), before, "par evaluations left threads behind");
}
