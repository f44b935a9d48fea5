//! The fork-join engines add no threads: cascade and YBW fork onto the
//! fixed pool of `gt_tree::par`, so a census taken from inside their
//! leaves never sees a thread outside it.  A test binary of its own
//! with a single test, so no other test's threads move the count.

#[cfg(target_os = "linux")]
#[test]
fn forking_engines_leave_the_thread_count_unchanged() {
    use gt_core::engine::{CascadeEngine, YbwEngine};
    use gt_tree::minimax::{seq_alphabeta, seq_solve};
    use gt_tree::par::start_pool;
    use gt_tree::{GenSpec, TreeSource, Value};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    let tasks = || std::fs::read_dir("/proc/self/task").unwrap().count();
    assert!(start_pool() >= 1);
    let before = tasks();

    /// Every 64th leaf counts threads, and notes whether a pool thread
    /// read it.
    struct Census<S> {
        inner: S,
        leaves: AtomicU64,
        most: AtomicUsize,
        on_pool: AtomicU64,
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
                let name = std::thread::current().name().map(str::to_owned);
                if name.is_some_and(|n| n.starts_with("gt-par-")) {
                    self.on_pool.fetch_add(1, Ordering::Relaxed);
                }
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
        on_pool: AtomicU64::new(0),
    };
    // At n=14 the root's children hold 2^13 leaves each, above the
    // fork grain, so every engine below forks at the root.
    let cascade = CascadeEngine::with_width(1);
    let mut on_pool = 0;
    for seed in 0..200 {
        let spec = format!("minmax:d=2,n=14,seed={seed}");
        let want = seq_alphabeta(&census(&spec).inner, false).value;
        let src = census(&spec);
        assert_eq!(cascade.solve_minmax(&src).value, want, "cascade {spec}");
        assert_eq!(src.most.load(Ordering::Relaxed), before, "cascade {spec}");
        on_pool += src.on_pool.into_inner();
        let src = census(&spec);
        assert_eq!(YbwEngine.solve_minmax(&src).value, want, "ybw {spec}");
        assert_eq!(src.most.load(Ordering::Relaxed), before, "ybw {spec}");
        on_pool += src.on_pool.into_inner();

        let spec = format!("nor:d=2,n=14,seed={seed}");
        let src = census(&spec);
        let want = seq_solve(&src.inner, false).value;
        assert_eq!(cascade.solve_nor(&src).value, want, "cascade {spec}");
        assert_eq!(src.most.load(Ordering::Relaxed), before, "cascade {spec}");
        on_pool += src.on_pool.into_inner();
    }
    assert_eq!(tasks(), before, "engine runs left threads behind");
    // The census counted something: some forked arm ran on the pool.
    assert!(on_pool > 0, "no leaf was read on a pool thread");
}
