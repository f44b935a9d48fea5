//! The fork-join pool is fixed: once it is up, forking adds no threads.
//! A test binary of its own with a single test, so no other test's
//! threads move the count.

#[cfg(target_os = "linux")]
#[test]
fn joins_leave_the_thread_count_unchanged() {
    use gt_tree::par::{join, start_pool};

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
}
