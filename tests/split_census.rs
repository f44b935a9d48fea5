//! A split eval starts no thread: under sustained split load the
//! router's process keeps the thread count it settled at after
//! warm-up.  A test binary of its own, so no other test's threads move
//! the count.

#[cfg(target_os = "linux")]
#[test]
fn split_load_keeps_the_thread_census_flat() {
    use gt_router::{Router, RouterConfig, SplitConfig};
    use gt_serve::Client;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    const CLIENTS: usize = 2;
    const WARMUP: usize = 10;
    const EVALS: usize = 110;
    let tasks = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let router = Router::start(RouterConfig {
        spawn: 2,
        split: SplitConfig {
            cost_threshold: Some(27),
            ..SplitConfig::default()
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let addr = router.local_addr();
    let warm = Arc::new(Barrier::new(CLIENTS + 1));
    let finished = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let warm = Arc::clone(&warm);
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut eval = |i: usize| {
                    // Unseen trees, so every eval is planned afresh.
                    let spec = format!("minmax:d=3,n=6,seed={}", c * 10_000 + i);
                    let reply = client.eval(&spec, "alphabeta", None).unwrap();
                    assert!(reply.ok && reply.body.get("split").is_some(), "{reply:?}");
                };
                (0..WARMUP).for_each(&mut eval);
                warm.wait();
                (WARMUP..WARMUP + EVALS).for_each(&mut eval);
                finished.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    warm.wait();
    let settled = tasks();
    let mut most = settled;
    while finished.load(Ordering::SeqCst) < CLIENTS {
        most = most.max(tasks());
        std::thread::sleep(Duration::from_micros(200));
    }
    for c in clients {
        c.join().unwrap();
    }
    let snap = router.join();
    assert!(
        snap.u64("splits_total") >= (CLIENTS * (WARMUP + EVALS)) as u64,
        "{snap:?}"
    );
    assert!(
        most <= settled,
        "split evals started threads: {settled} after warm-up, {most} under load"
    );
}
