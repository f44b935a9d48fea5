//! A split eval starts no thread: under sustained split load the
//! router's process keeps the thread count it settled at after
//! warm-up.  Nor does a replica connection: the router's threads are
//! its two io threads, the pacer and the prober whatever the fleet
//! size, and a join that admits a member starts none.  A test binary
//! of its own, so no other test's threads move the count.

#[cfg(target_os = "linux")]
#[test]
fn split_load_keeps_the_thread_census_flat() {
    use gt_analysis::Json;
    use gt_router::{Router, RouterConfig, SplitConfig};
    use gt_serve::{Client, Config, Request, Server};
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
    let router_threads = || {
        let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|name| name.trim().to_string())
            .filter(|name| name.starts_with("gt-router"))
            .collect();
        names.sort();
        names
    };
    let expected = [
        "gt-router-io-0",
        "gt-router-io-1",
        "gt-router-pacer",
        "gt-router-probe",
    ];
    assert_eq!(router_threads(), expected);

    // A third member joins.  It is serving before the count is taken,
    // and the count is taken again once it has answered an eval
    // through the router, so its connection is up.
    let third = Server::start(Config {
        addr: "127.0.0.1:0".into(),
        ..Config::default()
    })
    .unwrap();
    let third_addr = third.local_addr().to_string();
    let before = tasks();
    let mut client = Client::connect(addr).unwrap();
    let joined = client.send(&Request::join(&third_addr, 1, 1)).unwrap();
    assert_eq!(
        joined.body.get("action").and_then(Json::as_str),
        Some("admitted"),
        "{joined:?}"
    );
    let served = (0..1000).any(|seed| {
        // Below the split cost, so relayed whole to one member.
        let spec = format!("minmax:d=2,n=4,seed={seed}");
        let reply = client.eval(&spec, "alphabeta", None).unwrap();
        assert!(reply.ok, "{reply:?}");
        reply.body.get("replica").and_then(Json::as_str) == Some(third_addr.as_str())
    });
    assert!(served, "no eval reached the third member");
    assert_eq!(tasks(), before, "the join started a thread");
    assert_eq!(router_threads(), expected);
    drop(client);
    let snap = router.join();
    third.request_shutdown();
    third.join();
    assert!(
        snap.u64("splits_total") >= (CLIENTS * (WARMUP + EVALS)) as u64,
        "{snap:?}"
    );
    assert!(
        most <= settled,
        "split evals started threads: {settled} after warm-up, {most} under load"
    );
}
