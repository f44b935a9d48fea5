//! A split eval starts no thread: under sustained split load the
//! router's process keeps the thread count it settled at after
//! warm-up.  Nor does a replica connection, a timer or a `/metrics`
//! scrape: the router's threads are its two io threads and the prober
//! whatever the fleet size, and a join that admits a member starts
//! none; each replica runs only io threads, eval workers and the
//! fork-join pool.  A test binary of its own, so no other test's
//! threads move the count.

#[cfg(target_os = "linux")]
#[test]
fn split_load_keeps_the_thread_census_flat() {
    use gt_analysis::Json;
    use gt_router::{Router, RouterConfig, SplitConfig};
    use gt_serve::{Client, Config, Request, Server};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    const CLIENTS: usize = 2;
    const WARMUP: usize = 10;
    const EVALS: usize = 110;
    let tasks = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let with_metrics = Some("127.0.0.1:0".to_string());
    let router = Router::start(RouterConfig {
        spawn: 2,
        spawn_config: Config {
            metrics_addr: with_metrics.clone(),
            ..Config::default()
        },
        metrics_addr: with_metrics.clone(),
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
    // A scrape is served on the router's io thread 0.
    let mut scrape = TcpStream::connect(router.metrics_listener_addr().unwrap()).unwrap();
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: census\r\n\r\n")
        .unwrap();
    let mut exposition = String::new();
    scrape.read_to_string(&mut exposition).unwrap();
    assert!(exposition.contains("router_splits_total"), "{exposition}");
    // Every thread of the process but the harness's main thread and
    // this test's own: the router's, then the replicas'.
    let census = || {
        let me = std::fs::read_link("/proc/thread-self").unwrap();
        let skip = [
            me.file_name().unwrap().to_owned(),
            std::process::id().to_string().into(),
        ];
        let (mut router, replicas): (Vec<String>, Vec<String>) =
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|t| t.ok())
                .filter(|t| !skip.contains(&t.file_name()))
                .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
                .map(|name| name.trim().to_string())
                .partition(|name| name.starts_with("gt-router"));
        for name in &replicas {
            assert!(
                ["gt-serve-io-", "gt-serve-eval-", "gt-par-"]
                    .iter()
                    .any(|prefix| name.starts_with(prefix)),
                "a replica runs thread {name:?}"
            );
        }
        router.sort();
        router
    };
    let expected = ["gt-router-io-0", "gt-router-io-1", "gt-router-probe"];
    assert_eq!(census(), expected);

    // A third member joins.  It is serving before the count is taken,
    // and the count is taken again once it has answered an eval
    // through the router, so its connection is up.
    let third = Server::start(Config {
        addr: "127.0.0.1:0".into(),
        metrics_addr: with_metrics,
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
    assert_eq!(census(), expected);
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
