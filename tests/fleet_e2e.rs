//! End-to-end tests for the fleet control plane: dynamic membership
//! (join announcements), cache snapshot/warm restarts, and per-tenant
//! fairness — real routers and replicas over loopback TCP.

use gt_analysis::Json;
use gt_router::{Router, RouterConfig};
use gt_serve::{Client, Config, Op, Request, Server};
use std::time::{Duration, Instant};

/// Poll the router's `health` reply until `pred` accepts it (or panic
/// after `secs` seconds).  Reconnects per poll so a router mid-churn
/// cannot wedge the probe.
fn wait_for_health<F: Fn(&Json) -> bool>(addr: &str, secs: u64, what: &str, pred: F) -> Json {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut last = Json::Null;
    while Instant::now() < deadline {
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(reply) = c.health() {
                if pred(&reply.body) {
                    return reply.body;
                }
                last = reply.body;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("router never reached: {what}; last health: {last:?}");
}

/// The `members` rows of a health body as `(addr, generation, tier)`.
fn member_rows(body: &Json) -> Vec<(String, u64, u64)> {
    match body.get("members") {
        Some(Json::Array(rows)) => rows
            .iter()
            .map(|r| {
                (
                    r.get("addr")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    r.get("generation").and_then(Json::as_u64).unwrap_or(0),
                    r.get("tier").and_then(Json::as_u64).unwrap_or(99),
                )
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// A distinct-key eval request: nothing caches or coalesces across
/// `salt`s, so every request exercises routing and dispatch.
fn distinct_eval(salt: u64, tenant: Option<&str>) -> Request {
    Request {
        id: Some(salt.to_string()),
        op: Op::Eval,
        spec: Some(format!("worst:d=2,n=6,seed={salt}")),
        algo: Some("seq-solve".into()),
        deadline_ms: Some(10_000),
        tenant: tenant.map(str::to_string),
        ..Default::default()
    }
}

#[test]
fn a_replica_joins_a_live_fleet_under_load_without_client_errors() {
    let seed_replica = Server::start(Config {
        workers: 2,
        ..Config::default()
    })
    .unwrap();
    let router = Router::start(RouterConfig {
        replicas: vec![seed_replica.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    let router_addr = router.local_addr().to_string();

    // Client load runs across the join: two closed-loop connections
    // sending distinct keys, every reply must be ok.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (errors, sent) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|conn| {
                let stop = &stop;
                let addr = router_addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("client connect");
                    let mut errors = 0u64;
                    let mut sent = 0u64;
                    let mut salt = conn * 1_000_000;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        salt += 1;
                        sent += 1;
                        match client.send(&distinct_eval(salt, None)) {
                            Ok(reply) if reply.ok => {}
                            _ => errors += 1,
                        }
                    }
                    (errors, sent)
                })
            })
            .collect();

        // Mid-load: a brand-new replica announces itself to the
        // router and joins the fleet.
        std::thread::sleep(Duration::from_millis(150));
        let joiner = Server::start(Config {
            workers: 2,
            announce: Some(router_addr.clone()),
            weight: 1,
            generation: 1,
            ..Config::default()
        })
        .unwrap();
        wait_for_health(&router_addr, 10, "two routable members", |body| {
            let rows = member_rows(body);
            rows.len() == 2 && rows.iter().all(|(_, _, tier)| *tier < 3)
        });

        // Keep the load running against the grown fleet long enough
        // for rebalanced keys to land on the joiner.
        let settle = Instant::now();
        while joiner.stats().u64("received") == 0 && settle.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(25));
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        let (mut errors, mut sent) = (0, 0);
        for h in handles {
            let (e, s) = h.join().unwrap();
            errors += e;
            sent += s;
        }
        // The joiner took a share of the keyspace: it served traffic
        // it could only have received through the router.
        assert!(
            joiner.stats().u64("received") > 0,
            "the joined replica never saw a request"
        );
        joiner.request_shutdown();
        joiner.join();
        (errors, sent)
    });
    assert!(sent > 0);
    assert_eq!(errors, 0, "membership growth must be invisible to clients");

    router.request_shutdown();
    router.join();
    seed_replica.request_shutdown();
    seed_replica.join();
}

#[test]
fn a_killed_replica_rejoins_warm_from_its_snapshot() {
    let dir = std::env::temp_dir().join(format!("gt-fleet-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("replica-a.snap");
    let snapshot_path = snapshot.to_str().unwrap().to_string();

    // B anchors the fleet; A joins with a snapshot path and announces.
    let replica_b = Server::start(Config {
        workers: 2,
        ..Config::default()
    })
    .unwrap();
    let router = Router::start(RouterConfig {
        replicas: vec![replica_b.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    let router_addr = router.local_addr().to_string();
    let replica_a = Server::start(Config {
        workers: 2,
        snapshot_path: Some(snapshot_path.clone()),
        announce: Some(router_addr.clone()),
        generation: 1,
        ..Config::default()
    })
    .unwrap();
    let a_addr = replica_a.local_addr().to_string();
    wait_for_health(&router_addr, 10, "A admitted", |body| {
        member_rows(body).len() == 2
    });

    // Seed the fleet with a fixed keyset through the router.
    let keyset: Vec<Request> = (0..24).map(|salt| distinct_eval(salt, None)).collect();
    let mut client = Client::connect(&router_addr).unwrap();
    for req in &keyset {
        let reply = client.send(req).unwrap();
        assert!(reply.ok, "seeding failed: {reply:?}");
    }

    // Kill A.  Draining writes its cache shards to the snapshot file.
    replica_a.request_shutdown();
    replica_a.join();
    assert!(snapshot.exists(), "drain must write the snapshot");

    // Churn window: A is gone, but every request keeps succeeding —
    // A's share of the keyspace fails over to B.
    for req in &keyset {
        let reply = client.send(req).unwrap();
        assert!(reply.ok, "churn must be invisible to clients: {reply:?}");
    }

    // Restart A on the same address (same identity under rendezvous
    // hashing) at a higher generation, warm from the snapshot.  The
    // freed port can sit in a lingering state briefly, so retry.
    let restart_deadline = Instant::now() + Duration::from_secs(10);
    let replica_a2 = loop {
        match Server::start(Config {
            addr: a_addr.clone(),
            workers: 2,
            snapshot_path: Some(snapshot_path.clone()),
            announce: Some(router_addr.clone()),
            generation: 2,
            ..Config::default()
        }) {
            Ok(s) => break s,
            Err(e) if Instant::now() < restart_deadline => {
                eprintln!("rebind {a_addr}: {e}; retrying");
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("could not rebind {a_addr}: {e}"),
        }
    };
    let snap = replica_a2.stats();
    assert!(
        snap.u64("snapshot_restored") > 0,
        "restart must restore the snapshot"
    );
    wait_for_health(&router_addr, 10, "A rejoined at generation 2", |body| {
        member_rows(body)
            .iter()
            .any(|(addr, generation, tier)| addr == &a_addr && *generation == 2 && *tier < 3)
    });

    // First window after the restart: replay the keyset.  A owns the
    // same keys it owned before the kill and answers them from the
    // restored cache — well above the 50%-hit floor.  The router
    // reconnects to A once a probe sees it answer, so early replays can
    // still fail over to B; keep replaying until A serves traffic.
    let replay_deadline = Instant::now() + Duration::from_secs(10);
    let snap = loop {
        for req in &keyset {
            let reply = client.send(req).unwrap();
            assert!(reply.ok, "replay failed: {reply:?}");
        }
        let snap = replica_a2.stats();
        if snap.u64("cache_hits") + snap.u64("cache_misses") > 0 {
            break snap;
        }
        assert!(
            Instant::now() < replay_deadline,
            "rebalance never routed keys back to A"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let served = snap.u64("cache_hits") + snap.u64("cache_misses");
    assert!(
        snap.u64("cache_hits") * 2 >= served,
        "first-window hit rate below 50%: {} hits of {served}",
        snap.u64("cache_hits")
    );
    assert_eq!(
        snap.u64("evaluated"),
        0,
        "every replayed key was a restored hit"
    );

    router.request_shutdown();
    router.join();
    replica_a2.request_shutdown();
    replica_a2.join();
    replica_b.request_shutdown();
    replica_b.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flooding_tenant_is_capped_while_the_quiet_tenant_runs_clean() {
    let server = Server::start(Config {
        workers: 2,
        tenant_max_inflight: 1,
        ..Config::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let run = Duration::from_millis(500);

    let (noisy_shed, quiet) = std::thread::scope(|scope| {
        // The flood: bursts of 16 pipelined distinct evals, far over
        // the 1-inflight cap, for the whole window.
        let flood = scope.spawn({
            let addr = addr.clone();
            move || {
                let mut client = Client::connect(&addr).unwrap();
                let start = Instant::now();
                let mut salt = 0u64;
                let mut shed = 0u64;
                while start.elapsed() < run {
                    let burst: Vec<Request> = (0..16)
                        .map(|_| {
                            salt += 1;
                            distinct_eval(salt, Some("noisy"))
                        })
                        .collect();
                    for req in &burst {
                        client.write_request(req).unwrap();
                    }
                    for _ in &burst {
                        let reply = client.read_response().unwrap();
                        if reply.status == 429 {
                            shed += 1;
                        }
                    }
                }
                shed
            }
        });
        // The quiet tenant: classic one-at-a-time closed loop, never
        // above its own 1-inflight share.
        let quiet = scope.spawn({
            let addr = addr.clone();
            move || {
                let mut client = Client::connect(&addr).unwrap();
                let start = Instant::now();
                let mut salt = 10_000_000u64;
                let (mut ok, mut shed) = (0u64, 0u64);
                while start.elapsed() < run {
                    salt += 1;
                    let reply = client.send(&distinct_eval(salt, Some("quiet"))).unwrap();
                    if reply.ok {
                        ok += 1;
                    } else if reply.status == 429 {
                        shed += 1;
                    }
                }
                (ok, shed)
            }
        });
        (flood.join().unwrap(), quiet.join().unwrap())
    });

    let (quiet_ok, quiet_shed) = quiet;
    assert!(
        noisy_shed > 0,
        "a 16-deep burst against a 1-inflight cap must shed"
    );
    assert!(quiet_ok > 0, "the quiet tenant made progress");
    assert_eq!(quiet_shed, 0, "a tenant inside its share is never shed");

    // The server's own per-tenant cards tell the same story.
    let snap = server.stats();
    assert!(snap.u64("tenants.noisy.shed") >= noisy_shed);
    assert_eq!(snap.u64("tenants.quiet.shed"), 0);
    assert!(snap.u64("tenants.quiet.ok") >= quiet_ok);
    server.request_shutdown();
    server.join();
}
