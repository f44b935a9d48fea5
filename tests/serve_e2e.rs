//! End-to-end loopback tests for the gt-serve evaluation service: a
//! real listener, real sockets, and the full request lifecycle —
//! happy path, malformed input, deadlines, shedding, caching,
//! single-flight coalescing, pipelining, drain.

use gt_serve::{Client, Config, Request, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(config: Config) -> Server {
    Server::start(config).expect("bind loopback")
}

#[test]
fn happy_path_returns_value_and_metrics() {
    let server = start(Config::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let r = client.ping().unwrap();
    assert!(r.ok);

    // worst:d=2,n=6 forces all 64 leaves under sequential NOR solve.
    let r = client.eval("worst:d=2,n=6", "seq-solve", None).unwrap();
    assert!(r.ok, "error: {:?}", r.error);
    let work = r.body.get("work").expect("work object");
    assert_eq!(
        work.get("leaves").and_then(gt_analysis::Json::as_u64),
        Some(64)
    );
    assert_eq!(
        work.get("max_width").and_then(gt_analysis::Json::as_u64),
        Some(1),
        "sequential solve uses one processor"
    );
    assert!(!r.cached());
    let seq_value = r.value().unwrap();

    // Every cancellable engine agrees with the sequential baseline.
    for algo in ["parallel-solve:w=2", "round:w=2", "cascade:w=2"] {
        let r = client.eval("worst:d=2,n=6", algo, None).unwrap();
        assert!(r.ok, "{algo}: {:?}", r.error);
        assert_eq!(r.value().unwrap(), seq_value, "{algo}");
    }

    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("ok"), 4);
    assert_eq!(stats.u64("evaluated"), 4);
    assert_eq!(stats.u64("connections"), 1);
}

#[test]
fn malformed_request_gets_error_reply_and_connection_survives() {
    let server = start(Config::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    for bad in [
        "this is not json",
        "[1,2,3]",
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"eval"}"#,
        r#"{"spec":"nope:n=4"}"#,
        r#"{"spec":"worst:n=4","algo":"quantum"}"#,
    ] {
        let r = client.send_line(bad).unwrap();
        assert!(!r.ok, "{bad} should fail");
        assert_eq!(r.status, 400, "{bad}");
    }

    // The same connection still serves good requests.
    let r = client.eval("worst:d=2,n=4", "seq-solve", None).unwrap();
    assert!(r.ok);

    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("bad_request"), 6);
    assert_eq!(stats.u64("ok"), 1);
}

#[test]
fn deadline_timeout_replies_promptly_and_cancels_the_engine() {
    let server = start(Config {
        workers: 1,
        ..Config::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 2^32 leaves with no pruning: far more work than 100ms allows.
    let started = Instant::now();
    let r = client
        .eval("worst:d=2,n=32", "cascade:w=4", Some(100))
        .unwrap();
    let elapsed = started.elapsed();
    assert!(!r.ok);
    assert_eq!(r.status, 408);
    assert_eq!(r.code.as_deref(), Some("timeout"));
    assert!(
        elapsed < Duration::from_secs(5),
        "timeout reply took {elapsed:?}"
    );

    // The worker observed the cancellation flag and is free again: a
    // request above --small-cost, so one for the same (sole) worker
    // rather than for the I/O thread, completes fine.
    let r = client
        .eval("worst:d=2,n=13", "cascade:w=1", Some(5_000))
        .unwrap();
    assert!(r.ok, "worker still wedged: {:?}", r.error);

    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("timeout"), 1);
    assert_eq!(stats.u64("ok"), 1);
}

/// Sequential α-β's value of the generated tree `spec`.
fn alphabeta_value(spec: &str) -> i64 {
    let v = gt_serve::workload::validate(spec, "alphabeta").unwrap();
    let never = std::sync::atomic::AtomicBool::new(false);
    gt_serve::workload::evaluate(&v.spec, &v.algo, &never)
        .unwrap()
        .value
}

#[test]
fn sub_grain_misses_are_answered_by_their_io_thread_without_a_hand_off() {
    // One I/O thread: its iteration count is the whole loop's.  A miss
    // handed to a worker costs a second iteration, for its reply's wake.
    let server = start(Config {
        io_threads: 1,
        ..Config::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(client.ping().unwrap().ok);
    const REQUESTS: u64 = 200;
    let iterations = || server.stats().u64("io_loops.0.iterations");
    let before = iterations();
    let mut replies = Vec::new();
    for seed in 0..REQUESTS {
        // 4^6 = 4096 leaves: at --small-cost.
        let spec = format!("minmax:d=4,n=6,seed={seed}");
        let r = client.eval(&spec, "cascade:w=1", None).unwrap();
        assert!(r.ok && !r.cached(), "{spec}: {:?}", r.error);
        replies.push((spec, r.value().unwrap()));
    }
    let spent = iterations() - before;
    assert!(
        spent <= REQUESTS * 11 / 10,
        "{spent} loop iterations for {REQUESTS} sub-grain misses"
    );
    for (spec, value) in replies {
        assert_eq!(value, alphabeta_value(&spec), "{spec}");
    }
    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("evaluated"), REQUESTS);
}

#[test]
fn a_hit_behind_a_burst_of_sub_grain_misses_is_not_held_behind_them() {
    let server = start(Config {
        workers: 1,
        io_threads: 1,
        ..Config::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let line = |id: &str, seed: u32| {
        format!(r#"{{"id":"{id}","spec":"minmax:d=4,n=6,seed={seed}","algo":"cascade:w=1"}}"#)
    };
    let warm = client.send_line(&line("warm", 1_000)).unwrap();
    assert!(warm.ok, "{:?}", warm.error);
    // 24 distinct misses, then the hit, in one write: one read, one
    // iteration, one turn.  Run in place one after another, the misses
    // would put the hit's reply 25th.
    let mut burst: Vec<String> = (0..24).map(|i| line(&format!("m{i}"), i)).collect();
    burst.push(line("hit", 1_000));
    client.write_line(&burst.join("\n")).unwrap();
    let mut order = Vec::new();
    for _ in 0..burst.len() {
        let r = client.read_response().unwrap();
        assert!(r.ok, "{:?}: {:?}", r.id, r.error);
        order.push(r.id.unwrap());
    }
    let at = order
        .iter()
        .position(|id| id == "hit")
        .expect("the hit's reply");
    let misses_after = order.len() - 1 - at;
    assert!(
        misses_after >= 12,
        "the hit's reply came after {at} of the 24 misses: {order:?}"
    );
    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("evaluated"), 25);
    assert_eq!(stats.u64("cache_hits"), 1);
}

#[test]
fn full_queue_sheds_with_busy() {
    let server = start(Config {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0,
        ..Config::default()
    });
    let addr = server.local_addr();

    // Two slow evals with *distinct* canonical keys (identical ones
    // would coalesce instead of occupying capacity): one pins the
    // only worker, the other takes the only queue slot.  Write raw
    // lines without waiting for replies.
    let mut busy_conns: Vec<(TcpStream, BufReader<TcpStream>)> = [31u32, 32]
        .iter()
        .map(|n| {
            let slow =
                format!(r#"{{"spec":"worst:d=2,n={n}","algo":"cascade:w=1","deadline_ms":4000}}"#);
            let s = TcpStream::connect(addr).unwrap();
            let reader = BufReader::new(s.try_clone().unwrap());
            let mut w = s.try_clone().unwrap();
            writeln!(w, "{slow}").unwrap();
            w.flush().unwrap();
            (s, reader)
        })
        .collect();

    // Offer short-deadline evals (a third distinct key) until one is
    // shed.  The interleaving with the raw writes above is
    // scheduler-dependent, but the loop converges fast: an offer that
    // sneaks into the queue times out (dooming its flight), yet still
    // occupies its slot until the (pinned) worker reaps it, so the
    // next offer leads a fresh flight and must find the queue full.
    let mut client = Client::connect(addr).unwrap();
    let mut shed = None;
    for _ in 0..20 {
        let r = client
            .eval("worst:d=2,n=30", "cascade:w=1", Some(200))
            .unwrap();
        assert!(!r.ok, "request must shed or time out under a pinned worker");
        if r.status == 429 {
            shed = Some(r);
            break;
        }
        assert_eq!(r.status, 408, "unexpected failure: {:?}", r.error);
    }
    let shed = shed.expect("no offer was shed while worker and queue were full");
    assert_eq!(shed.code.as_deref(), Some("busy"));

    // The slow requests resolve by their deadlines: 408 if they made
    // it into the system, 429 if an offer displaced one of them.
    for (_, reader) in busy_conns.iter_mut() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"status\":408") || line.contains("\"status\":429"),
            "got: {line}"
        );
    }

    client.shutdown_server().unwrap();
    let stats = server.join();
    assert!(stats.u64("shed") >= 1, "shed={}", stats.u64("shed"));
    assert!(
        stats.u64("timeout") >= 1,
        "timeout={}",
        stats.u64("timeout")
    );
    assert_eq!(stats.u64("ok"), 0);
}

#[test]
fn concurrent_identical_cold_requests_coalesce_into_one_run() {
    let server = start(Config {
        workers: 4,
        ..Config::default()
    });
    let addr = server.local_addr();

    // All clients connect first, then fire the same cold request at
    // once.  The workload runs ~1s, so every request is in flight
    // long before the single engine run completes: one leader, N-1
    // coalesced followers, no cache involvement.
    const N: usize = 8;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|_| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                c.eval("worst:d=2,n=24", "cascade:w=1", Some(30_000))
                    .unwrap()
            })
        })
        .collect();
    let replies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut coalesced = 0;
    let mut values = std::collections::HashSet::new();
    for r in &replies {
        assert!(r.ok, "{:?}", r.error);
        assert!(!r.cached(), "burst arrived before anything was cached");
        values.insert(r.value().unwrap());
        if r.coalesced() {
            coalesced += 1;
        }
    }
    assert_eq!(values.len(), 1, "every waiter got the same result");
    assert_eq!(coalesced, N - 1, "all but the leader coalesced");

    let mut client = Client::connect(addr).unwrap();
    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(
        stats.u64("evaluated"),
        1,
        "exactly one engine run for the burst"
    );
    assert_eq!(stats.u64("coalesced_hits"), (N - 1) as u64);
    assert_eq!(stats.u64("cache_hits"), 0);
    assert_eq!(stats.u64("cache_misses"), N as u64);
    assert_eq!(stats.u64("ok"), N as u64);
}

#[test]
fn pipelined_connection_replies_out_of_order_with_id_echo() {
    let server = start(Config {
        workers: 2,
        ..Config::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Two requests on one connection without reading in between: a
    // slow one that will time out, then a fast one.  The fast reply
    // must overtake the slow request's timeout.
    let slow = Request {
        id: Some("slow".into()),
        op: gt_serve::Op::Eval,
        spec: Some("worst:d=2,n=32".into()),
        algo: Some("cascade:w=1".into()),
        deadline_ms: Some(600),
        ..Default::default()
    };
    let fast = Request {
        id: Some("fast".into()),
        op: gt_serve::Op::Eval,
        spec: Some("worst:d=2,n=6".into()),
        algo: Some("seq-solve".into()),
        deadline_ms: Some(5_000),
        ..Default::default()
    };
    client.write_request(&slow).unwrap();
    client.write_request(&fast).unwrap();

    let first = client.read_response().unwrap();
    assert_eq!(
        first.id.as_deref(),
        Some("fast"),
        "fast reply must not wait behind the slow request"
    );
    assert!(first.ok, "{:?}", first.error);
    let second = client.read_response().unwrap();
    assert_eq!(second.id.as_deref(), Some("slow"));
    assert_eq!(second.status, 408);

    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("ok"), 1);
    assert_eq!(stats.u64("timeout"), 1);
}

#[test]
fn repeated_requests_hit_the_cache() {
    let server = start(Config::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let first = client
        .eval("crit:d=2,n=8,seed=5", "round:w=2", None)
        .unwrap();
    assert!(first.ok && !first.cached());

    // Same workload, textually different spec: canonicalization folds
    // it onto the same cache entry.
    let second = client
        .eval("crit: n=8 ,d=2,seed=5", "round:w=2", None)
        .unwrap();
    assert!(second.ok);
    assert!(second.cached(), "expected a cache hit");
    assert_eq!(second.value(), first.value());

    // A different algorithm is a different key.
    let third = client
        .eval("crit:d=2,n=8,seed=5", "cascade:w=2", None)
        .unwrap();
    assert!(third.ok && !third.cached());
    assert_eq!(third.value(), first.value());

    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("cache_hits"), 1);
    assert_eq!(stats.u64("cache_misses"), 2);
    assert_eq!(stats.u64("evaluated"), 2);
}

#[test]
fn stats_request_reflects_traffic() {
    let server = start(Config::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.eval("worst:d=2,n=4", "seq-solve", None).unwrap();
    client.eval("worst:d=2,n=4", "seq-solve", None).unwrap();
    let _ = client.send_line("garbage");

    let r = client.stats().unwrap();
    assert!(r.ok);
    let stats = r.body.get("stats").expect("stats object");
    let field = |k: &str| stats.get(k).and_then(gt_analysis::Json::as_u64).unwrap();
    assert_eq!(field("ok"), 2);
    assert_eq!(field("cache_hits"), 1);
    assert_eq!(field("bad_request"), 1);
    assert_eq!(field("latency_count"), 2);
    assert!(stats.get("latency_p50_us").is_some());

    client.shutdown_server().unwrap();
    server.join();
}

#[test]
fn stage_accounting_sums_to_end_to_end_latency() {
    // The tracing acceptance bar: on loopback, for cold evals, the
    // stage means must account for the e2e mean —
    // queue_wait + engine + write ≈ latency, within 15%.
    let server = start(Config {
        workers: 2,
        cache_capacity: 0, // all cold: the e2e histogram sees only dispatched evals
        ..Config::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Distinct seeds keep every request cold; n=16 makes the engine
    // stage dominate scheduling noise (65k leaves each).
    for seed in 0..8 {
        let spec = format!("worst:d=2,n=16,seed={seed}");
        let r = client.eval(&spec, "seq-solve", None).unwrap();
        assert!(r.ok, "{:?}", r.error);
    }

    let r = client.stats().unwrap();
    let stats = r.body.get("stats").expect("stats object");
    let e2e_mean = stats
        .get("latency_mean_us")
        .and_then(gt_analysis::Json::as_f64)
        .expect("e2e latency mean");
    let stages = stats
        .get("stages")
        .and_then(|s| s.get("seq-solve"))
        .expect("seq-solve stage snapshot");
    let stage_mean = |name: &str| {
        stages
            .get(name)
            .and_then(|h| h.get("mean_us"))
            .and_then(gt_analysis::Json::as_f64)
            .unwrap_or_else(|| panic!("stage {name} has no mean"))
    };
    let sum = stage_mean("queue_wait") + stage_mean("engine") + stage_mean("write");
    let ratio = sum / e2e_mean;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "stage sum {sum:.0}us vs e2e mean {e2e_mean:.0}us (ratio {ratio:.3})"
    );

    // The engine work counters made it out of the engines and into the
    // per-algorithm aggregates: 8 runs × 65536 leaves.
    let work = stages.get("work").expect("work aggregates");
    let counter = |k: &str| work.get(k).and_then(gt_analysis::Json::as_u64).unwrap();
    assert_eq!(counter("evals"), 8);
    assert_eq!(counter("leaves"), 8 * 65_536);
    assert_eq!(counter("max_width"), 1);

    client.shutdown_server().unwrap();
    server.join();
}

#[test]
fn trace_op_returns_stamped_traces_and_retains_failures() {
    let server = start(Config {
        workers: 1,
        trace_ring: 32,
        slow_us: 1_000_000,
        ..Config::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A cold eval, a cache hit, and a timeout.
    let r = client.eval("worst:d=2,n=6", "seq-solve", None).unwrap();
    assert!(r.ok);
    let r = client.eval("worst:d=2,n=6", "seq-solve", None).unwrap();
    assert!(r.ok && r.cached());
    let r = client
        .eval("worst:d=2,n=32", "cascade:w=1", Some(100))
        .unwrap();
    assert_eq!(r.status, 408);

    let r = client
        .send(&Request {
            id: Some("t".into()),
            op: gt_serve::Op::Trace,
            n: Some(16),
            ..Default::default()
        })
        .unwrap();
    assert!(r.ok, "{:?}", r.error);
    let traces = r
        .body
        .get("traces")
        .and_then(gt_analysis::Json::as_array)
        .expect("traces array");
    assert!(traces.len() >= 3, "got {} traces", traces.len());

    // Every entry round-trips through the published record shape.
    let parsed: Vec<gt_serve::TraceRecord> = traces
        .iter()
        .map(|t| gt_serve::TraceRecord::from_json(t).expect("parse trace"))
        .collect();

    let cold = parsed
        .iter()
        .find(|t| t.status == "ok" && !t.cached)
        .expect("cold ok trace");
    assert_eq!(cold.algo, "seq-solve");
    // The full timeline was stamped, in order.
    let enq = cold.enqueue_us.expect("enqueue stamp");
    let dis = cold.dispatch_us.expect("dispatch stamp");
    let es = cold.engine_start_us.expect("engine start stamp");
    let ee = cold.engine_end_us.expect("engine end stamp");
    assert!(cold.parse_us <= cold.probe_us && cold.probe_us <= enq);
    assert!(enq <= dis && dis <= es && es <= ee && ee <= cold.latency_us);
    assert_eq!(cold.work.as_ref().map(|w| w.work), Some(64));

    let hit = parsed.iter().find(|t| t.cached).expect("cache-hit trace");
    assert_eq!(hit.status, "ok");
    assert_eq!(hit.dispatch_us, None, "hits never reach the executor");

    let timed_out = parsed
        .iter()
        .find(|t| t.status == "timeout")
        .expect("timeout trace retained");
    assert_eq!(timed_out.algo, "cascade");

    client.shutdown_server().unwrap();
    server.join();
}

#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let server = start(Config {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..Config::default()
    });
    let metrics_addr = server
        .metrics_listener_addr()
        .expect("metrics listener bound");
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.eval("worst:d=2,n=6", "cascade:w=2", None).unwrap();

    let scrape = |path: &str| {
        let mut s = TcpStream::connect(metrics_addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut body = String::new();
        use std::io::Read as _;
        s.read_to_string(&mut body).unwrap();
        body
    };
    let first = scrape("/metrics");
    assert!(first.starts_with("HTTP/1.1 200 OK\r\n"));
    assert!(first.contains("text/plain; version=0.0.4"));
    assert!(first.contains("# TYPE gtserve_requests_total counter"));
    assert!(first.contains("# TYPE gtserve_latency_seconds histogram"));
    assert!(
        first.contains("gtserve_stage_latency_seconds_bucket{algo=\"cascade\",stage=\"engine\"")
    );
    assert!(first.contains("gtserve_engine_work_total{algo=\"cascade\",counter=\"leaves\"} "));
    assert!(first.contains("gtserve_cache_shard_entries{shard=\"0\"}"));
    assert!(first.contains("gtserve_executor_queued"));
    assert!(first.contains("gtserve_build_info{version="));

    let requests_total = |body: &str| -> u64 {
        body.lines()
            .find(|l| l.starts_with("gtserve_requests_total "))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .expect("gtserve_requests_total sample")
    };
    let before = requests_total(&first);
    client.eval("worst:d=2,n=6", "cascade:w=2", None).unwrap();
    let second = scrape("/metrics");
    assert!(
        requests_total(&second) > before,
        "counters must be monotone across scrapes"
    );

    client.shutdown_server().unwrap();
    server.join();
    // join() tears the listener down with the rest of the server.
    assert!(TcpStream::connect(metrics_addr).is_err() || scrape_is_dead(metrics_addr));
}

/// A scraper that dribbles its request head holds up no other scrape:
/// while one sends a byte of a head that never ends every 400 ms for
/// 3 s, a second scrape is answered within 1 s, and the dribbler is
/// closed once its head's 500 ms deadline passes.
#[test]
fn a_dribbling_scraper_delays_no_other_scrape() {
    use std::io::Read as _;
    let server = start(Config {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..Config::default()
    });
    let metrics_addr = server.metrics_listener_addr().unwrap();
    let dribbler = TcpStream::connect(metrics_addr).unwrap();
    let opened = Instant::now();
    let mut dribble_reader = dribbler.try_clone().unwrap();
    dribble_reader
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let drip = std::thread::spawn(move || {
        let mut dribbler = dribbler;
        for byte in b"GET /met" {
            if dribbler.write_all(&[*byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(400));
        }
    });
    // The dribbler's close, seen from its read side: EOF or a reset.
    let closed = std::thread::spawn(move || {
        let _ = dribble_reader.read_to_end(&mut Vec::new());
        opened.elapsed()
    });

    std::thread::sleep(Duration::from_millis(100));
    let asked = Instant::now();
    let mut scrape = TcpStream::connect(metrics_addr).unwrap();
    scrape
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(scrape, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut reply = String::new();
    let _ = scrape.read_to_string(&mut reply);
    let waited = asked.elapsed();
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    assert!(reply.contains("gtserve_requests_total"), "{reply}");
    assert!(
        waited < Duration::from_secs(1),
        "a scrape waited {waited:?} behind a dribbling one"
    );

    let closed_after = closed.join().unwrap();
    assert!(
        (Duration::from_millis(450)..Duration::from_secs(3)).contains(&closed_after),
        "the dribbler was closed {closed_after:?} after it connected"
    );
    drip.join().unwrap();
    server.request_shutdown();
    server.join();
}

/// After shutdown the metrics port may still accept briefly on some
/// platforms; a dead listener never answers.
fn scrape_is_dead(addr: std::net::SocketAddr) -> bool {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return true;
    };
    let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
    let mut buf = [0u8; 1];
    use std::io::Read as _;
    !matches!(s.read(&mut buf), Ok(n) if n > 0)
}

/// Threads in this process, from the kernel's point of view.  Linux
/// only — exactly where the regression matters for the benchmarks.
#[cfg(target_os = "linux")]
fn process_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Regression test for the unbounded-thread model this service started
/// with: every cache miss used to get a detached `thread::spawn`, so a
/// cold storm of distinct keys meant one OS thread per in-flight
/// request.  With the connection loop and the shared executor the
/// census is fixed — the `io_threads` loop threads, which also fire
/// every deadline, and `workers` eval threads — no matter how many
/// connections are open or misses queued.
#[cfg(target_os = "linux")]
#[test]
fn cold_storm_keeps_a_fixed_thread_census() {
    const CONNS: usize = 32;
    const PER_CONN: usize = 4;

    let before = process_thread_count();
    let server = start(Config {
        workers: 2,
        queue_depth: 256,
        cache_capacity: 0,
        ..Config::default()
    });
    let addr = server.local_addr();

    // Pipeline distinct-key slow evals on every connection without
    // reading replies: 128 cold misses in flight at once.  Each spec
    // carries a unique (ignored-by-worst) seed so canonicalization
    // cannot fold them together.
    let conns: Vec<TcpStream> = (0..CONNS)
        .map(|c| {
            let s = TcpStream::connect(addr).unwrap();
            let mut w = s.try_clone().unwrap();
            for i in 0..PER_CONN {
                let salt = c * PER_CONN + i;
                writeln!(
                    w,
                    r#"{{"spec":"worst:d=2,n=26,seed={salt}","algo":"cascade:w=1","deadline_ms":2000}}"#
                )
                .unwrap();
            }
            w.flush().unwrap();
            s
        })
        .collect();

    // Give the readers time to dispatch everything into the executor.
    std::thread::sleep(Duration::from_millis(300));
    let during = process_thread_count();
    let spawned = during.saturating_sub(before);

    // Budget: what the thread-per-connection model before the loop
    // ran (an acceptor, one reader per connection, 2 eval workers and a
    // deadline thread), plus generous slack for the *other* e2e tests
    // sharing this process under the parallel test harness.  The old
    // per-miss model would spawn 128 eval threads on top of the readers
    // and sit well past 160.
    let budget = CONNS + 2 + 2 + 64;
    assert!(
        spawned <= budget,
        "thread census grew by {spawned} (budget {budget}): \
         eval concurrency is no longer bounded by the worker pool"
    );

    // Closing the sockets lets the loop drain; queued jobs resolve via
    // their deadline timers at 2s.
    drop(conns);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("ok"), 0);
    assert!(
        stats.u64("timeout") + stats.u64("shed") >= (CONNS * PER_CONN) as u64,
        "every in-flight miss must resolve: timeout={} shed={}",
        stats.u64("timeout"),
        stats.u64("shed")
    );
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let server = start(Config {
        workers: 2,
        ..Config::default()
    });
    let addr = server.local_addr();

    // A request slow enough to still be running when shutdown lands,
    // but with a deadline so the test is bounded either way.
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.eval("worst:d=2,n=24", "cascade:w=2", Some(10_000))
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(addr).unwrap();
    let r = client.shutdown_server().unwrap();
    assert!(r.ok);
    assert_eq!(
        r.body.get("draining").and_then(gt_analysis::Json::as_bool),
        Some(true)
    );

    // The in-flight eval completes (drain, not abort).
    let reply = worker.join().unwrap();
    assert!(reply.ok, "in-flight eval was dropped: {:?}", reply.error);

    let stats = server.join();
    assert_eq!(stats.u64("ok"), 1);

    // The listener is gone: new connections fail (or die immediately).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(s) => {
            let mut r = BufReader::new(s);
            let mut line = String::new();
            assert_eq!(r.read_line(&mut line).unwrap_or(0), 0);
        }
    }
}

#[test]
fn deadline_stops_every_thread_of_a_forked_eval() {
    // One eval worker: the follow-up eval below can start only once
    // every arm of the cancelled one has returned.
    let server = start(Config {
        workers: 1,
        ..Config::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 2^30 leaves in worst ordering: alpha-beta prunes nothing, so
    // cascade cannot finish inside 100ms.  The root's children sit far
    // above the fork grain, so the eval forks onto the pool.  The
    // deadline timer flips the flight's one cancel flag; every arm
    // polls it and aborts.
    let started = Instant::now();
    let r = client
        .eval("minmax-worst:d=2,n=30,seed=1", "cascade:w=1", Some(100))
        .unwrap();
    let elapsed = started.elapsed();
    assert!(!r.ok);
    assert_eq!(r.status, 408);
    assert_eq!(r.code.as_deref(), Some("timeout"));
    assert!(
        elapsed < Duration::from_secs(5),
        "timeout reply took {elapsed:?}"
    );

    // Every arm stopped: a fresh forking eval gets the worker well
    // inside its deadline (an arm that ran on would hold it for
    // seconds) and agrees with the sequential engine.
    let spec = "minmax:d=4,n=8,lo=-9,hi=9,seed=3";
    let par = client.eval(spec, "cascade:w=1", Some(1_000)).unwrap();
    assert!(par.ok, "pool wedged after cancel: {:?}", par.error);
    let seq = client.eval(spec, "alphabeta", Some(5_000)).unwrap();
    assert!(seq.ok);
    assert_eq!(par.value(), seq.value());

    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("timeout"), 1);
    assert_eq!(stats.u64("ok"), 2);
}

/// Wait (bounded) until reads on `s` report EOF or a hard error,
/// discarding any buffered replies along the way.
fn wait_for_close(s: &TcpStream, bound: Duration) -> bool {
    use std::io::Read;
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 4096];
    while started.elapsed() < bound {
        match (&mut (&*s)).read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return true,
        }
    }
    false
}

/// Slowloris, read side: a client that dribbles bytes of a request
/// line it never finishes must not hold a connection (or its pooled
/// buffers) forever — `--conn-idle-timeout` closes it, because only a
/// *completed* request line refreshes the idle clock.
#[test]
fn dribbling_slowloris_is_closed_at_the_idle_timeout() {
    let server = start(Config {
        conn_idle_timeout_ms: Some(250),
        ..Config::default()
    });
    let addr = server.local_addr();

    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
    let mut w = s.try_clone().unwrap();
    let started = Instant::now();
    let mut closed = false;
    // One byte of an unfinished line every 50ms, forever (bounded).
    while started.elapsed() < Duration::from_secs(5) {
        use std::io::Read;
        if w.write_all(b"{").is_err() || w.flush().is_err() {
            closed = true;
            break;
        }
        let mut buf = [0u8; 64];
        match (&mut (&s)).read(&mut buf) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                closed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(closed, "dribbler outlived the idle timeout");

    // A well-behaved client on the same server is untouched.
    let mut client = Client::connect(addr).unwrap();
    let r = client.eval("worst:d=2,n=4", "seq-solve", None).unwrap();
    assert!(r.ok);
    client.shutdown_server().unwrap();
    let stats = server.join();
    assert!(
        stats.u64("idle_closed") >= 1,
        "idle_closed = {}",
        stats.u64("idle_closed")
    );
    assert_eq!(stats.u64("open_conns"), 0);
}

/// Slowloris, write side: a client that floods requests but never
/// drains its replies stalls against the outbound-queue bound (the
/// server defers its reads at the high-water mark rather than
/// buffering without limit) and is eventually reaped by the idle
/// timeout since no further request line completes.
#[test]
fn never_draining_reader_is_bounded_and_reaped() {
    let server = start(Config {
        workers: 2,
        conn_idle_timeout_ms: Some(300),
        ..Config::default()
    });
    let addr = server.local_addr();

    // Prime the cache so every flooded request gets an inline reply.
    let mut client = Client::connect(addr).unwrap();
    let r = client.eval("worst:d=2,n=6", "seq-solve", None).unwrap();
    assert!(r.ok);

    // Flood ~20k cached requests and never read a single reply.  The
    // write side is bounded: once the server parks the connection the
    // flood must block (write timeout) or fail, not grow server
    // memory.
    let s = TcpStream::connect(addr).unwrap();
    s.set_write_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut w = s.try_clone().unwrap();
    let line = br#"{"spec":"worst:d=2,n=6","algo":"seq-solve"}"#;
    let mut frame = line.to_vec();
    frame.push(b'\n');
    let mut sent = 0usize;
    for _ in 0..20_000 {
        match w.write_all(&frame) {
            Ok(()) => sent += 1,
            Err(_) => break,
        }
    }
    assert!(sent > 0);

    // The connection dies: outbox overflow or (once reads are
    // deferred and no line completes) the idle sweep.
    assert!(
        wait_for_close(&s, Duration::from_secs(10)),
        "never-draining reader survived ({sent} requests sent)"
    );

    // The server is fine: same cached key answers on a fresh conn
    // (the priming client may itself have been idle-reaped while the
    // flood sat out its timeout).
    let mut fresh = Client::connect(addr).unwrap();
    let r = fresh.eval("worst:d=2,n=6", "seq-solve", None).unwrap();
    assert!(r.ok && r.cached());
    fresh.shutdown_server().unwrap();
    let stats = server.join();
    assert!(
        stats.u64("idle_closed") + stats.u64("overflow_closed") >= 1,
        "idle_closed={} overflow_closed={}",
        stats.u64("idle_closed"),
        stats.u64("overflow_closed")
    );
    assert_eq!(stats.u64("open_conns"), 0);
}

/// The connection state machine over real sockets: a request split
/// across many TCP segments and a batch of pipelined requests landing
/// in one segment parse identically, and an over-long line gets a 400
/// and the connection is closed.
#[test]
fn split_and_batched_request_framing_parse_identically() {
    let server = start(Config::default());
    let addr = server.local_addr();

    // One request dribbled in three segments.
    let s = TcpStream::connect(addr).unwrap();
    let mut w = s.try_clone().unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    for chunk in [
        r#"{"id":"split","spec":"wor"#.as_bytes(),
        r#"st:d=2,n=4","algo":"#.as_bytes(),
        "\"seq-solve\"}\n".as_bytes(),
    ] {
        w.write_all(chunk).unwrap();
        w.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let r = gt_serve::Response::parse(line.trim()).unwrap();
    assert!(r.ok, "split request failed: {:?}", r.error);
    assert_eq!(r.id.as_deref(), Some("split"));

    // Three requests in one write (and likely one segment).
    let mut batch = String::new();
    for i in 0..3 {
        batch.push_str(&format!(
            r#"{{"id":"b{i}","spec":"worst:d=2,n=4","algo":"seq-solve"}}"#
        ));
        batch.push('\n');
    }
    w.write_all(batch.as_bytes()).unwrap();
    w.flush().unwrap();
    let mut got: Vec<String> = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r = gt_serve::Response::parse(line.trim()).unwrap();
        assert!(r.ok);
        got.push(r.id.unwrap());
    }
    got.sort();
    assert_eq!(got, vec!["b0", "b1", "b2"]);

    // An over-long line: 400 reply, then the connection is closed.
    let huge = format!(r#"{{"id":"big","spec":"{}"}}"#, "x".repeat(70 * 1024));
    w.write_all(huge.as_bytes()).unwrap();
    w.write_all(b"\n").unwrap();
    w.flush().unwrap();
    let mut line = String::new();
    if reader.read_line(&mut line).unwrap() > 0 {
        let r = gt_serve::Response::parse(line.trim()).unwrap();
        assert!(!r.ok);
        assert_eq!(r.status, 400);
    }
    assert!(wait_for_close(&s, Duration::from_secs(5)));

    let mut client = Client::connect(addr).unwrap();
    client.shutdown_server().unwrap();
    let stats = server.join();
    assert_eq!(stats.u64("ok"), 4);
    assert!(stats.u64("overlong_closed") >= 1);
}

/// Graceful drain with a request line half-written: the drain must
/// not wait for the missing half — in-flight (complete) requests are
/// answered, the partial line is abandoned, and join() returns.
#[test]
fn graceful_drain_abandons_a_partial_request_line() {
    let server = start(Config {
        workers: 2,
        ..Config::default()
    });
    let addr = server.local_addr();

    let s = TcpStream::connect(addr).unwrap();
    let mut w = s.try_clone().unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());

    // One complete request (answered), then half of a second one.
    w.write_all(b"{\"id\":\"done\",\"spec\":\"worst:d=2,n=4\",\"algo\":\"seq-solve\"}\n")
        .unwrap();
    w.write_all(b"{\"id\":\"half\",\"spec\":\"worst").unwrap();
    w.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let r = gt_serve::Response::parse(line.trim()).unwrap();
    assert!(r.ok);
    assert_eq!(r.id.as_deref(), Some("done"));

    let mut client = Client::connect(addr).unwrap();
    let r = client.shutdown_server().unwrap();
    assert!(r.ok);

    // The half-written request is dropped with the connection; the
    // server does not hang waiting for its newline.
    assert!(
        wait_for_close(&s, Duration::from_secs(5)),
        "drain stalled on a partial request line"
    );
    let stats = server.join();
    assert_eq!(stats.u64("ok"), 1);
    assert_eq!(stats.u64("open_conns"), 0);
}
