//! End-to-end tests for scatter-gather split evaluation: a real
//! router splitting real evals across real (and deliberately dying)
//! replicas over loopback TCP, checked against the sequential
//! evaluator.

use gt_analysis::Json;
use gt_router::{Router, RouterConfig, SplitConfig};
use gt_serve::protocol::{ok_line, Request};
use gt_serve::workload::validate_subeval;
use gt_serve::{Client, Config, Server};
use gt_tree::split::{sub_evaluate, SubtreeSpec};
use gt_tree::GenSpec;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start_replica() -> Server {
    Server::start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..Config::default()
    })
    .expect("replica start")
}

/// The kernel's ephemeral port range: `:0` binds and the source ports
/// of outgoing connects are taken from it.  Off Linux, a range that
/// covers both Linux's default and the IANA one.
fn ephemeral_range() -> (u16, u16) {
    let text = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range");
    let bounds: Vec<u16> = text
        .iter()
        .flat_map(|t| t.split_whitespace())
        .map(|n| n.parse().expect("a port number"))
        .collect();
    match bounds[..] {
        [lo, hi] => (lo, hi),
        _ => (32768, 65535),
    }
}

/// A loopback address nothing listens on, whose port lies below the
/// ephemeral range, so no `:0` bind and no connect's source port in
/// this process can take it while a test leaves it unbound.  Ports are
/// handed out downwards from the range's start, each once per process.
fn unbound_addr() -> SocketAddr {
    static NEXT: Mutex<Option<u16>> = Mutex::new(None);
    let (lo, hi) = ephemeral_range();
    let mut next = NEXT.lock().unwrap();
    let mut port = next.unwrap_or(lo);
    loop {
        port = port
            .checked_sub(1)
            .filter(|&p| p >= 1024)
            .expect("no free port below the ephemeral range");
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        // Free now; the probe listener closes at once.
        if TcpListener::bind(addr).is_ok() {
            assert!(!(lo..=hi).contains(&port), "{port} is ephemeral");
            *next = Some(port);
            return addr;
        }
    }
}

fn sequential_value(spec: &str) -> i64 {
    sub_evaluate(&SubtreeSpec::whole(GenSpec::parse(spec).unwrap()))
        .unwrap()
        .value
}

/// How a stub replica treats the subevals it is sent.  Every stub
/// answers health probes, so the router keeps routing at it.
#[derive(Clone, Copy)]
enum Stub {
    /// Slam the connection shut the moment a subeval arrives: the
    /// transport-death flavour of a replica crash, as seen by the
    /// router's connection to it.
    Die,
    /// Read every subeval and never answer: a wedged replica.
    Swallow,
    /// Answer every subeval with the sequential reference, but hold
    /// the replies for the root's children (depth-1 paths) until
    /// `deeper` subevals further down have been answered.
    HoldRootChildren { deeper: usize },
}

fn start_stub(mode: Stub) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    listener.set_nonblocking(true).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !stop2.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let stop3 = Arc::clone(&stop2);
                    conns.push(std::thread::spawn(move || stub_conn(stream, stop3, mode)));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        for c in conns {
            let _ = c.join();
        }
    });
    (addr, stop, handle)
}

/// The stub's reply to one subeval line, and the depth of its path.
fn answer_subeval(line: &str) -> (usize, String) {
    let req = Request::parse(line).unwrap();
    let sub = validate_subeval(
        req.spec.as_deref().unwrap_or(""),
        req.path.as_deref().unwrap_or(""),
        req.alpha,
        req.beta,
    )
    .unwrap()
    .sub;
    let st = sub_evaluate(&sub).unwrap();
    let work = Json::obj([("leaves", Json::from(st.leaves_evaluated))]);
    let reply = ok_line(
        &req.id,
        vec![("value", Json::from(st.value)), ("work", work)],
    );
    (sub.path.len(), format!("{reply}\n"))
}

fn stub_conn(stream: TcpStream, stop: Arc<AtomicBool>, mode: Stub) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let (mut held, mut answered_deeper) = (Vec::new(), 0);
    while !stop.load(Ordering::SeqCst) {
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                if line.contains("\"health\"") {
                    let _ = writer.write_all(
                        b"{\"ok\":true,\"uptime_s\":1,\"queued\":0,\"inflight\":0,\"draining\":false}\n",
                    );
                } else {
                    match mode {
                        Stub::Die => return,
                        Stub::Swallow => {}
                        Stub::HoldRootChildren { deeper } => {
                            let (depth, reply) = answer_subeval(line.trim());
                            if depth == 1 && answered_deeper < deeper {
                                held.push(reply);
                            } else {
                                let _ = writer.write_all(reply.as_bytes());
                                if depth > 1 {
                                    answered_deeper += 1;
                                }
                                if answered_deeper == deeper {
                                    for r in held.drain(..) {
                                        let _ = writer.write_all(r.as_bytes());
                                    }
                                }
                            }
                        }
                    }
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

#[test]
fn distributed_split_matches_sequential_across_three_replicas() {
    let replicas: Vec<Server> = (0..3).map(|_| start_replica()).collect();
    let router = Router::start(RouterConfig {
        replicas: replicas
            .iter()
            .map(|r| r.local_addr().to_string())
            .collect(),
        split: SplitConfig {
            cost_threshold: Some(16),
            ..SplitConfig::default()
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();

    // Both fold disciplines: NOR short-circuit solve and windowed α-β.
    let specs = [
        "worst:d=2,n=10",
        "crit:d=3,n=6,seed=2",
        "allones:d=3,n=6",
        "minmax:d=3,n=7,seed=4",
        "minmax-best:d=3,n=7,value=5",
        "minmax-worst:d=2,n=8",
    ];
    for spec in specs {
        let expected = sequential_value(spec);
        let reply = client.eval(spec, "cascade:w=1", None).unwrap();
        assert!(reply.ok, "{spec}: {reply:?}");
        assert_eq!(reply.value(), Some(expected), "{spec}");
        assert!(
            reply.body.get("split").is_some(),
            "{spec} should have split across the fleet: {reply:?}"
        );
    }

    let snap = router.join();
    assert_eq!(snap.u64("splits_total"), specs.len() as u64, "{snap:?}");
    assert!(
        snap.u64("subevals_dispatched") >= 2 * specs.len() as u64,
        "{snap:?}"
    );
    // Fan-out reached more than one replica.
    let rows = snap.get("replicas").and_then(Json::as_array).unwrap();
    let sent = |r: &Json| r.get("sent").and_then(Json::as_u64).unwrap();
    let used = rows.iter().filter(|r| sent(r) > 0).count();
    assert!(used >= 2, "split work stayed on {used} replica(s)");
    for server in replicas {
        server.request_shutdown();
        server.join();
    }
}

#[test]
fn split_survives_a_replica_dying_mid_eval() {
    let live: Vec<Server> = (0..2).map(|_| start_replica()).collect();
    let (dying_addr, dying_stop, dying_handle) = start_stub(Stub::Die);
    let mut addrs: Vec<String> = live.iter().map(|r| r.local_addr().to_string()).collect();
    addrs.push(dying_addr.to_string());
    let router = Router::start(RouterConfig {
        replicas: addrs,
        split: SplitConfig {
            cost_threshold: Some(16),
            ..SplitConfig::default()
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();

    // Across this many plans, rendezvous hashing is all but certain to
    // route some subevals at the dying replica; every one of them must
    // be transparently re-dispatched to a live replica.
    for seed in 0..12 {
        let spec = format!("minmax:d=3,n=7,seed={seed}");
        let expected = sequential_value(&spec);
        let reply = client.eval(&spec, "cascade:w=1", None).unwrap();
        assert!(reply.ok, "{spec}: {reply:?}");
        assert_eq!(reply.value(), Some(expected), "{spec}");
    }

    let snap = router.join();
    assert!(
        snap.u64("subevals_retried") > 0,
        "no subeval ever hit the dying replica: {snap:?}"
    );
    dying_stop.store(true, Ordering::SeqCst);
    let _ = dying_handle.join();
    for server in live {
        server.request_shutdown();
        server.join();
    }
}

#[test]
fn naive_split_discards_in_flight_losers_without_aborting() {
    // allones:d=4,n=6 under a naive three-level plan stages all 10
    // subevals at once: the root's 3 younger children, then 3 + 4 below
    // the eldest chain.  NOR values alternate with height parity, so
    // the first level-1 reply (a 1) cuts its level.  The stub holds the
    // root's children until all 7 deeper subevals are answered, so the
    // root cannot settle before every subeval is on the wire, and the
    // cut lands while the cut level's siblings are still out: they keep
    // running (no abort is ever sent) and their replies are discarded
    // on arrival.
    const STAGED: u64 = 10;
    let (stub, stub_stop, stub_handle) = start_stub(Stub::HoldRootChildren { deeper: 7 });
    let router = Router::start(RouterConfig {
        replicas: vec![stub.to_string()],
        split: SplitConfig {
            cost_threshold: Some(8),
            naive: true,
            max_depth: 3,
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();

    let reply = client.eval("allones:d=4,n=6", "cascade:w=1", None).unwrap();
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.value(), Some(1));
    let absorbed = reply
        .body
        .get("split")
        .and_then(|s| s.get("subevals"))
        .and_then(Json::as_u64)
        .expect("split.subevals");

    let snap = router.join();
    assert_eq!(snap.u64("subevals_dispatched"), STAGED, "{snap:?}");
    assert!(snap.u64("subevals_discarded_on_cutoff") > 0, "{snap:?}");
    assert_eq!(
        snap.u64("subevals_skipped_on_cutoff"),
        0,
        "naive never skips"
    );
    assert_eq!(
        absorbed
            + snap.u64("subevals_discarded_on_cutoff")
            + snap.u64("subevals_skipped_on_cutoff"),
        STAGED,
        "each staged subeval must end absorbed, discarded or skipped: \
         absorbed={absorbed} {snap:?}"
    );
    stub_stop.store(true, Ordering::SeqCst);
    let _ = stub_handle.join();
}

#[test]
fn split_eval_against_a_silent_fleet_expires_once_after_its_deadline() {
    let (stub, stub_stop, stub_handle) = start_stub(Stub::Swallow);
    let router = Router::start(RouterConfig {
        replicas: vec![stub.to_string()],
        split: SplitConfig {
            cost_threshold: Some(16),
            ..SplitConfig::default()
        },
        ..RouterConfig::default()
    })
    .unwrap();
    // The client runs on its own thread, so a plan that is never
    // answered fails the test instead of hanging it.
    let addr = router.local_addr();
    let (tx, rx) = std::sync::mpsc::channel();
    let asker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let start = Instant::now();
        let reply = client
            .eval("minmax:d=3,n=6,seed=1", "cascade:w=1", Some(200))
            .unwrap();
        let waited = start.elapsed();
        // Exactly one reply: well past the expiry, the next line on
        // the connection still answers the next request.
        std::thread::sleep(Duration::from_millis(300));
        let ping = client.ping().unwrap();
        tx.send((reply, waited, ping)).unwrap();
    });
    let (reply, waited, ping) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the split eval was never answered");
    asker.join().unwrap();
    let deadline = Duration::from_millis(200);
    assert_eq!(reply.status, 408, "{reply:?}");
    assert!(waited >= deadline, "expired early, after {waited:?}");
    assert!(
        waited < deadline + Duration::from_secs(1),
        "local expiry must fire shortly after the deadline, not {waited:?}"
    );
    assert_eq!(
        ping.body.get("role").and_then(Json::as_str),
        Some("router"),
        "{ping:?}"
    );
    let snap = router.join();
    assert_eq!(snap.u64("splits_total"), 1, "{snap:?}");
    assert_eq!(snap.u64("expired"), 1, "{snap:?}");
    stub_stop.store(true, Ordering::SeqCst);
    let _ = stub_handle.join();
}

#[test]
fn windowed_split_does_less_fleet_work_than_naive() {
    // A best-ordered minmax tree is maximally α-β friendly: the
    // eldest-first plan's narrowed windows prune inside every sibling
    // subeval, while the naive plan evaluates each subtree under the
    // full window.  Fresh fleets per mode so caches cannot cross-feed.
    let spec = "minmax-best:d=3,n=7,value=9";
    let mut work = Vec::new();
    for naive in [false, true] {
        let router = Router::start(RouterConfig {
            spawn: 3,
            split: SplitConfig {
                cost_threshold: Some(27),
                naive,
                max_depth: 4,
            },
            ..RouterConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(router.local_addr()).unwrap();
        let reply = client.eval(spec, "cascade:w=1", None).unwrap();
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.value(), Some(9));
        work.push(reply.leaves().expect("work.leaves"));
        router.join();
    }
    assert!(
        work[0] < work[1],
        "windowed dispatch should beat naive: windowed={} naive={}",
        work[0],
        work[1]
    );
}

/// One subeval span's replica-side engine interval, rebased onto the
/// router's trace clock (span start + replica-relative stage offset).
struct SubSpan {
    replica: String,
    engine: Option<(u64, u64)>,
    leaves: u64,
}

fn sub_spans_of(trace: &Json) -> Vec<SubSpan> {
    let spans = match trace.get("spans") {
        Some(Json::Array(spans)) => spans,
        other => panic!("spans not an array: {other:?}"),
    };
    spans
        .iter()
        .filter(|s| {
            matches!(
                s.get("kind").and_then(Json::as_str),
                Some("subeval") | Some("redispatch")
            ) && s.get("status").and_then(Json::as_str) == Some("ok")
        })
        .map(|s| {
            let start = s.get("start_us").and_then(Json::as_u64).unwrap_or(0);
            let stages = s.get("stages");
            let stage = |key: &str| stages.and_then(|st| st.get(key)).and_then(Json::as_u64);
            SubSpan {
                replica: s
                    .get("replica")
                    .and_then(Json::as_str)
                    .expect("replica detail on a settled subeval span")
                    .to_string(),
                engine: match (stage("engine_start_us"), stage("engine_end_us")) {
                    (Some(a), Some(b)) => Some((start + a, start + b)),
                    _ => None,
                },
                leaves: s
                    .get("work")
                    .and_then(|w| w.get("leaves"))
                    .and_then(Json::as_u64)
                    .expect("work detail on a settled subeval span"),
            }
        })
        .collect()
}

#[test]
fn split_trace_shows_parallel_replica_work_that_sums_to_the_reply() {
    let router = Router::start(RouterConfig {
        spawn: 3,
        split: SplitConfig {
            // Naive dispatch of a worst-ordered tree: every sibling
            // goes out at once, no cutoff ever discards or skips, so
            // the trace's subeval spans are the complete work ledger.
            cost_threshold: Some(64),
            naive: true,
            max_depth: 2,
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();

    // A client-pinned trace context always wins over sampling, so the
    // tree is fetchable by a name the test chose.
    let spec = "minmax-worst:d=6,n=8";
    let expected = sequential_value(spec);
    let reply = client
        .send_line(&format!(
            r#"{{"op":"eval","id":"s1","spec":"{spec}","algo":"cascade:w=1","trace":{{"trace_id":"e2e-split-trace"}}}}"#
        ))
        .unwrap();
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.value(), Some(expected));
    assert!(reply.body.get("split").is_some(), "{reply:?}");
    assert_eq!(reply.trace_id(), Some("e2e-split-trace"), "{reply:?}");
    let total_leaves = reply.leaves().expect("work.leaves on the split reply");

    let fetched = client
        .send_line(r#"{"op":"trace","id":"s2","trace":{"trace_id":"e2e-split-trace"}}"#)
        .unwrap();
    assert!(fetched.ok, "{fetched:?}");
    let trace = fetched.body.get("trace").expect("trace tree");
    let subs = sub_spans_of(trace);
    assert!(
        subs.len() >= 2,
        "want >=2 subeval spans, got {}",
        subs.len()
    );

    // The work really was distributed: spans on >=2 distinct replicas.
    let replicas: std::collections::HashSet<&str> =
        subs.iter().map(|s| s.replica.as_str()).collect();
    assert!(
        replicas.len() >= 2,
        "all spans on one replica: {replicas:?}"
    );

    // The spans are the complete work ledger: their replica-reported
    // leaf counters sum to the reply's total.
    let span_leaves: u64 = subs.iter().map(|s| s.leaves).sum();
    assert_eq!(span_leaves, total_leaves);

    // And the work was concurrent: some pair of engine intervals
    // (rebased onto the router's clock) overlaps in wall time.
    let engines: Vec<(u64, u64)> = subs.iter().filter_map(|s| s.engine).collect();
    assert!(
        engines.len() >= 2,
        "engine stages missing: {}",
        engines.len()
    );
    let overlap = engines
        .iter()
        .enumerate()
        .any(|(i, a)| engines[i + 1..].iter().any(|b| a.0 < b.1 && b.0 < a.1));
    assert!(overlap, "no two engine intervals overlapped: {engines:?}");

    router.join();
}

#[test]
fn the_default_plan_splits_the_roots_children_only() {
    // Two replicas behind a split cost of 4096, as in the `split`
    // benchmark: the cost alone would let an M(4,8) chain go three
    // levels deep (10 subevals), and the default plans one level, the
    // root's 4 children.
    let replicas: Vec<Server> = (0..2).map(|_| start_replica()).collect();
    let router = Router::start(RouterConfig {
        replicas: replicas
            .iter()
            .map(|r| r.local_addr().to_string())
            .collect(),
        split: SplitConfig {
            cost_threshold: Some(4096),
            ..SplitConfig::default()
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    for seed in 0..6 {
        let spec = format!("minmax:d=4,n=8,seed={seed}");
        let reply = client.eval(&spec, "alphabeta", None).unwrap();
        assert!(reply.ok, "{spec}: {reply:?}");
        assert_eq!(reply.value(), Some(sequential_value(&spec)), "{spec}");
        let depth = reply
            .body
            .get("split")
            .and_then(|s| s.get("depth"))
            .and_then(Json::as_u64);
        assert_eq!(depth, Some(1), "{spec}: {reply:?}");
    }
    let snap = router.join();
    assert_eq!(snap.u64("splits_total"), 6, "{snap:?}");
    assert_eq!(snap.u64("subevals_dispatched"), 6 * 4, "{snap:?}");
    assert_eq!(snap.u64("split_depth"), 1, "{snap:?}");
    for server in replicas {
        server.request_shutdown();
        server.join();
    }
}

#[test]
fn a_split_eval_waits_for_a_replica_that_starts_late() {
    // A port with nothing listening on it, so the router's first
    // connect is refused and it waits out a reconnect.
    let addr = unbound_addr();
    let router = Router::start(RouterConfig {
        replicas: vec![addr.to_string()],
        split: SplitConfig {
            cost_threshold: Some(16),
            ..SplitConfig::default()
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let replica = Server::start(Config {
        addr: addr.to_string(),
        workers: 2,
        ..Config::default()
    })
    .expect("replica start on the reserved port");
    let mut client = Client::connect(router.local_addr()).unwrap();
    let spec = "minmax:d=3,n=6,seed=1";
    let reply = client.eval(spec, "cascade:w=1", None).unwrap();
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.value(), Some(sequential_value(spec)));
    assert!(reply.body.get("split").is_some(), "{reply:?}");
    router.join();
    replica.request_shutdown();
    replica.join();
}

#[test]
fn a_split_eval_against_an_ejected_fleet_is_refused_at_once() {
    // A member nothing listens on fails every probe until it is
    // ejected; a subeval then has no member worth waiting for.
    let addr = unbound_addr();
    let router = Router::start(RouterConfig {
        replicas: vec![addr.to_string()],
        probe_interval_ms: 10,
        split: SplitConfig {
            cost_threshold: Some(16),
            ..SplitConfig::default()
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    let ejected_by = Instant::now() + Duration::from_secs(10);
    loop {
        let health = client.health().unwrap();
        if health.body.get("routable").and_then(Json::as_u64) == Some(0) {
            break;
        }
        assert!(Instant::now() < ejected_by, "never ejected: {health:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let start = Instant::now();
    let reply = client
        .eval("minmax:d=3,n=6,seed=1", "cascade:w=1", Some(5_000))
        .unwrap();
    let waited = start.elapsed();
    assert_eq!(reply.status, 429, "{reply:?}");
    assert_eq!(
        reply.error.as_deref(),
        Some("no routable replica for subeval"),
        "{reply:?}"
    );
    assert!(
        waited < Duration::from_secs(1),
        "refused after {waited:?}, not at once"
    );
    let snap = router.join();
    assert_eq!(snap.u64("splits_total"), 1, "{snap:?}");
    assert_eq!(snap.u64("subevals_dispatched"), 0, "{snap:?}");
}

#[test]
fn subeval_replies_annotate_the_owning_replica() {
    let router = Router::start(RouterConfig {
        spawn: 3,
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();

    // A client-issued subeval routes by the window-free subtree key:
    // the same subtree lands on the same replica, window or no window.
    let spec = "minmax:d=3,n=6,seed=8";
    let wide = client.subeval(spec, "1", i64::MIN, i64::MAX, None).unwrap();
    assert!(wide.ok, "{wide:?}");
    let owner = wide
        .body
        .get("replica")
        .and_then(Json::as_str)
        .expect("replica annotation")
        .to_string();
    let narrow = client.subeval(spec, "1", 0, 8, None).unwrap();
    assert!(narrow.ok, "{narrow:?}");
    assert_eq!(
        narrow.body.get("replica").and_then(Json::as_str),
        Some(owner.as_str()),
        "window must not move a subtree off its replica"
    );
    router.join();
}
