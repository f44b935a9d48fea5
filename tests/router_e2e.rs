//! End-to-end tests for gt-router: a real router in front of real
//! (and deliberately broken) replicas, over loopback TCP.

use gt_analysis::Json;
use gt_router::{Router, RouterConfig};
use gt_serve::protocol::error_line_with;
use gt_serve::{Client, Config, ErrorCode, Server};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// A replica impostor: answers health probes so the router keeps
/// routing at it, but swallows every eval without replying, or with
/// `busy` answers each with a 429.  The harness for hedge, retry and
/// local-timeout behaviour.
fn start_stub(busy: bool) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<()>) {
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
                    conns.push(std::thread::spawn(move || stub_conn(stream, stop3, busy)));
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

fn stub_conn(stream: TcpStream, stop: Arc<AtomicBool>, busy: bool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while !stop.load(Ordering::SeqCst) {
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                if line.contains("\"health\"") {
                    let _ = writer.write_all(
                        b"{\"ok\":true,\"uptime_s\":1,\"queued\":0,\"inflight\":0,\"draining\":false}\n",
                    );
                } else if busy {
                    let id = Json::parse(line.trim())
                        .ok()
                        .and_then(|r| r.get("id").and_then(Json::as_str).map(str::to_string));
                    let reply = error_line_with(
                        &id,
                        ErrorCode::Busy,
                        "stub is busy",
                        vec![("retry_after_ms", Json::from(1u64))],
                    );
                    let _ = writeln!(writer, "{reply}");
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

/// A small cheap spec whose canonical key rendezvous-ranks `owner`
/// first among `addrs`.
fn spec_owned_by(addrs: &[String], owner: usize) -> String {
    for d in 2..4u32 {
        for n in 4..14u32 {
            let spec = format!("worst:d={d},n={n}");
            let key = format!("{spec}|cascade:w=1");
            if gt_router::hash::rank(&key, addrs)[0] == owner {
                return spec;
            }
        }
    }
    panic!("no cheap spec hashes to replica {owner}");
}

/// Send one request line and wait at most `limit` for its reply.
fn ask_within(stream: &TcpStream, line: &str, limit: Duration) -> Option<Json> {
    stream.set_read_timeout(Some(limit)).unwrap();
    let mut writer = stream;
    writeln!(writer, "{line}").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    Json::parse(reply.trim()).ok()
}

fn is_ok(reply: &Option<Json>) -> bool {
    reply
        .as_ref()
        .and_then(|r| r.get("ok"))
        .and_then(Json::as_bool)
        == Some(true)
}

/// Most bytes a flooding client sends: far more than a router that
/// pushes back lets through, and little enough that one which never
/// stops reading buffers all of it.
const FLOOD_CAP: usize = 64 << 20;

/// Pipeline `line` on `stream` and never read a reply, until one write
/// stalls for 200 ms or `FLOOD_CAP` bytes are out.  Returns the bytes
/// sent and whether a write stalled.
fn flood(stream: &mut TcpStream, line: &str) -> (usize, bool) {
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let chunk = format!("{line}\n").repeat(1024).into_bytes();
    let (mut sent, mut at) = (0, 0);
    while sent < FLOOD_CAP {
        match stream.write(&chunk[at..]) {
            Ok(n) => {
                sent += n;
                at = (at + n) % chunk.len();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return (sent, true);
            }
            Err(e) => panic!("flood write failed after {sent} bytes: {e}"),
        }
    }
    (sent, false)
}

fn stats_of(addr: SocketAddr) -> Json {
    let mut client = Client::connect(addr).unwrap();
    let reply = client.stats().unwrap();
    assert!(reply.ok);
    reply.body.get("stats").cloned().expect("stats body")
}

#[test]
fn control_verbs_answer_inline() {
    let router = Router::start(RouterConfig {
        spawn: 1,
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();

    let ping = client.ping().unwrap();
    assert!(ping.ok);
    assert_eq!(ping.body.get("role").and_then(Json::as_str), Some("router"));
    assert_eq!(ping.body.get("replicas").and_then(Json::as_u64), Some(1));

    let health = client.health().unwrap();
    assert!(health.ok);
    assert_eq!(health.body.get("routable").and_then(Json::as_u64), Some(1));
    assert_eq!(
        health.body.get("draining").and_then(Json::as_bool),
        Some(false)
    );

    // Tracing is on by default: a bare trace query lists recent trees
    // (none yet), and an unknown id is a 400.
    let trace = client.send_line(r#"{"op":"trace","id":"t"}"#).unwrap();
    assert!(trace.ok, "{trace:?}");
    match trace.body.get("traces") {
        Some(Json::Array(ts)) => assert!(ts.is_empty(), "no evals yet"),
        other => panic!("traces not an array: {other:?}"),
    }
    let missing = client
        .send_line(r#"{"op":"trace","id":"t2","trace":{"trace_id":"rt-nope"}}"#)
        .unwrap();
    assert!(!missing.ok);
    assert_eq!(missing.status, 400);

    let stats = client.stats().unwrap();
    assert!(stats.ok);
    let body = stats.body.get("stats").expect("stats field");
    assert!(body.get("replicas").is_some());
    assert!(body.get("retries").is_some());
    // Parity with the replica tier's stats reply.
    assert_eq!(body.get("version").and_then(Json::as_u64), Some(1));
    assert!(body.get("uptime_s").and_then(Json::as_f64).is_some());
    assert!(body.get("traces").is_some());

    // A request line over 64 KiB gets a 400, then the connection
    // closes.  The line is rejected at its 65 537th byte, and nothing
    // follows it, so the close leaves no input unread.
    let mut raw = TcpStream::connect(router.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&vec![b'x'; 64 * 1024 + 1]).unwrap();
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let reply = Json::parse(line.trim()).unwrap();
    assert_eq!(
        reply.get("status").and_then(Json::as_u64),
        Some(400),
        "{line}"
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "still open: {line}"
    );

    let snap = router.join();
    assert_eq!(snap.u64("overlong_closed"), 1);
}

#[test]
fn a_ping_flooder_that_never_reads_stalls_only_itself() {
    let router = Router::start(RouterConfig {
        spawn: 1,
        ..RouterConfig::default()
    })
    .unwrap();
    // Connections are dealt round-robin over the router's two io
    // threads: one probe lands on each, the flooder beside the first.
    let probes: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(router.local_addr()).unwrap())
        .collect();
    let mut flooder = TcpStream::connect(router.local_addr()).unwrap();
    let (sent, stalled) = flood(&mut flooder, r#"{"op":"ping"}"#);
    assert!(
        stalled,
        "the router read all {sent} bytes of an undrained flood"
    );
    for (i, probe) in probes.iter().enumerate() {
        let reply = ask_within(probe, r#"{"op":"ping"}"#, Duration::from_secs(1));
        assert!(is_ok(&reply), "probe {i}: no ping reply within 1 s");
    }
    drop(flooder);
    router.join();
}

#[test]
fn an_eval_flooder_that_never_reads_is_pushed_back_and_stalls_no_one_else() {
    let router = Router::start(RouterConfig {
        spawn: 1,
        ..RouterConfig::default()
    })
    .unwrap();
    let eval = r#"{"spec":"worst:d=2,n=6","algo":"seq-solve"}"#;
    // The probe is dealt to one io thread and the flooder to the other.
    // Its first eval warms the replica's cache, so every flooded eval
    // is a cached round trip.
    let probe = TcpStream::connect(router.local_addr()).unwrap();
    assert!(is_ok(&ask_within(&probe, eval, Duration::from_secs(10))));
    let mut flooder = TcpStream::connect(router.local_addr()).unwrap();
    let (sent, stalled) = flood(&mut flooder, eval);
    assert!(
        stalled && sent < FLOOD_CAP,
        "the router read all {sent} bytes of an undrained flood"
    );
    // A stalled write only says the router reads slower than the
    // flood arrives.  Pushed back means it stops reading: its request
    // count holds still, and the flood's last evals have settled, so
    // the replica pool has room for the probe's.
    let mut requests = router.stats().u64("requests");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let stats = router.stats();
        let now = stats.u64("requests");
        if now == requests && stats.u64("replicas.0.inflight") == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the router kept reading the flood"
        );
        requests = now;
    }
    let reply = ask_within(&probe, eval, Duration::from_secs(1));
    assert!(
        is_ok(&reply),
        "an eval beside the flood got no reply within 1 s: {reply:?}"
    );
    drop(flooder);
    router.join();
}

#[test]
fn same_key_sticks_to_one_replica_and_composes_a_fleet_cache() {
    let router = Router::start(RouterConfig {
        spawn: 3,
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();

    for (d, n) in [(2u32, 6u32), (2, 8), (2, 10), (3, 5), (3, 7)] {
        let spec = format!("worst:d={d},n={n}");
        let first = client.eval(&spec, "cascade:w=1", None).unwrap();
        assert!(first.ok, "{first:?}");
        let owner = first
            .body
            .get("replica")
            .and_then(Json::as_str)
            .expect("replica annotation")
            .to_string();
        for _ in 0..2 {
            let again = client.eval(&spec, "cascade:w=1", None).unwrap();
            assert!(again.ok, "{again:?}");
            // Affinity: the same key lands on the same replica, so the
            // repeat is a replica-local cache hit — the three private
            // LRUs behave as one sharded fleet cache.
            assert_eq!(
                again.body.get("replica").and_then(Json::as_str),
                Some(owner.as_str())
            );
            assert!(again.cached(), "{again:?}");
        }
    }

    let snap = router.join();
    assert_eq!(snap.u64("forwarded_errors"), 0);
    assert_eq!(snap.u64("ok"), 15);
}

#[test]
fn hedged_request_returns_exactly_one_reply_from_the_live_replica() {
    let (stub_addr, stub_stop, stub_handle) = start_stub(false);
    let replica = start_replica();
    let addrs = vec![stub_addr.to_string(), replica.local_addr().to_string()];
    // A key owned by the stub: the first copy is swallowed, the hedge
    // must win on the live replica.
    let spec = spec_owned_by(&addrs, 0);

    let router = Router::start(RouterConfig {
        replicas: addrs,
        hedge_ms: Some(50),
        probe_interval_ms: 25,
        ..RouterConfig::default()
    })
    .unwrap();

    let stream = TcpStream::connect(router.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let start = Instant::now();
    writeln!(
        writer,
        r#"{{"op":"eval","id":"h1","spec":"{spec}","algo":"cascade:w=1","deadline_ms":5000}}"#
    )
    .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let reply = Json::parse(line.trim()).unwrap();
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{line}"
    );
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("h1"));
    assert_eq!(
        reply.get("replica").and_then(Json::as_str),
        Some(replica.local_addr().to_string().as_str()),
        "the live replica must answer, not the stub"
    );
    assert_eq!(reply.get("hedged").and_then(Json::as_bool), Some(true));
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "hedge should beat the deadline by a wide margin"
    );

    // Exactly one reply: nothing else arrives for this request.
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut extra = String::new();
    match reader.read_line(&mut extra) {
        Ok(0) => {}
        Ok(_) => panic!("unexpected second reply: {extra}"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{e}"
        ),
    }

    let stats = stats_of(router.local_addr());
    assert!(stats.get("hedges").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert!(stats.get("hedge_wins").and_then(Json::as_u64).unwrap_or(0) >= 1);

    router.join();
    stub_stop.store(true, Ordering::SeqCst);
    let _ = stub_handle.join();
    replica.request_shutdown();
    replica.join();
}

#[test]
fn a_busy_reply_is_retried_on_the_next_replica() {
    let (stub_addr, stub_stop, stub_handle) = start_stub(true);
    let replica = start_replica();
    let addrs = vec![stub_addr.to_string(), replica.local_addr().to_string()];
    // A key owned by the busy stub: its 429 must move the request on.
    let spec = spec_owned_by(&addrs, 0);
    let router = Router::start(RouterConfig {
        replicas: addrs,
        ..RouterConfig::default()
    })
    .unwrap();
    let client = TcpStream::connect(router.local_addr()).unwrap();
    let line = format!(r#"{{"op":"eval","id":"b1","spec":"{spec}","algo":"cascade:w=1"}}"#);
    let reply = ask_within(&client, &line, Duration::from_secs(5));
    assert!(is_ok(&reply), "no retried reply within 5 s: {reply:?}");
    let reply = reply.unwrap();
    assert_eq!(
        reply.get("replica").and_then(Json::as_str),
        Some(replica.local_addr().to_string().as_str())
    );
    assert_eq!(reply.get("retries").and_then(Json::as_u64), Some(1));
    let snap = router.join();
    assert_eq!(snap.u64("replicas.0.busy"), 1);
    stub_stop.store(true, Ordering::SeqCst);
    let _ = stub_handle.join();
    replica.request_shutdown();
    replica.join();
}

#[test]
fn an_eval_beside_a_client_holding_every_upstream_slot_gets_its_value() {
    let router = Router::start(RouterConfig {
        spawn: 1,
        ..RouterConfig::default()
    })
    .unwrap();
    // 32 pipelined slow evals fill the hog's client window and every
    // slot of the one connection to the replica.  Their deadline keeps
    // the slots held for seconds at most, even in a debug build.
    let mut hog = TcpStream::connect(router.local_addr()).unwrap();
    let burst: String = (0..32)
        .map(|i| {
            format!(
                "{{\"op\":\"eval\",\"id\":\"h{i}\",\"spec\":\"minmax-worst:d=2,n=20,seed={i}\",\"algo\":\"alphabeta\",\"deadline_ms\":3000}}\n"
            )
        })
        .collect();
    hog.write_all(burst.as_bytes()).unwrap();
    let other = TcpStream::connect(router.local_addr()).unwrap();
    let held = Instant::now() + Duration::from_secs(10);
    while router.stats().u64("replicas.0.inflight") < 32 {
        assert!(Instant::now() < held, "the burst never held all 32 slots");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The second client's eval waits for a slot instead of a 429.
    let reply = ask_within(
        &other,
        r#"{"op":"eval","id":"o1","spec":"worst:d=2,n=6","algo":"seq-solve"}"#,
        Duration::from_secs(30),
    );
    assert!(is_ok(&reply), "{reply:?}");
    assert!(reply.unwrap().get("value").is_some());
    drop(hog);
    let snap = router.join();
    assert_eq!(snap.u64("unrouted"), 0);
}

#[test]
fn unresponsive_fleet_yields_a_local_timeout_not_a_hang() {
    let (stub_addr, stub_stop, stub_handle) = start_stub(false);
    let router = Router::start(RouterConfig {
        replicas: vec![stub_addr.to_string()],
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    let start = Instant::now();
    let reply = client
        .eval("worst:d=2,n=6", "cascade:w=1", Some(100))
        .unwrap();
    assert!(!reply.ok);
    assert_eq!(reply.status, 408, "{reply:?}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "local expiry must fire shortly after the deadline"
    );
    router.join();
    stub_stop.store(true, Ordering::SeqCst);
    let _ = stub_handle.join();
}

#[test]
fn killing_one_of_three_replicas_mid_burst_is_invisible_to_clients() {
    let replicas: Vec<Server> = (0..3).map(|_| start_replica()).collect();
    let addrs: Vec<String> = replicas
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    // Probe rounds seconds apart, and the burst starts right after one
    // has seen every replica healthy.  The dying replica must still rank
    // healthy when the burst reaches it: a probe that sees the drain
    // first routes around the corpse, and nothing fails over.
    let router = Router::start(RouterConfig {
        replicas: addrs.clone(),
        retries: 5,
        probe_interval_ms: 5_000,
        probe_timeout_ms: 100,
        ..RouterConfig::default()
    })
    .unwrap();
    let probed = Instant::now() + Duration::from_secs(10);
    while !stats_of(router.local_addr())
        .get("replicas")
        .and_then(Json::as_array)
        .is_some_and(|rs| {
            rs.iter().all(|r| {
                r.get("last_probe_age_s").and_then(Json::as_f64).is_some()
                    && r.get("state").and_then(Json::as_str) == Some("healthy")
            })
        })
    {
        assert!(Instant::now() < probed, "no probe saw every replica up");
        std::thread::sleep(Duration::from_millis(5));
    }

    let stream = TcpStream::connect(router.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let mut specs: Vec<String> = Vec::new();
    for n in 4..14u32 {
        specs.push(format!("worst:d=2,n={n}"));
    }
    for n in 4..10u32 {
        specs.push(format!("worst:d=3,n={n}"));
    }

    // First half of the burst, then kill a replica, then the rest —
    // without waiting for the victim's drain to finish, so the tail
    // of the burst races the death: requests dispatched at the dying
    // replica are answered 503 (absorbed and rerouted) or lose their
    // connection (orphaned and re-dispatched).  One extra spec is
    // chosen to provably rendezvous-rank the victim first, so at
    // least one request *must* take that path — the burst cannot get
    // lucky and route around the corpse entirely.
    let half = specs.len() / 2;
    for (i, spec) in specs[..half].iter().enumerate() {
        writeln!(
            writer,
            r#"{{"op":"eval","id":"r{i}","spec":"{spec}","algo":"cascade:w=1"}}"#
        )
        .unwrap();
    }
    let mut victims = replicas;
    let victim = victims.remove(1);
    victim.request_shutdown();
    specs.push(spec_owned_by(&addrs, 1));
    for (i, spec) in specs[half..].iter().enumerate() {
        let i = i + half;
        writeln!(
            writer,
            r#"{{"op":"eval","id":"r{i}","spec":"{spec}","algo":"cascade:w=1"}}"#
        )
        .unwrap();
    }

    let mut seen = std::collections::HashSet::new();
    let mut line = String::new();
    for _ in 0..specs.len() {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let reply = Json::parse(line.trim()).unwrap();
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "client saw an error through the failover: {line}"
        );
        let id = reply.get("id").and_then(Json::as_str).unwrap().to_string();
        assert!(seen.insert(id), "duplicate reply: {line}");
    }
    assert_eq!(seen.len(), specs.len());

    let stats = stats_of(router.local_addr());
    assert!(
        stats.get("retries").and_then(Json::as_u64).unwrap_or(0) > 0,
        "failover must have rerouted something: {}",
        stats.render()
    );

    let snap = router.join();
    assert_eq!(snap.u64("forwarded_errors"), 0);
    assert_eq!(snap.u64("shed"), 0);
    assert_eq!(snap.u64("expired"), 0);
    victim.join();
    for server in victims {
        server.request_shutdown();
        server.join();
    }
}
