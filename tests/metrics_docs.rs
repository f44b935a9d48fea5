//! The metric docs and the `stats` shape, checked against a live
//! fleet: one replica and one splitting router, both with a `/metrics`
//! endpoint, after a plain eval, a tenant-tagged eval and a split.
//!
//! * Every family either endpoint exports has a row in
//!   `docs/OBSERVABILITY.md`, and every series a table row there names
//!   is exported.
//! * Each tier's `stats` reply has exactly the key paths pinned here
//!   (algorithm and tenant names folded to `*`), so a renamed, dropped
//!   or added key shows up as a test diff.

use gt_analysis::Json;
use gt_router::{Router, RouterConfig, SplitConfig};
use gt_serve::{Client, Config, Server, Stats};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

struct Fleet {
    replica: Server,
    router: Router,
}

impl Fleet {
    fn start_and_drive() -> Fleet {
        let replica = Server::start(Config {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..Config::default()
        })
        .unwrap();
        let router = Router::start(RouterConfig {
            replicas: vec![replica.local_addr().to_string()],
            metrics_addr: Some("127.0.0.1:0".into()),
            split: SplitConfig {
                cost_threshold: Some(64),
                ..SplitConfig::default()
            },
            ..RouterConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(router.local_addr()).unwrap();
        let plain = client.eval("worst:d=2,n=4", "seq-solve", None).unwrap();
        assert!(plain.ok, "{plain:?}");
        let tagged = client
            .send_line(r#"{"spec":"worst:d=2,n=5","algo":"seq-solve","tenant":"acme"}"#)
            .unwrap();
        assert!(tagged.ok, "{tagged:?}");
        let split = client
            .eval("minmax:d=3,n=6,seed=2", "cascade:w=1", None)
            .unwrap();
        assert!(split.ok && split.body.get("split").is_some(), "{split:?}");
        // Probe ages exist once the prober has finished a round.
        let deadline = Instant::now() + Duration::from_secs(10);
        while router.stats().get("replicas.0.last_probe_age_s") == Some(&Json::Null) {
            assert!(Instant::now() < deadline, "no probe round finished");
            std::thread::sleep(Duration::from_millis(10));
        }
        Fleet { replica, router }
    }

    fn stop(self) {
        self.router.join();
        self.replica.request_shutdown();
        self.replica.join();
    }
}

fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let (head, body) = reply.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    body.to_string()
}

/// The families a scrape declares, from its `# TYPE` lines.
fn families(exposition: &str) -> BTreeSet<String> {
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| {
            let parts: Vec<&str> = l.split(' ').collect();
            assert!(
                parts.len() == 2 && ["counter", "gauge", "histogram"].contains(&parts[1]),
                "malformed TYPE line: {l}"
            );
            parts[0].to_string()
        })
        .collect()
}

fn is_series_name(s: &str) -> bool {
    (s.starts_with("gtserve_") || s.starts_with("router_"))
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

#[test]
fn every_exported_family_is_documented_and_every_documented_one_exported() {
    let fleet = Fleet::start_and_drive();
    let mut exported = families(&scrape(fleet.replica.metrics_listener_addr().unwrap()));
    exported.extend(families(&scrape(
        fleet.router.metrics_listener_addr().unwrap(),
    )));
    fleet.stop();

    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/OBSERVABILITY.md"
    ))
    .unwrap();
    let mut rows = BTreeSet::new();
    let mut named = BTreeSet::new();
    for line in doc.lines().filter(|l| l.starts_with('|')) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if let Some(first) = cells.get(1).and_then(|c| c.strip_prefix('`')) {
            let first = first.trim_end_matches('`');
            if is_series_name(first) {
                rows.insert(first.to_string());
            }
        }
        for token in line.split('`').skip(1).step_by(2) {
            if is_series_name(token) {
                named.insert(token.to_string());
            }
        }
    }
    let undocumented: Vec<_> = exported.difference(&rows).collect();
    assert!(
        undocumented.is_empty(),
        "exported families with no row in docs/OBSERVABILITY.md: {undocumented:?}"
    );
    let unexported: Vec<_> = named.difference(&exported).collect();
    assert!(
        unexported.is_empty(),
        "docs/OBSERVABILITY.md rows name families nothing exports: {unexported:?}"
    );
}

/// Every leaf path of a `stats` object: `a.b` for objects, `a[]` for
/// array elements, with algorithm and tenant names folded to `*`.
fn key_paths(stats: &Stats) -> BTreeSet<String> {
    fn walk(j: &Json, path: String, out: &mut BTreeSet<String>) {
        match j {
            Json::Object(fields) => {
                for (k, v) in fields {
                    let folded = matches!(path.as_str(), "stages" | "tenants");
                    let k = if folded { "*" } else { k.as_str() };
                    let next = if path.is_empty() {
                        k.to_string()
                    } else {
                        format!("{path}.{k}")
                    };
                    walk(v, next, out);
                }
            }
            Json::Array(items) if !items.is_empty() => {
                for v in items {
                    walk(v, format!("{path}[]"), out);
                }
            }
            Json::Array(_) => {
                out.insert(format!("{path}[]"));
            }
            _ => {
                out.insert(path);
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(&stats.0, String::new(), &mut out);
    out
}

fn assert_shape(tier: &str, stats: &Stats, pinned: &str) {
    let got = key_paths(stats);
    let want: BTreeSet<String> = pinned.split_whitespace().map(str::to_string).collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{tier} stats shape changed: missing {missing:?}, new {extra:?}"
    );
}

const SERVE_KEYS: &str = "
    bad_request
    cache.admitted cache.capacity cache.evictions cache.len
    cache.per_shard_evictions[] cache.per_shard_len[] cache.shards cache.ttl_evictions
    cache.ttl_ms cache_hits cache_misses cachepull_entries cachepull_served coalesced_hits
    connections draining evaluated executor_queued flights_inflight idle_closed internal
    io_loops[].connections io_loops[].iterations io_loops[].lag.buckets[]
    io_loops[].lag.count io_loops[].lag.mean_us io_loops[].lag.p50_us io_loops[].lag.p90_us
    io_loops[].lag.p99_us io_loops[].lag.sum_us io_loops[].outbox_bytes io_loops[].wait_us
    io_loops[].work_us io_threads latency_buckets[] latency_count latency_mean_us
    latency_p50_us latency_p90_us latency_p99_us latency_sum_us ok open_conns
    overflow_closed overlong_closed queue_depth.buckets[] queue_depth.count queue_depth.mean
    queue_depth.p50
    queue_depth.p90 queue_depth.p99 queue_depth.sum received shed snapshot_restored
    stages.*.engine.buckets[] stages.*.engine.count
    stages.*.engine.mean_us stages.*.engine.p50_us stages.*.engine.p90_us
    stages.*.engine.p99_us stages.*.engine.sum_us stages.*.queue_wait.buckets[]
    stages.*.queue_wait.count stages.*.queue_wait.mean_us stages.*.queue_wait.p50_us
    stages.*.queue_wait.p90_us stages.*.queue_wait.p99_us stages.*.queue_wait.sum_us
    stages.*.work.evals stages.*.work.leaves stages.*.work.max_width stages.*.work.pruned
    stages.*.work.steps stages.*.write.buckets[] stages.*.write.count stages.*.write.mean_us
    stages.*.write.p50_us stages.*.write.p90_us stages.*.write.p99_us stages.*.write.sum_us
    subeval_requests subevals tenants.*.latency.buckets[] tenants.*.latency.count
    tenants.*.latency.mean_us tenants.*.latency.p50_us tenants.*.latency.p90_us
    tenants.*.latency.p99_us tenants.*.latency.sum_us tenants.*.ok tenants.*.requests
    tenants.*.shed timeout uptime_s version warmfill_entries
";

const ROUTER_KEYS: &str = "
    bad_request connections draining ejects expired forwarded_errors hedge_losers hedge_wins
    hedges membership.duplicate_joins membership.joined membership.members
    membership.refreshed membership.reweighted membership.stale_joins membership.version ok
    open_conns overflow_closed overlong_closed replicas[].addr replicas[].busy replicas[].connected
    replicas[].ejects replicas[].errors replicas[].generation replicas[].inflight
    replicas[].last_probe_age_s replicas[].ok
    replicas[].probe_failures replicas[].sent replicas[].state replicas[].tier
    replicas[].transport replicas[].weight requests retries route_latency.buckets[]
    route_latency.count route_latency.mean_us route_latency.p50_us route_latency.p90_us
    route_latency.p99_us route_latency.sum_us shed split_depth splits_total stale_replies
    subevals_discarded_on_cutoff subevals_dispatched subevals_retried
    subevals_skipped_on_cutoff traces.active traces.finished traces.ringed traces.spans
    traces.started unrouted uptime_s uptime_us version
";

#[test]
fn serve_stats_keep_their_key_paths() {
    let fleet = Fleet::start_and_drive();
    let mut client = Client::connect(fleet.replica.local_addr()).unwrap();
    let reply = client.stats().unwrap();
    let stats = Stats(reply.body.get("stats").cloned().unwrap());
    assert_eq!(
        stats
            .get("stages.seq-solve.work.evals")
            .and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(stats.u64("tenants.acme.ok"), 1);
    assert!(stats.u64("subevals") > 0);
    fleet.stop();
    assert_shape("serve", &stats, SERVE_KEYS);
}

#[test]
fn router_stats_keep_their_key_paths() {
    let fleet = Fleet::start_and_drive();
    let mut client = Client::connect(fleet.router.local_addr()).unwrap();
    let reply = client.stats().unwrap();
    let stats = Stats(reply.body.get("stats").cloned().unwrap());
    assert_eq!(stats.u64("splits_total"), 1);
    assert_eq!(stats.u64("ok"), 3);
    fleet.stop();
    assert_shape("router", &stats, ROUTER_KEYS);
}
