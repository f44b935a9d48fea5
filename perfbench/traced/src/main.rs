//! Per-layer traced run of the benchmark.
//!
//! ```text
//! perfbench-traced --bin PATH/gtree --workload hot|cold|split --seed N --seconds S \
//!     --spans OUT.ndjson [--git-sha SHA]
//! ```
//!
//! Nothing is traced inside the program.  Layer figures come from
//! outside it, in three parts:
//!
//! 1. **Replay.**  Each workload's own request lines (same seed, same
//!    bytes as the wire run) are replayed in this process through the
//!    public functions of each layer — `LineReader::feed`,
//!    `Request::parse`, `workload::validate`, `ShardedCache`,
//!    `FlightTable`, `FlightRecorder::record`, `Executor::submit`,
//!    `workload::evaluate`, the split planner, `ok_line`,
//!    `drain_outbox` — with a span (name, start, end, parent) around
//!    each call.  Spans stay in memory and are written at exit.
//! 2. **Wire.**  Each path's closed loop runs against the release
//!    binary while `/proc` deltas of its processes are taken; the
//!    named workload's deltas become the `kernel.*` figures.
//! 3. **Ledger.**  Each path's wire p50 minus the sum of the medians
//!    of the layers on its path: the part no layer accounts for.

use gt_analysis::Json as ServeJson;
use gt_router::hash::rank_weighted;
use gt_router::split::{plan_levels, Outcome, SplitMachine};
use gt_router::SplitConfig;
use gt_serve::executor::{CostClass, Executor, ExecutorConfig};
use gt_serve::io::{drain_outbox, BufferPool, LineAction, LineReader, Poller, Waker};
use gt_serve::protocol::{ok_line, Request as ServeRequest};
use gt_serve::singleflight::{FlightResult, FlightTable, Joined};
use gt_serve::trace::{FlightRecorder, TraceRecord};
use gt_serve::workload::{self, AlgoSpec, EvalOutcome, ValidatedRequest};
use gt_serve::{estimated_cost, ShardedCache};
use gt_tree::minimax::seq_alphabeta;
use gt_tree::split::path_text;
use gt_tree::{GenSpec, SubtreeSpec};
use perfbench_wire::args::RunArgs;
use perfbench_wire::client::Conn;
use perfbench_wire::closed_loop::{self, Tally};
use perfbench_wire::fleet::{Fleet, SPLIT_COST};
use perfbench_wire::gen::{Request, Stream, Workload};
use perfbench_wire::json::Json;
use perfbench_wire::procfs::{kernel_release, HostCpu, ProcSample, Rusage};
use perfbench_wire::stats::{median, percentile};
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span log; one tracer per run, written out at exit.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
        });
        self.spans[id].start_ns = self.at(Instant::now());
        id
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.at(Instant::now());
    }

    /// Time `f` as a child of `parent`.
    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = black_box(f());
        self.close(id);
        out
    }

    /// A span whose endpoints were stamped elsewhere (another thread).
    fn record(&mut self, name: &'static str, parent: Option<usize>, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
        });
    }

    fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    fn median_ns(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// Median self time of spans named `name`: duration minus the part
    /// covered by their children.
    fn median_self_ns(&self, name: &str) -> f64 {
        let mut child_ns: HashMap<usize, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let own: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let d = s.end_ns.saturating_sub(s.start_ns);
                d.saturating_sub(child_ns.get(&i).copied().unwrap_or(0)) as f64
            })
            .collect();
        if own.is_empty() {
            0.0
        } else {
            median(&own)
        }
    }

    fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

/// Sequential alpha-beta on a spec string: the reference value and
/// the leaves it evaluated.
fn reference(spec: &str) -> Result<(i64, u64), String> {
    let src = GenSpec::parse(spec)?.build()?;
    let st = seq_alphabeta(&src, false);
    Ok((st.value, st.leaves_evaluated))
}

fn validate(req: &ServeRequest) -> Result<ValidatedRequest, String> {
    workload::validate(
        req.spec.as_deref().unwrap_or(""),
        req.algo.as_deref().unwrap_or(""),
    )
}

fn evaluate(v: &ValidatedRequest) -> Result<EvalOutcome, String> {
    workload::evaluate(&v.spec, &v.algo, &AtomicBool::new(false)).map_err(|e| format!("{e:?}"))
}

/// The fields `gt-serve` renders for an eval reply.
fn reply_fields(o: &EvalOutcome, cached: bool) -> Vec<(&'static str, ServeJson)> {
    vec![
        ("value", ServeJson::from(o.value)),
        ("work", o.work_json()),
        ("steps", ServeJson::from(o.steps)),
        ("cached", ServeJson::Bool(cached)),
        ("coalesced", ServeJson::Bool(false)),
        ("latency_us", ServeJson::from(4u64)),
    ]
}

fn trace_record(v: &ValidatedRequest, o: &EvalOutcome, cached: bool) -> TraceRecord {
    TraceRecord {
        seq: 0,
        id: None,
        key: v.cache_key.clone(),
        algo: v.algo.name.clone(),
        status: "ok".into(),
        cached,
        coalesced: false,
        latency_us: 4,
        parse_us: 1,
        probe_us: 2,
        enqueue_us: None,
        dispatch_us: None,
        engine_start_us: None,
        engine_end_us: None,
        work: Some(*o),
        trace_id: None,
        parent_span: None,
        tenant: None,
    }
}

/// A loopback socket whose peer reads and discards everything, for
/// timing `drain_outbox`'s vectored write.
struct Sink {
    stream: TcpStream,
    reader: Option<thread::JoinHandle<()>>,
}

impl Sink {
    fn new() -> io::Result<Sink> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (mut peer, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let reader = thread::spawn(move || {
            let _ = io::copy(&mut peer, &mut io::sink());
        });
        Ok(Sink {
            stream,
            reader: Some(reader),
        })
    }

    /// Queue `bytes` and drain them through `drain_outbox`, timed.
    fn send(&self, tr: &mut Tracer, parent: usize, bytes: Vec<u8>) -> io::Result<()> {
        let mut queue = VecDeque::from([bytes]);
        let mut offset = 0;
        let mut done = tr.span("io.drain_outbox", parent, || {
            drain_outbox(&self.stream, &mut queue, &mut offset)
        })?;
        while !done {
            thread::yield_now();
            done = drain_outbox(&self.stream, &mut queue, &mut offset)?;
        }
        Ok(())
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Per-request front-door steps shared by every path: feed the line
/// through the reader, parse it, validate it.
fn front_door(
    tr: &mut Tracer,
    root: usize,
    reader: &mut LineReader,
    pool: &mut BufferPool,
    req: &Request,
) -> Result<(ServeRequest, ValidatedRequest), String> {
    let mut bytes = req.line.clone().into_bytes();
    bytes.push(b'\n');
    let mut lines = 0;
    tr.span("io.line_feed", root, || {
        reader.feed(&bytes, pool, |_| {
            lines += 1;
            LineAction::Continue
        })
    })
    .map_err(|_| "line too long".to_string())?;
    if lines != 1 {
        return Err(format!("line reader saw {lines} lines"));
    }
    let parsed = tr.span("protocol.parse", root, || ServeRequest::parse(&req.line))?;
    let v = tr.span("workload.validate", root, || validate(&parsed))?;
    Ok((parsed, v))
}

// ---------------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------------

/// `hot`: every line hits a warmed 256×8 cache; the reply is rendered
/// and written.  Returns the mean reply size in bytes.
fn replay_hot(
    tr: &mut Tracer,
    stream: &Stream,
    requests: u64,
    wrong: &mut u64,
) -> Result<f64, String> {
    let mut pool = BufferPool::new(64, 64 * 1024);
    let mut reader = LineReader::new(64 * 1024);
    let cache: ShardedCache<String, EvalOutcome> = ShardedCache::new(256, 8);
    let recorder = FlightRecorder::new(256, 100_000);
    let sink = Sink::new().map_err(|e| e.to_string())?;
    for req in stream.warmup() {
        let v = validate(&ServeRequest::parse(&req.line)?)?;
        let o = evaluate(&v)?;
        if o.value != reference(&req.spec)?.0 {
            *wrong += 1;
        }
        cache.insert(v.cache_key, o);
    }
    let mut bytes = 0u64;
    for i in 0..requests {
        let req = stream.timed(i);
        let root = tr.open("replay.hot", None);
        let (parsed, v) = front_door(tr, root, &mut reader, &mut pool, &req)?;
        let hit = tr.span("cache.get_hit", root, || cache.get(&v.cache_key));
        let o = hit.ok_or("a hot key missed the warmed cache")?;
        let rec = trace_record(&v, &o, true);
        tr.span("trace.record", root, || recorder.record(rec));
        let line = tr.span("protocol.render", root, || {
            ok_line(&parsed.id, reply_fields(&o, true))
        });
        let mut out = line.into_bytes();
        out.push(b'\n');
        bytes += out.len() as u64;
        sink.send(tr, root, out).map_err(|e| e.to_string())?;
        tr.close(root);
    }
    Ok(bytes as f64 / requests.max(1) as f64)
}

struct ColdFigures {
    /// S(T): leaves the served cascade engine evaluates per tree.
    leaves_per_eval: f64,
    /// P(T): parallel steps of the paper's parallel alpha-beta
    /// (`parallel-solve:w=1`) on the same trees; cascade counts none.
    steps_per_eval: f64,
}

/// `cold`: every line misses, leads a flight, crosses the executor,
/// runs the cascade engine, and inserts into a full cache (evicting).
fn replay_cold(
    tr: &mut Tracer,
    stream: &Stream,
    requests: u64,
    wrong: &mut u64,
) -> Result<ColdFigures, String> {
    let mut pool = BufferPool::new(64, 64 * 1024);
    let mut reader = LineReader::new(64 * 1024);
    let cache: ShardedCache<String, EvalOutcome> = ShardedCache::new(256, 8);
    // Overfill so every shard is at capacity and each insert evicts.
    for k in 0..1024 {
        cache.insert(format!("fill-{k}"), EvalOutcome::default());
    }
    let flights: FlightTable<()> = FlightTable::new();
    let recorder = FlightRecorder::new(256, 100_000);
    let sink = Sink::new().map_err(|e| e.to_string())?;
    let executor: Executor<mpsc::Sender<Instant>> = Executor::start(
        ExecutorConfig::default(),
        |batch: Vec<mpsc::Sender<Instant>>| {
            for started in batch {
                let _ = started.send(Instant::now());
            }
        },
    );
    let paper = AlgoSpec::parse("parallel-solve:w=1")?;
    let (mut leaves, mut steps) = (0u64, 0u64);
    let mut result = Ok(());
    for i in 0..requests {
        let req = stream.timed(i);
        let root = tr.open("replay.cold", None);
        let step = (|| -> Result<(ValidatedRequest, EvalOutcome), String> {
            let (parsed, v) = front_door(tr, root, &mut reader, &mut pool, &req)?;
            tr.span("cache.get_miss", root, || cache.get(&v.cache_key));
            let joined = tr.span("singleflight.join", root, || flights.join(&v.cache_key));
            let Joined::Leader(flight) = joined else {
                return Err("a cold key joined an existing flight".into());
            };
            let class = CostClass::classify(estimated_cost(&v.spec, &v.algo), 4096);
            let (tx, rx) = mpsc::channel();
            let submitted = Instant::now();
            executor
                .submit(&v.algo.name, class, tx)
                .map_err(|e| format!("submit: {e:?}"))?;
            let started = rx.recv().map_err(|e| e.to_string())?;
            tr.record("executor.handoff", Some(root), submitted, started);
            let o = tr.span("engine.cascade", root, || evaluate(&v))?;
            let _ = tr.span("singleflight.publish", root, || {
                flights.publish(&v.cache_key, &flight, FlightResult::Done(o))
            });
            let key = v.cache_key.clone();
            tr.span("cache.insert_evict", root, || cache.insert(key, o));
            let rec = trace_record(&v, &o, false);
            tr.span("trace.record", root, || recorder.record(rec));
            let line = tr.span("protocol.render", root, || {
                ok_line(&parsed.id, reply_fields(&o, false))
            });
            let mut out = line.into_bytes();
            out.push(b'\n');
            sink.send(tr, root, out).map_err(|e| e.to_string())?;
            Ok((v, o))
        })();
        tr.close(root);
        // Off the span tree: the paper's step count and the reference.
        let checked = step.and_then(|(v, o)| {
            let p = workload::evaluate(&v.spec, &paper, &AtomicBool::new(false))
                .map_err(|e| format!("{e:?}"))?;
            leaves += o.work;
            steps += p.steps;
            let truth = reference(&req.spec)?.0;
            *wrong += u64::from(o.value != truth) + u64::from(p.value != truth);
            Ok(())
        });
        if checked.is_err() {
            result = checked;
            break;
        }
    }
    executor.shutdown();
    result?;
    Ok(ColdFigures {
        leaves_per_eval: leaves as f64 / requests as f64,
        steps_per_eval: steps as f64 / requests as f64,
    })
}

struct SplitFigures {
    subevals_per_eval: f64,
    fleet_leaves_per_eval: f64,
    work_ratio: f64,
    cutoff_waste_per_eval: f64,
}

/// `split`: plan each tree as the router does, then run every
/// dispatched subeval in arrival order through `evaluate_subtree`,
/// folding results back through the planner.  Dispatches still queued
/// when the plan settles are run and discarded, as a fleet's in-flight
/// losers would be.
fn replay_split(
    tr: &mut Tracer,
    stream: &Stream,
    requests: u64,
    wrong: &mut u64,
) -> Result<SplitFigures, String> {
    let config = SplitConfig {
        cost_threshold: Some(SPLIT_COST.parse().expect("numeric split cost")),
        ..SplitConfig::default()
    };
    let threshold = config.cost_threshold.unwrap_or(u64::MAX);
    let table = vec![
        ("127.0.0.1:1".to_string(), 1u64),
        ("127.0.0.1:2".to_string(), 1u64),
    ];
    let cancel = AtomicBool::new(false);
    let (mut subevals, mut fleet_leaves, mut seq_leaves, mut waste) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..requests {
        let req = stream.timed(i);
        let root = tr.open("replay.split", None);
        let parsed = tr.span("protocol.parse", root, || ServeRequest::parse(&req.line))?;
        let v = tr.span("workload.validate", root, || validate(&parsed))?;
        let (mut machine, fx) = tr.span("split.plan", root, || -> Result<_, String> {
            let shape = plan_levels(
                &SubtreeSpec::whole(v.spec.clone()),
                threshold,
                config.max_depth,
            )?
            .ok_or("tree below the split threshold")?;
            Ok(SplitMachine::new(shape, &config))
        })?;
        waste += fx.skipped + fx.discarded;
        let mut queue: VecDeque<_> = fx.dispatch.into();
        let mut value = None;
        while let Some(d) = queue.pop_front() {
            let key = format!("sub:{}#{}", req.spec, path_text(&d.sub.path));
            tr.span("hash.rank_weighted", root, || rank_weighted(&key, &table));
            let o = tr
                .span("engine.subtree", root, || {
                    workload::evaluate_subtree(&d.sub, &cancel)
                })
                .map_err(|e| format!("{e:?}"))?;
            subevals += 1;
            fleet_leaves += o.work;
            let fx = tr.span("split.absorb", root, || {
                machine.on_value(d.level, d.child, o.value, o.work)
            });
            waste += fx.skipped + fx.discarded;
            queue.extend(fx.dispatch);
            if let Some(Outcome::Value { value: v, .. }) = fx.done {
                value = Some(v);
            }
        }
        tr.close(root);
        let (truth, leaves) = reference(&req.spec)?;
        seq_leaves += leaves;
        if value != Some(truth) {
            *wrong += 1;
        }
    }
    let n = requests as f64;
    Ok(SplitFigures {
        subevals_per_eval: subevals as f64 / n,
        fleet_leaves_per_eval: fleet_leaves as f64 / n,
        work_ratio: fleet_leaves as f64 / seq_leaves.max(1) as f64,
        cutoff_waste_per_eval: waste as f64 / n,
    })
}

/// `Waker::wake` on one thread until `Poller::wait` returns on another.
fn measure_wake(tr: &mut Tracer, samples: usize) -> Result<(), String> {
    let waker = Waker::new().map_err(|e| e.to_string())?;
    let poller = Poller::new().map_err(|e| e.to_string())?;
    poller
        .add(waker.read_fd(), 1, true, false)
        .map_err(|e| e.to_string())?;
    let (woke_tx, woke_rx) = mpsc::channel::<Instant>();
    let (go_tx, go_rx) = mpsc::channel::<bool>();
    let mut pairs = Vec::with_capacity(samples);
    let (poller, waker) = (&poller, &waker);
    thread::scope(|s| -> Result<(), String> {
        s.spawn(move || {
            let mut events = Vec::new();
            while go_rx.recv() == Ok(true) {
                loop {
                    events.clear();
                    if poller.wait(&mut events, 1000).unwrap_or(0) > 0 {
                        break;
                    }
                }
                let t = Instant::now();
                waker.drain();
                if woke_tx.send(t).is_err() {
                    break;
                }
            }
        });
        for _ in 0..samples {
            go_tx.send(true).map_err(|e| e.to_string())?;
            // Let the poller thread block before waking it.
            thread::sleep(Duration::from_micros(50));
            let t0 = Instant::now();
            waker.wake();
            let t1 = woke_rx.recv().map_err(|e| e.to_string())?;
            pairs.push((t0, t1));
        }
        go_tx.send(false).map_err(|e| e.to_string())
    })?;
    for (t0, t1) in pairs {
        tr.record("io.wake", None, t0, t1);
    }
    Ok(())
}

/// The floor: the benchmark's own two-thread echo over loopback, with
/// a line the size of a request.
fn loopback_rtt_us(length: Duration) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let echo = thread::spawn(move || -> io::Result<()> {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut reader = io::BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut line = String::new();
        loop {
            line.clear();
            if io::BufRead::read_line(&mut reader, &mut line)? == 0 {
                return Ok(());
            }
            writer.write_all(line.as_bytes())?;
        }
    });
    let mut conn = Conn::connect(&addr).map_err(|e| e.to_string())?;
    let line = "{\"spec\":\"minmax:d=4,n=6,seed=17\",\"algo\":\"alphabeta\"}";
    let mut rtts = Vec::new();
    let until = Instant::now() + length;
    while Instant::now() < until {
        let (_, dt) = conn.call(line).map_err(|e| e.to_string())?;
        rtts.push(dt.as_secs_f64() * 1e6);
    }
    drop(conn);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    Ok(median(&rtts))
}

// ---------------------------------------------------------------------------
// Wire phases
// ---------------------------------------------------------------------------

/// Serving counters summed over the replicas.
#[derive(Default, Clone, Copy)]
struct ServeCounters {
    requests: f64,
    cache_hits: f64,
    cache_misses: f64,
    coalesced: f64,
}

impl ServeCounters {
    fn read(fleet: &Fleet) -> io::Result<ServeCounters> {
        let mut c = ServeCounters::default();
        for r in &fleet.replicas {
            let reply = Conn::connect(&r.addr)?.call("{\"op\":\"stats\"}")?.0;
            let j = Json::parse(&reply).map_err(io::Error::other)?;
            let s = j.get("stats").cloned().unwrap_or(Json::Null);
            let num = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            c.requests += num("requests");
            c.cache_hits += num("cache_hits");
            c.cache_misses += num("cache_misses");
            c.coalesced += num("coalesced_hits");
        }
        Ok(c)
    }

    fn since(&self, e: &ServeCounters) -> ServeCounters {
        ServeCounters {
            requests: self.requests - e.requests,
            cache_hits: self.cache_hits - e.cache_hits,
            cache_misses: self.cache_misses - e.cache_misses,
            coalesced: self.coalesced - e.coalesced,
        }
    }
}

fn router_retries(fleet: &Fleet) -> io::Result<f64> {
    let s = fleet.router_stats()?;
    let num = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(num("retries") + num("subevals_retried"))
}

struct WirePhase {
    sent: u64,
    ok: u64,
    p50_us: f64,
    /// Per-process `/proc` deltas over the window, in
    /// [`Fleet::programs`] order (replicas, then the router).
    deltas: Vec<ProcSample>,
    /// Per-process whole-life switches of the measured fleet minus a
    /// fleet that only set up and stopped.
    switches: Vec<Rusage>,
    serve: ServeCounters,
    retries: f64,
    steal_pct: f64,
}

/// One path's closed loop against the binary, with `/proc` deltas and
/// switch accounting.  Reply values are checked against in-process
/// alpha-beta.
fn wire_phase(
    bin: &Path,
    stream: &Stream,
    length: Duration,
    wrong: &mut u64,
) -> Result<WirePhase, String> {
    let workload = stream.workload();
    let split = workload == Workload::Split;
    // Values of warm-up and window replies, checked together.
    let mut seen = Tally::default();
    let baseline = Fleet::start(bin, workload)?;
    baseline.warm(stream, &mut seen)?;
    let base = baseline.stop().map_err(|e| e.to_string())?;

    let fleet = Fleet::start(bin, workload)?;
    fleet.warm(stream, &mut seen)?;
    let serve0 = ServeCounters::read(&fleet).map_err(|e| e.to_string())?;
    let retries0 = if split {
        router_retries(&fleet).map_err(|e| e.to_string())?
    } else {
        0.0
    };
    let host0 = HostCpu::read().map_err(|e| e.to_string())?;
    let before = fleet.sample().map_err(|e| e.to_string())?;
    let window = closed_loop::run(fleet.entry(), stream, closed_loop::callers(split), length);
    let after = fleet.sample().map_err(|e| e.to_string())?;
    let host1 = HostCpu::read().map_err(|e| e.to_string())?;
    let serve = ServeCounters::read(&fleet)
        .map_err(|e| e.to_string())?
        .since(&serve0);
    let retries = if split {
        router_retries(&fleet).map_err(|e| e.to_string())? - retries0
    } else {
        0.0
    };
    let full = fleet.stop().map_err(|e| e.to_string())?;

    seen.merge(window.tally);
    let mut truth = HashMap::new();
    for spec in seen.values.keys() {
        truth.insert(spec.clone(), reference(spec)?.0);
    }
    *wrong += seen.wrong(&truth).1;
    let mut lat = window.latencies_us;
    lat.sort_by(f64::total_cmp);
    if lat.is_empty() {
        return Err(format!("{}: no request succeeded", workload.name()));
    }
    Ok(WirePhase {
        sent: window.sent,
        ok: lat.len() as u64,
        p50_us: percentile(&lat, 50.0),
        deltas: after.iter().zip(&before).map(|(a, b)| a.since(b)).collect(),
        switches: full.iter().zip(&base).map(|(f, b)| f.since(b)).collect(),
        serve,
        retries,
        steal_pct: host1.steal_pct_since(&host0),
    })
}

/// The router hop: one cached eval small enough to be forwarded
/// whole, sent through the router and straight to a replica in turn.
fn router_hop_us(bin: &Path, length: Duration) -> Result<f64, String> {
    let fleet = Fleet::split(bin).map_err(|e| e.to_string())?;
    let line = "{\"spec\":\"minmax:d=4,n=5,seed=7\",\"algo\":\"alphabeta\"}";
    let mut via = Conn::connect(fleet.entry()).map_err(|e| e.to_string())?;
    let mut direct: Vec<Conn> = fleet
        .replicas
        .iter()
        .map(|r| Conn::connect(&r.addr))
        .collect::<io::Result<_>>()
        .map_err(|e| e.to_string())?;
    via.call(line).map_err(|e| e.to_string())?;
    for c in &mut direct {
        c.call(line).map_err(|e| e.to_string())?;
    }
    let (mut routed, mut straight) = (Vec::new(), Vec::new());
    let until = Instant::now() + length;
    let mut k = 0;
    while Instant::now() < until {
        routed.push(via.call(line).map_err(|e| e.to_string())?.1.as_secs_f64() * 1e6);
        let c = &mut direct[k % 2];
        straight.push(c.call(line).map_err(|e| e.to_string())?.1.as_secs_f64() * 1e6);
        k += 1;
    }
    drop(via);
    drop(direct);
    fleet.stop().map_err(|e| e.to_string())?;
    Ok(median(&routed) - median(&straight))
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

fn run(args: &RunArgs) -> Result<(), String> {
    let spans = PathBuf::from(args.required("--spans")?);
    let share = |f: f64| Duration::from_secs_f64(args.seconds * f);
    let hot = Stream::new(Workload::Hot, args.seed);
    let cold = Stream::new(Workload::Cold, args.seed);
    let split = Stream::new(Workload::Split, args.seed);
    let mut tr = Tracer::new();
    // Values that differ from alpha-beta, in replays and on the wire.
    let mut wrong = 0u64;

    // Cost of one span's clock reads, printed so short spans can be read.
    let timer_ns = median(
        &(0..1000)
            .map(|_| {
                let a = Instant::now();
                black_box(Instant::now()).duration_since(a).as_nanos() as f64
            })
            .collect::<Vec<_>>(),
    );
    let rtt_us = loopback_rtt_us(share(0.04))?;
    let reply_bytes = replay_hot(&mut tr, &hot, 4096, &mut wrong)?;
    let cold_fig = replay_cold(&mut tr, &cold, 96, &mut wrong)?;
    let split_fig = replay_split(&mut tr, &split, 32, &mut wrong)?;
    measure_wake(&mut tr, 2000)?;

    let hot_w = wire_phase(&args.bin, &hot, share(0.15), &mut wrong)?;
    let cold_w = wire_phase(&args.bin, &cold, share(0.2), &mut wrong)?;
    let split_w = wire_phase(&args.bin, &split, share(0.2), &mut wrong)?;
    let hop_us = router_hop_us(&args.bin, share(0.05))?;

    let named = match args.workload {
        Workload::Hot => &hot_w,
        Workload::Cold => &cold_w,
        Workload::Split => &split_w,
    };
    let per_req = |x: f64| x / named.sent as f64;
    let reads: u64 = named.deltas.iter().map(|d| d.syscr).sum();
    let writes: u64 = named.deltas.iter().map(|d| d.syscw).sum();
    let vol: u64 = named.switches.iter().map(|r| r.vol_switches).sum();
    let invol: u64 = named.switches.iter().map(|r| r.invol_switches).sum();
    let lookups = named.serve.cache_hits + named.serve.cache_misses;
    let router_cpu = split_w.deltas.last().map_or(0.0, ProcSample::cpu_us);
    let replica_cpu: f64 = split_w.deltas[..split_w.deltas.len() - 1]
        .iter()
        .map(ProcSample::cpu_us)
        .sum();

    let ns = |name: &str| tr.median_ns(name);
    let us = |name: &str| tr.median_ns(name) / 1000.0;
    let hot_layers_us = rtt_us
        + (ns("io.line_feed")
            + ns("protocol.parse")
            + ns("workload.validate")
            + ns("cache.get_hit")
            + ns("trace.record")
            + ns("protocol.render")
            + ns("io.drain_outbox"))
            / 1000.0;
    let cold_layers_us = rtt_us
        + (ns("io.line_feed")
            + ns("protocol.parse")
            + ns("workload.validate")
            + ns("cache.get_miss")
            + ns("singleflight.join")
            + ns("singleflight.publish")
            + ns("cache.insert_evict")
            + ns("trace.record")
            + ns("protocol.render")
            + ns("io.drain_outbox"))
            / 1000.0
        + us("executor.handoff")
        + us("engine.cascade")
        + us("io.wake");
    let split_layers_us = rtt_us
        + (ns("protocol.parse") + ns("workload.validate") + ns("split.plan")) / 1000.0
        + split_fig.subevals_per_eval
            * (rtt_us
                + (ns("hash.rank_weighted") + ns("split.absorb")) / 1000.0
                + us("executor.handoff")
                + us("engine.subtree"));

    let metrics: Vec<(&str, f64, &str)> = vec![
        ("kernel.loopback_rtt_us", rtt_us, "us"),
        ("kernel.read_calls_per_req", per_req(reads as f64), "count"),
        (
            "kernel.write_calls_per_req",
            per_req(writes as f64),
            "count",
        ),
        ("kernel.vol_switches_per_req", per_req(vol as f64), "count"),
        (
            "kernel.invol_switches_per_req",
            per_req(invol as f64),
            "count",
        ),
        ("io.line_feed_ns", ns("io.line_feed"), "ns"),
        ("io.drain_outbox_ns", ns("io.drain_outbox"), "ns"),
        ("io.wake_us", us("io.wake"), "us"),
        ("protocol.parse_ns", ns("protocol.parse"), "ns"),
        ("protocol.render_ns", ns("protocol.render"), "ns"),
        ("protocol.reply_bytes", reply_bytes, "bytes"),
        ("workload.validate_ns", ns("workload.validate"), "ns"),
        ("cache.get_hit_ns", ns("cache.get_hit"), "ns"),
        ("cache.insert_evict_ns", ns("cache.insert_evict"), "ns"),
        (
            "cache.hit_ratio",
            if lookups > 0.0 {
                named.serve.cache_hits / lookups
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "singleflight.lead_publish_ns",
            ns("singleflight.join") + ns("singleflight.publish"),
            "ns",
        ),
        (
            "singleflight.coalesced_ratio",
            named.serve.coalesced / named.serve.requests.max(1.0),
            "ratio",
        ),
        ("trace.record_ns", ns("trace.record"), "ns"),
        ("executor.handoff_us", us("executor.handoff"), "us"),
        ("engine.cascade_us", us("engine.cascade"), "us"),
        ("engine.subtree_us", us("engine.subtree"), "us"),
        ("engine.leaves_per_eval", cold_fig.leaves_per_eval, "count"),
        ("engine.steps_per_eval", cold_fig.steps_per_eval, "count"),
        ("router.hop_us", hop_us, "us"),
        (
            "router.cpu_us_per_req",
            router_cpu / split_w.sent as f64,
            "us",
        ),
        (
            "replica.cpu_us_per_req",
            replica_cpu / split_w.sent as f64,
            "us",
        ),
        (
            "router.retries_per_req",
            split_w.retries / split_w.sent as f64,
            "count",
        ),
        ("hash.rank_weighted_ns", ns("hash.rank_weighted"), "ns"),
        (
            "split.subevals_per_eval",
            split_fig.subevals_per_eval,
            "count",
        ),
        (
            "split.fleet_leaves_per_eval",
            split_fig.fleet_leaves_per_eval,
            "count",
        ),
        ("split.work_ratio", split_fig.work_ratio, "ratio"),
        (
            "split.cutoff_waste_per_eval",
            split_fig.cutoff_waste_per_eval,
            "count",
        ),
        ("split.plan_ns", ns("split.plan"), "ns"),
        ("split.absorb_ns", ns("split.absorb"), "ns"),
        (
            "ledger.hot_unexplained_us",
            hot_w.p50_us - hot_layers_us,
            "us",
        ),
        (
            "ledger.cold_unexplained_us",
            cold_w.p50_us - cold_layers_us,
            "us",
        ),
        (
            "ledger.split_unexplained_us",
            split_w.p50_us - split_layers_us,
            "us",
        ),
    ];

    tr.write(&spans)
        .map_err(|e| format!("writing spans to {}: {e}", spans.display()))?;

    let phases = [("hot", &hot_w), ("cold", &cold_w), ("split", &split_w)];
    for (name, w) in phases {
        println!(
            "wire {name:<5} sent {} ok {} p50_us {:.2} steal_pct {:.3}",
            w.sent, w.ok, w.p50_us, w.steal_pct
        );
    }
    for root in ["replay.hot", "replay.cold", "replay.split"] {
        println!(
            "span {root:<13} median {:.0} ns, self {:.0} ns",
            tr.median_ns(root),
            tr.median_self_ns(root)
        );
    }
    println!("check.value_mismatches {wrong}");
    for (name, v, unit) in &metrics {
        println!("{name:<36} {v:.3} {unit}");
    }
    println!(
        "context {{\"nproc\": {}, \"kernel\": \"{}\", \"git_sha\": \"{}\", \"seed\": {}, \
         \"workload\": \"{}\", \"spans\": {}, \"timer_ns\": {timer_ns}, \
         \"wire_samples\": [{}, {}, {}]}}",
        thread::available_parallelism().map_or(1, |n| n.get()),
        kernel_release(),
        args.git_sha,
        args.seed,
        args.workload.name(),
        tr.spans.len(),
        hot_w.ok,
        cold_w.ok,
        split_w.ok,
    );
    let attempted: u64 = phases.iter().map(|(_, w)| w.sent).sum();
    let ok: u64 = phases.iter().map(|(_, w)| w.ok).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        wrong == 0,
        attempted - ok + wrong.min(ok),
        body.join(", ")
    );
    if wrong == 0 {
        Ok(())
    } else {
        Err(format!("{wrong} values differ from alpha-beta"))
    }
}

fn main() -> ExitCode {
    let result = RunArgs::from_env().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            ExitCode::from(1)
        }
    }
}
