//! Command dispatch for `gtree`.

use crate::spec::GenSpec;
use gt_sim::{parallel_alphabeta, parallel_solve, team_solve};
use gt_tree::minimax::{seq_alphabeta, seq_solve};
use gt_tree::scout::scout;
use gt_tree::sss::sss_star;
use gt_tree::{ExplicitTree, TreeSource};
use std::fmt::Write as _;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code to use.
    pub exit_code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: format!("{}\n\n{}", message.into(), USAGE),
            exit_code: 2,
        }
    }

    fn runtime(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            exit_code: 1,
        }
    }
}

const USAGE: &str = "\
gtree — game-tree toolkit (Karp & Zhang, SPAA 1989)

USAGE:
  gtree gen    <SPEC> [--max-nodes N]          emit a generated tree (text format)
  gtree eval   (--gen <SPEC> | --tree <FILE>) [--algo A] [--width W] [--processors P]
  gtree render (--gen <SPEC> | --tree <FILE>) [--dot]
  gtree msgsim --gen <SPEC> [--processors P]
  gtree serve  [--addr A] [--eval-workers N] [--queue-depth N]
               [--small-cost C] [--cache N] [--shards N] [--cache-ttl MS]
               [--conn-window N] [--deadline-ms MS] [--trace-ring N]
               [--slow-us US] [--metrics-addr A] [--io-threads N]
               [--conn-idle-timeout MS] [--snapshot PATH]
               [--tenant-max-inflight N] [--announce ROUTER]
               [--advertise ADDR] [--weight W] [--generation G]
  gtree route  [--addr A] [--replica ADDR]... [--spawn N] [--spawn-workers N]
               [--conn-window N] [--client-window N] [--retries N]
               [--hedge-ms MS] [--backoff-ms MS] [--probe-interval MS]
               [--probe-timeout MS] [--eject-after N] [--readmit-ms MS]
               [--deadline-ms MS] [--metrics-addr A] [--split-cost C]
               [--split-depth N] [--split-naive]
               [--trace-sample F] [--trace-ring N]
  gtree loadgen [--addr A] [--conns N] [--connections N] [--rps R]
               [--duration SECS] [--pipeline N] [--spec SPEC]
               [--algo SERVE-ALGO] [--deadline-ms MS] [--distinct]
               [--split-heavy] [--server-stats] [--sample-traces N]
               [--tenants N] [--json]

SPEC:     kind:key=val,...   kinds: nor crit worst allones minmax
                                    minmax-best minmax-worst minmax-corr
          e.g.  worst:d=2,n=10   minmax:d=3,n=6,lo=0,hi=99,seed=7
ALGO:     solve | team | par-solve | ab | par-ab | scout | sss   (default: picked by family)

`eval` models parallelism (round-synchronous width-w frontiers, the
paper's P(T) accounting); `serve`'s cascade, ybw and round algorithms
execute it on real threads.

`serve` speaks newline-delimited JSON (see docs/SERVING.md); `loadgen`
drives it: open loop at --rps, closed loop when --rps 0, pipelined
closed loop with --pipeline > 1, distinct-key cold storm with
--distinct.  Serve-side algorithms: seq-solve alphabeta parallel-solve
round cascade ybw tt.  --eval-workers (default 4) bounds how many
evals run at once, each worker taking one job at a time; jobs of at
most --small-cost leaves are served before larger ones, and a miss of
at most --small-cost leaves for seq-solve, alphabeta, cascade, ybw or a
subeval runs on its I/O thread instead, one per loop iteration, so
--small-cost (default 4096) also bounds the engine time one I/O-thread
iteration may spend; past --queue-depth waiting jobs a request is shed
with a 429; --cache-ttl expires cached results.
--io-threads sizes the fixed readiness-driven I/O pool that
multiplexes all connections (no thread per connection);
--conn-idle-timeout closes connections with no complete request for
MS milliseconds.  loadgen --connections N holds N extra mostly-idle
fan-in connections under the active --conns workers (c10k probing).
Observability (docs/OBSERVABILITY.md): the
flight recorder keeps the last --trace-ring request traces plus every
slow (>= --slow-us) or failed one, read back with {\"op\":\"trace\"};
--metrics-addr serves Prometheus text exposition over HTTP.

Fleet membership (docs/ROUTING.md): `serve --announce ROUTER` makes a
replica announce itself to a running router via {\"op\":\"join\"}
(retried until the router is up) and warm-fill its cache from up to
three established peers via {\"op\":\"cachepull\"}; --advertise
overrides the announced address, --weight sets the replica's share of
the keyspace under weighted rendezvous hashing, and --generation
disambiguates restarts of the same address (highest wins).  `serve
--snapshot PATH` restores the result cache from PATH on boot and
writes it back on drain, so a restarted replica rejoins warm.  `serve
--tenant-max-inflight N` caps each tenant (the request's `tenant`
field) at N dispatched-and-unanswered evals — excess is shed with a
429 and retry_after_ms while other tenants keep their capacity;
untagged requests are never capped.  `loadgen --tenants N` tags
requests round-robin with tenants t0..t{N-1} and breaks the report
out per tenant (sent/ok/shed, p50/p99).

`route` fronts a fleet of serve replicas (docs/ROUTING.md): requests
are routed by rendezvous hashing on the canonical cache key so each
replica's cache owns a shard of the keyspace; a health prober ejects
dead replicas (--eject-after probe failures, half-open readmission
after --readmit-ms); busy/unreachable replicas fail over to the next
in hash order up to --retries times; --hedge-ms races slow requests
against a second replica.  Each replica gets one pipelined connection
carrying up to --conn-window requests (default 32); a request that
finds no connected replica with room waits while some member of its
route is routable, and gets a 429 only when none is.  --replica is
repeatable (or
comma-separated); --spawn N starts N in-process replicas with
--spawn-workers eval workers each (default 4).  --split-cost C turns on
scatter-gather splitting: evals whose estimated leaf count clears C
are decomposed along the eldest chain (at most --split-depth levels,
default 1: the root's children) and their subtrees fanned out across
the fleet as subevals under narrowing alpha/beta windows; a deeper
plan adds a serial wave of subevals per level.  --split-naive
dispatches everything at once under the root window (benchmark
baseline).  `loadgen --split-heavy` replaces --spec with a
rotating pool of large trees sized to exercise a router's split
planner.

The router assembles one distributed span tree per request
(--trace-sample F traces one in 1/F requests, default 0.05; a
client-supplied trace context is always honored; 0 disables) and
keeps the last --trace-ring finished trees, read back with
{\"op\":\"trace\"}.  `loadgen --sample-traces N` fetches the trees of
the N slowest requests after the run and prints them flame-style.
";

/// Parsed common options.
struct Opts {
    gen: Option<GenSpec>,
    tree_file: Option<String>,
    algo: Option<String>,
    width: u32,
    processors: Option<u32>,
    dot: bool,
    max_nodes: u64,
}

fn parse_opts(args: &[String]) -> Result<Opts, CliError> {
    let mut o = Opts {
        gen: None,
        tree_file: None,
        algo: None,
        width: 1,
        processors: None,
        dot: false,
        max_nodes: 1 << 20,
    };
    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> Result<String, CliError> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| CliError::usage(format!("flag {} needs a value", args[*i - 1])))
        };
        match args[i].as_str() {
            "--gen" => {
                let v = next(&mut i)?;
                o.gen = Some(GenSpec::parse(&v).map_err(CliError::usage)?);
            }
            "--tree" => o.tree_file = Some(next(&mut i)?),
            "--algo" => o.algo = Some(next(&mut i)?),
            "--width" => {
                let v = next(&mut i)?;
                o.width = v
                    .parse()
                    .map_err(|e| CliError::usage(format!("bad --width {v}: {e}")))?;
            }
            "--processors" => {
                let v = next(&mut i)?;
                o.processors = Some(
                    v.parse()
                        .map_err(|e| CliError::usage(format!("bad --processors {v}: {e}")))?,
                );
            }
            "--max-nodes" => {
                let v = next(&mut i)?;
                o.max_nodes = v
                    .parse()
                    .map_err(|e| CliError::usage(format!("bad --max-nodes {v}: {e}")))?;
            }
            "--dot" => o.dot = true,
            other if !other.starts_with("--") && o.gen.is_none() && o.tree_file.is_none() => {
                // Positional spec (for `gen`).
                o.gen = Some(GenSpec::parse(other).map_err(CliError::usage)?);
            }
            other => return Err(CliError::usage(format!("unknown argument {other:?}"))),
        }
        i += 1;
    }
    Ok(o)
}

enum Input {
    Spec(GenSpec),
    Tree(ExplicitTree),
}

impl Input {
    fn source(&self) -> Result<Box<dyn TreeSource + Send>, CliError> {
        match self {
            Input::Spec(spec) => spec.build().map_err(CliError::usage),
            Input::Tree(t) => Ok(Box::new(t.clone())),
        }
    }

    fn is_minmax(&self) -> bool {
        match self {
            Input::Spec(spec) => spec.is_minmax(),
            // Heuristic for files: MIN/MAX iff any leaf is outside {0,1}.
            Input::Tree(t) => {
                fn boolean(t: &ExplicitTree) -> bool {
                    match t {
                        ExplicitTree::Leaf(v) => *v == 0 || *v == 1,
                        ExplicitTree::Internal(c) => c.iter().all(boolean),
                    }
                }
                !boolean(t)
            }
        }
    }
}

fn load_input(o: &Opts) -> Result<Input, CliError> {
    match (&o.gen, &o.tree_file) {
        (Some(spec), None) => Ok(Input::Spec(spec.clone())),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
            let tree = gt_tree::text::from_text(&text)
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            Ok(Input::Tree(tree))
        }
        (Some(_), Some(_)) => Err(CliError::usage("--gen and --tree are mutually exclusive")),
        (None, None) => Err(CliError::usage("need --gen SPEC or --tree FILE")),
    }
}

/// Execute a `gtree` invocation (everything after the program name) and
/// return the text to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage("missing command"));
    };
    let rest = &args[1..];
    match command.as_str() {
        "gen" => {
            let o = parse_opts(rest)?;
            let input = load_input(&o)?;
            let Input::Spec(spec) = &input else {
                return Err(CliError::usage("gen needs a SPEC, not --tree"));
            };
            let src = spec.build().map_err(CliError::usage)?;
            // Guard materialization.
            let stats = gt_tree::stats::shape_stats(&src, o.max_nodes);
            if stats.truncated {
                return Err(CliError::runtime(format!(
                    "tree exceeds --max-nodes {} — refusing to materialize",
                    o.max_nodes
                )));
            }
            let tree = ExplicitTree::from_source(&&src, 10_000);
            Ok(gt_tree::text::to_text(&tree))
        }
        "eval" => {
            let o = parse_opts(rest)?;
            let input = load_input(&o)?;
            let src = input.source()?;
            let algo = o.algo.clone().unwrap_or_else(|| {
                if input.is_minmax() {
                    "par-ab".to_string()
                } else {
                    "par-solve".to_string()
                }
            });
            let mut out = String::new();
            match algo.as_str() {
                "solve" => {
                    let st = seq_solve(&src, false);
                    let _ = writeln!(out, "value    : {}", st.value);
                    let _ = writeln!(out, "leaves   : {}", st.leaves_evaluated);
                    let _ = writeln!(out, "expanded : {}", st.nodes_expanded);
                }
                "team" => {
                    let p = o.processors.unwrap_or(4).max(1);
                    let st = team_solve(&src, p, false);
                    let _ = writeln!(out, "value    : {}", st.value);
                    let _ = writeln!(out, "steps    : {} (p = {p})", st.steps);
                    let _ = writeln!(out, "work     : {}", st.total_work);
                }
                "par-solve" => {
                    let st = parallel_solve(&src, o.width, false);
                    let seq = seq_solve(&src, false).leaves_evaluated;
                    let _ = writeln!(out, "value    : {}", st.value);
                    let _ = writeln!(out, "S(T)     : {seq}");
                    let _ = writeln!(out, "P(T)     : {} (width {})", st.steps, o.width);
                    let _ = writeln!(out, "speedup  : {:.2}", seq as f64 / st.steps as f64);
                    let _ = writeln!(out, "procs    : {}", st.processors_used);
                }
                "ab" => {
                    let st = seq_alphabeta(&src, false);
                    let _ = writeln!(out, "value    : {}", st.value);
                    let _ = writeln!(out, "leaves   : {}", st.leaves_evaluated);
                }
                "par-ab" => {
                    let st = parallel_alphabeta(&src, o.width, false);
                    let seq = seq_alphabeta(&src, false).leaves_evaluated;
                    let _ = writeln!(out, "value    : {}", st.value);
                    let _ = writeln!(out, "S~(T)    : {seq}");
                    let _ = writeln!(out, "P~(T)    : {} (width {})", st.steps, o.width);
                    let _ = writeln!(out, "speedup  : {:.2}", seq as f64 / st.steps as f64);
                    let _ = writeln!(out, "procs    : {}", st.processors_used);
                }
                "scout" => {
                    let st = scout(&src);
                    let _ = writeln!(out, "value      : {}", st.value);
                    let _ = writeln!(out, "leaves     : {}", st.leaves_evaluated);
                    let _ = writeln!(out, "re-searches: {}", st.researches);
                }
                "sss" => {
                    let st = sss_star(&src);
                    let _ = writeln!(out, "value    : {}", st.value);
                    let _ = writeln!(out, "leaves   : {}", st.leaves_evaluated);
                    let _ = writeln!(out, "peak OPEN: {}", st.peak_open);
                }
                other => return Err(CliError::usage(format!("unknown --algo {other:?}"))),
            }
            Ok(out)
        }
        "render" => {
            let o = parse_opts(rest)?;
            let input = load_input(&o)?;
            let src = input.source()?;
            let stats = gt_tree::stats::shape_stats(&src, o.max_nodes);
            if stats.truncated {
                return Err(CliError::runtime(format!(
                    "tree exceeds --max-nodes {} — refusing to render",
                    o.max_nodes
                )));
            }
            let tree = ExplicitTree::from_source(&&src, 10_000);
            Ok(if o.dot {
                gt_tree::render::dot(&tree, "gtree")
            } else {
                gt_tree::render::ascii(&tree)
            })
        }
        "msgsim" => {
            let o = parse_opts(rest)?;
            let input = load_input(&o)?;
            let src = input.source()?;
            let r = match o.processors {
                Some(p) => gt_msgsim::simulate_with_processors(&src, p.max(1)),
                None => gt_msgsim::simulate(&src),
            };
            let seq = seq_solve(&src, false).nodes_expanded;
            let mut out = String::new();
            let _ = writeln!(out, "value     : {}", r.value);
            let _ = writeln!(out, "ticks     : {}", r.ticks);
            let _ = writeln!(out, "S*(T)     : {seq}");
            let _ = writeln!(out, "speedup   : {:.2}", seq as f64 / r.ticks as f64);
            let _ = writeln!(out, "processors: {}", r.processors);
            let _ = writeln!(out, "messages  : {}", r.total_messages());
            Ok(out)
        }
        "serve" => run_serve(rest),
        "route" => run_route(rest),
        "loadgen" => run_loadgen_cmd(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    }
}

/// SIGINT → a self-pipe the serve loop sleeps on.  Raw FFI keeps the
/// CLI dependency-free; the handler only stores an atomic and writes
/// one byte to the pipe, both async-signal-safe.  Poll-waiting on the
/// pipe's read end wakes the drain instantly on Ctrl-C instead of at
/// the next tick of a sleep loop, and composes with the server's
/// pipelined accept loop (which keeps draining on its own flag).
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

    pub static FLAG: AtomicBool = AtomicBool::new(false);
    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn pipe(fds: *mut i32) -> i32;
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    const POLLIN: i16 = 1;

    extern "C" fn handle(_signum: i32) {
        FLAG.store(true, Ordering::SeqCst);
        let fd = WRITE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            let byte = [1u8];
            // SAFETY: write(2) is async-signal-safe; `byte` is one
            // readable byte and `fd` the self-pipe's write end, which
            // is never closed once stored.
            unsafe {
                write(fd, byte.as_ptr(), 1);
            }
        }
    }

    /// Install the handler; returns the self-pipe's read end, or
    /// `None` when the pipe could not be created (then `wait` falls
    /// back to sleeping).
    pub fn install() -> Option<i32> {
        let mut fds = [-1i32; 2];
        // SAFETY: `fds` is a writable array of the two ints pipe(2) fills.
        let read_fd = if unsafe { pipe(fds.as_mut_ptr()) } == 0 {
            WRITE_FD.store(fds[1], Ordering::SeqCst);
            Some(fds[0])
        } else {
            None
        };
        const SIGINT: i32 = 2;
        // SAFETY: `handle` is an `extern "C" fn(i32)` that touches only
        // atomics and write(2), all async-signal-safe.
        unsafe {
            signal(SIGINT, handle);
        }
        read_fd
    }

    /// Sleep up to `timeout_ms`, waking early the instant SIGINT
    /// lands on the self-pipe; reports whether it has fired.
    pub fn wait(read_fd: Option<i32>, timeout_ms: i32) -> bool {
        match read_fd {
            Some(fd) => {
                let mut p = PollFd {
                    fd,
                    events: POLLIN,
                    revents: 0,
                };
                // SAFETY: `p` is one live, writable `#[repr(C)]` pollfd.
                let n = unsafe { poll(&mut p, 1, timeout_ms) };
                if n > 0 && p.revents & POLLIN != 0 {
                    // Drain the pipe so repeated signals don't spin.
                    let mut buf = [0u8; 16];
                    // SAFETY: `buf` is `buf.len()` writable bytes; `fd` is
                    // the self-pipe's read end, which is never closed.
                    unsafe {
                        read(fd, buf.as_mut_ptr(), buf.len());
                    }
                }
                fired()
            }
            None => {
                std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(0) as u64));
                fired()
            }
        }
    }

    pub fn fired() -> bool {
        FLAG.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() -> Option<i32> {
        None
    }

    pub fn wait(_read_fd: Option<i32>, timeout_ms: i32) -> bool {
        std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(0) as u64));
        false
    }

    pub fn fired() -> bool {
        false
    }
}

fn parse_flag<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| CliError::usage(format!("bad {name} {value}: {e}")))
}

fn run_serve(args: &[String]) -> Result<String, CliError> {
    let mut config = gt_serve::Config {
        addr: "127.0.0.1:7171".into(),
        ..gt_serve::Config::default()
    };
    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> Result<String, CliError> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| CliError::usage(format!("flag {} needs a value", args[*i - 1])))
        };
        match args[i].as_str() {
            "--addr" => config.addr = next(&mut i)?,
            "--eval-workers" => {
                config.workers = parse_flag("--eval-workers", &next(&mut i)?)?;
            }
            "--queue-depth" => config.queue_depth = parse_flag("--queue-depth", &next(&mut i)?)?,
            "--small-cost" => {
                config.small_cost_max = parse_flag("--small-cost", &next(&mut i)?)?;
            }
            "--cache" => config.cache_capacity = parse_flag("--cache", &next(&mut i)?)?,
            "--shards" => config.cache_shards = parse_flag("--shards", &next(&mut i)?)?,
            "--cache-ttl" => {
                config.cache_ttl_ms = Some(parse_flag("--cache-ttl", &next(&mut i)?)?);
            }
            "--conn-window" => config.conn_window = parse_flag("--conn-window", &next(&mut i)?)?,
            "--deadline-ms" => {
                config.default_deadline_ms = parse_flag("--deadline-ms", &next(&mut i)?)?;
            }
            "--trace-ring" => config.trace_ring = parse_flag("--trace-ring", &next(&mut i)?)?,
            "--slow-us" => config.slow_us = parse_flag("--slow-us", &next(&mut i)?)?,
            "--metrics-addr" => config.metrics_addr = Some(next(&mut i)?),
            "--io-threads" => config.io_threads = parse_flag("--io-threads", &next(&mut i)?)?,
            "--conn-idle-timeout" => {
                config.conn_idle_timeout_ms =
                    Some(parse_flag("--conn-idle-timeout", &next(&mut i)?)?);
            }
            "--snapshot" => config.snapshot_path = Some(next(&mut i)?),
            "--tenant-max-inflight" => {
                config.tenant_max_inflight = parse_flag("--tenant-max-inflight", &next(&mut i)?)?;
            }
            "--announce" => config.announce = Some(next(&mut i)?),
            "--advertise" => config.advertise = Some(next(&mut i)?),
            "--weight" => {
                config.weight = parse_flag("--weight", &next(&mut i)?)?;
                if config.weight == 0 {
                    return Err(CliError::usage(
                        "--weight must be at least 1 (a zero-weight replica owns no keys)",
                    ));
                }
            }
            "--generation" => config.generation = parse_flag("--generation", &next(&mut i)?)?,
            other => return Err(CliError::usage(format!("unknown argument {other:?}"))),
        }
        i += 1;
    }
    let server = gt_serve::Server::start(config)
        .map_err(|e| CliError::runtime(format!("cannot start server: {e}")))?;
    let pipe_fd = sigint::install();
    eprintln!(
        "gt-serve listening on {} — Ctrl-C or a {{\"op\":\"shutdown\"}} request drains and exits",
        server.local_addr()
    );
    let flag = server.shutdown_flag();
    while !flag.load(std::sync::atomic::Ordering::SeqCst) {
        if sigint::wait(pipe_fd, 100) {
            server.request_shutdown();
            break;
        }
    }
    Ok(format!("{}\n", server.join().0.render()))
}

fn run_route(args: &[String]) -> Result<String, CliError> {
    let mut config = gt_router::RouterConfig {
        addr: "127.0.0.1:7170".into(),
        ..gt_router::RouterConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> Result<String, CliError> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| CliError::usage(format!("flag {} needs a value", args[*i - 1])))
        };
        match args[i].as_str() {
            "--addr" => config.addr = next(&mut i)?,
            "--replica" | "--replicas" => {
                for addr in next(&mut i)?.split(',') {
                    let addr = addr.trim();
                    if !addr.is_empty() {
                        config.replicas.push(addr.to_string());
                    }
                }
            }
            "--spawn" => config.spawn = parse_flag("--spawn", &next(&mut i)?)?,
            "--spawn-workers" => {
                config.spawn_config.workers = parse_flag("--spawn-workers", &next(&mut i)?)?;
            }
            "--conn-window" => config.conn_window = parse_flag("--conn-window", &next(&mut i)?)?,
            "--client-window" => {
                config.client_window = parse_flag("--client-window", &next(&mut i)?)?;
            }
            "--retries" => config.retries = parse_flag("--retries", &next(&mut i)?)?,
            "--hedge-ms" => config.hedge_ms = Some(parse_flag("--hedge-ms", &next(&mut i)?)?),
            "--backoff-ms" => config.backoff_ms = parse_flag("--backoff-ms", &next(&mut i)?)?,
            "--probe-interval" => {
                config.probe_interval_ms = parse_flag("--probe-interval", &next(&mut i)?)?;
            }
            "--probe-timeout" => {
                config.probe_timeout_ms = parse_flag("--probe-timeout", &next(&mut i)?)?;
            }
            "--eject-after" => {
                config.health.eject_after = parse_flag("--eject-after", &next(&mut i)?)?;
            }
            "--readmit-ms" => {
                let ms: u64 = parse_flag("--readmit-ms", &next(&mut i)?)?;
                config.health.readmit_after = std::time::Duration::from_millis(ms);
            }
            "--deadline-ms" => {
                config.default_deadline_ms = parse_flag("--deadline-ms", &next(&mut i)?)?;
            }
            "--metrics-addr" => config.metrics_addr = Some(next(&mut i)?),
            "--split-cost" => {
                config.split.cost_threshold = Some(parse_flag("--split-cost", &next(&mut i)?)?);
            }
            "--split-depth" => {
                config.split.max_depth = parse_flag("--split-depth", &next(&mut i)?)?;
            }
            "--split-naive" => config.split.naive = true,
            "--trace-sample" => {
                config.trace_sample = parse_flag("--trace-sample", &next(&mut i)?)?;
            }
            "--trace-ring" => config.trace_ring = parse_flag("--trace-ring", &next(&mut i)?)?,
            other => return Err(CliError::usage(format!("unknown argument {other:?}"))),
        }
        i += 1;
    }
    if config.replicas.is_empty() && config.spawn == 0 {
        return Err(CliError::usage(
            "route needs at least one --replica ADDR (repeatable) or --spawn N",
        ));
    }
    let router = gt_router::Router::start(config)
        .map_err(|e| CliError::runtime(format!("cannot start router: {e}")))?;
    let pipe_fd = sigint::install();
    eprintln!(
        "gt-router listening on {} -> fleet [{}] — Ctrl-C or a {{\"op\":\"shutdown\"}} request drains and exits",
        router.local_addr(),
        router.replica_addrs().join(", ")
    );
    while !router.draining() {
        if sigint::wait(pipe_fd, 100) {
            router.request_shutdown();
            break;
        }
    }
    Ok(format!("{}\n", router.join().0.render()))
}

fn run_loadgen_cmd(args: &[String]) -> Result<String, CliError> {
    let mut config = gt_serve::LoadgenConfig {
        conns: 4,
        ..gt_serve::LoadgenConfig::default()
    };
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> Result<String, CliError> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| CliError::usage(format!("flag {} needs a value", args[*i - 1])))
        };
        match args[i].as_str() {
            "--addr" => config.addr = next(&mut i)?,
            "--conns" => config.conns = parse_flag("--conns", &next(&mut i)?)?,
            "--connections" => {
                config.connections = parse_flag("--connections", &next(&mut i)?)?;
            }
            "--rps" => config.rps = parse_flag("--rps", &next(&mut i)?)?,
            "--duration" => {
                let secs: f64 = parse_flag("--duration", &next(&mut i)?)?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::usage("--duration must be positive"));
                }
                config.duration = std::time::Duration::from_secs_f64(secs);
            }
            "--spec" => config.spec = next(&mut i)?,
            "--algo" => config.algo = next(&mut i)?,
            "--deadline-ms" => {
                config.deadline_ms = Some(parse_flag("--deadline-ms", &next(&mut i)?)?);
            }
            "--pipeline" => config.pipeline = parse_flag("--pipeline", &next(&mut i)?)?,
            "--distinct" => config.distinct = true,
            "--split-heavy" => config.split_heavy = true,
            "--server-stats" => config.include_server_stats = true,
            "--sample-traces" => {
                config.sample_traces = parse_flag("--sample-traces", &next(&mut i)?)?;
            }
            "--tenants" => config.tenants = parse_flag("--tenants", &next(&mut i)?)?,
            "--json" => json = true,
            other => return Err(CliError::usage(format!("unknown argument {other:?}"))),
        }
        i += 1;
    }
    if config.pipeline > 1 && config.rps > 0.0 {
        return Err(CliError::usage(
            "--pipeline applies to closed loop only; drop it or set --rps 0",
        ));
    }
    let report = gt_serve::run_loadgen(&config);
    let replies = report.ok
        + report.shed
        + report.timeout
        + report.bad
        + report.draining
        + report.other_error;
    if replies == 0 && report.transport_errors > 0 {
        return Err(CliError::runtime(format!(
            "no server reachable at {}",
            config.addr
        )));
    }
    Ok(if json {
        format!("{}\n", report.to_json().render())
    } else {
        report.render()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn gen_emits_parseable_trees() {
        let out = run_str(&["gen", "worst:d=2,n=4"]).unwrap();
        let t = gt_tree::text::from_text(out.trim()).unwrap();
        assert!(t.is_uniform(2, 4));
    }

    #[test]
    fn gen_refuses_oversized_trees() {
        let err = run_str(&["gen", "worst:d=2,n=24"]).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("max-nodes"));
    }

    #[test]
    fn eval_par_solve_reports_speedup() {
        let out = run_str(&["eval", "--gen", "worst:d=2,n=8", "--algo", "par-solve"]).unwrap();
        assert!(out.contains("value    : 1"));
        assert!(out.contains("S(T)     : 256"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn eval_defaults_by_family() {
        let out = run_str(&["eval", "--gen", "minmax:d=2,n=4,seed=3"]).unwrap();
        assert!(out.contains("S~(T)"), "default algo for minmax is par-ab");
        let out = run_str(&["eval", "--gen", "crit:n=6"]).unwrap();
        assert!(out.contains("P(T)"), "default algo for NOR is par-solve");
    }

    #[test]
    fn eval_all_algorithms_agree_on_value() {
        let mut values = Vec::new();
        for algo in ["ab", "par-ab", "scout", "sss"] {
            let out =
                run_str(&["eval", "--gen", "minmax:d=2,n=5,seed=11", "--algo", algo]).unwrap();
            let line = out.lines().find(|l| l.contains("value")).unwrap();
            values.push(line.split(':').nth(1).unwrap().trim().to_string());
        }
        assert!(values.windows(2).all(|w| w[0] == w[1]), "{values:?}");
    }

    #[test]
    fn render_ascii_and_dot() {
        let out = run_str(&["render", "--gen", "minmax:d=2,n=2,seed=1"]).unwrap();
        assert!(out.contains("MAX"));
        let out = run_str(&["render", "--gen", "minmax:d=2,n=2,seed=1", "--dot"]).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn msgsim_runs() {
        let out = run_str(&["msgsim", "--gen", "worst:d=2,n=8", "--processors", "3"]).unwrap();
        assert!(out.contains("value     : 1"));
        assert!(out.contains("processors: 3"));
    }

    #[test]
    fn tree_file_roundtrip() {
        let dir = std::env::temp_dir().join("gtree-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.gt");
        std::fs::write(&path, "((3 9) (7 1))").unwrap();
        let out = run_str(&["eval", "--tree", path.to_str().unwrap(), "--algo", "ab"]).unwrap();
        assert!(out.contains("value    : 3"));
    }

    #[test]
    fn route_flags_are_validated() {
        assert_eq!(run_str(&["route", "--bogus"]).unwrap_err().exit_code, 2);
        let err = run_str(&["route"]).unwrap_err();
        assert_eq!(
            err.exit_code, 2,
            "no replicas and no --spawn is a usage error"
        );
        assert!(err.message.contains("--replica"));
        for flag in [
            "--spawn",
            "--conn-window",
            "--retries",
            "--hedge-ms",
            "--backoff-ms",
            "--probe-interval",
            "--eject-after",
            "--readmit-ms",
            "--split-cost",
            "--split-depth",
        ] {
            assert_eq!(
                run_str(&["route", flag, "many"]).unwrap_err().exit_code,
                2,
                "{flag} must parse as a number"
            );
        }
        assert_eq!(
            run_str(&["route", "--replica"]).unwrap_err().exit_code,
            2,
            "missing value"
        );
    }

    /// The `[--flag` tokens of one command's usage block.
    fn usage_flags(cmd: &str, next: &str) -> Vec<String> {
        let from = USAGE.find(&format!("  gtree {cmd} ")).unwrap();
        let to = from + USAGE[from..].find(&format!("  gtree {next} ")).unwrap();
        USAGE[from..to]
            .split('[')
            .filter(|t| t.starts_with("--"))
            .map(|t| t.split([' ', ']']).next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn usage_flags_are_known_and_removed_flags_are_not() {
        // Each flag alone: a value flag fails on its missing value and
        // a route switch on the missing --replica, so nothing starts,
        // and an unknown flag would say so.
        for (cmd, next) in [("serve", "route"), ("route", "loadgen")] {
            let flags = usage_flags(cmd, next);
            assert!(flags.len() >= 10, "{cmd}: {flags:?}");
            for flag in &flags {
                let err = run_str(&[cmd, flag]).unwrap_err();
                assert_eq!(err.exit_code, 2, "{cmd} {flag}");
                assert!(
                    !err.message.contains("unknown argument"),
                    "{cmd} {flag}: {}",
                    err.message
                );
            }
        }
        for (cmd, flag) in [("serve", "--batch-max"), ("route", "--split-speculative")] {
            let err = run_str(&[cmd, flag, "4"]).unwrap_err();
            assert_eq!(err.exit_code, 2);
            assert!(
                err.message
                    .starts_with(&format!("unknown argument {flag:?}")),
                "{cmd} {flag}: {}",
                err.message
            );
        }
    }

    #[test]
    fn errors_carry_usage_and_codes() {
        assert_eq!(run_str(&[]).unwrap_err().exit_code, 2);
        assert_eq!(run_str(&["frobnicate"]).unwrap_err().exit_code, 2);
        assert_eq!(
            run_str(&["eval", "--gen", "nope:n=3"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert!(run_str(&["help"]).unwrap().contains("USAGE"));
        let err = run_str(&["eval"]).unwrap_err();
        assert!(err.message.contains("--gen"));
    }

    #[test]
    fn serve_and_loadgen_flags_are_validated() {
        assert_eq!(run_str(&["serve", "--bogus"]).unwrap_err().exit_code, 2);
        assert_eq!(
            run_str(&["serve", "--eval-workers"]).unwrap_err().exit_code,
            2,
            "missing value"
        );
        assert_eq!(
            run_str(&["loadgen", "--duration", "0"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert_eq!(
            run_str(&["loadgen", "--rps", "fast"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert_eq!(
            run_str(&["serve", "--max-leaves", "10"])
                .unwrap_err()
                .exit_code,
            2,
            "the leaf ceiling is gone: every algorithm is cancellable"
        );
        assert_eq!(
            run_str(&["serve", "--io-threads", "none"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert_eq!(
            run_str(&["serve", "--conn-idle-timeout"])
                .unwrap_err()
                .exit_code,
            2,
            "missing value"
        );
        assert_eq!(
            run_str(&["loadgen", "--connections", "-3"])
                .unwrap_err()
                .exit_code,
            2
        );
        let err = run_str(&["loadgen", "--pipeline", "8", "--rps", "10"]).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("closed loop"));
        for flag in [
            "--eval-workers",
            "--small-cost",
            "--cache-ttl",
            "--trace-ring",
            "--slow-us",
        ] {
            assert_eq!(
                run_str(&["serve", flag, "many"]).unwrap_err().exit_code,
                2,
                "{flag} must parse as a number"
            );
        }
        assert_eq!(
            run_str(&["serve", "--metrics-addr"]).unwrap_err().exit_code,
            2,
            "--metrics-addr needs a value"
        );
        assert_eq!(
            run_str(&["loadgen", "--sample-traces", "lots"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert_eq!(
            run_str(&["route", "--trace-sample", "often"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert!(run_str(&["help"]).unwrap().contains("--trace-ring"));
        assert!(run_str(&["help"]).unwrap().contains("--sample-traces"));
        assert!(run_str(&["help"]).unwrap().contains("--trace-sample"));
    }

    #[test]
    fn fleet_flags_are_validated() {
        assert_eq!(
            run_str(&["serve", "--tenant-max-inflight", "many"])
                .unwrap_err()
                .exit_code,
            2
        );
        assert_eq!(
            run_str(&["serve", "--weight", "heavy"])
                .unwrap_err()
                .exit_code,
            2
        );
        let err = run_str(&["serve", "--weight", "0"]).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("at least 1"), "{}", err.message);
        assert_eq!(
            run_str(&["serve", "--generation", "latest"])
                .unwrap_err()
                .exit_code,
            2
        );
        for flag in ["--snapshot", "--announce", "--advertise"] {
            assert_eq!(
                run_str(&["serve", flag]).unwrap_err().exit_code,
                2,
                "{flag} needs a value"
            );
        }
        assert_eq!(
            run_str(&["loadgen", "--tenants", "everyone"])
                .unwrap_err()
                .exit_code,
            2
        );
        let help = run_str(&["help"]).unwrap();
        for flag in [
            "--snapshot",
            "--tenant-max-inflight",
            "--announce",
            "--advertise",
            "--weight",
            "--generation",
            "--tenants",
        ] {
            assert!(help.contains(flag), "usage must document {flag}");
        }
    }

    #[test]
    fn loadgen_tenants_flag_breaks_the_report_out() {
        let server = gt_serve::Server::start(gt_serve::Config::default()).unwrap();
        let addr = server.local_addr().to_string();
        let out = run_str(&[
            "loadgen",
            "--addr",
            &addr,
            "--conns",
            "2",
            "--duration",
            "0.2",
            "--spec",
            "worst:d=2,n=6",
            "--algo",
            "seq-solve",
            "--tenants",
            "2",
            "--json",
        ])
        .unwrap();
        assert!(out.contains("\"tenants\":{"), "{out}");
        assert!(out.contains("\"t0\":{"), "{out}");
        assert!(out.contains("\"t1\":{"), "{out}");
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn loadgen_runs_against_an_in_process_server() {
        let server = gt_serve::Server::start(gt_serve::Config::default()).unwrap();
        let addr = server.local_addr().to_string();
        let out = run_str(&[
            "loadgen",
            "--addr",
            &addr,
            "--conns",
            "2",
            "--duration",
            "0.3",
            "--spec",
            "worst:d=2,n=6",
            "--algo",
            "seq-solve",
            "--distinct",
            "--server-stats",
            "--json",
        ])
        .unwrap();
        assert!(out.contains("\"ok\":"), "{out}");
        assert!(
            out.contains("\"evaluated\":"),
            "--server-stats embeds the server snapshot: {out}"
        );
        assert!(
            out.contains("\"cached\":0"),
            "--distinct defeats the cache: {out}"
        );
        let err = run_str(&["loadgen", "--addr", "127.0.0.1:1", "--duration", "0.2"]).unwrap_err();
        assert_eq!(err.exit_code, 1);
        server.request_shutdown();
        server.join();
    }
}
