//! End-to-end closed-loop benchmark of the `gtree` binary over loopback.
//!
//! ```text
//! perfbench-e2e --bin PATH/gtree --workload hot|cold|split --seed N --seconds S [--git-sha SHA]
//! ```
//!
//! A run is `ROUNDS` rounds.  Each round starts the program afresh
//! (timed as set-up), warms it, then drives one workload's closed loop
//! for `S / ROUNDS` seconds: every caller waits for its reply before
//! sending the next request.  On a shared virtual machine the host
//! takes CPU from the guest in bursts of a few seconds (steal time in
//! `/proc/stat`), and every timing follows it.  So the figures come
//! from the `KEPT` rounds whose windows saw the least steal: each is
//! the median over those rounds.  The tail (p90 … p99.9) is printed
//! over their pooled samples, with the sample count, but is not part of
//! the result: its spread between runs exceeds any bound the benchmark
//! may set.  Failures and checks count every round.  After the last
//! round every reply's value is checked, off the clock, against
//! sequential alpha-beta on the same tree.  The last stdout line is
//! the JSON result; the process exits non-zero when a value is wrong
//! or a workload-identity check fails.

use perfbench_wire::args::RunArgs;
use perfbench_wire::client::Conn;
use perfbench_wire::closed_loop::{self, Reply, Tally};
use perfbench_wire::fleet::{Fleet, Program};
use perfbench_wire::gen::{Rng, Stream, Workload};
use perfbench_wire::json::Json;
use perfbench_wire::procfs::{kernel_release, HostCpu, ProcSample};
use perfbench_wire::stats::{iqr_share, median, percentile, samples_above};
use std::collections::HashMap;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Fresh program instances per run: each gives one set-up time and one
/// set of window figures.
const ROUNDS: usize = 20;

/// Rounds the figures come from: those with the least host steal.
const KEPT: usize = 10;

/// The tail percentile reported, and the samples a percentile needs
/// beyond it before it is printed at all.
const TAIL: f64 = 99.0;
const TAIL_SAMPLES_BEYOND: usize = 10;

/// Trees whose oracle value is re-derived with `gtree eval --algo ab`,
/// tying the served oracle to `seq_alphabeta` itself.
const CLI_CROSS_CHECKS: usize = 4;

/// Workload-identity and correctness counters; all must stay zero.
#[derive(Default)]
struct Checks {
    /// A timed `hot` reply not served from the cache.
    hot_uncached: u64,
    /// A `cold` reply served from the cache or coalesced.
    cold_cached_or_coalesced: u64,
    /// A `split` reply planned as fewer than two subevals.
    split_under_two_subevals: u64,
    /// A `split` round in which some replica was sent nothing.
    split_idle_replicas: u64,
    /// Two replies for one tree that disagree.
    inconsistent_values: u64,
    /// A reply value that differs from sequential alpha-beta.
    value_mismatches: u64,
    /// The served oracle disagreeing with `gtree eval --algo ab`.
    oracle_cli_mismatches: u64,
}

impl Checks {
    fn rows(&self) -> [(&'static str, u64); 7] {
        [
            ("check.hot_uncached", self.hot_uncached),
            (
                "check.cold_cached_or_coalesced",
                self.cold_cached_or_coalesced,
            ),
            (
                "check.split_under_two_subevals",
                self.split_under_two_subevals,
            ),
            ("check.split_idle_replicas", self.split_idle_replicas),
            ("check.inconsistent_values", self.inconsistent_values),
            ("check.value_mismatches", self.value_mismatches),
            ("check.oracle_cli_mismatches", self.oracle_cli_mismatches),
        ]
    }

    fn passed(&self) -> bool {
        self.rows().iter().all(|(_, v)| *v == 0)
    }
}

/// Figures of one round.
struct Round {
    setup_s: f64,
    window_s: f64,
    sent: u64,
    ok: u64,
    /// Send→reply times of successful replies, ascending, in µs.
    latencies_us: Vec<f64>,
    cpu_us: f64,
    peak_rss_kb: u64,
    steal_pct: f64,
}

fn run_round(
    args: &RunArgs,
    stream: &Stream,
    length: Duration,
    checks: &mut Checks,
    warm: &mut Tally,
    timed: &mut Tally,
) -> Result<Round, String> {
    let t0 = Instant::now();
    let fleet = Fleet::start(&args.bin, args.workload)?;
    fleet.warm(stream, warm)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let host0 = HostCpu::read().map_err(|e| e.to_string())?;
    let before = fleet.sample().map_err(|e| e.to_string())?;
    let split = args.workload == Workload::Split;
    let window = closed_loop::run(fleet.entry(), stream, closed_loop::callers(split), length);
    let after = fleet.sample().map_err(|e| e.to_string())?;
    let host1 = HostCpu::read().map_err(|e| e.to_string())?;

    let cpu_us: f64 = after
        .iter()
        .zip(&before)
        .map(|(a, b): (&ProcSample, &ProcSample)| a.since(b).cpu_us())
        .sum();
    let peak_rss_kb = fleet.peak_rss_kb().map_err(|e| e.to_string())?;
    if split {
        let stats = fleet.router_stats().map_err(|e| e.to_string())?;
        let replicas = stats.get("replicas").map_or(&[][..], Json::as_array);
        let busy = replicas
            .iter()
            .filter(|rep| rep.get("sent").and_then(Json::as_i64).unwrap_or(0) > 0)
            .count();
        if busy < 2 {
            checks.split_idle_replicas += 1;
        }
    }
    fleet
        .stop()
        .map_err(|e| format!("stopping the program: {e}"))?;

    let t = &window.tally;
    match args.workload {
        Workload::Hot => checks.hot_uncached += t.uncached,
        Workload::Cold => checks.cold_cached_or_coalesced += t.cached_or_coalesced,
        Workload::Split => checks.split_under_two_subevals += t.under_two_subevals,
    }
    if window.ok() == 0 {
        return Err("no request succeeded in the window".into());
    }
    timed.merge(window.tally);
    let mut latencies_us = window.latencies_us;
    latencies_us.sort_by(f64::total_cmp);
    Ok(Round {
        setup_s,
        window_s: window.elapsed.as_secs_f64(),
        sent: window.sent,
        ok: latencies_us.len() as u64,
        latencies_us,
        cpu_us,
        peak_rss_kb,
        steal_pct: host1.steal_pct_since(&host0),
    })
}

/// Check every observed value against sequential alpha-beta: a fresh
/// `gtree serve` evaluates each distinct tree with `alphabeta`
/// (`seq_alphabeta`), and a few trees are re-derived through
/// `gtree eval --algo ab` to confirm the oracle itself.  Returns the
/// timed replies that carried a wrong value.
fn verify(args: &RunArgs, warm: &Tally, timed: &Tally, checks: &mut Checks) -> Result<u64, String> {
    let mut specs: Vec<&String> = warm.values.keys().chain(timed.values.keys()).collect();
    specs.sort();
    specs.dedup();
    let oracle = Program::spawn(&args.bin, &["serve"]).map_err(|e| e.to_string())?;
    let conns = thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let truth = Mutex::new(HashMap::new());
    let failed = AtomicU64::new(0);
    thread::scope(|s| {
        for part in specs.chunks(specs.len().div_ceil(conns).max(1)) {
            let (truth, failed, addr) = (&truth, &failed, &oracle.addr);
            s.spawn(move || {
                let Ok(mut conn) = Conn::connect(addr) else {
                    failed.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                for spec in part {
                    let line = format!("{{\"spec\":\"{spec}\",\"algo\":\"alphabeta\"}}");
                    let value = conn
                        .call(&line)
                        .ok()
                        .and_then(|(l, _)| Reply::read(&l).value);
                    match value {
                        Some(v) => {
                            truth
                                .lock()
                                .expect("no oracle panics")
                                .insert(spec.to_string(), v);
                        }
                        None => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    oracle
        .stop()
        .map_err(|e| format!("stopping the oracle: {e}"))?;
    if failed.load(Ordering::Relaxed) > 0 {
        return Err("the oracle failed to evaluate some trees".into());
    }
    let truth = truth.into_inner().expect("no oracle panics");
    let (warm_trees, _) = warm.wrong(&truth);
    let (timed_trees, wrong_replies) = timed.wrong(&truth);
    checks.value_mismatches = warm_trees + timed_trees;
    let mut rng = Rng::new(args.seed ^ 0xc11);
    for _ in 0..CLI_CROSS_CHECKS.min(specs.len()) {
        let spec = specs[rng.below(specs.len() as u64) as usize];
        let out = Command::new(&args.bin)
            .args(["eval", "--gen", spec, "--algo", "ab"])
            .output()
            .map_err(|e| format!("gtree eval: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let cli = text
            .lines()
            .find_map(|l| l.strip_prefix("value"))
            .and_then(|rest| {
                rest.trim_start_matches([' ', ':'])
                    .trim()
                    .parse::<i64>()
                    .ok()
            });
        if cli.is_none() || cli != truth.get(spec.as_str()).copied() {
            checks.oracle_cli_mismatches += 1;
        }
    }
    Ok(wrong_replies)
}

fn main() -> ExitCode {
    let args = match RunArgs::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let stream = Stream::new(args.workload, args.seed);
    let window = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    let mut checks = Checks::default();
    let (mut warm, mut timed) = (Tally::default(), Tally::default());
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        match run_round(&args, &stream, window, &mut checks, &mut warm, &mut timed) {
            Ok(r) => rounds.push(r),
            Err(e) => {
                eprintln!("perfbench-e2e: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let wrong_replies = match verify(&args, &warm, &timed, &mut checks) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("perfbench-e2e: {e}");
            return ExitCode::from(1);
        }
    };
    warm.merge(timed);
    checks.inconsistent_values = warm.inconsistent();

    let sent: u64 = rounds.iter().map(|r| r.sent).sum();
    let ok: u64 = rounds.iter().map(|r| r.ok).sum();
    let mut order: Vec<usize> = (0..rounds.len()).collect();
    order.sort_by(|&a, &b| rounds[a].steal_pct.total_cmp(&rounds[b].steal_pct));
    let kept: Vec<&Round> = order[..KEPT].iter().map(|&k| &rounds[k]).collect();
    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&kept.iter().map(|r| f(r)).collect::<Vec<_>>());
    // The tail is taken over every kept sample: a round alone may hold
    // too few samples beyond it.
    let mut pooled: Vec<f64> = kept.iter().flat_map(|r| r.latencies_us.clone()).collect();
    pooled.sort_by(f64::total_cmp);
    let ok_correct = ok.saturating_sub(wrong_replies);
    let metrics: Vec<(&str, f64, &str)> = vec![
        (
            "throughput_rps",
            per_round(&|r| r.ok as f64 / r.window_s),
            "1/s",
        ),
        (
            "latency_p50_us",
            per_round(&|r| percentile(&r.latencies_us, 50.0)),
            "us",
        ),
        ("ok_frac", ok_correct as f64 / sent as f64, "ratio"),
        (
            "cpu_us_per_req",
            per_round(&|r| r.cpu_us / r.ok as f64),
            "us",
        ),
        ("peak_rss_kb", per_round(&|r| r.peak_rss_kb as f64), "kB"),
        // Set-up precedes the window whose steal is measured, so every
        // round's set-up counts.
        (
            "setup_s",
            median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            "s",
        ),
    ];

    println!(
        "workload {} seed {} rounds {ROUNDS} kept {KEPT} callers {}",
        args.workload.name(),
        args.seed,
        closed_loop::callers(args.workload == Workload::Split)
    );
    for (name, v) in checks.rows() {
        println!("{name:<36} {v}");
    }
    for (k, r) in rounds.iter().enumerate() {
        println!(
            "round {k} kept {} setup_s {:.4} window_s {:.3} ok {} p50_us {:.2} cpu_us_per_req {:.2} \
             peak_rss_kb {} steal_pct {:.3}",
            u8::from(order[..KEPT].contains(&k)),
            r.setup_s,
            r.window_s,
            r.ok,
            percentile(&r.latencies_us, 50.0),
            r.cpu_us / r.ok as f64,
            r.peak_rss_kb,
            r.steal_pct
        );
    }
    for (name, v, unit) in &metrics {
        println!("{name:<36} {v:.3} {unit}");
    }
    // The tail is printed, not gated: on a shared 2-vCPU host its
    // run-to-run spread is wider than any bound the benchmark may set.
    let beyond = samples_above(pooled.len(), TAIL);
    for p in [90.0, 95.0, TAIL, 99.9] {
        if samples_above(pooled.len(), p) >= TAIL_SAMPLES_BEYOND {
            println!(
                "{:<36} {:.3} us (not gated; {} samples, {} beyond)",
                format!("latency_p{p}_us"),
                percentile(&pooled, p),
                pooled.len(),
                samples_above(pooled.len(), p)
            );
        }
    }
    println!(
        "context {{\"nproc\": {}, \"kernel\": \"{}\", \"git_sha\": \"{}\", \"seed\": {}, \
         \"rounds\": {ROUNDS}, \"kept\": {KEPT}, \"samples\": {}, \"p99_us\": {:.3}, \
         \"samples_beyond_p99\": {beyond}, \"trees_checked\": {}, \"kept_steal_pct\": {:.3}, \
         \"all_steal_pct\": {:.3}, \"kept_p50_iqr_share\": {:.4}}}",
        thread::available_parallelism().map_or(1, |n| n.get()),
        kernel_release(),
        args.git_sha,
        args.seed,
        pooled.len(),
        percentile(&pooled, TAIL),
        warm.values.len(),
        per_round(&|r| r.steal_pct),
        median(&rounds.iter().map(|r| r.steal_pct).collect::<Vec<_>>()),
        // How far the kept rounds' p50s spread inside this run.
        iqr_share(
            &kept
                .iter()
                .map(|r| percentile(&r.latencies_us, 50.0))
                .collect::<Vec<_>>()
        ),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {sent}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.passed(),
        sent - ok_correct,
        body.join(", ")
    );
    if checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
