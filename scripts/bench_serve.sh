#!/usr/bin/env bash
# Benchmark the gt-serve request path and write a BENCH_serve.json
# artifact at the repo root.
#
# Five scenarios, each a closed-loop `gtree loadgen` run:
#
#   cached_pipeline1  warm key, 4 conns, one request in flight per
#                     connection — the pre-pipelining baseline
#   cached_pipeline8  same warm key, 4 conns, window of 8 — shows
#                     cached-hit throughput scaling from pipelining
#   coalesced         cache disabled, 32 identical requests in
#                     flight — misses collapse onto single flights
#   cold              cache disabled, one request at a time — every
#                     request runs the engine
#   cold_storm        cache disabled, 64 conns × window 4 of
#                     *distinct* keys (--distinct salts every spec):
#                     nothing caches, nothing coalesces, every
#                     request crosses the executor, one job per
#                     dispatch — the cold path's throughput.
#
#   tenant_fairness   4 round-robin tenants (loadgen --tenants 4) into
#                     a server capped at --tenant-max-inflight 2: the
#                     standing pipelined windows keep ~8 distinct-key
#                     requests in flight per tenant, so the governor
#                     sheds the overflow (429) while the round-robin
#                     tenant lanes keep service even.  Recorded: the report's
#                     per-tenant sent/ok/shed/p99 slices.  Asserted:
#                     the cap engaged (shed > 0), every tenant kept
#                     making progress, and the busiest tenant's ok
#                     count stays within 3x of the quietest's.
#
#   c10k              10,000 mostly-idle fan-in connections (loadgen
#                     --connections) held open while the warm-key
#                     pipelined load runs underneath.  The server
#                     multiplexes everything on its fixed --io-threads
#                     pool: recorded are the fan-in count, sustained
#                     rps/p99 under the idle mass, the server's thread
#                     census, and its VmRSS sampled mid-run.  Asserted:
#                     every fan-in connection came up, the thread
#                     count stays fixed (no thread per connection),
#                     and RSS stays under a quarter-GB ceiling.
#
# Every scenario passes --server-stats, so each report embeds the
# server's own snapshot (stage histograms, engine work counters)
# alongside the client-side latency figures.
#
# Three fleet scenarios ride along (gt-router, docs/ROUTING.md):
#
#   fleet_direct      distinct-key engine-bound load straight at one
#                     replica — the no-router baseline
#   fleet_router      the identical load through a gt-router fronting
#                     that one replica: the p50 gap between the two is
#                     the router's added hop cost
#                     (router_overhead_p50_pct in the artifact)
#   fleet_failover    3 replicas behind a router; one replica is
#                     killed -9 mid-run.  The run must finish with
#                     zero client-visible errors and the router's
#                     stats must show retries > 0 — recorded alongside
#                     the router's own snapshot.
#
# One tracing scenario (distributed traces, docs/OBSERVABILITY.md):
#
#   trace_overhead    the cached-pipeline8 load through a router over
#                     one warm replica under the default sampled
#                     tracing (--trace-sample 0.05, one request in
#                     twenty).  Asserted < 3%: the same-run p50 gap
#                     between the replies that carried a trace_id and
#                     the run as a whole — span recording's cost with
#                     run-to-run machine drift cancelled exactly.  A
#                     --trace-sample 0 run rides along for context.
#
# Two split scenarios follow (scatter-gather, docs/ROUTING.md):
#
#   fleet_split       3 replicas behind a router with --split-cost:
#                     every loadgen --split-heavy eval is decomposed
#                     along its eldest chain and scattered as subevals.
#                     The router's split counters (splits_total,
#                     subevals_dispatched, ...) are recorded, and
#                     splits_total > 0 is asserted.
#   split_window_gain one pruning-friendly (best-ordered) eval through
#                     a windowed split fleet vs a fresh --split-naive
#                     fleet: the windowed plan's narrowed α/β windows
#                     must do strictly fewer fleet leaves than the
#                     naive full-window fan-out.
#
# Environment overrides: GTREE_BIN, BENCH_OUT, BENCH_DURATION (s),
# BENCH_PORT.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="${GTREE_BIN:-$ROOT/target/release/gtree}"
OUT="${BENCH_OUT:-$ROOT/BENCH_serve.json}"
DUR="${BENCH_DURATION:-2}"
PORT="${BENCH_PORT:-7181}"
ADDR="127.0.0.1:$PORT"

if [ ! -x "$BIN" ]; then
  echo "bench_serve: building release binary" >&2
  (cd "$ROOT" && cargo build --release -q)
fi

SERVER_PID=""
start_server() { # extra `gtree serve` flags as args
  "$BIN" serve --addr "$ADDR" --eval-workers 4 "$@" >/dev/null 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
      return 0
    fi
    sleep 0.05
  done
  echo "bench_serve: server did not come up on $ADDR" >&2
  exit 1
}

stop_server() {
  if [ -n "$SERVER_PID" ]; then
    kill -INT "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
  fi
}

FLEET_PIDS=""
stop_fleet() {
  for pid in $FLEET_PIDS; do
    kill -INT "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  FLEET_PIDS=""
}
trap 'stop_server; stop_fleet' EXIT

wait_up() { # port
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then
      return 0
    fi
    sleep 0.05
  done
  echo "bench_serve: nothing came up on port $1" >&2
  exit 1
}

p50_of() { printf '%s' "$1" | sed -n 's/.*"latency_p50_us":\([0-9.e+-]*\).*/\1/p'; }

loadgen() { # extra `gtree loadgen` flags as args; prints one JSON line
  # --server-stats on every scenario: each report embeds the server's
  # snapshot (stage histograms, work counters) at that point.
  "$BIN" loadgen --addr "$ADDR" --rps 0 --duration "$DUR" --json --server-stats "$@"
}

summary() { # name, loadgen JSON
  local rps
  rps=$(printf '%s' "$2" | sed -n 's/.*"achieved_rps":\([0-9.e+-]*\).*/\1/p')
  printf 'bench_serve: %-18s %s replies/s\n' "$1" "${rps:-?}" >&2
}

# Cached-hit scenarios: default cache, key warmed before measuring.
start_server
"$BIN" loadgen --addr "$ADDR" --rps 0 --duration 0.3 --conns 1 \
  --spec worst:d=2,n=6 --algo seq-solve >/dev/null
cached_p1=$(loadgen --conns 4 --pipeline 1 --spec worst:d=2,n=6 --algo seq-solve)
summary cached_pipeline1 "$cached_p1"
cached_p8=$(loadgen --conns 4 --pipeline 8 --spec worst:d=2,n=6 --algo seq-solve)
summary cached_pipeline8 "$cached_p8"
stop_server

# Miss scenarios: cache disabled so every request is a miss.
start_server --cache 0
coalesced=$(loadgen --conns 4 --pipeline 8 --spec worst:d=2,n=16 --algo cascade:w=1)
summary coalesced "$coalesced"
cold=$(loadgen --conns 1 --pipeline 1 --spec worst:d=2,n=12 --algo seq-solve)
summary cold "$cold"
stop_server

# Cold storm: distinct keys defeat both the cache and single-flight
# coalescing, so throughput here is pure executor dispatch + engine.
# A deep queue absorbs the 256-request standing burst without shedding.
start_server --cache 0 --queue-depth 1024
cold_storm=$(loadgen --conns 64 --pipeline 4 --spec worst:d=2,n=12 --algo seq-solve \
  --distinct)
summary cold_storm "$cold_storm"
stop_server

# --- Tenant-fairness scenario ----------------------------------------
# Distinct keys defeat the cache and single-flight coalescing, so
# every request crosses the per-tenant governor (docs/SERVING.md).
# 4 conns x window 8 over 4 round-robin tenants keeps up to 8 requests
# in flight per tenant against a cap of 2: the overflow sheds, the
# round-robin lanes keep what's admitted even.
start_server --queue-depth 1024 --tenant-max-inflight 2
tenant_fairness=$(loadgen --conns 4 --pipeline 8 --tenants 4 \
  --spec worst:d=2,n=12 --algo seq-solve --distinct)
summary tenant_fairness "$tenant_fairness"
stop_server

# Per-tenant rows render as "tN":{"sent":..,"ok":..,"shed":..,...}.
tf_rows=$(printf '%s' "$tenant_fairness" \
  | grep -o '"t[0-9]*":{"sent":[0-9]*,"ok":[0-9]*,"shed":[0-9]*')
tf_count=$(printf '%s\n' "$tf_rows" | grep -c . || true)
tf_ok_min=$(printf '%s\n' "$tf_rows" | sed -n 's/.*"ok":\([0-9]*\).*/\1/p' | sort -n | head -n 1)
tf_ok_max=$(printf '%s\n' "$tf_rows" | sed -n 's/.*"ok":\([0-9]*\).*/\1/p' | sort -n | tail -n 1)
tf_shed=$(printf '%s\n' "$tf_rows" | sed -n 's/.*"shed":\([0-9]*\).*/\1/p' \
  | awk '{ s += $1 } END { print s + 0 }')
echo "bench_serve: tenant fairness: $tf_count tenants, ok min/max $tf_ok_min/$tf_ok_max, shed $tf_shed" >&2
[ "${tf_count:-0}" -eq 4 ] || {
  echo "bench_serve: tenant run reported $tf_count tenant slices (wanted 4)" >&2
  exit 1
}
[ "${tf_shed:-0}" -gt 0 ] || {
  echo "bench_serve: the tenant cap never shed under an 8x overload" >&2
  exit 1
}
[ "${tf_ok_min:-0}" -gt 0 ] || {
  echo "bench_serve: a capped tenant was starved (ok = 0)" >&2
  exit 1
}
[ "${tf_ok_max:-0}" -le $((tf_ok_min * 3)) ] || {
  echo "bench_serve: tenant service is uneven (ok $tf_ok_min .. $tf_ok_max)" >&2
  exit 1
}
tenant_fairness_summary=$(printf '{"tenant_max_inflight":2,"tenants":%s,"ok_min":%s,"ok_max":%s,"shed_total":%s}' \
  "${tf_count:-0}" "${tf_ok_min:-0}" "${tf_ok_max:-0}" "${tf_shed:-0}")

# --- c10k scenario ---------------------------------------------------
# Ten thousand idle connections under an active cached-pipeline load.
# The script raises its own fd limit so the *loadgen* process can open
# them; the server raises its own at startup.
ulimit -n 65535 2>/dev/null || \
  echo "bench_serve: could not raise fd limit; c10k may shed connects" >&2
C10K_CONNS="${BENCH_C10K:-10000}"
start_server
"$BIN" loadgen --addr "$ADDR" --rps 0 --duration 0.3 --conns 1 \
  --spec worst:d=2,n=6 --algo seq-solve >/dev/null
threads_idle=$(sed -n 's/^Threads:[[:space:]]*//p' "/proc/$SERVER_PID/status")
c10k_json="$(mktemp)"
"$BIN" loadgen --addr "$ADDR" --rps 0 --duration "$DUR" --json --server-stats \
  --conns 4 --pipeline 8 --connections "$C10K_CONNS" \
  --spec worst:d=2,n=6 --algo seq-solve > "$c10k_json" &
C10K_PID=$!
# Sample the server while the idle mass is actually connected.  The
# fan-in takes a moment to establish; sample late in the run.
sleep "$(awk -v d="$DUR" 'BEGIN { printf "%.1f", d * 0.75 }')"
threads_loaded=$(sed -n 's/^Threads:[[:space:]]*//p' "/proc/$SERVER_PID/status")
rss_kb=$(sed -n 's/^VmRSS:[[:space:]]*\([0-9]*\).*/\1/p' "/proc/$SERVER_PID/status")
open_mid=$( (exec 3<>"/dev/tcp/127.0.0.1/$PORT"; printf '{"op":"stats"}\n' >&3; \
  IFS= read -r r <&3; printf '%s' "$r") | sed -n 's/.*"open_conns":\([0-9]*\).*/\1/p')
wait "$C10K_PID"
c10k=$(cat "$c10k_json")
rm -f "$c10k_json"
summary c10k "$c10k"
stop_server

fan_failed=$(printf '%s' "$c10k" | sed -n 's/.*"fan_in_failed":\([0-9]*\).*/\1/p')
fan_open=$(printf '%s' "$c10k" | sed -n 's/.*"fan_in_open":\([0-9]*\).*/\1/p')
echo "bench_serve: c10k held ${fan_open:-?} idle conns (${fan_failed:-?} failed);" \
  "threads $threads_idle -> $threads_loaded, RSS ${rss_kb:-?}kB, open mid-run ${open_mid:-?}" >&2
[ "${fan_failed:-1}" -eq 0 ] || {
  echo "bench_serve: $fan_failed fan-in connections failed to open" >&2
  exit 1
}
[ "${fan_open:-0}" -eq "$C10K_CONNS" ] || {
  echo "bench_serve: only ${fan_open:-0}/$C10K_CONNS fan-in connections held" >&2
  exit 1
}
# Fixed pool: the census under 10k connections must match the idle
# census (slack 2 for an in-flight metrics scrape, nothing per-conn).
[ "$threads_loaded" -le $((threads_idle + 2)) ] || {
  echo "bench_serve: thread census grew $threads_idle -> $threads_loaded under c10k" >&2
  exit 1
}
[ "${rss_kb:-0}" -le 262144 ] || {
  echo "bench_serve: server RSS ${rss_kb}kB over the 256MB c10k ceiling" >&2
  exit 1
}
c10k_extra=$(printf '{"connections":%s,"fan_in_failed":%s,"server_threads_idle":%s,"server_threads_loaded":%s,"server_rss_kb":%s,"open_conns_mid_run":%s}' \
  "${fan_open:-0}" "${fan_failed:-0}" "${threads_idle:-0}" "${threads_loaded:-0}" \
  "${rss_kb:-0}" "${open_mid:-0}")

# --- Fleet scenarios -------------------------------------------------
# Engine-bound distinct keys (no caching, no coalescing) so the
# router's per-request hop cost is measured against real evaluation
# work, not against a sub-100µs cache hit.
#
# Methodology (pinned after the PR-5 -> PR-7 drift investigation):
# both paths get an unmeasured warmup burst before their measured
# window.  Without it, whichever path runs first eats one-time costs
# inside its short measured run — the router path pays pool connects,
# the first health-probe round, and allocator growth on top of the
# replica's own JIT-warm caches, which inflated the apparent hop cost
# (33% where a warmed measurement shows far less).  The overhead
# figure is only comparable across commits if both runs are warmed.
FLEET_SPEC="worst:d=2,n=14"
FLEET_ALGO="seq-solve"
ROUTE_PORT=$((PORT + 2))
ROUTE_ADDR="127.0.0.1:$ROUTE_PORT"

start_server --cache 0 --queue-depth 1024
"$BIN" loadgen --addr "$ADDR" --rps 0 --duration 0.5 \
  --conns 2 --pipeline 2 --spec "$FLEET_SPEC" --algo "$FLEET_ALGO" --distinct \
  >/dev/null
fleet_direct=$("$BIN" loadgen --addr "$ADDR" --rps 0 --duration "$DUR" --json \
  --conns 2 --pipeline 2 --spec "$FLEET_SPEC" --algo "$FLEET_ALGO" --distinct)
summary fleet_direct "$fleet_direct"

"$BIN" route --addr "$ROUTE_ADDR" --replicas "$ADDR" >/dev/null 2>&1 &
ROUTER_PID=$!
FLEET_PIDS="$ROUTER_PID"
wait_up "$ROUTE_PORT"
"$BIN" loadgen --addr "$ROUTE_ADDR" --rps 0 --duration 0.5 \
  --conns 2 --pipeline 2 --spec "$FLEET_SPEC" --algo "$FLEET_ALGO" --distinct \
  >/dev/null
fleet_router=$("$BIN" loadgen --addr "$ROUTE_ADDR" --rps 0 --duration "$DUR" --json \
  --conns 2 --pipeline 2 --spec "$FLEET_SPEC" --algo "$FLEET_ALGO" --distinct)
summary fleet_router "$fleet_router"
stop_fleet
stop_server

p50_direct=$(p50_of "$fleet_direct")
p50_router=$(p50_of "$fleet_router")
overhead=$(awk -v d="${p50_direct:-0}" -v r="${p50_router:-0}" \
  'BEGIN { if (d > 0) printf "%.1f", (r - d) / d * 100; else printf "null" }')
echo "bench_serve: router overhead at p50: ${overhead}% (direct ${p50_direct}us -> routed ${p50_router}us, both warmed)" >&2

# Failover: 3 replicas, kill one -9 mid-run.  Zero client-visible
# errors and retries > 0 are asserted, not just recorded.
REPLICA_PIDS=""
REPLICA_ADDRS=""
for i in 3 4 5; do
  rport=$((PORT + i))
  "$BIN" serve --addr "127.0.0.1:$rport" --eval-workers 2 --queue-depth 1024 \
    --cache 0 >/dev/null 2>&1 &
  REPLICA_PIDS="$REPLICA_PIDS $!"
  REPLICA_ADDRS="$REPLICA_ADDRS,127.0.0.1:$rport"
done
REPLICA_ADDRS="${REPLICA_ADDRS#,}"
"$BIN" route --addr "$ROUTE_ADDR" --replicas "$REPLICA_ADDRS" \
  --retries 5 --probe-interval 25 --probe-timeout 100 >/dev/null 2>&1 &
ROUTER_PID=$!
FLEET_PIDS="$ROUTER_PID $REPLICA_PIDS"
wait_up "$ROUTE_PORT"

# Heavier per-eval spec than the throughput runs: multi-millisecond
# evals keep every replica's pooled connection busy, so the kill below
# always catches in-flight requests and the retries>0 assertion cannot
# race against an idle victim.
FAILOVER_SPEC="worst:d=2,n=18"
failover_json="$(mktemp)"
"$BIN" loadgen --addr "$ROUTE_ADDR" --rps 0 --duration 4 --json \
  --conns 4 --pipeline 2 --spec "$FAILOVER_SPEC" --algo "$FLEET_ALGO" --distinct \
  > "$failover_json" &
LOADGEN_PID=$!
sleep 1.5
victim=$(printf '%s' "$REPLICA_PIDS" | awk '{print $2}')
kill -9 "$victim" 2>/dev/null || true
wait "$LOADGEN_PID"
fleet_failover=$(cat "$failover_json")
rm -f "$failover_json"
summary fleet_failover "$fleet_failover"

exec 9<>"/dev/tcp/127.0.0.1/$ROUTE_PORT"
printf '{"op":"stats"}\n' >&9
IFS= read -r stats_reply <&9
exec 9<&- 9>&-
failover_stats=$(printf '%s' "$stats_reply" | sed -n 's/.*"stats":\({.*}\)}[[:space:]]*$/\1/p')
[ -n "$failover_stats" ] || failover_stats="null"
retries=$(printf '%s' "$stats_reply" | sed -n 's/.*"retries":\([0-9][0-9]*\).*/\1/p')
stop_fleet

errfield() { printf '%s' "$fleet_failover" | sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p"; }
fail=""
for f in shed timeout bad other_error transport_errors; do
  v=$(errfield "$f")
  [ "${v:-0}" -eq 0 ] || { echo "bench_serve: failover run saw $v $f" >&2; fail=1; }
done
[ "${retries:-0}" -gt 0 ] || { echo "bench_serve: failover run shows no router retries" >&2; fail=1; }
[ -z "$fail" ] || exit 1
echo "bench_serve: failover clean ($retries router retries, zero client errors)" >&2

# --- Split scenarios -------------------------------------------------
# A router with --split-cost decomposes each large eval along its
# eldest chain and scatters the sibling subtrees across the fleet as
# subevals under narrowing α/β windows (docs/ROUTING.md).

start_split_fleet() { # extra `gtree route` flags as args
  REPLICA_PIDS=""
  REPLICA_ADDRS=""
  for i in 6 7 8; do
    rport=$((PORT + i))
    "$BIN" serve --addr "127.0.0.1:$rport" --eval-workers 2 --queue-depth 1024 \
      >/dev/null 2>&1 &
    REPLICA_PIDS="$REPLICA_PIDS $!"
    REPLICA_ADDRS="$REPLICA_ADDRS,127.0.0.1:$rport"
  done
  REPLICA_ADDRS="${REPLICA_ADDRS#,}"
  "$BIN" route --addr "$ROUTE_ADDR" --replicas "$REPLICA_ADDRS" \
    --split-cost 1000 "$@" >/dev/null 2>&1 &
  ROUTER_PID=$!
  FLEET_PIDS="$ROUTER_PID $REPLICA_PIDS"
  wait_up "$ROUTE_PORT"
}

router_stats() { # prints the router's raw stats reply
  exec 9<>"/dev/tcp/127.0.0.1/$ROUTE_PORT"
  printf '{"op":"stats"}\n' >&9
  IFS= read -r stats_reply <&9
  exec 9<&- 9>&-
  printf '%s' "$stats_reply"
}

eval_leaves() { # spec -> the reply's work.leaves for one routed eval
  exec 9<>"/dev/tcp/127.0.0.1/$ROUTE_PORT"
  printf '{"op":"eval","spec":"%s","algo":"cascade:w=1","deadline_ms":30000}\n' "$1" >&9
  IFS= read -r eval_reply <&9
  exec 9<&- 9>&-
  case "$eval_reply" in
    *'"ok":true'*) : ;;
    *) echo "bench_serve: split eval failed: $eval_reply" >&2; exit 1 ;;
  esac
  printf '%s' "$eval_reply" | sed -n 's/.*"leaves":\([0-9][0-9]*\).*/\1/p'
}

start_split_fleet
fleet_split=$("$BIN" loadgen --addr "$ROUTE_ADDR" --rps 0 --duration "$DUR" --json \
  --conns 4 --pipeline 2 --split-heavy)
summary fleet_split "$fleet_split"

stats_reply=$(router_stats)
split_stats=$(printf '%s' "$stats_reply" | sed -n 's/.*"stats":\({.*}\)}[[:space:]]*$/\1/p')
[ -n "$split_stats" ] || split_stats="null"
splits=$(printf '%s' "$stats_reply" | sed -n 's/.*"splits_total":\([0-9][0-9]*\).*/\1/p')
[ "${splits:-0}" -gt 0 ] || {
  echo "bench_serve: split-heavy run planned no splits: $stats_reply" >&2
  exit 1
}

# Windowed vs naive fleet work on a best-ordered tree (maximally α-β
# friendly).  Same fleet for the windowed probe — the split-heavy load
# above touched disjoint specs, so its subeval caches cannot feed it.
WINDOW_SPEC="minmax-best:d=3,n=9,value=9"
windowed_leaves=$(eval_leaves "$WINDOW_SPEC")
stop_fleet

# A fresh fleet for the naive baseline so no cache crosses modes.
start_split_fleet --split-naive
naive_leaves=$(eval_leaves "$WINDOW_SPEC")
stop_fleet

[ -n "${windowed_leaves:-}" ] && [ -n "${naive_leaves:-}" ] || {
  echo "bench_serve: split evals reported no work.leaves" >&2
  exit 1
}
if [ "$windowed_leaves" -ge "$naive_leaves" ]; then
  echo "bench_serve: windowed split did not beat naive ($windowed_leaves >= $naive_leaves leaves)" >&2
  exit 1
fi
split_window_gain=$(printf '{"spec":"%s","windowed_leaves":%s,"naive_leaves":%s}' \
  "$WINDOW_SPEC" "$windowed_leaves" "$naive_leaves")
echo "bench_serve: split ok ($splits splits; windowed $windowed_leaves vs naive $naive_leaves leaves)" >&2

# --- Trace-overhead scenario -----------------------------------------
# The cached-pipeline8 load through a router over one warm replica,
# with the default sampled tracing (--trace-sample 0.05, one request
# in twenty) and then tracing off (--trace-sample 0).  Cached hits
# are the cheapest requests the fleet serves, so span recording has
# nowhere to hide.
#
# The asserted figure is the *same-run* comparison: the p50 of the
# replies that carried a trace_id (the requests the router actually
# traced) against the run-wide p50.  Traced and untraced requests
# interleave within one run on one fleet, so the gap is the cost of
# span recording alone — machine drift between two separate runs (far
# larger than 3% on a busy box) cancels exactly.  The --trace-sample 0
# run is recorded for context and sanity-checked (no reply may carry a
# trace_id), not asserted on.
TRACE_SPEC="worst:d=2,n=6"
start_server
"$BIN" loadgen --addr "$ADDR" --rps 0 --duration 0.3 --conns 1 \
  --spec "$TRACE_SPEC" --algo seq-solve >/dev/null

trace_run() { # extra `gtree route` flags as args; prints loadgen JSON
  "$BIN" route --addr "$ROUTE_ADDR" --replicas "$ADDR" "$@" >/dev/null 2>&1 &
  ROUTER_PID=$!
  FLEET_PIDS="$ROUTER_PID"
  wait_up "$ROUTE_PORT"
  "$BIN" loadgen --addr "$ROUTE_ADDR" --rps 0 --duration 0.5 \
    --conns 4 --pipeline 8 --spec "$TRACE_SPEC" --algo seq-solve >/dev/null
  "$BIN" loadgen --addr "$ROUTE_ADDR" --rps 0 --duration "$DUR" --json \
    --conns 4 --pipeline 8 --spec "$TRACE_SPEC" --algo seq-solve
  stop_fleet
}

trace_on=$(trace_run)
summary trace_on "$trace_on"
trace_off=$(trace_run --trace-sample 0)
summary trace_off "$trace_off"
stop_server

traced_n=$(printf '%s' "$trace_on" | sed -n 's/.*"traced":\([0-9]*\).*/\1/p')
p50_all=$(p50_of "$trace_on")
p50_traced=$(printf '%s' "$trace_on" \
  | sed -n 's/.*"latency_p50_traced_us":\([0-9.e+-]*\).*/\1/p')
p50_off=$(p50_of "$trace_off")
off_traced=$(printf '%s' "$trace_off" | sed -n 's/.*"traced":\([0-9]*\).*/\1/p')
[ "${traced_n:-0}" -gt 0 ] || {
  echo "bench_serve: default sampling traced no requests: $trace_on" >&2
  exit 1
}
[ "${off_traced:-1}" -eq 0 ] || {
  echo "bench_serve: --trace-sample 0 still traced $off_traced requests" >&2
  exit 1
}
trace_overhead_pct=$(awk -v t="${p50_traced:-0}" -v a="${p50_all:-0}" \
  'BEGIN { if (t > 0 && a > 0) { o = (t - a) / a * 100; if (o < 0) o = 0; printf "%.1f", o } else printf "null" }')
echo "bench_serve: trace overhead at p50: ${trace_overhead_pct}% ($traced_n traced ${p50_traced}us vs run-wide ${p50_all}us; untraced run ${p50_off}us)" >&2
awk -v o="${trace_overhead_pct:-100}" 'BEGIN { exit !(o < 3) }' || {
  echo "bench_serve: tracing adds ${trace_overhead_pct}% at p50 (>= 3% budget)" >&2
  exit 1
}
trace_overhead=$(printf '{"spec":"%s","traced_requests":%s,"p50_us":{"traced":%s,"run_wide":%s,"untraced_run":%s},"overhead_p50_pct":%s,"budget_pct":3,"methodology":"same-run traced-vs-run-wide p50 under default 1-in-20 sampling; the --trace-sample 0 run is context only"}' \
  "$TRACE_SPEC" "${traced_n:-0}" "${p50_traced:-null}" "${p50_all:-null}" \
  "${p50_off:-null}" "${trace_overhead_pct:-null}")

printf '{"duration_s":%s,"cached_pipeline1":%s,"cached_pipeline8":%s,"coalesced":%s,"cold":%s,"cold_storm":%s,"tenant_fairness":%s,"tenant_fairness_summary":%s,"c10k":%s,"c10k_server":%s,"fleet_direct":%s,"fleet_router":%s,"router_overhead_p50_pct":%s,"router_overhead_methodology":"both paths warmed 0.5s before the measured window","fleet_failover":%s,"fleet_failover_router_stats":%s,"fleet_split":%s,"fleet_split_router_stats":%s,"split_window_gain":%s,"trace_overhead":%s}\n' \
  "$DUR" "$cached_p1" "$cached_p8" "$coalesced" "$cold" "$cold_storm" \
  "$tenant_fairness" "$tenant_fairness_summary" "$c10k" "$c10k_extra" \
  "$fleet_direct" "$fleet_router" "${overhead:-null}" "$fleet_failover" \
  "$failover_stats" "$fleet_split" "$split_stats" "$split_window_gain" "$trace_overhead" > "$OUT"
echo "bench_serve: wrote $OUT" >&2
