#!/usr/bin/env bash
# CI smoke test for gt-serve: boot `gtree serve` on loopback, drive a
# short pipelined closed-loop load, and fail on any error reply or
# transport failure.  Then a distinct-key cold-storm burst: every
# request is a cold miss, run in place by its io thread or handed to
# the shared executor, and any shed (429) or timeout (408) fails the
# run — a regression guard for the cold path's queue sizing and
# dispatch throughput.  A forking cold
# storm follows: cascade:w=1 on M(4,7) trees, whose root forks onto the
# fork-join pool, with no bad, shed, timed-out or failed request, and
# one such eval's value must match the sequential engine's.  Also
# checks that SIGINT drains the server.
#
# Observability checks ride along: the server boots with
# --metrics-addr, /metrics is scraped twice (well-formed # TYPE lines,
# and gtserve_requests_total must increase between scrapes), and one
# {"op":"trace"} round-trip must return recorded flight traces.
#
# A router smoke rides along: a 1-router/2-replica fleet takes a
# pipelined burst, loses a replica to kill -9 mid-life, takes a second
# distinct-key burst with zero client-visible errors, and its stats
# must show retries > 0 — the failover actually fired.  Between the
# bursts, a cross-tier trace round-trip: one eval pinned to a client
# trace id, its span tree fetched back via op:"trace", with >= 1
# replica child span and monotone span offsets asserted.
#
# A split smoke closes out: a 1-router/3-replica fleet with
# scatter-gather enabled (--split-cost).  A large eval must fan its
# subevals across >= 2 replicas (split counters + per-replica sent),
# a kill -9 mid split-heavy load must stay invisible to clients with
# subevals_retried > 0, values must keep matching the local engine
# after the kill, the router's own /metrics endpoint must show the
# splits and the route latency, and a naive-mode NOR eval must
# discard in-flight losers after its cutoff
# (subevals_discarded_on_cutoff > 0) without ever aborting them.
#
# A fleet-membership smoke closes the file: a replica announces
# itself to a live 1-seed router mid-load (serve --announce) with zero
# client-visible errors, is SIGINT-drained (writing its --snapshot),
# and rejoins on the same address at --generation 2 — snapshot
# restored, health showing the new generation, post-restart burst
# clean.
#
# A fan-in smoke rides between the single-server and router sections:
# a fresh server with a fixed 2-thread I/O pool takes >= 1k concurrent
# mostly-idle connections (loadgen --connections) alongside an active
# pipelined load, and the run asserts zero failed fan-in opens, zero
# sheds, a thread census that does not grow with connection count,
# and RSS under 128MB.  The router section repeats the same fan-in
# against the router, before its replica kill.
#
# Environment overrides: GTREE_BIN, SMOKE_PORT, SMOKE_METRICS_PORT,
# SMOKE_DURATION (s), SMOKE_FAN_CONNS.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="${GTREE_BIN:-$ROOT/target/release/gtree}"
PORT="${SMOKE_PORT:-7191}"
METRICS_PORT="${SMOKE_METRICS_PORT:-$((PORT + 1))}"
DUR="${SMOKE_DURATION:-2}"
ADDR="127.0.0.1:$PORT"
METRICS_ADDR="127.0.0.1:$METRICS_PORT"

# Drive the binary of this checkout: build it unless GTREE_BIN names
# one (a no-op when it is fresh).  The workspace root's own build does
# not include gt-cli, so build that package.
if [ -z "${GTREE_BIN:-}" ]; then
  (cd "$ROOT" && cargo build --release -q -p gt-cli)
fi

"$BIN" serve --addr "$ADDR" --eval-workers 2 --queue-depth 512 \
  --metrics-addr "$METRICS_ADDR" --trace-ring 64 >/dev/null 2>&1 &
SERVER_PID=$!
trap 'kill -INT "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true' EXIT

up=""
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
    up=1
    break
  fi
  sleep 0.05
done
if [ -z "$up" ]; then
  echo "ci_smoke: server did not come up on $ADDR" >&2
  exit 1
fi

json=$("$BIN" loadgen --addr "$ADDR" --rps 0 --duration "$DUR" --conns 2 \
  --pipeline 4 --spec worst:d=2,n=8 --algo cascade:w=1 --json)
echo "ci_smoke: $json"

field() { printf '%s' "$json" | sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p"; }
ok=$(field ok)
bad=$(field bad)
other=$(field other_error)
transport=$(field transport_errors)

fail=""
[ "${ok:-0}" -gt 0 ] || { echo "ci_smoke: no successful replies" >&2; fail=1; }
[ "${bad:-0}" -eq 0 ] || { echo "ci_smoke: $bad bad-request replies" >&2; fail=1; }
[ "${other:-0}" -eq 0 ] || { echo "ci_smoke: $other unexpected error replies" >&2; fail=1; }
[ "${transport:-0}" -eq 0 ] || { echo "ci_smoke: $transport transport errors" >&2; fail=1; }
[ -z "$fail" ] || exit 1

# Scrape the Prometheus exposition.  curl when available, raw
# /dev/tcp otherwise — the endpoint closes the connection after one
# response, so a plain read-to-EOF works.
scrape() { # [port] -> the exposition body (default: the server's endpoint)
  local port="${1:-$METRICS_PORT}"
  if command -v curl >/dev/null 2>&1; then
    curl -sf "http://127.0.0.1:$port/metrics"
  else
    exec 9<>"/dev/tcp/127.0.0.1/$port"
    printf 'GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:%s\r\nConnection: close\r\n\r\n' "$port" >&9
    cat <&9
    exec 9<&- 9>&-
  fi
}
requests_total() { printf '%s\n' "$1" | sed -n 's/^gtserve_requests_total \([0-9][0-9]*\).*/\1/p'; }

scrape1=$(scrape)
fail=""
for series in gtserve_requests_total gtserve_latency_seconds gtserve_cache_hits_total; do
  printf '%s\n' "$scrape1" | grep -q "^# TYPE $series " \
    || { echo "ci_smoke: /metrics is missing '# TYPE $series'" >&2; fail=1; }
done
req1=$(requests_total "$scrape1")
[ -n "${req1:-}" ] || { echo "ci_smoke: /metrics has no gtserve_requests_total sample" >&2; fail=1; }
[ "${req1:-0}" -gt 0 ] || { echo "ci_smoke: gtserve_requests_total is zero after load" >&2; fail=1; }
[ -z "$fail" ] || exit 1

# One {"op":"trace"} round-trip against the NDJSON port: the flight
# recorder must hand back traces from the load we just ran.
exec 8<>"/dev/tcp/127.0.0.1/$PORT"
printf '{"op":"trace","n":4}\n' >&8
IFS= read -r trace_reply <&8
exec 8<&- 8>&-
case "$trace_reply" in
  *'"ok":true'*'"traces":['*) : ;;
  *) echo "ci_smoke: bad trace reply: $trace_reply" >&2; exit 1 ;;
esac
case "$trace_reply" in
  *'"traces":[]'*) echo "ci_smoke: trace ring is empty after load" >&2; exit 1 ;;
esac

# Cold-storm burst: 16 conns × window 4 of distinct small keys.  Each
# io thread runs one of them in place per loop iteration and hands the
# rest to the executor; between them they must answer all of them
# within their (default 10s) deadlines and without shedding — sheds or
# timeouts mean the cold path regressed.
json=$("$BIN" loadgen --addr "$ADDR" --rps 0 --duration "$DUR" --conns 16 \
  --pipeline 4 --spec worst:d=2,n=10 --algo seq-solve --distinct --json)
echo "ci_smoke: cold storm $json"

ok=$(field ok)
shed=$(field shed)
timeout=$(field timeout)
transport=$(field transport_errors)

fail=""
[ "${ok:-0}" -gt 0 ] || { echo "ci_smoke: cold storm got no successful replies" >&2; fail=1; }
[ "${shed:-0}" -eq 0 ] || { echo "ci_smoke: cold storm shed $shed requests" >&2; fail=1; }
[ "${timeout:-0}" -eq 0 ] || { echo "ci_smoke: cold storm timed out $timeout requests" >&2; fail=1; }
[ "${transport:-0}" -eq 0 ] || { echo "ci_smoke: cold storm hit $transport transport errors" >&2; fail=1; }
[ -z "$fail" ] || exit 1

# Forking cold storm: distinct M(4,7) keys, whose root children (4^6
# leaves) clear the fork grain, so every miss forks cascade's root
# onto the fork-join pool (gt_tree::par).
json=$("$BIN" loadgen --addr "$ADDR" --rps 0 --duration "$DUR" --conns 8 \
  --pipeline 2 --spec minmax:d=4,n=7,seed=3 --algo cascade:w=1 \
  --distinct --json)
echo "ci_smoke: fork storm $json"

ok=$(field ok)
bad=$(field bad)
shed=$(field shed)
timeout=$(field timeout)
transport=$(field transport_errors)

fail=""
[ "${ok:-0}" -gt 0 ] || { echo "ci_smoke: fork storm got no successful replies" >&2; fail=1; }
[ "${bad:-0}" -eq 0 ] || { echo "ci_smoke: fork storm got $bad bad-request replies" >&2; fail=1; }
[ "${shed:-0}" -eq 0 ] || { echo "ci_smoke: fork storm shed $shed requests" >&2; fail=1; }
[ "${timeout:-0}" -eq 0 ] || { echo "ci_smoke: fork storm timed out $timeout requests" >&2; fail=1; }
[ "${transport:-0}" -eq 0 ] || { echo "ci_smoke: fork storm hit $transport transport errors" >&2; fail=1; }
[ -z "$fail" ] || exit 1

# Value parity on the wire: the forking engine must agree with the
# sequential alpha-beta baseline on the same tree.
spec="minmax:d=4,n=7,lo=-9,hi=9,seed=11"
want=$("$BIN" eval --gen "$spec" --algo ab \
  | sed -n 's/^value[[:space:]]*:[[:space:]]*\(-\{0,1\}[0-9][0-9]*\).*/\1/p')
exec 8<>"/dev/tcp/127.0.0.1/$PORT"
printf '{"op":"eval","spec":"%s","algo":"cascade:w=1","deadline_ms":10000}\n' "$spec" >&8
IFS= read -r fork_reply <&8
exec 8<&- 8>&-
got=$(printf '%s' "$fork_reply" | sed -n 's/.*"value":\(-\{0,1\}[0-9][0-9]*\).*/\1/p')
if [ -z "${want:-}" ] || [ "$got" != "$want" ]; then
  echo "ci_smoke: cascade:w=1 value ${got:-none} != sequential ${want:-none}: $fork_reply" >&2
  exit 1
fi
echo "ci_smoke: fork ok (value $got = $want)" >&2

# Second scrape: counters must be monotone, and the storm guarantees
# strictly more requests than the first scrape saw.
scrape2=$(scrape)
req2=$(requests_total "$scrape2")
[ -n "${req2:-}" ] || { echo "ci_smoke: second /metrics scrape lost gtserve_requests_total" >&2; exit 1; }
if [ "$req2" -le "$req1" ]; then
  echo "ci_smoke: gtserve_requests_total did not increase ($req1 -> $req2)" >&2
  exit 1
fi
echo "ci_smoke: /metrics ok (requests_total $req1 -> $req2)" >&2

# SIGINT must drain the server and let it exit cleanly.
kill -INT "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "ci_smoke: server did not exit cleanly on SIGINT" >&2
  exit 1
fi
SERVER_PID=""
trap - EXIT
echo "ci_smoke: ok ($ok successful replies, clean SIGINT drain)" >&2

# ---------------------------------------------------------------------
# Fan-in smoke: a fixed pool of I/O threads must hold >= 1k concurrent
# connections without growing the thread census or shedding work.  The
# loadgen opens FAN_CONNS mostly-idle connections alongside a small
# active pipelined load; the process's /proc thread count is sampled
# before and during the run (it may only grow by a rounding margin),
# fan_in_failed must be zero, no request may shed, and RSS stays under
# a generous ceiling — with per-connection reader threads this check
# is unpassable, which is the point.  Run against the server here and
# against the router (the same connection loop) in the router section.
FAN_CONNS="${SMOKE_FAN_CONNS:-1000}"
ulimit -n 16384 2>/dev/null || echo "ci_smoke: warn: could not raise fd limit" >&2

# fan_in PORT PID WHAT: the fan-in load at 127.0.0.1:PORT, checked on
# process PID; WHAT names it in messages.
fan_in() {
  local port=$1 pid=$2 what=$3
  # One round-trip before the idle census: the listener binds before
  # the thread set finishes spawning, and sampling too early would
  # make normal startup look like census growth.
  exec 8<>"/dev/tcp/127.0.0.1/$port"
  printf '{"op":"stats"}\n' >&8
  IFS= read -r _ <&8
  exec 8<&- 8>&-
  local threads_idle threads_loaded rss_kb
  threads_idle=$(sed -n 's/^Threads:[[:space:]]*//p' "/proc/$pid/status" 2>/dev/null || echo 0)

  json=$("$BIN" loadgen --addr "127.0.0.1:$port" --rps 0 --duration "$DUR" --conns 2 \
    --pipeline 4 --connections "$FAN_CONNS" --spec worst:d=2,n=8 \
    --algo cascade:w=1 --json &
    LG=$!
    sleep 1
    sed -n 's/^Threads:[[:space:]]*//p' "/proc/$pid/status" > /tmp/ci_smoke_threads.$$ 2>/dev/null || true
    awk '/^VmRSS:/ {print $2}' "/proc/$pid/status" > /tmp/ci_smoke_rss.$$ 2>/dev/null || true
    wait "$LG")
  echo "ci_smoke: $what fan-in $json"
  threads_loaded=$(cat /tmp/ci_smoke_threads.$$ 2>/dev/null || echo 0)
  rss_kb=$(cat /tmp/ci_smoke_rss.$$ 2>/dev/null || echo 0)
  rm -f /tmp/ci_smoke_threads.$$ /tmp/ci_smoke_rss.$$

  local ok shed transport fan_open fan_failed fail=""
  ok=$(field ok)
  shed=$(field shed)
  transport=$(field transport_errors)
  fan_open=$(field fan_in_open)
  fan_failed=$(field fan_in_failed)
  [ "${ok:-0}" -gt 0 ] || { echo "ci_smoke: $what fan-in run got no successful replies" >&2; fail=1; }
  [ "${shed:-0}" -eq 0 ] || { echo "ci_smoke: $what fan-in run shed $shed requests" >&2; fail=1; }
  [ "${transport:-0}" -eq 0 ] || { echo "ci_smoke: $what fan-in run hit $transport transport errors" >&2; fail=1; }
  [ "${fan_failed:-1}" -eq 0 ] || { echo "ci_smoke: $fan_failed $what fan-in connections failed to open" >&2; fail=1; }
  [ "${fan_open:-0}" -eq "$FAN_CONNS" ] || { echo "ci_smoke: $what fan-in held ${fan_open:-0}/$FAN_CONNS connections" >&2; fail=1; }
  if [ "${threads_loaded:-0}" -gt $((threads_idle + 2)) ]; then
    echo "ci_smoke: $what thread census grew under fan-in load ($threads_idle idle -> $threads_loaded loaded)" >&2
    fail=1
  fi
  if [ "${rss_kb:-0}" -gt 131072 ]; then
    echo "ci_smoke: $what RSS ${rss_kb}kB exceeded 128MB under $FAN_CONNS connections" >&2
    fail=1
  fi
  [ -z "$fail" ] || exit 1
  echo "ci_smoke: $what fan-in ok ($fan_open idle conns held, threads $threads_idle -> $threads_loaded, rss ${rss_kb}kB)" >&2
}

"$BIN" serve --addr "$ADDR" --eval-workers 2 --queue-depth 512 \
  --io-threads 2 >/dev/null 2>&1 &
SERVER_PID=$!
trap 'kill -INT "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true' EXIT

up=""
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
    up=1
    break
  fi
  sleep 0.05
done
[ -n "$up" ] || { echo "ci_smoke: fan-in server did not come up on $ADDR" >&2; exit 1; }

fan_in "$PORT" "$SERVER_PID" server

kill -INT "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "ci_smoke: fan-in server did not exit cleanly on SIGINT" >&2
  exit 1
fi
SERVER_PID=""
trap - EXIT

# ---------------------------------------------------------------------
# Router smoke: 1 router fronting 2 replicas.  Burst through the
# router, kill -9 one replica mid-life, burst again — the failover
# must be invisible to clients (no sheds, timeouts, error replies, or
# transport errors) and the router's stats must show retries > 0.

R1_PORT=$((PORT + 10))
R2_PORT=$((PORT + 11))
ROUTE_PORT=$((PORT + 12))
ROUTE_ADDR="127.0.0.1:$ROUTE_PORT"

"$BIN" serve --addr "127.0.0.1:$R1_PORT" --eval-workers 2 --queue-depth 512 \
  >/dev/null 2>&1 &
R1_PID=$!
"$BIN" serve --addr "127.0.0.1:$R2_PORT" --eval-workers 2 --queue-depth 512 \
  >/dev/null 2>&1 &
R2_PID=$!
"$BIN" route --addr "$ROUTE_ADDR" \
  --replicas "127.0.0.1:$R1_PORT,127.0.0.1:$R2_PORT" \
  --retries 5 --probe-interval 25 --probe-timeout 100 >/dev/null 2>&1 &
ROUTER_PID=$!
trap 'for p in "$ROUTER_PID" "$R1_PID" "$R2_PID"; do kill "$p" 2>/dev/null || true; done; wait 2>/dev/null || true' EXIT

up=""
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$ROUTE_PORT") 2>/dev/null; then
    up=1
    break
  fi
  sleep 0.05
done
if [ -z "$up" ]; then
  echo "ci_smoke: router did not come up on $ROUTE_ADDR" >&2
  exit 1
fi

json=$("$BIN" loadgen --addr "$ROUTE_ADDR" --rps 0 --duration "$DUR" --conns 2 \
  --pipeline 4 --spec worst:d=2,n=8 --algo cascade:w=1 --json)
echo "ci_smoke: router burst $json"

ok=$(field ok)
bad=$(field bad)
other=$(field other_error)
transport=$(field transport_errors)

fail=""
[ "${ok:-0}" -gt 0 ] || { echo "ci_smoke: router burst got no successful replies" >&2; fail=1; }
[ "${bad:-0}" -eq 0 ] || { echo "ci_smoke: router burst got $bad bad-request replies" >&2; fail=1; }
[ "${other:-0}" -eq 0 ] || { echo "ci_smoke: router burst got $other unexpected error replies" >&2; fail=1; }
[ "${transport:-0}" -eq 0 ] || { echo "ci_smoke: router burst hit $transport transport errors" >&2; fail=1; }
[ -z "$fail" ] || exit 1

# Cross-tier trace round-trip: pin a client trace id on one eval
# through the router, then pull its span tree back with op:"trace".
# The tree must contain at least one replica-attributed child span
# (the dispatch that actually reached a replica, carrying the echoed
# stage offsets) and every finished span must have monotone offsets
# (end_us >= start_us).
exec 8<>"/dev/tcp/127.0.0.1/$ROUTE_PORT"
printf '{"op":"eval","spec":"worst:d=2,n=8","algo":"seq-solve","trace":{"trace_id":"smoke-trace-1"}}\n' >&8
IFS= read -r traced_eval <&8
printf '{"op":"trace","trace":{"trace_id":"smoke-trace-1"}}\n' >&8
IFS= read -r trace_reply <&8
exec 8<&- 8>&-
case "$traced_eval" in
  *'"ok":true'*'"trace_id":"smoke-trace-1"'*) : ;;
  *) echo "ci_smoke: traced eval through the router went wrong: $traced_eval" >&2; exit 1 ;;
esac
case "$trace_reply" in
  *'"ok":true'*'"trace_id":"smoke-trace-1"'*'"spans":['*) : ;;
  *) echo "ci_smoke: router op:trace lookup failed: $trace_reply" >&2; exit 1 ;;
esac
replica_spans=$(printf '%s' "$trace_reply" | grep -o '"replica":"127\.0\.0\.1:' | wc -l)
[ "${replica_spans:-0}" -ge 1 ] || {
  echo "ci_smoke: trace has no replica child span: $trace_reply" >&2
  exit 1
}
finished_spans=$(printf '%s' "$trace_reply" \
  | grep -o '"start_us":[0-9]*,"end_us":[0-9]*' | wc -l)
[ "${finished_spans:-0}" -ge 1 ] || {
  echo "ci_smoke: trace has no finished spans: $trace_reply" >&2
  exit 1
}
bad_offsets=$(printf '%s' "$trace_reply" \
  | grep -o '"start_us":[0-9]*,"end_us":[0-9]*' \
  | awk -F'[:,]' '$2 + 0 > $4 + 0 { n++ } END { print n + 0 }')
[ "${bad_offsets:-1}" -eq 0 ] || {
  echo "ci_smoke: trace has $bad_offsets span(s) with end_us < start_us: $trace_reply" >&2
  exit 1
}
echo "ci_smoke: trace round-trip ok ($replica_spans replica span(s), $finished_spans finished spans)" >&2

# Fan-in through the router: its client side must hold the same load.
fan_in "$ROUTE_PORT" "$ROUTER_PID" router

# Yank a replica the hard way — mid-burst, so requests are in flight
# toward it and others are still being routed at it.  Distinct keys
# mean roughly half the burst rendezvous-routes toward the corpse;
# the router must absorb every dead connection and re-dispatch.
failover_out="$(mktemp)"
"$BIN" loadgen --addr "$ROUTE_ADDR" --rps 0 --duration 3 --conns 2 \
  --pipeline 4 --spec worst:d=2,n=10 --algo seq-solve --distinct --json \
  > "$failover_out" &
LOADGEN_PID=$!
sleep 1
kill -9 "$R2_PID"
wait "$R2_PID" 2>/dev/null || true
wait "$LOADGEN_PID"
json=$(cat "$failover_out")
rm -f "$failover_out"
echo "ci_smoke: router failover burst $json"

ok=$(field ok)
bad=$(field bad)
shed=$(field shed)
timeout=$(field timeout)
other=$(field other_error)
transport=$(field transport_errors)

fail=""
[ "${ok:-0}" -gt 0 ] || { echo "ci_smoke: failover burst got no successful replies" >&2; fail=1; }
[ "${bad:-0}" -eq 0 ] || { echo "ci_smoke: failover burst got $bad bad-request replies" >&2; fail=1; }
[ "${shed:-0}" -eq 0 ] || { echo "ci_smoke: failover burst shed $shed requests" >&2; fail=1; }
[ "${timeout:-0}" -eq 0 ] || { echo "ci_smoke: failover burst timed out $timeout requests" >&2; fail=1; }
[ "${other:-0}" -eq 0 ] || { echo "ci_smoke: failover burst got $other unexpected error replies" >&2; fail=1; }
[ "${transport:-0}" -eq 0 ] || { echo "ci_smoke: failover burst hit $transport transport errors" >&2; fail=1; }
[ -z "$fail" ] || exit 1

# The router's own ledger must show the failover happened.
exec 8<>"/dev/tcp/127.0.0.1/$ROUTE_PORT"
printf '{"op":"stats"}\n' >&8
IFS= read -r stats_reply <&8
exec 8<&- 8>&-
retries=$(printf '%s' "$stats_reply" | sed -n 's/.*"retries":\([0-9][0-9]*\).*/\1/p')
if [ -z "${retries:-}" ] || [ "$retries" -eq 0 ]; then
  echo "ci_smoke: router stats show no retries after a replica kill: $stats_reply" >&2
  exit 1
fi

# SIGINT must drain the router cleanly; then stop the survivor.
kill -INT "$ROUTER_PID"
if ! wait "$ROUTER_PID"; then
  echo "ci_smoke: router did not exit cleanly on SIGINT" >&2
  exit 1
fi
ROUTER_PID=""
kill -INT "$R1_PID" 2>/dev/null || true
wait "$R1_PID" 2>/dev/null || true
R1_PID=""
trap - EXIT
echo "ci_smoke: router ok ($ok replies through a replica kill, $retries retries)" >&2

# ---------------------------------------------------------------------
# Split smoke: 1 router fronting 3 replicas with scatter-gather
# enabled.  Every eval here is large enough to clear --split-cost, so
# the router decomposes it along the eldest chain and scatters the
# sibling subtrees as subevals (docs/ROUTING.md).

SPLIT_ROUTE_PORT=$((PORT + 23))
SPLIT_ROUTE_ADDR="127.0.0.1:$SPLIT_ROUTE_PORT"
SPLIT_METRICS_PORT=$((PORT + 24))
SPLIT_METRICS_ADDR="127.0.0.1:$SPLIT_METRICS_PORT"
SPLIT_PIDS=""
ROUTER_PID=""

start_split_fleet() { # extra `gtree route` flags as args
  SPLIT_PIDS=""
  local addrs=""
  for i in 20 21 22; do
    local rport=$((PORT + i))
    "$BIN" serve --addr "127.0.0.1:$rport" --eval-workers 2 --queue-depth 1024 \
      >/dev/null 2>&1 &
    SPLIT_PIDS="$SPLIT_PIDS $!"
    addrs="$addrs,127.0.0.1:$rport"
  done
  "$BIN" route --addr "$SPLIT_ROUTE_ADDR" --replicas "${addrs#,}" \
    "$@" >/dev/null 2>&1 &
  ROUTER_PID=$!
  SPLIT_PIDS="$SPLIT_PIDS $ROUTER_PID"
  up=""
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$SPLIT_ROUTE_PORT") 2>/dev/null; then
      up=1
      break
    fi
    sleep 0.05
  done
  [ -n "$up" ] || { echo "ci_smoke: split router did not come up" >&2; exit 1; }
  # The router accepts before every replica is connected; a replica
  # that was not listening yet is connected by the prober later.
  local connected=0
  for _ in $(seq 1 100); do
    connected=$(split_stats | grep -o '"connected":1' | wc -l)
    [ "$connected" -ge 3 ] && break
    sleep 0.05
  done
  [ "$connected" -ge 3 ] || {
    echo "ci_smoke: split router connected $connected of 3 replicas: $(split_stats)" >&2
    exit 1
  }
}

stop_split_fleet() {
  for p in $SPLIT_PIDS; do
    kill "$p" 2>/dev/null || true
    wait "$p" 2>/dev/null || true
  done
  SPLIT_PIDS=""
}
trap 'stop_split_fleet' EXIT

split_stats() { # prints the router's raw stats reply
  exec 8<>"/dev/tcp/127.0.0.1/$SPLIT_ROUTE_PORT"
  printf '{"op":"stats"}\n' >&8
  IFS= read -r stats_reply <&8
  exec 8<&- 8>&-
  printf '%s' "$stats_reply"
}

split_eval() { # spec -> value from one routed eval (must be a split)
  exec 8<>"/dev/tcp/127.0.0.1/$SPLIT_ROUTE_PORT"
  printf '{"op":"eval","spec":"%s","algo":"cascade:w=1","deadline_ms":30000}\n' "$1" >&8
  IFS= read -r eval_reply <&8
  exec 8<&- 8>&-
  case "$eval_reply" in
    *'"ok":true'*'"split":'*) : ;;
    *) echo "ci_smoke: split eval of $1 went wrong: $eval_reply" >&2; exit 1 ;;
  esac
  printf '%s' "$eval_reply" | sed -n 's/.*"value":\(-\{0,1\}[0-9][0-9]*\).*/\1/p'
}

engine_value() { # spec -> the local engine's ground-truth root value
  "$BIN" eval --gen "$1" --algo ab \
    | sed -n 's/^value[[:space:]]*:[[:space:]]*\(-\{0,1\}[0-9][0-9]*\).*/\1/p'
}

start_split_fleet --split-cost 64 --metrics-addr "$SPLIT_METRICS_ADDR"

# One large eval: correct value, and its subevals must have reached
# more than one replica.
spec="minmax:d=3,n=8,seed=1"
want=$(engine_value "$spec")
got=$(split_eval "$spec")
[ "$got" = "$want" ] || { echo "ci_smoke: split eval value $got != engine $want" >&2; exit 1; }
stats=$(split_stats)
splits=$(printf '%s' "$stats" | sed -n 's/.*"splits_total":\([0-9][0-9]*\).*/\1/p')
[ "${splits:-0}" -gt 0 ] || { echo "ci_smoke: no split was planned: $stats" >&2; exit 1; }
used=$(printf '%s' "$stats" | grep -o '"sent":[0-9][0-9]*' | grep -cv ':0$' || true)
[ "${used:-0}" -ge 2 ] || { echo "ci_smoke: split stayed on $used replica(s): $stats" >&2; exit 1; }

# Kill -9 a replica under split-heavy load: the router must absorb
# the dead connections with zero client-visible errors and keep
# returning correct values.  Any subeval in flight on the victim at
# kill time is re-dispatched (subevals_retried), but subevals are
# fast enough that the kill can land between dispatch waves — so the
# smoke accepts either retried > 0 or transport errors on an ejected
# victim as proof the kill was absorbed (the deterministic
# kill-mid-plan re-dispatch check lives in tests/split_e2e.rs).
split_out="$(mktemp)"
"$BIN" loadgen --addr "$SPLIT_ROUTE_ADDR" --rps 0 --duration 3 --conns 4 \
  --pipeline 2 --split-heavy --json > "$split_out" &
LOADGEN_PID=$!
sleep 1
victim=$(printf '%s' "$SPLIT_PIDS" | awk '{print $2}')
kill -9 "$victim" 2>/dev/null || true
wait "$LOADGEN_PID"
json=$(cat "$split_out")
rm -f "$split_out"
echo "ci_smoke: split-heavy kill burst $json"

ok=$(field ok)
fail=""
[ "${ok:-0}" -gt 0 ] || { echo "ci_smoke: split burst got no successful replies" >&2; fail=1; }
for f in bad shed timeout other_error transport_errors; do
  v=$(field "$f")
  [ "${v:-0}" -eq 0 ] || { echo "ci_smoke: split burst saw $v $f" >&2; fail=1; }
done
[ -z "$fail" ] || exit 1

stats=$(split_stats)
retried=$(printf '%s' "$stats" | sed -n 's/.*"subevals_retried":\([0-9][0-9]*\).*/\1/p')
if [ "${retried:-0}" -eq 0 ]; then
  transport=$(printf '%s' "$stats" | grep -o '"transport":[0-9][0-9]*' \
    | grep -cv ':0$' || true)
  ejected=$(printf '%s' "$stats" | grep -c '"state":"ejected"' || true)
  if [ "${transport:-0}" -eq 0 ] || [ "${ejected:-0}" -eq 0 ]; then
    echo "ci_smoke: replica kill left no trace (retried=0, transport=$transport, ejected=$ejected): $stats" >&2
    exit 1
  fi
fi
spec="minmax:d=3,n=8,seed=2"
want=$(engine_value "$spec")
got=$(split_eval "$spec")
[ "$got" = "$want" ] || { echo "ci_smoke: post-kill split value $got != engine $want" >&2; exit 1; }

# One scrape of the router's own /metrics after the split load: every
# TYPE line well-formed, and the split and route-latency series moved.
route_scrape=$(scrape "$SPLIT_METRICS_PORT")
fail=""
bad_types=$(printf '%s\n' "$route_scrape" | grep '^# TYPE ' \
  | grep -cvE '^# TYPE [a-z_][a-z0-9_]* (counter|gauge|histogram)$' || true)
[ "${bad_types:-0}" -eq 0 ] || { echo "ci_smoke: router /metrics has $bad_types malformed TYPE lines" >&2; fail=1; }
printf '%s\n' "$route_scrape" | grep -q '^# TYPE router_route_latency_seconds histogram$' \
  || { echo "ci_smoke: router /metrics is missing the route latency histogram" >&2; fail=1; }
route_splits=$(printf '%s\n' "$route_scrape" | sed -n 's/^router_splits_total \([0-9][0-9]*\)$/\1/p')
[ "${route_splits:-0}" -gt 0 ] || { echo "ci_smoke: router_splits_total is not > 0 after the split load" >&2; fail=1; }
route_count=$(printf '%s\n' "$route_scrape" | sed -n 's/^router_route_latency_seconds_count \([0-9][0-9]*\)$/\1/p')
[ "${route_count:-0}" -gt 0 ] || { echo "ci_smoke: router_route_latency_seconds_count is not > 0" >&2; fail=1; }
[ -z "$fail" ] || exit 1
echo "ci_smoke: router /metrics ok (splits $route_splits, routed $route_count)" >&2
stop_split_fleet
echo "ci_smoke: split fan-out ok ($used replicas used, $retried subevals re-dispatched)" >&2

# Naive-mode cutoff: allones is all-1 leaves under NOR, so the first
# subeval value to land cuts its level — the already-dispatched
# siblings keep running (the router never sends an abort) and their
# late replies are discarded on arrival.  Whether any sibling is
# still in flight when the cutoff value arrives is a genuine race
# (subevals are fast), so one eval observes a discard only most of
# the time; run fresh specs (distinct n, so nothing is cached) until
# one does.  n stays even: an odd NOR depth turns all-1 leaves into a
# root value of 0.
start_split_fleet --split-cost 8 --split-depth 3 --split-naive
discarded=0
for n in 6 8 10 12 14 16; do
  got=$(split_eval "allones:d=4,n=$n")
  [ "$got" = "1" ] || { echo "ci_smoke: naive allones:d=4,n=$n value $got != 1" >&2; exit 1; }
  for _ in $(seq 1 20); do
    stats=$(split_stats)
    discarded=$(printf '%s' "$stats" | sed -n 's/.*"subevals_discarded_on_cutoff":\([0-9][0-9]*\).*/\1/p')
    [ "${discarded:-0}" -gt 0 ] && break
    sleep 0.05
  done
  [ "${discarded:-0}" -gt 0 ] && break
done
[ "${discarded:-0}" -gt 0 ] || {
  echo "ci_smoke: no in-flight loser was ever discarded across 6 naive evals: $stats" >&2
  exit 1
}
stop_split_fleet
trap - EXIT
echo "ci_smoke: split ok ($discarded in-flight losers discarded on cutoff, no aborts)" >&2

# ---------------------------------------------------------------------
# Fleet membership smoke: dynamic join + kill-restart with a warm
# snapshot (docs/ROUTING.md).  A router boots knowing only a seed
# replica; a second replica announces itself mid-load (serve
# --announce sends op:"join") and must take a share of the distinct
# keyspace with zero client-visible errors.  The joiner then drains on
# SIGINT — writing its cache to --snapshot — and rejoins on the same
# address at --generation 2: its stats must show snapshot_restored > 0,
# the router's health must list it at the new generation, and a
# post-restart burst must again be error-free.

SEED_PORT=$((PORT + 30))
JOIN_PORT=$((PORT + 31))
FLEET_ROUTE_PORT=$((PORT + 32))
FLEET_ROUTE_ADDR="127.0.0.1:$FLEET_ROUTE_PORT"
JOIN_ADDR="127.0.0.1:$JOIN_PORT"
SNAP_FILE="$(mktemp -u)"

"$BIN" serve --addr "127.0.0.1:$SEED_PORT" --eval-workers 2 --queue-depth 1024 \
  >/dev/null 2>&1 &
SEED_PID=$!
"$BIN" route --addr "$FLEET_ROUTE_ADDR" --replicas "127.0.0.1:$SEED_PORT" \
  --retries 5 --probe-interval 25 --probe-timeout 100 >/dev/null 2>&1 &
ROUTER_PID=$!
JOIN_PID=""
trap 'for p in "$ROUTER_PID" "$SEED_PID" "$JOIN_PID"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true; done; wait 2>/dev/null || true; rm -f "$SNAP_FILE"' EXIT

up=""
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$FLEET_ROUTE_PORT") 2>/dev/null; then
    up=1
    break
  fi
  sleep 0.05
done
[ -n "$up" ] || { echo "ci_smoke: membership router did not come up" >&2; exit 1; }

fleet_health() { # prints the router's raw health reply
  exec 8<>"/dev/tcp/127.0.0.1/$FLEET_ROUTE_PORT"
  printf '{"op":"health"}\n' >&8
  IFS= read -r health_reply <&8
  exec 8<&- 8>&-
  printf '%s' "$health_reply"
}

replica_stats() { # port -> the replica's raw stats reply
  exec 8<>"/dev/tcp/127.0.0.1/$1"
  printf '{"op":"stats"}\n' >&8
  IFS= read -r stats_reply <&8
  exec 8<&- 8>&-
  printf '%s' "$stats_reply"
}

# Health rows render as {"addr":...,"weight":...,"generation":...,
# "tier":...}; a member is routable below tier 3 (ejected).
routable_at_gen() { # generation -> grep success if JOIN_ADDR is listed
  fleet_health \
    | grep -q '"addr":"'"$JOIN_ADDR"'","weight":[0-9]*,"generation":'"$1"',"tier":[0-2]'
}

# Distinct-key load across the join: every reply must stay clean while
# the member set grows under it.
join_out="$(mktemp)"
"$BIN" loadgen --addr "$FLEET_ROUTE_ADDR" --rps 0 --duration 3 --conns 2 \
  --pipeline 4 --spec worst:d=2,n=10 --algo seq-solve --distinct --json \
  > "$join_out" &
LOADGEN_PID=$!
sleep 0.5
"$BIN" serve --addr "$JOIN_ADDR" --eval-workers 2 --queue-depth 1024 \
  --announce "$FLEET_ROUTE_ADDR" --snapshot "$SNAP_FILE" --generation 1 \
  >/dev/null 2>&1 &
JOIN_PID=$!

admitted=""
for _ in $(seq 1 100); do
  if routable_at_gen 1; then
    admitted=1
    break
  fi
  sleep 0.05
done
[ -n "$admitted" ] || {
  echo "ci_smoke: announced replica was never admitted: $(fleet_health)" >&2
  exit 1
}
wait "$LOADGEN_PID"
json=$(cat "$join_out")
rm -f "$join_out"
echo "ci_smoke: join burst $json"

ok=$(field ok)
fail=""
[ "${ok:-0}" -gt 0 ] || { echo "ci_smoke: join burst got no successful replies" >&2; fail=1; }
for f in bad shed timeout other_error transport_errors; do
  v=$(field "$f")
  [ "${v:-0}" -eq 0 ] || { echo "ci_smoke: join burst saw $v $f" >&2; fail=1; }
done
[ -z "$fail" ] || exit 1

# The joiner owns a share of the keyspace under rendezvous hashing:
# keep sending distinct keys until one lands on it and is evaluated
# there (stats "evaluated" counts engine runs, not stats probes).
joined_served=""
salt=900000
for _ in $(seq 1 200); do
  salt=$((salt + 1))
  exec 8<>"/dev/tcp/127.0.0.1/$FLEET_ROUTE_PORT"
  printf '{"op":"eval","spec":"worst:d=2,n=6,seed=%s","algo":"seq-solve","deadline_ms":10000}\n' "$salt" >&8
  IFS= read -r _ <&8
  exec 8<&- 8>&-
  evaluated=$(replica_stats "$JOIN_PORT" | sed -n 's/.*"evaluated":\([0-9][0-9]*\).*/\1/p')
  if [ "${evaluated:-0}" -gt 0 ]; then
    joined_served=1
    break
  fi
done
[ -n "$joined_served" ] || {
  echo "ci_smoke: the joined replica never evaluated a routed key" >&2
  exit 1
}

# SIGINT the joiner: the drain must write its cache snapshot.
kill -INT "$JOIN_PID"
if ! wait "$JOIN_PID"; then
  echo "ci_smoke: joiner did not exit cleanly on SIGINT" >&2
  exit 1
fi
JOIN_PID=""
[ -s "$SNAP_FILE" ] || { echo "ci_smoke: drain wrote no snapshot at $SNAP_FILE" >&2; exit 1; }

# Restart on the SAME address (same rendezvous identity) at a higher
# generation.  The freed port can linger briefly, so retry the bind.
restarted=""
for _ in $(seq 1 40); do
  "$BIN" serve --addr "$JOIN_ADDR" --eval-workers 2 --queue-depth 1024 \
    --announce "$FLEET_ROUTE_ADDR" --snapshot "$SNAP_FILE" --generation 2 \
    >/dev/null 2>&1 &
  JOIN_PID=$!
  for _ in $(seq 1 20); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$JOIN_PORT") 2>/dev/null; then
      restarted=1
      break
    fi
    kill -0 "$JOIN_PID" 2>/dev/null || break
    sleep 0.05
  done
  [ -n "$restarted" ] && break
  wait "$JOIN_PID" 2>/dev/null || true
  JOIN_PID=""
  sleep 0.1
done
[ -n "$restarted" ] || { echo "ci_smoke: joiner could not rebind $JOIN_ADDR" >&2; exit 1; }

restored=$(replica_stats "$JOIN_PORT" | sed -n 's/.*"snapshot_restored":\([0-9][0-9]*\).*/\1/p')
[ "${restored:-0}" -gt 0 ] || {
  echo "ci_smoke: restart restored no snapshot entries" >&2
  exit 1
}

rejoined=""
for _ in $(seq 1 100); do
  if routable_at_gen 2; then
    rejoined=1
    break
  fi
  sleep 0.05
done
[ -n "$rejoined" ] || {
  echo "ci_smoke: restarted replica never rejoined at generation 2: $(fleet_health)" >&2
  exit 1
}

# Post-restart burst: the healed two-member fleet must again be clean.
json=$("$BIN" loadgen --addr "$FLEET_ROUTE_ADDR" --rps 0 --duration "$DUR" --conns 2 \
  --pipeline 4 --spec worst:d=2,n=10 --algo seq-solve --distinct --json)
echo "ci_smoke: rejoin burst $json"

ok=$(field ok)
fail=""
[ "${ok:-0}" -gt 0 ] || { echo "ci_smoke: rejoin burst got no successful replies" >&2; fail=1; }
for f in bad shed timeout other_error transport_errors; do
  v=$(field "$f")
  [ "${v:-0}" -eq 0 ] || { echo "ci_smoke: rejoin burst saw $v $f" >&2; fail=1; }
done
[ -z "$fail" ] || exit 1

for p in "$ROUTER_PID" "$JOIN_PID" "$SEED_PID"; do
  kill -INT "$p" 2>/dev/null || true
  wait "$p" 2>/dev/null || true
done
ROUTER_PID=""
SEED_PID=""
JOIN_PID=""
rm -f "$SNAP_FILE"
trap - EXIT
echo "ci_smoke: membership ok (join under load, $restored entries restored, rejoined at generation 2)" >&2
