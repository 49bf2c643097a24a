#!/bin/sh
# serve-smoke: boot the daemon, hit every endpoint once through the
# client (an async trace replayed locally and on the daemon included),
# and assert that a repeated advise is served from the advice
# cache without recomputation, and that a deep (ψ = 19) election
# answers verified.  Then restart the daemon on the same
# --cache-dir and assert the disk tier answers with zero recomputation,
# and scrape the HTTP plane (/healthz, /metrics) with curl.  The
# daemon's final metrics snapshot is written to SERVE_METRICS (and the
# Prometheus scrape to SERVE_PROM) so CI can upload both as artifacts
# when the smoke test fails.  A last leg restarts the daemon with a
# --cache-max-bytes budget below the advice tier's size and asserts that
# fresh writes evict the tier back under it.
#
# Expects the tree to be built already (run `dune build @all` first, or
# go through `make serve-smoke`); the binary is invoked directly so no
# dune lock is held while the daemon runs.
#
# Hardened against the two classic smoke-test flakes:
#   - readiness is probed with a real request (`client stats`), not by
#     watching for the socket file — a bound-but-not-yet-accepting
#     daemon, or a stale socket file from a crashed run, both fool the
#     file check;
#   - all scratch lives in a private mktemp dir, and the cleanup trap
#     fires on INT/TERM/HUP as well as normal exit, so an interrupted
#     run never leaves a daemon or a half-written store behind.
set -eu

CLI=${CLI:-./_build/default/bin/shades_cli.exe}
SERVE_SOCKET=${SERVE_SOCKET:-/tmp/shades_serve_smoke.sock}
SERVE_HTTP_SOCKET=${SERVE_HTTP_SOCKET:-/tmp/shades_serve_smoke_http.sock}
SERVE_METRICS=${SERVE_METRICS:-/tmp/shades_serve_metrics.json}
SERVE_PROM=${SERVE_PROM:-${SERVE_METRICS%.json}.prom}

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    exit 1
}

[ -x "$CLI" ] || fail "$CLI not built (run: dune build @all)"

WORK=$(mktemp -d "${TMPDIR:-/tmp}/shades_serve_smoke.XXXXXX") \
    || fail "mktemp failed"
SERVE_PID=

cleanup() {
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    rm -f "$SERVE_SOCKET" "$SERVE_HTTP_SOCKET"
    rm -rf "$WORK"
}
trap cleanup EXIT
trap 'cleanup; exit 130' INT
trap 'cleanup; exit 143' TERM HUP

# start_daemon METRICS_OUT [SERVE_ARGS...]
start_daemon() {
    metrics_out=$1
    shift
    rm -f "$SERVE_SOCKET" "$SERVE_HTTP_SOCKET"
    "$CLI" serve --listen "unix:$SERVE_SOCKET" \
        --http "unix:$SERVE_HTTP_SOCKET" \
        --cache-dir "$WORK/cache" \
        --metrics-out "$metrics_out" -q "$@" &
    SERVE_PID=$!
    # Readiness: the daemon is up when it answers a request, and only
    # then.  Bounded poll (~10s) with a liveness check each lap so a
    # daemon that died during startup fails fast instead of timing out.
    i=0
    until client stats > /dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "daemon never answered on $SERVE_SOCKET"
        kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon exited during startup"
        sleep 0.1
    done
}

stop_daemon() {
    client shutdown > /dev/null || fail "shutdown"
    wait "$SERVE_PID" || fail "daemon exited nonzero"
    SERVE_PID=
}

client() {
    "$CLI" client --connect "unix:$SERVE_SOCKET" "$@"
}

HAVE_CURL=
command -v curl > /dev/null 2>&1 && HAVE_CURL=1
[ -n "$HAVE_CURL" ] || echo "serve-smoke: curl not found, skipping HTTP legs" >&2

start_daemon "$SERVE_METRICS"

# advise, twice: the repeat must be answered from the cache
client advise -g gclass:3,1,2 -t pe > "$WORK/cold.json" \
    || fail "cold advise"
grep -q '"cached":false' "$WORK/cold.json" \
    || fail "first advise claims to be cached"
client advise -g gclass:3,1,2 -t pe > "$WORK/warm.json" \
    || fail "warm advise"
grep -q '"cached":true' "$WORK/warm.json" \
    || fail "repeated advise was not served from the cache"

# elect, then feed the claimed outputs back through verify
client elect -g path:6 -t pe > "$WORK/elect.json" || fail "elect"
grep -q '"verified":true' "$WORK/elect.json" || fail "elect verdict"
outputs=$(sed 's/.*"outputs"://; s/,"graph".*//' "$WORK/elect.json")
client verify -g path:6 -t pe --outputs "$outputs" > /dev/null \
    || fail "verify rejected the daemon's own outputs"

# elect again through the vertex-sharded engine: same graph, same
# task, so the advice comes from the cache and the outputs must agree
# with the sequential run byte-for-byte
client elect -g path:6 -t pe --engine sharded --domains 2 \
    > "$WORK/elect_sharded.json" || fail "sharded elect"
grep -q '"engine":"sharded"' "$WORK/elect_sharded.json" \
    || fail "sharded elect did not echo its engine"
grep -q '"verified":true' "$WORK/elect_sharded.json" \
    || fail "sharded elect verdict"
grep -q '"cached":true' "$WORK/elect_sharded.json" \
    || fail "sharded elect did not reuse the cached advice"
sharded_outputs=$(sed 's/.*"outputs"://; s/,"graph".*//' \
    "$WORK/elect_sharded.json")
[ "$outputs" = "$sharded_outputs" ] \
    || fail "sharded elect outputs diverge from sequential"

# batch: three requests in one frame, answered in order, with the
# failing item isolated in its own slot (hence client exit 1)
if client batch --requests \
    '[{"op":"advise","graph":"gclass:3,1,2","task":"pe"},{"op":"stats"},{"op":"nope"}]' \
    > "$WORK/batch.json"
then fail "batch with a failing item should exit 1"
else [ $? -eq 1 ] || fail "batch exit code"; fi
grep -q '"count":3' "$WORK/batch.json" || fail "batch reply count"
grep -q '"unknown-op"' "$WORK/batch.json" \
    || fail "failing batch item was not isolated as unknown-op"
grep -q '"cached":true' "$WORK/batch.json" \
    || fail "batched advise was not served from the cache"

# verify-trace: a freshly recorded SHTR trace must replay clean
"$CLI" trace record -g path:6 -t pe -o "$WORK/smoke.shtr" > /dev/null \
    || fail "trace record"
client verify-trace --trace "$WORK/smoke.shtr" > /dev/null \
    || fail "verify-trace"

# the async re-execution path: a trace recorded through the seeded
# α-synchronizer must replay clean both locally (`trace replay`) and
# on the daemon (`verify-trace`), which share one re-execution function
"$CLI" trace record -g path:6 -t pe --async --seed 3 \
    -o "$WORK/async.shtr" > /dev/null || fail "async trace record"
"$CLI" trace replay -f "$WORK/async.shtr" > /dev/null \
    || fail "async trace replay"
client verify-trace --trace "$WORK/async.shtr" > "$WORK/async_verify.json" \
    || fail "async verify-trace"
grep -q '"valid":true' "$WORK/async_verify.json" \
    || fail "async verify-trace verdict"

# the HTTP plane: /healthz answers ok, /metrics is Prometheus text
# with the documented series (DESIGN §13); keep the scrape as a CI
# artifact next to the JSON snapshot
if [ -n "$HAVE_CURL" ]; then
    [ "$(curl -sf --unix-socket "$SERVE_HTTP_SOCKET" http://daemon/healthz)" \
        = "ok" ] || fail "healthz"
    curl -sf --unix-socket "$SERVE_HTTP_SOCKET" http://daemon/metrics \
        > "$SERVE_PROM" || fail "metrics scrape"
    for series in shades_uptime_seconds shades_advice_cache_hits_total \
        shades_advise_computes_total shades_op_advise_seconds_total \
        shades_batch_items_total shades_result_cache_misses_total; do
        grep -q "^$series " "$SERVE_PROM" \
            || fail "metrics scrape lacks $series"
    done
    grep -q '^# TYPE shades_requests_total counter' "$SERVE_PROM" \
        || fail "metrics scrape lacks TYPE lines"
fi

# stats: of all the advises above, the oracle must have run exactly
# twice (gclass cold + the path:6 inside the first sync elect); the
# warm advise, the sharded elect and the batched advise are cache hits
client stats > "$WORK/stats.json" || fail "stats"
grep -q '"advise_computes":{"kind":"counter","value":2}' "$WORK/stats.json" \
    || { cp "$WORK/stats.json" "${SERVE_METRICS%.json}.stats-on-fail.json" \
             2>/dev/null || true; \
         fail "unexpected oracle-run count"; }

# a deep minimum-time election: ψ_PPE = 19 on path:40, where one
# node's explicit depth-19 view has a million nodes; the map-advice
# nodes look their view up in the interned map instead of rebuilding
# it, so this answers in well under a second
client elect -g path:40 -t ppe > "$WORK/elect_deep.json" || fail "deep elect"
grep -q '"verified":true' "$WORK/elect_deep.json" || fail "deep elect verdict"

stop_daemon
[ -f "$SERVE_METRICS" ] || fail "daemon wrote no metrics snapshot"

# restart leg: a fresh daemon on the same --cache-dir must answer the
# whole mix above from the disk tier — cached replies, zero oracle or
# engine runs
start_daemon "$WORK/metrics-restart.json"
client advise -g gclass:3,1,2 -t pe > "$WORK/restart_advise.json" \
    || fail "restart advise"
grep -q '"cached":true' "$WORK/restart_advise.json" \
    || fail "restarted daemon recomputed advice the disk tier holds"
client elect -g path:6 -t pe > "$WORK/restart_elect.json" \
    || fail "restart elect"
grep -q '"result_cached":true' "$WORK/restart_elect.json" \
    || fail "restarted daemon recomputed an election the disk tier holds"
client stats > "$WORK/stats-restart.json" || fail "restart stats"
for c in advise_computes elect_computes; do
    if grep -q "\"$c\"" "$WORK/stats-restart.json"; then
        grep -q "\"$c\":{\"kind\":\"counter\",\"value\":0}" \
            "$WORK/stats-restart.json" \
            || { cp "$WORK/stats-restart.json" \
                     "${SERVE_METRICS%.json}.stats-on-fail.json" \
                     2>/dev/null || true; \
                 fail "restarted daemon recomputed ($c nonzero)"; }
    fi
done
stop_daemon

# budget leg: restart with a byte budget below the advice tier's size;
# fresh advises must evict oldest files until the tier fits again
ADVICE_DIR="$WORK/cache/advice"
tier_bytes() {
    find "$ADVICE_DIR" -type f ! -name '*.tmp.*' -exec cat {} + | wc -c
}
budget=$(( $(tier_bytes) / 2 ))
start_daemon "$WORK/metrics-budget.json" --cache-max-bytes "$budget"
for n in 7 8 9; do
    client advise -g "path:$n" -t pe > /dev/null || fail "budget advise path:$n"
done
client stats > "$WORK/stats-budget.json" || fail "budget stats"
stop_daemon
evictions=$(sed -n \
    's/.*"advice_cache_disk_evictions":{"kind":"counter","value":\([0-9]*\)}.*/\1/p' \
    "$WORK/stats-budget.json")
[ "${evictions:-0}" -gt 0 ] \
    || { cp "$WORK/stats-budget.json" \
             "${SERVE_METRICS%.json}.stats-on-fail.json" 2>/dev/null || true; \
         fail "budget of $budget bytes evicted nothing"; }
bytes=$(tier_bytes)
files=$(find "$ADVICE_DIR" -type f ! -name '*.tmp.*' | wc -l)
[ "$bytes" -le "$budget" ] || [ "$files" -eq 1 ] \
    || fail "advice tier holds $bytes bytes in $files files, budget $budget"
[ -z "$(find "$WORK/cache" -name '*.tmp.*')" ] \
    || fail "temp files left behind under the budget"

echo "serve-smoke: PASS (metrics: $SERVE_METRICS, prom: $SERVE_PROM)"
