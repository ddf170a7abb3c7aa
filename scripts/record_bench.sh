#!/bin/sh
# Record one point on the repo's perf trajectory (ROADMAP: BENCH_N.json
# per PR). Runs bdbench in its three modes and assembles one JSON
# object:
#
#   workload  — in-process paper workloads (Read / WordCount, scale 1)
#   net       — Zipf 95/5 OLTP over real sockets against two
#               self-hosted shard servers (bdbench -listen), with a
#               wire trace id stamped on every 8th batch, the
#               before/after /metrics delta embedded per run, a 5ms
#               99.9% SLO evaluated over the run, and one assembled
#               cross-process trace (-trace) as the PR 8 marker
#   analytics — distributed wordcount across two self-hosted executor
#               servers (task submits + shuffle fetches over the wire)
#   resize    — elastic resize under load (bdbench -net -resize): a
#               member joins and another gracefully leaves mid-run,
#               with per-window throughput/latency, migration counters
#               and the convergence verdict as the PR 9 marker
#   federation — one bdtop poll of the net-phase servers (-once -json):
#               every member's exact registry snapshot fetched over the
#               wire and merged, embedded whole as the PR 10 marker
#   replicated — BenchmarkTransport/net/r=2/depth=8: half-write batches
#               at R=2 over two loopback servers (one primary and one
#               mirror RPC per sub-batch), replicas compared entry for
#               entry after the run — the PR 12 marker
#
# Usage: sh scripts/record_bench.sh [out.json] [pr] [prev.json]
#   out.json  — artifact path (default BENCH_12.json)
#   pr        — PR number stamped into the artifact (default 12)
#   prev.json — previous trajectory point; when it exists, a vsPrev
#               section with throughput deltas is embedded
# Run from the repo root. CI uploads the result as an artifact so every
# future PR extends the curve; the committed BENCH_N.json files are the
# durable history.
set -e

OUT="${1:-BENCH_12.json}"
PR="${2:-12}"
PREV="${3:-BENCH_10.json}"
BIN="$(mktemp -d)"
P1=""
P2=""
cleanup() {
    [ -z "$P1" ] || kill "$P1" 2>/dev/null || true
    [ -z "$P2" ] || kill "$P2" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

command -v jq >/dev/null 2>&1 || {
    echo "record_bench: jq is required to assemble the artifact" >&2
    exit 1
}
go build -o "$BIN/bdbench" ./cmd/bdbench
go build -o "$BIN/bdtop" ./cmd/bdtop

# ---- workload mode ------------------------------------------------------
"$BIN/bdbench" -workload Read -json "$BIN/w_read.json" >/dev/null
"$BIN/bdbench" -workload WordCount -json "$BIN/w_wc.json" >/dev/null

# ---- net mode (self-hosted shard servers) -------------------------------
A1=127.0.0.1:7493
A2=127.0.0.1:7494
"$BIN/bdbench" -listen "$A1" >/dev/null 2>&1 &
P1=$!
"$BIN/bdbench" -listen "$A2" >/dev/null 2>&1 &
P2=$!
# bdbench's dial retries cover server startup; no sleep needed.
"$BIN/bdbench" -net -addr "$A1,$A2" -ops 20000 -rows 2000 -clients 4 \
    -traceevery 8 -slo 5ms:0.999 -trace -json "$BIN/net.json" >/dev/null
# One federation poll while both servers are still up: bdtop pulls each
# member's exact registry snapshot over the wire (OpMetricsFetch) and
# merges them; the whole document rides the artifact.
"$BIN/bdtop" -addr "$A1,$A2" -once -json >"$BIN/federation.json"
kill "$P1" "$P2" 2>/dev/null || true
wait "$P1" 2>/dev/null || true
wait "$P2" 2>/dev/null || true
P1=""
P2=""

# ---- resize mode (self-hosted elastic cluster) --------------------------
"$BIN/bdbench" -net -resize -dur 4s -rows 2000 -clients 4 \
    -json "$BIN/resize.json" >/dev/null

# ---- analytics mode (self-hosted executor servers) ----------------------
"$BIN/bdbench" -analytics wordcount -nodes 2 -lines 8000 \
    -json "$BIN/analytics.json" >/dev/null

# ---- replicated-write point (go test -bench) ----------------------------
go test -run '^$' -bench 'BenchmarkTransport/net/r=2' -benchtime 5000x -benchmem . >"$BIN/r2.txt"
awk '/^BenchmarkTransport\/net\/r=2/ {
        for (i = 3; i < NF; i += 2) m[$(i + 1)] = $i
        printf "{\"bench\": \"%s\", \"batches\": %d, \"opsPerSec\": %s, \"latP99Us\": %s, \"allocsPerBatch\": %s}\n",
            $1, $2, m["ops/s"], m["p99us"], m["allocs/op"]
    }' "$BIN/r2.txt" >"$BIN/replicated.json"

# ---- assemble + validate ------------------------------------------------
GO_VERSION="$(go env GOVERSION)" jq -n \
    --slurpfile workload_read "$BIN/w_read.json" \
    --slurpfile workload_wordcount "$BIN/w_wc.json" \
    --slurpfile net "$BIN/net.json" \
    --slurpfile analytics "$BIN/analytics.json" \
    --slurpfile resize "$BIN/resize.json" \
    --slurpfile federation "$BIN/federation.json" \
    --slurpfile replicated "$BIN/replicated.json" \
    --argjson pr "$PR" \
    '{
        schema: "bdbench-trajectory/1",
        pr: $pr,
        go: $ENV.GO_VERSION,
        workload: ($workload_read[0] + $workload_wordcount[0]),
        net: $net[0],
        analytics: $analytics[0],
        resize: $resize[0],
        federation: $federation[0],
        replicated: $replicated[0]
    }' >"$OUT"

# Fold in throughput deltas against the previous trajectory point, so
# each BENCH_N.json carries its own before/after story.
if [ -f "$PREV" ]; then
    jq --slurpfile prev "$PREV" '
        def pct(cur; old): if (old // 0) > 0 then ((cur / old - 1) * 100 * 10 | round) / 10 else null end;
        . + {vsPrev: {
            pr: $prev[0].pr,
            netOpsPerSecPct: pct(.net.opsPerSec; $prev[0].net.opsPerSec),
            netLatP99UsPct: pct(.net.latP99Us; $prev[0].net.latP99Us),
            replicatedOpsPerSecPct: pct(.replicated.opsPerSec; $prev[0].replicated.opsPerSec),
            analyticsItemsPerSecPct: pct(.analytics.itemsPerSec; $prev[0].analytics.itemsPerSec),
            workloadPct: [.workload[] as $w | {
                workload: $w.workload,
                valuePct: pct($w.value; ($prev[0].workload[] | select(.workload == $w.workload) | .value))
            }]
        }}' "$OUT" >"$OUT.tmp" && mv "$OUT.tmp" "$OUT"
fi
jq -e \
    '.net.opsPerSec > 0 and
     (.net.metrics["bd_transport_client_requests_total"] // .net.ops) > 0 and
     .net.slo[0].total > 0 and
     .net.trace.missingHops == 0 and
     (.net.trace.criticalPath | length) >= 2 and
     .analytics.itemsPerSec > 0 and
     .analytics.metrics["bd_analytics_jobs_total"] == 1 and
     .resize.converged and
     .resize.lostKeys == 0 and
     .resize.migratedBytes > 0 and
     (.resize.windows | length) == 4 and
     ([.resize.windows[].opsPerSec] | min) > 0 and
     (.federation.nodes | length) == 2 and
     (.federation.errors // {} | length) == 0 and
     ([.federation.merged.families[] | select(.name == "bd_transport_requests_total") | .series[].value] | add) > 0 and
     .replicated.opsPerSec > 0 and
     (.workload | length) == 2' \
    "$OUT" >/dev/null || {
    echo "record_bench: $OUT failed validation" >&2
    exit 1
}
echo "record_bench: wrote $OUT"
jq -r '"  net: \(.net.opsPerSec | floor) ops/s  analytics: \(.analytics.itemsPerSec | floor) rec/s  resize: \([.resize.windows[].opsPerSec] | min | floor)+ ops/s through epoch \(.resize.epoch)  federation: \(.federation.nodes | length) nodes  workloads: \(.workload | length)"' "$OUT"
