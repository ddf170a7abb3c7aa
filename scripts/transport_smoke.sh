#!/bin/sh
# Transport smoke test, seven phases.
#
# Phase 1 — serve + drain: two bdserve shard servers in separate
# processes, 1k OLTP ops driven over real sockets by bdbench -net, whose
# -json record must carry the servers' own engine work (the bd_engine_*
# deltas come from the servers' registries over OpMetricsFetch, not from
# the client process), then a SIGTERM graceful drain that must exit 0 on
# both servers.
#
# Phase 2 — failover: two bdserve processes joined with replication 2,
# bdbench -net -chaos driving load for a fixed duration while one server
# is SIGKILLed mid-run and restarted. The client must keep serving from
# the surviving replica (exit 0), the restarted server must rejoin, the
# writes it missed must reach it through the chunked hint replay (batch
# frames, none pending at exit), and both servers must drain cleanly.
#
# Phase 3 — distributed analytics: a wordcount job planned across the
# two bdserve processes' task executors, its result digest diffed
# against the in-process MapReduce reference (bdbench -analytics -local)
# — the distributed-equals-local contract, checked across real process
# boundaries.
#
# Phase 4 — observability: two bdserve processes with -livez HTTP muxes,
# traced bdbench -net load, then GET /metrics scraped from both servers
# mid-run. Asserts the per-opcode transport counters moved, traced
# requests were seen on the wire, and after a SIGKILL + restart the
# bd_cluster_members_down gauge on the survivor returns to 0.
#
# Phase 5 — distributed tracing: a traced replicated Put across two
# bdserve processes, every hop's spans fetched back over the wire
# (OpTraceFetch) and assembled by bdbench -trace. Asserts the printed
# tree carries the client, both server processes and the coordinator's
# replication fan-out, that every layer's phase annotations (queue,
# exec, replicate) are present, and that the -json record's critical
# path is a parent-linked chain down to a server hop.
#
# Phase 6 — elastic resize: two bdserve processes form an elastic
# cluster (epoch-versioned view, R=2), bdbench -net -elastic drives load
# while a third bdserve live-joins and one of the originals is SIGKILLed
# mid-run. Asserts the client kept serving across both membership
# changes (exit 0), the survivors converge on one epoch with migration
# settled and the dead member declared out of the ring, online migration
# actually moved bytes, and both survivors then drain out gracefully.
#
# Phase 7 — cluster observability plane: two elastic bdserve processes
# take bdbench load, quiesce, and then one member's /clusterz (the
# federated view, DESIGN.md §15) must report per-opcode request totals
# exactly equal to the sum of both members' own /metrics — the
# federation merges exact counters, not scraped approximations. A third
# member then live-joins and /eventz must show the join's epoch advance
# on the merged cross-node event timeline.
#
# Run from the repo root (CI runs it after go test).
set -e

BIN="$(mktemp -d)"
P1=""
P2=""
P3=""
PB=""
cleanup() {
    # Kill anything still running (e.g. bdbench failed before the
    # orderly TERM below) so CI ports are never left occupied. `|| true`
    # keeps an already-dead pid from tripping set -e inside the trap.
    [ -z "$P1" ] || kill "$P1" 2>/dev/null || true
    [ -z "$P2" ] || kill "$P2" 2>/dev/null || true
    [ -z "$P3" ] || kill "$P3" 2>/dev/null || true
    [ -z "$PB" ] || kill "$PB" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT
go build -o "$BIN/bdserve" ./cmd/bdserve
go build -o "$BIN/bdbench" ./cmd/bdbench

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "$1"
    else
        wget -qO- "$1"
    fi
}

# ---- Phase 1: serve + graceful drain ------------------------------------

A1=127.0.0.1:7471
A2=127.0.0.1:7472
"$BIN/bdserve" -addr "$A1" &
P1=$!
"$BIN/bdserve" -addr "$A2" -shards 2 &
P2=$!

# bdbench's dial retries cover server startup; no sleep needed.
"$BIN/bdbench" -net -addr "$A1,$A2" -ops 1000 -rows 500 -clients 4 \
    -json "$BIN/phase1.json"
# The run record's metrics are server-side deltas over the timed phase:
# the 95/5 mix must show up as engine reads and writes on the servers. A
# delta taken in the client process reads 0 for both.
for family in bd_engine_gets_total bd_engine_puts_total; do
    if ! grep -Eq "\"$family\": [1-9]" "$BIN/phase1.json"; then
        echo "transport smoke: -json record carries no server-side $family delta" >&2
        grep 'bd_engine' "$BIN/phase1.json" >&2 || true
        exit 1
    fi
done

kill -TERM "$P1" "$P2"
# `|| Ex=$?` keeps a non-zero wait from tripping set -e before the check.
E1=0
E2=0
wait "$P1" || E1=$?
wait "$P2" || E2=$?
P1=""
P2=""
if [ "$E1" -ne 0 ] || [ "$E2" -ne 0 ]; then
    echo "transport smoke: servers exited $E1/$E2, want 0/0" >&2
    exit 1
fi
echo "transport smoke: OK (graceful drain on both servers)"

# ---- Phase 2: kill one replica mid-run, keep serving, rejoin ------------

A3=127.0.0.1:7473
A4=127.0.0.1:7474
L3=127.0.0.1:7489
"$BIN/bdserve" -addr "$A3" -quiet &
P1=$!
"$BIN/bdserve" -addr "$A4" -quiet &
P2=$!

# Replication 2 across the two servers; -chaos makes the client tolerate
# (and count) the batches that die with the member while the coordinator
# fails over. The kill below is the real thing: SIGKILL, no drain.
"$BIN/bdbench" -net -chaos -addr "$A3,$A4" -replication 2 -dur 4s -rows 500 -clients 4 \
    -json "$BIN/phase2.json" &
PB=$!

sleep 1
kill -KILL "$P1"
echo "transport smoke: SIGKILLed server $A3 mid-run"
sleep 1
# Restart on the same address: the coordinator's prober must see it
# rejoin and replay the writes it missed (hinted handoff). The restarted
# process serves /metrics so the replay can be observed from its side.
"$BIN/bdserve" -addr "$A3" -livez "$L3" -quiet &
P1=$!

EB=0
wait "$PB" || EB=$?
PB=""
if [ "$EB" -ne 0 ]; then
    echo "transport smoke: chaos client exited $EB, want 0 (serving did not survive the kill)" >&2
    exit 1
fi
# The writes the killed member missed must have arrived after the
# restart, through the chunked replay: the coordinator counts them
# replayed with none left pending, and the restarted server — which came
# back empty — holds at least that many writes, every one delivered in a
# batch frame (a per-op replay would show as put frames).
REPLAYED=$(sed -n 's/.*"bd_cluster_hints_replayed_total": \([0-9][0-9]*\).*/\1/p' "$BIN/phase2.json")
if [ -z "$REPLAYED" ] || [ "$REPLAYED" -lt 1 ] || ! grep -q '"bd_cluster_hints_pending": 0' "$BIN/phase2.json"; then
    echo "transport smoke: hinted writes not replayed across the restart (replayed=${REPLAYED:-none})" >&2
    grep 'hints' "$BIN/phase2.json" >&2 || true
    exit 1
fi
M3=$(fetch "http://$L3/metrics")
PUTS=$(printf '%s\n' "$M3" | sed -n 's/^bd_engine_puts_total \([0-9][0-9]*\)$/\1/p')
if [ -z "$PUTS" ] || [ "$PUTS" -lt "$REPLAYED" ]; then
    echo "transport smoke: restarted server holds ${PUTS:-no} writes, fewer than the $REPLAYED hints replayed" >&2
    exit 1
fi
if ! printf '%s\n' "$M3" | grep -Eq '^bd_transport_requests_total\{op="batch"\} [1-9]' ||
    ! printf '%s\n' "$M3" | grep -q '^bd_transport_requests_total{op="put"} 0$'; then
    echo "transport smoke: hint replay did not arrive as batch frames:" >&2
    printf '%s\n' "$M3" | grep '^bd_transport_requests_total' >&2 || true
    exit 1
fi
echo "transport smoke: $REPLAYED hinted writes replayed in batch frames onto the restarted server"

kill -TERM "$P1" "$P2"
E1=0
E2=0
wait "$P1" || E1=$?
wait "$P2" || E2=$?
P1=""
P2=""
if [ "$E1" -ne 0 ] || [ "$E2" -ne 0 ]; then
    echo "transport smoke: post-chaos drain exited $E1/$E2, want 0/0" >&2
    exit 1
fi
echo "transport smoke: OK (served through SIGKILL + rejoin)"

# ---- Phase 3: distributed wordcount vs the in-process reference ---------

A5=127.0.0.1:7475
A6=127.0.0.1:7476
"$BIN/bdserve" -addr "$A5" -quiet &
P1=$!
"$BIN/bdserve" -addr "$A6" -quiet &
P2=$!

REF=$("$BIN/bdbench" -analytics wordcount -local -lines 4000 | grep 'digest:')
# The coordinator's dial retries cover server startup; no sleep needed.
DIST=$("$BIN/bdbench" -analytics wordcount -addr "$A5,$A6" -lines 4000 | grep 'digest:')
if [ -z "$REF" ] || [ "$REF" != "$DIST" ]; then
    echo "transport smoke: distributed wordcount diverged from the in-process reference" >&2
    echo "  local:       $REF" >&2
    echo "  distributed: $DIST" >&2
    exit 1
fi

kill -TERM "$P1" "$P2"
E1=0
E2=0
wait "$P1" || E1=$?
wait "$P2" || E2=$?
P1=""
P2=""
if [ "$E1" -ne 0 ] || [ "$E2" -ne 0 ]; then
    echo "transport smoke: analytics servers exited $E1/$E2, want 0/0" >&2
    exit 1
fi
echo "transport smoke: OK (distributed wordcount == in-process reference, $DIST)"

# ---- Phase 4: /metrics scrape mid-run + down-member gauge recovery ------

A7=127.0.0.1:7477
A8=127.0.0.1:7478
L7=127.0.0.1:7487
L8=127.0.0.1:7488

"$BIN/bdserve" -addr "$A7" -livez "$L7" -quiet &
P1=$!
"$BIN/bdserve" -addr "$A8" -livez "$L8" -quiet &
P2=$!

# Same crash/recovery cycle as phase 2, now with a wire trace id on
# every 64th batch and the client's metrics delta captured as JSON.
"$BIN/bdbench" -net -chaos -addr "$A7,$A8" -replication 2 -dur 4s \
    -rows 500 -clients 4 -traceevery 64 -json "$BIN/phase4.json" &
PB=$!

sleep 1
kill -KILL "$P1"
echo "transport smoke: SIGKILLed server $A7 mid-run"
sleep 1
"$BIN/bdserve" -addr "$A7" -livez "$L7" -quiet &
P1=$!

# Mid-run scrape, load still flowing: both servers must expose the four
# metric families and nonzero per-opcode request counters, and the
# survivor must have seen traced frames.
sleep 1
M2=$(fetch "http://$L8/metrics")
for family in bd_transport_requests_total bd_cluster_members bd_engine_puts_total bd_analytics_tasks_held; do
    if ! printf '%s\n' "$M2" | grep -q "^# TYPE $family"; then
        echo "transport smoke: survivor /metrics missing family $family" >&2
        exit 1
    fi
done
if ! printf '%s\n' "$M2" | grep -Eq 'bd_transport_requests_total\{op="[a-z]+"\} [1-9]'; then
    echo "transport smoke: survivor shows no per-opcode requests" >&2
    exit 1
fi
if ! printf '%s\n' "$M2" | grep -Eq 'bd_transport_traced_requests_total [1-9]'; then
    echo "transport smoke: survivor saw no traced frames (-traceevery 64)" >&2
    exit 1
fi
M1=$(fetch "http://$L7/metrics")
if ! printf '%s\n' "$M1" | grep -Eq 'bd_transport_requests_total\{op="[a-z]+"\} [1-9]'; then
    echo "transport smoke: restarted server shows no per-opcode requests" >&2
    exit 1
fi
echo "transport smoke: scraped /metrics from both servers mid-run"

EB=0
wait "$PB" || EB=$?
PB=""
if [ "$EB" -ne 0 ]; then
    echo "transport smoke: traced chaos client exited $EB, want 0" >&2
    exit 1
fi
# The coordinator's gauge after-values ride the JSON metrics delta: the
# killed member must be back up (down-member gauge returned to 0) and
# the hinted writes it missed must have been replayed onto it.
if ! grep -q '"bd_cluster_members_down": 0' "$BIN/phase4.json"; then
    echo "transport smoke: members_down did not return to 0 after restart" >&2
    grep 'members_down' "$BIN/phase4.json" >&2 || true
    exit 1
fi
if ! grep -Eq '"bd_cluster_hints_replayed_total": [1-9]' "$BIN/phase4.json"; then
    echo "transport smoke: no hinted writes replayed across the restart" >&2
    exit 1
fi

kill -TERM "$P1" "$P2"
E1=0
E2=0
wait "$P1" || E1=$?
wait "$P2" || E2=$?
P1=""
P2=""
if [ "$E1" -ne 0 ] || [ "$E2" -ne 0 ]; then
    echo "transport smoke: observability servers exited $E1/$E2, want 0/0" >&2
    exit 1
fi
echo "transport smoke: OK (metrics + trace + down-member recovery observed)"

# ---- Phase 5: traced replicated Put, assembled across processes ---------

A9=127.0.0.1:7479
A10=127.0.0.1:7480
"$BIN/bdserve" -addr "$A9" -quiet &
P1=$!
"$BIN/bdserve" -addr "$A10" -quiet &
P2=$!

# Replication 2 across the two servers: the coordinator's write fan-out
# is part of the trace. After the (tiny) measured run, -trace drives one
# traced probe, pulls each process's span ring over the wire and prints
# the assembled tree; -json records the critical path machine-readably.
OUT=$("$BIN/bdbench" -net -addr "$A9,$A10" -replication 2 -ops 200 -rows 500 \
    -clients 2 -trace -json "$BIN/phase5.json")

# The tree must span all three processes: the bench's own hops, server
# spans from BOTH bdserve processes (the replica is reached only through
# the coordinator's mirror leg), and the replication fan-out hop.
for frag in 'bench/probe @bench' 'cluster/write' "@$A9" "@$A10"; do
    if ! printf '%s\n' "$OUT" | grep -qF "$frag"; then
        echo "transport smoke: assembled trace missing \"$frag\":" >&2
        printf '%s\n' "$OUT" >&2
        exit 1
    fi
done
# Every layer's phase annotations made it into the assembly: queue/exec
# from the servers, replicate from the write fan-out.
for phase in 'queue ' 'exec ' 'replicate '; do
    if ! printf '%s\n' "$OUT" | grep -q "$phase"; then
        echo "transport smoke: assembled trace lost the \"$phase\" phase" >&2
        printf '%s\n' "$OUT" >&2
        exit 1
    fi
done
if ! printf '%s\n' "$OUT" | grep -q 'critical path ('; then
    echo "transport smoke: no critical path in the trace report" >&2
    exit 1
fi
# Machine record: the probe assembled with no holes (every referenced
# parent was collected — the parentage chain is intact) and its critical
# path descends into a server-side hop.
if ! grep -q '"missingHops": 0' "$BIN/phase5.json"; then
    echo "transport smoke: trace assembled with missing hops" >&2
    grep -o '"trace": {[^}]*' "$BIN/phase5.json" >&2 || true
    exit 1
fi
if ! grep -q '"server/' "$BIN/phase5.json"; then
    echo "transport smoke: critical path never reached a server hop" >&2
    exit 1
fi

kill -TERM "$P1" "$P2"
E1=0
E2=0
wait "$P1" || E1=$?
wait "$P2" || E2=$?
P1=""
P2=""
if [ "$E1" -ne 0 ] || [ "$E2" -ne 0 ]; then
    echo "transport smoke: tracing servers exited $E1/$E2, want 0/0" >&2
    exit 1
fi
echo "transport smoke: OK (cross-process trace assembled with phase breakdown)"

# ---- Phase 6: elastic resize under load — join, SIGKILL, converge -------

A11=127.0.0.1:7481
A12=127.0.0.1:7482
A13=127.0.0.1:7483
L12=127.0.0.1:7492
L13=127.0.0.1:7493

# Short probe rounds keep declare-dead and view dissemination well
# inside the run; -leavetimeout bounds the final graceful drains.
"$BIN/bdserve" -addr "$A11" -elastic -replication 2 -probe 50ms \
    -leavetimeout 10s -quiet &
P1=$!
"$BIN/bdserve" -addr "$A12" -join "$A11" -replication 2 -probe 50ms \
    -leavetimeout 10s -livez "$L12" -quiet &
P2=$!

# The elastic coordinator joins via the seeds and discovers every later
# membership change by gossip; -chaos makes the SIGKILL window degraded
# batches instead of a fatal error. Traffic spans the whole resize.
"$BIN/bdbench" -net -elastic -chaos -addr "$A11,$A12" -replication 2 \
    -dur 6s -rows 500 -clients 4 -json "$BIN/phase6.json" &
PB=$!

sleep 1
"$BIN/bdserve" -addr "$A13" -join "$A11,$A12" -replication 2 -probe 50ms \
    -leavetimeout 10s -livez "$L13" -quiet &
P3=$!
echo "transport smoke: third member joining at $A13 mid-run"

sleep 2
kill -KILL "$P1"
wait "$P1" 2>/dev/null || true
P1=""
echo "transport smoke: SIGKILLed original member $A11 mid-run"

EB=0
wait "$PB" || EB=$?
PB=""
if [ "$EB" -ne 0 ]; then
    echo "transport smoke: elastic client exited $EB, want 0 (serving did not survive the resize)" >&2
    exit 1
fi

# Convergence: both survivors must agree on one epoch, with migration
# settled and the killed member declared out of the ring (2 on-ring
# members). Detection + heal is bounded by probe rounds; 15s is a wide
# CI margin over the 50ms sweep.
tries=0
while :; do
    M2=$(fetch "http://$L12/metrics") || M2=""
    M3=$(fetch "http://$L13/metrics") || M3=""
    E2=$(printf '%s\n' "$M2" | awk '$1 == "bd_cluster_epoch" {print $2}')
    E3=$(printf '%s\n' "$M3" | awk '$1 == "bd_cluster_epoch" {print $2}')
    S2=$(printf '%s\n' "$M2" | awk '$1 == "bd_cluster_settled" {print $2}')
    S3=$(printf '%s\n' "$M3" | awk '$1 == "bd_cluster_settled" {print $2}')
    N2=$(printf '%s\n' "$M2" | awk '$1 == "bd_cluster_ring_members" {print $2}')
    N3=$(printf '%s\n' "$M3" | awk '$1 == "bd_cluster_ring_members" {print $2}')
    if [ -n "$E2" ] && [ "$E2" = "$E3" ] && [ "$S2" = "1" ] && [ "$S3" = "1" ] \
        && [ "$N2" = "2" ] && [ "$N3" = "2" ]; then
        break
    fi
    if [ "$tries" -ge 15 ]; then
        echo "transport smoke: survivors never converged after the resize" >&2
        echo "  $A12: epoch=$E2 settled=$S2 ring_members=$N2" >&2
        echo "  $A13: epoch=$E3 settled=$S3 ring_members=$N3" >&2
        exit 1
    fi
    tries=$((tries + 1))
    sleep 1
done
echo "transport smoke: survivors converged (epoch $E2, 2 on-ring members, settled)"

# The join and the kill both trigger throttled online migration; the
# counters must show real bytes moved somewhere in the cluster.
if ! { printf '%s\n%s\n' "$M2" "$M3" \
    | awk '$1 == "bd_cluster_migration_bytes_total" {b += $2} END {exit !(b > 0)}'; }; then
    echo "transport smoke: no migration bytes moved across the resize" >&2
    exit 1
fi

# Graceful exit in sequence: the joiner drains its keyranges back to the
# survivor, then the survivor (alone, nobody to push to) leaves cleanly.
kill -TERM "$P3"
E3=0
wait "$P3" || E3=$?
P3=""
kill -TERM "$P2"
E2=0
wait "$P2" || E2=$?
P2=""
if [ "$E2" -ne 0 ] || [ "$E3" -ne 0 ]; then
    echo "transport smoke: elastic drain exited $E2/$E3, want 0/0" >&2
    exit 1
fi
echo "transport smoke: OK (elastic resize: live join + SIGKILL healed under load, migration observed)"

# ---- Phase 7: federated /clusterz totals + /eventz epoch advance --------

A14=127.0.0.1:7484
A15=127.0.0.1:7485
A16=127.0.0.1:7486
L14=127.0.0.1:7494
L15=127.0.0.1:7495

"$BIN/bdserve" -addr "$A14" -elastic -replication 2 -probe 50ms \
    -leavetimeout 10s -livez "$L14" -quiet &
P1=$!
"$BIN/bdserve" -addr "$A15" -join "$A14" -replication 2 -probe 50ms \
    -leavetimeout 10s -livez "$L15" -quiet &
P2=$!

# Finite load, then quiesce: with the clients gone and migration
# settled, the data-plane opcodes (get/put/batch/scan) are frozen, so
# the federation's merge can be compared against the per-node scrapes
# exactly. Gossip and the fetch opcodes themselves keep moving — they
# are excluded from the equality.
"$BIN/bdbench" -net -elastic -addr "$A14,$A15" -replication 2 \
    -ops 5000 -rows 500 -clients 4

tries=0
while :; do
    M14=$(fetch "http://$L14/metrics") || M14=""
    M15=$(fetch "http://$L15/metrics") || M15=""
    E14=$(printf '%s\n' "$M14" | awk '$1 == "bd_cluster_epoch" {print $2}')
    E15=$(printf '%s\n' "$M15" | awk '$1 == "bd_cluster_epoch" {print $2}')
    S14=$(printf '%s\n' "$M14" | awk '$1 == "bd_cluster_settled" {print $2}')
    S15=$(printf '%s\n' "$M15" | awk '$1 == "bd_cluster_settled" {print $2}')
    if [ -n "$E14" ] && [ "$E14" = "$E15" ] && [ "$S14" = "1" ] && [ "$S15" = "1" ]; then
        break
    fi
    if [ "$tries" -ge 15 ]; then
        echo "transport smoke: pair never settled before the federation check" >&2
        exit 1
    fi
    tries=$((tries + 1))
    sleep 1
done

CZ=$(fetch "http://$L14/clusterz")
if ! printf '%s\n' "$CZ" | grep -q '^# Federated from 2 nodes'; then
    echo "transport smoke: /clusterz did not federate both members:" >&2
    printf '%s\n' "$CZ" | head -5 >&2
    exit 1
fi
if printf '%s\n' "$CZ" | grep -q '^# UNREACHABLE'; then
    echo "transport smoke: /clusterz reports an unreachable member with both up" >&2
    printf '%s\n' "$CZ" | grep '^# UNREACHABLE' >&2
    exit 1
fi

# opcount <metrics-text> <op>: one opcode's request total (0 if absent).
opcount() {
    printf '%s\n' "$1" | awk -v op="$2" \
        '$1 == "bd_transport_requests_total{op=\"" op "\"}" {print $2; f = 1}
         END {if (!f) print 0}'
}
MOVED=0
for op in get put batch scan; do
    F=$(opcount "$CZ" "$op")
    N14=$(opcount "$M14" "$op")
    N15=$(opcount "$M15" "$op")
    if [ "$F" -ne $((N14 + N15)) ]; then
        echo "transport smoke: federated $op total $F != $N14 + $N15 from /metrics" >&2
        exit 1
    fi
    [ "$F" -gt 0 ] && MOVED=1
done
if [ "$MOVED" -ne 1 ]; then
    echo "transport smoke: no data-plane opcode counted anything — equality was vacuous" >&2
    exit 1
fi
echo "transport smoke: /clusterz per-opcode totals == sum of member /metrics"

# A third member joins live: the federation must widen to 3 nodes and
# the merged /eventz timeline must carry the join's view commit.
"$BIN/bdserve" -addr "$A16" -join "$A14,$A15" -replication 2 -probe 50ms \
    -leavetimeout 10s -quiet &
P3=$!
tries=0
while :; do
    CZ=$(fetch "http://$L14/clusterz") || CZ=""
    if printf '%s\n' "$CZ" | grep -q '^# Federated from 3 nodes'; then
        break
    fi
    if [ "$tries" -ge 15 ]; then
        echo "transport smoke: federation never widened to the joiner" >&2
        printf '%s\n' "$CZ" | head -5 >&2
        exit 1
    fi
    tries=$((tries + 1))
    sleep 1
done
EV=$(fetch "http://$L14/eventz")
if ! printf '%s\n' "$EV" | grep -q '"view-commit"'; then
    echo "transport smoke: /eventz carries no view-commit events" >&2
    exit 1
fi
if ! printf '%s\n' "$EV" | grep -q 'view committed: 3 members'; then
    echo "transport smoke: /eventz missing the 3-member view commit for the join" >&2
    printf '%s\n' "$EV" | tail -5 >&2
    exit 1
fi
echo "transport smoke: /eventz shows the join's epoch advance"

# Drain out in join order reverse: each leaver pushes its ranges to the
# remaining members.
kill -TERM "$P3"
E3=0
wait "$P3" || E3=$?
P3=""
kill -TERM "$P2"
E2=0
wait "$P2" || E2=$?
P2=""
kill -TERM "$P1"
E1=0
wait "$P1" || E1=$?
P1=""
if [ "$E1" -ne 0 ] || [ "$E2" -ne 0 ] || [ "$E3" -ne 0 ]; then
    echo "transport smoke: observability-plane drain exited $E1/$E2/$E3, want 0/0/0" >&2
    exit 1
fi
echo "transport smoke: OK (federated totals exact, event timeline carried the join)"
