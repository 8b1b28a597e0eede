#!/usr/bin/env bash
# Multi-process smoke test for the TCP rank backend: build steinersvc and
# rankd, start a coordinator with 4 real rankd worker processes on
# localhost, solve a set of queries over the wire, and require the answers
# to be byte-identical (solver-output fields) to an in-process steinersvc
# serving the same graph — plus nonzero transport counters in /stats,
# proving the queries actually crossed TCP.
#
# Run from the repo root: ./ci/multiproc_smoke.sh
set -euo pipefail

DATASET="${DATASET:-LVJ}"
SCALE="${SCALE:-0.02}"
# Delegate threshold low enough that the scaled-down graph has hubs: the
# superstep broadcast outbox only engages on delegate partitions, and the
# smoke asserts nonzero batched broadcasts below.
DELEGATES="${DELEGATES:-8}"
RANKS=4
WORKERS=4
COORD=127.0.0.1:7611
TCP_HTTP=127.0.0.1:8711
INPROC_HTTP=127.0.0.1:8712
QUERIES=("1,2,3" "5,9,13,21" "0,7" "2,4,8,16,32")

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building"
go build -o "$workdir/steinersvc" ./cmd/steinersvc
go build -o "$workdir/rankd" ./cmd/rankd

echo "== starting tcp coordinator + $WORKERS rankd workers"
"$workdir/steinersvc" -dataset "$DATASET" -scale "$SCALE" -ranks $RANKS \
  -backend tcp -workers $WORKERS -rank-listen "$COORD" \
  -delegates "$DELEGATES" \
  -addr "$TCP_HTTP" -cache 0 -jobs 0 >"$workdir/tcp.log" 2>&1 &
pids+=($!)
for i in $(seq 1 $WORKERS); do
  "$workdir/rankd" -coordinator "$COORD" -retry 30s >"$workdir/rankd$i.log" 2>&1 &
  pids+=($!)
done

echo "== starting inproc reference"
"$workdir/steinersvc" -dataset "$DATASET" -scale "$SCALE" -ranks $RANKS \
  -delegates "$DELEGATES" \
  -addr "$INPROC_HTTP" -cache 0 -jobs 0 >"$workdir/inproc.log" 2>&1 &
pids+=($!)

wait_http() {
  local base=$1 name=$2
  for _ in $(seq 1 120); do
    if curl -fsS "http://$base/info" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.5
  done
  echo "FAIL: $name never answered /info" >&2
  tail -n 40 "$workdir"/*.log >&2 || true
  exit 1
}
wait_http "$INPROC_HTTP" "inproc steinersvc"
wait_http "$TCP_HTTP" "tcp steinersvc (coordinator + workers)"

backend=$(curl -fsS "http://$TCP_HTTP/info" | jq -r .backend)
if [ "$backend" != "tcp" ]; then
  echo "FAIL: coordinator /info reports backend=$backend, want tcp" >&2
  exit 1
fi

echo "== solving ${#QUERIES[@]} queries on both backends"
for seeds in "${QUERIES[@]}"; do
  # Compare only solver output: seeds, edges, total, steinerVertices.
  # Phase timings legitimately differ between backends.
  tcp_out=$(curl -fsS "http://$TCP_HTTP/solve?seeds=$seeds" |
    jq -S '{seeds, edges, total, steinerVertices}')
  inproc_out=$(curl -fsS "http://$INPROC_HTTP/solve?seeds=$seeds" |
    jq -S '{seeds, edges, total, steinerVertices}')
  if [ "$tcp_out" != "$inproc_out" ]; then
    echo "FAIL: seeds=$seeds differ between backends" >&2
    diff <(echo "$inproc_out") <(echo "$tcp_out") >&2 || true
    exit 1
  fi
  echo "   seeds=$seeds OK ($(echo "$tcp_out" | jq -r .total) total distance)"
done

echo "== solving one forest and one prize query on both backends"
# Mode queries go over POST /v1/solve; the TCP session negotiated wire v3,
# so forest/prize specs cross the wire as SolveSpec frames. Compare the
# full mode output: group subtrees, skipped set, penalties, objective.
MODE_QUERIES=(
  '{"mode":"forest","groups":[[1,2,3],[5,9],[20,21]]}'
  '{"mode":"prize","seeds":[0,7,32],"penalties":[4,100000,100000]}'
)
for body in "${MODE_QUERIES[@]}"; do
  mode=$(echo "$body" | jq -r .mode)
  tcp_out=$(curl -fsS -d "$body" "http://$TCP_HTTP/v1/solve" |
    jq -S '{seeds, edges, total, steinerVertices, mode, groups, groupEdges, skipped, paidPenalty, objective}')
  inproc_out=$(curl -fsS -d "$body" "http://$INPROC_HTTP/v1/solve" |
    jq -S '{seeds, edges, total, steinerVertices, mode, groups, groupEdges, skipped, paidPenalty, objective}')
  if [ "$tcp_out" != "$inproc_out" ]; then
    echo "FAIL: $mode query differs between backends" >&2
    diff <(echo "$inproc_out") <(echo "$tcp_out") >&2 || true
    exit 1
  fi
  echo "   mode=$mode OK (objective $(echo "$tcp_out" | jq -r .objective))"
done

echo "== checking transport counters"
stats=$(curl -fsS "http://$TCP_HTTP/stats")
bytes_out=$(echo "$stats" | jq -r .transport.bytesOut)
frames_out=$(echo "$stats" | jq -r .transport.framesOut)
if [ "$bytes_out" -le 0 ] || [ "$frames_out" -le 0 ]; then
  echo "FAIL: tcp backend reports no wire traffic: $stats" >&2
  exit 1
fi
batched=$(echo "$stats" | jq -r .broadcasts.batched)
if [ "$batched" -le 0 ]; then
  echo "FAIL: tcp backend reports no superstep-batched delegate broadcasts: $stats" >&2
  exit 1
fi
inproc_bytes=$(curl -fsS "http://$INPROC_HTTP/stats" | jq -r .transport.bytesOut)
if [ "$inproc_bytes" != "0" ]; then
  echo "FAIL: inproc backend reports wire traffic ($inproc_bytes bytes)" >&2
  exit 1
fi
echo "   ${#QUERIES[@]} queries moved $frames_out frames / $bytes_out bytes over TCP"
echo "   delegate outbox batched $batched broadcasts across the fleet"

echo "== checking fragment-merge MST counters"
# The v4 TCP session resolves -mst auto to the fragment merge; every tree
# and forest query above ran it, so rounds and payload must be nonzero.
mst_mode=$(echo "$stats" | jq -r .mst.mode)
frag_rounds=$(echo "$stats" | jq -r .mst.fragmentRounds)
frag_bytes=$(echo "$stats" | jq -r .mst.crossTableBytes)
if [ "$mst_mode" != "fragment" ]; then
  echo "FAIL: tcp auto resolved mst mode to $mst_mode, want fragment" >&2
  exit 1
fi
if [ "$frag_rounds" -le 0 ] || [ "$frag_bytes" -le 0 ]; then
  echo "FAIL: fragment merge reports rounds=$frag_rounds crossTableBytes=$frag_bytes" >&2
  exit 1
fi
echo "   fragment merge: $frag_rounds rounds, $frag_bytes cross-table bytes"

echo "== starting -mst replicated fleet for the wire-byte comparison"
REPL_COORD=127.0.0.1:7612
REPL_HTTP=127.0.0.1:8713
"$workdir/steinersvc" -dataset "$DATASET" -scale "$SCALE" -ranks $RANKS \
  -backend tcp -workers $WORKERS -rank-listen "$REPL_COORD" \
  -delegates "$DELEGATES" -mst replicated \
  -addr "$REPL_HTTP" -cache 0 -jobs 0 >"$workdir/repl.log" 2>&1 &
pids+=($!)
for i in $(seq 1 $WORKERS); do
  "$workdir/rankd" -coordinator "$REPL_COORD" -retry 30s >"$workdir/repl_rankd$i.log" 2>&1 &
  pids+=($!)
done
wait_http "$REPL_HTTP" "replicated tcp steinersvc"
repl_mode=$(curl -fsS "http://$REPL_HTTP/stats" | jq -r .mst.mode)
if [ "$repl_mode" != "replicated" ]; then
  echo "FAIL: -mst replicated fleet reports mode=$repl_mode" >&2
  exit 1
fi

# One high-terminal-count query (3/4 of the graph, deterministic seed
# selection) on each fleet: identical trees required, and the fragment
# merge must move strictly fewer phase 3-4 wire bytes than the replicated
# gather-everywhere path.
verts=$(curl -fsS "http://$TCP_HTTP/info" | jq -r .vertices)
K=$((verts * 3 / 4))
BODY="{\"k\":$K,\"rngSeed\":7}"
frag_before=$(curl -fsS "http://$TCP_HTTP/stats" | jq -r .mst.crossTableBytes)
frag_out=$(curl -fsS -d "$BODY" "http://$TCP_HTTP/solve" |
  jq -S '{seeds, edges, total, steinerVertices}')
frag_delta=$(($(curl -fsS "http://$TCP_HTTP/stats" | jq -r .mst.crossTableBytes) - frag_before))
repl_before=$(curl -fsS "http://$REPL_HTTP/stats" | jq -r .mst.crossTableBytes)
repl_out=$(curl -fsS -d "$BODY" "http://$REPL_HTTP/solve" |
  jq -S '{seeds, edges, total, steinerVertices}')
repl_delta=$(($(curl -fsS "http://$REPL_HTTP/stats" | jq -r .mst.crossTableBytes) - repl_before))
if [ "$frag_out" != "$repl_out" ]; then
  echo "FAIL: k=$K query differs between fragment and replicated fleets" >&2
  diff <(echo "$repl_out") <(echo "$frag_out") >&2 || true
  exit 1
fi
if [ "$frag_delta" -le 0 ] || [ "$repl_delta" -le 0 ]; then
  echo "FAIL: k=$K cross-table deltas: fragment=$frag_delta replicated=$repl_delta" >&2
  exit 1
fi
if [ "$frag_delta" -ge "$repl_delta" ]; then
  echo "FAIL: fragment moved $frag_delta cross-table bytes at k=$K, replicated $repl_delta - no reduction" >&2
  exit 1
fi
echo "   k=$K cross-table bytes: fragment=$frag_delta replicated=$repl_delta"

echo "== starting -queue bucket fleet"
# The Δ-bucket queue discipline end to end: every rankd drains its
# vertex-centric phases from a bucket queue instead of the priority queue.
# Answers must stay byte-identical to the priority-queue inproc reference:
# the queue discipline must never leak into results.
BUCKET_COORD=127.0.0.1:7614
BUCKET_HTTP=127.0.0.1:8715
"$workdir/steinersvc" -dataset "$DATASET" -scale "$SCALE" -ranks $RANKS \
  -backend tcp -workers $WORKERS -rank-listen "$BUCKET_COORD" \
  -delegates "$DELEGATES" -queue bucket \
  -addr "$BUCKET_HTTP" -cache 0 -jobs 0 >"$workdir/bucket.log" 2>&1 &
pids+=($!)
for i in $(seq 1 $WORKERS); do
  "$workdir/rankd" -coordinator "$BUCKET_COORD" -retry 30s >"$workdir/bucket_rankd$i.log" 2>&1 &
  pids+=($!)
done
wait_http "$BUCKET_HTTP" "bucket-queue tcp steinersvc"
for seeds in "${QUERIES[@]}"; do
  bucket_out=$(curl -fsS "http://$BUCKET_HTTP/solve?seeds=$seeds" |
    jq -S '{seeds, edges, total, steinerVertices}')
  inproc_out=$(curl -fsS "http://$INPROC_HTTP/solve?seeds=$seeds" |
    jq -S '{seeds, edges, total, steinerVertices}')
  if [ "$bucket_out" != "$inproc_out" ]; then
    echo "FAIL: seeds=$seeds differ between bucket-queue fleet and inproc" >&2
    diff <(echo "$inproc_out") <(echo "$bucket_out") >&2 || true
    exit 1
  fi
done
echo "   ${#QUERIES[@]} queries byte-identical on the bucket-queue fleet"

echo "== starting recovering fleet for the kill/respawn check"
# Fault-tolerance end to end: a 4-worker fleet where one rankd is doomed
# (FAULTPOINTS=solve.phase3:exit kills its process at solver phase 3), the
# coordinator runs -recover with a -respawn-cmd that starts one replacement,
# and the survivors run -rejoin. The query that kills the worker must still
# answer — byte-identical to the inproc reference — after the coordinator
# heals the session and requeues it.
CHAOS_COORD=127.0.0.1:7613
CHAOS_HTTP=127.0.0.1:8714
cat >"$workdir/respawn.sh" <<EOF
#!/bin/sh
# Started by the coordinator on each detected fault; only the first
# invocation spawns (one worker died, one replacement is needed).
if [ -e "$workdir/respawned" ]; then exit 0; fi
touch "$workdir/respawned"
"$workdir/rankd" -coordinator "$CHAOS_COORD" -rejoin 30s \
  >"$workdir/respawn_rankd.log" 2>&1 &
echo \$! >"$workdir/respawn_rankd.pid"
EOF
chmod +x "$workdir/respawn.sh"
"$workdir/steinersvc" -dataset "$DATASET" -scale "$SCALE" -ranks $RANKS \
  -backend tcp -workers $WORKERS -rank-listen "$CHAOS_COORD" \
  -delegates "$DELEGATES" \
  -recover -rejoin-wait 30s -respawn-cmd "$workdir/respawn.sh" \
  -addr "$CHAOS_HTTP" -cache 0 -jobs 0 >"$workdir/chaos.log" 2>&1 &
pids+=($!)
for i in $(seq 1 $((WORKERS - 1))); do
  "$workdir/rankd" -coordinator "$CHAOS_COORD" -retry 30s -rejoin 30s \
    >"$workdir/chaos_rankd$i.log" 2>&1 &
  pids+=($!)
done
FAULTPOINTS=solve.phase3:exit "$workdir/rankd" -coordinator "$CHAOS_COORD" \
  -retry 30s >"$workdir/doomed_rankd.log" 2>&1 &
doomed_pid=$!
pids+=($doomed_pid)
wait_http "$CHAOS_HTTP" "recovering tcp steinersvc"

echo "== killing one rankd mid-solve (FAULTPOINTS=solve.phase3:exit)"
SEEDS="5,9,13,21"
inproc_out=$(curl -fsS "http://$INPROC_HTTP/solve?seeds=$SEEDS" |
  jq -S '{seeds, edges, total, steinerVertices}')
chaos_out=$(curl -fsS --max-time 120 "http://$CHAOS_HTTP/solve?seeds=$SEEDS" |
  jq -S '{seeds, edges, total, steinerVertices}')
if [ "$chaos_out" != "$inproc_out" ]; then
  echo "FAIL: recovered solve differs from inproc reference" >&2
  diff <(echo "$inproc_out") <(echo "$chaos_out") >&2 || true
  exit 1
fi
rc=0
wait "$doomed_pid" || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "FAIL: doomed rankd exited $rc, want faultpoint exit code 3" >&2
  tail -n 20 "$workdir/doomed_rankd.log" >&2 || true
  exit 1
fi
if [ ! -e "$workdir/respawned" ]; then
  echo "FAIL: coordinator never ran -respawn-cmd" >&2
  exit 1
fi
if [ -s "$workdir/respawn_rankd.pid" ]; then
  pids+=("$(cat "$workdir/respawn_rankd.pid")")
fi
echo "   worker died at phase 3 (exit 3), replacement respawned, answer byte-identical"

echo "== checking fault accounting and the healed fleet"
faults=$(curl -fsS "http://$CHAOS_HTTP/stats" | jq -S .faults)
detected=$(echo "$faults" | jq -r .detected)
heals=$(echo "$faults" | jq -r .heals)
rejoins=$(echo "$faults" | jq -r .rejoins)
retried=$(echo "$faults" | jq -r .retriedSolves)
if [ "$detected" -lt 1 ] || [ "$heals" -lt 1 ] || [ "$rejoins" -lt 1 ] || [ "$retried" -lt 1 ]; then
  echo "FAIL: recovery not accounted in /stats faults: $faults" >&2
  exit 1
fi
# The healed fleet must keep answering correctly.
healed_out=$(curl -fsS "http://$CHAOS_HTTP/solve?seeds=$SEEDS" |
  jq -S '{seeds, edges, total, steinerVertices}')
if [ "$healed_out" != "$inproc_out" ]; then
  echo "FAIL: healed fleet answers differently" >&2
  diff <(echo "$inproc_out") <(echo "$healed_out") >&2 || true
  exit 1
fi
echo "   faults: detected=$detected rejoins=$rejoins heals=$heals retriedSolves=$retried"

echo "PASS: tcp backend byte-identical to inproc across ${#QUERIES[@]} queries"
echo "PASS: bucket-queue fleet byte-identical to inproc"
echo "PASS: one worker killed mid-solve, fleet healed, answer byte-identical"
