#!/usr/bin/env bash
# Sweep-fabric smoke: exercises cmd/tpisweep against a two-worker
# tpiserved fleet the way CI runs it. Asserts, in order:
#
#   1. Fleet experiment output is byte-identical to sequential
#      cmd/experiments at the same size (-quick -exp E3 -json).
#   2. Resubmitting a just-swept grid from a fresh tpisweep process is
#      served from the workers' content-addressed caches at a >= 90%
#      rate: the coordinator routes each point to the worker holding it.
#   3. A fresh grid sweep completes exactly-once even when one worker
#      is killed mid-sweep (jobs rebalance onto the survivor), and the
#      sweep reports the death.
#
# Usage: scripts/sweep_smoke.sh [bindir]   (defaults to a temp dir)
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="${1:-$(mktemp -d)}"
PORT1=18271
PORT2=18272
W1="http://127.0.0.1:$PORT1"
W2="http://127.0.0.1:$PORT2"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

go build -o "$BIN/" ./cmd/tpiserved ./cmd/tpisweep ./cmd/experiments

"$BIN/tpiserved" -addr "127.0.0.1:$PORT1" -workers 2 >"$BIN/w1.log" 2>&1 &
PIDS+=($!)
"$BIN/tpiserved" -addr "127.0.0.1:$PORT2" -workers 2 >"$BIN/w2.log" 2>&1 &
W2_PID=$!
PIDS+=($W2_PID)

echo "== 1. fleet experiment output is byte-identical to sequential =="
"$BIN/experiments" -quick -exp E3 -json -out "$BIN/seq.json" >/dev/null
"$BIN/tpisweep" -workers "$W1,$W2" -quick -exp E3 -json -out "$BIN/fleet.json" >/dev/null
cmp "$BIN/seq.json" "$BIN/fleet.json"
echo "   ok: $(wc -c <"$BIN/seq.json") bytes identical"

GRID=(-kernels ocean,trfd,flo52,qcd2 -schemes BASE,TPI,HW -n 32,48 -steps 3)
JOBS=24

echo "== 2. warm resubmission is >= 90% cached =="
"$BIN/tpisweep" -workers "$W1,$W2" "${GRID[@]}" -no-results >/dev/null
"$BIN/tpisweep" -workers "$W1,$W2" "${GRID[@]}" \
  -no-results -min-cached-rate 0.9 >/dev/null 2>"$BIN/warm.log"
cat "$BIN/warm.log"
echo "   ok"

# A fresh grid (different step count) so the kill test runs cold.
KGRID=(-kernels ocean,trfd,flo52,qcd2 -schemes BASE,TPI,HW -n 32,48 -steps 4)

echo "== 3. kill one worker mid-sweep; jobs rebalance, sweep completes =="
# The kill follows progress, not a clock: worker 2 dies as soon as the
# first result row is on disk, while most of the grid is still queued.
: >"$BIN/rows.ndjson"
(
  until [ -s "$BIN/rows.ndjson" ]; do sleep 0.01; done
  kill -9 "$W2_PID" 2>/dev/null || true
  echo "   (killed worker 2 after the first row)"
) &
KILLER=$!
PIDS+=($KILLER)
"$BIN/tpisweep" -workers "$W1,$W2" "${KGRID[@]}" \
  -no-results -max-attempts 6 -death-threshold 2 \
  >"$BIN/rows.ndjson" 2>"$BIN/sweep.log"
wait "$KILLER"
cat "$BIN/sweep.log"
ROWS=$(wc -l <"$BIN/rows.ndjson")
if [ "$ROWS" -ne "$JOBS" ]; then
  echo "expected $JOBS result rows, got $ROWS" >&2
  exit 1
fi
SEQS=$(grep -o '"seq":[0-9]*' "$BIN/rows.ndjson" | sort -u | wc -l)
if [ "$SEQS" -ne "$JOBS" ]; then
  echo "expected $JOBS distinct seqs, got $SEQS" >&2
  exit 1
fi
DEATHS=$(grep -oE '[0-9]+ worker deaths' "$BIN/sweep.log" | cut -d' ' -f1)
if [ "${DEATHS:-0}" -lt 1 ]; then
  echo "worker 2 was not killed mid-sweep: the summary reports ${DEATHS:-no} worker deaths" >&2
  exit 1
fi
echo "   ok: $ROWS/$JOBS rows, exactly once, $DEATHS worker death(s)"

echo "sweep smoke passed"
