#!/usr/bin/env bash
# Smoke-test the serving layer end to end: build muerpd and qload, boot the
# daemon on a random port, replay a small workload against it, then SIGTERM
# the daemon and require a clean drain within 10 seconds.
#
# Environment knobs:
#   SESSIONS  number of replayed sessions   (default 50)
#   UNIT      real duration of one workload time unit (default 5ms)
#   SHARDS    admission shards              (default 1; >1 partitions the
#             topology and routes through the sharded admission plane)
#   GO        go binary                     (default go)
set -euo pipefail

GO=${GO:-go}
SESSIONS=${SESSIONS:-50}
UNIT=${UNIT:-5ms}
SHARDS=${SHARDS:-1}

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
  if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill -KILL "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "smoke: building muerpd and qload"
"$GO" build -o "$workdir/muerpd" ./cmd/muerpd
"$GO" build -o "$workdir/qload" ./cmd/qload

echo "smoke: starting muerpd on a random port (shards=$SHARDS)"
"$workdir/muerpd" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
  -users 8 -switches 16 -ttl 2s -shards "$SHARDS" \
  >"$workdir/muerpd.log" 2>&1 &
daemon_pid=$!

addr=""
for _ in $(seq 1 100); do
  if [[ -s "$workdir/addr" ]]; then
    addr=$(cat "$workdir/addr")
    break
  fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "smoke: muerpd exited before binding" >&2
    cat "$workdir/muerpd.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "$addr" ]]; then
  echo "smoke: muerpd never wrote its address" >&2
  cat "$workdir/muerpd.log" >&2
  exit 1
fi
echo "smoke: daemon at $addr"

# The load driver itself gates on at least one accepted session.
qload_out="$workdir/qload.out"
"$workdir/qload" -addr "$addr" -sessions "$SESSIONS" -unit "$UNIT" -min-accepted 1 \
  | tee "$qload_out"
# Against a sharded daemon, qload must detect the partition and print both
# the per-shard breakdown and the router's counters.
if [[ "$SHARDS" -gt 1 ]]; then
  grep -q "^shard breakdown " "$qload_out" || {
    echo "smoke: shards=$SHARDS but no per-shard breakdown in qload output" >&2
    exit 1
  }
  grep -q "^router: " "$qload_out" || {
    echo "smoke: shards=$SHARDS but no router counters in qload output" >&2
    exit 1
  }
fi

echo "smoke: sending SIGTERM"
kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  echo "smoke: muerpd still alive 10s after SIGTERM" >&2
  cat "$workdir/muerpd.log" >&2
  exit 1
fi
wait "$daemon_pid" || {
  echo "smoke: muerpd exited non-zero" >&2
  cat "$workdir/muerpd.log" >&2
  exit 1
}
daemon_pid=""

grep -q "final admission summary:" "$workdir/muerpd.log" || {
  echo "smoke: no final summary in daemon log" >&2
  cat "$workdir/muerpd.log" >&2
  exit 1
}
echo "smoke: clean shutdown, daemon log tail:"
tail -n 8 "$workdir/muerpd.log"
echo "smoke: OK"
