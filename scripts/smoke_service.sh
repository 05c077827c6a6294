#!/usr/bin/env bash
# Smoke-test the serving layer end to end: build muerpd and qload, boot the
# daemon on a random port, replay a small workload against it, then SIGTERM
# the daemon and require a clean drain within 10 seconds.
#
# Environment knobs:
#   SESSIONS  number of replayed sessions   (default 50)
#   UNIT      real duration of one workload time unit (default 5ms)
#   GO        go binary                     (default go)
set -euo pipefail

GO=${GO:-go}
SESSIONS=${SESSIONS:-50}
UNIT=${UNIT:-5ms}

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

echo "smoke: starting muerpd on a random port"
"$workdir/muerpd" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
  -users 8 -switches 16 -ttl 2s \
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
"$workdir/qload" -addr "$addr" -sessions "$SESSIONS" -unit "$UNIT" -min-accepted 1

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
