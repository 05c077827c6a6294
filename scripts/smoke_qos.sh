#!/usr/bin/env bash
# Smoke-test the multi-tenant QoS layer end to end: boot muerpd with a
# two-tenant policy ("hog" on a tight quota, "calm" unlimited), replay a
# weighted mix through qload with a retry budget, and require the quota to
# bite hog — and only hog — while calm traffic is admitted. Then SIGTERM
# and require a clean drain.
#
# Environment knobs:
#   SESSIONS  number of replayed sessions   (default 60)
#   UNIT      real duration of one workload time unit (default 5ms)
#   GO        go binary                     (default go)
set -euo pipefail

GO=${GO:-go}
SESSIONS=${SESSIONS:-60}
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

echo "smoke-qos: building muerpd and qload"
"$GO" build -o "$workdir/muerpd" ./cmd/muerpd
"$GO" build -o "$workdir/qload" ./cmd/qload

# hog: 2 admissions/s sustained, burst 2 — the replay fires far faster, so
# most hog requests must bounce with 429 + Retry-After. calm: no quota.
cat >"$workdir/tenants.json" <<'EOF'
{"tenants":[
  {"id":"hog","weight":1,"rate_per_sec":2,"burst":2},
  {"id":"calm","weight":2}
]}
EOF

echo "smoke-qos: starting muerpd with a two-tenant policy"
"$workdir/muerpd" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
  -users 8 -switches 16 -qubits 8 -ttl 2s \
  -qos-config "$workdir/tenants.json" \
  >"$workdir/muerpd.log" 2>&1 &
daemon_pid=$!

addr=""
for _ in $(seq 1 100); do
  if [[ -s "$workdir/addr" ]]; then
    addr=$(cat "$workdir/addr")
    break
  fi
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "smoke-qos: muerpd exited before binding" >&2
    cat "$workdir/muerpd.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "$addr" ]]; then
  echo "smoke-qos: muerpd never wrote its address" >&2
  cat "$workdir/muerpd.log" >&2
  exit 1
fi
echo "smoke-qos: daemon at $addr"

grep -q "^muerpd config " "$workdir/muerpd.log" || {
  echo "smoke-qos: no structured config line in daemon log" >&2
  cat "$workdir/muerpd.log" >&2
  exit 1
}

qload_out="$workdir/qload.out"
"$workdir/qload" -addr "$addr" -sessions "$SESSIONS" -unit "$UNIT" \
  -tenants "hog=1,calm=1" -retry 1 -min-accepted 1 \
  | tee "$qload_out"

grep -q "^tenant breakdown:" "$qload_out" || {
  echo "smoke-qos: no per-tenant breakdown in qload output" >&2
  exit 1
}
grep -q "^server tenants:" "$qload_out" || {
  echo "smoke-qos: no per-tenant server metrics in qload output" >&2
  exit 1
}

# The quota must have bitten hog and spared calm: read both rows from the
# breakdown (columns: tenant, total, "requests", accepted, "accepted",
# infeasible, "infeasible", throttled, "throttled", ...).
hog_throttled=$(awk '$1 == "hog" && $3 == "requests" {print $8}' "$qload_out")
calm_throttled=$(awk '$1 == "calm" && $3 == "requests" {print $8}' "$qload_out")
calm_accepted=$(awk '$1 == "calm" && $3 == "requests" {print $4}' "$qload_out")
if [[ -z "$hog_throttled" || -z "$calm_throttled" || -z "$calm_accepted" ]]; then
  echo "smoke-qos: could not parse the tenant breakdown" >&2
  exit 1
fi
if [[ "$hog_throttled" -eq 0 ]]; then
  echo "smoke-qos: hog was never throttled (quota did not bite)" >&2
  exit 1
fi
if [[ "$calm_throttled" -ne 0 ]]; then
  echo "smoke-qos: calm was throttled $calm_throttled times (quota leaked across tenants)" >&2
  exit 1
fi
if [[ "$calm_accepted" -eq 0 ]]; then
  echo "smoke-qos: calm had no accepted sessions" >&2
  exit 1
fi
echo "smoke-qos: quota bit hog ($hog_throttled throttled), calm unaffected ($calm_accepted accepted)"

echo "smoke-qos: sending SIGTERM"
kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  echo "smoke-qos: muerpd still alive 10s after SIGTERM" >&2
  cat "$workdir/muerpd.log" >&2
  exit 1
fi
wait "$daemon_pid" || {
  echo "smoke-qos: muerpd exited non-zero" >&2
  cat "$workdir/muerpd.log" >&2
  exit 1
}
daemon_pid=""

grep -q "final admission summary:" "$workdir/muerpd.log" || {
  echo "smoke-qos: no final summary in daemon log" >&2
  cat "$workdir/muerpd.log" >&2
  exit 1
}
echo "smoke-qos: clean shutdown"
echo "smoke-qos: OK"
