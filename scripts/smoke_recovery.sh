#!/usr/bin/env bash
# Smoke-test crash recovery end to end: boot muerpd with a data directory,
# admit long-TTL sessions over HTTP, SIGKILL the daemon (no drain, no final
# snapshot), restart it on the same directory, and require >=95% of the
# admitted sessions to be live again. Finishes with a clean SIGTERM and an
# offline qrecover pass over the directory the daemon left behind.
#
# Environment knobs:
#   TARGET    sessions to admit before the crash (default 20)
#   GO        go binary                          (default go)
set -euo pipefail

GO=${GO:-go}
TARGET=${TARGET:-20}

command -v jq >/dev/null || { echo "smoke-recovery: jq is required" >&2; exit 1; }

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
  if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill -KILL "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

# The same topology flags on every boot: recovery refuses to replay a WAL
# against a different network (the pinned topology check).
topo_flags=(-users 10 -switches 30 -seed 3 -qubits 4)
data_dir="$workdir/data"

start_daemon() {
  local log=$1
  rm -f "$workdir/addr"
  "$workdir/muerpd" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
    -data-dir "$data_dir" -ttl 10m -max-ttl 30m \
    "${topo_flags[@]}" >"$log" 2>&1 &
  daemon_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    if [[ -s "$workdir/addr" ]]; then
      addr=$(cat "$workdir/addr")
      return
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
      echo "smoke-recovery: muerpd exited before binding" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "smoke-recovery: muerpd never wrote its address" >&2
  cat "$log" >&2
  exit 1
}

echo "smoke-recovery: building muerpd and qrecover"
"$GO" build -o "$workdir/muerpd" ./cmd/muerpd
"$GO" build -o "$workdir/qrecover" ./cmd/qrecover

echo "smoke-recovery: starting muerpd with data dir $data_dir"
start_daemon "$workdir/boot1.log"
echo "smoke-recovery: daemon at $addr"

# User node IDs are positions in the served topology's node array.
mapfile -t users < <(curl -fsS "http://$addr/topology" |
  jq -r '.nodes | to_entries | map(select(.value.kind == "user")) | .[].key')
if (( ${#users[@]} < 2 )); then
  echo "smoke-recovery: topology has ${#users[@]} users" >&2
  exit 1
fi

# Admit TARGET sessions two users at a time; TTLs (10m default) far outlive
# the test, so every admitted session should survive the crash.
ids_file="$workdir/session-ids"
: >"$ids_file"
admitted=0
n=${#users[@]}
for i in $(seq 0 199); do
  (( admitted >= TARGET )) && break
  a=${users[$(( i % n ))]}
  b=${users[$(( (i + 1 + i / n) % n ))]}
  [[ "$a" == "$b" ]] && continue
  code=$(curl -sS -o "$workdir/resp.json" -w '%{http_code}' \
    -X POST "http://$addr/sessions" \
    -H 'Content-Type: application/json' \
    -d "{\"users\":[$a,$b]}")
  if [[ "$code" == "201" ]]; then
    jq -r '.id' "$workdir/resp.json" >>"$ids_file"
    admitted=$((admitted + 1))
  fi
done
if (( admitted < TARGET )); then
  echo "smoke-recovery: only $admitted/$TARGET sessions admitted" >&2
  exit 1
fi
before_active=$(curl -fsS "http://$addr/metrics" | jq '.sessions.active')
echo "smoke-recovery: $admitted sessions admitted, $before_active active"

echo "smoke-recovery: SIGKILL (no drain, no final snapshot)"
kill -KILL "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

echo "smoke-recovery: restarting on the same data dir"
start_daemon "$workdir/boot2.log"
metrics=$(curl -fsS "http://$addr/metrics")
after_active=$(jq '.sessions.active' <<<"$metrics")
wal_records=$(jq '.durability.recovery.wal_records' <<<"$metrics")
echo "smoke-recovery: recovery replayed $wal_records WAL records, $after_active sessions active"
if [[ -z "$wal_records" || "$wal_records" == "null" || "$wal_records" -eq 0 ]]; then
  echo "smoke-recovery: restart did not replay any WAL records" >&2
  cat "$workdir/boot2.log" >&2
  exit 1
fi

recovered=0
while read -r id; do
  code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$addr/sessions/$id")
  [[ "$code" == "200" ]] && recovered=$((recovered + 1))
done <"$ids_file"
need=$(( (admitted * 95 + 99) / 100 ))
echo "smoke-recovery: $recovered/$admitted admitted sessions recovered (need >= $need)"
if (( recovered < need )); then
  echo "smoke-recovery: lost $((admitted - recovered)) sessions across the crash" >&2
  cat "$workdir/boot2.log" >&2
  exit 1
fi

echo "smoke-recovery: SIGTERM for a clean drain"
kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
  kill -0 "$daemon_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
  echo "smoke-recovery: muerpd still alive 10s after SIGTERM" >&2
  exit 1
fi
wait "$daemon_pid" || {
  echo "smoke-recovery: muerpd exited non-zero" >&2
  cat "$workdir/boot2.log" >&2
  exit 1
}
daemon_pid=""

echo "smoke-recovery: offline qrecover verification"
"$workdir/qrecover" -data-dir "$data_dir" | tee "$workdir/qrecover.out"

echo "smoke-recovery: OK"
