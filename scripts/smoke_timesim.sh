#!/usr/bin/env bash
# Smoke-test the discrete-time slotted simulator (internal/timesim) through
# cmd/qsim:
#   1. determinism — two runs with the same seed must print byte-identical
#      output (the summary carries the engine's FNV-1a trace hash, so any
#      trajectory drift shows up as a diff);
#   2. scale — a 10^5-session Poisson workload (5000 slots at 20
#      arrivals/slot) must complete, and its output at -parallel 2 (with the
#      look-ahead seeder racing an overloaded admission path) must equal the
#      output at -parallel 1;
#   3. CSV — a small TTL sweep must emit the delivered-rate-vs-TTL table
#      with the expected header and one row per TTL.
#
# Environment knobs:
#   SLOTS   slots for the scale run        (default 5000)
#   RATE    arrivals/slot for the scale run (default 20)
#   GO      go binary                      (default go)
set -euo pipefail

GO=${GO:-go}
SLOTS=${SLOTS:-5000}
RATE=${RATE:-20}

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

echo "smoke-timesim: building qsim"
"$GO" build -o "$workdir/qsim" ./cmd/qsim

echo "smoke-timesim: determinism (same seed, twice, -parallel 4 vs 1)"
"$workdir/qsim" -slots 300 -rate 0.4 -arrival diurnal -seed 11 -fail-prob 0.002 \
  -min-fidelity 0.8 -parallel 4 >"$workdir/run_a.out"
"$workdir/qsim" -slots 300 -rate 0.4 -arrival diurnal -seed 11 -fail-prob 0.002 \
  -min-fidelity 0.8 -parallel 1 >"$workdir/run_b.out"
if ! diff -u "$workdir/run_a.out" "$workdir/run_b.out"; then
  echo "smoke-timesim: same-seed runs diverged" >&2
  exit 1
fi
grep -q "^trace hash:" "$workdir/run_a.out" || {
  echo "smoke-timesim: no trace hash in qsim output" >&2
  cat "$workdir/run_a.out" >&2
  exit 1
}

echo "smoke-timesim: 10^5-session Poisson scale run ($SLOTS slots, $RATE/slot)"
"$workdir/qsim" -slots "$SLOTS" -rate "$RATE" -hold 5 -seed 2 -parallel 2 >"$workdir/scale.out"
"$workdir/qsim" -slots "$SLOTS" -rate "$RATE" -hold 5 -seed 2 -parallel 1 >"$workdir/scale_serial.out"
if ! diff -u "$workdir/scale.out" "$workdir/scale_serial.out"; then
  echo "smoke-timesim: scale run differs between -parallel 2 and -parallel 1" >&2
  exit 1
fi
offered=$(awk '$1 == "offered:" {print $2}' "$workdir/scale.out")
if [[ -z "$offered" || "$offered" -lt 90000 ]]; then
  echo "smoke-timesim: scale run offered only ${offered:-0} sessions (want ~10^5)" >&2
  cat "$workdir/scale.out" >&2
  exit 1
fi
delivered=$(awk '$1 == "delivered:" {print $2}' "$workdir/scale.out")
if [[ -z "$delivered" || "$delivered" -eq 0 ]]; then
  echo "smoke-timesim: scale run delivered nothing" >&2
  cat "$workdir/scale.out" >&2
  exit 1
fi
echo "smoke-timesim: scale run offered $offered sessions, delivered $delivered states"

echo "smoke-timesim: TTL sweep CSV"
"$workdir/qsim" -slots 400 -rate 0.3 -seed 7 -sweep-ttl 1,4,16 \
  -out "$workdir/ttl.csv" >"$workdir/sweep.out"
head -1 "$workdir/ttl.csv" | grep -q "^ttl,offered,admitted," || {
  echo "smoke-timesim: unexpected sweep CSV header" >&2
  cat "$workdir/ttl.csv" >&2
  exit 1
}
rows=$(($(wc -l <"$workdir/ttl.csv") - 1))
if [[ "$rows" -ne 3 ]]; then
  echo "smoke-timesim: sweep CSV has $rows data rows, want 3" >&2
  cat "$workdir/ttl.csv" >&2
  exit 1
fi
echo "smoke-timesim: OK"
