# Quantumnet build/test/bench entry points. `make tier1` is the gate every
# change must pass; `make bench` refreshes the committed benchmark results.

GO ?= go
BENCH_OUT ?= BENCH_kernel.json
BENCH_LABEL ?= current
BENCH_TMP := $(shell mktemp -d 2>/dev/null || echo /tmp/quantumnet-bench)

.PHONY: build test vet race perfbench-build tier1 bench bench-service bench-check list-solvers serve loadtest smoke-service smoke-service-sharded smoke-recovery smoke-recovery-sharded smoke-qos smoke-timesim smoke-examples clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the data-race detector over the packages with internal
# concurrency: core's parallel all-pairs fan-out, sim's batch pool,
# quantum's shared ledger (the mutex-serialized mutation contract and
# lock-free read-only use), service's serve loop (admission + expiry wheel)
# beside HTTP handlers, durability wiring and the sharded two-phase router,
# qos's tenant scheduler and token buckets (hit from every submitting
# goroutine), the WAL's group-commit loop and snapshotter, topology's
# partitioner (read concurrently by shards), timesim's look-ahead seeder
# (one goroutine seeding session RNG streams beside the slot loop; workload
# rides along as its request source), and muerpd's daemon tests (which read
# the daemon's output while it runs).
race:
	$(GO) test -race ./internal/core ./internal/sim ./internal/quantum \
		./internal/service ./internal/qos ./internal/wal ./internal/snapshot \
		./internal/topology ./internal/timesim ./internal/workload ./cmd/muerpd

# perfbench-build compiles and vets the benchmark module (perfbench/, built
# offline against this checkout through its replace directive), so a change
# to the internal/service API that breaks the benchmark fails the merge gate
# rather than the benchmark run.
perfbench-build:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# tier1 is the repo's merge gate: build, full tests, vet, race, and the
# benchmark module's build + vet.
tier1: build test vet race perfbench-build

# bench refreshes BENCH_kernel.json's "$(BENCH_LABEL)" run: the channel
# search kernel + solver microbenches (with allocation counts), the two
# headline figure benches and one qsim-flash slot-engine job
# (BenchmarkRunFlash, serial and with the look-ahead seeder). Compare runs with `benchstat` on the raw text
# outputs left in $(BENCH_TMP). See EXPERIMENTS.md for the protocol.
bench:
	mkdir -p $(BENCH_TMP)
	$(GO) test -run '^$$' -bench 'BenchmarkAlgorithm1ChannelSearch|BenchmarkSolvers' \
		-benchmem -benchtime 2s . | tee $(BENCH_TMP)/kernel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkChannelSearch|BenchmarkConnectUnions' \
		-benchmem -benchtime 2s ./internal/core | tee $(BENCH_TMP)/engine.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFig5Topology|BenchmarkFig6aUsers' \
		-benchmem -benchtime 2x . | tee $(BENCH_TMP)/figs.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRunFlash' \
		-benchmem -benchtime 20x ./internal/timesim | tee $(BENCH_TMP)/timesim.txt
	$(GO) run ./cmd/benchreport -label $(BENCH_LABEL) -o $(BENCH_OUT) \
		$(BENCH_TMP)/kernel.txt $(BENCH_TMP)/engine.txt $(BENCH_TMP)/figs.txt \
		$(BENCH_TMP)/timesim.txt

# bench-service refreshes the "footprint" run: the end-to-end admission
# loop across batch sizes and durability, the solve-bound big-workers1
# variant, and the sharded admission plane (sharded-shards{1,2,4}). The
# shardsN/shards1 ratio is the sharding speedup; it needs GOMAXPROCS >= N
# to show — on fewer cores the sweep records coordination overhead instead
# (see EXPERIMENTS.md). Recorded with -benchmem so the alloc regression
# gate arms against this run.
bench-service:
	mkdir -p $(BENCH_TMP)
	$(GO) test -run '^$$' -bench 'BenchmarkAdmissionLoop|BenchmarkShardedAdmission' \
		-benchmem -benchtime 1s ./internal/service | tee $(BENCH_TMP)/service.txt
	$(GO) run ./cmd/benchreport -label footprint -o $(BENCH_OUT) \
		$(BENCH_TMP)/service.txt

# bench-check is the CI perf smoke: quick (short-benchtime) passes over the
# solver/engine benches and the admission loop, each diffed against the
# committed baseline run that covers the same suite (kernel benches against
# the newest overlapping run, admission benches against the "footprint"
# run). Exits non-zero when any shared benchmark is >15% worse in ns/op,
# B/op or allocs/op (the alloc gates arm only where both sides carry
# -benchmem columns); names are paired ignoring the -N procs suffix so the
# committed baseline works across machines. See `benchreport -check`.
bench-check:
	mkdir -p $(BENCH_TMP)
	$(GO) test -run '^$$' -bench 'BenchmarkAlgorithm1ChannelSearch|BenchmarkSolvers' \
		-benchmem -benchtime 0.5s . | tee $(BENCH_TMP)/smoke-kernel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkChannelSearch|BenchmarkConnectUnions' \
		-benchmem -benchtime 0.5s ./internal/core | tee $(BENCH_TMP)/smoke-engine.txt
	$(GO) run ./cmd/benchreport -label smoke -o $(BENCH_TMP)/smoke.json \
		$(BENCH_TMP)/smoke-kernel.txt $(BENCH_TMP)/smoke-engine.txt
	$(GO) run ./cmd/benchreport -check $(BENCH_OUT) $(BENCH_TMP)/smoke.json
	$(GO) test -run '^$$' -bench 'BenchmarkAdmissionLoop' \
		-benchmem -benchtime 0.3s ./internal/service | tee $(BENCH_TMP)/smoke-service.txt
	$(GO) run ./cmd/benchreport -label smoke-service -o $(BENCH_TMP)/smoke-service.json \
		$(BENCH_TMP)/smoke-service.txt
	$(GO) run ./cmd/benchreport -check -against footprint \
		$(BENCH_OUT) $(BENCH_TMP)/smoke-service.json

# list-solvers prints every routing scheme in the registry, with labels and
# per-scheme assumptions (sufficient capacity, randomness).
list-solvers:
	$(GO) run ./cmd/muerp -alg list

# serve boots the admission daemon on the default address (override with
# ADDR=host:port). See DESIGN.md §6 for the HTTP API.
ADDR ?= 127.0.0.1:8089
serve:
	$(GO) run ./cmd/muerpd -addr $(ADDR)

# loadtest replays a workload against an already-running daemon at ADDR.
loadtest:
	$(GO) run ./cmd/qload -addr $(ADDR) -sessions 200 -unit 5ms

# smoke-service is the CI end-to-end check: boot muerpd on a random port,
# replay ~50 sessions through qload (>=1 must be accepted), SIGTERM, and
# require a clean drain within 10s.
smoke-service:
	bash scripts/smoke_service.sh

# smoke-service-sharded reruns the serving smoke against a 4-shard daemon:
# qload must detect the partition, print the per-shard breakdown, and the
# router counters must surface through /metrics.
smoke-service-sharded:
	SHARDS=4 bash scripts/smoke_service.sh

# smoke-qos is the CI multi-tenant check: boot muerpd with a two-tenant
# policy (one tenant on a tight quota), replay a weighted mix through qload
# with a retry budget, and require the quota to throttle only that tenant
# while the other's traffic is admitted. See DESIGN.md §11.
smoke-qos:
	bash scripts/smoke_qos.sh

# smoke-timesim is the CI slotted-simulator check: two same-seed qsim runs
# must be byte-identical (at different -parallel values), a 10^5-session
# Poisson workload must complete, and a small TTL sweep must emit the
# delivered-rate CSV. See DESIGN.md §12.
smoke-timesim:
	bash scripts/smoke_timesim.sh

# smoke-recovery is the CI crash-durability check: boot muerpd with a data
# directory, admit 20 long-TTL sessions over HTTP, SIGKILL, restart on the
# same directory, and require >=95% of the sessions to be live again; ends
# with an offline qrecover pass over the directory. See DESIGN.md §7.
smoke-recovery:
	bash scripts/smoke_recovery.sh

# smoke-recovery-sharded reruns the crash-durability smoke against a
# two-shard daemon: per-shard WAL streams replay independently and qrecover
# must verify and compose both shards offline.
smoke-recovery-sharded:
	SHARDS=2 bash scripts/smoke_recovery.sh

# smoke-examples runs every program under examples/ end to end; `make build`
# only compiles them. Each must exit 0 within 120s (distributed-computing,
# the slowest, takes ~8s on 2 vCPU).
smoke-examples:
	@for ex in $(dir $(wildcard examples/*/main.go)); do \
		echo "== $$ex"; \
		timeout 120 $(GO) run ./$$ex || exit 1; \
	done

clean:
	$(GO) clean ./...
