package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/service"
)

// params are muerpd's default physical constants (-q 0.9, -alpha 1e-4).
var params = quantum.Params{Alpha: 1e-4, SwapProb: 0.9}

// muerpdConfig is the service.Config muerpd builds from its default flags.
// Workers follows muerpd's default of GOMAXPROCS, not Config's own default
// of 1, so two or more cores run the speculative scheduler here as they do
// in the daemon.
func muerpdConfig(g *graph.Graph) service.Config {
	return service.Config{
		Graph:            g,
		Params:           params,
		QueueSize:        256,
		MaxBatch:         16,
		MaxWait:          2 * time.Millisecond,
		Workers:          runtime.GOMAXPROCS(0),
		DefaultTTL:       30 * time.Second,
		MaxTTL:           10 * time.Minute,
		SnapshotEvery:    1024,
		SnapshotInterval: 30 * time.Second,
	}
}

// shardedTraffic: two weighted tenants mixed 3:1, flash arrivals at a
// 1000 req/s base with the conventional 8× burst once per window.
var shardedTraffic = traffic{
	process: "flash", rate: 1000, meanHold: 5 * time.Millisecond, minUsers: 2, maxUsers: 4,
	tenants: []tenantShare{{"gold", 3}, {"bronze", 1}},
	window:  2500 * time.Millisecond,
}

// shardedQoS is the -qos-config document of sharded-flash: no quotas.
var shardedQoS = &qos.Config{Tenants: []qos.TenantSpec{{ID: "gold", Weight: 3}, {ID: "bronze", Weight: 1}}}

// durableTraffic stays below the ~1000 req/s where the durable queue
// saturates.
var durableTraffic = traffic{
	process: "poisson", rate: 500, meanHold: 5 * time.Millisecond, minUsers: 2, maxUsers: 4,
	window: 2 * time.Second,
}

// setupReps is how many times a run sets up to time its set-up; the median
// is reported. One set-up takes milliseconds, so the median of many is what
// keeps setup_s steady.
const setupReps = 25

// timedSetups runs a workload's set-up setupReps times, closing all but the
// last instance, and returns that instance with the median set-up time. A
// set-up is everything a run does before its first request is due: generate
// the topology, draw the run's whole request stream and start the system.
// The draw matters beyond honesty: a durable start is a file create and two
// fsyncs, whose latency on a shared disk moved the median of that alone by
// 39% between two sets of runs; the CPU-bound draw makes it a small share. Each
// set-up starts from a collected heap.
func timedSetups[T interface{ Close() error }](start func() (T, error)) (T, float64, error) {
	var times []float64
	var inst T
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := start()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupReps-1 {
			inst = s
		} else if err := s.Close(); err != nil {
			return inst, 0, err
		}
	}
	return inst, median(times), nil
}

func kindOf(err error) int {
	switch {
	case err == nil:
		return kindAccepted
	case errors.Is(err, core.ErrInfeasible):
		return kindRejected
	default:
		return kindFailed
	}
}

// submitter is the in-process admission entry point both planes share.
type submitter interface {
	SubmitTenant(ctx context.Context, tenant string, users []graph.NodeID, ttl time.Duration) (service.SessionInfo, error)
}

// drive runs one open-loop pass through SubmitTenant. With a recorder it
// records each request's root span (due → decision) and its
// service.submit span, tagged by tag(r).
func drive(srv submitter, reqs []request, rec *recorder, tag func(*request) string) loopStats {
	samples := openLoop(reqs, func(ctx context.Context, r *request, start time.Time) int {
		t0 := time.Now()
		_, err := srv.SubmitTenant(ctx, r.tenant, r.users, r.ttl)
		t1 := time.Now()
		if rec != nil {
			rec.add("request", "", r.id, "", start.Add(r.at), t1)
			rec.add("service.submit", "request", r.id, tag(r), t0, t1)
		}
		return kindOf(err)
	})
	return summarise(samples)
}

func noTag(*request) string { return "" }

// checkTallies compares the server's own decision counters with the
// client's.
func checkTallies(out *outcome, phase string, rm service.RequestMetrics, st loopStats) {
	out.check(rm.Accepted == int64(st.accepted) && rm.Rejected == int64(st.rejected),
		"%s: server counted %d accepted / %d rejected, client saw %d / %d",
		phase, rm.Accepted, rm.Rejected, st.accepted, st.rejected)
}

func newSharded(g *graph.Graph) (*service.ShardedServer, error) {
	cfg := muerpdConfig(g)
	cfg.QoS = shardedQoS
	return service.NewSharded(service.ShardedConfig{Config: cfg, Shards: 4, PartitionSeed: 1, CrossRetries: 3})
}

// startSharded generates the topology, draws the run's stream into reqs and
// starts the plane, as muerpd -shards 4 does after process start.
func startSharded(seed int64, horizon time.Duration, reqs *[]request) (*service.ShardedServer, error) {
	g, err := bigNet.generate()
	if err != nil {
		return nil, err
	}
	if *reqs, _, err = makeStream(shardedTraffic, g, seed, horizon); err != nil {
		return nil, err
	}
	return newSharded(g)
}

// checkSharded verifies a sharded plane after a pass: tallies agree, and a
// consistent cut of every shard composes without torn sessions into a state
// that passes service.VerifyState. A cut may catch a cross-region session
// between two shards' expiry wheels; such tearing is transient, so the cut
// is retaken briefly before it counts as a failure.
func checkSharded(out *outcome, phase string, srv *service.ShardedServer, st loopStats) {
	checkTallies(out, phase, srv.Metrics().Requests, st)
	for attempt := 0; ; attempt++ {
		state, torn, err := srv.ComposedState()
		if err != nil {
			out.check(false, "%s: compose shard states: %v", phase, err)
			return
		}
		if len(torn) == 0 {
			err := service.VerifyState(srv.Graph(), params, state)
			out.check(err == nil, "%s: VerifyState on the composed state: %v", phase, err)
			return
		}
		if attempt == 200 {
			out.check(false, "%s: %d torn cross-region sessions in every cut", phase, len(torn))
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func runShardedFlash(opts options, out *outcome) error {
	g, err := bigNet.generate()
	if err != nil {
		return err
	}
	if !opts.trace {
		var reqs []request
		srv, setup, err := timedSetups(func() (*service.ShardedServer, error) {
			return startSharded(opts.seed, time.Duration(opts.seconds)*time.Second, &reqs)
		})
		if err != nil {
			return err
		}
		st := drive(srv, reqs, nil, noTag)
		checkSharded(out, "run", srv, st)
		if err := srv.Close(); err != nil {
			return err
		}
		return finishInProcess(out, st, setup)
	}

	// Traced: an untraced pass, then the same stream again with spans.
	reqs, draw, err := makeStream(shardedTraffic, g, opts.seed, time.Duration(opts.seconds)*time.Second/2)
	if err != nil {
		return err
	}
	m := out.metrics
	m["workload.draw_ms"] = ms(draw)
	base, err := newSharded(g)
	if err != nil {
		return err
	}
	untraced := drive(base, reqs, nil, noTag)
	checkSharded(out, "untraced pass", base, untraced)
	if err := base.Close(); err != nil {
		return err
	}

	srv, err := newSharded(g)
	if err != nil {
		return err
	}
	part := srv.Partition()
	class := func(r *request) string {
		for _, u := range r.users[1:] {
			if part.RegionOf(u) != part.RegionOf(r.users[0]) {
				return "cross"
			}
		}
		return "single"
	}
	rec := newRecorder()
	traced := drive(srv, reqs, rec, class)
	checkSharded(out, "traced pass", srv, traced)
	sm := srv.Metrics()
	if err := srv.Close(); err != nil {
		return err
	}
	out.attempted = int64(untraced.offered + traced.offered)
	out.failed = int64(untraced.failed + traced.failed)

	serviceLayers(sm.Metrics, m)
	submitLayers(rec, m)
	m["loadgen.late_p99_ms"] = quantile(traced.lateMs, 0.99)
	m["router.cross_rate"] = sm.Router.CrossRegionRate
	m["router.single_p50_us"] = quantile(rec.durations("service.submit", "single"), 0.5)
	m["router.cross_p50_us"] = quantile(rec.durations("service.submit", "cross"), 0.5)
	m["router.conflicts_per_1k"] = 0
	if sm.Router.CrossRegion > 0 {
		m["router.conflicts_per_1k"] = 1000 * float64(sm.Router.Conflicts) / float64(sm.Router.CrossRegion)
	}
	m["router.global_fallbacks"] = float64(sm.Router.GlobalFallbacks)
	m["qos.gold_p99_ms"] = tenantP99(reqs, traced, "gold")
	m["qos.bronze_p99_ms"] = tenantP99(reqs, traced, "bronze")
	m["trace.overhead_p50_ms"] = traced.windowQuantile(0.5) - untraced.windowQuantile(0.5)
	offPath(m, "http.", "wal.", "timesim.")
	if err := replaySolver(g, params, requestSessions(reqs), m, rec); err != nil {
		return err
	}
	out.budget = inProcessBudget(opts.workload, untraced, traced, rec, "queue+batch+router", m["service.solve_mean_us"]/1000, 0)
	return rec.write(opts, "traced")
}

// inProcessBudget splits the median band of a traced SubmitTenant pass into
// generator lateness, harness hand-off, the queue stage (named by queue),
// the WAL group commit (walMs, 0 without a data dir) and the solve.
func inProcessBudget(workload string, untraced, traced loopStats, rec *recorder, queue string, solveMs, walMs float64) *budget {
	submit := rec.byReq("service.submit")
	band := medianBand(traced)
	rows := []budgetRow{
		{"loadgen late", bandMean(band, func(i int) float64 { return ms(traced.samples[i].sent - traced.samples[i].due) }), "send - due"},
		{"harness", bandMean(band, func(i int) float64 { return ms(traced.samples[i].done-traced.samples[i].sent) - submit[i] }), "decision - send - SubmitTenant"},
		{queue, bandMean(band, func(i int) float64 { return submit[i] }) - solveMs - walMs, "SubmitTenant - solve mean - fsync mean"},
	}
	if walMs > 0 {
		rows = append(rows, budgetRow{"wal group commit", walMs, "Metrics().Durability fsync mean"})
	}
	rows = append(rows, budgetRow{"solve", solveMs, "Metrics().SolveLatency mean"})
	return newBudget(workload, untraced.windowQuantile(0.5), rows)
}

// tenantP99 is the p99 admission latency, due → decision, of one tenant's
// decided requests in a pass.
func tenantP99(reqs []request, st loopStats, tenant string) float64 {
	var lat []float64
	for i, s := range st.samples {
		if reqs[i].tenant == tenant && s.kind != kindFailed {
			lat = append(lat, ms(s.done-s.due))
		}
	}
	return quantile(sortedCopy(lat), 0.99)
}

// finishInProcess fills the end-to-end metrics of an untraced in-process
// run; the process itself is the measured program, so its own VmHWM is the
// peak resident memory.
func finishInProcess(out *outcome, st loopStats, setup float64) error {
	st.endToEnd(out)
	out.metrics["setup_s"] = setup
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	out.metrics["peak_rss_mb"] = rss
	return nil
}

// durableDirs hands out fresh data directories inside one directory of the
// build area, which the run removes when it ends.
type durableDirs struct {
	base string
	n    int
}

func (d *durableDirs) next() string {
	d.n++
	return filepath.Join(d.base, fmt.Sprint(d.n))
}

// durableSnapshotEvery defers snapshots past the end of a run. Each
// snapshot compacts the WAL, and on a disk where the segment rotation and
// deletion that follow take 0.2–0.9 s (ext4 mounted with discard), those
// stalls set the p99 alone: five 20 s runs read 275–567 ms. With snapshots
// deferred the workload measures the WAL group commit every decision waits
// on, steadily; the snapshot still runs when the server closes.
const durableSnapshotEvery = 1 << 20

// newDurable starts `muerpd -data-dir dir -snapshot-every 1048576
// -snapshot-interval 1h` on g.
func newDurable(g *graph.Graph, dir string) (*service.Server, error) {
	cfg := muerpdConfig(g)
	cfg.DataDir = dir
	cfg.SnapshotEvery = durableSnapshotEvery
	cfg.SnapshotInterval = time.Hour
	return service.New(cfg)
}

// checkDurable closes a durable server and verifies that recovery from its
// data directory reproduces a state VerifyState accepts.
func checkDurable(out *outcome, phase string, srv *service.Server, dir string, st loopStats) error {
	checkTallies(out, phase, srv.Metrics().Requests, st)
	if err := srv.Close(); err != nil {
		return err
	}
	rec, err := service.Recover(dir, srv.Graph())
	if err != nil {
		out.check(false, "%s: recover %s: %v", phase, dir, err)
		return nil
	}
	err = service.VerifyState(srv.Graph(), params, rec.State)
	out.check(err == nil, "%s: VerifyState on the recovered state: %v", phase, err)
	return nil
}

func runDurablePoisson(opts options, out *outcome) error {
	g, err := bigNet.generate()
	if err != nil {
		return err
	}
	dirs := &durableDirs{base: filepath.Join(buildDir(opts, "tmp"), fmt.Sprintf("durable-%d", os.Getpid()))}
	defer func() { _ = os.RemoveAll(dirs.base) }()
	if !opts.trace {
		var dir string
		var reqs []request
		srv, setup, err := timedSetups(func() (*service.Server, error) {
			g, err := bigNet.generate()
			if err != nil {
				return nil, err
			}
			if reqs, _, err = makeStream(durableTraffic, g, opts.seed, time.Duration(opts.seconds)*time.Second); err != nil {
				return nil, err
			}
			dir = dirs.next()
			return newDurable(g, dir)
		})
		if err != nil {
			return err
		}
		st := drive(srv, reqs, nil, noTag)
		if err := checkDurable(out, "run", srv, dir, st); err != nil {
			return err
		}
		return finishInProcess(out, st, setup)
	}

	reqs, draw, err := makeStream(durableTraffic, g, opts.seed, time.Duration(opts.seconds)*time.Second/2)
	if err != nil {
		return err
	}
	m := out.metrics
	m["workload.draw_ms"] = ms(draw)
	dir := dirs.next()
	base, err := newDurable(g, dir)
	if err != nil {
		return err
	}
	untraced := drive(base, reqs, nil, noTag)
	if err := checkDurable(out, "untraced pass", base, dir, untraced); err != nil {
		return err
	}

	dir = dirs.next()
	srv, err := newDurable(g, dir)
	if err != nil {
		return err
	}
	rec := newRecorder()
	traced := drive(srv, reqs, rec, noTag)
	sm := srv.Metrics()
	if err := checkDurable(out, "traced pass", srv, dir, traced); err != nil {
		return err
	}
	out.attempted = int64(untraced.offered + traced.offered)
	out.failed = int64(untraced.failed + traced.failed)

	serviceLayers(sm, m)
	submitLayers(rec, m)
	if sm.Durability == nil {
		return errors.New("durable server reports no durability metrics")
	}
	walLayers(sm, traced.decided(), m)
	w := sm.Durability.WAL
	recordBytes := 0
	if w.Records > 0 {
		recordBytes = int(w.Bytes / w.Records)
	}
	appendUs, err := appendProbe(dirs.next(), int(w.MeanBatch+0.5), recordBytes)
	if err != nil {
		return fmt.Errorf("wal append probe: %w", err)
	}
	m["wal.append_p50_us"] = appendUs
	m["loadgen.late_p99_ms"] = quantile(traced.lateMs, 0.99)
	m["trace.overhead_p50_ms"] = traced.windowQuantile(0.5) - untraced.windowQuantile(0.5)
	offPath(m, "http.", "router.", "qos.", "timesim.")
	if err := replaySolver(g, params, requestSessions(reqs), m, rec); err != nil {
		return err
	}
	out.budget = inProcessBudget(opts.workload, untraced, traced, rec, "queue+batch", m["service.solve_mean_us"]/1000, m["wal.sync_mean_ms"])
	return rec.write(opts, "traced")
}
