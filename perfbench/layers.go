package main

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/service"
	"github.com/muerp/quantumnet/internal/wal"
)

// session is one request of a solver replay, in the workload's own logical
// time unit (seconds for the daemon workloads, slots for qsim-flash).
type session struct {
	at, hold float64
	users    []graph.NodeID
}

// maxReplay bounds how many requests the solver replay times.
const maxReplay = 4000

// replaySolver times the solver layer alone: it replays the sessions in
// logical time through core.NewProblem, core.BuildGreedyTree and
// core.ReleaseTree on a fresh quantum.Ledger, releasing each accepted tree
// when its hold ends. It fills the core.* metrics.
func replaySolver(g *graph.Graph, params quantum.Params, sessions []session, m map[string]float64, rec *recorder) error {
	if len(sessions) > maxReplay {
		sessions = sessions[:maxReplay]
	}
	led := quantum.NewLedger(g)
	var live departures
	var newProblem, build []float64
	var stats core.SolveStats
	for i, s := range sessions {
		for live.Len() > 0 && live[0].end <= s.at {
			core.ReleaseTree(led, heap.Pop(&live).(departure).tree)
		}
		t0 := time.Now()
		prob, err := core.NewProblem(g, s.users, params)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("solver replay: request %d: %w", i, err)
		}
		tree, err := core.BuildGreedyTree(context.Background(), prob, led, &core.SolveOptions{Stats: &stats})
		t2 := time.Now()
		rec.add("core.new_problem", "", i, "", t0, t1)
		rec.add("core.build", "", i, "", t1, t2)
		newProblem = append(newProblem, us(t1.Sub(t0)))
		build = append(build, us(t2.Sub(t1)))
		switch {
		case err == nil:
			heap.Push(&live, departure{end: s.at + s.hold, tree: tree})
		case errors.Is(err, core.ErrInfeasible):
		default:
			return fmt.Errorf("solver replay: request %d: %w", i, err)
		}
	}
	sort.Float64s(newProblem)
	sort.Float64s(build)
	m["core.new_problem_p50_us"] = quantile(newProblem, 0.5)
	m["core.build_p50_us"] = quantile(build, 0.5)
	m["core.build_p99_us"] = quantile(build, 0.99)
	if len(sessions) > 0 {
		m["core.dijkstra_per_solve"] = float64(stats.DijkstraRuns) / float64(len(sessions))
	}
	return nil
}

type departure struct {
	end  float64
	tree quantum.Tree
}

type departures []departure

func (d departures) Len() int            { return len(d) }
func (d departures) Less(i, j int) bool  { return d[i].end < d[j].end }
func (d departures) Swap(i, j int)       { d[i], d[j] = d[j], d[i] }
func (d *departures) Push(x interface{}) { *d = append(*d, x.(departure)) }
func (d *departures) Pop() interface{} {
	old := *d
	x := old[len(old)-1]
	*d = old[:len(old)-1]
	return x
}

func requestSessions(reqs []request) []session {
	out := make([]session, len(reqs))
	for i, r := range reqs {
		out[i] = session{at: r.at.Seconds(), hold: r.ttl.Seconds(), users: r.users}
	}
	return out
}

// serviceLayers fills the queue, scheduler, cache and ledger metrics from a
// server's Metrics() after a pass.
func serviceLayers(sm service.Metrics, m map[string]float64) {
	m["service.batch_mean"] = sm.Batches.MeanSize
	m["service.solve_mean_us"] = sm.SolveLatency.MeanMs * 1000
	m["speculation.wasted_ratio"] = 0
	if sp := sm.Speculation; sp != nil {
		m["speculation.wasted_ratio"] = sp.WastedSolveRatio
	}
	m["solvecache.hit_rate"] = 0
	if sc := sm.SolveCache; sc != nil {
		m["solvecache.hit_rate"] = sc.HitRate
	}
	m["quantum.peak_used_qubits"] = float64(sm.Admission.PeakQubitsInUse)
	m["quantum.fp_reuse"] = 0
	if fp := sm.FootprintPool; fp != nil {
		m["quantum.fp_reuse"] = fp.ReuseRate
	}
}

// submitLayers fills the service.submit metrics from the submit spans, and the
// queue self time as submit mean minus solve mean.
func submitLayers(rec *recorder, m map[string]float64) {
	submit := rec.durations("service.submit", "")
	m["service.submit_p50_us"] = quantile(submit, 0.5)
	m["service.submit_p99_us"] = quantile(submit, 0.99)
	m["service.queue_self_mean_us"] = mean(submit) - m["service.solve_mean_us"]
}

// walLayers fills the durability metrics from a durable server's Metrics();
// sm.Durability must be set.
func walLayers(sm service.Metrics, decided int, m map[string]float64) {
	d := sm.Durability
	m["wal.sync_mean_ms"] = d.WAL.SyncMeanMs
	m["wal.sync_p99_ms"] = d.WAL.SyncP99Ms
	if d.WAL.Syncs > 0 {
		m["wal.records_per_sync"] = float64(d.WAL.Records) / float64(d.WAL.Syncs)
	}
	if decided > 0 {
		m["wal.syncs_per_decision"] = float64(d.WAL.Syncs) / float64(decided)
	}
	m["wal.compactions"] = float64(d.WAL.Compactions)
}

// walAppends is how many group commits the standalone WAL probe times.
const walAppends = 200

// appendProbe times wal.Log.Append on its own: a fresh log in dir, appending
// batches of the size the service achieved, each payload the service's mean
// record size. It returns the median append in microseconds.
func appendProbe(dir string, batch int, recordBytes int) (float64, error) {
	if batch < 1 {
		batch = 1
	}
	if recordBytes < 1 {
		recordBytes = 1
	}
	log, err := wal.Create(dir, 0, wal.Options{})
	if err != nil {
		return 0, err
	}
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = make([]byte, recordBytes)
	}
	lat := make([]float64, 0, walAppends)
	for i := 0; i < walAppends; i++ {
		t0 := time.Now()
		if err := log.Append(payloads...); err != nil {
			_ = log.Close()
			return 0, err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	if err := log.Close(); err != nil {
		return 0, err
	}
	return median(lat), nil
}

// offPath reports zero work for every per-layer metric under the given
// prefixes: layers the workload's requests never pass through. Every traced
// result so carries the full metric set, and a metric a workload should have
// measured but did not is still caught as missing.
func offPath(m map[string]float64, prefixes ...string) {
	for name := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				m[name] = 0
			}
		}
	}
}
