package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/muerp/quantumnet/internal/fidelity"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/timesim"
	"github.com/muerp/quantumnet/internal/workload"
)

// qsimSlots is the horizon of one qsim-flash job.
const qsimSlots = 1000

// qsimInputs is how many distinct jobs a run cycles through: each is its own
// draw from the workload seed, so a run's median rests on several inputs
// rather than on one draw's size.
const qsimInputs = 8

// pinnedTraceDigest records, per workload seed, the FNV-1a fold of timesim's
// trace hashes over the seed's qsimInputs jobs. The simulator is
// bit-deterministic at any parallelism, so a change that moves one of these
// changed the physics, not just its speed. Seeds not listed are held to
// their own first job instead.
var pinnedTraceDigest = map[int64]uint64{
	1:  0x751f54afcf2adb6c,
	2:  0x76ace25caa30153c,
	3:  0x7c0a3433c08eb186,
	4:  0x11dd53099cb769b2,
	5:  0x57e8639c63aba2a7,
	6:  0x0dc9e8e9ea9826eb,
	7:  0x6266c242dbf2d992,
	8:  0xf31621f426fbdebb,
	9:  0xdd5eaf9294c2b780,
	10: 0x3ba2af7324e37196,
}

// qsimJob draws job k of a seed: flash arrivals averaging one session per
// slot with an 8× burst, groups of 2–3 users, holds averaging 25 slots.
func qsimJob(g *graph.Graph, seed int64, k int) ([]sched.Request, error) {
	proc, err := workload.ParseProcess("flash", 1, qsimSlots)
	if err != nil {
		return nil, err
	}
	arrivals, err := workload.Arrivals(proc, qsimSlots, rand.New(rand.NewSource(subSeed(seed, k, 0))))
	if err != nil {
		return nil, err
	}
	return workload.Draw{MeanHold: 25, MinUsers: 2, MaxUsers: 3}.Sessions(g, arrivals, rand.New(rand.NewSource(subSeed(seed, k, 1))))
}

// qsimConfig is `qsim -ttl 8 -gamma 0.01 -min-fidelity 0.8 -fail-prob 5e-4
// -repair-slots 25` at the given parallelism.
func qsimConfig(g *graph.Graph, seed int64, parallelism int) timesim.Config {
	fid := fidelity.DefaultModel()
	fid.Gamma = 0.01
	return timesim.Config{
		Graph:       g,
		Params:      params,
		Fid:         fid,
		Slots:       qsimSlots,
		MemoryTTL:   8,
		MinFidelity: 0.8,
		Algorithm:   timesim.GreedyAlgorithm,
		Seed:        seed,
		FailProb:    5e-4,
		RepairSlots: 25,
		Parallelism: parallelism,
	}
}

// qsimPass runs jobs, cycling through the inputs, until budget has passed
// and every input ran at least once. Each job starts from a collected heap,
// as a fresh qsim process would.
type qsimPass struct {
	inputMs           [][]float64 // wall time of every run of each input
	offered, admitted int         // over the first run of each input
	totalOffered      int
	totalWall         time.Duration
	reports           []timesim.Report // first report of each input
}

func runQsimPass(cfg timesim.Config, inputs [][]sched.Request, budget time.Duration, rec *recorder, out *outcome) (qsimPass, error) {
	p := qsimPass{inputMs: make([][]float64, len(inputs))}
	start := time.Now()
	for job := 0; job < len(inputs) || time.Since(start) < budget; job++ {
		k := job % len(inputs)
		runtime.GC()
		t0 := time.Now()
		r, err := timesim.Run(context.Background(), cfg, inputs[k])
		t1 := time.Now()
		if err != nil {
			return p, fmt.Errorf("timesim job %d: %w", job, err)
		}
		rec.add("timesim.run", "", job, fmt.Sprint(k), t0, t1)
		p.inputMs[k] = append(p.inputMs[k], ms(t1.Sub(t0)))
		p.totalWall += t1.Sub(t0)
		p.totalOffered += r.Offered
		out.check(r.Offered == len(inputs[k]) && r.Offered == r.Admitted+r.Rejected,
			"timesim job %d: offered %d of %d requests, admitted %d + rejected %d",
			job, r.Offered, len(inputs[k]), r.Admitted, r.Rejected)
		if job < len(inputs) {
			p.reports = append(p.reports, r)
			p.offered += r.Offered
			p.admitted += r.Admitted
		} else if want := p.reports[k].TraceHash; r.TraceHash != want {
			out.check(false, "timesim job %d: trace hash %#x, input %d first ran as %#x", job, r.TraceHash, k, want)
		}
	}
	return p, nil
}

// jobQuantile is the q-quantile over the pass's inputs of each input's
// median wall time. A job's wall time swings by half with the load on a
// shared host, in phases longer than a job, so the tail of the raw times
// measured those phases rather than the simulator; the median over an
// input's repeats is its steady cost, and the quantile over inputs keeps
// the spread that the jobs themselves cause.
func (p qsimPass) jobQuantile(q float64) float64 {
	per := make([]float64, len(p.inputMs))
	for k, w := range p.inputMs {
		per[k] = median(w)
	}
	return quantile(sortedCopy(per), q)
}

// digest folds the first trace hash of every input (FNV-1a over 64-bit
// words, as timesim folds its own trace).
func (p qsimPass) digest() uint64 {
	h := uint64(14695981039346656037)
	for _, r := range p.reports {
		for i := 0; i < 8; i++ {
			h ^= (r.TraceHash >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

func checkDigest(out *outcome, seed int64, p qsimPass) {
	out.notes = append(out.notes, fmt.Sprintf("timesim trace digest for seed %d: %#x", seed, p.digest()))
	if want, ok := pinnedTraceDigest[seed]; ok {
		out.check(p.digest() == want, "timesim trace digest %#x for seed %d, recorded %#x", p.digest(), seed, want)
	}
}

func runQsimFlash(opts options, out *outcome) error {
	// Set-up is what the run does before its first slot: generate the
	// network and draw every input's sessions; the last set-up's are used.
	var g *graph.Graph
	var inputs [][]sched.Request
	var setups []float64
	var draw time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if g, err = bigNet.generate(); err != nil {
			return err
		}
		t1 := time.Now()
		inputs = make([][]sched.Request, qsimInputs)
		for k := range inputs {
			if inputs[k], err = qsimJob(g, opts.seed, k); err != nil {
				return err
			}
		}
		draw = time.Since(t1)
		setups = append(setups, time.Since(t0).Seconds())
	}
	budget := time.Duration(opts.seconds) * time.Second
	cfg := qsimConfig(g, opts.seed, runtime.GOMAXPROCS(0))

	if !opts.trace {
		p, err := runQsimPass(cfg, inputs, budget, nil, out)
		if err != nil {
			return err
		}
		checkDigest(out, opts.seed, p)
		m := out.metrics
		out.attempted = int64(p.totalOffered)
		m["setup_s"] = median(setups)
		m["latency_p50_ms"] = p.jobQuantile(0.5)
		m["latency_p99_ms"] = p.jobQuantile(0.99)
		m["decided_per_s"] = float64(p.totalOffered) / p.totalWall.Seconds()
		m["accept_ratio"] = float64(p.admitted) / float64(p.offered)
		m["ok_ratio"] = 1
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		m["peak_rss_mb"] = rss
		return nil
	}

	m := out.metrics
	m["workload.draw_ms"] = ms(draw) / qsimInputs
	untraced, err := runQsimPass(cfg, inputs, budget/2, nil, out)
	if err != nil {
		return err
	}
	rec := newRecorder()
	traced, err := runQsimPass(cfg, inputs, budget/2, rec, out)
	if err != nil {
		return err
	}
	checkDigest(out, opts.seed, traced)
	t1 := time.Now()
	serial, err := timesim.Run(context.Background(), qsimConfig(g, opts.seed, 1), inputs[0])
	if err != nil {
		return err
	}
	m["timesim.run_s_par1"] = time.Since(t1).Seconds()
	out.check(serial.TraceHash == traced.reports[0].TraceHash,
		"timesim at parallelism 1: trace hash %#x, parallel run %#x", serial.TraceHash, traced.reports[0].TraceHash)
	out.attempted = int64(untraced.totalOffered + traced.totalOffered + serial.Offered)

	var slots, links, purify, repairs, dijkstra, admitted, delivered float64
	for _, r := range traced.reports {
		slots += float64(r.Slots)
		links += float64(r.LinkAttempts)
		purify += float64(r.PurifyAttempts)
		repairs += float64(r.Repairs)
		dijkstra += float64(r.Work.DijkstraRuns)
		admitted += float64(r.Admitted)
		delivered += float64(r.Delivered)
	}
	m["timesim.link_attempts_per_slot"] = links / slots
	m["timesim.purify_rounds_per_slot"] = purify / slots
	m["timesim.repairs"] = repairs / qsimInputs
	m["timesim.dijkstra_per_admit"] = dijkstra / admitted
	m["timesim.delivered_per_slot"] = delivered / slots
	m["trace.overhead_p50_ms"] = traced.jobQuantile(0.5) - untraced.jobQuantile(0.5)
	offPath(m, "loadgen.", "http.", "service.", "speculation.", "solvecache.", "quantum.", "router.", "qos.", "wal.")
	sessions := make([]session, len(inputs[0]))
	for i, r := range inputs[0] {
		sessions[i] = session{at: r.Arrival, hold: r.Hold, users: r.Users}
	}
	if err := replaySolver(g, params, sessions, m, rec); err != nil {
		return err
	}
	return rec.write(opts, "traced")
}
