package service

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/topology"
)

var benchSeed atomic.Int64

// benchGraph is a paper-scale network: 10 users, 30 switches, 4 qubits.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	cfg := topology.Default()
	cfg.Users = 10
	cfg.Switches = 30
	cfg.SwitchQubits = 4
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatalf("topology: %v", err)
	}
	return g
}

// benchGraphBig is the solve-bound network of the big-workers1 variant:
// 12 users and 64 well-provisioned switches make each BuildGreedyTree search
// long enough that solving, not lock hand-off, dominates.
func benchGraphBig(b *testing.B) *graph.Graph {
	b.Helper()
	cfg := topology.Default()
	cfg.Users = 12
	cfg.Switches = 64
	cfg.SwitchQubits = 8
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatalf("topology: %v", err)
	}
	return g
}

// BenchmarkAdmissionLoop measures end-to-end Submit latency through the
// queue, the batching loop and the shared-ledger solver, with short TTLs so
// the expiry wheel keeps reclaiming capacity under load. Sub-benchmarks
// vary the micro-batch size; parallel clients stress the batch-fill path.
// The durable variants run the same load with the WAL enabled, so the
// delta is the group-commit cost: one fsync per admission batch, amortised
// across every request that shares it.
//
// big-workers1 moves to the solve-bound benchGraphBig. It keeps the name it
// had when it was the serial baseline of a worker sweep, so benchreport
// still pairs it with the committed "footprint" run.
func BenchmarkAdmissionLoop(b *testing.B) {
	for _, bench := range []struct {
		name     string
		maxBatch int
		durable  bool
		big      bool
	}{
		{name: "batch1", maxBatch: 1},
		{name: "batch16", maxBatch: 16},
		{name: "batch1-durable", maxBatch: 1, durable: true},
		{name: "batch8-durable", maxBatch: 8, durable: true},
		{name: "batch16-durable", maxBatch: 16, durable: true},
		{name: "big-workers1", maxBatch: 16, big: true},
	} {
		b.Run(bench.name, func(b *testing.B) {
			g := benchGraph(b)
			if bench.big {
				g = benchGraphBig(b)
			}
			cfg := Config{
				Graph:      g,
				QueueSize:  1024,
				MaxBatch:   bench.maxBatch,
				MaxWait:    200 * time.Microsecond,
				DefaultTTL: 2 * time.Millisecond,
				MaxTTL:     time.Second,
			}
			if bench.durable {
				cfg.DataDir = b.TempDir()
				// Push snapshots out of the window: the variant isolates
				// the per-batch WAL fsync, not the snapshot cadence.
				cfg.SnapshotEvery = 1 << 30
				cfg.SnapshotInterval = time.Hour
			}
			s, err := New(cfg)
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			defer func() { _ = s.Close() }()
			users := g.Users()
			var accepted, rejected, other atomic.Int64
			if bench.big {
				// Keep several clients per core in flight so micro-batches
				// actually fill, even on small runners.
				b.SetParallelism(8)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(benchSeed.Add(1)))
				members := make([]graph.NodeID, 0, 3)
				for pb.Next() {
					members = members[:0]
					size := 2 + rng.Intn(2)
					perm := rng.Perm(len(users))
					for i := 0; i < size; i++ {
						members = append(members, users[perm[i]])
					}
					_, err := s.Submit(context.Background(), members, 2*time.Millisecond)
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, core.ErrInfeasible), errors.Is(err, ErrQueueFull):
						rejected.Add(1)
					default:
						other.Add(1)
					}
				}
			})
			b.StopTimer()
			if other.Load() > 0 {
				b.Fatalf("%d submissions failed with unexpected errors", other.Load())
			}
			total := accepted.Load() + rejected.Load()
			if total > 0 {
				b.ReportMetric(float64(accepted.Load())/float64(total), "accept-ratio")
			}
			m := s.Metrics()
			if m.Batches.Count > 0 {
				b.ReportMetric(m.Batches.MeanSize, "batch-size")
			}
		})
	}
}
