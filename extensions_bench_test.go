package quantumnet_test

// Benchmarks for the extension subsystems (fidelity floors, purification
// planning, dynamic admission, exact search, DOT rendering). These
// complement bench_test.go's per-figure benches.

import (
	"context"
	"math/rand"
	"testing"

	quantumnet "github.com/muerp/quantumnet"
	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/exact"
	"github.com/muerp/quantumnet/internal/fidelity"
	"github.com/muerp/quantumnet/internal/purify"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/topology"
	"github.com/muerp/quantumnet/internal/viz"
)

// BenchmarkFidelitySolve times the fidelity-constrained Prim solver on the
// paper-default network with a moderate floor.
func BenchmarkFidelitySolve(b *testing.B) {
	g := benchNetwork(b, 1)
	p := benchProblem(b, g)
	router := fidelity.Router{
		Params:      p.Params,
		Model:       fidelity.DefaultModel(),
		MinFidelity: 0.7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fidelity.Solve(context.Background(), p, router); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPurifyPlan times a purification schedule search.
func BenchmarkPurifyPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := purify.PlanChannel(0.75, 0.3, 0.97); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerSessions times a 200-session admission simulation on
// the paper-default network.
func BenchmarkSchedulerSessions(b *testing.B) {
	g := benchNetwork(b, 1)
	w := sched.Workload{Requests: 200, MeanInterarrival: 1, MeanHold: 8, MinUsers: 2, MaxUsers: 4}
	reqs, err := w.Generate(g, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Simulate(g, reqs, quantum.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSolve times the exhaustive optimum on a small instance.
func BenchmarkExactSolve(b *testing.B) {
	cfg := topology.Default()
	cfg.Users = 3
	cfg.Switches = 8
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Solve(context.Background(), p, exact.DefaultLimits(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDOTRender times rendering the routed paper-default network.
func BenchmarkDOTRender(b *testing.B) {
	g := benchNetwork(b, 1)
	p := benchProblem(b, g)
	sol, err := core.SolveConflictFreeContext(context.Background(), p, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := viz.DOT(g, sol); len(out) == 0 {
			b.Fatal("empty DOT")
		}
	}
}

// BenchmarkNSFNetRouting times routing all users on the NSFNET backbone.
func BenchmarkNSFNetRouting(b *testing.B) {
	g, err := quantumnet.NSFNet(8, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveConflictFreeContext(context.Background(), p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
