package quantumnet_test

// Benchmark harness for the paper's evaluation (§V). There is one benchmark
// per figure — each iteration regenerates that figure's full sweep at a
// reduced batch size (3 networks per point instead of the paper's 20) so
// `go test -bench .` both times the pipeline and re-derives every reported
// trend. cmd/experiments runs the same drivers at full scale and prints the
// rows; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Microbenchmarks below the figure benches time the individual building
// blocks (topology generation, Algorithm 1 channel search, each routing
// algorithm, Monte Carlo rounds, the distributed runtime).

import (
	"context"
	"math/rand"
	"testing"
	"time"

	quantumnet "github.com/muerp/quantumnet"
	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/montecarlo"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/runtime"
	"github.com/muerp/quantumnet/internal/sim"
	"github.com/muerp/quantumnet/internal/solver"
	"github.com/muerp/quantumnet/internal/topology"
	"github.com/muerp/quantumnet/internal/transport"
)

// benchConfig returns the experiment defaults at benchmark batch size.
func benchConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Networks = 3
	return cfg
}

// checkSeries fails the benchmark if a figure regeneration errored or came
// back empty, so a broken driver cannot masquerade as a fast one.
func checkSeries(b *testing.B, s sim.Series, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if len(s.Points) == 0 {
		b.Fatal("empty series")
	}
}

// BenchmarkFig5Topology regenerates Fig. 5: entanglement rate vs. topology
// (Waxman, Watts-Strogatz, Volchenkov) for all five schemes.
func BenchmarkFig5Topology(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := sim.Fig5(cfg)
		checkSeries(b, s, err)
	}
}

// BenchmarkFig6aUsers regenerates Fig. 6a: rate vs. number of users.
func BenchmarkFig6aUsers(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := sim.Fig6aUsers(cfg, nil)
		checkSeries(b, s, err)
	}
}

// BenchmarkFig6bSwitches regenerates Fig. 6b: rate vs. number of switches.
func BenchmarkFig6bSwitches(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := sim.Fig6bSwitches(cfg, nil)
		checkSeries(b, s, err)
	}
}

// BenchmarkFig7aDegree regenerates Fig. 7a: rate vs. average degree.
func BenchmarkFig7aDegree(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := sim.Fig7aDegree(cfg, nil)
		checkSeries(b, s, err)
	}
}

// BenchmarkFig7bRemoval regenerates Fig. 7b: rate vs. removed-fiber ratio
// (600 fibers, cumulative random removal until infeasible).
func BenchmarkFig7bRemoval(b *testing.B) {
	cfg := benchConfig()
	cfg.Networks = 2
	for i := 0; i < b.N; i++ {
		s, err := sim.Fig7bRemoval(cfg, 60)
		checkSeries(b, s, err)
	}
}

// BenchmarkFig8aQubits regenerates Fig. 8a: rate vs. qubits per switch.
func BenchmarkFig8aQubits(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := sim.Fig8aQubits(cfg, nil)
		checkSeries(b, s, err)
	}
}

// BenchmarkFig8bSwapRate regenerates Fig. 8b: rate vs. swap success rate.
func BenchmarkFig8bSwapRate(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := sim.Fig8bSwapRate(cfg, nil)
		checkSeries(b, s, err)
	}
}

// ---- ablation benches (design choices DESIGN.md calls out) ----

// BenchmarkAblationReplayOrder regenerates the Algorithm 3 phase-1 replay
// order study (descending = the paper's greedy rule vs ascending/random).
func BenchmarkAblationReplayOrder(b *testing.B) {
	cfg := benchConfig()
	cfg.Topology.SwitchQubits = 2
	for i := 0; i < b.N; i++ {
		s, err := sim.AblationReplayOrder(cfg)
		checkSeries(b, s, err)
	}
}

// BenchmarkAblationPrimStart regenerates the Algorithm 4 starting-user
// study (random start vs best of all starts).
func BenchmarkAblationPrimStart(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := sim.AblationPrimStart(cfg)
		checkSeries(b, s, err)
	}
}

// BenchmarkAblationNFusionHub regenerates the N-FUSION hub-selection study
// (our charitable best-hub reconstruction vs a fixed hub).
func BenchmarkAblationNFusionHub(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := sim.AblationNFusionHub(cfg)
		checkSeries(b, s, err)
	}
}

// BenchmarkAblationWaxmanAlpha regenerates the Waxman locality sweep.
func BenchmarkAblationWaxmanAlpha(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := sim.AblationWaxmanAlpha(cfg, []float64{0.1, 0.4})
		checkSeries(b, s, err)
	}
}

// ---- microbenchmarks ----

// benchNetwork draws one paper-default network.
func benchNetwork(b *testing.B, seed int64) *quantumnet.Graph {
	b.Helper()
	g, err := topology.Generate(topology.Default(), rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchProblem(b *testing.B, g *quantumnet.Graph) *core.Problem {
	b.Helper()
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTopologyGenerate times one default network draw per model.
func BenchmarkTopologyGenerate(b *testing.B) {
	for _, model := range []topology.Model{topology.Waxman, topology.WattsStrogatz, topology.Volchenkov} {
		b.Run(model.String(), func(b *testing.B) {
			cfg := topology.Default()
			cfg.Model = model
			for i := 0; i < b.N; i++ {
				if _, err := topology.Generate(cfg, rand.New(rand.NewSource(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithm1ChannelSearch times one single-source max-rate channel
// search on the default network (the inner loop of every routing scheme).
func BenchmarkAlgorithm1ChannelSearch(b *testing.B) {
	g := benchNetwork(b, 1)
	p := benchProblem(b, g)
	src := p.Users[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.MaxRateChannels(src, nil, nil); len(got) == 0 {
			b.Fatal("no channels found")
		}
	}
}

// BenchmarkSolvers times each of the paper's routing schemes on the
// paper-default network, through its registry entry. Algorithm 2 solves the
// sufficient-capacity copy (20 qubits per switch), as in the figures.
func BenchmarkSolvers(b *testing.B) {
	g := benchNetwork(b, 1)
	boosted := g.Clone()
	boosted.SetAllSwitchQubits(20)
	for _, e := range solver.Defaults() {
		net := g
		if e.NeedsSufficientCapacity {
			net = boosted
		}
		b.Run(e.Name, func(b *testing.B) {
			p := benchProblem(b, net)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Solve(context.Background(), p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonteCarlo times 10k stochastic rounds of a routed tree.
func BenchmarkMonteCarlo(b *testing.B) {
	g := benchNetwork(b, 1)
	p := benchProblem(b, g)
	sol, err := core.SolveConflictFreeContext(context.Background(), p, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := montecarlo.SimulateSolution(g, sol, p.Params, 10_000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedExecution times the full §II-B protocol (request,
// plan, 100 synchronized rounds) on an in-process message plane with a
// goroutine per node.
func BenchmarkDistributedExecution(b *testing.B) {
	cfg := topology.Default()
	cfg.Users = 5
	cfg.Switches = 15
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := transport.NewInMemory()
		_, err := runtime.Run(ctx, net, g, runtime.Config{
			Solver: core.SolveConflictFreeContext,
			Params: quantum.DefaultParams(),
			Rounds: 100,
			Seed:   int64(i),
		})
		_ = net.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalityGaps regenerates the exact-vs-heuristic gap study at
// reduced instance count.
func BenchmarkOptimalityGaps(b *testing.B) {
	cfg := sim.DefaultGapConfig()
	cfg.Instances = 5
	for i := 0; i < b.N; i++ {
		s, err := sim.OptimalityGaps(cfg)
		checkSeries(b, s, err)
	}
}
