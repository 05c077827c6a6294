package montecarlo

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// threeUserStar builds the Fig. 4a network and its two-channel tree.
func threeUserStar(t *testing.T) (*graph.Graph, quantum.Tree, quantum.Params) {
	t.Helper()
	g := graph.New(4, 3)
	g.AddUser(0, 0)
	g.AddUser(2, 0)
	g.AddUser(1, 2)
	g.AddSwitch(1, 1, 4)
	for _, u := range []graph.NodeID{0, 1, 2} {
		g.MustAddEdge(u, 3, 1000)
	}
	p := quantum.DefaultParams()
	ch1, err := quantum.NewChannel(g, []graph.NodeID{0, 3, 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := quantum.NewChannel(g, []graph.NodeID{0, 3, 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, quantum.Tree{Channels: []quantum.Channel{ch1, ch2}}, p
}

func TestSimulateTreeMatchesAnalytic(t *testing.T) {
	g, tree, p := threeUserStar(t)
	res, err := SimulateTree(g, tree, p, 200000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("SimulateTree: %v", err)
	}
	if res.Trials != 200000 {
		t.Fatalf("Trials = %d", res.Trials)
	}
	if !almost(res.Analytic, tree.Rate()) {
		t.Fatalf("Analytic = %g, want %g", res.Analytic, tree.Rate())
	}
	// With 200k trials the estimate should sit comfortably within 5 CI
	// half-widths of the analytic value.
	if !res.Agrees(4) {
		t.Fatalf("empirical %g vs analytic %g (CI95 %g): no agreement",
			res.Rate, res.Analytic, res.CI95)
	}
}

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSimulateEmptyTreeAlwaysSucceeds(t *testing.T) {
	g, _, p := threeUserStar(t)
	res, err := SimulateTree(g, quantum.Tree{}, p, 100, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes != 100 || res.Rate != 1 {
		t.Fatalf("empty tree: %d/%d successes", res.Successes, res.Trials)
	}
}

func TestSimulateCertainSuccess(t *testing.T) {
	// q = 1 and negligible attenuation: every round succeeds.
	g := graph.New(3, 2)
	g.AddUser(0, 0)
	g.AddSwitch(1, 0, 4)
	g.AddUser(2, 0)
	g.MustAddEdge(0, 1, 1e-9)
	g.MustAddEdge(1, 2, 1e-9)
	p := quantum.Params{Alpha: 1e-12, SwapProb: 1}
	ch, err := quantum.NewChannel(g, []graph.NodeID{0, 1, 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateTree(g, quantum.Tree{Channels: []quantum.Channel{ch}}, p, 500, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes != 500 {
		t.Fatalf("certain channel failed %d times", res.Trials-res.Successes)
	}
}

func TestSimulateSolutionAppliesMeasurementFactor(t *testing.T) {
	g, tree, p := threeUserStar(t)
	sol := &core.Solution{Tree: tree, Algorithm: "nfusion", MeasurementFactor: 0.5}
	res, err := SimulateSolution(g, sol, p, 200000, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Analytic, tree.Rate()*0.5) {
		t.Fatalf("Analytic = %g, want %g", res.Analytic, tree.Rate()*0.5)
	}
	if !res.Agrees(4) {
		t.Fatalf("factor simulation disagrees: %g vs %g (CI %g)", res.Rate, res.Analytic, res.CI95)
	}
}

func TestSimulateRejections(t *testing.T) {
	g, tree, p := threeUserStar(t)
	rng := rand.New(rand.NewSource(5))
	if _, err := SimulateTree(g, tree, p, 0, rng); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := SimulateTree(g, tree, p, 10, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := SimulateTree(g, tree, quantum.Params{}, 10, rng); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := SimulateSolution(g, nil, p, 10, rng); err == nil {
		t.Error("nil solution accepted")
	}
	bad := &core.Solution{Tree: tree, MeasurementFactor: 1.5}
	if _, err := SimulateSolution(g, bad, p, 10, rng); err == nil {
		t.Error("measurement factor > 1 accepted")
	}
	// Channel referencing a missing fiber.
	broken := quantum.Tree{Channels: []quantum.Channel{{Nodes: []graph.NodeID{0, 2}, Rate: 0.5}}}
	if _, err := SimulateTree(g, broken, p, 10, rng); err == nil {
		t.Error("channel with missing fiber accepted")
	}
	short := quantum.Tree{Channels: []quantum.Channel{{Nodes: []graph.NodeID{0}, Rate: 0.5}}}
	if _, err := SimulateTree(g, short, p, 10, rng); err == nil {
		t.Error("one-node channel accepted")
	}
}

func TestSimulateDeterministicPerSeed(t *testing.T) {
	g, tree, p := threeUserStar(t)
	a, err := SimulateTree(g, tree, p, 5000, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTree(g, tree, p, 5000, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Successes != b.Successes {
		t.Fatalf("same seed, different successes: %d vs %d", a.Successes, b.Successes)
	}
}

// TestSimulateRoutedSolutionsEndToEnd: the analytic rate the routing
// algorithms report agrees with what the stochastic process delivers, for
// every algorithm on one fixed network.
func TestSimulateRoutedSolutionsEndToEnd(t *testing.T) {
	g := graph.New(7, 12)
	g.AddUser(0, 0)
	g.AddUser(4000, 0)
	g.AddUser(2000, 3000)
	g.AddSwitch(1000, 500, 8)
	g.AddSwitch(3000, 500, 8)
	g.AddSwitch(2000, 1500, 8)
	g.AddSwitch(2000, 500, 8)
	for _, e := range [][2]graph.NodeID{
		{0, 3}, {3, 6}, {6, 4}, {4, 1}, {3, 5}, {5, 2}, {4, 5}, {6, 5},
	} {
		a, b := g.Node(e[0]), g.Node(e[1])
		g.MustAddEdge(e[0], e[1], math.Hypot(a.X-b.X, a.Y-b.Y))
	}
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	solvers := map[string]core.SolveFunc{
		"alg2": core.SolveOptimalContext,
		"alg3": core.SolveConflictFreeContext,
		"alg4": core.SolvePrimContext,
	}
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			sol, err := solve(context.Background(), p, nil)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			res, err := SimulateSolution(g, sol, p.Params, 100000, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Agrees(4) {
				t.Fatalf("%s: empirical %g vs analytic %g (CI %g)", name, res.Rate, res.Analytic, res.CI95)
			}
		})
	}
}
