package repair

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/topology"
)

// repairNet builds 3 users with a primary switch path and a worse backup:
//
//	u0, u1, u2 all adjacent to s3 (primary, short) and s4 (backup, long).
func repairNet(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5, 6)
	g.AddUser(0, 0)
	g.AddUser(2000, 0)
	g.AddUser(1000, 1800)
	g.AddSwitch(1000, 600, 8)
	g.AddSwitch(1000, -4000, 8)
	for _, u := range []graph.NodeID{0, 1, 2} {
		g.MustAddEdge(u, 3, 1200)
		g.MustAddEdge(u, 4, 5000)
	}
	return g
}

func solve(t *testing.T, g *graph.Graph) (*core.Problem, *core.Solution) {
	t.Helper()
	prob, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveConflictFreeContext(context.Background(), prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prob, sol
}

func TestRepairKeepsSurvivorsAndReroutesBroken(t *testing.T) {
	g := repairNet(t)
	prob, sol := solve(t, g)
	// Fail the u0-s3 fiber: exactly the channels over it must be replaced.
	failedEdge, ok := g.EdgeBetween(0, 3)
	if !ok {
		t.Fatal("missing fixture fiber")
	}
	degraded := g.WithoutEdges([]graph.EdgeID{failedEdge.ID})
	out, err := AfterEdgeFailures(degraded, prob.Users, sol, []graph.Edge{failedEdge}, prob.Params)
	if err != nil {
		t.Fatalf("AfterEdgeFailures: %v", err)
	}
	broken := 0
	for _, ch := range sol.Tree.Channels {
		for i := 0; i+1 < len(ch.Nodes); i++ {
			a, b := ch.Nodes[i], ch.Nodes[i+1]
			if (a == 0 && b == 3) || (a == 3 && b == 0) {
				broken++
				break
			}
		}
	}
	if out.Kept != len(sol.Tree.Channels)-broken {
		t.Fatalf("kept %d of %d channels, %d broken", out.Kept, len(sol.Tree.Channels), broken)
	}
	if out.Rerouted != broken {
		t.Fatalf("rerouted %d, want %d", out.Rerouted, broken)
	}
	// The repaired tree is worse than the original (the primary fiber died).
	if out.Solution.Rate() >= sol.Rate() {
		t.Fatalf("repair rate %g not below original %g", out.Solution.Rate(), sol.Rate())
	}
}

func TestRepairNoOpWhenNoChannelAffected(t *testing.T) {
	g := repairNet(t)
	prob, sol := solve(t, g)
	// Fail an unused backup fiber: the tree survives untouched.
	unused, ok := g.EdgeBetween(0, 4)
	if !ok {
		t.Fatal("missing fixture fiber")
	}
	degraded := g.WithoutEdges([]graph.EdgeID{unused.ID})
	out, err := AfterEdgeFailures(degraded, prob.Users, sol, []graph.Edge{unused}, prob.Params)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rerouted != 0 || out.Kept != len(sol.Tree.Channels) {
		t.Fatalf("no-op repair rerouted %d / kept %d", out.Rerouted, out.Kept)
	}
	if out.Solution.Rate() != sol.Rate() {
		t.Fatalf("no-op repair changed the rate: %g vs %g", out.Solution.Rate(), sol.Rate())
	}
}

func TestRepairInfeasibleWhenIsolated(t *testing.T) {
	g := repairNet(t)
	prob, sol := solve(t, g)
	// Fail both of u0's fibers: u0 is unreachable.
	e1, _ := g.EdgeBetween(0, 3)
	e2, _ := g.EdgeBetween(0, 4)
	degraded := g.WithoutEdges([]graph.EdgeID{e1.ID, e2.ID})
	_, err := AfterEdgeFailures(degraded, prob.Users, sol, []graph.Edge{e1, e2}, prob.Params)
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestCompareWithReroute(t *testing.T) {
	g := repairNet(t)
	prob, sol := solve(t, g)
	failedEdge, _ := g.EdgeBetween(0, 3)
	degraded := g.WithoutEdges([]graph.EdgeID{failedEdge.ID})
	repaired, rerouted, err := CompareWithReroute(degraded, prob.Users, sol, []graph.Edge{failedEdge}, prob.Params)
	if err != nil {
		t.Fatal(err)
	}
	if repaired <= 0 || rerouted <= 0 {
		t.Fatalf("rates %g / %g", repaired, rerouted)
	}
	// A full re-route is at least as good as the locally constrained repair.
	if repaired > rerouted*(1+1e-9) {
		t.Fatalf("local repair %g beats full re-route %g", repaired, rerouted)
	}
}

func TestRepairRejectsNil(t *testing.T) {
	g := repairNet(t)
	prob, sol := solve(t, g)
	if _, err := AfterEdgeFailures(nil, prob.Users, sol, nil, prob.Params); !errors.Is(err, ErrNilInput) {
		t.Errorf("nil graph error = %v", err)
	}
	if _, err := AfterEdgeFailures(g, prob.Users, nil, nil, prob.Params); !errors.Is(err, ErrNilInput) {
		t.Errorf("nil solution error = %v", err)
	}
}

// TestQuickRepairSound: across random networks and random single-fiber
// failures, local repair either validates (checked inside
// AfterEdgeFailures) or reports infeasibility, and both rates are
// probabilities. No dominance is asserted between repair and full
// re-route: both are heuristics, and — mirroring the paper's Fig. 7b
// observation that removals can *improve* a heuristic's tree — either side
// can win on a given instance.
func TestQuickRepairSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := topology.Default()
		cfg.Users = 4 + rng.Intn(4)
		cfg.Switches = 12 + rng.Intn(10)
		g, err := topology.Generate(cfg, rng)
		if err != nil {
			return false
		}
		prob, err := core.AllUsersProblem(g, quantum.DefaultParams())
		if err != nil {
			return false
		}
		sol, err := core.SolveConflictFreeContext(context.Background(), prob, nil)
		if err != nil {
			return errors.Is(err, core.ErrInfeasible)
		}
		fail := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
		degraded := g.WithoutEdges([]graph.EdgeID{fail.ID})
		repaired, rerouted, err := CompareWithReroute(degraded, prob.Users, sol, []graph.Edge{fail}, prob.Params)
		if err != nil {
			t.Log(err)
			return false
		}
		inRange := func(x float64) bool { return x >= 0 && x <= 1 }
		return inRange(repaired) && inRange(rerouted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
