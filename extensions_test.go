package quantumnet_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	quantumnet "github.com/muerp/quantumnet"
)

// TestFacadeFidelityRouting exercises the fidelity-constrained extension
// through the public API.
func TestFacadeFidelityRouting(t *testing.T) {
	topo := quantumnet.DefaultTopology()
	topo.Users = 5
	topo.Switches = 20
	g, err := quantumnet.Generate(topo, 21)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	router := quantumnet.FidelityRouter{
		Params:      quantumnet.DefaultParams(),
		Model:       quantumnet.DefaultFidelityModel(),
		MinFidelity: 0.8,
	}
	sol, err := quantumnet.SolveWithFidelity(context.Background(), prob, router)
	if err != nil {
		t.Fatalf("SolveWithFidelity: %v", err)
	}
	if err := router.ValidateSolution(prob, sol); err != nil {
		t.Fatalf("fidelity validation: %v", err)
	}
	// The constrained rate never beats the unconstrained alg3 tree.
	free, err := quantumnet.Solve(context.Background(), "alg3", prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Rate() > free.Rate()*(1+1e-9) {
		t.Fatalf("fidelity-constrained rate %g beats unconstrained %g", sol.Rate(), free.Rate())
	}
}

// TestFacadeGridTopology routes on the lattice model.
func TestFacadeGridTopology(t *testing.T) {
	topo := quantumnet.DefaultTopology()
	topo.Model = quantumnet.Grid
	topo.Users = 5
	topo.Switches = 20
	g, err := quantumnet.Generate(topo, 51)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := quantumnet.Solve(context.Background(), "alg3", prob, nil)
	if err != nil {
		t.Fatalf("lattice routing: %v", err)
	}
	if err := prob.Validate(sol); err != nil {
		t.Fatal(err)
	}
}

// TestFacadePurification exercises the purification API.
func TestFacadePurification(t *testing.T) {
	res, err := quantumnet.PurifyToReach(0.8, 0.95)
	if err != nil {
		t.Fatalf("PurifyToReach: %v", err)
	}
	if res.Fidelity < 0.95 || res.ExpectedPairs <= 1 {
		t.Fatalf("schedule %+v", res)
	}
	fOut, pSucc, err := quantumnet.PurifyStep(0.8)
	if err != nil || fOut <= 0.8 || pSucc <= 0 {
		t.Fatalf("PurifyStep = (%g, %g, %v)", fOut, pSucc, err)
	}
	sched, effRate, err := quantumnet.PlanPurifiedChannel(0.8, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if effRate >= 0.5 || sched.Fidelity < 0.9 {
		t.Fatalf("plan = %+v, effRate %g", sched, effRate)
	}
}

// TestFacadeSessions exercises the dynamic admission API end to end.
func TestFacadeSessions(t *testing.T) {
	topo := quantumnet.DefaultTopology()
	topo.Users = 8
	topo.Switches = 20
	g, err := quantumnet.Generate(topo, 61)
	if err != nil {
		t.Fatal(err)
	}
	w := quantumnet.DefaultWorkload()
	w.Requests = 40
	reqs, err := w.Generate(g, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}
	report, err := quantumnet.SimulateSessions(g, reqs, quantumnet.DefaultParams())
	if err != nil {
		t.Fatalf("SimulateSessions: %v", err)
	}
	if report.Accepted+report.Rejected != len(reqs) {
		t.Fatalf("accounted %d of %d requests", report.Accepted+report.Rejected, len(reqs))
	}
	if ratio := report.AcceptanceRatio(); ratio < 0 || ratio > 1 {
		t.Fatalf("acceptance ratio %g", ratio)
	}
}

// TestFacadeExactSolver cross-checks a heuristic against the exhaustive
// optimum through the public API.
func TestFacadeExactSolver(t *testing.T) {
	topo := quantumnet.DefaultTopology()
	topo.Users = 3
	topo.Switches = 5
	g, err := quantumnet.Generate(topo, 71)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	gap, err := quantumnet.OptimalityGap(context.Background(), prob, quantumnet.Solvers()[1], quantumnet.ExactLimits{})
	if err != nil {
		t.Fatalf("OptimalityGap: %v", err)
	}
	if gap < 0 || gap > 1+1e-9 {
		t.Fatalf("gap = %g", gap)
	}
}

// TestFacadeNSFNet routes on the named backbone.
func TestFacadeNSFNet(t *testing.T) {
	g, err := quantumnet.NSFNet(6, 6, 81)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := quantumnet.Solve(context.Background(), "alg3", prob, nil)
	if err != nil {
		t.Fatalf("routing on NSFNET: %v", err)
	}
	if err := prob.Validate(sol); err != nil {
		t.Fatal(err)
	}
	// DOT rendering of the routed backbone is well-formed.
	dot := quantumnet.DOT(g, sol)
	if !strings.HasPrefix(dot, "graph quantumnet {") || !strings.Contains(dot, "Seattle") {
		t.Fatalf("unexpected DOT output: %.80s", dot)
	}
}

// TestFacadeRepair exercises local tree repair through the public API.
func TestFacadeRepair(t *testing.T) {
	topo := quantumnet.DefaultTopology()
	topo.Users = 5
	topo.Switches = 18
	g, err := quantumnet.Generate(topo, 91)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := quantumnet.Solve(context.Background(), "alg3", prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first fiber of the first channel (guaranteed in use).
	ch := sol.Tree.Channels[0]
	fail, ok := g.EdgeBetween(ch.Nodes[0], ch.Nodes[1])
	if !ok {
		t.Fatal("channel fiber missing")
	}
	degraded := g.WithoutEdges([]quantumnet.EdgeID{fail.ID})
	out, err := quantumnet.RepairAfterFailures(degraded, prob.Users, sol, []quantumnet.Edge{fail}, quantumnet.DefaultParams())
	if err != nil {
		t.Fatalf("RepairAfterFailures: %v", err)
	}
	if out.Rerouted < 1 {
		t.Fatalf("nothing rerouted after failing an in-use fiber: %+v", out)
	}
	if out.Kept+out.Rerouted != len(prob.Users)-1 {
		t.Fatalf("kept %d + rerouted %d != %d channels", out.Kept, out.Rerouted, len(prob.Users)-1)
	}
}

// TestFacadeRedundancy exercises width>1 boosting through the public API.
func TestFacadeRedundancy(t *testing.T) {
	topo := quantumnet.DefaultTopology()
	topo.Users = 4
	topo.Switches = 15
	topo.SwitchQubits = 8
	g, err := quantumnet.Generate(topo, 92)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	base, err := quantumnet.Solve(context.Background(), "alg3", prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := quantumnet.BoostRedundancy(prob, base, 3)
	if err != nil {
		t.Fatalf("BoostRedundancy: %v", err)
	}
	if err := quantumnet.ValidateRedundant(prob, boosted); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if boosted.Rate() < base.Rate()*(1-1e-9) {
		t.Fatalf("boost lowered the rate: %g -> %g", base.Rate(), boosted.Rate())
	}
}
