package quantumnet_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	quantumnet "github.com/muerp/quantumnet"
)

// TestFacadeQuickstartFlow exercises the README's quickstart path through
// the public API only.
func TestFacadeQuickstartFlow(t *testing.T) {
	g, err := quantumnet.Generate(quantumnet.DefaultTopology(), 7)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(g.Users()) != 10 || len(g.Switches()) != 50 {
		t.Fatalf("unexpected shape: %v", g)
	}
	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		t.Fatalf("AllUsersProblem: %v", err)
	}
	sol, err := quantumnet.Solve(context.Background(), "alg3", prob, nil)
	if err != nil {
		t.Fatalf("Solve alg3: %v", err)
	}
	if err := prob.Validate(sol); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sol.Rate() <= 0 || sol.Rate() > 1 {
		t.Fatalf("rate %g out of range", sol.Rate())
	}

	mc, err := quantumnet.Simulate(g, sol, quantumnet.DefaultParams(), 100_000, 7)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !mc.Agrees(4) {
		t.Fatalf("monte carlo %g vs analytic %g (ci %g)", mc.Rate, mc.Analytic, mc.CI95)
	}
}

// TestFacadeAllSolversOnOneInstance runs each public solver on one network
// and checks the paper's expected ordering.
func TestFacadeAllSolversOnOneInstance(t *testing.T) {
	topo := quantumnet.DefaultTopology()
	topo.SwitchQubits = 20 // sufficient capacity: all five schemes comparable
	g, err := quantumnet.Generate(topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := quantumnet.AllUsersProblem(g, quantumnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, name := range quantumnet.Solvers() {
		sol, err := quantumnet.Solve(context.Background(), name, prob, nil)
		if err != nil {
			if errors.Is(err, quantumnet.ErrInfeasible) {
				rates[name] = 0
				continue
			}
			t.Fatalf("%s: %v", name, err)
		}
		if err := prob.Validate(sol); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
		rates[name] = sol.Rate()
	}
	// Compare with a relative tolerance: identical trees can differ in the
	// last ulp because the heuristics multiply channel rates in a different
	// order.
	const tol = 1 + 1e-9
	if !(rates["alg2"]*tol >= rates["alg3"] && rates["alg2"]*tol >= rates["alg4"]) {
		t.Errorf("alg2 (%g) is not optimal among proposed: alg3 %g alg4 %g",
			rates["alg2"], rates["alg3"], rates["alg4"])
	}
	for _, base := range []string{"eqcast", "nfusion"} {
		if rates["alg3"] <= rates[base] {
			t.Errorf("alg3 (%g) does not beat %s (%g)", rates["alg3"], base, rates[base])
		}
	}
}

// TestFacadeProblemOverUserSubset routes a subset of users.
func TestFacadeProblemOverUserSubset(t *testing.T) {
	g, err := quantumnet.Generate(quantumnet.DefaultTopology(), 5)
	if err != nil {
		t.Fatal(err)
	}
	subset := g.Users()[:4]
	prob, err := quantumnet.NewProblem(g, subset, quantumnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := quantumnet.Solve(context.Background(), "alg2", prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Tree.Channels) != 3 {
		t.Fatalf("subset tree has %d channels, want 3", len(sol.Tree.Channels))
	}
}

// TestFacadeManualGraphConstruction builds a network by hand via the
// exported graph API.
func TestFacadeManualGraphConstruction(t *testing.T) {
	g := quantumnet.NewGraph(3, 2)
	u0 := g.AddUser(0, 0)
	s := g.AddSwitch(500, 0, 4)
	u1 := g.AddUser(1000, 0)
	if _, err := g.AddEdge(u0, s, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(s, u1, 500); err != nil {
		t.Fatal(err)
	}
	prob, err := quantumnet.NewProblem(g, []quantumnet.NodeID{u0, u1}, quantumnet.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := quantumnet.Solve(context.Background(), "alg3", prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9 * math.Exp(-1e-4*1000)
	if math.Abs(sol.Rate()-want) > 1e-12 {
		t.Fatalf("rate %g, want %g", sol.Rate(), want)
	}
}

// TestFacadeRunDistributed drives the §II-B protocol through the facade.
func TestFacadeRunDistributed(t *testing.T) {
	topo := quantumnet.DefaultTopology()
	topo.Users = 4
	topo.Switches = 12
	g, err := quantumnet.Generate(topo, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	report, err := quantumnet.RunDistributed(ctx, g, quantumnet.Solvers()[1], 2000, 11)
	if err != nil {
		t.Fatalf("RunDistributed: %v", err)
	}
	p := report.AnalyticRate()
	se := math.Sqrt(p * (1 - p) / float64(report.Rounds))
	if math.Abs(report.EmpiricalRate()-p) > 5*se+1e-9 {
		t.Fatalf("empirical %g vs analytic %g", report.EmpiricalRate(), p)
	}
}

// TestFacadeExperimentPipeline regenerates a small figure through the
// public experiment API.
func TestFacadeExperimentPipeline(t *testing.T) {
	cfg := quantumnet.DefaultExperiment()
	cfg.Networks = 2
	cfg.Topology.Users = 4
	cfg.Topology.Switches = 10
	series, err := quantumnet.RunAllFigures(cfg)
	if err != nil {
		t.Fatalf("RunAllFigures: %v", err)
	}
	if len(series) != 7 {
		t.Fatalf("%d series, want 7 (one per figure)", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Errorf("series %s has no points", s.Figure)
		}
	}
}
