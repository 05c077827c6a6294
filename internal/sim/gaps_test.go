package sim

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/exact"
	"github.com/muerp/quantumnet/internal/solver"
	"github.com/muerp/quantumnet/internal/topology"
)

func TestInstanceGap(t *testing.T) {
	topo := topology.Default()
	topo.Users = 3
	topo.Switches = 4
	topo.SwitchQubits = 2
	g, err := topology.Generate(topo, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.AllUsersProblem(g, DefaultConfig().Params)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := exact.Solve(context.Background(), p, exact.DefaultLimits(), nil)
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			t.Skip("instance infeasible")
		}
		t.Fatal(err)
	}
	e, err := solver.Get(AlgConflictFree)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := InstanceGap(context.Background(), p, e, opt)
	if err != nil {
		t.Fatal(err)
	}
	if gap < 0 || gap > 1+1e-9 {
		t.Fatalf("gap = %g outside [0, 1]", gap)
	}
}

func TestOptimalityGaps(t *testing.T) {
	cfg := DefaultGapConfig()
	cfg.Instances = 8
	s, err := OptimalityGaps(cfg)
	if err != nil {
		t.Fatalf("OptimalityGaps: %v", err)
	}
	if len(s.Points) != len(cfg.Qubits) {
		t.Fatalf("%d points for %d budgets", len(s.Points), len(cfg.Qubits))
	}
	for _, p := range s.Points {
		for _, alg := range []string{"alg3", "alg4", "eqcast", "nfusion"} {
			sum, ok := p.Summary[alg]
			if !ok {
				t.Fatalf("%s: missing %s", p.Label, alg)
			}
			if sum.N == 0 {
				continue // all instances skipped at this point
			}
			if sum.Mean < 0 || sum.Max > 1+1e-9 {
				t.Fatalf("%s %s: gaps outside [0,1]: %+v", p.Label, alg, sum)
			}
		}
		// The proposed heuristics must clearly beat the baselines in
		// solution quality.
		if p.Summary["alg3"].N > 0 && p.Summary["alg3"].Mean <= p.Summary["eqcast"].Mean {
			t.Errorf("%s: alg3 gap %g not above eqcast %g",
				p.Label, p.Summary["alg3"].Mean, p.Summary["eqcast"].Mean)
		}
	}
	// Renders like any other series.
	if out := s.Table(); !strings.Contains(out, "gaps") {
		t.Errorf("table rendering broken:\n%s", out)
	}
}

func TestOptimalityGapsNearOptimalHeuristics(t *testing.T) {
	// At ample capacity, alg3's mean gap should be essentially 1 (Theorem 3
	// territory); under tight capacity it stays high.
	cfg := DefaultGapConfig()
	cfg.Instances = 10
	s, err := OptimalityGaps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := s.Points[len(s.Points)-1] // largest budget
	if sum := last.Summary["alg3"]; sum.N > 0 && sum.Mean < 0.99 {
		t.Errorf("alg3 mean gap %g at ample capacity, want ~1", sum.Mean)
	}
	first := s.Points[0] // tightest budget
	if sum := first.Summary["alg3"]; sum.N > 0 && sum.Mean < 0.7 {
		t.Errorf("alg3 mean gap %g under tight capacity, unexpectedly poor", sum.Mean)
	}
}

func TestOptimalityGapsRejects(t *testing.T) {
	cfg := DefaultGapConfig()
	cfg.Instances = 0
	if _, err := OptimalityGaps(cfg); err == nil {
		t.Fatal("zero instances accepted")
	}
}
