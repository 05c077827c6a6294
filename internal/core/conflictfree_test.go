package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// bottleneckNet builds a net where all three users' best channels cross one
// central switch that can only carry limitChannels of them; a longer detour
// switch exists for the overflow.
//
//	u0 --1000-- c --1000-- u1
//	            |
//	u2 --------1000
//	u0 --4000-- d --4000-- u1   (detour, worse rate)
//	u2 --4000-- d
func bottleneckNet(t *testing.T, centralQubits int) *graph.Graph {
	t.Helper()
	g := graph.New(5, 9)
	g.AddUser(0, 0)                  // u0
	g.AddUser(2, 0)                  // u1
	g.AddUser(1, 2)                  // u2
	g.AddSwitch(1, 0, centralQubits) // c = 3
	g.AddSwitch(1, -2, 16)           // d = 4
	for _, u := range []graph.NodeID{0, 1, 2} {
		g.MustAddEdge(u, 3, 1000)
		g.MustAddEdge(u, 4, 4000)
	}
	return g
}

func TestSolveConflictFreeNoConflicts(t *testing.T) {
	g := bottleneckNet(t, 16)
	p := mustProblem(t, g, quantum.DefaultParams())
	opt, err := SolveOptimalContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := SolveConflictFreeContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(cf); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if !rateClose(opt.Rate(), cf.Rate()) {
		t.Fatalf("with ample capacity alg3 rate %g != alg2 rate %g", cf.Rate(), opt.Rate())
	}
	if cf.Algorithm != "alg3" {
		t.Errorf("Algorithm = %q, want alg3", cf.Algorithm)
	}
}

func TestSolveConflictFreeResolvesConflict(t *testing.T) {
	// Central switch carries only one channel; the second tree edge must
	// take the detour through switch d.
	g := bottleneckNet(t, 2)
	p := mustProblem(t, g, quantum.DefaultParams())
	sol, err := SolveConflictFreeContext(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("SolveConflictFreeContext: %v", err)
	}
	if err := p.Validate(sol); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	usedDetour := false
	for _, ch := range sol.Tree.Channels {
		for _, s := range ch.Interior() {
			if s == 4 {
				usedDetour = true
			}
		}
	}
	if !usedDetour {
		t.Fatalf("expected the overflow channel to reroute via the detour switch; tree: %v", sol.Tree.Channels)
	}
	// And it must be worse than the unconstrained optimum.
	opt, err := SolveOptimalContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Rate() >= opt.Rate() {
		t.Fatalf("constrained rate %g not below unconstrained %g", sol.Rate(), opt.Rate())
	}
}

func TestSolveConflictFreeInfeasible(t *testing.T) {
	// Only the central switch exists and it can carry one channel: three
	// users cannot be spanned.
	g := graph.New(4, 3)
	g.AddUser(0, 0)
	g.AddUser(2, 0)
	g.AddUser(1, 2)
	g.AddSwitch(1, 0, 2)
	for _, u := range []graph.NodeID{0, 1, 2} {
		g.MustAddEdge(u, 3, 1000)
	}
	p := mustProblem(t, g, quantum.DefaultParams())
	_, err := SolveConflictFreeContext(context.Background(), p, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestSolveConflictFreeFigure4aCapacity(t *testing.T) {
	// The paper's Fig. 4 example: switch with 2 qubits cannot entangle
	// three users through itself alone, but with 4 qubits it can.
	build := func(qubits int) *graph.Graph {
		g := graph.New(4, 3)
		g.AddUser(0, 0)
		g.AddUser(2, 0)
		g.AddUser(1, 2)
		g.AddSwitch(1, 1, qubits)
		for _, u := range []graph.NodeID{0, 1, 2} {
			g.MustAddEdge(u, 3, 1000)
		}
		return g
	}
	pOK := mustProblem(t, build(4), quantum.DefaultParams())
	if _, err := SolveConflictFreeContext(context.Background(), pOK, nil); err != nil {
		t.Fatalf("4-qubit switch should suffice: %v", err)
	}
	pBad := mustProblem(t, build(2), quantum.DefaultParams())
	if _, err := SolveConflictFreeContext(context.Background(), pBad, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("2-qubit switch error = %v, want ErrInfeasible", err)
	}
}

// TestQuickConflictFreeValidAndCapacityRespecting: every alg3 success on
// random capacity-limited nets validates (spanning, loop-free, within
// capacity); rate never exceeds the sufficient-capacity optimum.
func TestQuickConflictFreeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomNet(rng, 2+rng.Intn(4), 2+rng.Intn(5), 2+2*rng.Intn(2))
		p, err := AllUsersProblem(g, quantum.DefaultParams())
		if err != nil {
			return false
		}
		sol, err := SolveConflictFreeContext(context.Background(), p, nil)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		if p.Validate(sol) != nil {
			t.Logf("seed %d: invalid solution", seed)
			return false
		}
		// Compare against the unconstrained optimum on a boosted copy.
		boosted := g.Clone()
		boosted.SetAllSwitchQubits(2 * len(p.Users))
		bp, _ := AllUsersProblem(boosted, quantum.DefaultParams())
		opt, err := SolveOptimalContext(context.Background(), bp, nil)
		if err != nil {
			t.Logf("seed %d: boosted optimal failed: %v", seed, err)
			return false
		}
		if sol.Rate() > opt.Rate()*(1+1e-9) {
			t.Logf("seed %d: alg3 rate %g exceeds optimal %g", seed, sol.Rate(), opt.Rate())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
