package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/muerp/quantumnet/internal/quantum"
)

func TestSolvePrimBasic(t *testing.T) {
	g := fourUserNet(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	sol, err := SolvePrimContext(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("SolvePrimContext: %v", err)
	}
	if err := p.Validate(sol); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if sol.Algorithm != "alg4" {
		t.Errorf("Algorithm = %q, want alg4", sol.Algorithm)
	}
}

func TestSolvePrimMatchesOptimalWithAmpleCapacity(t *testing.T) {
	// When capacity never binds, Prim and Kruskal build the same maximum
	// spanning tree of the pairwise max-rate channel metric (it is unique
	// for distinct rates), so alg4 == alg2.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		g := randomNet(rng, 3+rng.Intn(3), 3+rng.Intn(4), 20)
		p := mustProblem(t, g, quantum.DefaultParams())
		opt, errOpt := SolveOptimalContext(context.Background(), p, nil)
		prim, errPrim := SolvePrimContext(context.Background(), p, nil)
		if errOpt != nil || errPrim != nil {
			t.Fatalf("solve errors: %v, %v", errOpt, errPrim)
		}
		if !rateClose(opt.Rate(), prim.Rate()) {
			t.Fatalf("net %d: prim rate %g != optimal %g", i, prim.Rate(), opt.Rate())
		}
	}
}

func TestSolvePrimRespectsCapacity(t *testing.T) {
	g := bottleneckNet(t, 2)
	p := mustProblem(t, g, quantum.DefaultParams())
	sol, err := SolvePrimContext(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("SolvePrimContext: %v", err)
	}
	if err := p.Validate(sol); err != nil {
		t.Fatalf("capacity-violating tree: %v", err)
	}
}

func TestSolvePrimStartIndependenceOfValidity(t *testing.T) {
	g := bottleneckNet(t, 2)
	p := mustProblem(t, g, quantum.DefaultParams())
	for start := range p.Users {
		sol, err := solvePrimFrom(context.Background(), p, start, nil)
		if err != nil {
			t.Fatalf("start %d: %v", start, err)
		}
		if err := p.Validate(sol); err != nil {
			t.Fatalf("start %d: invalid: %v", start, err)
		}
	}
}

func TestSolvePrimRandomStartUsesRng(t *testing.T) {
	g := fourUserNet(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	// Same seed, same result.
	a, err := SolvePrimContext(context.Background(), p, &SolveOptions{RNG: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolvePrimContext(context.Background(), p, &SolveOptions{RNG: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if !rateClose(a.Rate(), b.Rate()) {
		t.Fatalf("same seed produced different rates: %g vs %g", a.Rate(), b.Rate())
	}
}

func TestSolvePrimInfeasible(t *testing.T) {
	g := bottleneckNet(t, 2)
	g.SetQubits(4, 0) // remove the detour's capacity
	p := mustProblem(t, g, quantum.DefaultParams())
	_, err := SolvePrimContext(context.Background(), p, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestSolvePrimBadStart(t *testing.T) {
	g := fourUserNet(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	if _, err := solvePrimFrom(context.Background(), p, -1, nil); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := solvePrimFrom(context.Background(), p, len(p.Users), nil); err == nil {
		t.Fatal("out-of-range start accepted")
	}
}

// TestQuickPrimProperties: on random capacity-limited nets, every alg4
// success validates and never beats the sufficient-capacity optimum.
func TestQuickPrimProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomNet(rng, 2+rng.Intn(4), 2+rng.Intn(5), 2+2*rng.Intn(2))
		p, err := AllUsersProblem(g, quantum.DefaultParams())
		if err != nil {
			return false
		}
		sol, err := SolvePrimContext(context.Background(), p, &SolveOptions{RNG: rng})
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		if p.Validate(sol) != nil {
			t.Logf("seed %d: invalid solution", seed)
			return false
		}
		boosted := g.Clone()
		boosted.SetAllSwitchQubits(2 * len(p.Users))
		bp, _ := AllUsersProblem(boosted, quantum.DefaultParams())
		opt, err := SolveOptimalContext(context.Background(), bp, nil)
		if err != nil {
			return false
		}
		return sol.Rate() <= opt.Rate()*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
