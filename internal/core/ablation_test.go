package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/muerp/quantumnet/internal/quantum"
)

func TestSolveConflictFreeOrderedDescendingMatchesPaper(t *testing.T) {
	g := bottleneckNet(t, 2)
	p := mustProblem(t, g, quantum.DefaultParams())
	paper, err := SolveConflictFreeContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := SolveConflictFreeOrderedContext(context.Background(), p, ReplayDescending, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rateClose(paper.Rate(), ordered.Rate()) {
		t.Fatalf("descending ablation rate %g != paper alg3 rate %g", ordered.Rate(), paper.Rate())
	}
}

func TestSolveConflictFreeOrderedAllVariantsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 15; i++ {
		g := randomNet(rng, 3+rng.Intn(3), 3+rng.Intn(4), 2+2*rng.Intn(2))
		p := mustProblem(t, g, quantum.DefaultParams())
		for _, order := range []ReplayOrder{ReplayDescending, ReplayAscending, ReplayRandom} {
			sol, err := SolveConflictFreeOrderedContext(context.Background(), p, order, &SolveOptions{RNG: rng})
			if err != nil {
				if errors.Is(err, ErrInfeasible) {
					continue
				}
				t.Fatalf("net %d order %s: %v", i, order, err)
			}
			if err := p.Validate(sol); err != nil {
				t.Fatalf("net %d order %s: invalid: %v", i, order, err)
			}
		}
	}
}

func TestSolveConflictFreeOrderedUnknownOrder(t *testing.T) {
	g := fourUserNet(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	if _, err := SolveConflictFreeOrderedContext(context.Background(), p, ReplayOrder(42), nil); err == nil {
		t.Fatal("unknown order accepted")
	}
}

func TestReplayOrderString(t *testing.T) {
	tests := map[ReplayOrder]string{
		ReplayDescending: "descending",
		ReplayAscending:  "ascending",
		ReplayRandom:     "random",
		ReplayOrder(9):   "ReplayOrder(9)",
	}
	for order, want := range tests {
		if got := order.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(order), got, want)
		}
	}
}

func TestSolvePrimBestOfAllStartsDominatesAnyStart(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		g := randomNet(rng, 3+rng.Intn(3), 3+rng.Intn(4), 2+2*rng.Intn(2))
		p := mustProblem(t, g, quantum.DefaultParams())
		best, err := SolvePrimBestOfAllStartsContext(context.Background(), p, nil)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			t.Fatal(err)
		}
		if err := p.Validate(best); err != nil {
			t.Fatalf("net %d: invalid: %v", i, err)
		}
		for start := range p.Users {
			sol, err := solvePrimFrom(context.Background(), p, start, nil)
			if err != nil {
				continue
			}
			if sol.Rate() > best.Rate()*(1+1e-9) {
				t.Fatalf("net %d: start %d rate %g beats best-of-starts %g",
					i, start, sol.Rate(), best.Rate())
			}
		}
	}
}

func TestSolvePrimBestOfAllStartsInfeasible(t *testing.T) {
	g := bottleneckNet(t, 2)
	g.SetQubits(3, 0)
	g.SetQubits(4, 0)
	p := mustProblem(t, g, quantum.DefaultParams())
	if _, err := SolvePrimBestOfAllStartsContext(context.Background(), p, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}
