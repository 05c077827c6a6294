package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// sameCandidates requires two candidate lists to be byte-identical: same
// order, same endpoint indices, same node sequences, bitwise-equal rates.
func sameCandidates(t *testing.T, want, got []candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("candidate counts differ: %d vs %d", len(want), len(got))
	}
	for k := range want {
		w, g := want[k], got[k]
		if w.ia != g.ia || w.ib != g.ib {
			t.Fatalf("candidate %d: endpoints (%d,%d) vs (%d,%d)", k, w.ia, w.ib, g.ia, g.ib)
		}
		if math.Float64bits(w.ch.Rate) != math.Float64bits(g.ch.Rate) {
			t.Fatalf("candidate %d: rate %x vs %x", k, math.Float64bits(w.ch.Rate), math.Float64bits(g.ch.Rate))
		}
		if len(w.ch.Nodes) != len(g.ch.Nodes) {
			t.Fatalf("candidate %d: paths %v vs %v", k, w.ch.Nodes, g.ch.Nodes)
		}
		for i := range w.ch.Nodes {
			if w.ch.Nodes[i] != g.ch.Nodes[i] {
				t.Fatalf("candidate %d: paths %v vs %v", k, w.ch.Nodes, g.ch.Nodes)
			}
		}
	}
}

// TestAllPairsChannelsParallelDeterminism mirrors sim's parallel batch test
// one layer down: the parallel all-pairs fan-out of Algorithm 2 step 1 must
// produce a candidate list identical to the sequential path, bit for bit,
// at every worker count.
func TestAllPairsChannelsParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		g := randomNet(rng, 4+rng.Intn(8), 10+rng.Intn(30), 2+2*rng.Intn(6))
		p := mustProblem(t, g, quantum.DefaultParams())
		seq, err := p.allPairsChannelsParallel(nil, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0), 64} {
			par, err := p.allPairsChannelsParallel(nil, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameCandidates(t, seq, par)
		}
	}
}

// sameSolution requires two solutions to describe exactly the same tree.
func sameSolution(t *testing.T, want, got *Solution) {
	t.Helper()
	if len(want.Tree.Channels) != len(got.Tree.Channels) {
		t.Fatalf("tree sizes differ: %d vs %d", len(want.Tree.Channels), len(got.Tree.Channels))
	}
	for k := range want.Tree.Channels {
		w, g := want.Tree.Channels[k], got.Tree.Channels[k]
		if math.Float64bits(w.Rate) != math.Float64bits(g.Rate) || len(w.Nodes) != len(g.Nodes) {
			t.Fatalf("channel %d differs: %v vs %v", k, w, g)
		}
		for i := range w.Nodes {
			if w.Nodes[i] != g.Nodes[i] {
				t.Fatalf("channel %d paths differ: %v vs %v", k, w.Nodes, g.Nodes)
			}
		}
	}
	if math.Float64bits(want.Rate()) != math.Float64bits(got.Rate()) {
		t.Fatalf("rates differ: %g vs %g", want.Rate(), got.Rate())
	}
}

// TestSolversDeterministicUnderPooling runs each algorithm repeatedly on
// one problem instance (exercising warm pooled scratch) and on fresh
// instances, requiring identical trees and rates every time: buffer reuse
// must never leak state between searches or solves.
func TestSolversDeterministicUnderPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		g := randomNet(rng, 5, 20, 4)
		solvers := []SolveFunc{SolveOptimalContext, SolveConflictFreeContext, SolvePrimContext}
		for si, solve := range solvers {
			warm := mustProblem(t, g, quantum.DefaultParams())
			first, err1 := solve(context.Background(), warm, nil)
			if err1 != nil {
				continue // infeasible on this draw; nothing to compare
			}
			for rep := 0; rep < 3; rep++ {
				again, err := solve(context.Background(), warm, nil) // warm pool
				if err != nil {
					t.Fatalf("solver %d became infeasible on rerun: %v", si, err)
				}
				sameSolution(t, first, again)
				fresh, err := solve(context.Background(), mustProblem(t, g, quantum.DefaultParams()), nil)
				if err != nil {
					t.Fatalf("solver %d infeasible on fresh problem: %v", si, err)
				}
				sameSolution(t, first, fresh)
			}
		}
	}
}

// TestMaxRateChannelsPooledMatchesFresh interleaves ledger-gated and static
// searches on one problem and checks each against a fresh problem instance,
// so scratch reuse across differing transit filters is covered too.
func TestMaxRateChannelsPooledMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomNet(rng, 6, 25, 4)
	warm := mustProblem(t, g, quantum.DefaultParams())
	led := quantum.NewLedger(g)
	// Burn some capacity so the gated searches differ from the static ones.
	for _, s := range g.Switches() {
		if rng.Intn(3) == 0 && led.Free(s) >= 2 {
			if err := led.Reserve([]graph.NodeID{warm.Users[0], s, warm.Users[1]}); err != nil {
				t.Fatalf("reserve: %v", err)
			}
		}
	}
	for round := 0; round < 4; round++ {
		for _, l := range []*quantum.Ledger{nil, led} {
			for _, src := range warm.Users {
				got := warm.MaxRateChannels(src, l, nil)
				want := mustProblem(t, g, quantum.DefaultParams()).MaxRateChannels(src, l, nil)
				if len(got) != len(want) {
					t.Fatalf("src %d: %d channels pooled vs %d fresh", src, len(got), len(want))
				}
				for k := range want {
					w, gc := want[k], got[k]
					if w.Dst != gc.Dst || math.Float64bits(w.Ch.Rate) != math.Float64bits(gc.Ch.Rate) {
						t.Fatalf("src %d entry %d: pooled %v vs fresh %v", src, k, gc, w)
					}
				}
			}
		}
	}
}
