package core

import (
	"context"
	"fmt"

	"github.com/muerp/quantumnet/internal/quantum"
)

// This file implements the paper's Algorithm 4, the Prim-based heuristic:
// grow the entanglement tree from one randomly chosen user, each round
// committing the maximum-rate feasible channel from the in-tree user set U1
// to the out-set U2 and charging the switches it crosses.

// SolvePrimContext implements Algorithm 4 under the SolveFunc contract.
// opts.RNG selects the starting user as in the paper ("randomly pick u0");
// without one the solve deterministically starts from the first user, which
// is convenient for tests.
func SolvePrimContext(ctx context.Context, p *Problem, opts *SolveOptions) (*Solution, error) {
	start := 0
	if rng := opts.Rand(); rng != nil {
		start = rng.Intn(len(p.Users))
	}
	return solvePrimFrom(ctx, p, start, opts.StatsSink())
}

// solvePrimFrom runs Algorithm 4 starting from Users[start].
//
// The U1→U2 search is incremental (see incremental.go): the start user
// seeds a one-entry candidate cache, each committed channel adds one fresh
// search for the user it pulled into the tree, and stale entries re-search
// lazily — instead of the exhaustive |U1| single-source runs per round,
// which made Algorithm 4 quadratic in searches. The committed tree is
// bit-identical to the exhaustive sweep's (bestFrontierChannelExhaustive),
// which TestPrimLazyMatchesExhaustive checks on randomized networks.
func solvePrimFrom(ctx context.Context, p *Problem, start int, st *SolveStats) (*Solution, error) {
	if start < 0 || start >= len(p.Users) {
		return nil, fmt.Errorf("core: algorithm 4: start index %d out of range", start)
	}
	led := quantum.NewLedger(p.Graph)
	inTree := make([]bool, len(p.Users))
	inTree[start] = true
	tree := quantum.Tree{}

	cache, err := p.newCandCache(ctx, led, frontierTargets{inTree: inTree}, st)
	if err != nil {
		return nil, fmt.Errorf("algorithm 4: %w", err)
	}
	rounds := len(p.Users) - 1
	for committed := 0; committed < rounds; committed++ {
		best, ok, err := cache.best(ctx, st)
		if err != nil {
			return nil, fmt.Errorf("algorithm 4: %w", err)
		}
		if !ok {
			remaining := rounds - committed
			return nil, fmt.Errorf("%w: %d users unreachable under switch capacity (algorithm 4)",
				ErrInfeasible, remaining)
		}
		if err := led.Reserve(best.ch.Nodes); err != nil {
			panic(fmt.Sprintf("core: reserve after capacity-gated search: %v", err))
		}
		st.AddReservations(1)
		inTree[best.ib] = true
		tree.Channels = append(tree.Channels, best.ch)
		st.AddCommitted(1)
		if committed+1 < rounds {
			// Committing consumed the winning source's entry and promoted
			// best.ib into U1: re-seed the former with its next-best
			// candidate and seed the latter as a brand-new source.
			if err := cache.add(ctx, best.ia, st); err != nil {
				return nil, fmt.Errorf("algorithm 4: %w", err)
			}
			if err := cache.add(ctx, best.ib, st); err != nil {
				return nil, fmt.Errorf("algorithm 4: %w", err)
			}
		}
	}
	// The exhaustive sweep would have run |U1| searches per round:
	// 1 + 2 + ... + (|U|-1).
	st.AddSearchesSaved(int64(rounds)*int64(rounds+1)/2 - cache.searches)
	return &Solution{Tree: tree, Algorithm: "alg4", MeasurementFactor: 1}, nil
}

// bestFrontierChannelExhaustive searches the maximum-rate channel from any
// user in U1 (inTree) to any user in U2, under residual capacity; ctx is
// checked before each single-source burst. The candidate's ia is the
// in-tree endpoint's index and ib the out-set endpoint's.
//
// It is the reference the lazy cache must agree with candidate-for-candidate
// and is kept for the differential tests; production loops go through
// candCache instead.
func (p *Problem) bestFrontierChannelExhaustive(ctx context.Context, led *quantum.Ledger, inTree []bool, st *SolveStats) (candidate, bool, error) {
	sc := p.acquireCtx(st)
	defer p.releaseCtx(sc)
	var best candidate
	found := false
	for i, src := range p.Users {
		if !inTree[i] {
			continue
		}
		if err := ctxErr(ctx); err != nil {
			return candidate{}, false, err
		}
		sp := p.channelSearch(sc, src, led, st)
		for j, dst := range p.Users {
			if inTree[j] {
				continue
			}
			ch, ok := p.channelFromSearch(sc, sp, dst, st)
			if !ok {
				continue
			}
			if !found || ch.Rate > best.ch.Rate ||
				(ch.Rate == best.ch.Rate && (i < best.ia || (i == best.ia && j < best.ib))) {
				best = candidate{ch: ch, ia: i, ib: j}
				found = true
			}
		}
	}
	return best, found, nil
}
