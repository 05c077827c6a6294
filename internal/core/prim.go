package core

import (
	"context"
	"fmt"

	"github.com/muerp/quantumnet/internal/quantum"
)

// This file implements the paper's Algorithm 4, the Prim-based heuristic:
// grow the entanglement tree from one user, each round committing the
// maximum-rate feasible channel from the in-tree user set U1 to the out-set
// U2 and charging the switches it crosses. One loop, growTree, serves both
// the offline solver (a private ledger, a random start) and the online
// callers that route many requests over one shared ledger.

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

// solvePrimFrom runs Algorithm 4 from Users[start] on a fresh ledger.
func solvePrimFrom(ctx context.Context, p *Problem, start int, st *SolveStats) (*Solution, error) {
	if start < 0 || start >= len(p.Users) {
		return nil, fmt.Errorf("core: algorithm 4: start index %d out of range", start)
	}
	tree, err := growTree(ctx, p, quantum.NewLedger(p.Graph), start, st,
		"algorithm 4", "%w: %d users unreachable under switch capacity (algorithm 4)")
	if err != nil {
		return nil, err
	}
	return &Solution{Tree: tree, Algorithm: "alg4", MeasurementFactor: 1}, nil
}

// BuildGreedyTree grows an entanglement tree for the problem's users
// against an externally owned qubit ledger — the Algorithm 4 greedy step
// applied to *shared* capacity, used by callers that route several requests
// over one network (the admission scheduler and daemon, the slot engine).
// A nil ctx never cancels; opts follows the SolveFunc contract (its RNG is
// unused — the tree always grows from the first user).
//
// On success the tree's reservations remain charged to the ledger (the
// caller owns their lifetime and can Release them later). On infeasibility
// or cancellation every reservation made during the attempt is rolled back
// and the ledger's budgets are exactly as before the call.
func BuildGreedyTree(ctx context.Context, p *Problem, led *quantum.Ledger, opts *SolveOptions) (quantum.Tree, error) {
	if led == nil {
		return quantum.Tree{}, fmt.Errorf("core: BuildGreedyTree needs a ledger")
	}
	return growTree(ctx, p, led, 0, opts.StatsSink(),
		"core: BuildGreedyTree", "%w: %d users unreachable under shared capacity")
}

// ReleaseTree refunds every qubit a previously built tree reserved in the
// ledger (the inverse of the reservations BuildGreedyTree left charged).
func ReleaseTree(led *quantum.Ledger, t quantum.Tree) {
	for _, ch := range t.Channels {
		led.Release(ch.Nodes)
	}
}

// growTree is the Algorithm 4 loop: it grows a tree from Users[start],
// reserving each committed channel in led. Errors are prefixed with who;
// when no feasible channel is left, infeasible formats the error from
// ErrInfeasible and the number of users left out (a format, not a boxed
// argument, so the frequent rejection path allocates no more than the
// error). On any error the reservations made so far are released.
//
// The U1→U2 search is incremental (see incremental.go): the start user
// seeds a one-entry candidate cache, each committed channel adds one fresh
// search for the user it pulled into the tree, and stale entries re-search
// lazily — instead of the exhaustive |U1| single-source runs per round,
// which made Algorithm 4 quadratic in searches. The committed tree is
// bit-identical to the exhaustive sweep's (bestFrontierChannelExhaustive),
// which TestPrimLazyMatchesExhaustive checks on randomized networks. The
// rollback Releases only run after the loop is done with the cache, so the
// generation bump they may cause never reaches a live entry.
func growTree(ctx context.Context, p *Problem, led *quantum.Ledger, start int, st *SolveStats, who, infeasible string) (quantum.Tree, error) {
	inTree := make([]bool, len(p.Users))
	inTree[start] = true
	tree := quantum.Tree{}
	fail := func(err error) (quantum.Tree, error) {
		ReleaseTree(led, tree)
		return quantum.Tree{}, err
	}

	cache, err := p.newCandCache(ctx, led, frontierTargets{inTree: inTree}, st)
	if err != nil {
		return quantum.Tree{}, fmt.Errorf("%s: %w", who, err)
	}
	rounds := len(p.Users) - 1
	for committed := 0; committed < rounds; committed++ {
		best, ok, err := cache.best(ctx, st)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", who, err))
		}
		if !ok {
			return fail(fmt.Errorf(infeasible, ErrInfeasible, rounds-committed))
		}
		if err := led.Reserve(best.ch.Nodes); err != nil {
			return fail(fmt.Errorf("%s reserve: %w", who, err))
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
				return fail(fmt.Errorf("%s: %w", who, err))
			}
			if err := cache.add(ctx, best.ib, st); err != nil {
				return fail(fmt.Errorf("%s: %w", who, err))
			}
		}
	}
	// The exhaustive sweep would have run |U1| searches per round:
	// 1 + 2 + ... + (|U|-1).
	st.AddSearchesSaved(int64(rounds)*int64(rounds+1)/2 - cache.searches)
	return tree, nil
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
