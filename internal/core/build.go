package core

import (
	"context"
	"fmt"

	"github.com/muerp/quantumnet/internal/quantum"
)

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
// and the ledger is exactly as before the call.
func BuildGreedyTree(ctx context.Context, p *Problem, led *quantum.Ledger, opts *SolveOptions) (quantum.Tree, error) {
	if led == nil {
		return quantum.Tree{}, fmt.Errorf("core: BuildGreedyTree needs a ledger")
	}
	st := opts.StatsSink()
	inTree := make([]bool, len(p.Users))
	inTree[0] = true
	tree := quantum.Tree{}

	rollback := func() {
		for _, ch := range tree.Channels {
			led.Release(ch.Nodes)
		}
	}
	// The frontier search is incremental, exactly as in solvePrimFrom; the
	// rollback Releases only run after the loop is done with the cache, so
	// the generation bump they may cause never reaches a live entry.
	cache, err := p.newCandCache(ctx, led, frontierTargets{inTree: inTree}, st)
	if err != nil {
		return quantum.Tree{}, fmt.Errorf("core: BuildGreedyTree: %w", err)
	}
	rounds := len(p.Users) - 1
	for committed := 0; committed < rounds; committed++ {
		best, ok, err := cache.best(ctx, st)
		if err != nil {
			rollback()
			return quantum.Tree{}, fmt.Errorf("core: BuildGreedyTree: %w", err)
		}
		if !ok {
			rollback()
			return quantum.Tree{}, fmt.Errorf("%w: %d users unreachable under shared capacity",
				ErrInfeasible, rounds-committed)
		}
		if err := led.Reserve(best.ch.Nodes); err != nil {
			rollback()
			return quantum.Tree{}, fmt.Errorf("core: BuildGreedyTree reserve: %w", err)
		}
		st.AddReservations(1)
		inTree[best.ib] = true
		tree.Channels = append(tree.Channels, best.ch)
		st.AddCommitted(1)
		if committed+1 < rounds {
			// Re-seed the consumed winning source and seed the newly in-tree
			// user, as in solvePrimFrom.
			if err := cache.add(ctx, best.ia, st); err != nil {
				rollback()
				return quantum.Tree{}, fmt.Errorf("core: BuildGreedyTree: %w", err)
			}
			if err := cache.add(ctx, best.ib, st); err != nil {
				rollback()
				return quantum.Tree{}, fmt.Errorf("core: BuildGreedyTree: %w", err)
			}
		}
	}
	st.AddSearchesSaved(int64(rounds)*int64(rounds+1)/2 - cache.searches)
	return tree, nil
}

// ReleaseTree refunds every qubit a previously built tree reserved in the
// ledger (the inverse of the reservations BuildGreedyTree left charged).
func ReleaseTree(led *quantum.Ledger, t quantum.Tree) {
	for _, ch := range t.Channels {
		led.Release(ch.Nodes)
	}
}
