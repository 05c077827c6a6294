package core

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/unionfind"
)

// This file provides ablation variants of Algorithm 3's design choices, so
// the benchmark harness can quantify how much each choice is worth. They
// are not part of the paper's algorithms; SolveConflictFreeContext remains the
// faithful implementation.

// ReplayOrder selects the order in which Algorithm 3's phase 1 replays the
// Algorithm 2 tree against the capacity ledger.
type ReplayOrder int

const (
	// ReplayDescending is the paper's greedy choice: retain the channels
	// with the maximum entanglement rate first.
	ReplayDescending ReplayOrder = iota + 1
	// ReplayAscending retains the worst channels first (an adversarial
	// ablation of the greedy rule).
	ReplayAscending
	// ReplayRandom replays in random order.
	ReplayRandom
)

// String returns the order's name.
func (o ReplayOrder) String() string {
	switch o {
	case ReplayDescending:
		return "descending"
	case ReplayAscending:
		return "ascending"
	case ReplayRandom:
		return "random"
	default:
		return fmt.Sprintf("ReplayOrder(%d)", int(o))
	}
}

// SolveConflictFreeOrderedContext is Algorithm 3 with a configurable phase-1
// replay order under the SolveFunc contract (opts.RNG is only used by
// ReplayRandom; nil falls back to a fixed permutation seed). With
// ReplayDescending it is exactly SolveConflictFreeContext.
func SolveConflictFreeOrderedContext(ctx context.Context, p *Problem, order ReplayOrder, opts *SolveOptions) (*Solution, error) {
	st := opts.StatsSink()
	base, err := SolveOptimalContext(ctx, p, opts)
	if err != nil {
		return nil, fmt.Errorf("algorithm 3 (%s ablation): %w", order, err)
	}

	idx := make(map[graph.NodeID]int, len(p.Users))
	for i, u := range p.Users {
		idx[u] = i
	}
	cands := make([]candidate, 0, len(base.Tree.Channels))
	for _, ch := range base.Tree.Channels {
		a, b := ch.Endpoints()
		cands = append(cands, candidate{ch: ch, ia: idx[a], ib: idx[b]})
	}
	switch order {
	case ReplayDescending:
		sortByRateDesc(cands)
	case ReplayAscending:
		sortByRateDesc(cands)
		for i, j := 0, len(cands)-1; i < j; i, j = i+1, j-1 {
			cands[i], cands[j] = cands[j], cands[i]
		}
	case ReplayRandom:
		rng := opts.Rand()
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		// Sort first so the shuffle is deterministic per rng state.
		sortByRateDesc(cands)
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	default:
		return nil, fmt.Errorf("core: unknown replay order %d", int(order))
	}

	led := quantum.NewLedger(p.Graph)
	uf := unionfind.New(len(p.Users))
	tree := quantum.Tree{}
	for _, c := range cands {
		if uf.Connected(c.ia, c.ib) || !led.CanCarry(c.ch.Nodes) {
			continue
		}
		if err := led.Reserve(c.ch.Nodes); err != nil {
			panic(fmt.Sprintf("core: reserve after CanCarry: %v", err))
		}
		st.AddReservations(1)
		uf.Union(c.ia, c.ib)
		tree.Channels = append(tree.Channels, c.ch)
		st.AddCommitted(1)
	}
	if err := p.connectUnions(ctx, led, uf, &tree, fmt.Sprintf("algorithm 3, %s replay", order), st); err != nil {
		return nil, err
	}
	return &Solution{Tree: tree, Algorithm: "alg3-" + order.String(), MeasurementFactor: 1}, nil
}

// SolvePrimBestOfAllStartsContext runs Algorithm 4 once per possible
// starting user and keeps the best tree — the natural upper bound on what
// the random start can achieve, used to measure how much Algorithm 4 leaves
// on the table by starting randomly.
func SolvePrimBestOfAllStartsContext(ctx context.Context, p *Problem, opts *SolveOptions) (*Solution, error) {
	st := opts.StatsSink()
	var best *Solution
	var firstErr error
	for start := range p.Users {
		sol, err := solvePrimFrom(ctx, p, start, st)
		if err != nil {
			if ctxErr(ctx) != nil {
				return nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || sol.Rate() > best.Rate() {
			best = sol
		}
	}
	if best == nil {
		return nil, firstErr
	}
	best.Algorithm = "alg4-beststart"
	return best, nil
}
