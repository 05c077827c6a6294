package core

import (
	"context"
	"fmt"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/unionfind"
)

// This file implements the paper's Algorithm 3, the conflict-free heuristic
// for limited switch capacity.
//
// Phase 1 replays Algorithm 2's tree in descending rate order against a live
// qubit ledger, keeping every channel that still fits and skipping the rest
// (the greedy "retain the channel with the maximum entanglement rate" rule).
// Phase 2 reconnects the unions the skipped channels left behind: each round
// it searches, under residual capacity, the maximum-rate channel joining two
// different unions and commits it, until one union spans U or no channel
// exists (infeasible).

// SolveConflictFreeContext implements Algorithm 3 under the SolveFunc
// contract. It internally obtains Algorithm 2's solution as its starting
// point, as in the paper.
func SolveConflictFreeContext(ctx context.Context, p *Problem, opts *SolveOptions) (*Solution, error) {
	base, err := SolveOptimalContext(ctx, p, opts)
	if err != nil {
		return nil, fmt.Errorf("algorithm 3: %w", err)
	}
	return solveConflictFreeFrom(ctx, p, base, opts.StatsSink())
}

func solveConflictFreeFrom(ctx context.Context, p *Problem, base *Solution, st *SolveStats) (*Solution, error) {
	idx := make(map[graph.NodeID]int, len(p.Users))
	for i, u := range p.Users {
		idx[u] = i
	}

	// Phase 1: replay the Algorithm 2 tree under the capacity ledger.
	cands := make([]candidate, 0, len(base.Tree.Channels))
	for _, ch := range base.Tree.Channels {
		a, b := ch.Endpoints()
		cands = append(cands, candidate{ch: ch, ia: idx[a], ib: idx[b]})
	}
	sortByRateDesc(cands)

	led := quantum.NewLedger(p.Graph)
	uf := unionfind.New(len(p.Users))
	tree := quantum.Tree{}
	for _, c := range cands {
		if uf.Connected(c.ia, c.ib) {
			continue
		}
		if !led.CanCarry(c.ch.Nodes) {
			continue // conflict: the users stay in different unions for now
		}
		if err := led.Reserve(c.ch.Nodes); err != nil {
			panic(fmt.Sprintf("core: reserve after CanCarry: %v", err))
		}
		st.AddReservations(1)
		uf.Union(c.ia, c.ib)
		tree.Channels = append(tree.Channels, c.ch)
		st.AddCommitted(1)
	}

	// Phase 2: greedily reconnect the remaining unions under residual
	// capacity.
	if err := p.connectUnions(ctx, led, uf, &tree, "algorithm 3", st); err != nil {
		return nil, err
	}
	return &Solution{Tree: tree, Algorithm: "alg3", MeasurementFactor: 1}, nil
}

// ReconnectUnions exposes Algorithm 3's phase-2 loop to callers that seed
// the user unions and capacity ledger themselves — notably tree repair
// after fiber failures, which keeps surviving channels and reconnects the
// rest. uf must partition indices of p.Users; tree and led must reflect
// the already-committed channels. A nil ctx never cancels; st (nil =
// discard) collects the search work.
func (p *Problem) ReconnectUnions(ctx context.Context, led *quantum.Ledger, uf *unionfind.UnionFind, tree *quantum.Tree, st *SolveStats) error {
	return p.connectUnions(ctx, led, uf, tree, "reconnect", st)
}

// connectUnions repeatedly commits the maximum-rate channel joining two
// different user unions until one union remains. It mutates led, uf and
// tree in place and reports ErrInfeasible when users stay separated.
// Both Algorithm 3 (phase 2) and Algorithm 4 reduce to this loop; they
// differ only in how the unions were seeded.
//
// The search is incremental (see incremental.go): the first round seeds a
// per-source candidate cache, and later rounds pop lazily instead of
// re-sweeping every user, which is why alg3/alg4 no longer cost |U|
// Dijkstra runs per committed channel. The committed tree is bit-identical
// to the exhaustive sweep's (bestCrossUnionChannelExhaustive), which
// TestConnectUnionsLazyMatchesExhaustive checks on randomized networks.
func (p *Problem) connectUnions(ctx context.Context, led *quantum.Ledger, uf *unionfind.UnionFind, tree *quantum.Tree, who string, st *SolveStats) error {
	if uf.Sets() <= 1 {
		return nil
	}
	cache, err := p.newCandCache(ctx, led, crossUnionTargets{uf: uf}, st)
	if err != nil {
		return fmt.Errorf("%s: %w", who, err)
	}
	rounds := int64(0)
	for uf.Sets() > 1 {
		best, ok, err := cache.best(ctx, st)
		if err != nil {
			return fmt.Errorf("%s: %w", who, err)
		}
		if !ok {
			return fmt.Errorf("%w: %d user groups cannot be joined under switch capacity (%s)",
				ErrInfeasible, uf.Sets(), who)
		}
		if err := led.Reserve(best.ch.Nodes); err != nil {
			panic(fmt.Sprintf("core: reserve after capacity-gated search: %v", err))
		}
		st.AddReservations(1)
		uf.Union(best.ia, best.ib)
		tree.Channels = append(tree.Channels, best.ch)
		st.AddCommitted(1)
		rounds++
		if uf.Sets() > 1 {
			// Committing consumed the winning source's entry; re-seed it with
			// that source's next-best candidate under the merged unions.
			if err := cache.add(ctx, best.ia, st); err != nil {
				return fmt.Errorf("%s: %w", who, err)
			}
		}
	}
	// The exhaustive sweep would have run len(Users) single-source searches
	// per committed channel.
	st.AddSearchesSaved(rounds*int64(len(p.Users)) - cache.searches)
	return nil
}

// bestCrossUnionChannelExhaustive searches, under the ledger's residual
// capacity, the maximum-rate channel whose endpoints lie in different
// unions, with one single-source Algorithm-1 run per user as in the paper's
// complexity analysis; ctx is checked before each single-source burst. Ties
// are broken by user-set index for determinism.
//
// It is the reference the lazy cache must agree with candidate-for-candidate
// and is kept for the differential tests; production loops go through
// candCache instead.
func (p *Problem) bestCrossUnionChannelExhaustive(ctx context.Context, led *quantum.Ledger, uf *unionfind.UnionFind, st *SolveStats) (candidate, bool, error) {
	sc := p.acquireCtx(st)
	defer p.releaseCtx(sc)
	var best candidate
	found := false
	for i, src := range p.Users {
		if err := ctxErr(ctx); err != nil {
			return candidate{}, false, err
		}
		sp := p.channelSearch(sc, src, led, st)
		for j := i + 1; j < len(p.Users); j++ {
			if uf.Connected(i, j) {
				continue
			}
			ch, ok := p.channelFromSearch(sc, sp, p.Users[j], st)
			if !ok {
				continue
			}
			if !found || ch.Rate > best.ch.Rate {
				best = candidate{ch: ch, ia: i, ib: j}
				found = true
			}
		}
	}
	return best, found, nil
}

// connectUnionsExhaustive is connectUnions driven by the exhaustive
// per-round sweep, the pre-incremental behavior retained as the oracle for
// the lazy-vs-exhaustive differential tests.
func (p *Problem) connectUnionsExhaustive(ctx context.Context, led *quantum.Ledger, uf *unionfind.UnionFind, tree *quantum.Tree, who string, st *SolveStats) error {
	for uf.Sets() > 1 {
		best, ok, err := p.bestCrossUnionChannelExhaustive(ctx, led, uf, st)
		if err != nil {
			return fmt.Errorf("%s: %w", who, err)
		}
		if !ok {
			return fmt.Errorf("%w: %d user groups cannot be joined under switch capacity (%s)",
				ErrInfeasible, uf.Sets(), who)
		}
		if err := led.Reserve(best.ch.Nodes); err != nil {
			panic(fmt.Sprintf("core: reserve after capacity-gated search: %v", err))
		}
		st.AddReservations(1)
		uf.Union(best.ia, best.ib)
		tree.Channels = append(tree.Channels, best.ch)
		st.AddCommitted(1)
	}
	return nil
}
