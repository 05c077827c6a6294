package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/unionfind"
)

// This file implements the paper's Algorithm 2: the optimal algorithm under
// the sufficient-capacity condition Q_r >= 2|U|.
//
// Step 1 finds, for every user pair, the maximum-entanglement-rate channel
// (one single-source Algorithm-1 run per user, the optimization the paper's
// complexity analysis describes). Step 2 selects channels in descending
// rate order, Kruskal-style, joining users with a union-find until one
// union spans U. Theorem 3 proves the result optimal when every switch has
// at least 2|U| qubits.

// candidate pairs a channel with the user-set indices of its endpoints.
type candidate struct {
	ch     quantum.Channel
	ia, ib int // indices into Problem.Users
}

// allPairsChannels returns the max-rate channel for every user pair that is
// connected under the static capacity rule, as Algorithm 2 step 1. The
// single-source searches are independent by construction, so they fan out
// across the machine; see allPairsChannelsParallel for the determinism
// argument. A cancelled ctx aborts between single-source bursts.
func (p *Problem) allPairsChannels(ctx context.Context, st *SolveStats) ([]candidate, error) {
	return p.allPairsChannelsParallel(ctx, runtime.GOMAXPROCS(0), st)
}

// allPairsChannelsParallel runs Algorithm 2 step 1 on up to workers
// goroutines. Each user's single-source search writes only its own slot of
// perSrc and searches on its own pooled scratch, and slots are merged in
// ascending user order afterwards — so the candidate list (order, channels,
// rates, bit-for-bit) is identical for every worker count, including the
// sequential workers <= 1 path. Cancellation is checked before every
// single-source burst; a cancelled ctx returns ctx.Err.
func (p *Problem) allPairsChannelsParallel(ctx context.Context, workers int, st *SolveStats) ([]candidate, error) {
	n := len(p.Users)
	perSrc := make([][]candidate, n)
	collect := func(sc *searchCtx, i int) {
		sp := p.channelSearch(sc, p.Users[i], nil, st)
		var out []candidate
		for j := i + 1; j < n; j++ {
			if ch, ok := p.channelFromSearch(sc, sp, p.Users[j], st); ok {
				out = append(out, candidate{ch: ch, ia: i, ib: j})
			}
		}
		perSrc[i] = out
	}

	// The last user is only ever a destination (j > i), so n-1 sources.
	if workers > n-1 {
		workers = n - 1
	}
	if workers <= 1 {
		sc := p.acquireCtx(st)
		for i := 0; i < n-1; i++ {
			if err := ctxErr(ctx); err != nil {
				p.releaseCtx(sc)
				return nil, err
			}
			collect(sc, i)
		}
		p.releaseCtx(sc)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				sc := p.acquireCtx(st)
				defer p.releaseCtx(sc)
				for {
					if ctxErr(ctx) != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= n-1 {
						return
					}
					collect(sc, i)
				}
			}()
		}
		wg.Wait()
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
	}

	total := 0
	for _, out := range perSrc {
		total += len(out)
	}
	cands := make([]candidate, 0, total)
	for _, out := range perSrc {
		cands = append(cands, out...)
	}
	return cands, nil
}

// sortByRateDesc orders candidates by descending entanglement rate, with a
// deterministic endpoint-index tiebreak so runs are reproducible.
func sortByRateDesc(cands []candidate) {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ch.Rate != cands[j].ch.Rate {
			return cands[i].ch.Rate > cands[j].ch.Rate
		}
		if cands[i].ia != cands[j].ia {
			return cands[i].ia < cands[j].ia
		}
		return cands[i].ib < cands[j].ib
	})
}

// SolveOptimalContext implements Algorithm 2 under the SolveFunc contract.
// Under the sufficient condition Q_r >= 2|U| for all switches
// (Problem.SufficientCapacity) the result is the optimal MUERP solution
// (Theorem 3) and always respects capacity.
//
// Without the condition the returned tree maximizes each pairwise channel
// independently but may overload switches; Algorithm 3
// (SolveConflictFreeContext) exists precisely to repair that. The only hard
// failure mode is users that cannot be connected at all, reported as
// ErrInfeasible.
func SolveOptimalContext(ctx context.Context, p *Problem, opts *SolveOptions) (*Solution, error) {
	st := opts.StatsSink()
	cands, err := p.allPairsChannels(ctx, st)
	if err != nil {
		return nil, fmt.Errorf("algorithm 2: %w", err)
	}
	sortByRateDesc(cands)

	uf := unionfind.New(len(p.Users))
	tree := quantum.Tree{}
	for _, c := range cands {
		if uf.Connected(c.ia, c.ib) {
			continue
		}
		uf.Union(c.ia, c.ib)
		tree.Channels = append(tree.Channels, c.ch)
		st.AddCommitted(1)
		if uf.Sets() == 1 {
			break
		}
	}
	if uf.Sets() != 1 {
		return nil, fmt.Errorf("%w: users span %d disconnected groups (algorithm 2)", ErrInfeasible, uf.Sets())
	}
	return &Solution{Tree: tree, Algorithm: "alg2", MeasurementFactor: 1}, nil
}
