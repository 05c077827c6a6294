package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
)

// This file defines the repo's single solve contract. Every routing scheme —
// the paper's Algorithms 2-4, the evaluation baselines, the ablation
// variants and the exact branch-and-bound — is exposed as a SolveFunc and
// dispatched through the internal/solver registry. The contract carries a
// context (long solves are abortable) and per-solve options: an explicit
// randomness stream and an optional work-counter sink.

// SolveOptions carries the per-solve inputs that are not part of the
// Problem itself. A nil *SolveOptions is valid and means "no randomness, no
// stats collection"; the accessors below are nil-safe.
type SolveOptions struct {
	// RNG drives the solver's stochastic choices (Algorithm 4's random
	// starting user, the random replay-order ablation). nil means the solver
	// makes its deterministic default choice instead.
	RNG *rand.Rand
	// Stats, when non-nil, accumulates the solve's work counters. Read it
	// after Solve returns; solvers that fan searches out across goroutines
	// update it atomically.
	Stats *SolveStats
}

// Rand returns the options' randomness stream, nil-safe.
func (o *SolveOptions) Rand() *rand.Rand {
	if o == nil {
		return nil
	}
	return o.RNG
}

// StatsSink returns the options' stats collector, nil-safe (nil = discard).
func (o *SolveOptions) StatsSink() *SolveStats {
	if o == nil {
		return nil
	}
	return o.Stats
}

// SolveStats counts the work one solve performed, threaded through the
// kernel layers: the Dijkstra engine, the per-problem search-context pool,
// the candidate-channel extraction and the capacity ledger. All Add methods
// are nil-safe (a nil receiver discards) and atomic, because solvers may
// fan searches out across goroutines; read the fields only after the solve
// returns, or through Snapshot.
type SolveStats struct {
	// DijkstraRuns counts single-source channel searches.
	DijkstraRuns int64 `json:"dijkstra_runs"`
	// EdgesRelaxed counts successful distance improvements across all runs.
	EdgesRelaxed int64 `json:"edges_relaxed"`
	// PoolHits / PoolMisses count search-context checkouts served from the
	// per-problem pool vs. freshly allocated.
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
	// ChannelsConsidered counts candidate channels extracted from searches;
	// ChannelsCommitted counts the ones that made the final tree.
	ChannelsConsidered int64 `json:"channels_considered"`
	ChannelsCommitted  int64 `json:"channels_committed"`
	// LedgerReservations counts successful qubit reservations (including
	// ones later rolled back by backtracking solvers).
	LedgerReservations int64 `json:"ledger_reservations"`
	// CacheHits counts candidates the incremental cross-union/frontier
	// search committed straight from its cache — popped, revalidated against
	// the ledger's closure epoch, and found still optimal with no re-search.
	CacheHits int64 `json:"cache_hits"`
	// CacheInvalidations counts popped candidates that had gone stale (an
	// endpoint union merged or an interior switch closed) and forced a
	// single-source re-search of just that candidate's source.
	CacheInvalidations int64 `json:"cache_invalidations"`
	// SearchesSaved counts the single-source Dijkstra runs the incremental
	// layer avoided relative to the exhaustive per-round sweep the solvers
	// used to do (exhaustive-equivalent runs minus runs actually performed).
	SearchesSaved int64 `json:"searches_saved"`
}

// AddSearch records one Dijkstra run that relaxed n edges.
func (s *SolveStats) AddSearch(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.DijkstraRuns, 1)
	atomic.AddInt64(&s.EdgesRelaxed, n)
}

// AddPool records one search-context checkout.
func (s *SolveStats) AddPool(hit bool) {
	if s == nil {
		return
	}
	if hit {
		atomic.AddInt64(&s.PoolHits, 1)
	} else {
		atomic.AddInt64(&s.PoolMisses, 1)
	}
}

// AddConsidered records n extracted candidate channels.
func (s *SolveStats) AddConsidered(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.ChannelsConsidered, n)
}

// AddCommitted records n channels committed to the final tree.
func (s *SolveStats) AddCommitted(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.ChannelsCommitted, n)
}

// AddReservations records n successful ledger reservations.
func (s *SolveStats) AddReservations(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.LedgerReservations, n)
}

// AddCacheHit records one cached candidate committed without a re-search.
func (s *SolveStats) AddCacheHit() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.CacheHits, 1)
}

// AddCacheInvalidation records one stale cached candidate that forced a
// single-source re-search.
func (s *SolveStats) AddCacheInvalidation() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.CacheInvalidations, 1)
}

// AddSearchesSaved records n single-source searches avoided relative to the
// exhaustive sweep.
func (s *SolveStats) AddSearchesSaved(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.SearchesSaved, n)
}

// Merge adds o's counters into s (nil-safe on both sides). Unlike the Add
// methods it is not atomic: merge only after the contributing solves are
// done.
func (s *SolveStats) Merge(o *SolveStats) {
	if s == nil || o == nil {
		return
	}
	s.DijkstraRuns += o.DijkstraRuns
	s.EdgesRelaxed += o.EdgesRelaxed
	s.PoolHits += o.PoolHits
	s.PoolMisses += o.PoolMisses
	s.ChannelsConsidered += o.ChannelsConsidered
	s.ChannelsCommitted += o.ChannelsCommitted
	s.LedgerReservations += o.LedgerReservations
	s.CacheHits += o.CacheHits
	s.CacheInvalidations += o.CacheInvalidations
	s.SearchesSaved += o.SearchesSaved
}

// Snapshot returns a consistent copy using atomic loads, safe to call while
// a solve is still running.
func (s *SolveStats) Snapshot() SolveStats {
	if s == nil {
		return SolveStats{}
	}
	return SolveStats{
		DijkstraRuns:       atomic.LoadInt64(&s.DijkstraRuns),
		EdgesRelaxed:       atomic.LoadInt64(&s.EdgesRelaxed),
		PoolHits:           atomic.LoadInt64(&s.PoolHits),
		PoolMisses:         atomic.LoadInt64(&s.PoolMisses),
		ChannelsConsidered: atomic.LoadInt64(&s.ChannelsConsidered),
		ChannelsCommitted:  atomic.LoadInt64(&s.ChannelsCommitted),
		LedgerReservations: atomic.LoadInt64(&s.LedgerReservations),
		CacheHits:          atomic.LoadInt64(&s.CacheHits),
		CacheInvalidations: atomic.LoadInt64(&s.CacheInvalidations),
		SearchesSaved:      atomic.LoadInt64(&s.SearchesSaved),
	}
}

// String renders the counters in the compact form the CLIs print.
func (s SolveStats) String() string {
	return fmt.Sprintf("dijkstra=%d relaxed=%d pool=%d/%d channels=%d/%d reservations=%d cache=%d/%d saved=%d",
		s.DijkstraRuns, s.EdgesRelaxed, s.PoolHits, s.PoolMisses,
		s.ChannelsConsidered, s.ChannelsCommitted, s.LedgerReservations,
		s.CacheHits, s.CacheInvalidations, s.SearchesSaved)
}

// ctxErr reports whether the solve should abort: a non-nil error is the
// context's cancellation cause. A nil context never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// SolveFunc is the single solve contract every routing scheme implements:
// route p, honoring ctx cancellation (checked inside the channel-search
// burst loops, so long solves abort within one search round) and the
// per-solve options. It returns ErrInfeasible (wrapped) when no
// entanglement tree exists under the problem's constraints.
type SolveFunc func(ctx context.Context, p *Problem, opts *SolveOptions) (*Solution, error)
