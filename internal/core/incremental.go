package core

import (
	"context"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/unionfind"
)

// This file is the incremental channel-search layer behind Algorithm 3's
// phase 2, Algorithm 4, tree repair and the shared-capacity greedy builder.
//
// All of those loops repeatedly ask "what is the maximum-rate channel
// joining two different user groups under residual capacity?" and used to
// answer it with a full |U| single-source sweep per committed channel. But
// between commits capacity is monotone: quantum.Ledger.Reserve can only
// close switches (drop them below 2 free qubits), never reopen them, and
// user groups only ever merge. Both facts together mean a cached best
// candidate per source user can only get *worse* over time — so the globally
// best candidate can be maintained in a max-heap and revalidated lazily:
//
//   - Each source user i owns at most one heap entry: its best channel to
//     any eligible destination, tagged with the quantum.Epoch it was
//     computed at.
//   - Pop the top entry. If its endpoints are still in different groups and
//     no interior switch closed since its epoch, it is provably still the
//     global optimum (every other entry's stored rate is an upper bound on
//     that source's current best, and the deterministic (rate desc, ia, ib)
//     heap order reproduces the exhaustive sweep's tie-break exactly).
//   - Otherwise the entry is stale: re-run only that source's single-source
//     search under the current ledger and groups, reinsert, and pop again.
//   - A source whose re-search finds no candidate is dropped for good —
//     monotonicity guarantees it can never gain one within the loop.
//
// A quantum.Ledger.Release between pops breaks monotonicity (reopened
// capacity can create channels better than anything cached); the ledger
// reports it through a generation bump and the cache rebuilds itself from
// scratch. That never happens inside the solver loops, which only Reserve,
// but keeps externally seeded loops (ReconnectUnions) correct no matter
// what their callers did to the ledger in between.
//
// TestConnectUnionsLazyMatchesExhaustive and
// TestPrimLazyMatchesExhaustive check the lazy layer against the retained
// exhaustive sweeps on randomized networks; committed trees are
// bit-identical by construction.

// cacheEntry tags one source user's best candidate with the ledger closure
// epoch it was computed at.
type cacheEntry struct {
	cand  candidate
	epoch quantum.Epoch
}

// candHeap is a max-heap of per-source best candidates ordered by the
// solvers' deterministic tie-break: rate descending, then source index ia,
// then destination index ib ascending. The order makes lazy popping commit
// exactly the candidate the exhaustive ascending-index sweep would have
// picked, ties included.
type candHeap []cacheEntry

// before reports whether entry x must pop before entry y.
func (h candHeap) before(x, y cacheEntry) bool {
	if x.cand.ch.Rate != y.cand.ch.Rate {
		return x.cand.ch.Rate > y.cand.ch.Rate
	}
	if x.cand.ia != y.cand.ia {
		return x.cand.ia < y.cand.ia
	}
	return x.cand.ib < y.cand.ib
}

func (h *candHeap) push(e cacheEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.before(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *candHeap) pop() cacheEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = cacheEntry{} // release the channel backing array
	s = s[:n]
	*h = s
	for i := 0; ; {
		best := i
		if l := 2*i + 1; l < n && s.before(s[l], s[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && s.before(s[r], s[best]) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

// pairTargets abstracts the two "join different groups" loops over what
// counts as an eligible (source, destination) pair right now:
//
//   - cross-union (Algorithm 3 phase 2, repair): sources are all users,
//     destinations are users with a larger index in a different union;
//   - frontier (Algorithm 4, BuildGreedyTree): sources are in-tree users,
//     destinations are all out-of-tree users.
type pairTargets interface {
	// sources appends the indices eligible as search sources, in ascending
	// order (used only to (re)build the cache from scratch).
	sources(buf []int) []int
	// eligible reports whether (i, j) is currently a joinable pair with
	// source i.
	eligible(i, j int) bool
}

// crossUnionTargets adapts a union-find partition of the users.
type crossUnionTargets struct{ uf *unionfind.UnionFind }

func (t crossUnionTargets) sources(buf []int) []int {
	for i := 0; i < t.uf.Len()-1; i++ {
		buf = append(buf, i)
	}
	return buf
}

func (t crossUnionTargets) eligible(i, j int) bool {
	return j > i && !t.uf.Connected(i, j)
}

// frontierTargets adapts Algorithm 4's in-tree membership slice.
type frontierTargets struct{ inTree []bool }

func (t frontierTargets) sources(buf []int) []int {
	for i, in := range t.inTree {
		if in {
			buf = append(buf, i)
		}
	}
	return buf
}

func (t frontierTargets) eligible(i, j int) bool {
	return t.inTree[i] && !t.inTree[j]
}

// candCache is the per-solve lazy candidate cache: one heap entry per
// source user still holding a joinable candidate, revalidated against the
// ledger's closure epochs on pop.
type candCache struct {
	p       *Problem
	led     *quantum.Ledger
	targets pairTargets
	heap    candHeap
	// searches counts the single-source runs the cache performed, the
	// subtrahend of the SearchesSaved accounting its callers do.
	searches int64
	srcBuf   []int
	// dstIdx/dstBuf hold computeSource's eligible destinations as user
	// indices and as the node targets that bound its search.
	dstIdx []int
	dstBuf []graph.NodeID
}

// newCandCache seeds the cache with one search per currently eligible
// source. ctx is checked before every single-source burst.
func (p *Problem) newCandCache(ctx context.Context, led *quantum.Ledger, targets pairTargets, st *SolveStats) (*candCache, error) {
	c := &candCache{p: p, led: led, targets: targets}
	if err := c.rebuild(ctx, st); err != nil {
		return nil, err
	}
	return c, nil
}

// rebuild recomputes every eligible source's entry from scratch, the cold
// start and the recovery path after a ledger generation change.
func (c *candCache) rebuild(ctx context.Context, st *SolveStats) error {
	c.heap = c.heap[:0]
	c.srcBuf = c.targets.sources(c.srcBuf[:0])
	sc := c.p.acquireCtx(st)
	defer c.p.releaseCtx(sc)
	for _, i := range c.srcBuf {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if e, ok := c.computeSource(sc, i, st); ok {
			c.heap.push(e)
		}
	}
	return nil
}

// computeSource runs source i's single-source search under the current
// ledger and returns its best candidate over the currently eligible
// destinations, with the exhaustive sweeps' tie-break (ascending j, strict
// improvement). The search stops once every eligible destination is
// settled. ok is false when no destination is reachable — the caller then
// drops the source, which monotonicity makes permanent.
func (c *candCache) computeSource(sc *searchCtx, i int, st *SolveStats) (cacheEntry, bool) {
	epoch := c.led.Epoch()
	c.dstIdx, c.dstBuf = c.dstIdx[:0], c.dstBuf[:0]
	for j, u := range c.p.Users {
		if c.targets.eligible(i, j) {
			c.dstIdx = append(c.dstIdx, j)
			c.dstBuf = append(c.dstBuf, u)
		}
	}
	sp := c.p.channelSearchTo(sc, c.p.Users[i], c.dstBuf, c.led, st)
	c.searches++
	var best candidate
	found := false
	for k, j := range c.dstIdx {
		ch, ok := c.p.channelFromSearch(sc, sp, c.dstBuf[k], st)
		if !ok {
			continue
		}
		if !found || ch.Rate > best.ch.Rate {
			best = candidate{ch: ch, ia: i, ib: j}
			found = true
		}
	}
	return cacheEntry{cand: best, epoch: epoch}, found
}

// add computes and inserts a fresh entry for source i, used when Algorithm
// 4 promotes a user into the tree (making it a new search source).
func (c *candCache) add(ctx context.Context, i int, st *SolveStats) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	sc := c.p.acquireCtx(st)
	defer c.p.releaseCtx(sc)
	if e, ok := c.computeSource(sc, i, st); ok {
		c.heap.push(e)
	}
	return nil
}

// best pops the maximum-rate joinable candidate, lazily revalidating
// entries: a popped entry is committed as-is when its pair is still
// joinable and its channel's interior switches are all still open;
// otherwise only that source is re-searched and the pop repeats. ok is
// false when no source holds a joinable candidate — which, under monotone
// capacity, proves none will ever reappear within this loop.
func (c *candCache) best(ctx context.Context, st *SolveStats) (candidate, bool, error) {
	var sc *searchCtx
	defer func() {
		if sc != nil {
			c.p.releaseCtx(sc)
		}
	}()
	for len(c.heap) > 0 {
		if err := ctxErr(ctx); err != nil {
			return candidate{}, false, err
		}
		e := c.heap.pop()
		closed, ok := c.led.ClosedSince(e.epoch)
		if !ok {
			// A Release reopened a switch since this entry was computed:
			// monotonicity broke and every cached entry is suspect, including
			// sources dropped as hopeless. Start over under the new
			// generation.
			if err := c.rebuild(ctx, st); err != nil {
				return candidate{}, false, err
			}
			continue
		}
		// The pair check is always against live state; the capacity check
		// can skip the interior scan when no switch closed since the entry's
		// epoch (CanCarry is then guaranteed by construction).
		stale := !c.targets.eligible(e.cand.ia, e.cand.ib) ||
			(len(closed) > 0 && !c.led.CanCarry(e.cand.ch.Nodes))
		if !stale {
			st.AddCacheHit()
			return e.cand, true, nil
		}
		st.AddCacheInvalidation()
		if sc == nil {
			sc = c.p.acquireCtx(st)
		}
		if ne, ok := c.computeSource(sc, e.cand.ia, st); ok {
			c.heap.push(ne)
		}
	}
	return candidate{}, false, nil
}
