package core

import (
	"fmt"
	"sync"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// This file implements the paper's Algorithm 1: finding the quantum channel
// with maximum entanglement rate between a pair of users.
//
// Eq. 1 is a product, not a sum, so the algorithm works in negative log
// space: each fiber gets weight alpha*L - ln q, making path weight
// alpha*sum(L) + l*(-ln q), and the channel rate is recovered as
// exp(ln q - dist) = q^(l-1) * exp(-alpha*sum(L)). Minimizing the
// transformed weight with Dijkstra therefore maximizes the rate.
//
// Every routing algorithm (2-4 and the baselines) reduces to repeated runs
// of this kernel, so it is engineered to allocate nothing per search: the
// edge weights are computed once per engine (not once per relaxation), and
// each searching goroutine checks a searchCtx out of the engine's pool,
// reusing the Dijkstra arrays, the heap and the path-reconstruction buffer
// across runs. Only the transit filter stays dynamic, because ledger-gated
// capacity changes between searches.

// engine is the search engine of one graph under one rate model, shared by
// every Problem derived from the same template (Problem.WithUsers). It is
// built lazily on the first search.
type engine struct {
	once    sync.Once
	weights []float64 // weight of edge e under the Algorithm 1 metric
	ctxs    sync.Pool // of *searchCtx, one per concurrently searching goroutine
}

// searchCtx is the per-goroutine scratch of the channel-search kernel: a
// reusable single-source engine plus a path buffer for channel extraction.
// The ShortestPaths a ctx produces aliases its engine and dies at its next
// search, so a ctx must stay checked out while results are being read.
type searchCtx struct {
	s    *graph.Searcher
	path []graph.NodeID
	// fresh marks a ctx that was just allocated by the pool's New (a pool
	// miss); acquireCtx clears it, so subsequent checkouts count as hits.
	fresh bool
}

// acquireCtx checks a search context out of the engine's pool, recording
// the hit/miss in st. Callers must return it with releaseCtx once no
// ShortestPaths produced through it is needed.
func (p *Problem) acquireCtx(st *SolveStats) *searchCtx {
	e := p.eng
	e.once.Do(func() {
		w := make([]float64, p.Graph.NumEdges())
		for i := range w {
			w[i] = p.Params.EdgeWeight(p.Graph.Edge(graph.EdgeID(i)).Length)
		}
		e.weights = w
		g := p.Graph
		e.ctxs.New = func() any {
			return &searchCtx{s: graph.NewSearcher(g), path: make([]graph.NodeID, 0, 16), fresh: true}
		}
	})
	sc := e.ctxs.Get().(*searchCtx)
	st.AddPool(!sc.fresh)
	sc.fresh = false
	return sc
}

func (p *Problem) releaseCtx(sc *searchCtx) { p.eng.ctxs.Put(sc) }

// staticTransit is the ledger-free interior-vertex rule: switches with >= 2
// installed qubits (the static Q >= 2 check on line 11 of the paper's
// Algorithm 1). Package-level so ledger-free searches allocate no closure.
func staticTransit(n graph.Node) bool {
	return n.Kind == graph.KindSwitch && n.Qubits >= 2
}

// transitFunc returns the interior-vertex admission rule for channel
// searches. With a ledger it admits switches with >= 2 free qubits (the
// live-capacity rule of Algorithms 3 and 4); without one it admits switches
// with >= 2 total qubits. Users are never admitted as interior vertices
// (Definition 2: channels run through vertices in R).
func (p *Problem) transitFunc(led *quantum.Ledger) graph.TransitFunc {
	if led != nil {
		return led.CanRelay
	}
	return staticTransit
}

// channelSearch runs the single-source variant of Algorithm 1 from src,
// under the given ledger (nil = static capacity check only), on sc's
// engine, counting the run and its relaxations into st. The returned
// ShortestPaths recovers max-rate channels to every destination through its
// Prev array, exactly as the paper's complexity discussion prescribes; it
// is valid until sc's next search.
func (p *Problem) channelSearch(sc *searchCtx, src graph.NodeID, led *quantum.Ledger, st *SolveStats) *graph.ShortestPaths {
	sp := sc.s.SearchWeights(src, p.eng.weights, p.transitFunc(led))
	st.AddSearch(sc.s.LastRelaxed())
	return sp
}

// channelSearchTo is channelSearch stopped once every destination in dsts
// is settled: only channels to dsts may be read from the result, and they
// are bit-identical to channelSearch's.
func (p *Problem) channelSearchTo(sc *searchCtx, src graph.NodeID, dsts []graph.NodeID, led *quantum.Ledger, st *SolveStats) *graph.ShortestPaths {
	sp := sc.s.SearchWeightsTo(src, p.eng.weights, p.transitFunc(led), dsts)
	st.AddSearch(sc.s.LastRelaxed())
	return sp
}

// channelFromSearch converts the shortest path from sp's source to dst into
// a quantum.Channel with its Eq. 1 rate, reconstructing the path through
// sc's reusable buffer, counting the extracted candidate into st. ok is
// false when dst is unreachable under the search's constraints.
func (p *Problem) channelFromSearch(sc *searchCtx, sp *graph.ShortestPaths, dst graph.NodeID, st *SolveStats) (quantum.Channel, bool) {
	if dst == sp.Source {
		return quantum.Channel{}, false
	}
	path, ok := sp.AppendPathTo(sc.path[:0], dst)
	if !ok {
		return quantum.Channel{}, false
	}
	sc.path = path[:0] // keep the (possibly grown) buffer for the next call
	// The rate could equivalently be recovered from the path distance as
	// exp(ln q - dist); NewChannel recomputes it directly from Eq. 1, which
	// is also what ValidateTree later checks against.
	ch, err := quantum.NewChannel(p.Graph, path, p.Params)
	if err != nil {
		// Dijkstra with our transit filter can only emit valid channel
		// paths; a failure here is an internal invariant violation.
		panic(fmt.Sprintf("core: Algorithm 1 produced an invalid channel: %v", err))
	}
	st.AddConsidered(1)
	return ch, true
}

// MaxRateChannel implements Algorithm 1: the maximum-entanglement-rate
// channel between the users src and dst. When led is non-nil, interior
// switches must currently have 2 free qubits in it. st (nil = discard)
// collects the search work. ok is false when no channel exists under the
// constraints.
func (p *Problem) MaxRateChannel(src, dst graph.NodeID, led *quantum.Ledger, st *SolveStats) (quantum.Channel, bool) {
	if src == dst {
		return quantum.Channel{}, false
	}
	sc := p.acquireCtx(st)
	defer p.releaseCtx(sc)
	return p.channelFromSearch(sc, p.channelSearchTo(sc, src, []graph.NodeID{dst}, led, st), dst, st)
}

// UserChannel pairs a destination user with its max-rate channel, the
// per-destination record of a single-source Algorithm 1 run.
type UserChannel struct {
	Dst graph.NodeID
	Ch  quantum.Channel
}

// MaxRateChannels runs one single-source search from src and returns the
// max-rate channel to every other user reachable under the constraints, in
// ascending Problem.Users order. st (nil = discard) collects the search
// work. (It used to return a map; the slice is cheaper and gives callers a
// deterministic iteration order, so rate ties resolve the same way on every
// run.)
func (p *Problem) MaxRateChannels(src graph.NodeID, led *quantum.Ledger, st *SolveStats) []UserChannel {
	sc := p.acquireCtx(st)
	defer p.releaseCtx(sc)
	sp := p.channelSearch(sc, src, led, st)
	out := make([]UserChannel, 0, len(p.Users)-1)
	for _, u := range p.Users {
		if u == src {
			continue
		}
		if ch, ok := p.channelFromSearch(sc, sp, u, st); ok {
			out = append(out, UserChannel{Dst: u, Ch: ch})
		}
	}
	return out
}
