package graph

import (
	"fmt"
	"math"

	"github.com/muerp/quantumnet/internal/pq"
)

// Unusable is the edge-weight sentinel of the precomputed-weight search
// form: an edge whose weight is +Inf is never relaxed, mirroring a
// WeightFunc that returns ok=false.
var Unusable = math.Inf(1)

// Searcher is a reusable single-source shortest-path engine over one graph.
// It owns the dist/prev/settled arrays, the indexed min-heap and the
// touched-node list of a Dijkstra run, so repeated searches allocate
// nothing: state dirtied by run k is reset in O(touched_k) at the start of
// run k+1 rather than reallocated.
//
// Two weight forms are supported. Search evaluates a WeightFunc closure per
// relaxation, exactly like Graph.Dijkstra. SearchWeights takes a
// precomputed per-edge weight slice (indexed by EdgeID, Unusable = skip),
// which lets callers that run many searches under one metric — the MUERP
// kernel computes alpha*L - ln q once per graph instead of once per
// relaxation. Transit filtering stays dynamic in both forms, because
// ledger-gated capacity changes between searches. SearchWeightsTo is the
// target-bounded form of SearchWeights: it stops once the given targets are
// settled.
//
// The ShortestPaths returned by a Searcher aliases the Searcher's buffers:
// it is valid until the next Search/SearchWeights call on the same
// Searcher. A Searcher is not safe for concurrent use; concurrent callers
// use one Searcher per goroutine (see core's per-problem pool).
type Searcher struct {
	g       *Graph
	heap    *pq.IndexedMinHeap
	settled []bool
	target  []bool // marks the unsettled targets of a SearchWeightsTo run
	touched []NodeID
	sp      ShortestPaths
	relaxed int64
}

// LastRelaxed returns how many successful distance improvements the most
// recent Search/SearchWeights run performed — the per-run work counter the
// solve pipeline aggregates into core.SolveStats.
func (s *Searcher) LastRelaxed() int64 { return s.relaxed }

// NewSearcher returns a Searcher for g with all scratch state allocated up
// front. The graph's topology and edge lengths must not change while the
// Searcher is in use.
func NewSearcher(g *Graph) *Searcher {
	n := g.NumNodes()
	s := &Searcher{
		g:       g,
		heap:    pq.NewIndexedMinHeap(n),
		settled: make([]bool, n),
		target:  make([]bool, n),
		touched: make([]NodeID, 0, n),
		sp: ShortestPaths{
			g:    g,
			dist: make([]float64, n),
			prev: make([]NodeID, n),
		},
	}
	for i := range s.sp.dist {
		s.sp.dist[i] = math.Inf(1)
		s.sp.prev[i] = None
	}
	return s
}

// Search runs Dijkstra from src with a closure-evaluated weight, reusing
// the Searcher's scratch. Semantics match Graph.Dijkstra exactly.
func (s *Searcher) Search(src NodeID, weight WeightFunc, transit TransitFunc) *ShortestPaths {
	if weight == nil {
		panic("graph: Dijkstra needs a weight function")
	}
	return s.search(src, nil, weight, transit, nil)
}

// SearchWeights runs Dijkstra from src with precomputed edge weights:
// weights[e] is the cost of traversing edge e, and Unusable (+Inf) marks an
// edge that must not be used. weights must cover every edge of the graph.
func (s *Searcher) SearchWeights(src NodeID, weights []float64, transit TransitFunc) *ShortestPaths {
	if len(weights) != s.g.NumEdges() {
		panic(fmt.Sprintf("graph: SearchWeights got %d weights for %d edges", len(weights), s.g.NumEdges()))
	}
	return s.search(src, weights, nil, transit, nil)
}

// SearchWeightsTo is SearchWeights bounded by targets: the run stops as soon
// as every target is settled. The pop order is the full run's, and a settled
// node's distance and predecessor are final, so for every target (and every
// node on a path to one) the result is bit-identical to SearchWeights. Other
// nodes may be left unsettled: only the targets may be read. A run with no
// targets settles nothing beyond the source.
func (s *Searcher) SearchWeightsTo(src NodeID, weights []float64, transit TransitFunc, targets []NodeID) *ShortestPaths {
	if len(weights) != s.g.NumEdges() {
		panic(fmt.Sprintf("graph: SearchWeights got %d weights for %d edges", len(weights), s.g.NumEdges()))
	}
	if targets == nil {
		targets = []NodeID{}
	}
	return s.search(src, weights, nil, transit, targets)
}

// search is the shared relaxation loop. Exactly one of weights and weight
// is set; a non-nil targets bounds the run (see SearchWeightsTo). The loop
// body is kept identical to the historical Graph.Dijkstra so every entry
// point produces bit-identical distances and predecessors.
func (s *Searcher) search(src NodeID, weights []float64, weight WeightFunc, transit TransitFunc, targets []NodeID) *ShortestPaths {
	g := s.g
	if !g.HasNode(src) {
		panic(fmt.Sprintf("graph: Dijkstra from unknown node %d", src))
	}
	bounded := targets != nil
	left := 0
	for _, v := range targets {
		if !g.HasNode(v) {
			panic(fmt.Sprintf("graph: Dijkstra to unknown node %d", v))
		}
		if !s.target[v] {
			s.target[v] = true
			left++
		}
	}

	// Undo the previous run in O(touched): only nodes that run assigned a
	// distance (all of which it recorded) carry stale state.
	for _, v := range s.touched {
		s.sp.dist[v] = math.Inf(1)
		s.sp.prev[v] = None
		s.settled[v] = false
	}
	s.touched = s.touched[:0]
	s.heap.Reset()
	s.relaxed = 0

	s.sp.Source = src
	s.sp.dist[src] = 0
	s.touched = append(s.touched, src)
	s.heap.Push(int(src), 0)
	for {
		item, d, ok := s.heap.Pop()
		if !ok {
			break
		}
		v := NodeID(item)
		s.settled[v] = true
		if bounded {
			if s.target[v] {
				s.target[v] = false
				left--
			}
			if left == 0 {
				break
			}
		}
		// A settled non-source node that may not relay still keeps its
		// distance (it is a valid destination) but must not expand.
		if v != src && transit != nil && !transit(g.nodes[v]) {
			continue
		}
		for _, h := range g.adj[v] {
			if s.settled[h.to] {
				continue
			}
			var w float64
			if weights != nil {
				w = weights[h.edge]
				if math.IsInf(w, 1) {
					continue
				}
			} else {
				var usable bool
				w, usable = weight(g.edges[h.edge])
				if !usable {
					continue
				}
			}
			if w < 0 || math.IsNaN(w) {
				panic(fmt.Sprintf("graph: negative or NaN edge weight %g on edge %d", w, h.edge))
			}
			if nd := d + w; nd < s.sp.dist[h.to] {
				s.relaxed++
				// First improvement from the virgin state marks the node
				// touched; prev stays non-None from then on.
				if s.sp.prev[h.to] == None {
					s.touched = append(s.touched, h.to)
				}
				s.sp.dist[h.to] = nd
				s.sp.prev[h.to] = v
				s.heap.PushOrDecrease(int(h.to), nd)
			}
		}
	}
	// Targets the run never reached are still marked.
	if left > 0 {
		for _, v := range targets {
			s.target[v] = false
		}
	}
	return &s.sp
}
