package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// assertSameSearch requires two runs to agree exactly: distances (bitwise),
// predecessors and reconstructed paths.
func assertSameSearch(t *testing.T, g *Graph, want, got *ShortestPaths) {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		id := NodeID(v)
		wd, wok := want.DistTo(id)
		gd, gok := got.DistTo(id)
		if wok != gok || (wok && math.Float64bits(wd) != math.Float64bits(gd)) {
			t.Fatalf("node %d: dist (%g, %v) vs (%g, %v)", v, wd, wok, gd, gok)
		}
		if want.Prev(id) != got.Prev(id) {
			t.Fatalf("node %d: prev %d vs %d", v, want.Prev(id), got.Prev(id))
		}
		wp, wok := want.PathTo(id)
		gp, gok := got.PathTo(id)
		if wok != gok || len(wp) != len(gp) {
			t.Fatalf("node %d: path %v (%v) vs %v (%v)", v, wp, wok, gp, gok)
		}
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("node %d: path differs at hop %d: %v vs %v", v, i, wp, gp)
			}
		}
	}
}

// TestSearcherMatchesDijkstra reuses one Searcher across every source of
// random topologies and requires each run to match a fresh Dijkstra —
// the scratch-reuse reset must leave no state behind.
func TestSearcherMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	transit := func(n Node) bool { return n.Kind == KindSwitch && n.Qubits >= 2 }
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 3+rng.Intn(30))
		s := NewSearcher(g)
		for src := 0; src < g.NumNodes(); src++ {
			want := g.Dijkstra(NodeID(src), LengthWeight, transit)
			got := s.Search(NodeID(src), LengthWeight, transit)
			assertSameSearch(t, g, want, got)
		}
	}
}

// TestSearchWeightsMatchesClosure is the precomputed-weight property test:
// on random topologies, SearchWeights with a weight slice must match Search
// with the equivalent closure bit-for-bit, including edges marked Unusable
// versus a closure returning ok=false.
func TestSearchWeightsMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 3+rng.Intn(30))
		weights := make([]float64, g.NumEdges())
		for e := range weights {
			if rng.Float64() < 0.1 {
				weights[e] = Unusable
			} else {
				// An affine transform of the length, like the MUERP metric.
				weights[e] = 1e-4*g.Edge(EdgeID(e)).Length + 0.105
			}
		}
		closure := func(e Edge) (float64, bool) {
			w := weights[e.ID]
			return w, !math.IsInf(w, 1)
		}
		s := NewSearcher(g)
		for src := 0; src < g.NumNodes(); src++ {
			want := g.Dijkstra(NodeID(src), closure, nil)
			got := s.SearchWeights(NodeID(src), weights, nil)
			assertSameSearch(t, g, want, got)
		}
	}
}

// TestSearcherResultAliasing documents the contract: a Searcher's result is
// overwritten by its next run, while Dijkstra results are independent.
func TestSearcherResultAliasing(t *testing.T) {
	g := New(3, 2)
	u0 := g.AddUser(0, 0)
	s1 := g.AddSwitch(1, 0, 2)
	u1 := g.AddUser(2, 0)
	g.MustAddEdge(u0, s1, 1)
	g.MustAddEdge(s1, u1, 1)

	s := NewSearcher(g)
	first := s.Search(u0, LengthWeight, nil)
	if d, _ := first.DistTo(u1); d != 2 {
		t.Fatalf("dist u0->u1 = %g, want 2", d)
	}
	second := s.Search(u1, LengthWeight, nil)
	if first != second {
		t.Fatal("Searcher results should alias the same buffers")
	}
	if first.Source != u1 {
		t.Fatalf("aliased result source = %d, want %d", first.Source, u1)
	}
}

func TestSearchWeightsLengthMismatchPanics(t *testing.T) {
	g := New(2, 1)
	a := g.AddUser(0, 0)
	b := g.AddUser(1, 0)
	g.MustAddEdge(a, b, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("SearchWeights with short weight slice did not panic")
		}
	}()
	NewSearcher(g).SearchWeights(a, []float64{}, nil)
}

func TestAppendPathTo(t *testing.T) {
	g := New(4, 3)
	u0 := g.AddUser(0, 0)
	s1 := g.AddSwitch(1, 0, 2)
	s2 := g.AddSwitch(2, 0, 2)
	u1 := g.AddUser(3, 0)
	g.MustAddEdge(u0, s1, 1)
	g.MustAddEdge(s1, s2, 1)
	g.MustAddEdge(s2, u1, 1)

	sp := g.Dijkstra(u0, LengthWeight, nil)
	buf := make([]NodeID, 0, 16)
	path, ok := sp.AppendPathTo(buf, u1)
	if !ok {
		t.Fatal("u1 unreachable")
	}
	want := []NodeID{u0, s1, s2, u1}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
	if &path[0] != &buf[:1][0] {
		t.Fatal("AppendPathTo with spare capacity reallocated the buffer")
	}

	// Reuse: truncate and reconstruct a different path with the same buffer.
	path2, ok := sp.AppendPathTo(path[:0], s2)
	if !ok || len(path2) != 3 || path2[2] != s2 {
		t.Fatalf("reused buffer path = %v (ok=%v), want [%d %d %d]", path2, ok, u0, s1, s2)
	}

	// A non-empty prefix must be preserved.
	prefix := []NodeID{99}
	out, ok := sp.AppendPathTo(prefix, u1)
	if !ok || out[0] != 99 || len(out) != 5 {
		t.Fatalf("prefix not preserved: %v", out)
	}

	// Unreachable destinations leave the buffer unchanged.
	g2 := New(2, 0)
	a := g2.AddUser(0, 0)
	g2.AddUser(1, 0)
	sp2 := g2.Dijkstra(a, LengthWeight, nil)
	out, ok = sp2.AppendPathTo(prefix, 1)
	if ok || len(out) != 1 {
		t.Fatalf("unreachable AppendPathTo = (%v, %v), want prefix unchanged", out, ok)
	}
}

// TestSearchWeightsToMatchesFull is the target-bounded property test: on
// random small graphs whose edge lengths come from a three-value set (so
// equal-distance ties are everywhere), a SearchWeightsTo run must give every
// target the full SearchWeights run's distance, predecessor and path. One
// bounded Searcher serves every run, so an early stop must also leave no
// state behind for the next.
func TestSearchWeightsToMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	transit := func(n Node) bool { return n.Kind == KindSwitch && n.Qubits >= 2 }
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(14)
		g := New(n, 2*n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				g.AddUser(0, 0)
			} else {
				g.AddSwitch(0, 0, 1+rng.Intn(3))
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.MustAddEdge(NodeID(i), NodeID(j), float64(1+rng.Intn(3)))
				}
			}
		}
		weights := make([]float64, g.NumEdges())
		for e := range weights {
			weights[e] = g.Edge(EdgeID(e)).Length
			if rng.Float64() < 0.1 {
				weights[e] = Unusable
			}
		}
		full, bounded := NewSearcher(g), NewSearcher(g)
		for src := 0; src < n; src++ {
			var targets []NodeID
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.3 {
					targets = append(targets, NodeID(v))
				}
			}
			if len(targets) > 0 && rng.Intn(4) == 0 {
				targets = append(targets, targets[0]) // duplicates count once
			}
			for _, tr := range []TransitFunc{nil, transit} {
				want := full.SearchWeights(NodeID(src), weights, tr)
				got := bounded.SearchWeightsTo(NodeID(src), weights, tr, targets)
				for _, v := range targets {
					wd, wok := want.DistTo(v)
					gd, gok := got.DistTo(v)
					if wok != gok || math.Float64bits(wd) != math.Float64bits(gd) {
						t.Fatalf("trial %d src %d target %d: dist (%g, %v) vs full (%g, %v)", trial, src, v, gd, gok, wd, wok)
					}
					if want.Prev(v) != got.Prev(v) {
						t.Fatalf("trial %d src %d target %d: prev %d vs full %d", trial, src, v, got.Prev(v), want.Prev(v))
					}
					wp, wok := want.AppendPathTo(nil, v)
					gp, gok := got.AppendPathTo(nil, v)
					if wok != gok || !slices.Equal(wp, gp) {
						t.Fatalf("trial %d src %d target %d: path %v (%v) vs full %v (%v)", trial, src, v, gp, gok, wp, wok)
					}
				}
			}
		}
	}
}
