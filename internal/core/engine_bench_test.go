package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/unionfind"
)

// benchProblem draws one paper-sized network (10 users, 100 switches) the
// way the figure sweeps do, sized like topology.Default but without the
// import cycle a topology dependency would create here.
func benchEngineProblem(b *testing.B) *Problem {
	b.Helper()
	g := randomNetB(rand.New(rand.NewSource(1)), 10, 100, 12)
	p, err := AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// randomNetB is randomNet for benchmarks (testing.B instead of testing.T).
func randomNetB(rng *rand.Rand, users, switches, qubits int) *graph.Graph {
	n := users + switches
	g := graph.New(n, 2*n)
	for i := 0; i < users; i++ {
		g.AddUser(rng.Float64()*5000, rng.Float64()*5000)
	}
	for i := 0; i < switches; i++ {
		g.AddSwitch(rng.Float64()*5000, rng.Float64()*5000, qubits)
	}
	length := func(a, b graph.NodeID) float64 {
		na, nb := g.Node(a), g.Node(b)
		dx, dy := na.X-nb.X, na.Y-nb.Y
		l := dx*dx + dy*dy
		if l < 1 {
			return 1
		}
		return l
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a := graph.NodeID(perm[i])
		c := graph.NodeID(perm[rng.Intn(i)])
		g.MustAddEdge(a, c, length(a, c))
	}
	for i := 0; i < 3*n; i++ {
		a := graph.NodeID(rng.Intn(n))
		c := graph.NodeID(rng.Intn(n))
		if a == c || g.HasEdge(a, c) {
			continue
		}
		g.MustAddEdge(a, c, length(a, c))
	}
	return g
}

// BenchmarkChannelSearch times one single-source Algorithm 1 run plus
// channel extraction to every destination user — the kernel every routing
// scheme reduces to.
//
// "legacy" reconstructs the pre-engine implementation (fresh Dijkstra
// arrays and heap per search, closure-evaluated weights, append-grown
// paths); "pooled" is the production kernel (per-problem weight slice,
// reused scratch). The gap between the two is the PR's headline number,
// tracked in BENCH_kernel.json.
func BenchmarkChannelSearch(b *testing.B) {
	p := benchEngineProblem(b)
	src := p.Users[0]

	b.Run("legacy", func(b *testing.B) {
		weight := func(e graph.Edge) (float64, bool) {
			return p.Params.EdgeWeight(e.Length), true
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := p.Graph.Dijkstra(src, weight, staticTransit)
			found := 0
			for _, u := range p.Users {
				if u == src {
					continue
				}
				if path, ok := sp.PathTo(u); ok {
					if _, err := quantum.NewChannel(p.Graph, path, p.Params); err != nil {
						b.Fatal(err)
					}
					found++
				}
			}
			if found == 0 {
				b.Fatal("no channels found")
			}
		}
	})

	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc := p.acquireCtx(nil)
			sp := p.channelSearch(sc, src, nil, nil)
			found := 0
			for _, u := range p.Users {
				if u == src {
					continue
				}
				if _, ok := p.channelFromSearch(sc, sp, u, nil); ok {
					found++
				}
			}
			p.releaseCtx(sc)
			if found == 0 {
				b.Fatal("no channels found")
			}
		}
	})

	// The bare search, no channel extraction: the zero-allocation floor.
	b.Run("kernel", func(b *testing.B) {
		sc := p.acquireCtx(nil)
		defer p.releaseCtx(sc)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := p.channelSearch(sc, src, nil, nil)
			if _, ok := sp.DistTo(p.Users[1]); !ok {
				b.Fatal("user 1 unreachable")
			}
		}
	})
}

// BenchmarkConnectUnions times the union-joining loop both heuristics
// reduce to, in its two production shapes — Algorithm 3's phase 2
// (unions pre-seeded by the phase-1 replay) and Algorithm 4 (the frontier
// grown from one start user) — with the incremental candidate cache
// ("lazy") against the pre-incremental per-round sweep ("exhaustive").
// The lazy/exhaustive gap is this PR's headline number, tracked in
// BENCH_kernel.json.
func BenchmarkConnectUnions(b *testing.B) {
	p := benchEngineProblem(b)
	ctx := context.Background()

	// The Algorithm 3 shape needs capacity pressure or phase 2 is a no-op:
	// at the default 12 qubits the replayed Algorithm 2 tree fits whole. Two
	// qubits per switch leaves 6 unions after phase 1 on this seed while
	// staying feasible.
	gTight := randomNetB(rand.New(rand.NewSource(1)), 10, 100, 2)
	pTight, err := AllUsersProblem(gTight, quantum.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	base, err := SolveOptimalContext(context.Background(), pTight, nil)
	if err != nil {
		b.Fatal(err)
	}
	idx := make(map[graph.NodeID]int, len(pTight.Users))
	for i, u := range pTight.Users {
		idx[u] = i
	}
	cands := make([]candidate, 0, len(base.Tree.Channels))
	for _, ch := range base.Tree.Channels {
		a, bb := ch.Endpoints()
		cands = append(cands, candidate{ch: ch, ia: idx[a], ib: idx[bb]})
	}
	sortByRateDesc(cands)
	// Phase-1 state, rebuilt per iteration: the Algorithm 2 tree replayed in
	// descending-rate order under a fresh ledger, skipping conflicts.
	phase1 := func() (*quantum.Ledger, *unionfind.UnionFind, quantum.Tree) {
		led := quantum.NewLedger(pTight.Graph)
		uf := unionfind.New(len(pTight.Users))
		tree := quantum.Tree{}
		for _, c := range cands {
			if uf.Connected(c.ia, c.ib) || !led.CanCarry(c.ch.Nodes) {
				continue
			}
			if err := led.Reserve(c.ch.Nodes); err != nil {
				b.Fatal(err)
			}
			uf.Union(c.ia, c.ib)
			tree.Channels = append(tree.Channels, c.ch)
		}
		return led, uf, tree
	}
	if _, uf, _ := phase1(); uf.Sets() <= 1 {
		b.Fatal("phase 1 left nothing for phase 2 to do; tighten the network")
	}

	b.Run("alg3phase2/lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			led, uf, tree := phase1()
			if err := pTight.connectUnions(ctx, led, uf, &tree, "bench", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alg3phase2/exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			led, uf, tree := phase1()
			if err := pTight.connectUnionsExhaustive(ctx, led, uf, &tree, "bench", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alg4/lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solvePrimFrom(ctx, p, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alg4/exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			led := quantum.NewLedger(p.Graph)
			inTree := make([]bool, len(p.Users))
			inTree[0] = true
			tree := quantum.Tree{}
			for committed := 0; committed < len(p.Users)-1; committed++ {
				best, ok, err := p.bestFrontierChannelExhaustive(ctx, led, inTree, nil)
				if err != nil || !ok {
					b.Fatalf("exhaustive prim: ok=%v err=%v", ok, err)
				}
				if err := led.Reserve(best.ch.Nodes); err != nil {
					b.Fatal(err)
				}
				inTree[best.ib] = true
				tree.Channels = append(tree.Channels, best.ch)
			}
		}
	})
}

// BenchmarkAllPairsChannels times Algorithm 2 step 1 sequentially and with
// the parallel fan-out.
func BenchmarkAllPairsChannels(b *testing.B) {
	p := benchEngineProblem(b)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cands, err := p.allPairsChannelsParallel(nil, 1, nil); err != nil || len(cands) == 0 {
				b.Fatal("no candidates")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cands, err := p.allPairsChannels(nil, nil); err != nil || len(cands) == 0 {
				b.Fatal("no candidates")
			}
		}
	})
}
