package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/unionfind"
)

// sameTreeDiff fails the test unless the two trees committed exactly the same
// channels (node sequences and rates), in the same order.
func sameTreeDiff(t *testing.T, label string, lazy, exhaustive quantum.Tree) {
	t.Helper()
	if len(lazy.Channels) != len(exhaustive.Channels) {
		t.Fatalf("%s: lazy committed %d channels, exhaustive %d",
			label, len(lazy.Channels), len(exhaustive.Channels))
	}
	for k := range lazy.Channels {
		lc, ec := lazy.Channels[k], exhaustive.Channels[k]
		if lc.Rate != ec.Rate {
			t.Fatalf("%s: channel %d rate differs: lazy %v, exhaustive %v", label, k, lc.Rate, ec.Rate)
		}
		if len(lc.Nodes) != len(ec.Nodes) {
			t.Fatalf("%s: channel %d path length differs: lazy %v, exhaustive %v", label, k, lc.Nodes, ec.Nodes)
		}
		for x := range lc.Nodes {
			if lc.Nodes[x] != ec.Nodes[x] {
				t.Fatalf("%s: channel %d path differs: lazy %v, exhaustive %v", label, k, lc.Nodes, ec.Nodes)
			}
		}
	}
}

// TestConnectUnionsLazyMatchesExhaustive is the differential proof of the
// incremental cross-union search: on randomized tight-capacity networks the
// lazy candidate cache must commit a tree bit-identical to the retained
// exhaustive per-round sweep, starting from singleton unions (the worst
// case: every user group must be joined under live capacity).
func TestConnectUnionsLazyMatchesExhaustive(t *testing.T) {
	const networks = 60
	rng := rand.New(rand.NewSource(7))
	solved, infeasible := 0, 0
	for n := 0; n < networks; n++ {
		users := 4 + rng.Intn(7)
		switches := 10 + rng.Intn(25)
		qubits := 2 + 2*rng.Intn(2) // 2 or 4: tight, so closures actually happen
		g := randomNet(rng, users, switches, qubits)
		p := mustProblem(t, g, quantum.DefaultParams())

		var lazyStats, exStats SolveStats
		lazyTree, lazyErr := func() (quantum.Tree, error) {
			tree := quantum.Tree{}
			err := p.connectUnions(context.Background(), quantum.NewLedger(g),
				unionfind.New(users), &tree, "diff-lazy", &lazyStats)
			return tree, err
		}()
		exTree, exErr := func() (quantum.Tree, error) {
			tree := quantum.Tree{}
			err := p.connectUnionsExhaustive(context.Background(), quantum.NewLedger(g),
				unionfind.New(users), &tree, "diff-exhaustive", &exStats)
			return tree, err
		}()

		if (lazyErr == nil) != (exErr == nil) {
			t.Fatalf("net %d: feasibility differs: lazy err %v, exhaustive err %v", n, lazyErr, exErr)
		}
		if lazyErr != nil {
			infeasible++
			continue
		}
		solved++
		sameTreeDiff(t, fmt.Sprintf("net %d", n), lazyTree, exTree)
		if lazyStats.DijkstraRuns > exStats.DijkstraRuns {
			t.Errorf("net %d: lazy ran more searches (%d) than exhaustive (%d)",
				n, lazyStats.DijkstraRuns, exStats.DijkstraRuns)
		}
	}
	if solved < networks/2 {
		t.Fatalf("differential coverage too thin: only %d/%d networks solved (%d infeasible)",
			solved, networks, infeasible)
	}
}

// TestConflictFreeLazyMatchesExhaustive runs the full Algorithm 3 shape:
// phase 1 replays the Algorithm 2 tree under the ledger, then the lazy and
// exhaustive phase-2 loops must reconnect the leftover unions identically.
func TestConflictFreeLazyMatchesExhaustive(t *testing.T) {
	const networks = 50
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < networks; n++ {
		users := 4 + rng.Intn(7)
		g := randomNet(rng, users, 12+rng.Intn(20), 2+2*rng.Intn(2))
		p := mustProblem(t, g, quantum.DefaultParams())
		base, err := SolveOptimalContext(context.Background(), p, nil)
		if err != nil {
			continue // users disconnected: nothing to compare
		}

		phase1 := func() (*quantum.Ledger, *unionfind.UnionFind, quantum.Tree) {
			idx := make(map[graph.NodeID]int, users)
			for i, u := range p.Users {
				idx[u] = i
			}
			cands := make([]candidate, 0, len(base.Tree.Channels))
			for _, ch := range base.Tree.Channels {
				a, b := ch.Endpoints()
				cands = append(cands, candidate{ch: ch, ia: idx[a], ib: idx[b]})
			}
			sortByRateDesc(cands)
			led := quantum.NewLedger(g)
			uf := unionfind.New(users)
			tree := quantum.Tree{}
			for _, c := range cands {
				if uf.Connected(c.ia, c.ib) || !led.CanCarry(c.ch.Nodes) {
					continue
				}
				if err := led.Reserve(c.ch.Nodes); err != nil {
					t.Fatalf("net %d: phase-1 reserve: %v", n, err)
				}
				uf.Union(c.ia, c.ib)
				tree.Channels = append(tree.Channels, c.ch)
			}
			return led, uf, tree
		}

		led, uf, lazyTree := phase1()
		lazyErr := p.connectUnions(context.Background(), led, uf, &lazyTree, "alg3-lazy", nil)
		led, uf, exTree := phase1()
		exErr := p.connectUnionsExhaustive(context.Background(), led, uf, &exTree, "alg3-exhaustive", nil)

		if (lazyErr == nil) != (exErr == nil) {
			t.Fatalf("net %d: feasibility differs: lazy err %v, exhaustive err %v", n, lazyErr, exErr)
		}
		if lazyErr != nil {
			continue
		}
		sameTreeDiff(t, fmt.Sprintf("net %d", n), lazyTree, exTree)
	}
}

// solvePrimExhaustive is Algorithm 4 driven by the exhaustive frontier
// sweep, the pre-incremental behavior the lazy path must reproduce.
func solvePrimExhaustive(t *testing.T, p *Problem, start int, st *SolveStats) (quantum.Tree, error) {
	t.Helper()
	led := quantum.NewLedger(p.Graph)
	inTree := make([]bool, len(p.Users))
	inTree[start] = true
	tree := quantum.Tree{}
	for committed := 0; committed < len(p.Users)-1; committed++ {
		best, ok, err := p.bestFrontierChannelExhaustive(context.Background(), led, inTree, st)
		if err != nil {
			return quantum.Tree{}, err
		}
		if !ok {
			return quantum.Tree{}, ErrInfeasible
		}
		if err := led.Reserve(best.ch.Nodes); err != nil {
			t.Fatalf("exhaustive prim reserve: %v", err)
		}
		inTree[best.ib] = true
		tree.Channels = append(tree.Channels, best.ch)
	}
	return tree, nil
}

// TestPrimLazyMatchesExhaustive differentially checks the incremental
// frontier search: for every starting user of randomized tight networks,
// Algorithm 4's lazy loop must commit the exact channels of the exhaustive
// per-round sweep.
func TestPrimLazyMatchesExhaustive(t *testing.T) {
	const networks = 50
	rng := rand.New(rand.NewSource(23))
	var lazyTotal, exTotal int64
	for n := 0; n < networks; n++ {
		users := 4 + rng.Intn(6)
		g := randomNet(rng, users, 10+rng.Intn(20), 2+2*rng.Intn(2))
		p := mustProblem(t, g, quantum.DefaultParams())
		for start := 0; start < users; start++ {
			var lazyStats, exStats SolveStats
			sol, lazyErr := solvePrimFrom(context.Background(), p, start, &lazyStats)
			exTree, exErr := solvePrimExhaustive(t, p, start, &exStats)
			if (lazyErr == nil) != (exErr == nil) {
				t.Fatalf("net %d start %d: feasibility differs: lazy err %v, exhaustive err %v",
					n, start, lazyErr, exErr)
			}
			if lazyErr != nil {
				continue
			}
			sameTreeDiff(t, fmt.Sprintf("net %d start %d", n, start), sol.Tree, exTree)
			// Per-instance the lazy path never searches more; tiny nets can
			// tie (4 users: both do 6 runs), so strict savings are asserted
			// in aggregate below.
			if lazyStats.DijkstraRuns > exStats.DijkstraRuns {
				t.Errorf("net %d start %d: lazy searches %d exceed exhaustive %d",
					n, start, lazyStats.DijkstraRuns, exStats.DijkstraRuns)
			}
			lazyTotal += lazyStats.DijkstraRuns
			exTotal += exStats.DijkstraRuns
		}
	}
	if lazyTotal >= exTotal {
		t.Errorf("aggregate lazy searches %d not below exhaustive %d", lazyTotal, exTotal)
	}
}

// TestIncrementalStatsCounters checks the new SolveStats plumbing: solves
// through the lazy layer must report cache hits for every committed channel,
// searches saved relative to the exhaustive sweep, and the counters must
// survive Merge/Snapshot/String.
func TestIncrementalStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomNet(rng, 8, 30, 4)
	p := mustProblem(t, g, quantum.DefaultParams())
	var st SolveStats
	sol, err := SolvePrimContext(context.Background(), p, &SolveOptions{Stats: &st})
	if err != nil {
		t.Fatalf("SolvePrimContext: %v", err)
	}
	committed := int64(len(sol.Tree.Channels))
	if st.CacheHits != committed {
		t.Errorf("CacheHits = %d, want one per committed channel (%d)", st.CacheHits, committed)
	}
	if st.SearchesSaved <= 0 {
		t.Errorf("SearchesSaved = %d, want > 0 on an 8-user Prim solve", st.SearchesSaved)
	}
	exhaustiveEquivalent := st.DijkstraRuns + st.SearchesSaved
	want := int64(len(p.Users)-1) * int64(len(p.Users)) / 2
	if exhaustiveEquivalent != want {
		t.Errorf("DijkstraRuns+SearchesSaved = %d, want the exhaustive sweep's %d", exhaustiveEquivalent, want)
	}

	var merged SolveStats
	merged.Merge(&st)
	if merged.CacheHits != st.CacheHits || merged.CacheInvalidations != st.CacheInvalidations ||
		merged.SearchesSaved != st.SearchesSaved {
		t.Errorf("Merge dropped cache counters: %+v vs %+v", merged, st)
	}
	snap := st.Snapshot()
	if snap.CacheHits != st.CacheHits || snap.SearchesSaved != st.SearchesSaved {
		t.Errorf("Snapshot dropped cache counters: %+v vs %+v", snap, st)
	}
	for _, want := range []string{"cache=", "saved="} {
		if s := snap.String(); !containsSub(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestCandCacheRebuildsAfterRelease covers the generation-change path: a
// Release that reopens a switch between connectUnions rounds must not leave
// the cache serving stale candidates. ReconnectUnions is driven manually
// with a ledger the test mutates mid-flight via the exported API.
func TestCandCacheRebuildsAfterRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomNet(rng, 6, 20, 2)
	p := mustProblem(t, g, quantum.DefaultParams())

	led := quantum.NewLedger(g)
	uf := unionfind.New(6)
	cache, err := p.newCandCache(context.Background(), led, crossUnionTargets{uf: uf}, nil)
	if err != nil {
		t.Fatalf("newCandCache: %v", err)
	}
	cand, ok, err := cache.best(context.Background(), nil)
	if err != nil || !ok {
		t.Fatalf("first best: ok=%v err=%v", ok, err)
	}
	if err := led.Reserve(cand.ch.Nodes); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	uf.Union(cand.ia, cand.ib)
	// Re-seed the consumed source, as the production loops do after a commit.
	if err := cache.add(context.Background(), cand.ia, nil); err != nil {
		t.Fatalf("add: %v", err)
	}

	// Undo the reservation: with 2-qubit switches every interior switch
	// reopens, bumping the ledger generation and invalidating all epochs.
	led.Release(cand.ch.Nodes)
	if len(cand.ch.Nodes) > 2 {
		if _, ok := led.ClosedSince(quantum.Epoch{}); ok {
			t.Fatal("Release through a closure did not change the ledger generation")
		}
	}

	// The cache must rebuild and still agree with a from-scratch exhaustive
	// sweep under the current (restored) ledger and merged unions.
	got, ok, err := cache.best(context.Background(), nil)
	if err != nil || !ok {
		t.Fatalf("post-release best: ok=%v err=%v", ok, err)
	}
	want, ok, err := p.bestCrossUnionChannelExhaustive(context.Background(), led, uf, nil)
	if err != nil || !ok {
		t.Fatalf("exhaustive reference: ok=%v err=%v", ok, err)
	}
	if got.ch.Rate != want.ch.Rate || got.ia != want.ia || got.ib != want.ib {
		t.Fatalf("post-release candidate differs: lazy (%d,%d,%v), exhaustive (%d,%d,%v)",
			got.ia, got.ib, got.ch.Rate, want.ia, want.ib, want.ch.Rate)
	}
}
