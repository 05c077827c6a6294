package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// qubitLoad returns, per switch, the qubits a tree consumes (2 per
// transiting channel).
func qubitLoad(t quantum.Tree) map[graph.NodeID]int {
	load := make(map[graph.NodeID]int)
	for _, c := range t.Channels {
		for _, s := range c.Interior() {
			load[s] += 2
		}
	}
	return load
}

func TestBuildGreedyTreeMatchesPrim(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		g := randomNet(rng, 3+rng.Intn(3), 3+rng.Intn(4), 4)
		p := mustProblem(t, g, quantum.DefaultParams())
		led := quantum.NewLedger(g)
		tree, err := BuildGreedyTree(context.Background(), p, led, nil)
		prim, primErr := solvePrimFrom(context.Background(), p, 0, nil)
		if (err == nil) != (primErr == nil) {
			t.Fatalf("net %d: BuildGreedyTree err=%v, prim err=%v", i, err, primErr)
		}
		if err != nil {
			continue
		}
		if !rateClose(tree.Rate(), prim.Tree.Rate()) {
			t.Fatalf("net %d: rate %g != prim-from-0 rate %g", i, tree.Rate(), prim.Tree.Rate())
		}
		// Reservations remain charged: used qubits == tree load.
		want := 0
		for _, q := range qubitLoad(tree) {
			want += q
		}
		if got := led.UsedQubits(); got != want {
			t.Fatalf("net %d: ledger holds %d qubits, tree loads %d", i, got, want)
		}
		// ReleaseTree restores the ledger exactly.
		ReleaseTree(led, tree)
		if got := led.UsedQubits(); got != 0 {
			t.Fatalf("net %d: %d qubits leaked after release", i, got)
		}
	}
}

func TestBuildGreedyTreeRollsBackOnInfeasibility(t *testing.T) {
	// u0 - s - u1 routable, u2 isolated: the build commits one channel,
	// then dead-ends and must refund it.
	g := quantumGraphWithIsolatedUser(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	led := quantum.NewLedger(g)
	_, err := BuildGreedyTree(context.Background(), p, led, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
	if got := led.UsedQubits(); got != 0 {
		t.Fatalf("%d qubits leaked after failed build", got)
	}
	// The committed channel's reserve closed switch 3 and the rollback
	// reopened it: the budgets are back, the closure generation is not.
	want := quantum.LedgerState{Free: []int{0, 0, 0, 2}, Gen: 1}
	if got := led.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger after rollback = %+v, want %+v", got, want)
	}
}

// TestGreedyAndPrimErrorTexts pins the error texts both callers of the
// growth loop report — the CLIs print them and HTTP bodies carry them — for
// a dead end and for a cancelled context.
func TestGreedyAndPrimErrorTexts(t *testing.T) {
	p := mustProblem(t, quantumGraphWithIsolatedUser(t), quantum.DefaultParams())
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		ctx  context.Context
		prim bool
		want string
	}{
		{context.Background(), false, "core: no feasible entanglement tree exists: 1 users unreachable under shared capacity"},
		{context.Background(), true, "core: no feasible entanglement tree exists: 1 users unreachable under switch capacity (algorithm 4)"},
		{cancelled, false, "core: BuildGreedyTree: context canceled"},
		{cancelled, true, "algorithm 4: context canceled"},
	} {
		var err error
		if tc.prim {
			_, err = SolvePrimContext(tc.ctx, p, nil)
		} else {
			_, err = BuildGreedyTree(tc.ctx, p, quantum.NewLedger(p.Graph), nil)
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("prim=%v: error %v, want %q", tc.prim, err, tc.want)
		}
	}
}

func quantumGraphWithIsolatedUser(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4, 2)
	g.AddUser(0, 0)
	g.AddUser(2000, 0)
	g.AddUser(9000, 9000)
	g.AddSwitch(1000, 0, 2)
	g.MustAddEdge(0, 3, 1000)
	g.MustAddEdge(3, 1, 1000)
	return g
}

func TestBuildGreedyTreeSharedLedger(t *testing.T) {
	// Two consecutive builds against one ledger: the second sees only
	// residual capacity.
	g := bottleneckNet(t, 2)
	p := mustProblem(t, g, quantum.DefaultParams())
	led := quantum.NewLedger(g)
	first, err := BuildGreedyTree(context.Background(), p, led, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The central switch is exhausted by the first tree (or the detour
	// absorbed it) — a second identical build must still respect capacity.
	second, err := BuildGreedyTree(context.Background(), p, led, nil)
	if err == nil {
		load := map[int64]int{}
		for _, tr := range []quantum.Tree{first, second} {
			for s, q := range qubitLoad(tr) {
				load[int64(s)] += q
			}
		}
		for s, q := range load {
			if q > g.Node(graph.NodeID(s)).Qubits {
				t.Fatalf("switch %d jointly loaded %d > %d", s, q, g.Node(graph.NodeID(s)).Qubits)
			}
		}
	}
}

func TestBuildGreedyTreeNilLedger(t *testing.T) {
	g := fourUserNet(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	if _, err := BuildGreedyTree(context.Background(), p, nil, nil); err == nil {
		t.Fatal("nil ledger accepted")
	}
}
