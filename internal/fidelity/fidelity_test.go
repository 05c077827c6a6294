package fidelity

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

func TestModelValidate(t *testing.T) {
	tests := []struct {
		name string
		m    Model
		ok   bool
	}{
		{"default", DefaultModel(), true},
		{"perfect", Model{W0: 1, Beta: 0}, true},
		{"zero w0", Model{W0: 0, Beta: 1e-5}, false},
		{"w0 above 1", Model{W0: 1.2, Beta: 1e-5}, false},
		{"negative beta", Model{W0: 0.9, Beta: -1}, false},
		{"inf beta", Model{W0: 0.9, Beta: math.Inf(1)}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.m.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestWernerFidelityConversions(t *testing.T) {
	for _, f := range []float64{0.25, 0.5, 0.8, 1} {
		w := FidelityToWerner(f)
		if got := WernerToFidelity(w); math.Abs(got-f) > 1e-12 {
			t.Errorf("round trip %g -> %g -> %g", f, w, got)
		}
	}
	if got := WernerToFidelity(1); got != 1 {
		t.Errorf("perfect Werner fidelity = %g, want 1", got)
	}
	if got := WernerToFidelity(0); got != 0.25 {
		t.Errorf("fully mixed fidelity = %g, want 0.25", got)
	}
}

func TestChannelFidelityComposition(t *testing.T) {
	m := Model{W0: 0.96, Beta: 1e-5}
	// Two 1000 km links: w = (0.96*e^-0.01)^2, F = (1+3w)/4.
	w := m.LinkWerner(1000)
	want := WernerToFidelity(w * w)
	if got := m.ChannelFidelity([]float64{1000, 1000}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ChannelFidelity = %g, want %g", got, want)
	}
	if got := m.ChannelFidelity(nil); got != 0 {
		t.Fatalf("empty channel fidelity = %g, want 0", got)
	}
}

func TestBudgetFor(t *testing.T) {
	if _, ok := BudgetFor(1.5); ok {
		t.Error("fidelity > 1 accepted")
	}
	if b, ok := BudgetFor(0.2); !ok || !math.IsInf(b, 1) {
		t.Errorf("sub-0.25 floor: (%g, %v), want (+Inf, true)", b, ok)
	}
	b, ok := BudgetFor(0.85)
	if !ok {
		t.Fatal("0.85 rejected")
	}
	// A channel is feasible iff sum(LinkBudget) <= budget iff w >= (4F-1)/3.
	m := DefaultModel()
	lengths := []float64{2000, 2000}
	sum := m.LinkBudget(2000) * 2
	feasible := sum <= b
	if got := m.ChannelFidelity(lengths) >= 0.85; got != feasible {
		t.Fatalf("budget test %v disagrees with direct fidelity %g", feasible, m.ChannelFidelity(lengths))
	}
}

// fidelityNet builds two routes from u0 to u2:
//
//	short path through one switch (high rate, high fidelity via 2 links)
//	long path through two switches (3 links, lower fidelity)
//
// plus a direct long fiber (1 link, length-dominated fidelity).
func fidelityNet(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5, 6)
	g.AddUser(0, 0)           // u0
	g.AddSwitch(1000, 0, 4)   // s1
	g.AddUser(2000, 0)        // u2
	g.AddSwitch(500, 800, 4)  // s3
	g.AddSwitch(1500, 800, 4) // s4
	g.MustAddEdge(0, 1, 1000)
	g.MustAddEdge(1, 2, 1000)
	g.MustAddEdge(0, 3, 900)
	g.MustAddEdge(3, 4, 1000)
	g.MustAddEdge(4, 2, 900)
	g.MustAddEdge(0, 2, 12000)
	return g
}

func TestMaxRateChannelUnconstrainedMatchesAlgorithmOne(t *testing.T) {
	g := fidelityNet(t)
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := Router{Params: p.Params, Model: Model{W0: 1, Beta: 0}, MinFidelity: 0}
	got, f, ok := r.MaxRateChannel(g, 0, 2, nil)
	if !ok {
		t.Fatal("no channel")
	}
	want, ok2 := p.MaxRateChannel(0, 2, nil, nil)
	if !ok2 {
		t.Fatal("algorithm 1 found no channel")
	}
	if math.Abs(got.Rate-want.Rate) > 1e-12 {
		t.Fatalf("unconstrained search rate %g != algorithm 1 rate %g", got.Rate, want.Rate)
	}
	if f != 1 {
		t.Fatalf("perfect model fidelity = %g, want 1", f)
	}
}

func TestMaxRateChannelRespectsFloor(t *testing.T) {
	g := fidelityNet(t)
	params := quantum.DefaultParams()
	// Make per-swap fidelity loss harsh so fewer links = higher fidelity.
	m := Model{W0: 0.9, Beta: 1e-6}
	// With no floor the 2-link path wins on rate.
	free := Router{Params: params, Model: m, MinFidelity: 0}
	chFree, _, ok := free.MaxRateChannel(g, 0, 2, nil)
	if !ok || chFree.Links() != 2 {
		t.Fatalf("unconstrained pick = %v links (want 2)", chFree.Links())
	}
	// 2-link fidelity: w=0.81*e^-… ~ F≈0.857; require more than that: only
	// the direct fiber (1 link, w=0.9*e^-0.012) F≈0.917 qualifies.
	tight := Router{Params: params, Model: m, MinFidelity: 0.9}
	ch, f, ok := tight.MaxRateChannel(g, 0, 2, nil)
	if !ok {
		t.Fatal("no channel meets the floor")
	}
	if ch.Links() != 1 {
		t.Fatalf("floor 0.9 pick uses %d links, want the direct fiber", ch.Links())
	}
	if f < 0.9 {
		t.Fatalf("returned fidelity %g below floor", f)
	}
	// An impossible floor yields no channel.
	if _, _, ok := (Router{Params: params, Model: m, MinFidelity: 0.99}).MaxRateChannel(g, 0, 2, nil); ok {
		t.Fatal("channel found above any achievable fidelity")
	}
}

func TestMaxRateChannelLedgerGate(t *testing.T) {
	g := fidelityNet(t)
	params := quantum.DefaultParams()
	r := Router{Params: params, Model: DefaultModel(), MinFidelity: 0.5}
	led := quantum.NewLedger(g)
	first, _, ok := r.MaxRateChannel(g, 0, 2, led)
	if !ok {
		t.Fatal("no first channel")
	}
	if err := led.Reserve(first.Nodes); err != nil {
		t.Fatal(err)
	}
	second, _, ok := r.MaxRateChannel(g, 0, 2, led)
	if !ok {
		t.Fatal("no second channel")
	}
	for _, s := range second.Interior() {
		for _, used := range first.Interior() {
			if s == used && led.Free(s) < 2 {
				t.Fatalf("second channel transits exhausted switch %d", s)
			}
		}
	}
}

func TestSolveFidelityConstrained(t *testing.T) {
	g := fidelityNet(t)
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := Router{Params: p.Params, Model: DefaultModel(), MinFidelity: 0.8}
	sol, err := Solve(context.Background(), p, r)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := r.ValidateSolution(p, sol); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	perChannel, min := r.TreeFidelities(g, sol.Tree)
	if len(perChannel) != len(sol.Tree.Channels) {
		t.Fatalf("%d fidelities for %d channels", len(perChannel), len(sol.Tree.Channels))
	}
	if min < 0.8 {
		t.Fatalf("minimum fidelity %g below floor", min)
	}
}

func TestSolveInfeasibleFloor(t *testing.T) {
	g := fidelityNet(t)
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := Router{Params: p.Params, Model: Model{W0: 0.8, Beta: 1e-4}, MinFidelity: 0.99}
	_, err = Solve(context.Background(), p, r)
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestSolveTightensWithFloor(t *testing.T) {
	// Raising the floor can only lower (or keep) the achieved rate.
	g := fidelityNet(t)
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m := Model{W0: 0.9, Beta: 1e-6}
	prev := math.Inf(1)
	for _, floor := range []float64{0, 0.5, 0.85, 0.9} {
		sol, err := Solve(context.Background(), p, Router{Params: p.Params, Model: m, MinFidelity: floor})
		if err != nil {
			break // floors can become infeasible; that's fine
		}
		if sol.Rate() > prev*(1+1e-9) {
			t.Fatalf("rate rose from %g to %g as the floor tightened to %g", prev, sol.Rate(), floor)
		}
		prev = sol.Rate()
	}
}

// TestQuickFidelitySearchAgainstBruteForce cross-checks the Pareto search
// with exhaustive path enumeration on small random networks.
func TestQuickFidelitySearchAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomFidelityNet(rng)
		params := quantum.DefaultParams()
		m := Model{W0: 0.85 + rng.Float64()*0.14, Beta: rng.Float64() * 1e-4}
		floor := 0.3 + rng.Float64()*0.6
		r := Router{Params: params, Model: m, MinFidelity: floor}
		users := g.Users()
		if len(users) < 2 {
			return true
		}
		src, dst := users[0], users[1]
		got, gotF, ok := r.MaxRateChannel(g, src, dst, nil)
		want, wantOK := bruteBest(g, src, dst, r)
		if ok != wantOK {
			t.Logf("seed %d: ok=%v brute=%v", seed, ok, wantOK)
			return false
		}
		if !ok {
			return true
		}
		if math.Abs(got.Rate-want) > 1e-9*want {
			t.Logf("seed %d: rate %g brute %g", seed, got.Rate, want)
			return false
		}
		return gotF >= floor-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bruteBest enumerates all simple channels and returns the best rate
// meeting the fidelity floor.
func bruteBest(g *graph.Graph, src, dst graph.NodeID, r Router) (float64, bool) {
	best, found := 0.0, false
	visited := map[graph.NodeID]bool{src: true}
	var lengths []float64
	var dfs func(v graph.NodeID)
	dfs = func(v graph.NodeID) {
		if v == dst {
			if r.Model.ChannelFidelity(lengths) >= r.MinFidelity {
				if rate := r.Params.ChannelRate(lengths); rate > best {
					best, found = rate, true
				}
			}
			return
		}
		if v != src {
			n := g.Node(v)
			if n.Kind != graph.KindSwitch || n.Qubits < 2 {
				return
			}
		}
		g.Neighbors(v, func(nb graph.Node, via graph.Edge) bool {
			if visited[nb.ID] {
				return true
			}
			if nb.Kind == graph.KindUser && nb.ID != dst {
				return true
			}
			visited[nb.ID] = true
			lengths = append(lengths, via.Length)
			dfs(nb.ID)
			lengths = lengths[:len(lengths)-1]
			visited[nb.ID] = false
			return true
		})
	}
	dfs(src)
	return best, found
}

// randomFidelityNet builds a small random connected net.
func randomFidelityNet(rng *rand.Rand) *graph.Graph {
	users := 2
	switches := 2 + rng.Intn(4)
	n := users + switches
	g := graph.New(n, 3*n)
	for i := 0; i < users; i++ {
		g.AddUser(rng.Float64()*4000, rng.Float64()*4000)
	}
	for i := 0; i < switches; i++ {
		g.AddSwitch(rng.Float64()*4000, rng.Float64()*4000, 4)
	}
	length := func(a, b graph.NodeID) float64 {
		na, nb := g.Node(a), g.Node(b)
		return math.Max(1, math.Hypot(na.X-nb.X, na.Y-nb.Y))
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a, b := graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)])
		g.MustAddEdge(a, b, length(a, b))
	}
	for i := 0; i < n; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b && !g.HasEdge(a, b) {
			g.MustAddEdge(a, b, length(a, b))
		}
	}
	return g
}

func TestSolveCancelled(t *testing.T) {
	g := fidelityNet(t)
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := Router{Params: p.Params, Model: DefaultModel(), MinFidelity: 0.8}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, p, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// A nil ctx must behave as one that never cancels, as in core.
	if _, err := Solve(nil, p, r); err != nil {
		t.Fatalf("Solve(nil ctx): %v", err)
	}
}
