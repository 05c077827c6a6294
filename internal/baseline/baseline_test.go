package baseline

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

// meshNet builds 4 users and 4 well-connected switches.
func meshNet(t *testing.T, qubits int) *graph.Graph {
	t.Helper()
	g := graph.New(8, 16)
	g.AddUser(0, 0)    // 0
	g.AddUser(3000, 0) // 1
	g.AddUser(0, 3000) // 2
	g.AddUser(3000, 3000)
	sw := []graph.NodeID{
		g.AddSwitch(1000, 1000, qubits),
		g.AddSwitch(2000, 1000, qubits),
		g.AddSwitch(1000, 2000, qubits),
		g.AddSwitch(2000, 2000, qubits),
	}
	users := []graph.NodeID{0, 1, 2, 3}
	for _, u := range users {
		for _, s := range sw {
			un, sn := g.Node(u), g.Node(s)
			g.MustAddEdge(u, s, math.Hypot(un.X-sn.X, un.Y-sn.Y))
		}
	}
	g.MustAddEdge(sw[0], sw[1], 1000)
	g.MustAddEdge(sw[2], sw[3], 1000)
	return g
}

func mustProblem(t *testing.T, g *graph.Graph) *core.Problem {
	t.Helper()
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEQCastChainsConsecutivePairs(t *testing.T) {
	g := meshNet(t, 8)
	p := mustProblem(t, g)
	sol, err := SolveEQCastContext(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("SolveEQCastContext: %v", err)
	}
	if err := p.Validate(sol); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if sol.Algorithm != "eqcast" {
		t.Errorf("Algorithm = %q", sol.Algorithm)
	}
	// The tree must be exactly the chain <u0,u1>, <u1,u2>, <u2,u3>.
	if len(sol.Tree.Channels) != 3 {
		t.Fatalf("%d channels, want 3", len(sol.Tree.Channels))
	}
	for i, ch := range sol.Tree.Channels {
		a, b := ch.Endpoints()
		wantA, wantB := p.Users[i], p.Users[i+1]
		if !(a == wantA && b == wantB || a == wantB && b == wantA) {
			t.Errorf("channel %d joins %d-%d, want %d-%d", i, a, b, wantA, wantB)
		}
	}
}

func TestEQCastInfeasibleOnCapacity(t *testing.T) {
	// Star through a single 2-qubit switch: the chain's second pair has no
	// capacity left and no alternative route.
	g := graph.New(4, 3)
	g.AddUser(0, 0)
	g.AddUser(2, 0)
	g.AddUser(1, 2)
	g.AddSwitch(1, 1, 2)
	for _, u := range []graph.NodeID{0, 1, 2} {
		g.MustAddEdge(u, 3, 1000)
	}
	p := mustProblem(t, g)
	_, err := SolveEQCastContext(context.Background(), p, nil)
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestEQCastNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		g := meshNet(t, 8)
		p := mustProblem(t, g)
		opt, err := core.SolveOptimalContext(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveEQCastContext(context.Background(), p, nil)
		if err != nil {
			continue
		}
		if sol.Rate() > opt.Rate()*(1+1e-9) {
			t.Fatalf("iteration %d: eqcast %g beats optimal %g", i, sol.Rate(), opt.Rate())
		}
		_ = rng
	}
}

func TestNFusionStarShapeAndFactor(t *testing.T) {
	g := meshNet(t, 8)
	p := mustProblem(t, g)
	sol, err := SolveNFusionContext(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("SolveNFusionContext: %v", err)
	}
	if err := p.Validate(sol); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	wantFactor := math.Pow(0.9, float64(len(p.Users)-1))
	if math.Abs(sol.MeasurementFactor-wantFactor) > 1e-12 {
		t.Fatalf("MeasurementFactor = %g, want %g", sol.MeasurementFactor, wantFactor)
	}
	// Star shape: one user appears in every channel.
	counts := map[graph.NodeID]int{}
	for _, ch := range sol.Tree.Channels {
		a, b := ch.Endpoints()
		counts[a]++
		counts[b]++
	}
	hub := graph.NodeID(-1)
	for u, c := range counts {
		if c == len(p.Users)-1 {
			hub = u
		}
	}
	if hub < 0 {
		t.Fatalf("no hub user found; counts %v", counts)
	}
	// Rate includes the fusion factor.
	if !almostRate(sol.Rate(), sol.Tree.Rate()*wantFactor) {
		t.Fatalf("Rate %g != tree %g * factor %g", sol.Rate(), sol.Tree.Rate(), wantFactor)
	}
}

func almostRate(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestNFusionSingleUser(t *testing.T) {
	g := graph.New(1, 0)
	g.AddUser(0, 0)
	p := mustProblem(t, g)
	sol, err := SolveNFusionContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Rate() != 1 {
		t.Fatalf("single-user rate = %g, want 1", sol.Rate())
	}
}

func TestNFusionInfeasible(t *testing.T) {
	g := graph.New(3, 1)
	g.AddUser(0, 0)
	g.AddUser(1, 0)
	g.AddUser(50, 50) // isolated
	g.MustAddEdge(0, 1, 100)
	p := mustProblem(t, g)
	_, err := SolveNFusionContext(context.Background(), p, nil)
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestNFusionPenalizedBelowPairwiseSchemes(t *testing.T) {
	// On the same star network, N-FUSION's extra fusion factor must land it
	// strictly below Algorithm 3's pure-BSM tree.
	g := meshNet(t, 8)
	p := mustProblem(t, g)
	nf, err := SolveNFusionContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	alg3, err := core.SolveConflictFreeContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nf.Rate() >= alg3.Rate() {
		t.Fatalf("n-fusion %g not below alg3 %g", nf.Rate(), alg3.Rate())
	}
}

func TestSolverAdapters(t *testing.T) {
	g := meshNet(t, 8)
	p := mustProblem(t, g)
	for name, solve := range map[string]core.SolveFunc{
		"eqcast":  SolveEQCastContext,
		"nfusion": SolveNFusionContext,
	} {
		sol, err := solve(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Algorithm != name {
			t.Errorf("algorithm %q != solver %q", sol.Algorithm, name)
		}
	}
}

// TestQuickBaselinesValidOrInfeasible: on random nets both baselines either
// produce a validating tree or report infeasibility; they never out-rate
// the sufficient-capacity optimum.
func TestQuickBaselinesValidOrInfeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomBaselineNet(rng)
		p, err := core.AllUsersProblem(g, quantum.DefaultParams())
		if err != nil {
			return false
		}
		boosted := g.Clone()
		boosted.SetAllSwitchQubits(2 * len(p.Users))
		bp, _ := core.AllUsersProblem(boosted, quantum.DefaultParams())
		opt, optErr := core.SolveOptimalContext(context.Background(), bp, nil)
		for _, solve := range []core.SolveFunc{SolveEQCastContext, SolveNFusionContext} {
			sol, err := solve(context.Background(), p, nil)
			if err != nil {
				if !errors.Is(err, core.ErrInfeasible) {
					t.Logf("seed %d: unexpected error %v", seed, err)
					return false
				}
				continue
			}
			if p.Validate(sol) != nil {
				t.Logf("seed %d: invalid baseline tree", seed)
				return false
			}
			if optErr == nil && sol.Rate() > opt.Rate()*(1+1e-9) {
				t.Logf("seed %d: baseline %g beats optimal %g", seed, sol.Rate(), opt.Rate())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randomBaselineNet builds a small random connected net.
func randomBaselineNet(rng *rand.Rand) *graph.Graph {
	users := 2 + rng.Intn(4)
	switches := 2 + rng.Intn(5)
	n := users + switches
	g := graph.New(n, 3*n)
	for i := 0; i < users; i++ {
		g.AddUser(rng.Float64()*5000, rng.Float64()*5000)
	}
	for i := 0; i < switches; i++ {
		g.AddSwitch(rng.Float64()*5000, rng.Float64()*5000, 2+2*rng.Intn(3))
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
