package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// fourUserNet builds a connected net of 4 users and 3 well-provisioned
// switches.
func fourUserNet(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(7, 10)
	g.AddUser(0, 0)        // u0
	g.AddUser(100, 0)      // u1
	g.AddUser(0, 100)      // u2
	g.AddUser(100, 100)    // u3
	g.AddSwitch(50, 0, 16) // s4
	g.AddSwitch(0, 50, 16) // s5
	g.AddSwitch(50, 50, 16)
	g.MustAddEdge(0, 4, 500)
	g.MustAddEdge(4, 1, 500)
	g.MustAddEdge(0, 5, 600)
	g.MustAddEdge(5, 2, 600)
	g.MustAddEdge(1, 6, 700)
	g.MustAddEdge(6, 3, 700)
	g.MustAddEdge(2, 6, 800)
	return g
}

func TestSolveOptimalBasic(t *testing.T) {
	g := fourUserNet(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	sol, err := SolveOptimalContext(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("SolveOptimalContext: %v", err)
	}
	if got := len(sol.Tree.Channels); got != len(p.Users)-1 {
		t.Fatalf("tree has %d channels, want %d", got, len(p.Users)-1)
	}
	if err := p.Validate(sol); err != nil {
		t.Fatalf("solution invalid: %v", err)
	}
	if sol.Algorithm != "alg2" {
		t.Errorf("Algorithm = %q, want alg2", sol.Algorithm)
	}
	if sol.Rate() <= 0 || sol.Rate() > 1 {
		t.Errorf("Rate = %g outside (0,1]", sol.Rate())
	}
}

func TestSolveOptimalInfeasibleWhenDisconnected(t *testing.T) {
	g := graph.New(3, 1)
	g.AddUser(0, 0)
	g.AddUser(1, 0)
	g.AddUser(50, 50) // unreachable
	g.MustAddEdge(0, 1, 100)
	p := mustProblem(t, g, quantum.DefaultParams())
	_, err := SolveOptimalContext(context.Background(), p, nil)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestSolveOptimalSingleUser(t *testing.T) {
	g := graph.New(1, 0)
	g.AddUser(0, 0)
	p := mustProblem(t, g, quantum.DefaultParams())
	sol, err := SolveOptimalContext(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("SolveOptimalContext single user: %v", err)
	}
	if len(sol.Tree.Channels) != 0 || sol.Rate() != 1 {
		t.Fatalf("single-user solution = %d channels rate %g, want empty rate 1", len(sol.Tree.Channels), sol.Rate())
	}
}

func TestSolveOptimalTwoUsersPicksBestChannel(t *testing.T) {
	g := graph.New(3, 3)
	g.AddUser(0, 0)
	g.AddSwitch(1, 0, 8)
	g.AddUser(2, 0)
	g.MustAddEdge(0, 1, 1000)
	g.MustAddEdge(1, 2, 1000)
	g.MustAddEdge(0, 2, 20000)
	p := mustProblem(t, g, quantum.DefaultParams())
	sol, err := SolveOptimalContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := p.MaxRateChannel(0, 2, nil, nil)
	if !ok {
		t.Fatal("no channel")
	}
	if !rateClose(sol.Rate(), want.Rate) {
		t.Fatalf("two-user tree rate %g != best channel rate %g", sol.Rate(), want.Rate)
	}
}

// TestQuickOptimalMatchesBruteForce verifies Theorem 3: under the
// sufficient condition Q >= 2|U|, Algorithm 2's rate equals the exhaustive
// optimum over all capacity-feasible entanglement trees.
func TestQuickOptimalMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users := 2 + rng.Intn(2) // 2-3 users keeps brute force tractable
		switches := 1 + rng.Intn(3)
		g := randomNet(rng, users, switches, 2*users) // sufficient capacity
		params := quantum.Params{Alpha: 1e-4, SwapProb: 0.5 + rng.Float64()*0.5}
		p, err := AllUsersProblem(g, params)
		if err != nil {
			t.Log(err)
			return false
		}
		if !p.SufficientCapacity() {
			t.Log("fixture violates the sufficient condition")
			return false
		}
		sol, err := SolveOptimalContext(context.Background(), p, nil)
		want, feasible := bruteForceOptimal(t, p)
		if err != nil {
			if errors.Is(err, ErrInfeasible) && !feasible {
				return true
			}
			t.Logf("seed %d: SolveOptimalContext error %v (brute feasible=%v)", seed, err, feasible)
			return false
		}
		if !feasible {
			t.Logf("seed %d: algorithm found a tree where brute force found none", seed)
			return false
		}
		if err := p.Validate(sol); err != nil {
			t.Logf("seed %d: invalid solution: %v", seed, err)
			return false
		}
		if !rateClose(sol.Rate(), want) {
			t.Logf("seed %d: rate %g, brute-force optimum %g", seed, sol.Rate(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOptimalAlwaysValid: on any connected random net (even without
// sufficient capacity the tree structure must be sound; capacity may be
// violated, which Validate would flag, so validate against a boosted copy).
func TestQuickOptimalAlwaysValidStructure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomNet(rng, 2+rng.Intn(4), 2+rng.Intn(6), 2)
		p, err := AllUsersProblem(g, quantum.DefaultParams())
		if err != nil {
			return false
		}
		sol, err := SolveOptimalContext(context.Background(), p, nil)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		boosted := g.Clone()
		boosted.SetAllSwitchQubits(2 * len(p.Users))
		bp, err := AllUsersProblem(boosted, quantum.DefaultParams())
		if err != nil {
			return false
		}
		return bp.Validate(sol) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
