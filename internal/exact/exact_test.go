package exact

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

// alg3 is Algorithm 3 as a Solver, the heuristic these tests measure.
var alg3 core.Solver = core.SolverFunc{ID: "alg3", Fn: core.SolveConflictFreeContext}

// smallNet builds a connected random net small enough for exact search.
func smallNet(rng *rand.Rand, users, switches, qubits int) *graph.Graph {
	n := users + switches
	g := graph.New(n, 2*n)
	for i := 0; i < users; i++ {
		g.AddUser(rng.Float64()*4000, rng.Float64()*4000)
	}
	for i := 0; i < switches; i++ {
		g.AddSwitch(rng.Float64()*4000, rng.Float64()*4000, qubits)
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
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b && !g.HasEdge(a, b) {
			g.MustAddEdge(a, b, length(a, b))
		}
	}
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

func TestSolveValidatesAndBeatsHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 15; i++ {
		g := smallNet(rng, 2+rng.Intn(2), 2+rng.Intn(3), 2+2*rng.Intn(2))
		p := mustProblem(t, g)
		opt, err := Solve(context.Background(), p, DefaultLimits(), nil)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				// Then the heuristics must fail too.
				if _, err := core.SolveConflictFreeContext(context.Background(), p, nil); !errors.Is(err, core.ErrInfeasible) {
					t.Fatalf("net %d: exact infeasible but alg3 = %v", i, err)
				}
				continue
			}
			t.Fatalf("net %d: %v", i, err)
		}
		if err := p.Validate(opt); err != nil {
			t.Fatalf("net %d: exact tree invalid: %v", i, err)
		}
		for _, solver := range []core.Solver{alg3, core.Prim(0)} {
			sol, err := solver.Solve(context.Background(), p, nil)
			if err != nil {
				continue // a heuristic may fail where exact succeeds
			}
			if sol.Rate() > opt.Rate()*(1+1e-9) {
				t.Fatalf("net %d: %s rate %g beats exact optimum %g",
					i, solver.Name(), sol.Rate(), opt.Rate())
			}
		}
	}
}

func TestSolveMatchesTheoremThree(t *testing.T) {
	// Under sufficient capacity, Algorithm 2 equals the exact optimum.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 15; i++ {
		users := 2 + rng.Intn(2)
		g := smallNet(rng, users, 2+rng.Intn(3), 2*users)
		p := mustProblem(t, g)
		opt, err := Solve(context.Background(), p, DefaultLimits(), nil)
		if err != nil {
			continue
		}
		alg2, err := core.SolveOptimalContext(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("net %d: alg2 failed on exact-feasible instance: %v", i, err)
		}
		if math.Abs(alg2.Rate()-opt.Rate()) > 1e-9*opt.Rate() {
			t.Fatalf("net %d: alg2 %g != exact %g under sufficient capacity",
				i, alg2.Rate(), opt.Rate())
		}
	}
}

func TestSolveRespectsLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := smallNet(rng, 3, 20, 4) // 23 nodes > default 16
	p := mustProblem(t, g)
	if _, err := Solve(context.Background(), p, DefaultLimits(), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error = %v, want ErrTooLarge", err)
	}
	// Tiny channel cap triggers the blowup guard.
	small := smallNet(rng, 3, 5, 4)
	ps := mustProblem(t, small)
	if _, err := Solve(context.Background(), ps, Limits{MaxNodes: 16, MaxChannels: 1}, nil); !errors.Is(err, ErrChannelBlowup) {
		t.Fatalf("error = %v, want ErrChannelBlowup", err)
	}
}

func TestSolveInfeasible(t *testing.T) {
	g := graph.New(3, 1)
	g.AddUser(0, 0)
	g.AddUser(1, 0)
	g.AddUser(50, 50)
	g.MustAddEdge(0, 1, 100)
	p := mustProblem(t, g)
	if _, err := Solve(context.Background(), p, DefaultLimits(), nil); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

// TestSolveCancellation pins the contract that a cancelled context aborts
// the branch-and-bound within one search iteration: the recursion checks the
// done channel at the top of every loop pass, latches the cause and unwinds
// every level, so the caller gets ctx.Err() back wrapped.
func TestSolveCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := smallNet(rng, 4, 8, 4)
	p := mustProblem(t, g)

	// Sanity: the instance is solvable when not cancelled...
	if _, err := Solve(context.Background(), p, DefaultLimits(), nil); err != nil && !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("uncancelled solve: %v", err)
	}

	// ...but an already-cancelled context aborts before any tree comes back.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := Solve(ctx, p, DefaultLimits(), nil)
	if sol != nil {
		t.Fatal("cancelled solve returned a solution")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestOptimalityGap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := smallNet(rng, 3, 4, 2)
	p := mustProblem(t, g)
	gap, err := OptimalityGap(context.Background(), p, alg3, DefaultLimits())
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			t.Skip("instance infeasible")
		}
		t.Fatal(err)
	}
	if gap < 0 || gap > 1+1e-9 {
		t.Fatalf("gap = %g outside [0, 1]", gap)
	}
}

// TestQuickHeuristicGapsBounded: on random tight instances no heuristic
// ever beats the exact optimum, and every heuristic failure is an honest
// ErrInfeasible. Note that heuristics MAY fail on feasible instances —
// deciding feasibility is NP-complete (paper Theorem 1), so the greedy
// searches have no completeness guarantee and occasionally dead-end where
// the exhaustive search still finds a tree. That outcome is recorded, not
// failed.
func TestQuickHeuristicGapsBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := smallNet(rng, 2+rng.Intn(2), 2+rng.Intn(3), 2)
		p, err := core.AllUsersProblem(g, quantum.DefaultParams())
		if err != nil {
			return false
		}
		opt, err := Solve(context.Background(), p, DefaultLimits(), nil)
		if err != nil {
			return errors.Is(err, core.ErrInfeasible) || errors.Is(err, ErrChannelBlowup)
		}
		for _, solver := range []core.Solver{alg3, core.Prim(0)} {
			sol, err := solver.Solve(context.Background(), p, nil)
			if err != nil {
				if !errors.Is(err, core.ErrInfeasible) {
					t.Logf("seed %d: %s unexpected error %v", seed, solver.Name(), err)
					return false
				}
				// A heuristic dead-end on a feasible instance: allowed
				// (Theorem 1 — feasibility itself is NP-complete).
				continue
			}
			if p.Validate(sol) != nil {
				t.Logf("seed %d: %s invalid tree", seed, solver.Name())
				return false
			}
			if sol.Rate() > opt.Rate()*(1+1e-9) {
				t.Logf("seed %d: %s beats the optimum", seed, solver.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
