package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

func TestNewProblemValidation(t *testing.T) {
	g := fourUserNet(t)
	p := quantum.DefaultParams()
	tests := []struct {
		name    string
		g       *graph.Graph
		users   []graph.NodeID
		params  quantum.Params
		wantErr error
	}{
		{"ok", g, []graph.NodeID{0, 1}, p, nil},
		{"nil graph", nil, []graph.NodeID{0}, p, nil}, // any error accepted
		{"no users", g, nil, p, ErrNoUsers},
		{"switch as user", g, []graph.NodeID{4}, p, ErrNotAUser},
		{"unknown node", g, []graph.NodeID{99}, p, ErrNotAUser},
		{"duplicate user", g, []graph.NodeID{0, 0}, p, ErrDupUser},
		{"bad params", g, []graph.NodeID{0}, quantum.Params{}, quantum.ErrBadParams},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewProblem(tc.g, tc.users, tc.params)
			if tc.name == "ok" {
				if err != nil {
					t.Fatalf("NewProblem: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid problem accepted")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestNewProblemCopiesUsers(t *testing.T) {
	g := fourUserNet(t)
	users := []graph.NodeID{0, 1}
	p, err := NewProblem(g, users, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	users[0] = 99
	if p.Users[0] != 0 {
		t.Fatal("problem shares the caller's user slice")
	}
}

func TestAllUsersProblem(t *testing.T) {
	g := fourUserNet(t)
	p, err := AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Users) != 4 {
		t.Fatalf("got %d users, want 4", len(p.Users))
	}
}

func TestSufficientCapacity(t *testing.T) {
	g := fourUserNet(t) // 4 users; switches have 16 >= 8 qubits
	p := mustProblem(t, g, quantum.DefaultParams())
	if !p.SufficientCapacity() {
		t.Fatal("16-qubit switches should satisfy Q >= 2|U| = 8")
	}
	g.SetQubits(4, 7)
	if p.SufficientCapacity() {
		t.Fatal("7-qubit switch passes Q >= 8")
	}
}

func TestSolutionRateAndMeasurementFactor(t *testing.T) {
	g := fourUserNet(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	sol, err := SolveOptimalContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := sol.Tree.Rate()
	if !rateClose(sol.Rate(), base) {
		t.Fatalf("factor-1 Rate %g != tree rate %g", sol.Rate(), base)
	}
	// Zero factor is treated as unset (1), so a zero-valued Solution
	// literal behaves sanely.
	sol.MeasurementFactor = 0
	if !rateClose(sol.Rate(), base) {
		t.Fatalf("factor-0 Rate %g != tree rate %g", sol.Rate(), base)
	}
	sol.MeasurementFactor = 0.5
	if !rateClose(sol.Rate(), base/2) {
		t.Fatalf("factor-0.5 Rate %g != %g", sol.Rate(), base/2)
	}
	if math.Abs(sol.LogRate()-math.Log(base/2)) > 1e-9 {
		t.Fatalf("LogRate %g != ln(rate) %g", sol.LogRate(), math.Log(base/2))
	}
}

func TestProblemValidateRejectsNil(t *testing.T) {
	g := fourUserNet(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	if err := p.Validate(nil); err == nil {
		t.Fatal("nil solution accepted")
	}
}

func TestSolverAdapters(t *testing.T) {
	g := fourUserNet(t)
	p := mustProblem(t, g, quantum.DefaultParams())
	for _, s := range []struct {
		name  string
		solve SolveFunc
		opts  *SolveOptions
	}{
		{"alg2", SolveOptimalContext, nil},
		{"alg3", SolveConflictFreeContext, nil},
		{"alg4", SolvePrimContext, nil},
		{"alg4", SolvePrimContext, &SolveOptions{RNG: rand.New(rand.NewSource(11))}},
	} {
		sol, err := s.solve(context.Background(), p, s.opts)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if sol.Algorithm != s.name {
			t.Errorf("solution algorithm %q != solver name %q", sol.Algorithm, s.name)
		}
		if err := p.Validate(sol); err != nil {
			t.Errorf("%s produced invalid tree: %v", s.name, err)
		}
	}
}
