// Package core implements the paper's primary contribution: the Multi-user
// Entanglement Routing Problem (MUERP) and its routing algorithms —
// Algorithm 1 (maximum-entanglement-rate channel), Algorithm 2 (optimal
// under sufficient switch capacity), Algorithm 3 (conflict-free heuristic)
// and Algorithm 4 (Prim-based heuristic).
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// Problem is one MUERP instance: a quantum network, the set of users to
// entangle, and the physical parameters that define link and swap rates.
//
// A Problem also carries the search engine its algorithms run on (see
// channel.go): the Algorithm 1 edge weights (alpha*L - ln q) and a pool of
// reusable Dijkstra scratch buffers. The engine belongs to the graph and
// the params, not to the user set, so every Problem derived through
// WithUsers shares it. Build Problems with NewProblem, AllUsersProblem or
// WithUsers; Graph and Params must not change after construction, and the
// graph's topology and edge lengths must not change after the first search.
type Problem struct {
	Graph  *graph.Graph
	Users  []graph.NodeID
	Params quantum.Params

	eng *engine
}

// Problem construction and solving errors.
var (
	ErrNoUsers    = errors.New("core: a problem needs at least one user")
	ErrNotAUser   = errors.New("core: user set entry is not a user node")
	ErrDupUser    = errors.New("core: duplicate user in user set")
	ErrInfeasible = errors.New("core: no feasible entanglement tree exists")
)

// NewProblem validates and builds a MUERP instance with its own search
// engine. The user slice is copied; callers keep ownership of theirs.
func NewProblem(g *graph.Graph, users []graph.NodeID, p quantum.Params) (*Problem, error) {
	if g == nil {
		return nil, errors.New("core: nil graph")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	us, err := checkUsers(g, users)
	if err != nil {
		return nil, err
	}
	return &Problem{Graph: g, Users: us, Params: p, eng: &engine{}}, nil
}

// WithUsers validates and builds the instance for another user set on the
// same graph and params, sharing p's search engine: callers that route many
// requests over one network (the admission loop, the slot engine) keep one
// template Problem per graph and derive each request's from it, so no
// request rebuilds the edge weights or allocates a Searcher. The user slice
// is copied.
func (p *Problem) WithUsers(users []graph.NodeID) (*Problem, error) {
	us, err := checkUsers(p.Graph, users)
	if err != nil {
		return nil, err
	}
	return &Problem{Graph: p.Graph, Users: us, Params: p.Params, eng: p.eng}, nil
}

// checkUsers validates a user set against g and returns a private copy.
func checkUsers(g *graph.Graph, users []graph.NodeID) ([]graph.NodeID, error) {
	if len(users) == 0 {
		return nil, ErrNoUsers
	}
	seen := make(map[graph.NodeID]bool, len(users))
	for _, u := range users {
		if !g.HasNode(u) || g.Node(u).Kind != graph.KindUser {
			return nil, fmt.Errorf("%w: node %d", ErrNotAUser, u)
		}
		if seen[u] {
			return nil, fmt.Errorf("%w: node %d", ErrDupUser, u)
		}
		seen[u] = true
	}
	us := make([]graph.NodeID, len(users))
	copy(us, users)
	return us, nil
}

// AllUsersProblem builds a problem over every user node in the graph, the
// configuration used throughout the paper's evaluation.
func AllUsersProblem(g *graph.Graph, p quantum.Params) (*Problem, error) {
	return NewProblem(g, g.Users(), p)
}

// SufficientCapacity reports whether every switch satisfies the paper's
// sufficient condition Q_r >= 2|U| (Theorem 3), under which Algorithm 2 is
// optimal and a feasible solution is guaranteed to exist whenever the users
// are connected at all.
func (p *Problem) SufficientCapacity() bool {
	need := 2 * len(p.Users)
	for _, id := range p.Graph.Switches() {
		if p.Graph.Node(id).Qubits < need {
			return false
		}
	}
	return true
}

// Solution is a routed entanglement tree plus metadata about how it was
// obtained.
type Solution struct {
	// Tree is the set of committed quantum channels spanning the users.
	Tree quantum.Tree
	// Algorithm names the solver that produced the tree ("alg2", "alg3",
	// "alg4", "eqcast", "nfusion").
	Algorithm string
	// MeasurementFactor scales the tree rate for schemes whose terminal
	// measurement differs from pure pairwise BSM swapping. It is 1 for the
	// paper's algorithms; the N-FUSION baseline uses it for its GHZ fusion
	// success probability.
	MeasurementFactor float64
}

// Rate returns the solution's multi-user entanglement rate: the Eq. 2 tree
// value scaled by the measurement factor.
func (s *Solution) Rate() float64 {
	f := s.MeasurementFactor
	if f == 0 {
		f = 1
	}
	return s.Tree.Rate() * f
}

// LogRate returns ln(Rate()), stable against underflow.
func (s *Solution) LogRate() float64 {
	f := s.MeasurementFactor
	if f == 0 {
		f = 1
	}
	return s.Tree.LogRate() + math.Log(f)
}

// Validate checks the solution against the problem's graph, user set,
// capacities and rate model.
func (p *Problem) Validate(s *Solution) error {
	if s == nil {
		return errors.New("core: nil solution")
	}
	return quantum.ValidateTree(p.Graph, p.Users, s.Tree, p.Params)
}
