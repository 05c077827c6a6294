package quantum

import (
	"errors"
	"fmt"
	"math"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/unionfind"
)

// Tree is an entanglement tree (paper Definition 1): users are vertices,
// channels are edges, and together they span the user set without loops.
// Its value is the product of channel rates (Eq. 2).
type Tree struct {
	Channels []Channel
}

// Rate returns the Eq. 2 value of the tree: the product of all channel
// rates. The empty tree has rate 1 (entangling a single user is trivially
// successful).
func (t Tree) Rate() float64 {
	rate := 1.0
	for _, c := range t.Channels {
		rate *= c.Rate
	}
	return rate
}

// LogRate returns ln(Rate) computed by summation, which remains finite and
// precise when the product underflows float64.
func (t Tree) LogRate() float64 {
	sum := 0.0
	for _, c := range t.Channels {
		sum += math.Log(c.Rate)
	}
	return sum
}

// Users returns the set of users touched by the tree's channels.
func (t Tree) Users() map[graph.NodeID]bool {
	users := make(map[graph.NodeID]bool, len(t.Channels)+1)
	for _, c := range t.Channels {
		a, b := c.Endpoints()
		users[a] = true
		users[b] = true
	}
	return users
}

// Tree validation errors.
var (
	ErrNotSpanning     = errors.New("quantum: tree does not span the user set")
	ErrUserLoop        = errors.New("quantum: channels form a loop among users")
	ErrForeignUser     = errors.New("quantum: channel endpoint outside the user set")
	ErrOverCapacity    = errors.New("quantum: switch qubit capacity exceeded")
	ErrRateMismatch    = errors.New("quantum: stored channel rate disagrees with Eq. 1")
	ErrDuplicatePair   = errors.New("quantum: more than one channel between a user pair")
	ErrWrongTreeDegree = errors.New("quantum: channel count differs from |U|-1")
)

// rateTolerance bounds the acceptable relative error between a stored
// channel rate and a recomputation from the graph's edge lengths.
const rateTolerance = 1e-9

// ValidateTree checks that channels form a valid MUERP solution for the
// given user set on g under params p:
//
//   - exactly |users|-1 channels, each a valid channel of g (NewChannel),
//   - endpoints drawn from users, at most one channel per user pair,
//   - the channels connect all users without loops (a spanning tree),
//   - no switch carries more channels than floor(Qubits/2),
//   - every stored rate matches an Eq. 1 recomputation.
//
// A single-user set is trivially valid with zero channels.
func ValidateTree(g *graph.Graph, users []graph.NodeID, t Tree, p Params) error {
	if len(users) == 0 {
		return errors.New("quantum: empty user set")
	}
	idx := make(map[graph.NodeID]int, len(users))
	for i, u := range users {
		if !g.HasNode(u) || g.Node(u).Kind != graph.KindUser {
			return fmt.Errorf("quantum: user set entry %d is not a user node", u)
		}
		if _, dup := idx[u]; dup {
			return fmt.Errorf("quantum: user %d listed twice", u)
		}
		idx[u] = i
	}
	if len(t.Channels) != len(users)-1 {
		return fmt.Errorf("%w: %d channels for %d users", ErrWrongTreeDegree, len(t.Channels), len(users))
	}

	uf := unionfind.New(len(users))
	seenPair := make(map[[2]int]bool, len(t.Channels))
	load := make(map[graph.NodeID]int)
	for i, c := range t.Channels {
		rebuilt, err := NewChannel(g, c.Nodes, p)
		if err != nil {
			return fmt.Errorf("quantum: channel %d: %w", i, err)
		}
		if !closeEnough(rebuilt.Rate, c.Rate) {
			return fmt.Errorf("%w: channel %d stored %.12e, computed %.12e", ErrRateMismatch, i, c.Rate, rebuilt.Rate)
		}
		a, b := c.Endpoints()
		ia, okA := idx[a]
		ib, okB := idx[b]
		if !okA || !okB {
			return fmt.Errorf("%w: channel %d endpoints %d-%d", ErrForeignUser, i, a, b)
		}
		key := [2]int{min(ia, ib), max(ia, ib)}
		if seenPair[key] {
			return fmt.Errorf("%w: users %d and %d", ErrDuplicatePair, a, b)
		}
		seenPair[key] = true
		if !uf.Union(ia, ib) {
			return fmt.Errorf("%w: adding channel %d (%d-%d)", ErrUserLoop, i, a, b)
		}
		for _, s := range c.Interior() {
			load[s] += 2
		}
	}
	if uf.Sets() != 1 {
		return fmt.Errorf("%w: %d components remain", ErrNotSpanning, uf.Sets())
	}
	for s, used := range load {
		if q := g.Node(s).Qubits; used > q {
			return fmt.Errorf("%w: switch %d uses %d of %d qubits", ErrOverCapacity, s, used, q)
		}
	}
	return nil
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rateTolerance*scale
}
