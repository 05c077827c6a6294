// Package exact solves small MUERP instances optimally by exhaustive
// search. MUERP is NP-hard (paper Theorem 2), so this does not scale past
// toy networks — its purpose is ground truth: validating the heuristics'
// solution quality, quantifying their optimality gap, and powering tests.
//
// The search enumerates every simple user-to-user channel (interior
// vertices restricted to switches with >= 2 qubits), then every
// (|U|-1)-subset of channels forming a capacity-feasible spanning tree,
// with branch-and-bound pruning on the rate product.
package exact

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/unionfind"
)

// Limits guard against accidentally launching an exponential search on a
// full-size network.
type Limits struct {
	// MaxNodes caps the network size (default 16).
	MaxNodes int
	// MaxChannels caps the enumerated channel count (default 4096).
	MaxChannels int
}

// DefaultLimits returns the default safety caps.
func DefaultLimits() Limits { return Limits{MaxNodes: 16, MaxChannels: 4096} }

// Search-size errors.
var (
	ErrTooLarge      = errors.New("exact: instance exceeds search limits")
	ErrChannelBlowup = errors.New("exact: channel enumeration exceeds limits")
)

// Solve returns the optimal MUERP solution of p, or core.ErrInfeasible when
// no capacity-feasible spanning tree exists. The branch-and-bound recursion
// checks ctx once per search iteration, so a cancelled context aborts an
// in-flight solve promptly with ctx.Err(); a nil ctx never cancels. opts
// follows the core SolveFunc contract (the search is deterministic, so only
// opts.Stats is consulted).
func Solve(ctx context.Context, p *core.Problem, lim Limits, opts *core.SolveOptions) (*core.Solution, error) {
	if lim.MaxNodes <= 0 {
		lim.MaxNodes = DefaultLimits().MaxNodes
	}
	if lim.MaxChannels <= 0 {
		lim.MaxChannels = DefaultLimits().MaxChannels
	}
	if n := p.Graph.NumNodes(); n > lim.MaxNodes {
		return nil, fmt.Errorf("%w: %d nodes > %d", ErrTooLarge, n, lim.MaxNodes)
	}
	st := opts.StatsSink()
	chans, err := enumerateChannels(p, lim.MaxChannels)
	if err != nil {
		return nil, err
	}
	st.AddConsidered(int64(len(chans)))
	// Descending rate order makes the bound prune early.
	sort.SliceStable(chans, func(i, j int) bool { return chans[i].Rate > chans[j].Rate })

	idx := make(map[graph.NodeID]int, len(p.Users))
	for i, u := range p.Users {
		idx[u] = i
	}
	need := len(p.Users) - 1
	best := -1.0
	var bestTree []quantum.Channel

	led := quantum.NewLedger(p.Graph)
	var chosen []quantum.Channel

	// stop latches the context's error; once set, every recursion level
	// unwinds immediately (the per-level undo steps still run, so led and
	// uf stay consistent — not that they are reused after an abort).
	var stop error
	done := func() bool {
		if stop != nil {
			return true
		}
		if ctx != nil {
			select {
			case <-ctx.Done():
				stop = ctx.Err()
				return true
			default:
			}
		}
		return false
	}

	// rec extends the current partial tree with channels from `start` on.
	// uf tracks user connectivity; rate is the partial product.
	var rec func(start int, uf *unionfind.UnionFind, rate float64)
	rec = func(start int, uf *unionfind.UnionFind, rate float64) {
		if len(chosen) == need {
			if uf.Sets() == 1 && rate > best {
				best = rate
				bestTree = append(bestTree[:0], chosen...)
			}
			return
		}
		remaining := need - len(chosen)
		for i := start; i <= len(chans)-remaining; i++ {
			if done() {
				return
			}
			ch := chans[i]
			// Bound: even taking the best remaining channels cannot beat
			// the incumbent (channels are rate-sorted, all rates <= ch's).
			if bound := rate * pow(ch.Rate, remaining); bound <= best {
				return
			}
			a, b := ch.Endpoints()
			ia, ib := idx[a], idx[b]
			if uf.Connected(ia, ib) || !led.CanCarry(ch.Nodes) {
				continue
			}
			// Apply.
			snapshot := cloneUF(uf)
			uf.Union(ia, ib)
			if err := led.Reserve(ch.Nodes); err != nil {
				panic(fmt.Sprintf("exact: reserve after CanCarry: %v", err))
			}
			st.AddReservations(1)
			chosen = append(chosen, ch)
			rec(i+1, uf, rate*ch.Rate)
			// Undo.
			chosen = chosen[:len(chosen)-1]
			led.Release(ch.Nodes)
			*uf = *snapshot
		}
	}
	rec(0, unionfind.New(len(p.Users)), 1)
	if stop != nil {
		return nil, fmt.Errorf("exact: %w", stop)
	}

	if best < 0 {
		return nil, fmt.Errorf("%w (exact search)", core.ErrInfeasible)
	}
	st.AddCommitted(int64(len(bestTree)))
	tree := quantum.Tree{Channels: append([]quantum.Channel(nil), bestTree...)}
	return &core.Solution{Tree: tree, Algorithm: "exact", MeasurementFactor: 1}, nil
}

// enumerateChannels lists every simple channel between user pairs.
func enumerateChannels(p *core.Problem, maxChannels int) ([]quantum.Channel, error) {
	users := make(map[graph.NodeID]bool, len(p.Users))
	for _, u := range p.Users {
		users[u] = true
	}
	var out []quantum.Channel
	visited := make(map[graph.NodeID]bool)
	var path []graph.NodeID
	var overflow error
	var dfs func(v, src graph.NodeID)
	dfs = func(v, src graph.NodeID) {
		if overflow != nil {
			return
		}
		path = append(path, v)
		visited[v] = true
		defer func() {
			path = path[:len(path)-1]
			visited[v] = false
		}()
		if v != src && users[v] {
			if src < v {
				ch, err := quantum.NewChannel(p.Graph, path, p.Params)
				if err != nil {
					overflow = fmt.Errorf("exact: enumerated invalid channel: %w", err)
					return
				}
				out = append(out, ch)
				if len(out) > maxChannels {
					overflow = fmt.Errorf("%w: more than %d channels", ErrChannelBlowup, maxChannels)
				}
			}
			return
		}
		if v != src {
			n := p.Graph.Node(v)
			if n.Kind != graph.KindSwitch || n.Qubits < 2 {
				return
			}
		}
		for _, nb := range p.Graph.NeighborIDs(v) {
			if !visited[nb] {
				dfs(nb, src)
			}
		}
	}
	for _, u := range p.Users {
		dfs(u, u)
		if overflow != nil {
			return nil, overflow
		}
	}
	return out, nil
}

// pow is x^n for small non-negative n.
func pow(x float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= x
	}
	return out
}

// cloneUF snapshots a union-find for backtracking: unioning every element
// with its representative reproduces the partition.
func cloneUF(u *unionfind.UnionFind) *unionfind.UnionFind {
	c := unionfind.New(u.Len())
	for i := 0; i < u.Len(); i++ {
		c.Union(i, u.Find(i))
	}
	return c
}
