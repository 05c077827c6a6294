package fidelity

import (
	"context"
	"fmt"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// ErrInfeasible reports that no entanglement tree satisfies both the
// capacity and the fidelity constraints. It wraps core.ErrInfeasible so
// errors.Is(err, core.ErrInfeasible) also holds.
var ErrInfeasible = fmt.Errorf("%w under the fidelity floor", core.ErrInfeasible)

// Solve routes the fidelity-constrained MUERP with a Prim-style greedy
// (the Algorithm 4 skeleton with the fidelity-constrained channel search
// as its inner oracle): grow the tree from the first user, each round
// committing the maximum-rate channel to an out-of-tree user whose
// end-to-end fidelity meets the router's floor, under live switch
// capacity. A cancelled ctx aborts the solve between rounds; a nil ctx
// never cancels.
func Solve(ctx context.Context, p *core.Problem, r Router) (*core.Solution, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	led := quantum.NewLedger(p.Graph)
	inTree := make(map[graph.NodeID]bool, len(p.Users))
	inTree[p.Users[0]] = true
	tree := quantum.Tree{}

	for len(inTree) < len(p.Users) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("fidelity: %w", err)
			}
		}
		var best quantum.Channel
		found := false
		for _, src := range p.Users {
			if !inTree[src] {
				continue
			}
			for _, dst := range p.Users {
				if inTree[dst] {
					continue
				}
				ch, _, ok := r.MaxRateChannel(p.Graph, src, dst, led)
				if !ok {
					continue
				}
				if !found || ch.Rate > best.Rate {
					best, found = ch, true
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: %d users unreached", ErrInfeasible, len(p.Users)-len(inTree))
		}
		if err := led.Reserve(best.Nodes); err != nil {
			panic(fmt.Sprintf("fidelity: reserve after gated search: %v", err))
		}
		// The search always starts inside the tree, so the path's far
		// endpoint is the newly joined user.
		a, b := best.Endpoints()
		joined := b
		if inTree[b] {
			joined = a
		}
		if inTree[joined] {
			panic("fidelity: committed channel joins two in-tree users")
		}
		inTree[joined] = true
		tree.Channels = append(tree.Channels, best)
	}
	return &core.Solution{Tree: tree, Algorithm: "fidelity-prim", MeasurementFactor: 1}, nil
}

// TreeFidelities returns each channel's end-to-end fidelity and the
// minimum across the tree (1 for an empty tree).
func (r Router) TreeFidelities(g *graph.Graph, t quantum.Tree) (perChannel []float64, min float64) {
	min = 1
	for _, ch := range t.Channels {
		f := r.ChannelFidelity(g, ch)
		perChannel = append(perChannel, f)
		if f < min {
			min = f
		}
	}
	return perChannel, min
}

// Validate checks a routed solution against both the base MUERP rules and
// the fidelity floor.
func (r Router) ValidateSolution(p *core.Problem, sol *core.Solution) error {
	if err := p.Validate(sol); err != nil {
		return err
	}
	_, min := r.TreeFidelities(p.Graph, sol.Tree)
	if len(sol.Tree.Channels) > 0 && min < r.MinFidelity-1e-12 {
		return fmt.Errorf("fidelity: tree minimum %g below floor %g", min, r.MinFidelity)
	}
	return nil
}
