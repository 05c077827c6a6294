package baseline

import (
	"context"
	"fmt"
	"math"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
)

// SolveNFusionFixedHubContext is the N-FUSION baseline with the fusion hub
// pinned to one user instead of searching all users for the best one. It
// exists for the ablation benches, which quantify how much of N-FUSION's
// score comes from our charitable best-hub search (the paper does not
// specify hub selection; see DESIGN.md substitution 3).
func SolveNFusionFixedHubContext(ctx context.Context, p *core.Problem, hub graph.NodeID, opts *core.SolveOptions) (*core.Solution, error) {
	found := false
	for _, u := range p.Users {
		if u == hub {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("baseline: hub %d is not in the user set", hub)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("n-fusion: %w", ctx.Err())
	}
	sol, err := solveStar(p, hub, opts.StatsSink())
	if err != nil {
		return nil, err
	}
	sol.MeasurementFactor = math.Pow(p.Params.SwapProb, float64(len(p.Users)-1))
	return sol, nil
}
