// Package baseline implements the two comparison schemes of the paper's
// evaluation (§V-A): E-Q-CAST, the multi-user extension of the Q-CAST
// two-user router, and N-FUSION, the GHZ-fusion star scheme of the MP-P
// family.
package baseline

import (
	"context"
	"fmt"
	"math"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// SolveEQCastContext implements the E-Q-CAST baseline under the core
// SolveFunc contract.
//
// Q-CAST (Shi & Qian, SIGCOMM 2020) routes one user pair at a time; the
// paper extends it to multiple users by requesting the chain of consecutive
// pairs <u1,u2>, <u2,u3>, ..., <u(n-1),un> in the user set's given order.
// Each pair is served by its maximum-rate channel under the live capacity
// ledger (with channel width 1, Q-CAST's EXT routing metric reduces to the
// path success probability, i.e. exactly Algorithm 1's objective). The
// scheme's handicap relative to the paper's algorithms is structural: the
// chain's pairings are fixed in advance rather than chosen to maximize the
// tree value.
func SolveEQCastContext(ctx context.Context, p *core.Problem, opts *core.SolveOptions) (*core.Solution, error) {
	st := opts.StatsSink()
	led := quantum.NewLedger(p.Graph)
	tree := quantum.Tree{}
	for i := 0; i+1 < len(p.Users); i++ {
		if ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("e-q-cast: %w", ctx.Err())
		}
		src, dst := p.Users[i], p.Users[i+1]
		ch, ok := p.MaxRateChannel(src, dst, led, st)
		if !ok {
			return nil, fmt.Errorf("%w: no channel for chain pair %d-%d (e-q-cast)",
				core.ErrInfeasible, src, dst)
		}
		if err := led.Reserve(ch.Nodes); err != nil {
			return nil, fmt.Errorf("e-q-cast: %w", err)
		}
		st.AddReservations(1)
		tree.Channels = append(tree.Channels, ch)
		st.AddCommitted(1)
	}
	return &core.Solution{Tree: tree, Algorithm: "eqcast", MeasurementFactor: 1}, nil
}

// SolveNFusionContext implements the N-FUSION baseline under the core
// SolveFunc contract.
//
// Following the paper's description of the MP-P scheme ("a central user
// connecting all users"), one user acts as the hub of a star: every other
// user routes its maximum-rate channel to the hub under the capacity
// ledger, and the hub then performs an n-qubit GHZ fusion over its n-1
// received halves plus its own qubit. The fusion is modeled as n-1
// elementary merges, each succeeding with the BSM probability q, giving a
// terminal measurement factor q^(|U|-1). This preserves the paper's two
// arguments against n-fusion — a lower per-measurement success rate than a
// single BSM and an extra failure point that disrupts all users at once —
// without inventing numbers the paper does not give (see DESIGN.md,
// substitution 3).
//
// Every user is tried as the hub; the best resulting rate wins. Channels to
// the hub are committed greedily in descending rate order, recomputing
// residual-capacity routes after each commitment.
func SolveNFusionContext(ctx context.Context, p *core.Problem, opts *core.SolveOptions) (*core.Solution, error) {
	if len(p.Users) == 1 {
		return &core.Solution{Tree: quantum.Tree{}, Algorithm: "nfusion", MeasurementFactor: 1}, nil
	}
	st := opts.StatsSink()
	fusion := math.Pow(p.Params.SwapProb, float64(len(p.Users)-1))
	var best *core.Solution
	for _, hub := range p.Users {
		if ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("n-fusion: %w", ctx.Err())
		}
		sol, err := solveStar(p, hub, st)
		if err != nil {
			continue
		}
		sol.MeasurementFactor = fusion
		if best == nil || sol.Rate() > best.Rate() {
			best = sol
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no user can act as a fusion hub (n-fusion)", core.ErrInfeasible)
	}
	return best, nil
}

// solveStar routes a channel from every non-hub user to hub, committing the
// currently best-rated spoke first and rerouting the rest under the
// remaining capacity.
func solveStar(p *core.Problem, hub graph.NodeID, st *core.SolveStats) (*core.Solution, error) {
	led := quantum.NewLedger(p.Graph)
	pending := make(map[graph.NodeID]bool, len(p.Users)-1)
	for _, u := range p.Users {
		if u != hub {
			pending[u] = true
		}
	}
	tree := quantum.Tree{}
	for len(pending) > 0 {
		var bestCh quantum.Channel
		var bestUser graph.NodeID
		found := false
		// MaxRateChannels yields ascending user order, so ties resolve
		// deterministically, as the old stable-order scan did.
		for _, uc := range p.MaxRateChannels(hub, led, st) {
			if !pending[uc.Dst] {
				continue
			}
			if !found || uc.Ch.Rate > bestCh.Rate {
				bestCh, bestUser, found = uc.Ch, uc.Dst, true
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: user cannot reach hub %d", core.ErrInfeasible, hub)
		}
		if err := led.Reserve(bestCh.Nodes); err != nil {
			return nil, fmt.Errorf("n-fusion: %w", err)
		}
		st.AddReservations(1)
		delete(pending, bestUser)
		tree.Channels = append(tree.Channels, bestCh)
		st.AddCommitted(1)
	}
	return &core.Solution{Tree: tree, Algorithm: "nfusion"}, nil
}
