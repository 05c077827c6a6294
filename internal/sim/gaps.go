package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/exact"
	"github.com/muerp/quantumnet/internal/solver"
	"github.com/muerp/quantumnet/internal/stats"
	"github.com/muerp/quantumnet/internal/topology"
)

// This file measures the heuristics' optimality gap: on instances small
// enough for the exact branch-and-bound solver, what fraction of the true
// optimum does each scheme achieve? The paper proves Algorithm 2 optimal
// only under sufficient capacity and gives no quality guarantee for
// Algorithms 3/4 — this study quantifies them empirically.

// GapConfig parameterizes the gap study.
type GapConfig struct {
	// Instances is the number of random small networks per point.
	Instances int
	// Users and Switches size the instances (keep them small: the exact
	// search is exponential).
	Users    int
	Switches int
	// Qubits lists the per-switch budgets to sweep (capacity pressure).
	Qubits []int
	// Seed drives instance generation.
	Seed int64
	// Limits bound the exact search; instances that exceed them are
	// skipped (counted per point).
	Limits exact.Limits
}

// DefaultGapConfig returns a study of 30 instances per point on 4-user,
// 7-switch networks across tight-to-ample budgets.
func DefaultGapConfig() GapConfig {
	return GapConfig{
		Instances: 30,
		Users:     4,
		Switches:  7,
		Qubits:    []int{2, 4, 8},
		Seed:      1,
		Limits:    exact.DefaultLimits(),
	}
}

// gapSolvers are the schemes whose quality is measured, resolved through
// the solver registry. Algorithm 2 is excluded: it is only defined under
// sufficient capacity, where Theorem 3 already proves it optimal. Algorithm
// 4 runs without an RNG, i.e. deterministically from the first user.
func gapSolvers() []solver.Entry {
	names := []string{AlgConflictFree, AlgPrim, AlgEQCast, AlgNFusion}
	out := make([]solver.Entry, 0, len(names))
	for _, n := range names {
		e, err := solver.Get(n)
		if err != nil {
			panic(err) // built-in names; unreachable
		}
		out = append(out, e)
	}
	return out
}

// InstanceGap routes p with e and returns its rate as a fraction of opt,
// the exact optimum's: 1 when the scheme was optimal, 0 when it found the
// feasible instance infeasible.
func InstanceGap(ctx context.Context, p *core.Problem, e solver.Entry, opt *core.Solution) (float64, error) {
	sol, err := e.Solve(ctx, p, nil)
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) {
			return 0, nil
		}
		return 0, err
	}
	if err := p.Validate(sol); err != nil {
		return 0, fmt.Errorf("%s produced an invalid tree: %w", e.Name, err)
	}
	return sol.Rate() / opt.Rate(), nil
}

// OptimalityGaps runs the study and returns one Series point per qubit
// budget; each algorithm's summary is over its per-instance gap (achieved
// rate / exact optimum, 0 when the heuristic failed on a feasible
// instance). Instances that are infeasible even for the exact solver, or
// that exceed the search limits, are skipped.
func OptimalityGaps(cfg GapConfig) (Series, error) {
	if cfg.Instances <= 0 {
		return Series{}, errors.New("sim: gap study needs positive Instances")
	}
	if len(cfg.Qubits) == 0 {
		cfg.Qubits = DefaultGapConfig().Qubits
	}
	s := Series{
		Figure: "gaps",
		Title:  "Heuristic optimality gap vs exact optimum (small instances)",
		XLabel: "qubits",
	}
	for _, q := range cfg.Qubits {
		point, err := gapPoint(cfg, q)
		if err != nil {
			return Series{}, fmt.Errorf("sim: gap study qubits=%d: %w", q, err)
		}
		s.Points = append(s.Points, point)
	}
	return s, nil
}

func gapPoint(cfg GapConfig, qubits int) (PointResult, error) {
	topo := topology.Default()
	topo.Users = cfg.Users
	topo.Switches = cfg.Switches
	topo.SwitchQubits = qubits

	solvers := gapSolvers()
	gaps := make(map[string][]float64, len(solvers))
	skipped := 0
	for i := 0; i < cfg.Instances; i++ {
		rng := rand.New(rand.NewSource(networkSeed(cfg.Seed, i)))
		g, err := topology.Generate(topo, rng)
		if err != nil {
			return PointResult{}, err
		}
		prob, err := core.AllUsersProblem(g, DefaultConfig().Params)
		if err != nil {
			return PointResult{}, err
		}
		opt, err := exact.Solve(context.Background(), prob, cfg.Limits, nil)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) ||
				errors.Is(err, exact.ErrTooLarge) || errors.Is(err, exact.ErrChannelBlowup) {
				skipped++
				continue
			}
			return PointResult{}, err
		}
		for _, e := range solvers {
			gap, err := InstanceGap(context.Background(), prob, e, opt)
			if err != nil {
				return PointResult{}, err
			}
			gaps[e.Name] = append(gaps[e.Name], gap)
		}
	}
	point := PointResult{
		Label:   fmt.Sprintf("qubits=%d (skipped %d)", qubits, skipped),
		X:       float64(qubits),
		Summary: make(map[string]stats.Summary, len(solvers)),
	}
	for _, e := range solvers {
		point.Summary[e.Name] = stats.Summarize(gaps[e.Name])
	}
	return point, nil
}
