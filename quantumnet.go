// Package quantumnet is the public API of the MUERP reproduction: routing
// multi-user entanglement over a quantum Internet, after "Multi-user
// Entanglement Routing Design over Quantum Internets" (ICDCS 2024).
//
// The package re-exports the library's building blocks — network graphs,
// topology generators, the physical rate model, the paper's routing
// algorithms (Algorithms 2-4), the two evaluation baselines, the Monte
// Carlo validator and the distributed §II-B execution runtime — behind one
// import:
//
//	g, _ := quantumnet.Generate(quantumnet.DefaultTopology(), 7)
//	prob, _ := quantumnet.NewProblem(g, g.Users(), quantumnet.DefaultParams())
//	sol, _ := quantumnet.Solve(context.Background(), "alg3", prob, nil)
//	fmt.Println(sol.Rate())
package quantumnet

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/exact"
	"github.com/muerp/quantumnet/internal/fidelity"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/montecarlo"
	"github.com/muerp/quantumnet/internal/purify"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/redundant"
	"github.com/muerp/quantumnet/internal/repair"
	"github.com/muerp/quantumnet/internal/runtime"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/sim"
	"github.com/muerp/quantumnet/internal/solver"
	"github.com/muerp/quantumnet/internal/topology"
	"github.com/muerp/quantumnet/internal/transport"
	"github.com/muerp/quantumnet/internal/viz"
)

// Graph types.
type (
	// Graph is an undirected quantum network of users, switches and fibers.
	Graph = graph.Graph
	// Node is one vertex of the network.
	Node = graph.Node
	// NodeID identifies a node within a Graph.
	NodeID = graph.NodeID
	// Edge is one optical fiber.
	Edge = graph.Edge
	// EdgeID identifies an edge within a Graph.
	EdgeID = graph.EdgeID
	// NodeKind distinguishes users from switches.
	NodeKind = graph.NodeKind
)

// Node kinds.
const (
	KindUser   = graph.KindUser
	KindSwitch = graph.KindSwitch
)

// NewGraph returns an empty graph with the given capacity hints.
func NewGraph(nodes, edges int) *Graph { return graph.New(nodes, edges) }

// Topology generation.
type (
	// TopologyConfig parameterizes the random-network generators.
	TopologyConfig = topology.Config
	// TopologyModel selects Waxman, Watts-Strogatz or Volchenkov.
	TopologyModel = topology.Model
)

// Topology models.
const (
	Waxman        = topology.Waxman
	WattsStrogatz = topology.WattsStrogatz
	Volchenkov    = topology.Volchenkov
	Grid          = topology.Grid
)

// DefaultTopology returns the paper's §V-A network defaults.
func DefaultTopology() TopologyConfig { return topology.Default() }

// Generate draws one random network from the configuration and seed.
func Generate(cfg TopologyConfig, seed int64) (*Graph, error) {
	return topology.Generate(cfg, rand.New(rand.NewSource(seed)))
}

// NSFNet returns the classic 14-site NSFNET backbone (sites as switches
// with the given qubit budget) with `users` user nodes attached to random
// sites over short access fibers.
func NSFNet(users, switchQubits int, seed int64) (*Graph, error) {
	return topology.NSFNet(users, switchQubits, rand.New(rand.NewSource(seed)))
}

// Physical model.
type (
	// Params holds the physical constants (attenuation alpha, swap
	// probability q).
	Params = quantum.Params
	// Channel is one routed quantum channel with its Eq. 1 rate.
	Channel = quantum.Channel
	// Tree is an entanglement tree with its Eq. 2 value.
	Tree = quantum.Tree
)

// DefaultParams returns the paper's physical defaults (alpha=1e-4, q=0.9).
func DefaultParams() Params { return quantum.DefaultParams() }

// Problems and solutions.
type (
	// Problem is one MUERP instance.
	Problem = core.Problem
	// Solution is a routed entanglement tree.
	Solution = core.Solution
	// Solver is any routing scheme under the context-aware solve contract:
	// Solve(ctx, problem, options).
	Solver = core.Solver
	// SolveOptions carries per-solve inputs: an explicit RNG stream for
	// stochastic schemes and an optional Stats sink. nil is valid.
	SolveOptions = core.SolveOptions
	// SolveStats counts the work one solve performed (Dijkstra runs, edges
	// relaxed, pool traffic, channels considered/committed, reservations).
	SolveStats = core.SolveStats
)

// ErrInfeasible reports that no entanglement tree exists under the
// problem's constraints. Test with errors.Is.
var ErrInfeasible = core.ErrInfeasible

// NewProblem builds a MUERP instance for the given users.
func NewProblem(g *Graph, users []NodeID, p Params) (*Problem, error) {
	return core.NewProblem(g, users, p)
}

// AllUsersProblem builds a MUERP instance over every user in the graph.
func AllUsersProblem(g *Graph, p Params) (*Problem, error) {
	return core.AllUsersProblem(g, p)
}

// Solve routes p with the named algorithm from the solver registry —
// "alg2", "alg3", "alg4", "eqcast", "nfusion", the ablation variants or
// "exact" (see SolverNames). A cancelled ctx aborts a long solve with its
// error; opts (nil is valid) carries the RNG for stochastic schemes and an
// optional SolveStats sink. It is the one entry point for every scheme.
func Solve(ctx context.Context, algorithm string, p *Problem, opts *SolveOptions) (*Solution, error) {
	entry, err := solver.Get(algorithm)
	if err != nil {
		return nil, err
	}
	return entry.Solve(ctx, p, opts)
}

// SolverNames returns every registered algorithm name in canonical plot
// order, valid as the algorithm argument of Solve.
func SolverNames() []string { return solver.Names() }

// ExactLimits bounds the exhaustive solver's search size.
type ExactLimits = exact.Limits

// SolveExact returns the provably optimal MUERP solution of a *small*
// instance by branch-and-bound exhaustive search (MUERP is NP-hard; the
// limits guard against accidental exponential blowups). Use it as ground
// truth when assessing the heuristics. A cancelled ctx aborts the search
// within one iteration.
func SolveExact(ctx context.Context, p *Problem, lim ExactLimits, opts *SolveOptions) (*Solution, error) {
	return exact.Solve(ctx, p, lim, opts)
}

// OptimalityGap returns solver's achieved rate as a fraction of the exact
// optimum on a small instance (1 = optimal).
func OptimalityGap(ctx context.Context, p *Problem, sv Solver, lim ExactLimits) (float64, error) {
	return exact.OptimalityGap(ctx, p, sv, lim)
}

// Solvers returns the paper's evaluated routing schemes in plot order,
// derived from the solver registry (the single source of truth).
func Solvers() []Solver {
	entries := solver.Defaults()
	out := make([]Solver, len(entries))
	for i, e := range entries {
		out[i] = e.Solver()
	}
	return out
}

// Monte Carlo validation.

// MonteCarloResult is an empirical rate estimate with its analytic
// prediction and confidence interval.
type MonteCarloResult = montecarlo.Result

// Simulate estimates a solution's entanglement rate empirically over the
// given number of stochastic rounds.
func Simulate(g *Graph, sol *Solution, p Params, trials int, seed int64) (MonteCarloResult, error) {
	return montecarlo.SimulateSolution(g, sol, p, trials, rand.New(rand.NewSource(seed)))
}

// Experiments.
type (
	// ExperimentConfig parameterizes one evaluation sweep point.
	ExperimentConfig = sim.Config
	// ExperimentSeries is one regenerated figure.
	ExperimentSeries = sim.Series
)

// DefaultExperiment returns the paper's evaluation defaults (20 networks
// per point, all five algorithms).
func DefaultExperiment() ExperimentConfig { return sim.DefaultConfig() }

// RunAllFigures regenerates every figure of the paper's evaluation.
func RunAllFigures(cfg ExperimentConfig) ([]ExperimentSeries, error) { return sim.AllFigures(cfg) }

// Fidelity-aware routing (the paper's first future-work extension).
type (
	// FidelityModel holds the Werner-state fidelity-decay constants.
	FidelityModel = fidelity.Model
	// FidelityRouter bundles rate params, fidelity model and the minimum
	// acceptable end-to-end channel fidelity.
	FidelityRouter = fidelity.Router
)

// DefaultFidelityModel returns the default Werner decay constants.
func DefaultFidelityModel() FidelityModel { return fidelity.DefaultModel() }

// SolveWithFidelity routes the fidelity-constrained MUERP: every channel of
// the returned tree meets the router's fidelity floor. A cancelled ctx
// aborts the solve between rounds.
func SolveWithFidelity(ctx context.Context, p *Problem, r FidelityRouter) (*Solution, error) {
	return fidelity.Solve(ctx, p, r)
}

// Entanglement purification (BBPSSW recurrence over Werner states).

// PurifyResult summarizes one purification schedule: output fidelity and
// the expected raw-pair cost per distilled pair.
type PurifyResult = purify.Result

// PurifyStep applies one BBPSSW round to two pairs of fidelity f.
func PurifyStep(f float64) (fOut, pSucc float64, err error) { return purify.Step(f) }

// PurifyToReach returns the smallest recurrence schedule raising fidelity f
// to at least target.
func PurifyToReach(f, target float64) (PurifyResult, error) { return purify.RoundsToReach(f, target) }

// PlanPurifiedChannel returns the purification schedule that lifts a routed
// channel (raw fidelity, raw rate) over the floor, and the channel's
// effective distilled rate.
func PlanPurifiedChannel(rawFidelity, rawRate, floor float64) (PurifyResult, float64, error) {
	return purify.PlanChannel(rawFidelity, rawRate, floor)
}

// Dynamic admission (the network as a service).
type (
	// SessionRequest is one timed entanglement-session request.
	SessionRequest = sched.Request
	// SessionOutcome is one request's admission decision.
	SessionOutcome = sched.Outcome
	// ScheduleReport aggregates an admission simulation.
	ScheduleReport = sched.Report
	// SessionWorkload parameterizes a random request stream.
	SessionWorkload = sched.Workload
)

// DefaultWorkload returns a moderate-load random session stream.
func DefaultWorkload() SessionWorkload { return sched.DefaultWorkload() }

// SimulateSessions runs the dynamic admission simulation: sessions arrive
// over time, hold their routed trees' qubits, and depart; requests that do
// not fit the residual capacity are rejected (blocked calls cleared).
func SimulateSessions(g *Graph, requests []SessionRequest, p Params) (ScheduleReport, error) {
	return sched.Simulate(g, requests, p)
}

// Tree repair after fiber failures.

// RepairOutcome reports a local repair: the fixed tree plus how many
// channels were kept vs. rerouted.
type RepairOutcome = repair.Outcome

// RepairAfterFailures keeps the surviving channels of a committed tree and
// reconnects only the pairs whose channels crossed a failed fiber, under
// the degraded network's residual capacity. degraded must already have the
// failed fibers removed (Graph.WithoutEdges).
func RepairAfterFailures(degraded *Graph, users []NodeID, sol *Solution, failed []Edge, p Params) (RepairOutcome, error) {
	return repair.AfterEdgeFailures(degraded, users, sol, failed, p)
}

// Redundant (width > 1) channels.

// RedundantSolution is an entanglement tree whose pairs may hold several
// parallel channels (the pair succeeds when any of them does).
type RedundantSolution = redundant.Solution

// BoostRedundancy converts a routed width-1 tree into a redundant one by
// greedily spending leftover switch capacity on backup channels, up to
// maxWidth channels per user pair.
func BoostRedundancy(p *Problem, base *Solution, maxWidth int) (*RedundantSolution, error) {
	return redundant.Boost(p, base, maxWidth)
}

// ValidateRedundant checks a redundant solution against the problem.
func ValidateRedundant(p *Problem, s *RedundantSolution) error { return redundant.Validate(p, s) }

// Visualization.

// DOT renders the network (and, when sol is non-nil, its routed channels)
// as Graphviz DOT.
func DOT(g *Graph, sol *Solution) string { return viz.DOT(g, sol) }

// Distributed execution.
type (
	// RuntimeConfig parameterizes a distributed §II-B execution.
	RuntimeConfig = runtime.Config
	// RuntimeReport is its outcome.
	RuntimeReport = runtime.Report
)

// RunDistributed executes the request → plan → synchronized-rounds protocol
// of the paper's §II-B on an in-process message plane, with every network
// node running as its own goroutine. It routes with the given solver and
// executes the given number of entanglement rounds.
func RunDistributed(ctx context.Context, g *Graph, solver Solver, rounds int, seed int64) (RuntimeReport, error) {
	net := transport.NewInMemory()
	defer func() { _ = net.Close() }()
	report, err := runtime.Run(ctx, net, g, runtime.Config{
		Solver: solver,
		Params: quantum.DefaultParams(),
		Rounds: rounds,
		Seed:   seed,
	})
	if err != nil {
		return RuntimeReport{}, fmt.Errorf("quantumnet: distributed run: %w", err)
	}
	return report, nil
}
