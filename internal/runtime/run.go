package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/transport"
)

// Config parameterizes one distributed entanglement execution.
type Config struct {
	// Solver computes the routing plan from the collected requests. It is
	// called once, with nil SolveOptions; a caller that wants randomness or
	// work counters closes over its own.
	Solver core.SolveFunc
	// Params are the physical-layer constants shared by all nodes.
	Params quantum.Params
	// Rounds is the number of synchronized entanglement rounds to run.
	Rounds int
	// Seed derives every node's private random stream; a fixed seed makes
	// the whole distributed execution reproducible regardless of message
	// timing, because each node draws in plan order.
	Seed int64
}

// Report is the outcome of a distributed execution.
type Report struct {
	// Solution is the plan the controller computed from the requests.
	Solution *core.Solution
	// Rounds is the number of rounds executed.
	Rounds int
	// Successes counts rounds in which the full entanglement tree came up.
	Successes int
	// ChannelSuccess counts successful rounds per channel.
	ChannelSuccess []int
	// LinksAttempted and SwapsAttempted total the quantum operations
	// performed (swaps are only attempted when both adjacent links
	// heralded success).
	LinksAttempted int
	SwapsAttempted int
}

// EmpiricalRate returns the measured end-to-end entanglement rate.
func (r Report) EmpiricalRate() float64 {
	if r.Rounds == 0 {
		return 0
	}
	return float64(r.Successes) / float64(r.Rounds)
}

// AnalyticRate returns the Eq. 2 prediction for the executed plan.
func (r Report) AnalyticRate() float64 {
	if r.Solution == nil {
		return 0
	}
	return r.Solution.Rate()
}

// Run executes the full §II-B protocol on the given network graph over the
// message plane: it joins a controller and one endpoint per graph node,
// lets the users request entanglement, routes with cfg.Solver, executes
// cfg.Rounds synchronized rounds, and returns the aggregate report.
//
// Run blocks until every goroutine it spawned has exited. Cancel ctx to
// abort a hung execution (e.g. if a transport endpoint dies); nodes and
// controller all unblock on cancellation.
func Run(ctx context.Context, net transport.Network, g *graph.Graph, cfg Config) (Report, error) {
	if net == nil || g == nil {
		return Report{}, errors.New("runtime: nil network or graph")
	}
	if cfg.Solver == nil {
		return Report{}, errors.New("runtime: config needs a solver")
	}
	if cfg.Rounds <= 0 {
		return Report{}, fmt.Errorf("runtime: rounds must be positive, got %d", cfg.Rounds)
	}
	if err := cfg.Params.Validate(); err != nil {
		return Report{}, err
	}
	if len(g.Users()) == 0 {
		return Report{}, errors.New("runtime: graph has no users")
	}

	ctrlConn, err := net.Join(ControllerName)
	if err != nil {
		return Report{}, fmt.Errorf("runtime: controller join: %w", err)
	}
	defer func() { _ = ctrlConn.Close() }()

	// Join every node before any goroutine starts, so all sends find their
	// peers registered.
	nodes := make([]*node, 0, g.NumNodes())
	for _, n := range g.Nodes() {
		nd, err := newNode(net, n, cfg.Seed)
		if err != nil {
			for _, prev := range nodes {
				_ = prev.conn.Close()
			}
			return Report{}, err
		}
		nodes = append(nodes, nd)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	nodeErrs := make(chan error, len(nodes))
	for _, nd := range nodes {
		wg.Add(1)
		go func(nd *node) {
			defer wg.Done()
			defer func() { _ = nd.conn.Close() }()
			if err := nd.run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				nodeErrs <- err
			}
		}(nd)
	}

	ctrl := &controller{
		conn: ctrlConn,
		g:    g,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
	}
	report, ctrlErr := runController(ctx, ctrl)

	// Whatever happened, tell every node to stop, then wait for them.
	_ = ctrl.broadcast(KindStop, nil)
	cancel()
	wg.Wait()
	close(nodeErrs)

	if ctrlErr != nil {
		return Report{}, ctrlErr
	}
	for err := range nodeErrs {
		if err != nil {
			return Report{}, fmt.Errorf("runtime: node failure: %w", err)
		}
	}
	return report, nil
}

// runController executes the controller's three phases.
func runController(ctx context.Context, ctrl *controller) (Report, error) {
	users, err := ctrl.collectRequests(ctx)
	if err != nil {
		return Report{}, err
	}
	prob, err := core.NewProblem(ctrl.g, users, ctrl.cfg.Params)
	if err != nil {
		return Report{}, fmt.Errorf("runtime: building problem: %w", err)
	}
	sol, err := ctrl.cfg.Solver(ctx, prob, nil)
	if err != nil {
		return Report{}, fmt.Errorf("runtime: routing: %w", err)
	}
	if err := prob.Validate(sol); err != nil {
		return Report{}, fmt.Errorf("runtime: solver produced an invalid plan: %w", err)
	}
	report := Report{Solution: sol, Rounds: ctrl.cfg.Rounds}
	if err := ctrl.runRounds(ctx, sol, &report); err != nil {
		return Report{}, err
	}
	return report, nil
}
