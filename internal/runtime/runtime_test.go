package runtime

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/baseline"
	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/transport"
)

// testNet builds a 3-user network with two switch paths.
func testNet(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5, 6)
	g.AddUser(0, 0)
	g.AddUser(4000, 0)
	g.AddUser(2000, 3000)
	g.AddSwitch(1500, 500, 8)
	g.AddSwitch(2500, 1500, 8)
	for _, e := range [][2]graph.NodeID{{0, 3}, {3, 1}, {3, 4}, {4, 2}, {1, 4}} {
		a, b := g.Node(e[0]), g.Node(e[1])
		g.MustAddEdge(e[0], e[1], math.Hypot(a.X-b.X, a.Y-b.Y))
	}
	return g
}

func testConfig(rounds int) Config {
	return Config{
		Solver: core.SolverFunc{ID: "alg3", Fn: core.SolveConflictFreeContext},
		Params: quantum.DefaultParams(),
		Rounds: rounds,
		Seed:   42,
	}
}

func runCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRunInMemoryProducesReport(t *testing.T) {
	g := testNet(t)
	net := transport.NewInMemory()
	defer func() { _ = net.Close() }()
	report, err := Run(runCtx(t), net, g, testConfig(500))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if report.Rounds != 500 {
		t.Fatalf("Rounds = %d, want 500", report.Rounds)
	}
	if report.Solution == nil || report.Solution.Algorithm != "alg3" {
		t.Fatalf("Solution = %+v", report.Solution)
	}
	if len(report.ChannelSuccess) != len(report.Solution.Tree.Channels) {
		t.Fatalf("ChannelSuccess tracks %d channels, want %d",
			len(report.ChannelSuccess), len(report.Solution.Tree.Channels))
	}
	if report.Successes < 0 || report.Successes > report.Rounds {
		t.Fatalf("Successes = %d out of %d", report.Successes, report.Rounds)
	}
	links := 0
	for _, ch := range report.Solution.Tree.Channels {
		links += ch.Links()
	}
	if report.LinksAttempted != links*report.Rounds {
		t.Fatalf("LinksAttempted = %d, want %d", report.LinksAttempted, links*report.Rounds)
	}
	// Every channel's individual success count is at least the tree's.
	for i, cs := range report.ChannelSuccess {
		if cs < report.Successes {
			t.Fatalf("channel %d succeeded %d < tree successes %d", i, cs, report.Successes)
		}
	}
}

func TestRunEmpiricalMatchesAnalytic(t *testing.T) {
	g := testNet(t)
	net := transport.NewInMemory()
	defer func() { _ = net.Close() }()
	cfg := testConfig(6000)
	report, err := Run(runCtx(t), net, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := report.AnalyticRate()
	se := math.Sqrt(p * (1 - p) / float64(report.Rounds))
	if diff := math.Abs(report.EmpiricalRate() - p); diff > 5*se+1e-9 {
		t.Fatalf("empirical %g vs analytic %g (diff %g, se %g)",
			report.EmpiricalRate(), p, diff, se)
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	g := testNet(t)
	run := func() Report {
		net := transport.NewInMemory()
		defer func() { _ = net.Close() }()
		report, err := Run(runCtx(t), net, g, testConfig(2000))
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	a, b := run(), run()
	if a.Successes != b.Successes {
		t.Fatalf("same seed, different successes: %d vs %d", a.Successes, b.Successes)
	}
	for i := range a.ChannelSuccess {
		if a.ChannelSuccess[i] != b.ChannelSuccess[i] {
			t.Fatalf("channel %d: %d vs %d", i, a.ChannelSuccess[i], b.ChannelSuccess[i])
		}
	}
}

func TestRunWithNFusionMeasurementFactor(t *testing.T) {
	g := testNet(t)
	net := transport.NewInMemory()
	defer func() { _ = net.Close() }()
	cfg := testConfig(6000)
	cfg.Solver = core.SolverFunc{ID: "nfusion", Fn: baseline.SolveNFusionContext}
	report, err := Run(runCtx(t), net, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Solution.MeasurementFactor >= 1 {
		t.Fatalf("n-fusion factor = %g, want < 1", report.Solution.MeasurementFactor)
	}
	p := report.AnalyticRate()
	se := math.Sqrt(p * (1 - p) / float64(report.Rounds))
	if diff := math.Abs(report.EmpiricalRate() - p); diff > 5*se+1e-9 {
		t.Fatalf("empirical %g vs analytic %g", report.EmpiricalRate(), p)
	}
}

func TestRunConfigValidation(t *testing.T) {
	g := testNet(t)
	net := transport.NewInMemory()
	defer func() { _ = net.Close() }()
	tests := []struct {
		name string
		mod  func(*Config)
	}{
		{"nil solver", func(c *Config) { c.Solver = nil }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"bad params", func(c *Config) { c.Params = quantum.Params{} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(10)
			tc.mod(&cfg)
			if _, err := Run(runCtx(t), net, g, cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	if _, err := Run(runCtx(t), nil, g, testConfig(10)); err == nil {
		t.Fatal("nil network accepted")
	}
	userless := graph.New(1, 0)
	userless.AddSwitch(0, 0, 4)
	if _, err := Run(runCtx(t), net, userless, testConfig(10)); err == nil {
		t.Fatal("userless graph accepted")
	}
}

func TestRunInfeasibleRouting(t *testing.T) {
	// Users in two disconnected islands: the controller's solver fails and
	// Run must surface ErrInfeasible without hanging or leaking goroutines.
	g := graph.New(4, 2)
	g.AddUser(0, 0)
	g.AddUser(1, 0)
	g.AddUser(100, 100)
	g.AddSwitch(0.5, 0.5, 4)
	g.MustAddEdge(0, 3, 50)
	g.MustAddEdge(3, 1, 50)
	net := transport.NewInMemory()
	defer func() { _ = net.Close() }()
	_, err := Run(runCtx(t), net, g, testConfig(10))
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	g := testNet(t)
	net := transport.NewInMemory()
	defer func() { _ = net.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the protocol even starts
	_, err := Run(ctx, net, g, testConfig(1000))
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
}

func TestRunSequentialExecutionsOnFreshPlanes(t *testing.T) {
	// Distinct runs need distinct endpoint names; fresh networks per run is
	// the supported pattern.
	g := testNet(t)
	for i := 0; i < 3; i++ {
		net := transport.NewInMemory()
		if _, err := Run(runCtx(t), net, g, testConfig(50)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		_ = net.Close()
	}
}

func TestReportAccessorsOnZeroValue(t *testing.T) {
	var r Report
	if r.EmpiricalRate() != 0 {
		t.Error("zero report empirical rate != 0")
	}
	if r.AnalyticRate() != 0 {
		t.Error("zero report analytic rate != 0")
	}
}

func TestRunWithEverySolver(t *testing.T) {
	g := testNet(t)
	solvers := []core.Solver{
		core.SolverFunc{ID: "alg2", Fn: core.SolveOptimalContext}, // testNet switches have 8 >= 2|U| = 6 qubits
		core.SolverFunc{ID: "alg3", Fn: core.SolveConflictFreeContext},
		core.Prim(7),
		core.SolverFunc{ID: "eqcast", Fn: baseline.SolveEQCastContext},
		core.SolverFunc{ID: "nfusion", Fn: baseline.SolveNFusionContext},
	}
	for _, solver := range solvers {
		t.Run(solver.Name(), func(t *testing.T) {
			net := transport.NewInMemory()
			defer func() { _ = net.Close() }()
			cfg := testConfig(200)
			cfg.Solver = solver
			report, err := Run(runCtx(t), net, g, cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if report.Solution.Algorithm != solver.Name() {
				t.Fatalf("executed %q, want %q", report.Solution.Algorithm, solver.Name())
			}
			if report.Rounds != 200 {
				t.Fatalf("Rounds = %d", report.Rounds)
			}
		})
	}
}
