// Command netsim runs the paper's §II-B distributed entanglement process
// end to end: every user and switch of a generated network runs as its own
// goroutine; users send entanglement requests to a central controller,
// which routes them with a chosen algorithm, disseminates the plan over an
// in-memory message plane, and drives synchronized entanglement rounds.
//
// Usage:
//
//	netsim [flags]
//
//	-model/-users/-switches/-degree/-qubits/-seed  as in cmd/muerp
//	-alg        routing algorithm (default alg3)
//	-rounds     synchronized entanglement rounds (default 10000)
//	-parallel   OS-thread cap for the node goroutines (default all CPUs)
//	-stats      print the controller's solve-work counters
//	-version    print build info and exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	goruntime "runtime"
	"time"

	"github.com/muerp/quantumnet/internal/buildinfo"
	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/runtime"
	"github.com/muerp/quantumnet/internal/solver"
	"github.com/muerp/quantumnet/internal/topology"
	"github.com/muerp/quantumnet/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	var (
		model    = fs.String("model", "waxman", "topology model")
		users    = fs.Int("users", 6, "number of users")
		switches = fs.Int("switches", 20, "number of switches")
		degree   = fs.Float64("degree", 6, "average node degree")
		qubits   = fs.Int("qubits", 4, "qubits per switch")
		seed     = fs.Int64("seed", 1, "RNG seed")
		alg      = fs.String("alg", "alg3", "routing algorithm")
		rounds   = fs.Int("rounds", 10000, "entanglement rounds")
		timeout  = fs.Duration("timeout", 2*time.Minute, "execution timeout")
		parallel = fs.Int("parallel", goruntime.GOMAXPROCS(0), "OS-thread cap for the node goroutines")
		stats    = fs.Bool("stats", false, "print the controller's solve-work counters")
		version  = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String())
		return nil
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1, got %d", *parallel)
	}
	// Every node runs as a goroutine, so the knob is the scheduler's thread
	// cap rather than a worker pool size.
	goruntime.GOMAXPROCS(*parallel)

	m, err := topology.ParseModel(*model)
	if err != nil {
		return err
	}
	cfg := topology.Default()
	cfg.Model = m
	cfg.Users = *users
	cfg.Switches = *switches
	cfg.AvgDegree = *degree
	cfg.SwitchQubits = *qubits
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, g)

	entry, err := solver.Get(*alg)
	if err != nil {
		return err
	}
	// runtime.Run calls the solve once and passes it no options, so the
	// run's options are closed over here: schemes that consume randomness
	// (Algorithm 4's random start) draw from a stream seeded with the run
	// seed (seed 0 leaves them deterministic), and -stats collects the
	// solve's work counters.
	opts := &core.SolveOptions{}
	if entry.ConsumesRNG && *seed != 0 {
		opts.RNG = rand.New(rand.NewSource(*seed))
	}
	var work core.SolveStats
	if *stats {
		opts.Stats = &work
	}
	solve := func(ctx context.Context, p *core.Problem, _ *core.SolveOptions) (*core.Solution, error) {
		return entry.Solve(ctx, p, opts)
	}

	net := transport.NewInMemory()
	defer func() { _ = net.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	report, err := runtime.Run(ctx, net, g, runtime.Config{
		Solver: solve,
		Params: quantum.DefaultParams(),
		Rounds: *rounds,
		Seed:   *seed,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(out, "algorithm:        %s\n", entry.Name)
	fmt.Fprintf(out, "channels routed:  %d\n", len(report.Solution.Tree.Channels))
	fmt.Fprintf(out, "rounds executed:  %d in %v\n", report.Rounds, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "tree successes:   %d\n", report.Successes)
	fmt.Fprintf(out, "empirical rate:   %.6e\n", report.EmpiricalRate())
	fmt.Fprintf(out, "analytic rate:    %.6e\n", report.AnalyticRate())
	fmt.Fprintf(out, "links attempted:  %d\n", report.LinksAttempted)
	fmt.Fprintf(out, "swaps attempted:  %d\n", report.SwapsAttempted)
	if *stats {
		fmt.Fprintf(out, "solve work:       %s\n", work.String())
	}
	for i, cs := range report.ChannelSuccess {
		ch := report.Solution.Tree.Channels[i]
		fmt.Fprintf(out, "  channel %d (%d links): %d/%d rounds (analytic %.4f)\n",
			i, ch.Links(), cs, report.Rounds, ch.Rate)
	}
	return nil
}
