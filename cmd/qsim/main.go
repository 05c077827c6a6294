// Command qsim runs the discrete-time slotted entanglement simulator
// (internal/timesim) over a generated topology: per-slot link generation,
// decoherence TTLs on qubit memories, fidelity aging, purification
// scheduling, and seeded traffic models (internal/workload) driving session
// arrivals through the admission layer — the dynamic counterpart of the
// analytic experiment harness in cmd/muerp.
//
// Usage:
//
//	qsim [flags]
//
//	-model/-users/-switches/-degree/-qubits/-seed  as in cmd/muerp
//	-slots         simulated slots (default 400)
//	-arrival       traffic model: poisson | diurnal | flash (default poisson)
//	-rate          mean session arrivals per slot (default 0.3)
//	-hold          mean session hold in slots (default 25)
//	-group-min/-group-max  session size bounds (default 2..3)
//	-ttl           qubit-memory decoherence TTL in slots (default 8)
//	-gamma         Werner-parameter decay per stored slot (default 0.01)
//	-min-fidelity  delivery floor; enables purification scheduling (default 0)
//	-alg           admission scheme: greedy or a solver registry name
//	-fail-prob     per-fiber per-slot failure probability (default 0)
//	-repair-slots  slots a failed fiber stays down (default 25)
//	-parallel      > 1 seeds session RNG streams on a look-ahead goroutine;
//	               results identical at any value
//	-sweep-ttl     comma list of TTLs: emit a delivered-rate-vs-TTL CSV
//	-window        slots per load-trace bucket: emit a windowed CSV
//	-out           CSV destination for -sweep-ttl / -window
//	-append        append to -out without rewriting the header
//	-stats         print solve-work counters
//	-version       print build info and exit
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"

	"github.com/muerp/quantumnet/internal/buildinfo"
	"github.com/muerp/quantumnet/internal/fidelity"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/timesim"
	"github.com/muerp/quantumnet/internal/topology"
	"github.com/muerp/quantumnet/internal/workload"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qsim", flag.ContinueOnError)
	var (
		model    = fs.String("model", "waxman", "topology model")
		users    = fs.Int("users", 6, "number of users")
		switches = fs.Int("switches", 20, "number of switches")
		degree   = fs.Float64("degree", 6, "average node degree")
		qubits   = fs.Int("qubits", 4, "qubits per switch")
		seed     = fs.Int64("seed", 1, "RNG seed")
		slots    = fs.Int("slots", 400, "simulated slots")
		arrival  = fs.String("arrival", "poisson", "traffic model: poisson, diurnal or flash")
		rate     = fs.Float64("rate", 0.3, "mean session arrivals per slot")
		hold     = fs.Float64("hold", 25, "mean session hold in slots")
		groupMin = fs.Int("group-min", 2, "smallest session user group")
		groupMax = fs.Int("group-max", 3, "largest session user group")
		ttl      = fs.Int("ttl", 8, "qubit-memory decoherence TTL in slots")
		gamma    = fs.Float64("gamma", 0.01, "Werner decay per stored slot")
		minFid   = fs.Float64("min-fidelity", 0, "delivery fidelity floor (0 disables purification)")
		alg      = fs.String("alg", timesim.GreedyAlgorithm, "admission scheme: greedy or a solver name")
		failProb = fs.Float64("fail-prob", 0, "per-fiber per-slot failure probability")
		repSlots = fs.Int("repair-slots", 25, "slots a failed fiber stays down (<= 0: permanent)")
		parallel = fs.Int("parallel", goruntime.GOMAXPROCS(0), "> 1 seeds session RNG streams on a look-ahead goroutine (results identical at any value)")
		sweepTTL = fs.String("sweep-ttl", "", "comma-separated TTL list for a delivered-rate sweep CSV")
		window   = fs.Int("window", 0, "slots per load-trace CSV bucket (0 disables)")
		outPath  = fs.String("out", "", "CSV destination for -sweep-ttl / -window")
		appendTo = fs.Bool("append", false, "append CSV rows to -out, skipping the header")
		stats    = fs.Bool("stats", false, "print solve-work counters")
		version  = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String())
		return nil
	}
	if *sweepTTL != "" && *window > 0 {
		return fmt.Errorf("-sweep-ttl and -window are mutually exclusive")
	}
	if (*sweepTTL != "" || *window > 0) && *outPath == "" {
		return fmt.Errorf("-sweep-ttl/-window need -out")
	}

	m, err := topology.ParseModel(*model)
	if err != nil {
		return err
	}
	tcfg := topology.Default()
	tcfg.Model = m
	tcfg.Users = *users
	tcfg.Switches = *switches
	tcfg.AvgDegree = *degree
	tcfg.SwitchQubits = *qubits
	g, err := topology.Generate(tcfg, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, g)

	proc, err := workload.ParseProcess(*arrival, *rate, float64(*slots))
	if err != nil {
		return err
	}
	// Streams 3 and 4 of the run seed drive the traffic draw; the engine
	// itself derives its control and session streams from the same seed.
	arrivals, err := workload.Arrivals(proc, float64(*slots), rand.New(rand.NewSource(*seed+3)))
	if err != nil {
		return err
	}
	reqs, err := workload.Draw{MeanHold: *hold, MinUsers: *groupMin, MaxUsers: *groupMax}.
		Sessions(g, arrivals, rand.New(rand.NewSource(*seed+4)))
	if err != nil {
		return err
	}

	fid := fidelity.DefaultModel()
	fid.Gamma = *gamma
	cfg := timesim.Config{
		Graph:       g,
		Params:      quantum.DefaultParams(),
		Fid:         fid,
		Slots:       *slots,
		MemoryTTL:   *ttl,
		MinFidelity: *minFid,
		Algorithm:   *alg,
		Seed:        *seed,
		FailProb:    *failProb,
		RepairSlots: *repSlots,
		Parallelism: *parallel,
		WindowSlots: *window,
	}
	fmt.Fprintf(out, "slot engine:     %d slots, ttl %d, gamma %g, alg %s\n",
		cfg.Slots, cfg.MemoryTTL, cfg.Fid.Gamma, cfg.Algorithm)
	fmt.Fprintf(out, "arrival process: %s (mean %g/slot, peak %g/slot, %d sessions)\n",
		proc.Name(), *rate, proc.MaxRate(), len(reqs))

	if *sweepTTL != "" {
		return sweep(ctx, out, cfg, reqs, *sweepTTL, *outPath, *appendTo)
	}

	rep, err := timesim.Run(ctx, cfg, reqs)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, rep)
	if *stats {
		fmt.Fprintf(out, "solve work:      %s\n", rep.Work.String())
	}
	if *window > 0 {
		if err := writeLoadCSV(*outPath, *appendTo, proc.Name(), rep); err != nil {
			return err
		}
		fmt.Fprintf(out, "load trace:      %d windows -> %s\n", len(rep.Windows), *outPath)
	}
	return nil
}

// sweep reruns the same workload at each TTL and writes the delivered-rate
// curve. Every run reuses the full config (same seed, same requests), so
// the TTL is the only thing that varies.
func sweep(ctx context.Context, out io.Writer, cfg timesim.Config, reqs []sched.Request, list, path string, appendTo bool) error {
	var ttls []int
	for _, part := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return fmt.Errorf("bad -sweep-ttl entry %q", part)
		}
		ttls = append(ttls, v)
	}
	f, cw, err := openCSV(path, appendTo, []string{
		"ttl", "offered", "admitted", "rejected", "dropped", "delivered",
		"delivered_per_slot", "mean_fidelity", "decohered_links",
		"decohered_pairs", "purify_attempts", "purify_successes",
	})
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	for _, ttl := range ttls {
		cfg.MemoryTTL = ttl
		rep, err := timesim.Run(ctx, cfg, reqs)
		if err != nil {
			return fmt.Errorf("ttl %d: %w", ttl, err)
		}
		fmt.Fprintf(out, "ttl %3d: delivered %d (%.6g per slot), mean fidelity %.6g\n",
			ttl, rep.Delivered, rep.DeliveredPerSlot(), rep.MeanFidelity())
		if err := cw.Write([]string{
			strconv.Itoa(ttl),
			strconv.Itoa(rep.Offered),
			strconv.Itoa(rep.Admitted),
			strconv.Itoa(rep.Rejected),
			strconv.Itoa(rep.Dropped),
			strconv.FormatInt(rep.Delivered, 10),
			strconv.FormatFloat(rep.DeliveredPerSlot(), 'e', 6, 64),
			strconv.FormatFloat(rep.MeanFidelity(), 'e', 6, 64),
			strconv.FormatInt(rep.DecoheredLinks, 10),
			strconv.FormatInt(rep.DecoheredPairs, 10),
			strconv.FormatInt(rep.PurifyAttempts, 10),
			strconv.FormatInt(rep.PurifySuccesses, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	fmt.Fprintf(out, "ttl sweep:       %d points -> %s\n", len(ttls), path)
	return nil
}

// writeLoadCSV emits one row per window, tagged with the traffic model so
// several runs (diurnal, flash) can share one file via -append.
func writeLoadCSV(path string, appendTo bool, process string, rep timesim.Report) error {
	f, cw, err := openCSV(path, appendTo, []string{
		"process", "start_slot", "offered", "admitted", "rejected",
		"dropped", "delivered", "active_at_end",
	})
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	for _, w := range rep.Windows {
		if err := cw.Write([]string{
			process,
			strconv.Itoa(w.StartSlot),
			strconv.Itoa(w.Offered),
			strconv.Itoa(w.Admitted),
			strconv.Itoa(w.Rejected),
			strconv.Itoa(w.Dropped),
			strconv.Itoa(w.Delivered),
			strconv.Itoa(w.ActiveAtEnd),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// openCSV creates (or, with appendTo, extends) the CSV at path. The header
// is written only when starting a fresh file.
func openCSV(path string, appendTo bool, header []string) (*os.File, *csv.Writer, error) {
	flags := os.O_CREATE | os.O_WRONLY
	if appendTo {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, err
	}
	cw := csv.NewWriter(f)
	needHeader := !appendTo
	if appendTo {
		if st, err := f.Stat(); err == nil && st.Size() == 0 {
			needHeader = true
		}
	}
	if needHeader {
		if err := cw.Write(header); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	return f, cw, nil
}
