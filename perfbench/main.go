// Command perfbench is the repository's end-to-end benchmark of record. One
// invocation runs one workload for a fixed wall-clock budget, checks that the
// system's outputs are correct, and prints one JSON result line:
//
//	perfbench -root <repo> -muerpd <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// perfbench/run.sh builds both binaries from source and runs this command.
//
// Workloads (see workloads below for the exact traffic):
//
//	http-light       muerpd subprocess, shipped defaults, Poisson 300 req/s over HTTP
//	sharded-flash    in-process 4-shard ShardedServer, two QoS tenants, flash arrivals
//	durable-poisson  in-process Server with a fresh fsync'd data dir, Poisson 500 req/s
//	qsim-flash       timesim.Run jobs on flash arrivals with purification and fiber repair
//
// With --trace 0 the result carries the end-to-end metrics (endToEnd). With
// --trace 1 the same traffic is replayed through each layer's public entry
// points with spans recorded around every call, and the result carries the
// per-layer metrics (perLayer); the spans are written to .bench_build/trace.
// Every metric is emitted on every workload: a layer a workload does not
// exercise reports zero work.
//
// The daemon-facing workloads are open loops: each request is due at a time
// drawn from the seeded arrival process, is timed from that due time, and the
// benchmark reports how late its own generator ran (loadgen.late_p99_ms).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer are every metric the benchmark emits, with its
// unit. BENCHMARK.json at the repository root declares the same names; the
// tests keep the two in step.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"latency_p50_ms": "ms",
	"latency_p99_ms": "ms",
	"decided_per_s":  "1/s",
	"accept_ratio":   "ratio",
	"ok_ratio":       "ratio",
	"peak_rss_mb":    "MB",
}

var perLayer = map[string]string{
	"loadgen.late_p99_ms":            "ms",
	"http.roundtrip_p50_us":          "us",
	"http.serve_p50_us":              "us",
	"http.self_p50_us":               "us",
	"service.submit_p50_us":          "us",
	"service.submit_p99_us":          "us",
	"service.queue_self_mean_us":     "us",
	"service.batch_mean":             "count",
	"service.solve_mean_us":          "us",
	"speculation.wasted_ratio":       "ratio",
	"solvecache.hit_rate":            "ratio",
	"core.new_problem_p50_us":        "us",
	"core.build_p50_us":              "us",
	"core.build_p99_us":              "us",
	"core.dijkstra_per_solve":        "count",
	"quantum.peak_used_qubits":       "count",
	"quantum.fp_reuse":               "ratio",
	"router.cross_rate":              "ratio",
	"router.single_p50_us":           "us",
	"router.cross_p50_us":            "us",
	"router.conflicts_per_1k":        "count",
	"router.global_fallbacks":        "count",
	"qos.gold_p99_ms":                "ms",
	"qos.bronze_p99_ms":              "ms",
	"wal.sync_mean_ms":               "ms",
	"wal.sync_p99_ms":                "ms",
	"wal.records_per_sync":           "count",
	"wal.syncs_per_decision":         "count",
	"wal.compactions":                "count",
	"wal.append_p50_us":              "us",
	"timesim.link_attempts_per_slot": "1/slot",
	"timesim.purify_rounds_per_slot": "1/slot",
	"timesim.repairs":                "count",
	"timesim.dijkstra_per_admit":     "count",
	"timesim.run_s_par1":             "s",
	"timesim.delivered_per_slot":     "1/slot",
	"workload.draw_ms":               "ms",
	"trace.overhead_p50_ms":          "ms",
}

// options are one invocation's settings.
type options struct {
	root     string // repository root: build outputs and traces go under root/.bench_build
	muerpd   string // muerpd binary for http-light
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	// failures lists the output checks that did not hold; any entry makes the
	// run incorrect.
	failures []string
	metrics  map[string]float64
	// budget is the stage-budget table a traced daemon workload prints.
	budget *budget
	// daemonConfig is http-light's "muerpd config" line.
	daemonConfig string
	// notes are printed before the result line.
	notes []string
}

func (o *outcome) check(ok bool, format string, args ...interface{}) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(opts options, out *outcome) error

// workloads maps each workload name to its runner. Why each exists is
// recorded in BENCHMARK.json.
var workloads = map[string]workloadFunc{
	"http-light":      runHTTPLight,
	"sharded-flash":   runShardedFlash,
	"durable-poisson": runDurablePoisson,
	"qsim-flash":      runQsimFlash,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opts options
	var trace int
	fs.StringVar(&opts.root, "root", ".", "repository root")
	fs.StringVar(&opts.muerpd, "muerpd", "", "muerpd binary (http-light)")
	fs.StringVar(&opts.workload, "workload", "", "workload name")
	fs.Int64Var(&opts.seed, "seed", 1, "workload seed")
	fs.IntVar(&opts.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	wf, ok := workloads[opts.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	if opts.seconds < 1 {
		return 2, fmt.Errorf("--seconds %d must be at least 1", opts.seconds)
	}
	if trace != 0 && trace != 1 {
		return 2, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	opts.trace = trace == 1
	root, err := filepath.Abs(opts.root)
	if err != nil {
		return 2, err
	}
	opts.root = root

	out := &outcome{metrics: map[string]float64{}}
	if err := wf(opts, out); err != nil {
		return 1, err
	}
	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	for name := range want {
		if _, ok := out.metrics[name]; !ok {
			out.failures = append(out.failures, "metric "+name+" was not measured")
		}
	}

	lab := collectLabels(opts, out.daemonConfig)
	if out.budget != nil {
		out.budget.print(stdout)
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "check failed:", f)
	}
	res := result{Correct: len(out.failures) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if res.Correct {
		for name, unit := range want {
			res.Metrics[name] = metricValue{Value: out.metrics[name], Unit: unit}
		}
	}
	if err := saveResult(opts, lab, res, out.budget); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: save result:", err)
	}
	lb, err := json.Marshal(lab)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "perfbench labels %s\n", lb)
	rb, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	if !res.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildDir is the benchmark's scratch area inside the repository root.
func buildDir(opts options, sub string) string {
	return filepath.Join(opts.root, ".bench_build", sub)
}

// saveResult keeps the run's labels, result and stage budget next to the
// traces, so a labelled record of every run survives the run.
func saveResult(opts options, lab labels, res result, b *budget) error {
	dir := buildDir(opts, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(struct {
		Labels labels  `json:"labels"`
		Result result  `json:"result"`
		Budget *budget `json:"stage_budget,omitempty"`
	}{lab, res, b}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", opts.workload, opts.seed, boolInt(opts.trace),
		time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), doc, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
