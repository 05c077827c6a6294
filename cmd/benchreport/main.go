// Command benchreport folds `go test -bench` text output into the repo's
// committed benchmark-results file (BENCH_kernel.json by default), and
// diffs two results files for CI regression gating.
//
// Usage:
//
//	go test -bench Kernel -benchmem ./... > bench.txt
//	go run ./cmd/benchreport -label current -o BENCH_kernel.json bench.txt [more.txt...]
//
// All input files are concatenated into one labeled run; a run with the
// same label already in the output file is replaced, so `make bench` can
// refresh "current" idempotently while "seed" stays untouched.
//
// Diff mode:
//
//	go run ./cmd/benchreport -check [-against LABEL] old.json new.json
//
// compares a baseline run from old.json against the newest run in new.json
// benchmark-by-benchmark and exits non-zero when any benchmark present in
// both slowed down by more than -threshold (default 0.15 = 15%) in ns/op,
// B/op or allocs/op. The allocation gates only arm when both sides carry
// -benchmem columns, so baselines recorded without them keep gating on
// ns/op alone. A benchmark repeated on one side (`go test -count N`) is
// compared by the median of its repeats. Benchmarks only one side has are
// reported but never fail the check. The
// baseline is the run named by -against when given; otherwise the newest
// run in old.json that shares at least one benchmark with the new run (a
// results file accumulates runs covering different benchmark suites —
// kernel, admission, speculation — so the file's newest run need not
// overlap the suite under test).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/muerp/quantumnet/internal/benchio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")
	label := flag.String("label", "current", "label for this run in the results file")
	out := flag.String("o", "BENCH_kernel.json", "results file to update")
	check := flag.Bool("check", false, "diff mode: compare two results files instead of ingesting bench output")
	threshold := flag.Float64("threshold", 0.15, "with -check, fail on ns/op regressions above this fraction")
	against := flag.String("against", "", "with -check, compare against this labeled run of old.json (default: newest overlapping run)")
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			log.Fatal("usage: benchreport -check [-threshold FRAC] [-against LABEL] old.json new.json")
		}
		os.Exit(runCheck(flag.Arg(0), flag.Arg(1), *against, *threshold))
	}

	if flag.NArg() == 0 {
		log.Fatal("usage: benchreport [-label NAME] [-o FILE] bench-output.txt...")
	}

	var merged benchio.Report
	for i, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := benchio.Parse(f, *label)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		if i == 0 {
			merged = rep
		} else {
			merged.Results = append(merged.Results, rep.Results...)
		}
	}
	if len(merged.Results) == 0 {
		log.Fatal("no benchmark results found in input")
	}

	file, err := benchio.Load(*out)
	if err != nil {
		log.Fatal(err)
	}
	file.Upsert(merged)
	if err := file.Save(*out); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d results as %q to %s (%d runs total)",
		len(merged.Results), *label, *out, len(file.Runs))
}

// runCheck diffs a baseline run of oldPath against the newest run of
// newPath and returns the process exit code: 0 when no shared benchmark
// regressed past the threshold, 1 otherwise.
func runCheck(oldPath, newPath, against string, threshold float64) int {
	newRun := lastRun(newPath)
	oldRun := baselineRun(oldPath, against, newRun)
	deltas := benchio.Compare(oldRun, newRun)
	if len(deltas) == 0 {
		log.Fatalf("no shared benchmarks between %s (%q) and %s (%q)",
			oldPath, oldRun.Label, newPath, newRun.Label)
	}

	fmt.Printf("comparing %q (%s) -> %q (%s), threshold %+.0f%% (ns/op, B/op, allocs/op)\n",
		oldRun.Label, oldPath, newRun.Label, newPath, threshold*100)
	regressed := 0
	for _, d := range deltas {
		verdict := "ok"
		switch {
		case d.Regressed(threshold):
			verdict = "REGRESSED"
			regressed++
		case d.AllocRegressed(threshold):
			verdict = "REGRESSED(alloc)"
			regressed++
		}
		fmt.Printf("  %-60s %12.0f -> %12.0f ns/op  %+6.1f%%%s  %s\n",
			d.Name, d.OldNs, d.NewNs, (d.Ratio()-1)*100, allocCols(d), verdict)
	}
	if regressed > 0 {
		fmt.Printf("%d of %d shared benchmarks regressed >%.0f%%\n",
			regressed, len(deltas), threshold*100)
		return 1
	}
	fmt.Printf("all %d shared benchmarks within threshold\n", len(deltas))
	return 0
}

// allocCols renders a delta's allocation movement, empty when either side
// was recorded without -benchmem.
func allocCols(d benchio.Delta) string {
	if d.OldBytes < 0 || d.NewBytes < 0 {
		return ""
	}
	return fmt.Sprintf("  %d -> %d B/op  %d -> %d allocs/op",
		d.OldBytes, d.NewBytes, d.OldAllocs, d.NewAllocs)
}

// lastRun loads a results file and returns its newest (last) run.
func lastRun(path string) benchio.Report {
	f, err := benchio.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	if len(f.Runs) == 0 {
		log.Fatalf("%s holds no benchmark runs", path)
	}
	return f.Runs[len(f.Runs)-1]
}

// baselineRun picks the comparison baseline out of a results file: the
// newest run with the requested label, or — with no label — the newest run
// sharing at least one benchmark with the run under test.
func baselineRun(path, label string, newRun benchio.Report) benchio.Report {
	f, err := benchio.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	if len(f.Runs) == 0 {
		log.Fatalf("%s holds no benchmark runs", path)
	}
	labels := make([]string, 0, len(f.Runs))
	for i := len(f.Runs) - 1; i >= 0; i-- {
		run := f.Runs[i]
		labels = append(labels, fmt.Sprintf("%q", run.Label))
		if label != "" {
			if run.Label == label {
				return run
			}
			continue
		}
		if len(benchio.Compare(run, newRun)) > 0 {
			return run
		}
	}
	if label != "" {
		log.Fatalf("%s holds no run labeled %q (have %s)", path, label, strings.Join(labels, ", "))
	}
	log.Fatalf("no run in %s shares benchmarks with %q (have %s)", path, newRun.Label, strings.Join(labels, ", "))
	return benchio.Report{}
}
