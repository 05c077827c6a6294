// Package benchio parses `go test -bench` text output into structured
// records and maintains BENCH_kernel.json, the repo's committed
// benchmark-results file. The file holds labeled runs (e.g. "seed" for the
// pre-optimization baseline and "current" for the tree as committed) so
// perf changes ship with their own before/after evidence; `benchstat`
// remains the tool of choice for statistically sound comparisons of raw
// bench output, this file is the committed summary.
package benchio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line: name, iteration count, and the per-op
// metrics emitted under -benchmem. BytesPerOp/AllocsPerOp are -1 when the
// line carried no -benchmem columns.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is one labeled benchmark run: the environment header `go test`
// prints plus every benchmark line parsed from the output.
type Report struct {
	Label   string   `json:"label"`
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// File is the BENCH_kernel.json document: an append-only list of runs.
type File struct {
	Runs []Report `json:"runs"`
}

// Parse reads `go test -bench` output and returns the environment header
// plus one Result per benchmark line. Non-benchmark lines (PASS, ok,
// test log output) are skipped.
func Parse(r io.Reader, label string) (Report, error) {
	rep := Report{Label: label}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok, err := parseLine(line)
			if err != nil {
				return Report{}, err
			}
			if ok {
				rep.Results = append(rep.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// parseLine decodes one benchmark result line of the form
//
//	BenchmarkName-8   1000  1234 ns/op  56 B/op  7 allocs/op
//
// ok is false for Benchmark* lines that are not result lines (e.g. the
// bare name `go test -v` prints before running one).
func parseLine(line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[2] != "ns/op" && !isMetric(fields) {
		return Result{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false, nil // "BenchmarkX" alone or malformed: skip
	}
	res := Result{Name: fields[0], Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	// Metrics come as value/unit pairs after the iteration count.
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if res.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, false, fmt.Errorf("benchio: bad ns/op in %q: %w", line, err)
			}
		case "B/op":
			if res.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false, fmt.Errorf("benchio: bad B/op in %q: %w", line, err)
			}
		case "allocs/op":
			if res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false, fmt.Errorf("benchio: bad allocs/op in %q: %w", line, err)
			}
		}
	}
	return res, true, nil
}

// isMetric reports whether the fields after the iteration count look like
// value/unit metric pairs.
func isMetric(fields []string) bool {
	for _, f := range fields[2:] {
		if strings.HasSuffix(f, "/op") {
			return true
		}
	}
	return false
}

// Load reads a BENCH file; a missing file is an empty one.
func Load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return File{}, nil
	}
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("benchio: %s: %w", path, err)
	}
	return f, nil
}

// Upsert replaces the run with rep's label, or appends it when the label
// is new, so regenerating "current" does not grow the file unboundedly.
func (f *File) Upsert(rep Report) {
	for i := range f.Runs {
		if f.Runs[i].Label == rep.Label {
			f.Runs[i] = rep
			return
		}
	}
	f.Runs = append(f.Runs, rep)
}

// Delta is one benchmark present in both of two compared runs, with its
// ns/op and allocation columns before and after. The allocation columns
// carry -1 when that side was recorded without -benchmem; comparisons that
// involve a -1 side never gate.
type Delta struct {
	Name      string
	OldNs     float64
	NewNs     float64
	OldBytes  int64
	NewBytes  int64
	OldAllocs int64
	NewAllocs int64
}

// Ratio is NewNs/OldNs: >1 means the benchmark got slower. A zero or
// negative old value (malformed input) yields +Inf so it is never silently
// treated as an improvement.
func (d Delta) Ratio() float64 {
	if d.OldNs <= 0 {
		return math.Inf(1)
	}
	return d.NewNs / d.OldNs
}

// Regressed reports whether the benchmark slowed down by more than the
// given fraction (0.15 = fail on >15% slower).
func (d Delta) Regressed(threshold float64) bool {
	return d.Ratio() > 1+threshold
}

// allocRatio compares one allocation column pair: NaN when either side
// lacks -benchmem data, +Inf when a previously allocation-free benchmark
// now allocates (old 0 with new > 0 is always a report-worthy regression).
func allocRatio(old, new int64) float64 {
	if old < 0 || new < 0 {
		return math.NaN()
	}
	if old == 0 {
		if new == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(new) / float64(old)
}

// BytesRatio is NewBytes/OldBytes (see allocRatio for the -1/0 edges).
func (d Delta) BytesRatio() float64 { return allocRatio(d.OldBytes, d.NewBytes) }

// AllocsRatio is NewAllocs/OldAllocs (see allocRatio for the -1/0 edges).
func (d Delta) AllocsRatio() float64 { return allocRatio(d.OldAllocs, d.NewAllocs) }

// AllocRegressed reports whether bytes/op or allocs/op grew by more than
// the given fraction. Benchmarks without -benchmem data on either side
// (column -1) never regress — the gate only arms once a baseline with
// allocation counts is committed.
func (d Delta) AllocRegressed(threshold float64) bool {
	if r := d.BytesRatio(); !math.IsNaN(r) && r > 1+threshold {
		return true
	}
	if r := d.AllocsRatio(); !math.IsNaN(r) && r > 1+threshold {
		return true
	}
	return false
}

// Compare pairs benchmarks by name across two runs and returns a Delta for
// every name present in both, in the old run's order. Names are matched
// with the `-N` GOMAXPROCS suffix stripped, so a baseline recorded on one
// core count still pairs with a run from another machine. Benchmarks only
// one side has are ignored: a renamed or newly added bench is not a
// regression. A name repeated on one side (`go test -count N`) is compared
// by the median of its repeats, column by column.
func Compare(old, new Report) []Delta {
	oldRes, newRes := medians(old), medians(new)
	var deltas []Delta
	seen := make(map[string]bool, len(old.Results))
	for _, r := range old.Results {
		key := baseName(r.Name)
		nr, shared := newRes[key]
		if !shared || seen[key] {
			continue
		}
		seen[key] = true
		or := oldRes[key]
		deltas = append(deltas, Delta{
			Name:      r.Name,
			OldNs:     or.NsPerOp,
			NewNs:     nr.NsPerOp,
			OldBytes:  or.BytesPerOp,
			NewBytes:  nr.BytesPerOp,
			OldAllocs: or.AllocsPerOp,
			NewAllocs: nr.AllocsPerOp,
		})
	}
	return deltas
}

// medians folds a run's repeated results by base name into one Result whose
// ns/op, B/op and allocs/op are each the median of the repeats (the mean of
// the two middle values for an even count).
func medians(rep Report) map[string]Result {
	groups := make(map[string][]Result, len(rep.Results))
	for _, r := range rep.Results {
		key := baseName(r.Name)
		groups[key] = append(groups[key], r)
	}
	out := make(map[string]Result, len(groups))
	for key, rs := range groups {
		col := func(get func(Result) float64) float64 {
			v := make([]float64, len(rs))
			for i, r := range rs {
				v[i] = get(r)
			}
			sort.Float64s(v)
			n := len(v)
			return (v[(n-1)/2] + v[n/2]) / 2
		}
		out[key] = Result{
			NsPerOp:     col(func(r Result) float64 { return r.NsPerOp }),
			BytesPerOp:  int64(col(func(r Result) float64 { return float64(r.BytesPerOp) })),
			AllocsPerOp: int64(col(func(r Result) float64 { return float64(r.AllocsPerOp) })),
		}
	}
	return out
}

// baseName strips the trailing -N procs suffix `go test -bench` appends
// ("BenchmarkX/sub-8" -> "BenchmarkX/sub").
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// Save writes the file as indented JSON with a trailing newline.
func (f File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
