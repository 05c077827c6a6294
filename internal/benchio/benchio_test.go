package benchio

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/muerp/quantumnet
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAlgorithm1ChannelSearch 	  294673	      7449 ns/op	    4464 B/op	      58 allocs/op
BenchmarkSolvers/alg2            	   29424	     81643 ns/op	   40472 B/op	     330 allocs/op
BenchmarkFig5Topology 	       2	  17527500 ns/op	 8378352 B/op	   69675 allocs/op
BenchmarkNoMem 	    1000	      1234 ns/op
PASS
ok  	github.com/muerp/quantumnet	16.464s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput), "seed")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Label != "seed" || rep.GoOS != "linux" || rep.GoArch != "amd64" {
		t.Fatalf("bad header: %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu not parsed: %q", rep.CPU)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(rep.Results), rep.Results)
	}
	first := rep.Results[0]
	if first.Name != "BenchmarkAlgorithm1ChannelSearch" || first.Iterations != 294673 ||
		first.NsPerOp != 7449 || first.BytesPerOp != 4464 || first.AllocsPerOp != 58 {
		t.Fatalf("first result wrong: %+v", first)
	}
	if got := rep.Results[1].Name; got != "BenchmarkSolvers/alg2" {
		t.Fatalf("sub-benchmark name: %q", got)
	}
	noMem := rep.Results[3]
	if noMem.BytesPerOp != -1 || noMem.AllocsPerOp != -1 || noMem.NsPerOp != 1234 {
		t.Fatalf("benchmem-less line wrong: %+v", noMem)
	}
}

func TestParseSkipsNonResultBenchmarkLines(t *testing.T) {
	rep, err := Parse(strings.NewReader("BenchmarkFoo\nBenchmarkBar-8   100   5 ns/op\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "BenchmarkBar-8" {
		t.Fatalf("want only BenchmarkBar-8, got %+v", rep.Results)
	}
}

func TestLoadUpsertSaveRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 0 {
		t.Fatalf("missing file should load empty, got %+v", f)
	}
	f.Upsert(Report{Label: "seed", Results: []Result{{Name: "B", Iterations: 1, NsPerOp: 2}}})
	f.Upsert(Report{Label: "current", Results: []Result{{Name: "B", Iterations: 1, NsPerOp: 1}}})
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}

	again, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Runs) != 2 || again.Runs[0].Label != "seed" || again.Runs[1].Label != "current" {
		t.Fatalf("round trip lost runs: %+v", again.Runs)
	}

	// Upserting an existing label replaces in place, preserving order.
	again.Upsert(Report{Label: "current", Results: []Result{{Name: "B", Iterations: 5, NsPerOp: 0.5}}})
	if len(again.Runs) != 2 || again.Runs[1].Results[0].Iterations != 5 {
		t.Fatalf("upsert did not replace: %+v", again.Runs)
	}
}

func TestCompare(t *testing.T) {
	old := Report{Label: "seed", Results: []Result{
		{Name: "BenchmarkA-8", NsPerOp: 100},
		{Name: "BenchmarkB-8", NsPerOp: 200},
		{Name: "BenchmarkGone-8", NsPerOp: 50},
	}}
	cur := Report{Label: "current", Results: []Result{
		{Name: "BenchmarkB-8", NsPerOp: 250},
		{Name: "BenchmarkA-8", NsPerOp: 90},
		{Name: "BenchmarkNew-8", NsPerOp: 7},
	}}
	deltas := Compare(old, cur)
	if len(deltas) != 2 {
		t.Fatalf("want 2 shared benchmarks, got %+v", deltas)
	}
	// Old-run order, only shared names.
	if deltas[0].Name != "BenchmarkA-8" || deltas[1].Name != "BenchmarkB-8" {
		t.Fatalf("wrong pairing order: %+v", deltas)
	}
	if deltas[0].Regressed(0.15) {
		t.Errorf("A sped up 100->90 but flagged as regressed")
	}
	if !deltas[1].Regressed(0.15) {
		t.Errorf("B slowed 200->250 (+25%%) but passed the 15%% gate")
	}
	if deltas[1].Regressed(0.30) {
		t.Errorf("B +25%% should pass a 30%% gate")
	}
}

func TestCompareDuplicateAndBadValues(t *testing.T) {
	old := Report{Results: []Result{
		{Name: "BenchmarkDup-8", NsPerOp: 10},
		{Name: "BenchmarkDup-8", NsPerOp: 99},
		{Name: "BenchmarkDup-8", NsPerOp: 12},
		{Name: "BenchmarkZero-8", NsPerOp: 0},
	}}
	cur := Report{Results: []Result{
		{Name: "BenchmarkDup-8", NsPerOp: 10},
		{Name: "BenchmarkZero-8", NsPerOp: 5},
	}}
	deltas := Compare(old, cur)
	if len(deltas) != 2 {
		t.Fatalf("want dup collapsed to one delta + zero entry, got %+v", deltas)
	}
	if deltas[0].OldNs != 12 {
		t.Errorf("repeated name should compare by its median, got OldNs=%v", deltas[0].OldNs)
	}
	// A zero baseline must read as a regression, never an improvement.
	if !deltas[1].Regressed(0.15) || !math.IsInf(deltas[1].Ratio(), 1) {
		t.Errorf("zero-baseline delta = %+v; want +Inf ratio, regressed", deltas[1])
	}
}

// A -count N run compares by the median of each name's repeats, column by
// column, on both sides; an even count takes the mean of the middle two.
func TestCompareMedianOfRepeats(t *testing.T) {
	old := Report{Results: []Result{
		{Name: "BenchmarkA-2", NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 4},
		{Name: "BenchmarkA-2", NsPerOp: 300, BytesPerOp: 64, AllocsPerOp: 4},
		{Name: "BenchmarkA-2", NsPerOp: 110, BytesPerOp: 96, AllocsPerOp: 5},
		{Name: "BenchmarkB-2", NsPerOp: 50},
		{Name: "BenchmarkB-2", NsPerOp: 70},
	}}
	cur := Report{Results: []Result{
		{Name: "BenchmarkA-2", NsPerOp: 500, BytesPerOp: 64, AllocsPerOp: 4},
		{Name: "BenchmarkA-2", NsPerOp: 115, BytesPerOp: 64, AllocsPerOp: 4},
		{Name: "BenchmarkA-2", NsPerOp: 120, BytesPerOp: 64, AllocsPerOp: 4},
		{Name: "BenchmarkB-2", NsPerOp: 61},
	}}
	deltas := Compare(old, cur)
	if len(deltas) != 2 {
		t.Fatalf("want 2 deltas, got %+v", deltas)
	}
	a, b := deltas[0], deltas[1]
	if a.OldNs != 110 || a.NewNs != 120 || a.OldBytes != 64 || a.OldAllocs != 4 {
		t.Fatalf("A paired %+v, want medians 110 -> 120 ns/op, 64 B/op, 4 allocs/op", a)
	}
	// One 500 ns/op outlier in three repeats no longer flags a regression.
	if a.Regressed(0.15) {
		t.Errorf("A median +9%% flagged as regressed: %+v", a)
	}
	if b.OldNs != 60 || b.NewNs != 61 {
		t.Fatalf("B paired %+v, want 60 -> 61 ns/op", b)
	}
}

func TestComparePairsAcrossProcSuffixes(t *testing.T) {
	old := Report{Results: []Result{{Name: "BenchmarkA/sub", NsPerOp: 100}}}
	cur := Report{Results: []Result{{Name: "BenchmarkA/sub-8", NsPerOp: 90}}}
	deltas := Compare(old, cur)
	if len(deltas) != 1 || deltas[0].NewNs != 90 {
		t.Fatalf("suffix-insensitive pairing failed: %+v", deltas)
	}
	// A digits-only final path element is not a procs suffix victim: the
	// whole name minus suffix must still be distinct names.
	if got := baseName("BenchmarkA/sub-8"); got != "BenchmarkA/sub" {
		t.Errorf("baseName = %q", got)
	}
	if got := baseName("BenchmarkA"); got != "BenchmarkA" {
		t.Errorf("baseName without suffix = %q", got)
	}
	if got := baseName("BenchmarkA-x8"); got != "BenchmarkA-x8" {
		t.Errorf("baseName with non-numeric suffix = %q", got)
	}
}

func TestCompareCarriesAllocColumns(t *testing.T) {
	old := Report{Results: []Result{
		{Name: "BenchmarkA-8", NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 4},
	}}
	cur := Report{Results: []Result{
		{Name: "BenchmarkA-8", NsPerOp: 100, BytesPerOp: 128, AllocsPerOp: 3},
	}}
	deltas := Compare(old, cur)
	if len(deltas) != 1 {
		t.Fatalf("want 1 delta, got %+v", deltas)
	}
	d := deltas[0]
	if d.OldBytes != 64 || d.NewBytes != 128 || d.OldAllocs != 4 || d.NewAllocs != 3 {
		t.Fatalf("alloc columns not carried: %+v", d)
	}
	if d.BytesRatio() != 2 || d.AllocsRatio() != 0.75 {
		t.Fatalf("ratios = %v / %v, want 2 / 0.75", d.BytesRatio(), d.AllocsRatio())
	}
}

func TestAllocRegressed(t *testing.T) {
	cases := []struct {
		name string
		d    Delta
		want bool
	}{
		{"bytes blowup", Delta{OldBytes: 100, NewBytes: 200, OldAllocs: 4, NewAllocs: 4}, true},
		{"allocs blowup", Delta{OldBytes: 100, NewBytes: 100, OldAllocs: 4, NewAllocs: 6}, true},
		{"within threshold", Delta{OldBytes: 100, NewBytes: 110, OldAllocs: 4, NewAllocs: 4}, false},
		{"improvement", Delta{OldBytes: 100, NewBytes: 50, OldAllocs: 4, NewAllocs: 1}, false},
		// A previously allocation-free benchmark that now allocates is a
		// regression no threshold forgives.
		{"zero to some", Delta{OldBytes: 0, NewBytes: 8, OldAllocs: 0, NewAllocs: 1}, true},
		{"zero to zero", Delta{OldBytes: 0, NewBytes: 0, OldAllocs: 0, NewAllocs: 0}, false},
		// -1 marks a side recorded without -benchmem: the gate stays unarmed.
		{"no old benchmem", Delta{OldBytes: -1, NewBytes: 999, OldAllocs: -1, NewAllocs: 999}, false},
		{"no new benchmem", Delta{OldBytes: 100, NewBytes: -1, OldAllocs: 4, NewAllocs: -1}, false},
	}
	for _, tc := range cases {
		if got := tc.d.AllocRegressed(0.15); got != tc.want {
			t.Errorf("%s: AllocRegressed = %v, want %v (%+v)", tc.name, got, tc.want, tc.d)
		}
	}
	// The alloc gate must not touch the ns/op verdict.
	d := Delta{OldNs: 100, NewNs: 100, OldBytes: 100, NewBytes: 500, OldAllocs: 1, NewAllocs: 9}
	if d.Regressed(0.15) {
		t.Error("ns/op gate fired on an alloc-only regression")
	}
	if !d.AllocRegressed(0.15) {
		t.Error("alloc gate missed a 5x bytes regression")
	}
}
