package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the benchmark must honour.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each passes its output checks and emits exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds muerpd and runs every workload")
	}
	d := loadDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range d.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		want[1][m.Name] = m.Unit
	}

	dir := t.TempDir()
	muerpd := filepath.Join(dir, "muerpd")
	build := exec.Command("go", "build", "-o", muerpd, "github.com/muerp/quantumnet/cmd/muerpd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build muerpd: %v\n%s", err, out)
	}
	for _, w := range names {
		for _, trace := range []int{0, 1} {
			var buf bytes.Buffer
			args := []string{"-root", dir, "-muerpd", muerpd, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace]}
			code, err := run(args, &buf)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if code != 0 || err != nil {
				t.Fatalf("%s trace=%d: exit %d, %v\n%s", w, trace, code, err, buf.String())
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for name, v := range res.Metrics {
				got[name] = v.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace=%d: metrics %v, declared %v", w, trace, got, want[trace])
			}
		}
	}
}

// TestStreamDeterminism checks that a seed alone fixes every workload's
// input: the same seed gives the same requests, another seed other ones.
func TestStreamDeterminism(t *testing.T) {
	for name, tc := range map[string]struct {
		net netSpec
		tr  traffic
	}{
		"http-light":      {paperNet, lightTraffic},
		"sharded-flash":   {bigNet, shardedTraffic},
		"durable-poisson": {bigNet, durableTraffic},
	} {
		g, err := tc.net.generate()
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := makeStream(tc.tr, g, 7, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := makeStream(tc.tr, g, 7, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := makeStream(tc.tr, g, 8, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams (%d and %d requests)", name, len(a), len(b))
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
		if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].at < a[j].at }) {
			t.Errorf("%s: due times are not in order", name)
		}
		for _, r := range a {
			if r.ttl < time.Millisecond || r.ttl < r.hold || r.ttl%time.Millisecond != 0 {
				t.Fatalf("%s: request %d holds %v but carries TTL %v", name, r.id, r.hold, r.ttl)
			}
		}
	}

	g, err := bigNet.generate()
	if err != nil {
		t.Fatal(err)
	}
	a, err := qsimJob(g, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := qsimJob(g, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Error("qsim-flash: seed 7 gave two different jobs")
	}
}

func TestWireTTL(t *testing.T) {
	for _, tc := range []struct{ hold, want time.Duration }{
		{0, time.Millisecond},
		{300 * time.Microsecond, time.Millisecond},
		{time.Millisecond, time.Millisecond},
		{1001 * time.Microsecond, 2 * time.Millisecond},
		{20 * time.Millisecond, 20 * time.Millisecond},
	} {
		if got := wireTTL(tc.hold); got != tc.want {
			t.Errorf("wireTTL(%v) = %v, want %v", tc.hold, got, tc.want)
		}
	}
}
