package main

import (
	"strings"
	"testing"
)

func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf strings.Builder
	err := run(args, &buf)
	return buf.String(), err
}

func TestRunInMemory(t *testing.T) {
	out, err := capture(t, "-users", "4", "-switches", "10", "-rounds", "200", "-seed", "3")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"algorithm:        alg3\n",
		"rounds executed:  200",
		"empirical rate:",
		"analytic rate:",
		"channel 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunEveryAlgorithm(t *testing.T) {
	for _, alg := range []string{"alg2", "alg3", "alg4", "eqcast", "nfusion"} {
		t.Run(alg, func(t *testing.T) {
			out, err := capture(t, "-users", "3", "-switches", "8", "-rounds", "20", "-alg", alg)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if !strings.Contains(out, "algorithm:        "+alg) {
				t.Errorf("output missing algorithm %s:\n%s", alg, out)
			}
		})
	}
}

func TestRejects(t *testing.T) {
	tests := [][]string{
		{"-alg", "bogus"},
		{"-model", "bogus"},
		{"-rounds", "0"},
	}
	for _, args := range tests {
		if _, err := capture(t, args...); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	out, err := capture(t, "-version")
	if err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.Contains(out, "quantumnet") || !strings.Contains(out, "go1.") {
		t.Fatalf("version output: %q", out)
	}
}

func TestStatsFlag(t *testing.T) {
	out, err := capture(t, "-users", "4", "-switches", "10", "-rounds", "50", "-seed", "3", "-stats")
	if err != nil {
		t.Fatalf("run -stats: %v\n%s", err, out)
	}
	if !strings.Contains(out, "solve work:") || !strings.Contains(out, "dijkstra") {
		t.Errorf("output missing solve-work counters:\n%s", out)
	}
	if strings.Contains(out, "dijkstra=0 ") {
		t.Errorf("stats sink recorded no dijkstra runs:\n%s", out)
	}
}
