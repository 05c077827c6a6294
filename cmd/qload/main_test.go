package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/service"
)

func testDaemon(t *testing.T) string {
	t.Helper()
	g := graph.New(6, 8)
	for i := 0; i < 4; i++ {
		g.AddUser(float64(i)*1000, 0)
	}
	g.AddSwitch(1500, 1000, 8)
	g.AddSwitch(1500, 2000, 8)
	for u := graph.NodeID(0); u < 4; u++ {
		g.MustAddEdge(u, 4, 1200)
		g.MustAddEdge(u, 5, 1400)
	}
	s, err := service.New(service.Config{Graph: g})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// testQoSDaemon boots the small daemon with a tenant policy: "hog" is on a
// tight quota, "calm" is unlimited.
func testQoSDaemon(t *testing.T) string {
	t.Helper()
	g := graph.New(6, 8)
	for i := 0; i < 4; i++ {
		g.AddUser(float64(i)*1000, 0)
	}
	g.AddSwitch(1500, 1000, 8)
	g.AddSwitch(1500, 2000, 8)
	for u := graph.NodeID(0); u < 4; u++ {
		g.MustAddEdge(u, 4, 1200)
		g.MustAddEdge(u, 5, 1400)
	}
	s, err := service.New(service.Config{Graph: g, QoS: &qos.Config{
		Tenants: []qos.TenantSpec{
			{ID: "hog", RatePerSec: 2, Burst: 1},
			{ID: "calm", Weight: 2},
		},
	}})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestParseTenantMix(t *testing.T) {
	mix, err := parseTenantMix("gold=3, bronze=1,plain")
	if err != nil {
		t.Fatalf("parseTenantMix: %v", err)
	}
	want := []tenantWeight{{"gold", 3}, {"bronze", 1}, {"plain", 1}}
	if fmt.Sprint(mix) != fmt.Sprint(want) {
		t.Fatalf("mix = %v, want %v", mix, want)
	}
	for _, bad := range []string{"", "=3", "a=0", "a=-1", "a=x", ","} {
		if _, err := parseTenantMix(bad); err == nil {
			t.Errorf("parseTenantMix(%q) succeeded", bad)
		}
	}

	// Assignment is deterministic for a seed and respects the weights.
	names := assignTenants(4000, mix, rand.New(rand.NewSource(7)))
	again := assignTenants(4000, mix, rand.New(rand.NewSource(7)))
	counts := map[string]int{}
	for i, n := range names {
		if n != again[i] {
			t.Fatal("assignTenants is not deterministic")
		}
		counts[n]++
	}
	if counts["gold"] < 2*counts["bronze"] || counts["bronze"] == 0 || counts["plain"] == 0 {
		t.Fatalf("weighted draw looks wrong: %v", counts)
	}
}

// TestTenantMixAgainstQoSDaemon replays a weighted two-tenant mix into a
// daemon whose "hog" tenant has a tight quota: the per-tenant breakdown must
// show hog throttled and calm untouched, and the server tenants section must
// agree.
func TestTenantMixAgainstQoSDaemon(t *testing.T) {
	addr := testQoSDaemon(t)
	var buf strings.Builder
	err := run(context.Background(), []string{
		"-addr", addr, "-sessions", "24", "-unit", "1ms",
		"-tenants", "hog=3,calm=1", "-min-accepted", "1",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"tenant breakdown:", "throttled 429:", "server tenants:", "hog", "calm"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "throttled 429:  0\n") {
		t.Errorf("hog quota never tripped:\n%s", out)
	}
}

// TestRetryHonorsRetryAfter sends an all-hog mix with a retry budget: the
// requests bounced by the quota must wait out Retry-After, land on a
// refilled bucket, and be reported as retried-then-accepted.
func TestRetryHonorsRetryAfter(t *testing.T) {
	addr := testQoSDaemon(t)
	var buf strings.Builder
	err := run(context.Background(), []string{
		"-addr", addr, "-sessions", "8", "-unit", "1ms",
		"-tenants", "hog", "-retry", "1", "-min-accepted", "2",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	var retried int
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "retried-then-accepted: "); ok {
			if _, err := fmt.Sscanf(rest, "%d", &retried); err != nil {
				t.Fatalf("bad retried line %q", line)
			}
		}
	}
	if retried < 1 {
		t.Fatalf("no request was retried then accepted:\n%s", out)
	}
}

func TestVersionFlag(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-version"}, &buf); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.Contains(buf.String(), "quantumnet") {
		t.Fatalf("version output: %q", buf.String())
	}
}

func TestRequiresAddr(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), nil, &buf); err == nil {
		t.Fatal("run without -addr succeeded")
	}
}

func TestReplayAgainstDaemon(t *testing.T) {
	addr := testDaemon(t)
	var buf strings.Builder
	err := run(context.Background(), []string{
		"-addr", addr, "-sessions", "25", "-unit", "2ms", "-min-accepted", "1",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"accepted:", "infeasible:", "latency:", "server batches:", "acceptance ratio:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"speculation:", "solve cache:", "footprint pool:", "shard breakdown", "router:"} {
		if strings.Contains(out, gone) {
			t.Errorf("removed %q line still printed:\n%s", gone, out)
		}
	}
}

// -affinity went with the sharded plane: it is an unknown flag now.
func TestRejectsRemovedFlags(t *testing.T) {
	var buf strings.Builder
	err := run(context.Background(), []string{"-addr", testDaemon(t), "-affinity", "0.5"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-affinity") {
		t.Fatalf("want an unknown-flag error for -affinity, got %v", err)
	}
}

// -arrival swaps the replay's traffic model: each named process must run to
// completion and report itself in the summary; an unknown one is a usage
// error.
func TestArrivalProcessSelection(t *testing.T) {
	for _, proc := range []string{"poisson", "diurnal", "flash"} {
		// A fresh daemon per process: flash packs every arrival into one
		// short burst, so sessions still held from a previous replay would
		// leave it nothing to admit.
		addr := testDaemon(t)
		var buf strings.Builder
		err := run(context.Background(), []string{
			"-addr", addr, "-sessions", "12", "-unit", "1ms",
			"-arrival", proc, "-min-accepted", "1",
		}, &buf)
		if err != nil {
			t.Fatalf("%s: run: %v\n%s", proc, err, buf.String())
		}
		if !strings.Contains(buf.String(), "arrival process: "+proc) {
			t.Errorf("%s: summary does not report the process:\n%s", proc, buf.String())
		}
	}
	var buf strings.Builder
	err := run(context.Background(), []string{
		"-addr", testDaemon(t), "-sessions", "2", "-unit", "1ms", "-arrival", "bursty",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "bursty") {
		t.Fatalf("want unknown-process error, got %v", err)
	}
}

func TestMinAcceptedGate(t *testing.T) {
	addr := testDaemon(t)
	var buf strings.Builder
	// 26 sessions cannot all be accepted on an 8+8-qubit network with long
	// holds relative to the replay, but demanding more accepts than
	// sessions is a guaranteed failure either way — the gate must trip.
	err := run(context.Background(), []string{
		"-addr", addr, "-sessions", "5", "-unit", time.Millisecond.String(), "-min-accepted", "6",
	}, &buf)
	if err == nil {
		t.Fatal("min-accepted gate did not trip")
	}
}
