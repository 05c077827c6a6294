package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/graph"
)

// syncBuffer is a bytes.Buffer safe to read while a running daemon writes
// its output into it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestVersionFlag(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-version"}, &buf); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.Contains(buf.String(), "quantumnet") || !strings.Contains(buf.String(), "go1.") {
		t.Fatalf("version output: %q", buf.String())
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "bogus"},
		{"-users", "1"},
		{"-q", "7"},
		{"-addr", "127.0.0.1:0", "-in", "/does/not/exist.json"},
		{"-workers", "4"},        // removed: batches are decided serially
		{"-solve-cache", "64"},   // removed with the solve cache
		{"-batch-wait", "2ms"},   // removed: a batch is what is already queued
		{"-cross-retries", "3"},  // removed with the sharded plane
		{"-shards", "4"},         // removed with the sharded plane
		{"-partition-seed", "1"}, // removed with the sharded plane
	} {
		var buf strings.Builder
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRefusesShardedDataDir points the daemon at a data directory holding a
// sharded daemon's pinned partition: it must fail to start, naming the
// marker, instead of serving an empty ledger.
func TestRefusesShardedDataDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "partition.json"), []byte(`{"k":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A daemon that boots anyway serves until the deadline and returns nil.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var buf strings.Builder
	err := run(ctx, []string{"-addr", "127.0.0.1:0", "-data-dir", dir}, &buf)
	if err == nil || !strings.Contains(err.Error(), "partition.json") {
		t.Fatalf("run on a sharded data dir: %v, want an error naming partition.json", err)
	}
}

// TestServeAndGracefulShutdown boots the daemon on a random port, drives
// one admission round trip over real HTTP, then cancels the context (the
// signal path) and requires a clean drain with a final summary.
func TestServeAndGracefulShutdown(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-users", "6", "-switches", "12", "-ttl", "500ms",
		}, &buf)
	}()

	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its address; output:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	_ = resp.Body.Close()

	// User IDs are shuffled across the generated topology; discover them.
	topoResp, err := http.Get(base + "/topology")
	if err != nil {
		t.Fatalf("GET /topology: %v", err)
	}
	g, err := graph.ReadJSON(topoResp.Body)
	_ = topoResp.Body.Close()
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	users := g.Users()
	if len(users) < 2 {
		t.Fatalf("topology has %d users", len(users))
	}

	body, err := json.Marshal(map[string]interface{}{
		"users":  users[:2],
		"ttl_ms": 200,
	})
	if err != nil {
		t.Fatalf("marshal body: %v", err)
	}
	resp, err = http.Post(base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sessions: %v", err)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	var created struct {
		ID string `json:"id"`
	}
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatalf("decode session: %v", err)
		}
	}
	_ = resp.Body.Close()

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var m struct {
		Requests struct {
			Total int64 `json:"total"`
		} `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	_ = resp.Body.Close()
	if m.Requests.Total == 0 {
		t.Fatal("metrics saw no requests")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v; output:\n%s", err, buf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not shut down within 10s; output:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "final admission summary:") ||
		!strings.Contains(buf.String(), "acceptance ratio:") {
		t.Fatalf("missing final summary:\n%s", buf.String())
	}
}

// TestQoSConfigStartup boots the daemon with a tenant policy file, checks
// the structured "muerpd config" line reports the effective configuration,
// and drives a tenant-tagged session whose identity shows up in /metrics.
func TestQoSConfigStartup(t *testing.T) {
	dir := t.TempDir()
	qosFile := filepath.Join(dir, "tenants.json")
	policy := `{"tenants":[{"id":"gold","weight":3,"priority":1},{"id":"bronze"}]}`
	if err := os.WriteFile(qosFile, []byte(policy), 0o644); err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-qos-config", qosFile,
			"-users", "6", "-switches", "12",
		}, &buf)
	}()

	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its address; output:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	base := "http://" + addr

	// The structured config line: a JSON object after a fixed prefix,
	// reflecting the normalized tenant count (gold, bronze + default).
	var cfgLine string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "muerpd config "); ok {
			cfgLine = rest
			break
		}
	}
	if cfgLine == "" {
		t.Fatalf("no structured config line in output:\n%s", buf.String())
	}
	var eff struct {
		Addr      string `json:"addr"`
		Batch     int    `json:"batch"`
		Tenants   int    `json:"tenants"`
		QoSConfig string `json:"qos_config"`
	}
	if err := json.Unmarshal([]byte(cfgLine), &eff); err != nil {
		t.Fatalf("config line is not JSON: %v\n%s", err, cfgLine)
	}
	if eff.Addr != addr || eff.Tenants != 3 || eff.QoSConfig != qosFile || eff.Batch != 16 {
		t.Fatalf("config line fields: %+v", eff)
	}
	// Every batch is decided serially from what is queued: the line names no
	// scheduler, worker count, solve cache or batch-fill wait.
	var fields map[string]any
	if err := json.Unmarshal([]byte(cfgLine), &fields); err != nil {
		t.Fatalf("config line is not a JSON object: %v", err)
	}
	for _, gone := range []string{"scheduler", "workers", "solve_cache", "batch_wait_ns"} {
		if _, ok := fields[gone]; ok {
			t.Fatalf("config line still carries %q: %s", gone, cfgLine)
		}
	}

	topoResp, err := http.Get(base + "/topology")
	if err != nil {
		t.Fatalf("GET /topology: %v", err)
	}
	g, err := graph.ReadJSON(topoResp.Body)
	_ = topoResp.Body.Close()
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	users := g.Users()
	body, _ := json.Marshal(map[string]interface{}{
		"users": users[:2], "ttl_ms": 60000, "tenant": "gold",
	})
	resp, err := http.Post(base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sessions: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var m struct {
		Tenants []struct {
			ID       string `json:"id"`
			Accepted int64  `json:"accepted"`
			Rejected int64  `json:"rejected"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	_ = resp.Body.Close()
	var sawGold bool
	for _, tm := range m.Tenants {
		if tm.ID == "gold" && tm.Accepted+tm.Rejected == 1 {
			sawGold = true
		}
	}
	if !sawGold {
		t.Fatalf("gold tenant missing from /metrics tenants: %+v", m.Tenants)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v; output:\n%s", err, buf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not shut down within 10s; output:\n%s", buf.String())
	}

	// A bad policy file must refuse to start.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"tenants":[{"id":""}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var errBuf strings.Builder
	if err := run(context.Background(), []string{
		"-addr", "127.0.0.1:0", "-qos-config", bad, "-users", "6", "-switches", "12",
	}, &errBuf); err == nil {
		t.Fatal("daemon started with an invalid qos config")
	}
}

// -pprof must serve the profiler on its own listener and keep it off the
// service API surface.
func TestPprofSideListener(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-pprof", "127.0.0.1:0",
			"-users", "6", "-switches", "12",
		}, &buf)
	}()

	readAddr := func(path string) string {
		deadline := time.Now().Add(15 * time.Second)
		for {
			if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
				return string(b)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never appeared", path)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	apiAddr := readAddr(addrFile)
	pprofAddr := readAddr(addrFile + ".pprof")

	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET pprof cmdline: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status = %d", resp.StatusCode)
	}

	resp, err = http.Get("http://" + apiAddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET service /debug/pprof/: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("profiler leaked onto the service API listener")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v; output:\n%s", err, buf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not shut down within 10s; output:\n%s", buf.String())
	}
}
