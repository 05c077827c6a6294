package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/service"
)

// star builds 4 users around one roomy switch so several sessions fit.
func star(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5, 4)
	g.AddUser(0, 0)
	g.AddUser(2000, 0)
	g.AddUser(0, 2000)
	g.AddUser(2000, 2000)
	g.AddSwitch(1000, 1000, 8)
	for u := graph.NodeID(0); u < 4; u++ {
		g.MustAddEdge(u, 4, 1500)
	}
	return g
}

func TestRecoverToolVerifiesLiveDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := service.New(service.Config{Graph: star(t), DataDir: dir, MaxTTL: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	var last string
	for i := 0; i < 3; i++ {
		info, err := s.Submit(context.Background(), []graph.NodeID{0, 1, 2, 3}[:2+i%2], time.Hour)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		last = info.ID
	}
	if err := s.Delete(last); err != nil {
		t.Fatalf("delete: %v", err)
	}

	// Builds with a solve cache left a warm set beside the snapshots;
	// the tool must ignore it.
	warm := []byte(`{"sets":[[0,1],[0,1,2]]}`)
	if err := os.MkdirAll(filepath.Join(dir, "snap"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap", "cachewarm.json"), warm, 0o644); err != nil {
		t.Fatal(err)
	}

	// The WAL holds every acknowledged record (Submit waits for the fsync),
	// so the tool can replay the directory while the daemon still runs.
	var out bytes.Buffer
	if err := run([]string{"-data-dir", dir}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "sessions:  2 live") {
		t.Fatalf("expected 2 live sessions in report:\n%s", text)
	}
	if !strings.Contains(text, "verify:") {
		t.Fatalf("verification did not run:\n%s", text)
	}

	// -json appends a machine-readable dump matching the live state.
	out.Reset()
	if err := run([]string{"-data-dir", dir, "-json"}, &out); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	blob := out.String()
	var st service.State
	if err := json.Unmarshal([]byte(blob[strings.Index(blob, "{"):]), &st); err != nil {
		t.Fatalf("decode dump: %v", err)
	}
	want, err := json.Marshal(s.StateDump())
	if err != nil {
		t.Fatalf("marshal live state: %v", err)
	}
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("re-marshal dump: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("tool state differs from live state\nlive: %s\ntool: %s", want, got)
	}
}

// TestRecoverToolTenantCensus writes tenant-tagged sessions into a durable
// directory and checks the report adds a per-tenant census line; the plain
// test above keeps the old untagged shape (no tenants line).
func TestRecoverToolTenantCensus(t *testing.T) {
	dir := t.TempDir()
	s, err := service.New(service.Config{
		Graph: star(t), DataDir: dir, MaxTTL: time.Hour,
		QoS: &qos.Config{Tenants: []qos.TenantSpec{{ID: "gold"}, {ID: "bronze"}}},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	for _, tenant := range []string{"gold", "gold", "bronze"} {
		if _, err := s.SubmitTenant(context.Background(), tenant, []graph.NodeID{0, 1}, time.Hour); err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-data-dir", dir}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "tenants:   gold=2, bronze=1") &&
		!strings.Contains(out.String(), "bronze=1, gold=2") {
		t.Fatalf("missing tenant census:\n%s", out.String())
	}
}

func TestRecoverToolRejectsNonDataDir(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-data-dir", t.TempDir()}, &out); err == nil {
		t.Fatal("run accepted a directory without a pinned topology")
	}
	if err := run([]string{}, &out); err == nil {
		t.Fatal("run accepted a missing -data-dir")
	}
}

// TestRecoverToolRefusesShardedDirectory plants each marker a sharded
// daemon leaves — a per-shard WAL stream segment, a per-shard snapshot
// directory, a pinned partition — into a data directory with live sessions:
// the tool must fail and name the marker instead of reporting a recovery
// that skipped the shards' records.
func TestRecoverToolRefusesShardedDirectory(t *testing.T) {
	for _, marker := range []string{
		filepath.Join("wal", "wal-s00000000-0000000000000000.log"),
		filepath.Join("snap", "s00"),
		"partition.json",
	} {
		dir := t.TempDir()
		s, err := service.New(service.Config{Graph: star(t), DataDir: dir, MaxTTL: time.Hour})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := s.Submit(context.Background(), []graph.NodeID{0, 1}, time.Hour); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		path := filepath.Join(dir, marker)
		if filepath.Base(marker) == "s00" {
			err = os.MkdirAll(path, 0o755)
		} else {
			err = os.WriteFile(path, nil, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = run([]string{"-data-dir", dir}, &out)
		if err == nil || !strings.Contains(err.Error(), marker) {
			t.Errorf("%s: run = %v, want an error naming the marker\n%s", marker, err, out.String())
		}
	}
}
