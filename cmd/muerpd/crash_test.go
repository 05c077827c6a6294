package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// daemon is one muerpd process under test control.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	out  *syncBuffer
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "muerpd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	var out syncBuffer
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return &daemon{cmd: cmd, base: "http://" + string(b), out: &out}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its address; output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill sends SIGKILL — no drain, no final snapshot; recovery must come from
// the WAL alone.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_, _ = d.cmd.Process.Wait()
}

type metricsDoc struct {
	Sessions struct {
		Active int `json:"active"`
	} `json:"sessions"`
	Ledger struct {
		UsedQubits int `json:"used_qubits"`
	} `json:"ledger"`
	Durability *struct {
		Recovery struct {
			WALRecords int64 `json:"wal_records"`
			Sessions   int   `json:"sessions"`
		} `json:"recovery"`
	} `json:"durability"`
}

func getMetrics(t *testing.T, base string) metricsDoc {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var m metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return m
}

// TestCrashRecovery is the end-to-end durability check on the real binary:
// admit ~20 long-TTL sessions over HTTP, SIGKILL the process, restart it on
// the same data directory, and require every admitted session to be
// queryable again with identical ledger occupancy.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	topoArgs := []string{"-users", "10", "-switches", "30", "-seed", "3", "-data-dir", dataDir}

	d1 := startDaemon(t, bin, topoArgs...)

	// Discover user IDs from the served topology.
	resp, err := http.Get(d1.base + "/topology")
	if err != nil {
		t.Fatalf("GET /topology: %v", err)
	}
	var topo struct {
		Nodes []struct {
			Kind string `json:"kind"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatalf("decode topology: %v", err)
	}
	_ = resp.Body.Close()
	var users []int // node IDs are positions in the nodes array
	for id, n := range topo.Nodes {
		if n.Kind == "user" {
			users = append(users, id)
		}
	}
	if len(users) < 2 {
		t.Fatalf("topology has %d users", len(users))
	}

	// Admit sessions two users at a time until 20 hold capacity; TTLs far
	// exceed the test so none expires before the comparison.
	admitted := make(map[string]bool)
	for i := 0; len(admitted) < 20 && i < 200; i++ {
		pair := []int{users[i%len(users)], users[(i+1+i/len(users))%len(users)]}
		if pair[0] == pair[1] {
			continue
		}
		body, _ := json.Marshal(map[string]interface{}{"users": pair, "ttl_ms": 300000})
		resp, err := http.Post(d1.base+"/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /sessions: %v", err)
		}
		if resp.StatusCode == http.StatusCreated {
			var created struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
				t.Fatalf("decode session: %v", err)
			}
			admitted[created.ID] = true
		}
		_ = resp.Body.Close()
	}
	if len(admitted) < 20 {
		t.Fatalf("only %d sessions admitted; topology too tight for the test", len(admitted))
	}
	before := getMetrics(t, d1.base)
	if before.Sessions.Active != len(admitted) {
		t.Fatalf("daemon reports %d active sessions, admitted %d", before.Sessions.Active, len(admitted))
	}

	d1.kill(t)

	// Same binary, same data dir, same topology flags (the pinned topology
	// guards against drift).
	d2 := startDaemon(t, bin, topoArgs...)
	after := getMetrics(t, d2.base)
	if after.Durability == nil {
		t.Fatal("restarted daemon reports no durability section")
	}
	if after.Durability.Recovery.Sessions != len(admitted) || after.Durability.Recovery.WALRecords == 0 {
		t.Fatalf("recovery metrics %+v, want %d sessions from a WAL replay", after.Durability.Recovery, len(admitted))
	}
	if after.Sessions.Active != before.Sessions.Active {
		t.Fatalf("active sessions: %d before crash, %d after recovery", before.Sessions.Active, after.Sessions.Active)
	}
	if after.Ledger.UsedQubits != before.Ledger.UsedQubits {
		t.Fatalf("ledger occupancy: %d qubits before crash, %d after recovery", before.Ledger.UsedQubits, after.Ledger.UsedQubits)
	}
	for id := range admitted {
		resp, err := http.Get(fmt.Sprintf("%s/sessions/%s", d2.base, id))
		if err != nil {
			t.Fatalf("GET /sessions/%s: %v", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s lost across crash: status %d", id, resp.StatusCode)
		}
		_ = resp.Body.Close()
	}
}
