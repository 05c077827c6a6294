// Command qrecover replays a muerpd data directory offline: it rebuilds the
// admission state from the newest snapshot plus the WAL suffix — exactly
// the recovery a daemon boot performs — then cross-checks it before anyone
// restarts on top of it.
//
// Usage:
//
//	qrecover -data-dir DIR [-json] [-at RFC3339]
//
// The topology and physical parameters are read from the files muerpd
// pinned in the directory, so no generation flags are needed. Checks:
//
//   - every recovered session's tree revalidates against the topology
//     (quantum.ValidateTree: spanning, capacity, Eq. 1 rates),
//   - re-reserving every session's channels on a fresh ledger reproduces
//     the recovered per-switch occupancy exactly,
//   - session IDs are below the recovered ID counter.
//
// A directory written by a sharded daemon (one with a partition.json,
// per-shard wal/wal-s* streams or snap/s* directories) is refused: the
// sharded plane is gone and nothing recovers its streams.
//
// Exit status 0 means the directory recovers cleanly; 1 means it does not
// (corrupt log, divergent occupancy, invalid tree). -json dumps the full
// recovered state for diffing; -at reports which sessions would already be
// expired at the given instant.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qrecover:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qrecover", flag.ContinueOnError)
	var (
		dataDir  = fs.String("data-dir", "", "muerpd data directory to recover (required)")
		asJSON   = fs.Bool("json", false, "dump the recovered state as JSON")
		atFlag   = fs.String("at", "", "report expiries as of this RFC3339 instant (default: now)")
		noVerify = fs.Bool("no-verify", false, "skip the cross-checks; only replay")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	at := time.Now()
	if *atFlag != "" {
		var err error
		if at, err = time.Parse(time.RFC3339, *atFlag); err != nil {
			return fmt.Errorf("parse -at: %w", err)
		}
	}

	g, params, err := loadPinned(*dataDir)
	if err != nil {
		return err
	}

	t0 := time.Now()
	rec, err := service.Recover(*dataDir, g)
	if err != nil {
		return err
	}
	st := rec.State
	dur := time.Since(t0)
	used := 0
	for _, id := range g.Switches() {
		used += g.Node(id).Qubits - st.Ledger.Free[id]
	}
	expired := 0
	for _, ss := range st.Sessions {
		if !ss.Info.ExpiresAt.After(at) {
			expired++
		}
	}
	fmt.Fprintf(out, "recovered %s in %v\n", *dataDir, dur.Round(time.Microsecond))
	if rec.SnapshotPath != "" {
		fmt.Fprintf(out, "  snapshot:  %s (covers %d records)\n", rec.SnapshotPath, rec.SnapshotSeq)
	} else {
		fmt.Fprintf(out, "  snapshot:  none (full WAL replay)\n")
	}
	fmt.Fprintf(out, "  wal:       %d records replayed, next seq %d\n", rec.WALRecords, rec.NextSeq)
	fmt.Fprintf(out, "  sessions:  %d live (%d already expired at %s)\n", len(st.Sessions), expired, at.Format(time.RFC3339))
	// Tenant-tagged WAL records (DESIGN.md §11) surface here as a per-tenant
	// census; directories written before the QoS layer have only untagged
	// sessions and keep the old report shape.
	byTenant := map[string]int{}
	for _, ss := range st.Sessions {
		name := ss.Info.Tenant
		if name == "" {
			name = "default"
		}
		byTenant[name]++
	}
	if len(byTenant) > 1 || (len(byTenant) == 1 && byTenant["default"] == 0) {
		names := make([]string, 0, len(byTenant))
		for name := range byTenant {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "  tenants:  ")
		for i, name := range names {
			if i > 0 {
				fmt.Fprintf(out, ",")
			}
			fmt.Fprintf(out, " %s=%d", name, byTenant[name])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  ledger:    %d qubits reserved, closure gen %d (%d closed)\n", used, st.Ledger.Gen, len(st.Ledger.Closed))

	if !*noVerify {
		if err := service.VerifyState(g, params, st); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Fprintf(out, "  verify:    trees valid, occupancy matches, IDs consistent\n")
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	return nil
}

// loadPinned reads the topology and parameters muerpd stored alongside the
// WAL, so the tool replays against exactly the environment that wrote it.
func loadPinned(dataDir string) (*graph.Graph, quantum.Params, error) {
	f, err := os.Open(service.TopologyPath(dataDir))
	if err != nil {
		return nil, quantum.Params{}, fmt.Errorf("no pinned topology (is this a muerpd -data-dir?): %w", err)
	}
	defer func() { _ = f.Close() }()
	g, err := graph.ReadJSON(f)
	if err != nil {
		return nil, quantum.Params{}, fmt.Errorf("read pinned topology: %w", err)
	}
	raw, err := os.ReadFile(service.ParamsPath(dataDir))
	if err != nil {
		return nil, quantum.Params{}, fmt.Errorf("read pinned params: %w", err)
	}
	var params quantum.Params
	if err := json.Unmarshal(raw, &params); err != nil {
		return nil, quantum.Params{}, fmt.Errorf("parse pinned params: %w", err)
	}
	return g, params, nil
}
