// Command muerpd is the online entanglement-routing daemon: it loads (or
// generates) a quantum network, owns a live capacity ledger over it, and
// serves entanglement-session requests over HTTP/JSON, deciding whatever is
// queued in micro-batches (see internal/service and DESIGN.md §6).
//
// Usage:
//
//	muerpd [flags]
//
//	-addr        listen address (default 127.0.0.1:8089; use :0 for a random port)
//	-addr-file   write the bound address to this file (for scripts/CI)
//	-model/-users/-switches/-degree/-qubits/-seed  as in cmd/muerp
//	-in          load topology JSON instead of generating
//	-q/-alpha    physical parameters as in cmd/muerp
//	-queue       admission queue bound          (default 256)
//	-batch       max admission batch size       (default 16)
//	-ttl         default session TTL            (default 30s)
//	-max-ttl     TTL cap                        (default 10m)
//	-shards      admission shards; >1 partitions the topology into regions,
//	             runs one admission plane per region and two-phase-commits
//	             cross-region sessions (DESIGN.md §9; default 1)
//	-partition-seed  region partitioner seed    (default 1)
//	-cross-retries   cross-region re-solve budget before the global
//	             fallback (default 3)
//	-data-dir    durable state directory (WAL + snapshots); crash recovery
//	             restores every live session on restart (empty = in-memory)
//	-snapshot-every / -snapshot-interval  snapshot cadence
//	-qos-config  tenant QoS policy JSON ({"tenants":[...]}) for the DWRR
//	             admission queue (DESIGN.md §11). With -data-dir the
//	             effective policy is pinned in the data directory and a
//	             restart with a different policy refuses to start. Empty =
//	             the queue's one-tenant case: every request on the default
//	             tenant, no quota, depth -queue.
//	-pprof       expose net/http/pprof on this side address (e.g.
//	             127.0.0.1:6060; empty = off). The profiler listens on its
//	             own socket, never on the service API. With -addr-file the
//	             bound profiler address is written to <addr-file>.pprof.
//	             See EXPERIMENTS.md for the profiling workflow.
//	-version     print build info and exit
//
// API: POST /sessions {"users":[...],"ttl_ms":n,"tenant":"name"} → 201
// (admitted), 409 (infeasible now), 429 + Retry-After (queue full or tenant
// over quota); GET|DELETE
// /sessions/{id}; GET /metrics; GET /topology; GET /healthz. SIGTERM or
// SIGINT drains queued requests, releases the listener and exits cleanly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the DefaultServeMux for the -pprof side listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/muerp/quantumnet/internal/buildinfo"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/service"
	"github.com/muerp/quantumnet/internal/topology"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "muerpd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("muerpd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8089", "listen address (use :0 for a random port)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file")
		model     = fs.String("model", "waxman", "topology model")
		users     = fs.Int("users", 10, "number of users")
		switches  = fs.Int("switches", 30, "number of switches")
		degree    = fs.Float64("degree", 6, "average node degree")
		qubits    = fs.Int("qubits", 4, "qubits per switch")
		seed      = fs.Int64("seed", 1, "RNG seed")
		inFile    = fs.String("in", "", "load topology JSON instead of generating")
		swapProb  = fs.Float64("q", 0.9, "BSM swap success probability")
		alpha     = fs.Float64("alpha", 1e-4, "fiber attenuation per km")
		queueSize = fs.Int("queue", 256, "admission queue bound")
		batch     = fs.Int("batch", 16, "max admission batch size")
		ttl       = fs.Duration("ttl", 30*time.Second, "default session TTL")
		maxTTL    = fs.Duration("max-ttl", 10*time.Minute, "session TTL cap")
		shards    = fs.Int("shards", 1, "admission shards (>1 partitions the topology into regions)")
		partSeed  = fs.Int64("partition-seed", 1, "region partitioner seed")
		crossTry  = fs.Int("cross-retries", 3, "cross-region re-solve budget before the global fallback")
		dataDir   = fs.String("data-dir", "", "durable state directory (WAL + snapshots); empty = in-memory only")
		snapEvery = fs.Int("snapshot-every", 1024, "snapshot after this many WAL records")
		snapInt   = fs.Duration("snapshot-interval", 30*time.Second, "snapshot at least this often")
		qosFile   = fs.String("qos-config", "", "tenant QoS policy JSON (empty = single default tenant)")
		pprofAddr = fs.String("pprof", "", "expose net/http/pprof on this side address (empty = off)")
		version   = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String())
		return nil
	}

	g, err := loadOrGenerate(*inFile, *model, *users, *switches, *degree, *qubits, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, g)

	var qcfg *qos.Config
	if *qosFile != "" {
		qcfg, err = qos.Load(*qosFile)
		if err != nil {
			return err
		}
	}

	base := service.Config{
		Graph:            g,
		Params:           quantum.Params{Alpha: *alpha, SwapProb: *swapProb},
		QueueSize:        *queueSize,
		MaxBatch:         *batch,
		DefaultTTL:       *ttl,
		MaxTTL:           *maxTTL,
		DataDir:          *dataDir,
		SnapshotEvery:    *snapEvery,
		SnapshotInterval: *snapInt,
		QoS:              qcfg,
	}
	// One daemon, two shapes: the single admission plane, or -shards region
	// planes behind the cross-region router. Both serve the same API.
	var (
		handler   http.Handler
		closeSvc  func() error
		admission func() string
	)
	if *shards > 1 {
		svc, err := service.NewSharded(service.ShardedConfig{
			Config:        base,
			Shards:        *shards,
			PartitionSeed: *partSeed,
			CrossRetries:  *crossTry,
		})
		if err != nil {
			return err
		}
		part := svc.Partition()
		fmt.Fprintf(out, "partitioned into %d regions (seed=%d boundary=%d cut=%d)\n",
			part.K, part.Seed, len(part.Boundary), part.CutEdges)
		handler = svc.Handler()
		closeSvc = svc.Close
		admission = func() string { return svc.Metrics().Admission.String() }
	} else {
		svc, err := service.New(base)
		if err != nil {
			return err
		}
		handler = svc.Handler()
		closeSvc = svc.Close
		admission = func() string { return svc.Metrics().Admission.String() }
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = closeSvc()
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := writeFileAtomic(*addrFile, []byte(bound)); err != nil {
			_ = ln.Close()
			_ = closeSvc()
			return fmt.Errorf("write addr file: %w", err)
		}
	}
	// The profiler gets its own socket so /debug/pprof/ never leaks onto the
	// service API; the blank net/http/pprof import put its handlers on the
	// DefaultServeMux, which only this listener serves.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			_ = ln.Close()
			_ = closeSvc()
			return fmt.Errorf("pprof listen: %w", err)
		}
		defer func() { _ = pln.Close() }()
		if *addrFile != "" {
			if err := writeFileAtomic(*addrFile+".pprof", []byte(pln.Addr().String())); err != nil {
				_ = ln.Close()
				_ = closeSvc()
				return fmt.Errorf("write pprof addr file: %w", err)
			}
		}
		go func() { _ = http.Serve(pln, nil) }()
		fmt.Fprintf(out, "pprof listening on http://%s/debug/pprof/\n", pln.Addr())
	}
	// One structured line with the effective configuration — everything the
	// daemon actually runs with, after defaulting. Scripts and log scrapers
	// match the "muerpd config " prefix and parse the JSON tail.
	tenants := 0
	if qcfg != nil {
		tenants = len(qcfg.Normalized().Tenants)
	}
	eff, err := json.Marshal(struct {
		Addr      string        `json:"addr"`
		Shards    int           `json:"shards"`
		Queue     int           `json:"queue"`
		Batch     int           `json:"batch"`
		TTL       time.Duration `json:"ttl_ns"`
		MaxTTL    time.Duration `json:"max_ttl_ns"`
		DataDir   string        `json:"data_dir,omitempty"`
		SnapEvery int           `json:"snapshot_every,omitempty"`
		QoSConfig string        `json:"qos_config,omitempty"`
		Tenants   int           `json:"tenants,omitempty"`
		Pprof     bool          `json:"pprof,omitempty"`
	}{
		Addr: bound, Shards: *shards,
		Queue: *queueSize, Batch: *batch,
		TTL: *ttl, MaxTTL: *maxTTL, DataDir: *dataDir, SnapEvery: *snapEvery,
		QoSConfig: *qosFile, Tenants: tenants,
		Pprof: *pprofAddr != "",
	})
	if err != nil {
		_ = ln.Close()
		_ = closeSvc()
		return err
	}
	fmt.Fprintf(out, "muerpd config %s\n", eff)
	fmt.Fprintf(out, "muerpd listening on http://%s (batch<=%d queue=%d ttl=%v shards=%d tenants=%d)\n",
		bound, *batch, *queueSize, *ttl, *shards, tenants)

	srv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		_ = closeSvc()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop the listener, finish in-flight HTTP exchanges,
	// then let the service decide everything still queued.
	fmt.Fprintln(out, "muerpd: signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := closeSvc(); err != nil {
		return err
	}
	fmt.Fprintf(out, "final admission summary:\n%s", admission())
	return nil
}

// writeFileAtomic stages the content next to path and renames it into
// place, so a watcher polling the file (scripts/CI reading the bound
// address) never reads a half-written value.
func writeFileAtomic(path string, content []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, content, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

func loadOrGenerate(inFile, model string, users, switches int, degree float64, qubits int, seed int64) (*graph.Graph, error) {
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		return graph.ReadJSON(f)
	}
	m, err := topology.ParseModel(model)
	if err != nil {
		return nil, err
	}
	cfg := topology.Default()
	cfg.Model = m
	cfg.Users = users
	cfg.Switches = switches
	cfg.AvgDegree = degree
	cfg.SwitchQubits = qubits
	return topology.Generate(cfg, rand.New(rand.NewSource(seed)))
}
