package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/topology"
)

// clusterGraph builds c fully disconnected clusters, each a chain of
// switchesPer switches (qubits each) with usersPer users attached round-
// robin. Sessions cannot route between clusters, so any partition that
// keeps clusters whole is exactly respected by every feasible tree — the
// setting where sharded and unsharded admission must agree decision for
// decision.
func clusterGraph(t testing.TB, c, switchesPer, usersPer, qubits int) *graph.Graph {
	t.Helper()
	g := graph.New(0, 0)
	for ci := 0; ci < c; ci++ {
		var users, sws []graph.NodeID
		for i := 0; i < usersPer; i++ {
			users = append(users, g.AddUser(float64(ci*1000+i), 0))
		}
		for i := 0; i < switchesPer; i++ {
			sws = append(sws, g.AddSwitch(float64(ci*1000+i), 100, qubits))
		}
		for i := 1; i < len(sws); i++ {
			g.MustAddEdge(sws[i-1], sws[i], 100)
		}
		for i, u := range users {
			g.MustAddEdge(u, sws[i%len(sws)], 100)
		}
	}
	return g
}

// bridgedClusters is clusterGraph with consecutive clusters joined by one
// bridge edge each: a connected topology whose min cut is the bridges, so
// the partitioner yields cross-region sessions that are actually feasible.
func bridgedClusters(t testing.TB, c, switchesPer, usersPer, qubits int) *graph.Graph {
	t.Helper()
	g := clusterGraph(t, c, switchesPer, usersPer, qubits)
	// Switch IDs inside one cluster are contiguous; bridge the last switch
	// of each cluster to the first of the next.
	perCluster := len(g.Switches()) / c
	sws := g.Switches()
	for ci := 1; ci < c; ci++ {
		g.MustAddEdge(sws[ci*perCluster-1], sws[ci*perCluster], 100)
	}
	return g
}

// shardedTrace replays one request trace through a server and records each
// decision.
type traceOutcome struct {
	accepted bool
	rate     float64
}

type submitter interface {
	Submit(ctx context.Context, users []graph.NodeID, ttl time.Duration) (SessionInfo, error)
}

func replayTrace(t *testing.T, s submitter, fc *fakeClock, base time.Time, requests []sched.Request) []traceOutcome {
	t.Helper()
	out := make([]traceOutcome, len(requests))
	for i, req := range requests {
		fc.Set(base.Add(seconds(req.Arrival)))
		info, err := s.Submit(context.Background(), req.Users, seconds(req.Hold))
		switch {
		case err == nil:
			out[i] = traceOutcome{accepted: true, rate: info.Rate}
		case errors.Is(err, core.ErrInfeasible):
			out[i] = traceOutcome{}
		default:
			t.Fatalf("request %d: %v", req.ID, err)
		}
	}
	return out
}

// TestShardedDifferential replays one random trace through the unsharded
// server and through ShardedServer at k ∈ {1, 2, 4} over a topology of four
// disconnected clusters, and requires identical decisions and rates. The
// partitioner keeps disconnected components whole (asserted via CutEdges ==
// 0), so single-region requests solve the same masked problem and multi-
// cluster requests are infeasible everywhere — sharding must be
// semantically invisible.
func TestShardedDifferential(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		g := clusterGraph(t, 4, 4, 4, 4)
		w := sched.Workload{Requests: 120, MeanInterarrival: 1, MeanHold: 6, MinUsers: 2, MaxUsers: 3}
		requests, err := w.Generate(g, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: workload: %v", seed, err)
		}
		sort.SliceStable(requests, func(i, j int) bool {
			if requests[i].Arrival != requests[j].Arrival {
				return requests[i].Arrival < requests[j].Arrival
			}
			return requests[i].ID < requests[j].ID
		})

		base := time.Unix(0, 0)
		mkConfig := func(fc *fakeClock) Config {
			return Config{
				Graph:     g,
				QueueSize: 4,
				MaxBatch:  1,
				MaxTTL:    1000 * time.Hour,
				Clock:     fc,
			}
		}

		refClock := newFakeClock(base)
		ref, err := New(mkConfig(refClock))
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		want := replayTrace(t, ref, refClock, base, requests)
		refM := ref.Metrics()
		_ = ref.Close()

		accepts := 0
		for _, o := range want {
			if o.accepted {
				accepts++
			}
		}
		if accepts == 0 || accepts == len(want) {
			t.Fatalf("seed %d: degenerate reference trace (%d/%d accepts)", seed, accepts, len(want))
		}

		for _, k := range []int{1, 2, 4} {
			fc := newFakeClock(base)
			s, err := NewSharded(ShardedConfig{Config: mkConfig(fc), Shards: k, PartitionSeed: 7})
			if err != nil {
				t.Fatalf("seed %d k=%d: NewSharded: %v", seed, k, err)
			}
			if s.Partition().CutEdges != 0 {
				t.Fatalf("seed %d k=%d: partition cuts %d edges on a disconnected topology",
					seed, k, s.Partition().CutEdges)
			}
			got := replayTrace(t, s, fc, base, requests)
			for i := range want {
				if got[i].accepted != want[i].accepted {
					t.Fatalf("seed %d k=%d: request %d sharded accepted=%v, unsharded accepted=%v",
						seed, k, requests[i].ID, got[i].accepted, want[i].accepted)
				}
				if math.Abs(got[i].rate-want[i].rate) > 1e-15*math.Max(1, math.Abs(want[i].rate)) {
					t.Fatalf("seed %d k=%d: request %d rate %g vs %g",
						seed, k, requests[i].ID, got[i].rate, want[i].rate)
				}
			}

			m := s.Metrics()
			if m.Admission.Accepted != refM.Admission.Accepted || m.Admission.Rejected != refM.Admission.Rejected {
				t.Fatalf("seed %d k=%d: aggregate %d/%d vs unsharded %d/%d", seed, k,
					m.Admission.Accepted, m.Admission.Rejected, refM.Admission.Accepted, refM.Admission.Rejected)
			}
			if k == 1 {
				if m.Router.CrossRegion != 0 {
					t.Fatalf("seed %d k=1: %d cross-region requests on a single shard", seed, m.Router.CrossRegion)
				}
				if m.Admission.PeakQubitsInUse != refM.Admission.PeakQubitsInUse {
					t.Fatalf("seed %d k=1: peak %d vs unsharded %d", seed,
						m.Admission.PeakQubitsInUse, refM.Admission.PeakQubitsInUse)
				}
			}
			if k == 4 && (m.Router.SingleRegion == 0 || m.Router.CrossRegion == 0) {
				t.Fatalf("seed %d k=4: router saw %d single / %d cross — trace does not exercise both paths",
					seed, m.Router.SingleRegion, m.Router.CrossRegion)
			}
			if m.Ledger.TotalQubits != refM.Ledger.TotalQubits {
				t.Fatalf("seed %d k=%d: total qubits %d vs %d", seed, k, m.Ledger.TotalQubits, refM.Ledger.TotalQubits)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("seed %d k=%d: Close: %v", seed, k, err)
			}
		}
	}
}

// TestShardedCrossRegionGolden pins every decision of a serial trace on a
// connected bridged topology, where the partitioner cuts the bridges and
// cross-region sessions are feasible. Requests arrive one at a time on a
// fake clock (MaxBatch 1, TTL = hold, so sessions expire along the way);
// each request's outcome, session ID and tree channels feed one hash per
// shard count, and the composed state must verify after every step. The
// trace holds both cross-region accepts and cross-region rejects, so any
// change to how a cross-region session is solved, split or committed shows
// up as a hash mismatch.
func TestShardedCrossRegionGolden(t *testing.T) {
	golden := map[int]string{
		2: "0c87fd2029bf476a745572f02c40063369f75646c77879a10a21c2b576d91055",
		4: "4fba210d0cda749475418309391dd09ab56a588c400794d9669627bbdc232095",
	}
	g := bridgedClusters(t, 4, 4, 4, 4)
	w := sched.Workload{Requests: 160, MeanInterarrival: 1, MeanHold: 6, MinUsers: 2, MaxUsers: 3}
	requests, err := w.Generate(g, rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	sort.SliceStable(requests, func(i, j int) bool { return requests[i].Arrival < requests[j].Arrival })
	params := quantum.DefaultParams()
	for _, k := range []int{2, 4} {
		base := time.Unix(0, 0)
		fc := newFakeClock(base)
		s, err := NewSharded(ShardedConfig{
			Config:        Config{Graph: g, QueueSize: 4, MaxBatch: 1, MaxTTL: 1000 * time.Hour, Clock: fc},
			Shards:        k,
			PartitionSeed: 5,
		})
		if err != nil {
			t.Fatalf("k=%d: NewSharded: %v", k, err)
		}
		if s.Partition().CutEdges == 0 {
			t.Fatalf("k=%d: partition cuts no edge; the topology must be connected across regions", k)
		}
		h := sha256.New()
		var crossAccepts, crossRejects int
		for _, req := range requests {
			fc.Set(base.Add(seconds(req.Arrival)))
			cross := false
			for _, u := range req.Users[1:] {
				if s.Partition().RegionOf(u) != s.Partition().RegionOf(req.Users[0]) {
					cross = true
				}
			}
			info, err := s.Submit(context.Background(), req.Users, seconds(req.Hold))
			composed, _, cerr := s.ComposedState()
			if cerr != nil {
				t.Fatalf("k=%d request %d: ComposedState: %v", k, req.ID, cerr)
			}
			if verr := VerifyState(g, params, composed); verr != nil {
				t.Fatalf("k=%d request %d: composed state: %v", k, req.ID, verr)
			}
			switch {
			case err == nil:
				if cross {
					crossAccepts++
				}
				var tree quantum.Tree
				for _, ss := range composed.Sessions {
					if ss.Info.ID == info.ID {
						tree = ss.Tree
					}
				}
				if len(tree.Channels) == 0 {
					t.Fatalf("k=%d request %d: accepted session %s missing from the composed state", k, req.ID, info.ID)
				}
				fmt.Fprintf(h, "%d accept %s %v\n", req.ID, info.ID, tree.Channels)
			case errors.Is(err, core.ErrInfeasible):
				if cross {
					crossRejects++
				}
				fmt.Fprintf(h, "%d reject\n", req.ID)
			default:
				t.Fatalf("k=%d request %d: %v", k, req.ID, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("k=%d: Close: %v", k, err)
		}
		if crossAccepts == 0 || crossRejects == 0 {
			t.Fatalf("k=%d: trace has %d cross-region accepts and %d cross-region rejects; it must hold both",
				k, crossAccepts, crossRejects)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != golden[k] {
			t.Errorf("k=%d: decision hash %s, golden %s (%d cross accepts, %d cross rejects)",
				k, got, golden[k], crossAccepts, crossRejects)
		}
	}
}

// regionUsers groups a graph's users by partition region and requires at
// least two regions with at least two users each.
func regionUsers(t *testing.T, g *graph.Graph, part *topology.Partition) [][]graph.NodeID {
	t.Helper()
	byRegion := make([][]graph.NodeID, part.K)
	for _, u := range g.Users() {
		r := part.RegionOf(u)
		byRegion[r] = append(byRegion[r], u)
	}
	populated := 0
	for _, us := range byRegion {
		if len(us) >= 2 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("degenerate partition: user regions %v", byRegion)
	}
	return byRegion
}

// TestShardedCrossRegionConcurrent hammers a bridged two-region topology
// with concurrent local and cross-region sessions (long and short TTLs plus
// early deletes), then audits the quiesced server: every shard state
// verifies against its region graph, the composed state verifies as a
// whole-topology admission state with no torn sessions, and the router and
// admission counters match what the callers saw. A commit the composed
// verifier accepts is by construction one the full-topology ledger admits —
// a cross-region commit never takes capacity the budgets lack.
func TestShardedCrossRegionConcurrent(t *testing.T) {
	g := bridgedClusters(t, 2, 5, 6, 8)
	s, err := NewSharded(ShardedConfig{
		Config: Config{
			Graph:     g,
			QueueSize: 32,
			MaxBatch:  4,
			MaxTTL:    1000 * time.Hour,
		},
		Shards:        2,
		PartitionSeed: 11,
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer func() { _ = s.Close() }()
	byRegion := regionUsers(t, g, s.Partition())
	var regions []int
	for r, us := range byRegion {
		if len(us) >= 2 {
			regions = append(regions, r)
		}
	}

	var wg sync.WaitGroup
	var accepted, rejected, deleted, crossAccepted int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 15; i++ {
				var users []graph.NodeID
				cross := rng.Intn(2) != 0
				if !cross {
					// Local pair inside one region.
					us := byRegion[regions[rng.Intn(len(regions))]]
					a := rng.Intn(len(us))
					b := (a + 1 + rng.Intn(len(us)-1)) % len(us)
					users = []graph.NodeID{us[a], us[b]}
				} else {
					// Cross pair spanning the first two populated regions.
					ua := byRegion[regions[0]]
					ub := byRegion[regions[1]]
					users = []graph.NodeID{ua[rng.Intn(len(ua))], ub[rng.Intn(len(ub))]}
				}
				ttl := time.Hour
				if rng.Intn(4) == 0 {
					ttl = 30 * time.Millisecond // exercise expiry under load
				}
				info, err := s.Submit(context.Background(), users, ttl)
				mu.Lock()
				switch {
				case err == nil:
					accepted++
					if cross {
						crossAccepted++
					}
					if ttl == time.Hour && rng.Intn(3) == 0 {
						if derr := s.Delete(info.ID); derr != nil {
							t.Errorf("Delete %s: %v", info.ID, derr)
						} else {
							deleted++
						}
					}
				case errors.Is(err, core.ErrInfeasible):
					rejected++
				default:
					t.Errorf("Submit %v: %v", users, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if accepted == 0 {
		t.Fatal("no session accepted — the topology is too tight to exercise commits")
	}

	// Quiesce: short-TTL sessions expire on their shards' own wheels; poll
	// until no dumped session is still due and nothing is torn.
	var states []State
	var composed State
	var torn []string
	deadline := time.Now().Add(10 * time.Second)
	for {
		states = s.ShardStates()
		due := false
		for _, st := range states {
			for _, ss := range st.Sessions {
				if !ss.Info.ExpiresAt.After(time.Now()) {
					due = true
				}
			}
		}
		composed, torn, err = ComposeShardStates(g, s.Partition(), states)
		if err != nil {
			t.Fatalf("ComposeShardStates: %v", err)
		}
		if !due && len(torn) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never quiesced (due=%v torn=%v)", due, torn)
		}
		time.Sleep(time.Millisecond)
	}

	params := quantum.DefaultParams()
	for r, st := range states {
		if err := VerifyState(s.RegionGraphOf(r), params, st); err != nil {
			t.Fatalf("shard %d state: %v", r, err)
		}
	}
	if err := VerifyState(g, params, composed); err != nil {
		t.Fatalf("composed state: %v", err)
	}
	if got := s.ActiveSessions(); got != len(composed.Sessions) {
		t.Fatalf("ActiveSessions %d, composed state holds %d", got, len(composed.Sessions))
	}

	m := s.Metrics()
	if m.Router.SingleRegion == 0 || m.Router.CrossRegion == 0 {
		t.Fatalf("router saw %d single / %d cross — both paths must run", m.Router.SingleRegion, m.Router.CrossRegion)
	}
	if m.Router.Prepares != crossAccepted {
		t.Fatalf("router counted %d cross-region commits, trace saw %d cross-region accepts", m.Router.Prepares, crossAccepted)
	}
	if int64(m.Admission.Accepted) != accepted || int64(m.Admission.Rejected) != rejected {
		t.Fatalf("aggregate %d/%d, trace saw %d/%d", m.Admission.Accepted, m.Admission.Rejected, accepted, rejected)
	}
	if m.Sessions.Deleted != deleted {
		t.Fatalf("aggregate deleted %d, trace deleted %d", m.Sessions.Deleted, deleted)
	}
}

// TestShardedSessionRouting covers the ID-addressed paths: shard-prefixed
// IDs resolve to their home shard, cross-region deletes fan out to every
// involved shard, and unknown or malformed IDs miss cleanly.
func TestShardedSessionRouting(t *testing.T) {
	g := bridgedClusters(t, 2, 4, 4, 8)
	s, err := NewSharded(ShardedConfig{
		Config: Config{Graph: g, QueueSize: 8, MaxBatch: 2, MaxTTL: time.Hour},
		Shards: 2, PartitionSeed: 5,
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer func() { _ = s.Close() }()
	byRegion := regionUsers(t, g, s.Partition())
	var ra, rb int = -1, -1
	for r, us := range byRegion {
		if len(us) >= 2 && ra < 0 {
			ra = r
		} else if len(us) >= 2 && rb < 0 {
			rb = r
		}
	}

	local, err := s.Submit(context.Background(), byRegion[ra][:2], time.Hour)
	if err != nil {
		t.Fatalf("local submit: %v", err)
	}
	cross, err := s.Submit(context.Background(),
		[]graph.NodeID{byRegion[ra][0], byRegion[rb][0]}, time.Hour)
	if err != nil {
		t.Fatalf("cross submit: %v", err)
	}
	if want := fmt.Sprintf("s%d-", ra); len(local.ID) < len(want) || local.ID[:len(want)] != want {
		t.Fatalf("local session ID %q not homed on shard %d", local.ID, ra)
	}
	primary := ra
	if rb < ra {
		primary = rb
	}
	if want := fmt.Sprintf("s%d-", primary); len(cross.ID) < len(want) || cross.ID[:len(want)] != want {
		t.Fatalf("cross session ID %q not homed on primary shard %d", cross.ID, primary)
	}

	for _, id := range []string{local.ID, cross.ID} {
		if got, ok := s.Session(id); !ok || got.ID != id {
			t.Fatalf("Session(%q) = %+v, %v", id, got, ok)
		}
	}
	if _, ok := s.Session("s-1"); ok {
		t.Fatal("unsharded-form ID resolved on a sharded server")
	}
	if _, ok := s.Session("bogus"); ok {
		t.Fatal("malformed ID resolved")
	}
	if got := s.ActiveSessions(); got != 2 {
		t.Fatalf("ActiveSessions = %d, want 2", got)
	}

	if err := s.Delete(cross.ID); err != nil {
		t.Fatalf("Delete cross: %v", err)
	}
	for r := range []int{0, 1} {
		if _, ok := s.shards[r].Session(cross.ID); ok {
			t.Fatalf("cross session copy survives on shard %d after Delete", r)
		}
	}
	if err := s.Delete(cross.ID); err == nil || !errors.Is(err, ErrNoSession) {
		t.Fatalf("second Delete: %v, want ErrNoSession", err)
	}
	if err := s.Delete(local.ID); err != nil {
		t.Fatalf("Delete local: %v", err)
	}
	if got := s.ActiveSessions(); got != 0 {
		t.Fatalf("ActiveSessions = %d after deletes, want 0", got)
	}

	used := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		used += sh.led.UsedQubits()
		sh.mu.Unlock()
	}
	if used != 0 {
		t.Fatalf("%d qubits still reserved after deleting every session", used)
	}
}

// TestShardedCrossExpiryWithoutTraffic pins that a cross-region install
// wakes every involved shard's serve loop. Each shard idles with a timer
// armed for a long-lived local session when the coordinator adds a shorter
// cross-region session behind its back; the new session must still expire
// on every shard once the fake clock passes its TTL, with no further
// request.
func TestShardedCrossExpiryWithoutTraffic(t *testing.T) {
	g := bridgedClusters(t, 2, 4, 4, 8)
	base := time.Unix(0, 0)
	fc := newFakeClock(base)
	s, err := NewSharded(ShardedConfig{
		Config: Config{Graph: g, MaxBatch: 2, MaxTTL: time.Hour, Clock: fc},
		Shards: 2, PartitionSeed: 5,
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	defer func() { _ = s.Close() }()
	armed := func(n int) func() bool {
		return func() bool {
			fc.mu.Lock()
			defer fc.mu.Unlock()
			return len(fc.waiters) >= n
		}
	}
	byRegion := regionUsers(t, g, s.Partition())
	for r := 0; r < 2; r++ {
		if _, err := s.Submit(context.Background(), byRegion[r][1:3], time.Hour); err != nil {
			t.Fatalf("local submit on region %d: %v", r, err)
		}
	}
	waitFor(t, "the shards never armed timers for their local sessions", armed(2))
	cross, err := s.Submit(context.Background(),
		[]graph.NodeID{byRegion[0][0], byRegion[1][0]}, 10*time.Second)
	if err != nil {
		t.Fatalf("cross submit: %v", err)
	}
	waitFor(t, "the shards never re-armed for the cross-region session", armed(4))
	fc.Set(base.Add(11 * time.Second))
	waitFor(t, "the cross-region session never expired", func() bool {
		return s.ActiveSessions() == 2
	})
	for r, sh := range s.shards {
		if _, ok := sh.Session(cross.ID); ok {
			t.Fatalf("cross session copy survives on shard %d past its TTL", r)
		}
	}
}

// shardedDurableTrace drives a durable two-shard server through a mixed
// local/cross trace with deletes and expiries on a fake clock, quiesces it
// and returns it still running (the caller crashes it).
func shardedDurableTrace(t *testing.T, dataDir string) (*ShardedServer, *graph.Graph) {
	t.Helper()
	g := bridgedClusters(t, 2, 4, 6, 6)
	base := time.Unix(0, 0)
	fc := newFakeClock(base)
	s, err := NewSharded(ShardedConfig{
		Config: Config{
			Graph:            g,
			DataDir:          dataDir,
			QueueSize:        4,
			MaxBatch:         1,
			MaxTTL:           1000 * time.Hour,
			Clock:            fc,
			SnapshotEvery:    1 << 30,
			SnapshotInterval: 1000 * time.Hour,
		},
		Shards: 2, PartitionSeed: 11,
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	byRegion := regionUsers(t, g, s.Partition())
	var regions []int
	for r, us := range byRegion {
		if len(us) >= 2 {
			regions = append(regions, r)
		}
	}

	rng := rand.New(rand.NewSource(23))
	accepted, crossAccepted := 0, 0
	now := base
	for i := 0; i < 60; i++ {
		now = now.Add(500 * time.Millisecond)
		fc.Set(now)
		var users []graph.NodeID
		cross := rng.Intn(2) == 1
		if cross {
			ua, ub := byRegion[regions[0]], byRegion[regions[1]]
			users = []graph.NodeID{ua[rng.Intn(len(ua))], ub[rng.Intn(len(ub))]}
		} else {
			us := byRegion[regions[rng.Intn(len(regions))]]
			a := rng.Intn(len(us))
			b := (a + 1 + rng.Intn(len(us)-1)) % len(us)
			users = []graph.NodeID{us[a], us[b]}
		}
		ttl := 1000 * time.Hour
		if rng.Intn(3) == 0 {
			ttl = 5 * time.Second // expires mid-trace
		}
		info, err := s.Submit(context.Background(), users, ttl)
		switch {
		case err == nil:
			accepted++
			if cross {
				crossAccepted++
			}
			if rng.Intn(5) == 0 && ttl > time.Minute {
				if err := s.Delete(info.ID); err != nil {
					t.Fatalf("Delete %s: %v", info.ID, err)
				}
			}
		case errors.Is(err, core.ErrInfeasible):
		default:
			t.Fatalf("Submit %v: %v", users, err)
		}
	}
	if accepted == 0 || crossAccepted == 0 {
		t.Fatalf("degenerate durable trace: %d accepts, %d cross", accepted, crossAccepted)
	}

	// Quiesce the expiry wheels at the final clock instant.
	deadline := time.Now().Add(10 * time.Second)
	for {
		pending := false
		for _, st := range s.ShardStates() {
			for _, ss := range st.Sessions {
				if !ss.Info.ExpiresAt.After(now) {
					pending = true
				}
			}
		}
		if !pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expiry wheels never quiesced")
		}
		time.Sleep(time.Millisecond)
	}
	if s.ActiveSessions() == 0 {
		t.Fatal("trace ended with no live sessions; recovery would be trivial")
	}
	return s, g
}

// crashSharded closes every shard's WAL stream directly — the on-disk state
// a SIGKILL leaves — without draining or snapshotting.
func crashSharded(t *testing.T, s *ShardedServer) {
	t.Helper()
	for r, sh := range s.shards {
		if err := sh.dur.log.Close(); err != nil {
			t.Fatalf("close shard %d WAL: %v", r, err)
		}
	}
}

// TestShardedRecoveryMatchesLiveState is the sharded deterministic-replay
// differential: after a hard crash, each shard's state rebuilt from its own
// WAL stream must serialize byte-identically to that shard's live dump, the
// recovered shard states must verify and compose, and a restarted sharded
// server must resume with the identical state.
func TestShardedRecoveryMatchesLiveState(t *testing.T) {
	dir := t.TempDir()
	s, g := shardedDurableTrace(t, dir)

	want := make([][]byte, s.Shards())
	for r := range want {
		want[r] = dumpJSON(t, s.shards[r].StateDump())
	}
	crashSharded(t, s)

	part, ok, err := LoadPartition(dir, g)
	if err != nil || !ok {
		t.Fatalf("LoadPartition: ok=%v err=%v", ok, err)
	}
	params := quantum.DefaultParams()
	states := make([]State, s.Shards())
	for r := 0; r < s.Shards(); r++ {
		rg := RegionGraph(g, part, r)
		rec, err := RecoverShard(dir, r, rg)
		if err != nil {
			t.Fatalf("RecoverShard %d: %v", r, err)
		}
		if got := dumpJSON(t, rec.State); string(got) != string(want[r]) {
			t.Fatalf("shard %d: recovered state differs from live dump\nlive: %s\nrec:  %s", r, want[r], got)
		}
		if err := VerifyState(rg, params, rec.State); err != nil {
			t.Fatalf("shard %d: recovered state does not verify: %v", r, err)
		}
		// Recovery is read-only and deterministic: run it again.
		again, err := RecoverShard(dir, r, rg)
		if err != nil {
			t.Fatalf("RecoverShard %d again: %v", r, err)
		}
		if got := dumpJSON(t, again.State); string(got) != string(want[r]) {
			t.Fatalf("shard %d: second recovery differs", r)
		}
		states[r] = rec.State
	}
	composed, torn, err := ComposeShardStates(g, part, states)
	if err != nil {
		t.Fatalf("ComposeShardStates: %v", err)
	}
	if len(torn) != 0 {
		t.Fatalf("torn sessions after clean quiesce: %v", torn)
	}
	if err := VerifyState(g, params, composed); err != nil {
		t.Fatalf("composed recovered state: %v", err)
	}

	// Restart over the same directory: the new shards must resume exactly.
	base := time.Unix(0, 0)
	s2, err := NewSharded(ShardedConfig{
		Config: Config{
			Graph:            g,
			DataDir:          dir,
			QueueSize:        4,
			MaxBatch:         1,
			MaxTTL:           1000 * time.Hour,
			Clock:            newFakeClock(base.Add(1000 * time.Hour)),
			SnapshotEvery:    1 << 30,
			SnapshotInterval: 1000 * time.Hour,
		},
		Shards: 2, PartitionSeed: 11,
	})
	if err != nil {
		t.Fatalf("restart NewSharded: %v", err)
	}
	for r := 0; r < s2.Shards(); r++ {
		if got := dumpJSON(t, s2.shards[r].StateDump()); string(got) != string(want[r]) {
			t.Fatalf("shard %d: restarted state differs from pre-crash dump", r)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close restarted server: %v", err)
	}
}

// BenchmarkShardedAdmission sweeps the shard count over a four-cluster
// bridged topology with region-local traffic plus a 20% cross-region mix:
// the shardsN / shards1 ratio is the sharding speedup (independent shard
// locks and admission loops), and each cross row is decided under every
// shard's lock. It
// needs GOMAXPROCS >= N to show a speedup — on one core it measures router
// overhead instead.
func BenchmarkShardedAdmission(b *testing.B) {
	for _, bench := range []struct {
		name    string
		shards  int
		durable bool
	}{
		{name: "shards1", shards: 1},
		{name: "shards2", shards: 2},
		{name: "shards4", shards: 4},
		{name: "shards4-durable", shards: 4, durable: true},
	} {
		b.Run(bench.name, func(b *testing.B) {
			g := bridgedClusters(b, 4, 8, 4, 8)
			cfg := ShardedConfig{
				Config: Config{
					Graph:      g,
					QueueSize:  1024,
					MaxBatch:   16,
					DefaultTTL: 2 * time.Millisecond,
					MaxTTL:     time.Second,
				},
				Shards:        bench.shards,
				PartitionSeed: 7,
			}
			if bench.durable {
				cfg.DataDir = b.TempDir()
				cfg.SnapshotEvery = 1 << 30
				cfg.SnapshotInterval = time.Hour
			}
			s, err := NewSharded(cfg)
			if err != nil {
				b.Fatalf("NewSharded: %v", err)
			}
			defer func() { _ = s.Close() }()

			part := s.Partition()
			byRegion := make([][]graph.NodeID, part.K)
			for _, u := range g.Users() {
				r := part.RegionOf(u)
				byRegion[r] = append(byRegion[r], u)
			}
			var regions []int
			for r, us := range byRegion {
				if len(us) >= 2 {
					regions = append(regions, r)
				}
			}
			if len(regions) == 0 {
				b.Fatal("no region has two users")
			}

			var accepted, rejected, other atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(benchSeed.Add(1)))
				for pb.Next() {
					var users []graph.NodeID
					if len(regions) >= 2 && rng.Intn(5) == 0 {
						ua := byRegion[regions[0]]
						ub := byRegion[regions[1]]
						users = []graph.NodeID{ua[rng.Intn(len(ua))], ub[rng.Intn(len(ub))]}
					} else {
						us := byRegion[regions[rng.Intn(len(regions))]]
						a := rng.Intn(len(us))
						c := (a + 1 + rng.Intn(len(us)-1)) % len(us)
						users = []graph.NodeID{us[a], us[c]}
					}
					_, err := s.Submit(context.Background(), users, 2*time.Millisecond)
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, core.ErrInfeasible), errors.Is(err, ErrQueueFull):
						rejected.Add(1)
					default:
						other.Add(1)
					}
				}
			})
			b.StopTimer()
			if other.Load() > 0 {
				b.Fatalf("%d submissions failed with unexpected errors", other.Load())
			}
			total := accepted.Load() + rejected.Load()
			if total > 0 {
				b.ReportMetric(float64(accepted.Load())/float64(total), "accept-ratio")
			}
			m := s.Metrics()
			if routed := m.Router.SingleRegion + m.Router.CrossRegion; routed > 0 {
				b.ReportMetric(m.Router.CrossRegionRate, "cross-rate")
			}
		})
	}
}
