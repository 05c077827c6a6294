package service

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/topology"
	"github.com/muerp/quantumnet/internal/wal"
)

// This file is the sharded admission plane (DESIGN.md §9). The topology is
// partitioned into K regions (topology.PartitionRegions); each region gets a
// full admission Server of its own — queue, serve loop, ledger, expiry
// wheel, WAL stream and snapshot directory — over a masked clone of the
// topology in which every foreign switch has zero qubits, confining its
// solves to its region. A thin router classifies each request by its users'
// regions:
//
//   - single-region sessions go straight to that shard's queue. No
//     router lock, no coordination — shards admit in parallel.
//   - cross-region sessions are solved by the router against a stitched
//     full-topology view of every shard's budgets and committed under a
//     two-phase reserve/commit: each involved shard validates this shard's
//     slice of the tree's per-switch demand against the epoch the view was
//     taken at (quantum.ValidateSince) and reserves it, all under the
//     involved shards' locks, taken in ascending order. A validation
//     conflict aborts the attempt and re-solves against a fresh view;
//     after CrossRetries conflicts the request is decided authoritatively
//     under every shard's lock (the global-lock serial fallback).
//
// Deadlock freedom: only the cross-region coordinator ever holds more than
// one shard lock, it is itself serialized by crossMu, and it always locks
// shards in ascending index order.
//
// Rejections are only final when no shard's ledger generation moved since
// the view was taken: budgets can then only have shrunk (reservations are
// monotone within a generation), so a tree that did not fit the view cannot
// fit the live ledgers either. A generation bump means a release reopened
// capacity somewhere and the request deserves a fresh view.

// ShardedConfig parameterizes a ShardedServer. The embedded Config is the
// template every shard Server is built from (Graph must be the full
// topology; DataDir, batch, queue and TTL knobs apply per shard).
type ShardedConfig struct {
	Config
	// Shards is the number of regions the topology is partitioned into.
	// Default 1 (a single shard, useful as a degenerate baseline).
	Shards int
	// PartitionSeed seeds the deterministic region partitioner.
	PartitionSeed int64
	// CrossRetries bounds how many fresh-view re-solves a cross-region
	// request gets after validation conflicts before it is decided under
	// the global lock. Default 3.
	CrossRetries int
}

// ShardedServer is the sharded admission daemon: K region shards plus the
// cross-region coordinator. Construct with NewSharded; Close releases
// everything.
type ShardedServer struct {
	g       *graph.Graph
	tmpl    *core.Problem // all-users Problem on g, cross-region requests' template
	base    Config        // defaults applied; template the shards were built from
	retries int
	part    *topology.Partition
	clock   Clock
	start   time.Time
	shards  []*Server
	regions []*graph.Graph // regions[i] is shard i's masked graph

	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error

	// crossMu serializes the cross-region coordinator; view, viewFree,
	// epochs, crossWork and the splitLoad scratch below are its state.
	crossMu   sync.Mutex
	view      *quantum.Ledger
	viewFree  []int
	epochs    []quantum.Epoch
	crossWork core.SolveStats

	// splitLoad scratch: the flat footprint holding the last split tree's
	// demand (also consulted by tryCommit's validation), the sorted-entry
	// export buffer, and reusable per-region headers. All crossMu-guarded.
	crossFP      *quantum.Footprint
	crossEntries []quantum.LoadEntry
	crossCounts  []int
	crossPlans   [][]quantum.LoadEntry

	lat *histogram // cross-region solve latency

	singleRegion atomic.Int64
	crossRegion  atomic.Int64
	prepares     atomic.Int64
	conflicts    atomic.Int64
	retried      atomic.Int64
	aborts       atomic.Int64
	fallbacks    atomic.Int64
}

// RegionGraph clones g and strips every switch outside partition region r of
// its qubits. A ledger over the clone holds zero budget at foreign switches,
// so they can never relay (quantum.Ledger.CanRelay) and every solve against
// it stays inside the region. Node IDs are preserved, which is what lets
// per-shard states compose back onto the full topology.
func RegionGraph(g *graph.Graph, part *topology.Partition, r int) *graph.Graph {
	rg := g.Clone()
	for _, sw := range g.Switches() {
		if part.RegionOf(sw) != r {
			rg.SetQubits(sw, 0)
		}
	}
	return rg
}

// PartitionPath returns the pinned-partition file inside a data directory.
func PartitionPath(dataDir string) string { return filepath.Join(dataDir, "partition.json") }

// pinPartition stores the region partition next to the pinned topology, and
// on later boots verifies the freshly computed one matches: shard WAL
// streams replay load slices by switch ID, so recovering onto different
// region boundaries would corrupt state silently.
func pinPartition(dataDir string, part *topology.Partition) error {
	b, err := json.Marshal(part)
	if err != nil {
		return err
	}
	return pinFile(PartitionPath(dataDir), b, "partition")
}

// LoadPartition reads a data directory's pinned partition and validates it
// against g. ok is false when none is pinned — an unsharded layout.
func LoadPartition(dataDir string, g *graph.Graph) (*topology.Partition, bool, error) {
	b, err := os.ReadFile(PartitionPath(dataDir))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var p topology.Partition
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, false, fmt.Errorf("service: decode %s: %w", PartitionPath(dataDir), err)
	}
	if err := p.Rebuild(g); err != nil {
		return nil, false, err
	}
	return &p, true, nil
}

// NewSharded partitions the topology, pins the environment (topology,
// params, partition) when durability is on, and starts one Server per
// region. The caller must Close the returned server.
func NewSharded(cfg ShardedConfig) (*ShardedServer, error) {
	if cfg.Graph == nil {
		return nil, errors.New("service: nil graph")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.CrossRetries <= 0 {
		cfg.CrossRetries = 3
	}
	base := cfg.Config.withDefaults()
	if err := base.Params.Validate(); err != nil {
		return nil, err
	}
	// One limiter is shared by every shard so tenant quotas stay global
	// rather than multiplying by the shard count; each shard keeps its own
	// DWRR queues (requests are already partitioned by region).
	policy, err := base.tenantPolicy()
	if err != nil {
		return nil, err
	}
	base.qosLimiter = qos.NewLimiter(policy)
	part, err := topology.PartitionRegions(cfg.Graph, cfg.Shards, cfg.PartitionSeed)
	if err != nil {
		return nil, err
	}
	tmpl, err := core.AllUsersProblem(cfg.Graph, base.Params)
	if err != nil {
		return nil, err
	}
	if base.DataDir != "" {
		if err := pinEnvironment(base.DataDir, cfg.Graph, base.Params, base.QoS); err != nil {
			return nil, err
		}
		if err := pinPartition(base.DataDir, part); err != nil {
			return nil, err
		}
	}

	s := &ShardedServer{
		g:        cfg.Graph,
		tmpl:     tmpl,
		base:     base,
		retries:  cfg.CrossRetries,
		part:     part,
		clock:    base.Clock,
		start:    base.Clock.Now(),
		view:     quantum.NewLedger(cfg.Graph),
		viewFree: make([]int, cfg.Graph.NumNodes()),
		epochs:   make([]quantum.Epoch, cfg.Shards),
		lat:      newHistogram(),

		crossFP:     quantum.NewFootprint(cfg.Graph.NumNodes()),
		crossCounts: make([]int, cfg.Shards),
		crossPlans:  make([][]quantum.LoadEntry, cfg.Shards),
	}
	for r := 0; r < cfg.Shards; r++ {
		rg := RegionGraph(cfg.Graph, part, r)
		sc := base
		sc.Graph = rg
		sc.shard = &shardEnv{index: r}
		srv, err := New(sc)
		if err != nil {
			for _, sh := range s.shards {
				_ = sh.Close()
			}
			return nil, fmt.Errorf("service: start shard %d: %w", r, err)
		}
		s.shards = append(s.shards, srv)
		s.regions = append(s.regions, rg)
	}
	return s, nil
}

// Graph returns the full topology the sharded server routes on.
func (s *ShardedServer) Graph() *graph.Graph { return s.g }

// Partition returns the region partition the shards were built from.
func (s *ShardedServer) Partition() *topology.Partition { return s.part }

// Shards returns the number of region shards.
func (s *ShardedServer) Shards() int { return len(s.shards) }

// RegionGraphOf returns shard r's masked region graph.
func (s *ShardedServer) RegionGraphOf(r int) *graph.Graph { return s.regions[r] }

// Submit routes one session request: single-region user sets go straight to
// their shard's queue, cross-region sets through the two-phase
// coordinator. Outcomes match Server.Submit.
func (s *ShardedServer) Submit(ctx context.Context, users []graph.NodeID, ttl time.Duration) (SessionInfo, error) {
	return s.SubmitTenant(ctx, "", users, ttl)
}

// SubmitTenant is Submit with an explicit tenant name: single-region
// requests join their shard's QoS queues, cross-region requests pass the
// shared quota limiter before the two-phase coordinator.
func (s *ShardedServer) SubmitTenant(ctx context.Context, tenant string, users []graph.NodeID, ttl time.Duration) (SessionInfo, error) {
	if s.closing.Load() {
		return SessionInfo{}, ErrClosed
	}
	// Malformed sets (too few users, unknown IDs) are delegated to shard 0,
	// whose Submit rejects them with the proper accounting.
	if len(users) < 2 {
		return s.shards[0].SubmitTenant(ctx, tenant, users, ttl)
	}
	for _, u := range users {
		if u < 0 || int(u) >= s.g.NumNodes() {
			return s.shards[0].SubmitTenant(ctx, tenant, users, ttl)
		}
	}
	region := s.part.RegionOf(users[0])
	single := true
	primary := region
	for _, u := range users[1:] {
		r := s.part.RegionOf(u)
		if r != region {
			single = false
		}
		if r < primary {
			primary = r
		}
	}
	if single {
		s.singleRegion.Add(1)
		return s.shards[region].SubmitTenant(ctx, tenant, users, ttl)
	}
	return s.submitCross(ctx, tenant, users, ttl, primary)
}

// submitCross decides a cross-region request under the two-phase protocol.
// The session is homed on the primary shard (the lowest involved region),
// whose counters own the request's outcome.
func (s *ShardedServer) submitCross(ctx context.Context, tenant string, users []graph.NodeID, ttl time.Duration, primary int) (info SessionInfo, err error) {
	s.crossRegion.Add(1)
	pr := s.shards[primary]
	pr.ctrs.requests.Add(1)
	wire := pr.wireTenant(tenant)
	stat := pr.tstats.get(wire)
	// Tenant quotas apply to cross-region traffic too (the limiter is
	// shared, so tokens spent here and on any shard draw on one bucket). The
	// DWRR queues do not: cross-region requests are serialized by crossMu
	// rather than queued behind a shard's serve loop.
	if qerr := pr.qlim.Allow(stat.spec.ID, s.clock.Now()); qerr != nil {
		pr.ctrs.throttled.Add(1)
		stat.throttled.Add(1)
		return SessionInfo{}, qerr
	}
	t0 := time.Now()
	defer func() { stat.note(err, time.Since(t0)) }()
	prob, err := s.tmpl.WithUsers(users)
	if err != nil {
		pr.ctrs.invalid.Add(1)
		return SessionInfo{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	if ttl <= 0 {
		ttl = s.base.DefaultTTL
	}
	if ttl > s.base.MaxTTL {
		ttl = s.base.MaxTTL
	}
	ttl = stat.clampTTL(ttl)

	s.crossMu.Lock()
	defer s.crossMu.Unlock()
	if s.closing.Load() {
		return SessionInfo{}, ErrClosed
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			pr.ctrs.canceled.Add(1)
			return SessionInfo{}, err
		}
		s.refreshView()
		tree, err := s.solveView(ctx, prob)
		if err != nil {
			switch sched.Classify(ctx.Err(), err) {
			case sched.VerdictAborted:
				if ctx.Err() != nil {
					pr.ctrs.canceled.Add(1)
				} else {
					pr.ctrs.failed.Add(1)
				}
				return SessionInfo{}, err
			case sched.VerdictRejected:
				// Final only if no shard reopened capacity since the view:
				// within a generation budgets are monotone non-increasing,
				// so an infeasible view stays infeasible on the live books.
				if s.rejectionStands() {
					pr.ctrs.rejected.Add(1)
					return SessionInfo{}, err
				}
				s.conflicts.Add(1)
			}
		} else {
			if info, ok := s.tryCommit(primary, wire, prob.Users, ttl, tree); ok {
				return info, nil
			}
			s.conflicts.Add(1)
		}
		if attempt >= s.retries {
			return s.decideGlobal(ctx, wire, prob, ttl, primary)
		}
		s.retried.Add(1)
	}
}

// refreshView stitches every shard's live budgets into the coordinator's
// full-topology view ledger, recording each shard's closure epoch. Shards
// are visited (and locked) one at a time, so the view is not one global
// atomic cut — commit-time validation under the involved shards' locks is
// what makes decisions safe, and the per-generation monotonicity argument
// is what makes rejections safe.
func (s *ShardedServer) refreshView() {
	now := s.clock.Now()
	for i, sh := range s.shards {
		sh.mu.Lock()
		// Expire due sessions first, exactly as the shard's serve loop
		// would at this instant — the view must not count capacity whose
		// expiry the shard has not yet applied.
		sh.expireLocked(now)
		_ = sh.enqueueRecordsLocked()
		for _, sw := range s.part.Switches(i) {
			s.viewFree[sw] = sh.led.Free(sw)
		}
		s.epochs[i] = sh.led.Epoch()
		sh.mu.Unlock()
	}
	s.importView()
}

func (s *ShardedServer) importView() {
	if err := s.view.ImportState(quantum.LedgerState{Free: s.viewFree}); err != nil {
		// The budgets came straight from live ledgers over the same node IDs.
		panic(fmt.Sprintf("service: cross-region view import: %v", err))
	}
}

// solveView routes prob on the stitched view, charging the router's latency
// histogram and work counters.
func (s *ShardedServer) solveView(ctx context.Context, prob *core.Problem) (quantum.Tree, error) {
	var st core.SolveStats
	t0 := time.Now()
	tree, err := core.BuildGreedyTree(ctx, prob, s.view, &core.SolveOptions{Stats: &st})
	s.lat.observe(time.Since(t0))
	s.crossWork.Merge(&st)
	return tree, err
}

// rejectionStands reports whether every shard's closure generation is
// unchanged since the current view was taken.
func (s *ShardedServer) rejectionStands() bool {
	for i, sh := range s.shards {
		sh.mu.Lock()
		_, ok := sh.led.ClosedSince(s.epochs[i])
		sh.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// splitLoad slices a tree's per-switch demand by owning region. The demand
// accumulates in the coordinator's flat footprint (crossMu-serialized
// scratch) instead of per-region maps, and the per-region plans are windows
// of one freshly allocated backing slice, each ascending by switch ID. The
// backing must be fresh per call — installed plans outlive the attempt
// (sessions keep them for release, WAL records serialize them off-thread) —
// but that one allocation replaces the old path's K maps + K sorted slices
// + a per-tree load map. On return crossFP still holds the whole tree's
// demand; tryCommit's validation reads it.
func (s *ShardedServer) splitLoad(tree quantum.Tree) [][]quantum.LoadEntry {
	fp := s.crossFP
	fp.Reset()
	fp.AddTree(tree)
	fp.Sort()
	s.crossEntries = fp.AppendEntries(s.crossEntries[:0])
	entries := s.crossEntries

	counts := s.crossCounts
	for r := range counts {
		counts[r] = 0
	}
	for _, e := range entries {
		counts[s.part.RegionOf(e.ID)]++
	}
	backing := make([]quantum.LoadEntry, 0, len(entries))
	plans := s.crossPlans
	off := 0
	for r := range plans {
		// Zero-length window with capacity counts[r]: the fill loop's appends
		// land in-place, so region slices share the backing without copies.
		plans[r] = backing[off : off : off+counts[r]]
		off += counts[r]
	}
	for _, e := range entries {
		r := s.part.RegionOf(e.ID)
		plans[r] = append(plans[r], e)
	}
	return plans
}

// involvedShards lists, ascending, every shard holding part of the plan,
// always including the primary (which stores the tree even when the solve
// routed around its switches).
func (s *ShardedServer) involvedShards(plans [][]quantum.LoadEntry, primary int) []int {
	involved := make([]int, 0, len(s.shards))
	for r := range s.shards {
		if len(plans[r]) > 0 || r == primary {
			involved = append(involved, r)
		}
	}
	return involved
}

// shardTicket pairs a WAL ticket with the shard that issued it.
type shardTicket struct {
	sh *Server
	t  *wal.Ticket
}

// tryCommit is one two-phase attempt: lock the involved shards in ascending
// order, validate every slice against the epoch its view was taken at,
// reserve and install. A validation failure aborts with no side effects.
func (s *ShardedServer) tryCommit(primary int, tenant string, users []graph.NodeID, ttl time.Duration, tree quantum.Tree) (SessionInfo, bool) {
	plans := s.splitLoad(tree)
	involved := s.involvedShards(plans, primary)
	for _, r := range involved {
		s.shards[r].mu.Lock()
	}
	s.prepares.Add(1)
	ok := true
	for _, r := range involved {
		// crossFP still holds the whole tree's demand from splitLoad; the
		// closure-epoch touch test probes its sparse index instead of
		// rebuilding a per-slice map (ValidateSliceSince is decision-equal to
		// ValidateSince — a shard's closures only ever name its own switches).
		if !s.shards[r].led.ValidateSliceSince(s.epochs[r], s.crossFP, plans[r]) {
			ok = false
			break
		}
	}
	var info SessionInfo
	var tickets []shardTicket
	if ok {
		info, tickets, ok = s.installCrossLocked(primary, tenant, users, ttl, tree, plans, involved)
	}
	for i := len(involved) - 1; i >= 0; i-- {
		s.shards[involved[i]].mu.Unlock()
	}
	if !ok {
		s.aborts.Add(1)
		return SessionInfo{}, false
	}
	s.finishCross(involved, tickets)
	return info, true
}

// installCrossLocked reserves every shard's slice and installs the session
// on each involved shard — the home copy carries the tree, secondaries only
// their slice. Callers hold every involved shard's mutex; on a reservation
// failure everything already reserved is rolled back and ok is false.
func (s *ShardedServer) installCrossLocked(primary int, tenant string, users []graph.NodeID, ttl time.Duration,
	tree quantum.Tree, plans [][]quantum.LoadEntry, involved []int) (SessionInfo, []shardTicket, bool) {
	var reserved []int
	for _, r := range involved {
		if len(plans[r]) == 0 {
			continue
		}
		if err := s.shards[r].led.ReserveLoad(plans[r]); err != nil {
			for _, q := range reserved {
				s.shards[q].led.ReleaseLoad(plans[q])
			}
			return SessionInfo{}, nil, false
		}
		reserved = append(reserved, r)
	}

	pr := s.shards[primary]
	now := s.clock.Now()
	info := SessionInfo{
		ID:         fmt.Sprintf("%s%d", pr.idPrefix, pr.nextID.Add(1)),
		Users:      users,
		Tenant:     tenant,
		Rate:       tree.Rate(),
		Channels:   len(tree.Channels),
		AdmittedAt: now,
		ExpiresAt:  now.Add(ttl),
	}
	var tickets []shardTicket
	for _, r := range involved {
		sh := s.shards[r]
		sess := &session{
			info: info, expiresAt: info.ExpiresAt,
			load: plans[r], shards: involved, secondary: r != primary,
		}
		rec := &admitRecord{
			Info: info, Load: plans[r], Shards: involved,
			Secondary: r != primary, NextID: sh.nextID.Load(),
		}
		if r == primary {
			sess.tree = tree
			rec.Tree = tree
			sh.ctrs.accepted.Add(1)
			sh.sumRate += info.Rate
		}
		sh.sessions[info.ID] = sess
		heap.Push(&sh.expiry, sess)
		if used := sh.led.UsedQubits(); used > sh.peak {
			sh.peak = used
		}
		sh.appendRecordLocked(walRecord{T: recAdmit, Admit: rec})
		if t := sh.enqueueRecordsLocked(); t != nil {
			tickets = append(tickets, shardTicket{sh: sh, t: t})
		}
	}
	return info, tickets, true
}

// finishCross completes a commit outside the shard locks: wait for every
// stream's fsync (write-ahead contract), then wake each involved shard's
// serve loop so it arms its expiry timer for the new session.
func (s *ShardedServer) finishCross(involved []int, tickets []shardTicket) {
	for _, st := range tickets {
		_ = st.sh.waitDurable(st.t)
	}
	for _, r := range involved {
		s.shards[r].wakeAdmission()
	}
}

// decideGlobal is the serial fallback after the retry budget: every shard
// lock is taken (ascending), the view rebuilt under them — now a true
// atomic cut — and the request decided authoritatively, so neither a
// conflict nor an unsound rejection is possible.
func (s *ShardedServer) decideGlobal(ctx context.Context, tenant string, prob *core.Problem, ttl time.Duration, primary int) (SessionInfo, error) {
	s.fallbacks.Add(1)
	pr := s.shards[primary]
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	now := s.clock.Now()
	for i, sh := range s.shards {
		sh.expireLocked(now)
		_ = sh.enqueueRecordsLocked()
		for _, sw := range s.part.Switches(i) {
			s.viewFree[sw] = sh.led.Free(sw)
		}
	}
	s.importView()
	tree, err := s.solveView(ctx, prob)
	var info SessionInfo
	var tickets []shardTicket
	var involved []int
	ok := false
	if err == nil {
		plans := s.splitLoad(tree)
		involved = s.involvedShards(plans, primary)
		s.prepares.Add(1)
		info, tickets, ok = s.installCrossLocked(primary, tenant, prob.Users, ttl, tree, plans, involved)
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	if err != nil {
		switch sched.Classify(ctx.Err(), err) {
		case sched.VerdictRejected:
			pr.ctrs.rejected.Add(1)
		case sched.VerdictAborted:
			if ctx.Err() != nil {
				pr.ctrs.canceled.Add(1)
			} else {
				pr.ctrs.failed.Add(1)
			}
		}
		return SessionInfo{}, err
	}
	if !ok {
		// Unreachable: the view was an atomic cut under every shard lock.
		s.aborts.Add(1)
		pr.ctrs.failed.Add(1)
		return SessionInfo{}, errors.New("service: cross-region commit failed under the global lock")
	}
	s.finishCross(involved, tickets)
	return info, nil
}

// shardOf resolves a session ID ("s<shard>-<n>") to its home shard.
func (s *ShardedServer) shardOf(id string) (*Server, int, bool) {
	var shard int
	var n uint64
	if _, err := fmt.Sscanf(id, "s%d-%d", &shard, &n); err != nil {
		return nil, 0, false
	}
	if shard < 0 || shard >= len(s.shards) {
		return nil, 0, false
	}
	return s.shards[shard], shard, true
}

// Session returns the live session with the given ID.
func (s *ShardedServer) Session(id string) (SessionInfo, bool) {
	sh, _, ok := s.shardOf(id)
	if !ok {
		return SessionInfo{}, false
	}
	return sh.Session(id)
}

// Delete releases a session before its TTL. Cross-region sessions fan the
// release out to every involved shard; a secondary copy already released by
// its own expiry wheel is not an error.
func (s *ShardedServer) Delete(id string) error {
	sh, idx, ok := s.shardOf(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	shards, ok := sh.sessionShards(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	err := sh.Delete(id)
	for _, r := range shards {
		if r == idx {
			continue
		}
		if qerr := s.shards[r].deleteQuiet(id); qerr != nil && err == nil {
			err = qerr
		}
	}
	return err
}

// ActiveSessions returns the number of sessions holding capacity, counting
// each cross-region session once (its home copy).
func (s *ShardedServer) ActiveSessions() int {
	total := 0
	for _, sh := range s.shards {
		active, secondary := sh.sessionCounts()
		total += active - secondary
	}
	return total
}

// Close drains and stops every shard. In-flight cross-region admissions
// finish first (crossMu); later ones bounce with ErrClosed.
func (s *ShardedServer) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		s.crossMu.Lock() // wait out an in-flight cross-region decision
		s.crossMu.Unlock()
		for _, sh := range s.shards {
			if err := sh.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// ShardStates dumps every shard's durable state as one consistent cut: all
// shard locks are held (ascending) while dumping, so each cross-region
// commit — which mutates all its shards under the same locks — appears on
// every involved shard or none. (Releases are per-shard; a session mid-
// release across expiry wheels is reported by ComposeShardStates as torn.)
func (s *ShardedServer) ShardStates() []State {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	states := make([]State, len(s.shards))
	for i, sh := range s.shards {
		states[i] = sh.stateLocked()
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	return states
}

// ComposedState merges a consistent cut of every shard's state onto the
// full topology (ComposeShardStates), for VerifyState.
func (s *ShardedServer) ComposedState() (State, []string, error) {
	return ComposeShardStates(s.g, s.part, s.ShardStates())
}

// RouterMetrics is the /metrics "router" section of a sharded server.
type RouterMetrics struct {
	Shards           int   `json:"shards"`
	PartitionSeed    int64 `json:"partition_seed"`
	CutEdges         int   `json:"cut_edges"`
	BoundarySwitches int   `json:"boundary_switches"`
	// SingleRegion and CrossRegion count routed requests by class;
	// CrossRegionRate is CrossRegion over their sum.
	SingleRegion    int64   `json:"single_region"`
	CrossRegion     int64   `json:"cross_region"`
	CrossRegionRate float64 `json:"cross_region_rate"`
	// Prepares counts two-phase commit attempts, Conflicts the attempts or
	// view rejections invalidated by concurrent shard traffic, Retries the
	// fresh-view re-solves, Aborts the prepared attempts rolled back, and
	// GlobalFallbacks the requests decided under every shard's lock.
	Prepares        int64 `json:"prepares"`
	Conflicts       int64 `json:"conflicts"`
	Retries         int64 `json:"retries"`
	Aborts          int64 `json:"aborts"`
	GlobalFallbacks int64 `json:"global_fallbacks"`
}

// ShardedMetrics is the sharded daemon's GET /metrics document: the
// aggregate view in the embedded Metrics (summed counters, merged
// histograms; peak qubits is the sum of per-shard peaks, an upper bound),
// the router's own counters, and the per-shard breakdown.
type ShardedMetrics struct {
	Metrics
	Router RouterMetrics `json:"router"`
	Shards []Metrics     `json:"shards"`
}

// mergeHistograms sums bucket-aligned histogram snapshots; means are
// count-weighted.
func mergeHistograms(snaps ...HistogramSnapshot) HistogramSnapshot {
	var out HistogramSnapshot
	var weighted float64
	for _, h := range snaps {
		if out.Buckets == nil && len(h.Buckets) > 0 {
			out.Buckets = make([]Bucket, len(h.Buckets))
			for i := range h.Buckets {
				out.Buckets[i].LeMs = h.Buckets[i].LeMs
			}
		}
		for i := range h.Buckets {
			out.Buckets[i].Count += h.Buckets[i].Count
		}
		out.Count += h.Count
		weighted += h.MeanMs * float64(h.Count)
	}
	if out.Count > 0 {
		out.MeanMs = weighted / float64(out.Count)
	}
	return out
}

// aggregateDurability folds per-shard durability sections; nil when no
// shard runs durable.
func aggregateDurability(shards []Metrics) *DurabilityMetrics {
	var out *DurabilityMetrics
	var syncMs float64
	for _, m := range shards {
		d := m.Durability
		if d == nil {
			continue
		}
		if out == nil {
			out = &DurabilityMetrics{}
		}
		if d.Failed {
			out.Failed = true
			if out.Failure == "" {
				out.Failure = d.Failure
			}
		}
		out.WALSeq += d.WALSeq
		out.WAL.Records += d.WAL.Records
		out.WAL.Batches += d.WAL.Batches
		if d.WAL.MaxBatch > out.WAL.MaxBatch {
			out.WAL.MaxBatch = d.WAL.MaxBatch
		}
		out.WAL.Bytes += d.WAL.Bytes
		out.WAL.Syncs += d.WAL.Syncs
		syncMs += d.WAL.SyncMeanMs * float64(d.WAL.Syncs)
		if d.WAL.SyncP99Ms > out.WAL.SyncP99Ms {
			out.WAL.SyncP99Ms = d.WAL.SyncP99Ms
		}
		out.WAL.Rotations += d.WAL.Rotations
		out.WAL.Compactions += d.WAL.Compactions
		if d.Snapshot.Seq > out.Snapshot.Seq {
			out.Snapshot.Seq = d.Snapshot.Seq
		}
		if d.Snapshot.AgeMs > out.Snapshot.AgeMs {
			out.Snapshot.AgeMs = d.Snapshot.AgeMs
		}
		out.Snapshot.Bytes += d.Snapshot.Bytes
		out.Snapshot.Failures += d.Snapshot.Failures
		if d.Recovery.DurationMs > out.Recovery.DurationMs {
			out.Recovery.DurationMs = d.Recovery.DurationMs
		}
		out.Recovery.WALRecords += d.Recovery.WALRecords
		out.Recovery.Sessions += d.Recovery.Sessions
		if d.Recovery.SnapshotSeq > out.Recovery.SnapshotSeq {
			out.Recovery.SnapshotSeq = d.Recovery.SnapshotSeq
		}
	}
	if out != nil {
		if out.WAL.Batches > 0 {
			out.WAL.MeanBatch = float64(out.WAL.Records) / float64(out.WAL.Batches)
		}
		if out.WAL.Syncs > 0 {
			out.WAL.SyncMeanMs = syncMs / float64(out.WAL.Syncs)
		}
	}
	return out
}

// Metrics snapshots every shard plus the router and aggregates them. Summed
// counters are exact (cross-region sessions are homed on — and counted by —
// exactly one shard); the aggregate peak is the sum of per-shard peaks,
// which bounds but may overstate the true simultaneous peak.
func (s *ShardedServer) Metrics() ShardedMetrics {
	shardM := make([]Metrics, len(s.shards))
	for i, sh := range s.shards {
		shardM[i] = sh.Metrics()
	}
	s.crossMu.Lock()
	crossWork := s.crossWork
	s.crossMu.Unlock()

	agg := Metrics{UptimeMs: float64(s.clock.Now().Sub(s.start)) / 1e6}
	var work core.SolveStats
	work.Merge(&crossWork)
	var sumRate float64
	hists := []HistogramSnapshot{s.lat.snapshot()}
	for i, m := range shardM {
		agg.Queue.Depth += m.Queue.Depth
		agg.Queue.Capacity += m.Queue.Capacity
		agg.Requests.Total += m.Requests.Total
		agg.Requests.Accepted += m.Requests.Accepted
		agg.Requests.Rejected += m.Requests.Rejected
		agg.Requests.QueueFull += m.Requests.QueueFull
		agg.Requests.Throttled += m.Requests.Throttled
		agg.Requests.Invalid += m.Requests.Invalid
		agg.Requests.Canceled += m.Requests.Canceled
		agg.Requests.Failed += m.Requests.Failed
		agg.Batches.Count += m.Batches.Count
		agg.Batches.Requests += m.Batches.Requests
		if m.Batches.MaxSize > agg.Batches.MaxSize {
			agg.Batches.MaxSize = m.Batches.MaxSize
		}
		hists = append(hists, m.SolveLatency)
		active, secondary := s.shards[i].sessionCounts()
		agg.Sessions.Active += active - secondary
		agg.Sessions.Expired += m.Sessions.Expired
		agg.Sessions.Deleted += m.Sessions.Deleted
		agg.Ledger.UsedQubits += m.Ledger.UsedQubits
		agg.Ledger.TotalQubits += m.Ledger.TotalQubits
		if m.Ledger.EpochGen > agg.Ledger.EpochGen {
			agg.Ledger.EpochGen = m.Ledger.EpochGen
		}
		agg.Admission.PeakQubitsInUse += m.Admission.PeakQubitsInUse
		work.Merge(&m.Admission.Work)
		sumRate += m.Admission.MeanAcceptedRate * float64(m.Requests.Accepted)
	}
	if agg.Batches.Count > 0 {
		agg.Batches.MeanSize = float64(agg.Batches.Requests) / float64(agg.Batches.Count)
	}
	agg.Ledger.FreeQubits = agg.Ledger.TotalQubits - agg.Ledger.UsedQubits
	agg.SolveLatency = mergeHistograms(hists...)
	acc, rej := agg.Requests.Accepted, agg.Requests.Rejected
	agg.Admission.Sessions = int(acc + rej)
	agg.Admission.Accepted = int(acc)
	agg.Admission.Rejected = int(rej)
	if acc+rej > 0 {
		agg.Admission.AcceptanceRatio = float64(acc) / float64(acc+rej)
	}
	if acc > 0 {
		agg.Admission.MeanAcceptedRate = sumRate / float64(acc)
	}
	agg.Admission.Work = work
	agg.Durability = aggregateDurability(shardM)
	agg.Tenants = aggregateTenants(shardM)

	single, cross := s.singleRegion.Load(), s.crossRegion.Load()
	rm := RouterMetrics{
		Shards:           len(s.shards),
		PartitionSeed:    s.part.Seed,
		CutEdges:         s.part.CutEdges,
		BoundarySwitches: len(s.part.Boundary),
		SingleRegion:     single,
		CrossRegion:      cross,
		Prepares:         s.prepares.Load(),
		Conflicts:        s.conflicts.Load(),
		Retries:          s.retried.Load(),
		Aborts:           s.aborts.Load(),
		GlobalFallbacks:  s.fallbacks.Load(),
	}
	if single+cross > 0 {
		rm.CrossRegionRate = float64(cross) / float64(single+cross)
	}
	return ShardedMetrics{Metrics: agg, Router: rm, Shards: shardM}
}

// Handler returns the sharded daemon's HTTP API — Server.Handler's routes
// plus GET /partition (the pinned region partition).
func (s *ShardedServer) Handler() http.Handler {
	mux := newMux(s)
	mux.HandleFunc("GET /partition", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.part)
	})
	return mux
}

func (s *ShardedServer) retryAfter() time.Duration { return s.base.RetryAfter }
func (s *ShardedServer) metricsDoc() any           { return s.Metrics() }

func (s *ShardedServer) healthErr() error {
	if s.closing.Load() {
		return ErrClosed
	}
	for _, sh := range s.shards {
		if err := sh.healthErr(); err != nil {
			return err
		}
	}
	return nil
}
