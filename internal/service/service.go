// Package service implements the online entanglement-routing daemon: the
// operational layer the ROADMAP's "serve heavy multi-user traffic" goal
// asks for, turning the paper's admission setting (sessions arrive, hold
// ⌊Q_r/2⌋-bounded switch capacity via the ledger, depart and free it) into
// a long-running service.
//
// Architecture (see DESIGN.md §6, §8):
//
//	HTTP/Submit → DWRR queue → serve loop → decide → BuildGreedyTree
//	                               │           │ (one mutex)  │
//	              expiry wheel ────┘           └── live Ledger ←┘
//	              (TTL timer)                         ▲
//	                                    DELETE ───────┘
//
// Requests are enqueued onto the qos.Scheduler (qosplane.go): bounded
// per-tenant sub-queues drained deficit-weighted round-robin. Without a
// tenant policy it holds the lone default tenant, whose queue is a plain
// FIFO. A full queue is immediate backpressure (ErrQueueFull / HTTP 429).
// Each Server runs one goroutine, the serve loop, which owns admission and
// the expiry wheel. It sleeps until a request arrives, the earliest session
// expiry comes due, or shutdown starts. It then releases every due session
// exactly as sched.Simulate's expireSessions does and decides whatever is
// queued in micro-batches of up to MaxBatch. Nothing waits for a batch to
// fill: a batch is what queued while the previous one was being decided.
// Each batch is decided serially under one lock acquisition, so consecutive
// solves share a warm ledger-epoch stretch for the incremental search cache
// and one WAL group commit covers the whole batch. Accepted sessions hold
// their tree's switch qubits until their TTL expires or they are deleted.
// Deciding each request against the capacity held at its admission instant
// is what makes the daemon's admission decisions match the offline
// simulator trace for trace (pinned by the differential test).
//
// Concurrency: the ledger, session table and expiry heap are guarded by
// one mutex, taken by the serve loop and by DELETE (the contract documented
// on quantum.Ledger).
// Counters and the latency histogram are atomic and lock-free.
package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
)

// Service errors. Submit wraps core.ErrInfeasible for capacity rejections;
// callers distinguish outcomes with errors.Is.
var (
	// ErrQueueFull reports backpressure: the admission queue is at capacity
	// and the request was not enqueued (HTTP 429).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrClosed reports a request received during or after shutdown.
	ErrClosed = errors.New("service: server closed")
	// ErrInvalidRequest reports a request rejected before queueing (bad
	// user set or TTL).
	ErrInvalidRequest = errors.New("service: invalid request")
	// ErrNoSession reports an unknown session ID.
	ErrNoSession = errors.New("service: no such session")
)

// Config parameterizes a Server. Zero fields take the documented defaults.
type Config struct {
	// Graph is the topology to serve on (required, not modified).
	Graph *graph.Graph
	// Params are the physical-layer constants (zero value = DefaultParams).
	Params quantum.Params
	// QueueSize bounds the admission queue (each tenant's sub-queue, unless
	// its spec sets its own); a full queue rejects with ErrQueueFull.
	// Default 256.
	QueueSize int
	// MaxBatch caps how many requests one micro-batch admits under a single
	// lock acquisition. Default 16.
	MaxBatch int
	// MaxWait is ignored: the serve loop decides whatever is queued when it
	// wakes and never waits for a batch to fill.
	//
	// Deprecated: kept only because the perfbench module still sets it.
	MaxWait time.Duration
	// Workers is ignored: every micro-batch is decided serially.
	//
	// Deprecated: kept only because the perfbench module still sets it.
	Workers int
	// DefaultTTL is the session lifetime when a request does not name one.
	// Default 30s.
	DefaultTTL time.Duration
	// MaxTTL caps requested lifetimes. Default 10m.
	MaxTTL time.Duration
	// RetryAfter is the backoff hint attached to queue-full rejections.
	// Default 1s.
	RetryAfter time.Duration
	// QoS is the tenant policy of the admission queue (qosplane.go,
	// DESIGN.md §11): per-tenant bounded sub-queues drained deficit-weighted
	// round-robin with strict-priority tiers, and token-bucket quotas that
	// throttle over-rate tenants. Nil is the anonymous daemon, the policy's
	// one-tenant case: every request joins the default tenant's queue (no
	// quota, depth QueueSize), which is plain FIFO. The config is validated
	// and normalized by New.
	QoS *qos.Config
	// Clock defaults to SystemClock; tests inject a fake.
	Clock Clock

	// DataDir enables the durability layer (DESIGN.md §7): admission
	// decisions are write-ahead logged under DataDir/wal and periodically
	// folded into snapshots under DataDir/snap, and New recovers the
	// pre-crash state from them. Empty means in-memory only.
	DataDir string
	// SnapshotEvery triggers a snapshot after this many WAL records.
	// Default 1024.
	SnapshotEvery int
	// SnapshotInterval triggers a snapshot after this much wall time even
	// when traffic is light. Default 30s.
	SnapshotInterval time.Duration
	// SnapshotKeep is how many snapshots Prune retains. Default 3.
	SnapshotKeep int
	// NoSync skips WAL fsyncs — only for benchmarks measuring the
	// non-durable baseline; a crash can then lose acknowledged records.
	NoSync bool
}

func (c Config) withDefaults() Config {
	if c.Params == (quantum.Params{}) {
		c.Params = quantum.DefaultParams()
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = 30 * time.Second
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Clock == nil {
		c.Clock = SystemClock()
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1024
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.SnapshotKeep <= 0 {
		c.SnapshotKeep = 3
	}
	return c
}

// SessionInfo is the public view of an admitted session.
type SessionInfo struct {
	ID string `json:"id"`
	// Users is the entangled user set.
	Users []graph.NodeID `json:"users"`
	// Tenant is the tenant the session was admitted under; empty is the
	// default tenant, and omitted in JSON so default-tenant sessions (and
	// their WAL records) serialize exactly as the pre-tenant schema did.
	Tenant string `json:"tenant,omitempty"`
	// Rate is the session tree's Eq. 2 entanglement rate.
	Rate float64 `json:"rate"`
	// Channels is the number of quantum channels in the routed tree.
	Channels   int       `json:"channels"`
	AdmittedAt time.Time `json:"admitted_at"`
	ExpiresAt  time.Time `json:"expires_at"`
}

// session is one admitted request holding ledger capacity. Sessions live in
// the expiry heap exactly as long as they live in the table: a release
// (expiry or DELETE) removes the heap entry eagerly via heapIdx, which
// keeps the heap's slice evolution a pure function of the admission/release
// sequence — the property WAL replay relies on to rebuild it byte for byte.
type session struct {
	info      SessionInfo
	tree      quantum.Tree
	expiresAt time.Time
	heapIdx   int
}

// expiryHeap is a min-heap of live sessions by expiry time — the timer
// wheel's agenda.
type expiryHeap []*session

func (h expiryHeap) Len() int            { return len(h) }
func (h expiryHeap) Less(i, j int) bool  { return h[i].expiresAt.Before(h[j].expiresAt) }
func (h expiryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *expiryHeap) Push(x interface{}) { s := x.(*session); s.heapIdx = len(*h); *h = append(*h, s) }
func (h *expiryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

// pending is one request travelling through the admission queue.
type pending struct {
	ctx    context.Context
	prob   *core.Problem
	users  []graph.NodeID
	ttl    time.Duration
	result chan admitResult // buffered(1): the loop never blocks responding

	// tenant is the wire tenant name ("" = default); enq and stat feed the
	// per-tenant admission-latency and outcome accounting (qosplane.go).
	// Deliver results via finish, never the raw channel.
	tenant string
	enq    time.Time
	stat   *tenantStat
}

type admitResult struct {
	info SessionInfo
	err  error
}

// Server is the admission daemon: it owns a live quantum.Ledger over one
// topology and decides entanglement-session requests in micro-batches.
// Construct with New; a Server starts serving immediately and stops with
// Close.
type Server struct {
	cfg   Config
	clock Clock
	start time.Time
	total int // total switch qubits in the topology
	// tmpl is the all-users Problem on cfg.Graph; every request's Problem
	// is derived from it and shares its search engine.
	tmpl *core.Problem

	quit   chan struct{}
	arrive chan struct{} // wakes the serve loop (see wakeAdmission)
	wg     sync.WaitGroup

	// The admission queue and its tenant policy (qosplane.go).
	queue  *qos.Scheduler // per-tenant bounded sub-queues, DWRR dequeue
	qlim   *qos.Limiter   // token-bucket quotas
	tstats *tenantTable   // per-tenant SLO accounting

	closing   atomic.Bool
	closeOnce sync.Once

	// mu guards the durable state (ledger, session table, expiry heap and ID
	// counter, the same replayState recovery rebuilds) and the aggregates
	// below; it is the single mutation lock of the Ledger contract.
	mu sync.Mutex
	replayState
	work    core.SolveStats // aggregated across every solve
	sumRate float64         // sum of accepted session rates
	peak    int             // high-water mark of reserved qubits

	ctrs counters
	lat  *histogram

	// dur is the durability runtime (WAL + snapshots); nil without DataDir.
	dur *durability
}

// New validates the configuration and starts the serve loop (plus the
// snapshotter when durable). The caller must Close the returned server.
func New(cfg Config) (*Server, error) {
	if cfg.Graph == nil {
		return nil, errors.New("service: nil graph")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	users := cfg.Graph.Users()
	if len(users) < 2 {
		return nil, errors.New("service: topology has fewer than 2 users")
	}
	tmpl, err := core.NewProblem(cfg.Graph, users, cfg.Params)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		tmpl:        tmpl,
		clock:       cfg.Clock,
		start:       cfg.Clock.Now(),
		replayState: *newReplayState(cfg.Graph),
		quit:        make(chan struct{}),
		arrive:      make(chan struct{}, 1),
		lat:         newHistogram(),
	}
	policy, err := cfg.tenantPolicy()
	if err != nil {
		return nil, err
	}
	s.queue = qos.NewScheduler(policy, cfg.QueueSize)
	s.qlim = qos.NewLimiter(policy)
	s.tstats = newTenantTable(policy)
	for _, id := range cfg.Graph.Switches() {
		s.total += cfg.Graph.Node(id).Qubits
	}
	if cfg.DataDir != "" {
		// Recover the pre-crash state and open the WAL before any goroutine
		// can mutate or observe it.
		if err := s.openDurability(cfg); err != nil {
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.serveLoop()
	if s.dur != nil {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// Graph returns the topology the server routes on.
func (s *Server) Graph() *graph.Graph { return s.cfg.Graph }

// Submit enqueues one session request and blocks until the serve loop
// decides it or ctx ends; it is the programmatic face of POST /sessions.
// ttl <= 0 means the server default; TTLs are capped at Config.MaxTTL and
// at the tenant's own max_ttl_ms (clamped requests are counted in the
// tenant's ttl_clamped metric).
// Outcomes: nil error = admitted (capacity held until expiry or Delete);
// core.ErrInfeasible = rejected under residual capacity; ErrQueueFull =
// backpressure, retry later; ErrInvalidRequest = malformed user set;
// ErrClosed = shutting down; a context error if ctx ended first (a request
// cancelled mid-queue may still be decided — an accept then simply expires
// at its TTL).
func (s *Server) Submit(ctx context.Context, users []graph.NodeID, ttl time.Duration) (SessionInfo, error) {
	return s.SubmitTenant(ctx, "", users, ttl)
}

// SubmitTenant is Submit with an explicit tenant name (the POST /sessions
// "tenant" field). The empty name is the default tenant. The request joins
// its tenant's sub-queue after passing the tenant's token-bucket quota — an
// over-rate tenant gets a *qos.ThrottleError (errors.Is qos.ErrThrottled,
// HTTP 429 + Retry-After), and a full tenant sub-queue gets ErrQueueFull
// without touching other tenants' capacity. Unknown tenant names are served
// under the default class; without a tenant policy they still tag the
// session verbatim.
func (s *Server) SubmitTenant(ctx context.Context, tenant string, users []graph.NodeID, ttl time.Duration) (SessionInfo, error) {
	s.ctrs.requests.Add(1)
	if s.closing.Load() {
		return SessionInfo{}, ErrClosed
	}
	if len(users) < 2 {
		s.ctrs.invalid.Add(1)
		return SessionInfo{}, fmt.Errorf("%w: session needs at least 2 users, got %d", ErrInvalidRequest, len(users))
	}
	// Problems are built (and validated) outside the serve loop so the
	// serial section only runs the solver.
	prob, err := s.tmpl.WithUsers(users)
	if err != nil {
		s.ctrs.invalid.Add(1)
		return SessionInfo{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	if ttl <= 0 {
		ttl = s.cfg.DefaultTTL
	}
	if ttl > s.cfg.MaxTTL {
		ttl = s.cfg.MaxTTL
	}
	tenant = s.wireTenant(tenant)
	stat := s.tstats.get(tenant)
	ttl = stat.clampTTL(ttl)
	p := &pending{
		ctx: ctx, prob: prob, users: prob.Users, ttl: ttl,
		result: make(chan admitResult, 1),
		tenant: tenant, enq: time.Now(), stat: stat,
	}
	// Quota first: a throttled request must not consume queue space.
	if err := s.qlim.Allow(stat.spec.ID, s.clock.Now()); err != nil {
		s.ctrs.throttled.Add(1)
		stat.throttled.Add(1)
		return SessionInfo{}, err
	}
	if err := s.queue.Enqueue(stat.spec.ID, p); err != nil {
		s.ctrs.queueFull.Add(1)
		stat.queueFull.Add(1)
		return SessionInfo{}, ErrQueueFull
	}
	s.wakeAdmission()
	select {
	case r := <-p.result:
		return r.info, r.err
	case <-ctx.Done():
		return SessionInfo{}, ctx.Err()
	}
}

// Session returns the live session with the given ID.
func (s *Server) Session(id string) (SessionInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return SessionInfo{}, false
	}
	return sess.info, true
}

// Delete releases a session's ledger capacity before its TTL (DELETE
// /sessions/{id}). It returns ErrNoSession for unknown or already-ended
// sessions.
func (s *Server) Delete(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	s.releaseLocked(sess, releasedDeleted, s.clock.Now())
	s.ctrs.deleted.Add(1)
	ticket := s.enqueueRecordsLocked()
	s.mu.Unlock()
	// Write-ahead contract: the release is on disk before the 204.
	return s.waitDurable(ticket)
}

// ActiveSessions returns the number of sessions currently holding capacity.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Close stops accepting new requests, drains everything already queued
// (each still gets a real admission decision — SIGTERM does not drop
// accepted work), stops the serve loop and returns.
// Close is idempotent and safe to call concurrently.
func (s *Server) Close() error {
	var closeErr error
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		close(s.quit)
		s.wg.Wait()
		// A racing Submit may have slipped into the queue after the drain
		// finished; bounce those rather than leaving callers waiting.
		for p, ok := s.dequeue(); ok; p, ok = s.dequeue() {
			p.finish(admitResult{err: ErrClosed})
		}
		// Final snapshot + WAL close: a clean restart replays nothing.
		closeErr = s.closeDurability()
	})
	return closeErr
}

// serveLoop is the Server's one goroutine: the single consumer of the queue
// and the expiry wheel. Each pass releases every session due now, waits for
// those releases to be durable, arms a timer for the next expiry and sleeps
// until it fires, a request arrives or shutdown starts. An arrival or
// shutdown drains the queue; shutdown then ends the loop.
func (s *Server) serveLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		now := s.clock.Now()
		s.expireLocked(now)
		var timer <-chan time.Time
		if len(s.expiry) > 0 {
			timer = s.clock.After(s.expiry[0].expiresAt.Sub(now))
		}
		ticket := s.enqueueRecordsLocked()
		s.mu.Unlock()
		_ = s.waitDurable(ticket)
		select {
		case <-s.quit:
			s.drain()
			return
		case <-s.arrive:
			s.drain()
		case <-timer:
		}
	}
}

// drain decides everything queued, in micro-batches of up to MaxBatch taken
// in DWRR order from what is already queued; it never waits for more.
func (s *Server) drain() {
	batch := make([]*pending, 0, s.cfg.MaxBatch)
	for {
		batch = batch[:0]
		for len(batch) < s.cfg.MaxBatch {
			p, ok := s.dequeue()
			if !ok {
				break
			}
			batch = append(batch, p)
		}
		if len(batch) == 0 {
			return
		}
		s.decide(batch)
	}
}

// decide decides a whole micro-batch under one lock acquisition: expiry
// runs once at the batch's admission instant, then every request solves
// against the live ledger in dequeue order. Keeping Release out of the
// solve sequence keeps ledger epochs monotone across the batch, so the
// incremental search cache never invalidates wholesale mid-batch. Each
// request gets exactly one result, delivered only once the batch is durable.
func (s *Server) decide(batch []*pending) {
	s.ctrs.noteBatch(len(batch))
	results := make([]admitResult, len(batch))
	s.mu.Lock()
	now := s.clock.Now()
	s.expireLocked(now)
	for i, p := range batch {
		info, err := s.admitOneLocked(now, p)
		results[i] = admitResult{info: info, err: err}
	}
	// Hand the batch's records (expiries + admits, in mutation order) to the
	// WAL while still holding the lock: WAL order is mutation order.
	ticket := s.enqueueRecordsLocked()
	s.mu.Unlock()
	// Write-ahead contract: decisions reach disk before any caller hears
	// them. One fsync covers the whole batch (group commit).
	_ = s.waitDurable(ticket)
	for i, p := range batch {
		p.finish(results[i])
	}
}

// admitOneLocked decides one request against the live ledger under s.mu.
func (s *Server) admitOneLocked(now time.Time, p *pending) (SessionInfo, error) {
	if err := p.ctx.Err(); err != nil {
		s.ctrs.canceled.Add(1)
		return SessionInfo{}, err
	}
	var st core.SolveStats
	genBefore := s.led.Epoch().Gen
	t0 := time.Now()
	tree, err := core.BuildGreedyTree(p.ctx, p.prob, s.led, &core.SolveOptions{Stats: &st})
	s.lat.observe(time.Since(t0))
	s.work.Merge(&st)
	if err != nil {
		switch sched.Classify(p.ctx.Err(), err) {
		case sched.VerdictRejected:
			s.ctrs.rejected.Add(1)
		case sched.VerdictAborted:
			if p.ctx.Err() != nil {
				// The request's deadline fired mid-solve; BuildGreedyTree
				// rolled every reservation back.
				s.ctrs.canceled.Add(1)
			} else {
				s.ctrs.failed.Add(1)
			}
		}
		// A rolled-back attempt leaves the budgets untouched but its
		// reopening releases may have bumped the closure generation; log the
		// bump so replay lands on the identical epoch.
		if gen := s.led.Epoch().Gen; gen != genBefore {
			s.appendRecordLocked(walRecord{T: recEpoch, Epoch: &epochRecord{Gen: gen}})
		}
		return SessionInfo{}, err
	}
	s.nextID++
	id := fmt.Sprintf("s-%d", s.nextID)
	sess := &session{
		info: SessionInfo{
			ID:         id,
			Users:      p.users,
			Tenant:     p.tenant,
			Rate:       tree.Rate(),
			Channels:   len(tree.Channels),
			AdmittedAt: now,
			ExpiresAt:  now.Add(p.ttl),
		},
		tree:      tree,
		expiresAt: now.Add(p.ttl),
	}
	s.sessions[id] = sess
	heap.Push(&s.expiry, sess)
	s.ctrs.accepted.Add(1)
	s.sumRate += sess.info.Rate
	if used := s.led.UsedQubits(); used > s.peak {
		s.peak = used
	}
	s.appendRecordLocked(walRecord{T: recAdmit, Admit: &admitRecord{
		Info:   sess.info,
		Tree:   tree,
		NextID: s.nextID,
	}})
	return sess.info, nil
}

// expireLocked releases every session whose expiry is at or before now —
// the same departAt <= now rule as sched.Simulate's expireSessions.
func (s *Server) expireLocked(now time.Time) {
	for len(s.expiry) > 0 {
		next := s.expiry[0]
		if next.expiresAt.After(now) {
			return
		}
		s.releaseLocked(next, releasedExpired, now)
		s.ctrs.expired.Add(1)
	}
}

// Release reasons recorded in the WAL.
const (
	releasedExpired = "expired"
	releasedDeleted = "deleted"
)

// releaseLocked refunds a session's tree, drops it from the table, removes
// its expiry-heap entry eagerly, and stages the WAL record.
func (s *Server) releaseLocked(sess *session, reason string, now time.Time) {
	heap.Remove(&s.expiry, sess.heapIdx)
	core.ReleaseTree(s.led, sess.tree)
	delete(s.sessions, sess.info.ID)
	s.appendRecordLocked(walRecord{T: recRelease, Release: &releaseRecord{
		ID:     sess.info.ID,
		Tenant: sess.info.Tenant,
		Reason: reason,
		At:     now,
	}})
}

// Metrics snapshots the daemon's counters, live queue and ledger state, and
// the shared sched.Summary admission view.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	work := s.work
	active := len(s.sessions)
	used := s.led.UsedQubits()
	gen := s.led.Epoch().Gen
	sumRate := s.sumRate
	peak := s.peak
	s.mu.Unlock()

	acc := s.ctrs.accepted.Load()
	rej := s.ctrs.rejected.Load()
	adm := sched.Summary{
		Sessions:        int(acc + rej),
		Accepted:        int(acc),
		Rejected:        int(rej),
		PeakQubitsInUse: peak,
		Work:            work,
	}
	if acc+rej > 0 {
		adm.AcceptanceRatio = float64(acc) / float64(acc+rej)
	}
	if acc > 0 {
		adm.MeanAcceptedRate = sumRate / float64(acc)
	}
	batches := s.ctrs.batches.Load()
	bm := BatchMetrics{
		Count:    batches,
		Requests: s.ctrs.batchedRequests.Load(),
		MaxSize:  s.ctrs.maxBatch.Load(),
	}
	if batches > 0 {
		bm.MeanSize = float64(bm.Requests) / float64(batches)
	}
	qm := QueueMetrics{Depth: s.queue.Len()}
	for _, q := range s.queue.Queues() {
		qm.Capacity += q.Capacity
	}
	return Metrics{
		UptimeMs: float64(s.clock.Now().Sub(s.start)) / 1e6,
		Queue:    qm,
		Requests: RequestMetrics{
			Total:     s.ctrs.requests.Load(),
			Accepted:  acc,
			Rejected:  rej,
			QueueFull: s.ctrs.queueFull.Load(),
			Throttled: s.ctrs.throttled.Load(),
			Invalid:   s.ctrs.invalid.Load(),
			Canceled:  s.ctrs.canceled.Load(),
			Failed:    s.ctrs.failed.Load(),
		},
		Batches:      bm,
		SolveLatency: s.lat.snapshot(),
		Sessions: SessionMetrics{
			Active:  active,
			Expired: s.ctrs.expired.Load(),
			Deleted: s.ctrs.deleted.Load(),
		},
		Ledger: LedgerMetrics{
			UsedQubits:  used,
			FreeQubits:  s.total - used,
			TotalQubits: s.total,
			EpochGen:    gen,
		},
		Admission:  adm,
		Durability: s.durabilityMetrics(),
		Tenants:    s.tenantMetrics(),
	}
}
