package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/topology"
)

// wideBottleneck is bottleneck with a roomier switch, so several concurrent
// sessions fit and quota rejections are distinguishable from capacity ones.
func wideBottleneck(t testing.TB, qubits int) *graph.Graph {
	t.Helper()
	g := graph.New(5, 4)
	g.AddUser(0, 0)
	g.AddUser(2000, 0)
	g.AddUser(0, 2000)
	g.AddUser(2000, 2000)
	g.AddSwitch(1000, 1000, qubits)
	for u := graph.NodeID(0); u < 4; u++ {
		g.MustAddEdge(u, 4, 1500)
	}
	return g
}

func postTenantSession(t *testing.T, base, tenant string, users []int, ttlMs int64) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{"users": users, "ttl_ms": ttlMs, "tenant": tenant})
	resp, err := http.Post(base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sessions: %v", err)
	}
	return resp
}

func findTenant(t *testing.T, tenants []TenantMetrics, id string) TenantMetrics {
	t.Helper()
	for _, tm := range tenants {
		if tm.ID == id {
			return tm
		}
	}
	t.Fatalf("tenant %q missing from metrics %+v", id, tenants)
	return TenantMetrics{}
}

// TestQoSQuotaThrottleHTTP pins the quota semantics end to end: a tenant
// past its token bucket gets 429 with error "throttled" and a Retry-After
// computed from the bucket's refill time, other tenants are untouched, the
// bucket refills with the (fake) clock, and the per-tenant SLO section in
// /metrics accounts each outcome to the right tenant.
func TestQoSQuotaThrottleHTTP(t *testing.T) {
	base := time.Unix(1000, 0)
	fc := newFakeClock(base)
	s := newTestServer(t, Config{
		Graph:    wideBottleneck(t, 8),
		MaxBatch: 1,
		MaxTTL:   time.Hour,
		Clock:    fc,
		QoS: &qos.Config{Tenants: []qos.TenantSpec{
			{ID: "limited", RatePerSec: 1, Burst: 1},
			{ID: "open", Weight: 2},
		}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postTenantSession(t, ts.URL, "limited", []int{0, 1}, 3600_000)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("limited #1 status = %d, want 201", resp.StatusCode)
	}
	var info SessionInfo
	decodeInto(t, resp, &info)
	if info.Tenant != "limited" {
		t.Fatalf("session tenant = %q, want limited", info.Tenant)
	}

	// Burst spent, clock standing still: the next request must throttle.
	resp = postTenantSession(t, ts.URL, "limited", []int{2, 3}, 3600_000)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("limited #2 status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	var eb errorBody
	decodeInto(t, resp, &eb)
	if eb.Error != "throttled" {
		t.Fatalf("error code = %q, want throttled", eb.Error)
	}

	// The other tenant is unaffected by limited's empty bucket.
	resp = postTenantSession(t, ts.URL, "open", []int{2, 3}, 3600_000)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open status = %d, want 201", resp.StatusCode)
	}
	_ = resp.Body.Close()

	// One refill interval later the throttled tenant is served again.
	fc.Set(base.Add(2 * time.Second))
	resp = postTenantSession(t, ts.URL, "limited", []int{0, 2}, 3600_000)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("limited #3 status = %d, want 201", resp.StatusCode)
	}
	_ = resp.Body.Close()

	m := s.Metrics()
	if m.Requests.Throttled != 1 {
		t.Fatalf("Requests.Throttled = %d, want 1", m.Requests.Throttled)
	}
	lim := findTenant(t, m.Tenants, "limited")
	if lim.Accepted != 2 || lim.Throttled != 1 {
		t.Fatalf("limited accounting = %+v, want 2 accepted / 1 throttled", lim)
	}
	if lim.AdmissionLatency.Count != 2 {
		t.Fatalf("limited latency count = %d, want 2 (throttles are not decisions)", lim.AdmissionLatency.Count)
	}
	open := findTenant(t, m.Tenants, "open")
	if open.Accepted != 1 || open.Throttled != 0 {
		t.Fatalf("open accounting = %+v, want 1 accepted / 0 throttled", open)
	}
	def := findTenant(t, m.Tenants, qos.DefaultTenant)
	if def.Accepted != 0 {
		t.Fatalf("default tenant accounting = %+v, want untouched", def)
	}
}

// TestQoSPerTenantQueueBound pins queue isolation: a tenant with a tiny
// sub-queue gets ErrQueueFull without consuming any other tenant's budget,
// and the per-tenant queue-full counter attributes the bounce. The server
// mutex is held by the test so the serve loop cannot drain: requests
// pile up in the QoS scheduler, and Enqueue's bound check — which is
// synchronous — fires deterministically once the tiny queue holds one item.
func TestQoSPerTenantQueueBound(t *testing.T) {
	s := newTestServer(t, Config{
		Graph:    wideBottleneck(t, 8),
		MaxBatch: 1,
		MaxTTL:   time.Hour,
		QoS: &qos.Config{Tenants: []qos.TenantSpec{
			{ID: "tiny", QueueSize: 1},
			{ID: "roomy", QueueSize: 8},
		}},
	})
	s.mu.Lock()
	defer s.mu.Unlock()

	// Submit with a short deadline: when the request lands in the queue the
	// deadline fires (the loop is parked on s.mu), when the queue is full the
	// bounce is synchronous. Each queued-but-abandoned request stays queued,
	// so within a few rounds the single-slot tenant must report full.
	trySubmit := func(tenant string, users []graph.NodeID) error {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := s.SubmitTenant(ctx, tenant, users, time.Minute)
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := trySubmit("tiny", []graph.NodeID{0, 1})
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("tiny submit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("tiny tenant queue never reported full")
		}
	}
	// The other tenant's sub-queue still has room: its request queues (and
	// times out waiting) rather than bouncing.
	if err := trySubmit("roomy", []graph.NodeID{0, 2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("roomy submit = %v, want queued (deadline exceeded)", err)
	}

	tiny := s.tstats.get("tiny")
	if tiny == nil || tiny.queueFull.Load() == 0 {
		t.Fatalf("tiny tenant has no queue_full bounce recorded")
	}
	if roomy := s.tstats.get("roomy"); roomy == nil || roomy.queueFull.Load() != 0 {
		t.Fatalf("roomy tenant recorded a queue_full bounce")
	}
}

// TestQoSDifferential replays one trace through a server with and without a
// single-default-tenant policy: the policy must be semantically invisible,
// and the tenant section must account every decision.
func TestQoSDifferential(t *testing.T) {
	g := clusterGraph(t, 4, 4, 4, 4)
	w := sched.Workload{Requests: 120, MeanInterarrival: 1, MeanHold: 6, MinUsers: 2, MaxUsers: 3}
	requests, err := w.Generate(g, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	sort.SliceStable(requests, func(i, j int) bool {
		if requests[i].Arrival != requests[j].Arrival {
			return requests[i].Arrival < requests[j].Arrival
		}
		return requests[i].ID < requests[j].ID
	})
	base := time.Unix(0, 0)
	mkConfig := func(fc *fakeClock, withQoS bool) Config {
		c := Config{
			Graph:     g,
			QueueSize: 4,
			MaxBatch:  1,
			MaxTTL:    1000 * time.Hour,
			Clock:     fc,
		}
		if withQoS {
			c.QoS = &qos.Config{}
		}
		return c
	}
	refClock := newFakeClock(base)
	ref := newTestServer(t, mkConfig(refClock, false))
	want := replayTrace(t, ref, refClock, base, requests)

	fc := newFakeClock(base)
	s := newTestServer(t, mkConfig(fc, true))
	got := replayTrace(t, s, fc, base, requests)
	for i := range want {
		if got[i].accepted != want[i].accepted {
			t.Fatalf("request %d qos accepted=%v, plain accepted=%v",
				requests[i].ID, got[i].accepted, want[i].accepted)
		}
		if math.Abs(got[i].rate-want[i].rate) > 1e-15*math.Max(1, math.Abs(want[i].rate)) {
			t.Fatalf("request %d rate %g vs %g", requests[i].ID, got[i].rate, want[i].rate)
		}
	}
	m := s.Metrics()
	def := findTenant(t, m.Tenants, qos.DefaultTenant)
	if def.Accepted != m.Requests.Accepted || def.Rejected != m.Requests.Rejected {
		t.Fatalf("default tenant %+v vs requests %+v", def, m.Requests)
	}
	if def.AdmissionLatency.Count != def.Accepted+def.Rejected {
		t.Fatalf("tenant latency count %d, want %d decisions",
			def.AdmissionLatency.Count, def.Accepted+def.Rejected)
	}
}

// TestQoSMultiTenantHammer floods a QoS server from many goroutines across
// every tenant class (weighted, prioritized, quota'd, default, unknown)
// with concurrent deletes and expiries, then verifies the final durable
// state image against the ledger invariants and cross-checks the tenant
// SLO counters against the global ones. Run under -race this is the
// concurrency pin for the QoS plane.
func TestQoSMultiTenantHammer(t *testing.T) {
	cfgT := topology.Default()
	cfgT.Users = 8
	cfgT.Switches = 16
	cfgT.SwitchQubits = 2
	g, err := topology.Generate(cfgT, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	qc := &qos.Config{
		Tenants: []qos.TenantSpec{
			{ID: "gold", Weight: 3, Priority: 1},
			{ID: "bronze", Weight: 1},
			{ID: "capped", RatePerSec: 200, Burst: 20},
		},
		GuaranteedShare: 0.25,
	}
	s := newTestServer(t, Config{
		Graph:     g,
		QueueSize: 64,
		MaxBatch:  4,
		MaxTTL:    time.Hour,
		QoS:       qc,
	})

	users := g.Users()
	tenants := []string{"gold", "bronze", "capped", "", "unknown-tenant"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				pair := []graph.NodeID{
					users[rng.Intn(len(users))],
					users[rng.Intn(len(users))],
				}
				for pair[1] == pair[0] {
					pair[1] = users[rng.Intn(len(users))]
				}
				tenant := tenants[rng.Intn(len(tenants))]
				info, err := s.SubmitTenant(context.Background(), tenant, pair, 20*time.Millisecond)
				switch {
				case err == nil:
					if rng.Intn(3) == 0 {
						_ = s.Delete(info.ID)
					}
				case errors.Is(err, core.ErrInfeasible),
					errors.Is(err, qos.ErrThrottled),
					errors.Is(err, ErrQueueFull):
				default:
					t.Errorf("tenant %q: unexpected error %v", tenant, err)
					return
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()

	if err := VerifyState(g, quantum.DefaultParams(), s.StateDump()); err != nil {
		t.Fatalf("VerifyState: %v", err)
	}
	m := s.Metrics()
	var accepted, rejected, throttled int64
	for _, tm := range m.Tenants {
		accepted += tm.Accepted
		rejected += tm.Rejected
		throttled += tm.Throttled
	}
	if accepted != m.Requests.Accepted || rejected != m.Requests.Rejected || throttled != m.Requests.Throttled {
		t.Fatalf("tenant sums %d/%d/%d disagree with request counters %d/%d/%d",
			accepted, rejected, throttled,
			m.Requests.Accepted, m.Requests.Rejected, m.Requests.Throttled)
	}
	if m.Requests.Accepted == 0 || m.Requests.Rejected == 0 {
		t.Fatalf("degenerate hammer (%d accepts, %d rejects)", m.Requests.Accepted, m.Requests.Rejected)
	}
}

// TestQoSRecoveryWithTenants drives a tenant-tagged durable trace, crashes,
// and requires the recovered state image — now carrying tenant fields in
// session infos — to serialize byte-identically, the tenants to survive a
// server restart, and the pinned qos.json to reject a policy change.
func TestQoSRecoveryWithTenants(t *testing.T) {
	dir := t.TempDir()
	cfgT := topology.Default()
	cfgT.Users = 8
	cfgT.Switches = 16
	cfgT.SwitchQubits = 2
	g, err := topology.Generate(cfgT, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	w := sched.Workload{Requests: 80, MeanInterarrival: 1, MeanHold: 6, MinUsers: 2, MaxUsers: 4}
	requests, err := w.Generate(g, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	sort.SliceStable(requests, func(i, j int) bool {
		if requests[i].Arrival != requests[j].Arrival {
			return requests[i].Arrival < requests[j].Arrival
		}
		return requests[i].ID < requests[j].ID
	})

	qc := &qos.Config{Tenants: []qos.TenantSpec{
		{ID: "gold", Weight: 3, Priority: 1},
		{ID: "bronze"},
	}}
	mk := func(fc *fakeClock, q *qos.Config) Config {
		return Config{
			Graph: g, DataDir: dir, QueueSize: 4, MaxBatch: 1,
			MaxTTL: 1000 * time.Hour, Clock: fc, QoS: q,
			SnapshotEvery: 1 << 30, SnapshotInterval: 1000 * time.Hour,
		}
	}
	base := time.Unix(0, 0)
	fc := newFakeClock(base)
	s, err := New(mk(fc, qc))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tenants := []string{"gold", "bronze", ""}
	accepted, rejected, deleted := 0, 0, 0
	for i, req := range requests {
		fc.Set(base.Add(seconds(req.Arrival)))
		info, err := s.SubmitTenant(context.Background(), tenants[i%len(tenants)], req.Users, seconds(req.Hold))
		switch {
		case err == nil:
			accepted++
			if accepted%5 == 0 {
				if err := s.Delete(info.ID); err != nil {
					t.Fatalf("Delete %s: %v", info.ID, err)
				}
				deleted++
			}
		case errors.Is(err, core.ErrInfeasible):
			rejected++
		default:
			t.Fatalf("request %d: %v", req.ID, err)
		}
	}
	if accepted == 0 || rejected == 0 || deleted == 0 {
		t.Fatalf("degenerate trace (%d/%d/%d)", accepted, rejected, deleted)
	}
	// Quiesce as durableTrace does.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.StateDump()
		pending := false
		for _, ss := range st.Sessions {
			if !ss.Info.ExpiresAt.After(fc.Now()) {
				pending = true
			}
		}
		if !pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expiry wheel never quiesced")
		}
		time.Sleep(time.Millisecond)
	}

	dump := s.StateDump()
	want := dumpJSON(t, dump)
	tagged := 0
	for _, ss := range dump.Sessions {
		if ss.Info.Tenant != "" {
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatal("no live session carries a tenant tag; the trace is too weak")
	}
	crash(t, s)

	rec, err := Recover(dir, g)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := dumpJSON(t, rec.State); string(got) != string(want) {
		t.Fatalf("recovered state differs\nlive:      %s\nrecovered: %s", want, got)
	}

	// A changed tenant policy must be refused against the pinned qos.json.
	if _, err := New(mk(newFakeClock(fc.Now()), &qos.Config{Tenants: []qos.TenantSpec{{ID: "gold", Weight: 7}}})); err == nil {
		t.Fatal("restart with a different QoS policy succeeded; want pin mismatch")
	}

	// The same policy restarts cleanly with identical state, tenants intact.
	s2, err := New(mk(newFakeClock(fc.Now()), qc))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() { _ = s2.Close() }()
	if got := dumpJSON(t, s2.StateDump()); string(got) != string(want) {
		t.Fatalf("restarted state differs\nbefore: %s\nafter:  %s", want, got)
	}
	for _, ss := range dump.Sessions {
		info, ok := s2.Session(ss.Info.ID)
		if !ok || info.Tenant != ss.Info.Tenant {
			t.Fatalf("session %s tenant %q not recovered (ok=%v info=%+v)", ss.Info.ID, ss.Info.Tenant, ok, info)
		}
	}
}

// TestQoSStarvationBoundUnderLoad floods a two-tier QoS server with
// high-priority traffic while a low-priority tenant keeps a steady trickle:
// the guaranteed share must keep serving the low tier (its accepted+rejected
// decision count stays nonzero), the end-to-end expression of the
// internal/qos starvation bound.
func TestQoSStarvationBoundUnderLoad(t *testing.T) {
	cfgT := topology.Default()
	cfgT.Users = 8
	cfgT.Switches = 16
	cfgT.SwitchQubits = 4
	g, err := topology.Generate(cfgT, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	s := newTestServer(t, Config{
		Graph:     g,
		QueueSize: 32,
		MaxBatch:  2,
		MaxTTL:    time.Hour,
		QoS: &qos.Config{
			Tenants: []qos.TenantSpec{
				{ID: "vip", Priority: 10, Weight: 4},
				{ID: "batch", Priority: 0, Weight: 1},
			},
			GuaranteedShare: 0.25,
		},
	})
	users := g.Users()
	var wg sync.WaitGroup
	submit := func(tenant string, n int, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			pair := []graph.NodeID{users[rng.Intn(len(users))], 0}
			pair[1] = users[rng.Intn(len(users))]
			for pair[1] == pair[0] {
				pair[1] = users[rng.Intn(len(users))]
			}
			_, err := s.SubmitTenant(context.Background(), tenant, pair, 5*time.Millisecond)
			if err != nil && !errors.Is(err, core.ErrInfeasible) && !errors.Is(err, ErrQueueFull) {
				t.Errorf("%s: %v", tenant, err)
				return
			}
		}
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go submit("vip", 80, int64(w))
	}
	wg.Add(1)
	go submit("batch", 60, 99)
	wg.Wait()

	m := s.Metrics()
	batch := findTenant(t, m.Tenants, "batch")
	if decided := batch.Accepted + batch.Rejected; decided == 0 {
		t.Fatalf("low-priority tenant starved under flood: %+v", batch)
	}
	if err := VerifyState(g, quantum.DefaultParams(), s.StateDump()); err != nil {
		t.Fatalf("VerifyState: %v", err)
	}
}

// TestTenantMaxTTLClamp pins the per-tenant session-lifetime cap: a capped
// tenant's long request is clamped to its max_ttl_ms — the session really
// expires at the cap, freeing capacity — and each shortened request is
// counted in the tenant's ttl_clamped metric. Requests at or under the cap
// and uncapped tenants are untouched.
func TestTenantMaxTTLClamp(t *testing.T) {
	base := time.Unix(3000, 0)
	fc := newFakeClock(base)
	s := newTestServer(t, Config{
		MaxBatch: 1,
		MaxTTL:   time.Hour,
		Clock:    fc,
		QoS: &qos.Config{Tenants: []qos.TenantSpec{
			{ID: "capped", MaxTTLMs: 1000},
			{ID: "open"},
		}},
	})

	// An hour-long request from the capped tenant holds the bottleneck for
	// one second only.
	info, err := s.SubmitTenant(context.Background(), "capped", []graph.NodeID{0, 1}, time.Hour)
	if err != nil {
		t.Fatalf("capped submit: %v", err)
	}
	if got := info.ExpiresAt.Sub(info.AdmittedAt); got != time.Second {
		t.Fatalf("capped session lifetime = %v, want 1s", got)
	}
	// While it lives, a contender is rejected on capacity.
	if _, err := s.SubmitTenant(context.Background(), "open", []graph.NodeID{2, 3}, time.Minute); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("contender error = %v, want infeasible", err)
	}
	// Past the tenant cap — far before the requested hour — the capacity is
	// free again, and the uncapped tenant keeps its full requested TTL.
	fc.Set(base.Add(2 * time.Second))
	info2, err := s.SubmitTenant(context.Background(), "open", []graph.NodeID{2, 3}, time.Minute)
	if err != nil {
		t.Fatalf("post-expiry submit: %v", err)
	}
	if got := info2.ExpiresAt.Sub(info2.AdmittedAt); got != time.Minute {
		t.Fatalf("open session lifetime = %v, want 1m", got)
	}
	// An under-cap request from the capped tenant is not counted as clamped.
	fc.Set(base.Add(2 * time.Minute))
	if _, err := s.SubmitTenant(context.Background(), "capped", []graph.NodeID{0, 1}, 500*time.Millisecond); err != nil {
		t.Fatalf("under-cap submit: %v", err)
	}

	m := s.Metrics()
	capped := findTenant(t, m.Tenants, "capped")
	if capped.TTLClamped != 1 {
		t.Fatalf("capped ttl_clamped = %d, want 1", capped.TTLClamped)
	}
	if capped.MaxTTLMs != 1000 {
		t.Fatalf("capped max_ttl_ms = %d, want 1000", capped.MaxTTLMs)
	}
	if open := findTenant(t, m.Tenants, "open"); open.TTLClamped != 0 {
		t.Fatalf("open ttl_clamped = %d, want 0", open.TTLClamped)
	}
}
