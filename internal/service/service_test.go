package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/topology"
)

// bottleneck builds 4 users around one switch that carries exactly one
// channel at a time (same shape as internal/sched's tests).
func bottleneck(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New(5, 4)
	g.AddUser(0, 0)
	g.AddUser(2000, 0)
	g.AddUser(0, 2000)
	g.AddUser(2000, 2000)
	g.AddSwitch(1000, 1000, 2)
	for u := graph.NodeID(0); u < 4; u++ {
		g.MustAddEdge(u, 4, 1500)
	}
	return g
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Graph == nil {
		cfg.Graph = bottleneck(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// clusterGraph builds c fully disconnected clusters, each a chain of
// switchesPer switches (qubits each) with usersPer users attached round-
// robin. Sessions cannot route between clusters, so a session spanning
// two clusters is always infeasible.
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
// bridge edge each: a connected topology on which sessions spanning two
// clusters are feasible.
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

// traceOutcome is one request's decision in a replayed trace.
type traceOutcome struct {
	accepted bool
	rate     float64
}

// replayTrace replays one request trace through a server on a fake clock
// and records each decision.
func replayTrace(t *testing.T, s *Server, fc *fakeClock, base time.Time, requests []sched.Request) []traceOutcome {
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

func postSession(t *testing.T, client *http.Client, base string, users []int, ttlMs int64) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{"users": users, "ttl_ms": ttlMs})
	resp, err := client.Post(base+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /sessions: %v", err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// TestHTTPAdmitRejectExpire is the end-to-end smoke: the daemon accepts a
// session, rejects a contender while capacity is held, and — after the TTL
// expires — accepts a request that needed exactly that capacity, proving
// the expiry wheel freed the ledger.
func TestHTTPAdmitRejectExpire(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSession(t, ts.Client(), ts.URL, []int{0, 1}, 250)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first session status = %d, want 201", resp.StatusCode)
	}
	var info SessionInfo
	decodeInto(t, resp, &info)
	if info.ID == "" || info.Rate <= 0 || info.Channels == 0 {
		t.Fatalf("bad session info: %+v", info)
	}
	if !info.ExpiresAt.After(info.AdmittedAt) {
		t.Fatalf("expiry %v not after admission %v", info.ExpiresAt, info.AdmittedAt)
	}

	// The switch has 2 qubits and session 1 holds them: users {2,3} cannot
	// be spanned.
	resp = postSession(t, ts.Client(), ts.URL, []int{2, 3}, 250)
	var reject errorBody
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("contending session status = %d, want 409", resp.StatusCode)
	}
	decodeInto(t, resp, &reject)
	if reject.Error != "infeasible" {
		t.Fatalf("rejection error = %q, want infeasible", reject.Error)
	}

	// GET sees the live session.
	getResp, err := ts.Client().Get(ts.URL + "/sessions/" + info.ID)
	if err != nil {
		t.Fatalf("GET session: %v", err)
	}
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET session status = %d, want 200", getResp.StatusCode)
	}
	_ = getResp.Body.Close()

	// After the 250ms TTL the wheel must release the switch; poll until the
	// previously infeasible request is accepted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp = postSession(t, ts.Client(), ts.URL, []int{2, 3}, 100)
		code := resp.StatusCode
		_ = resp.Body.Close()
		if code == http.StatusCreated {
			break
		}
		if code != http.StatusConflict {
			t.Fatalf("post-expiry session status = %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("capacity never freed after TTL expiry")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The expired session is gone.
	getResp, err = ts.Client().Get(ts.URL + "/sessions/" + info.ID)
	if err != nil {
		t.Fatalf("GET expired session: %v", err)
	}
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session GET status = %d, want 404", getResp.StatusCode)
	}
	_ = getResp.Body.Close()

	m := s.Metrics()
	if m.Sessions.Expired == 0 {
		t.Fatalf("metrics report no expired sessions: %+v", m.Sessions)
	}
}

func TestHTTPDeleteFreesCapacity(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 1, DefaultTTL: time.Hour, MaxTTL: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postSession(t, ts.Client(), ts.URL, []int{0, 1}, 0)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first session status = %d, want 201", resp.StatusCode)
	}
	var info SessionInfo
	decodeInto(t, resp, &info)

	resp = postSession(t, ts.Client(), ts.URL, []int{2, 3}, 0)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("contending session status = %d, want 409", resp.StatusCode)
	}
	_ = resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+info.ID, nil)
	delResp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d, want 204", delResp.StatusCode)
	}
	_ = delResp.Body.Close()

	resp = postSession(t, ts.Client(), ts.URL, []int{2, 3}, 0)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-delete session status = %d, want 201", resp.StatusCode)
	}
	_ = resp.Body.Close()

	if s.Metrics().Sessions.Deleted != 1 {
		t.Fatalf("deleted counter = %d, want 1", s.Metrics().Sessions.Deleted)
	}
}

func TestHTTPValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage", "{", http.StatusBadRequest},
		{"one user", `{"users":[0]}`, http.StatusBadRequest},
		{"switch as user", `{"users":[0,4]}`, http.StatusBadRequest},
		{"unknown node", `{"users":[0,99]}`, http.StatusBadRequest},
		{"duplicate", `{"users":[0,0]}`, http.StatusBadRequest},
		{"negative ttl", `{"users":[0,1],"ttl_ms":-5}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/sessions", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		_ = resp.Body.Close()
	}

	for _, path := range []string{"/sessions/nope"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
		_ = resp.Body.Close()
	}
}

// TestHTTPTTLSaturates posts ttl_ms values at and past the largest
// millisecond count a time.Duration holds. Each must be admitted with the
// server's MaxTTL: a wrapped conversion would instead hand out the default
// TTL (negative wrap) or a sub-millisecond lifetime. Sessions within one
// cluster and across the bridge clamp alike.
func TestHTTPTTLSaturates(t *testing.T) {
	const maxTTL = time.Minute
	g := bridgedClusters(t, 2, 4, 4, 8)
	s := newTestServer(t, Config{Graph: g, DefaultTTL: time.Second, MaxTTL: maxTTL})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Users 0-3 sit on the first cluster, 8-11 on the second.
	for _, p := range []struct {
		name  string
		users []int
	}{
		{"one-cluster", []int{0, 1}},
		{"bridged", []int{0, 8}},
	} {
		for _, ttlMs := range []int64{
			9223372036854,       // the largest ttl_ms a Duration holds
			9223372036855,       // wrapped to a negative Duration before saturation
			18446744073710,      // wrapped to about 0.45 ms
			9223372036854775807, // math.MaxInt64
		} {
			resp := postSession(t, ts.Client(), ts.URL, p.users, ttlMs)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("%s ttl_ms=%d: status %d, want 201", p.name, ttlMs, resp.StatusCode)
			}
			var info SessionInfo
			decodeInto(t, resp, &info)
			if got := info.ExpiresAt.Sub(info.AdmittedAt); got != maxTTL {
				t.Errorf("%s ttl_ms=%d: lifetime %v, want the MaxTTL cap %v", p.name, ttlMs, got, maxTTL)
			}
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+info.ID, nil)
			dresp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("%s: DELETE %s: %v", p.name, info.ID, err)
			}
			_ = dresp.Body.Close()
		}
	}
}

// TestHTTPQueueFullBackpressure stalls the serve loop by holding the
// server mutex, fills the one-slot queue, and checks the next request gets
// an immediate 429 with a Retry-After hint.
func TestHTTPQueueFullBackpressure(t *testing.T) {
	s := newTestServer(t, Config{QueueSize: 1, MaxBatch: 1, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Holding mu blocks admitBatch, so at most one queued request drains
	// into the loop and the next one sits in the channel.
	s.mu.Lock()
	var wg sync.WaitGroup
	results := make(chan int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postSession(t, ts.Client(), ts.URL, []int{0, 1}, 50)
			results <- resp.StatusCode
			_ = resp.Body.Close()
		}()
	}
	// Wait until backpressure is observable: with a 1-slot queue and one
	// request stuck in the stalled loop, at least two of the four must
	// bounce with 429.
	got429 := 0
	deadline := time.After(10 * time.Second)
	for got429 < 2 {
		select {
		case code := <-results:
			if code == http.StatusTooManyRequests {
				got429++
			}
		case <-deadline:
			s.mu.Unlock()
			t.Fatal("never saw two 429s while the loop was stalled")
		}
	}
	s.mu.Unlock()
	wg.Wait()
	close(results)
	for code := range results {
		if code == http.StatusTooManyRequests {
			got429++
		}
	}
	if got429 == 4 {
		t.Fatal("every request bounced; queue admitted nothing")
	}

	// The Retry-After header rides on a direct check.
	s.mu.Lock()
	fillDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.trySubmitNoWait(); errors.Is(err, ErrQueueFull) {
			break
		}
		if time.Now().After(fillDeadline) {
			s.mu.Unlock()
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	resp := postSession(t, ts.Client(), ts.URL, []int{0, 1}, 50)
	if resp.StatusCode != http.StatusTooManyRequests {
		s.mu.Unlock()
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		s.mu.Unlock()
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	_ = resp.Body.Close()
	s.mu.Unlock()

	if s.Metrics().Requests.QueueFull == 0 {
		t.Fatal("queue_full counter is zero")
	}
}

// trySubmitNoWait enqueues a fire-and-forget request, reporting ErrQueueFull
// when the queue is at capacity (test helper for backpressure checks).
func (s *Server) trySubmitNoWait() (bool, error) {
	prob, err := core.NewProblem(s.cfg.Graph, []graph.NodeID{0, 1}, s.cfg.Params)
	if err != nil {
		return false, err
	}
	p := &pending{ctx: context.Background(), prob: prob, users: prob.Users,
		ttl: 50 * time.Millisecond, result: make(chan admitResult, 1),
		enq: time.Now(), stat: s.tstats.get("")}
	if err := s.queue.Enqueue(qos.DefaultTenant, p); err != nil {
		return false, ErrQueueFull
	}
	s.wakeAdmission()
	return true, nil
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 6; i++ {
		resp := postSession(t, ts.Client(), ts.URL, []int{0, 1, 2}, 40)
		_ = resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	var raw map[string]json.RawMessage
	var m Metrics
	if err != nil || json.Unmarshal(body, &raw) != nil || json.Unmarshal(body, &m) != nil {
		t.Fatalf("decode /metrics (read err %v): %s", err, body)
	}
	// Without a tenant policy the daemon keeps its anonymous surface: no
	// tenants section, and the queue reports the configured bound.
	if _, ok := raw["tenants"]; ok {
		t.Fatalf("/metrics has a tenants section without a tenant policy: %s", raw["tenants"])
	}
	if m.Queue.Capacity != s.cfg.QueueSize {
		t.Fatalf("queue.capacity = %d, want QueueSize %d", m.Queue.Capacity, s.cfg.QueueSize)
	}
	if m.Requests.Total != 6 {
		t.Fatalf("requests.total = %d, want 6", m.Requests.Total)
	}
	if m.Batches.Count == 0 || m.Batches.Requests != 6 {
		t.Fatalf("batch metrics: %+v", m.Batches)
	}
	if m.SolveLatency.Count == 0 {
		t.Fatal("solve latency histogram is empty")
	}
	if m.Admission.Work.DijkstraRuns == 0 {
		t.Fatalf("admission work counters empty: %+v", m.Admission.Work)
	}
	if m.Admission.Sessions != int(m.Requests.Accepted+m.Requests.Rejected) {
		t.Fatalf("admission summary inconsistent with request counters: %+v vs %+v", m.Admission, m.Requests)
	}
	if m.Ledger.TotalQubits != 2 {
		t.Fatalf("ledger.total_qubits = %d, want 2", m.Ledger.TotalQubits)
	}
	// The shared representation is literally sched.Summary: its String
	// must render the same block qsched prints.
	if !strings.Contains(m.Admission.String(), "acceptance ratio:") {
		t.Fatalf("summary string missing shared format:\n%s", m.Admission.String())
	}

	// An unregistered tenant name tags the session verbatim, while the
	// request is queued and counted under the default class.
	def := s.tstats.get("")
	before := def.accepted.Load()
	var info SessionInfo
	for deadline := time.Now().Add(5 * time.Second); ; {
		info, err = s.SubmitTenant(context.Background(), "acme", []graph.NodeID{0, 1}, time.Second)
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrInfeasible) || time.Now().After(deadline) {
			t.Fatalf("SubmitTenant(acme): %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got, ok := s.Session(info.ID); info.Tenant != "acme" || !ok || got.Tenant != "acme" {
		t.Fatalf("session tenant = %q (live %q), want the verbatim name", info.Tenant, got.Tenant)
	}
	if def.accepted.Load() != before+1 {
		t.Fatalf("default class accepted %d, want %d", def.accepted.Load(), before+1)
	}
	if _, ok := s.tstats.stats["acme"]; ok {
		t.Fatal("an unregistered tenant got a class of its own")
	}
}

func TestTopologyEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/topology")
	if err != nil {
		t.Fatalf("GET /topology: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	g, err := graph.ReadJSON(resp.Body)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if g.NumNodes() != 5 || len(g.Users()) != 4 {
		t.Fatalf("round-tripped topology: %d nodes, %d users", g.NumNodes(), len(g.Users()))
	}
}

// TestGracefulCloseDrains checks SIGTERM semantics: requests already queued
// still get real admission decisions, and new requests are refused.
func TestGracefulCloseDrains(t *testing.T) {
	s := newTestServer(t, Config{QueueSize: 32, MaxBatch: 4, DefaultTTL: time.Hour, MaxTTL: time.Hour})

	// Stall the loop so several requests pile up in the queue.
	s.mu.Lock()
	type outcome struct {
		err error
	}
	n := 6
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := s.Submit(context.Background(), []graph.NodeID{0, 1}, time.Minute)
			results <- outcome{err}
		}()
	}
	// Give the submitters time to enqueue, then release the loop and close:
	// Close must drain every queued request.
	time.Sleep(50 * time.Millisecond)
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	accepted, rejected := 0, 0
	for i := 0; i < n; i++ {
		o := <-results
		switch {
		case o.err == nil:
			accepted++
		case errors.Is(o.err, core.ErrInfeasible):
			rejected++
		default:
			t.Fatalf("drained request got %v, want decision", o.err)
		}
	}
	// The bottleneck switch fits exactly one {0,1} session at a time.
	if accepted != 1 || rejected != n-1 {
		t.Fatalf("drain decided %d accepts / %d rejects, want 1/%d", accepted, rejected, n-1)
	}

	if _, err := s.Submit(context.Background(), []graph.NodeID{0, 1}, time.Minute); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Submit error = %v, want ErrClosed", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postSession(t, ts.Client(), ts.URL, []int{2, 3}, 0)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close POST status = %d, want 503", resp.StatusCode)
	}
	_ = resp.Body.Close()
	healthResp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if healthResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close /healthz = %d, want 503", healthResp.StatusCode)
	}
	_ = healthResp.Body.Close()
}

func TestSubmitContextCancellation(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, []graph.NodeID{0, 1}, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestSubmitConcurrentMixedLoad(t *testing.T) {
	s := newTestServer(t, Config{QueueSize: 128, MaxBatch: 8,
		DefaultTTL: 5 * time.Millisecond, MaxTTL: time.Second})
	var wg sync.WaitGroup
	pairs := [][]graph.NodeID{{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2}}
	var accepted atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := s.Submit(context.Background(), pairs[(w+i)%len(pairs)], 2*time.Millisecond)
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, core.ErrInfeasible), errors.Is(err, ErrQueueFull):
				default:
					t.Errorf("unexpected Submit error: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if accepted.Load() == 0 {
		t.Fatal("no session ever admitted under mixed load")
	}
	// Wait for all TTLs to lapse; every qubit must come home.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Ledger.UsedQubits != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ledger still holds %d qubits after all TTLs", s.Metrics().Ledger.UsedQubits)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.ActiveSessions() != 0 {
		t.Fatalf("%d sessions still active", s.ActiveSessions())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with nil graph succeeded")
	}
	g := graph.New(1, 0)
	g.AddUser(0, 0)
	if _, err := New(Config{Graph: g}); err == nil {
		t.Fatal("New with 1-user topology succeeded")
	}
	bad := bottleneck(t)
	if _, err := New(Config{Graph: bad, Params: quantum.Params{Alpha: -1, SwapProb: 2}}); err == nil {
		t.Fatal("New with invalid params succeeded")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.QueueSize != 256 || c.MaxBatch != 16 ||
		c.DefaultTTL != 30*time.Second || c.MaxTTL != 10*time.Minute || c.RetryAfter != time.Second {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.Clock == nil {
		t.Fatal("no default clock")
	}
	if again := c.withDefaults(); again != c {
		t.Fatalf("defaulting twice changed the config: %+v vs %+v", again, c)
	}
}

func ExampleServer() {
	g := graph.New(3, 2)
	g.AddUser(0, 0)
	g.AddUser(2000, 0)
	g.AddSwitch(1000, 0, 4)
	g.MustAddEdge(0, 2, 1000)
	g.MustAddEdge(1, 2, 1000)
	s, err := New(Config{Graph: g})
	if err != nil {
		panic(err)
	}
	defer func() { _ = s.Close() }()
	info, err := s.Submit(context.Background(), []graph.NodeID{0, 1}, time.Minute)
	if err != nil {
		panic(err)
	}
	fmt.Println(info.ID, info.Channels)
	// Output: s-1 1
}

// burstGraph builds a mid-size random network with enough capacity that a
// concurrent burst mixes accepts and rejects.
func burstGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	cfg := topology.Default()
	cfg.Users = 10
	cfg.Switches = 24
	cfg.SwitchQubits = 4
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	return g
}

// submitBurst fires submitters goroutines of perG requests each at the
// server (random 2-3 user sets, hour-long TTLs so nothing expires mid-test)
// and returns the accept/reject counts.
func submitBurst(t *testing.T, s *Server, g *graph.Graph, submitters, perG int) (accepted, rejected int64) {
	t.Helper()
	users := g.Users()
	var acc, rej atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				size := 2 + rng.Intn(2)
				perm := rng.Perm(len(users))
				set := make([]graph.NodeID, size)
				for j := range set {
					set[j] = users[perm[j]]
				}
				for {
					_, err := s.Submit(context.Background(), set, time.Hour)
					switch {
					case err == nil:
						acc.Add(1)
					case errors.Is(err, core.ErrInfeasible):
						rej.Add(1)
					case errors.Is(err, ErrQueueFull):
						time.Sleep(100 * time.Microsecond)
						continue
					default:
						t.Errorf("Submit: %v", err)
					}
					break
				}
			}
		}(int64(1000 + w))
	}
	wg.Wait()
	return acc.Load(), rej.Load()
}

// TestConcurrentSubmitRevalidation is the qrecover-style cross-check for
// concurrent submitters: after a burst from 8 goroutines, the server's
// state dump must pass VerifyState — every admitted tree revalidates
// against the topology, and re-reserving every session's channels on a
// fresh ledger reproduces the live per-switch occupancy exactly. A decide
// that double-booked a qubit breaks the occupancy re-derivation. Run under
// -race this also exercises the queue, drain and decide
// synchronization.
func TestConcurrentSubmitRevalidation(t *testing.T) {
	g := burstGraph(t, 11)
	s := newTestServer(t, Config{
		Graph:    g,
		MaxBatch: 8,
		MaxTTL:   time.Hour,
	})

	accepted, rejected := submitBurst(t, s, g, 8, 25)
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate burst (%d accepts, %d rejects) — retune the workload", accepted, rejected)
	}

	st := s.StateDump()
	if got := int64(len(st.Sessions)); got != accepted {
		t.Fatalf("%d live sessions for %d accepts", got, accepted)
	}
	if err := VerifyState(g, quantum.DefaultParams(), st); err != nil {
		t.Fatalf("revalidation after concurrent admission: %v", err)
	}
	m := s.Metrics()
	if m.Requests.Accepted != accepted || m.Requests.Rejected != rejected {
		t.Fatalf("request counters %d/%d vs observed %d/%d",
			m.Requests.Accepted, m.Requests.Rejected, accepted, rejected)
	}
}
