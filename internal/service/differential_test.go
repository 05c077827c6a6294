package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
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

// fakeClock is a manually advanced Clock. Set moves time forward and fires
// every timer whose deadline has been reached.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock(start time.Time) *fakeClock { return &fakeClock{now: start} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Set advances the clock (never backwards) and fires due timers.
func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	keep := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			keep = append(keep, w)
		}
	}
	c.waiters = keep
	c.mu.Unlock()
}

// seconds converts a workload-time float (arbitrary units, read as seconds)
// to a duration.
func seconds(x float64) time.Duration {
	return time.Duration(x * float64(time.Second))
}

// TestDifferentialAgainstSimulate replays the same random sched.Workload
// through the offline simulator and through the daemon (serialized: batch
// size 1, a fake clock stepped to each arrival, TTL = hold) and requires
// identical admission decisions and identical accepted rates. This pins the
// daemon's semantics to the paper's admission model: the serving layer is
// sched.Simulate made online.
//
// It runs twice: once with no tenant policy, and once ("serial-qos") with
// an explicit single-tenant policy instead. One tenant's DWRR is pure FIFO,
// so the decision sequence must stay identical decision for decision
// (DESIGN.md §11).
func TestDifferentialAgainstSimulate(t *testing.T) {
	for _, mode := range []struct {
		name string
		qos  bool
	}{
		{name: "serial"},
		{name: "serial-qos", qos: true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			differentialAgainstSimulate(t, mode.qos)
		})
	}
}

func differentialAgainstSimulate(t *testing.T, qosMode bool) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := topology.Default()
		cfg.Users = 8
		cfg.Switches = 16
		cfg.SwitchQubits = 2 // tight capacity so the trace mixes accepts and rejects
		g, err := topology.Generate(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: topology: %v", seed, err)
		}
		w := sched.Workload{Requests: 120, MeanInterarrival: 1, MeanHold: 6, MinUsers: 2, MaxUsers: 4}
		requests, err := w.Generate(g, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Fatalf("seed %d: workload: %v", seed, err)
		}

		ref, err := sched.Simulate(g, requests, quantum.DefaultParams())
		if err != nil {
			t.Fatalf("seed %d: Simulate: %v", seed, err)
		}

		base := time.Unix(0, 0)
		fc := newFakeClock(base)
		cfgS := Config{
			Graph:     g,
			QueueSize: 4,
			MaxBatch:  1, // serialized replay: one decision per arrival instant
			MaxTTL:    1000 * time.Hour,
			Clock:     fc,
		}
		if qosMode {
			cfgS.QoS = &qos.Config{} // normalizes to the lone default tenant
		}
		s, err := New(cfgS)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}

		ordered := make([]sched.Request, len(requests))
		copy(ordered, requests)
		sort.SliceStable(ordered, func(i, j int) bool {
			if ordered[i].Arrival != ordered[j].Arrival {
				return ordered[i].Arrival < ordered[j].Arrival
			}
			return ordered[i].ID < ordered[j].ID
		})

		if len(ref.Outcomes) != len(ordered) {
			t.Fatalf("seed %d: reference has %d outcomes for %d requests", seed, len(ref.Outcomes), len(ordered))
		}
		accepted, rejected := 0, 0
		for i, req := range ordered {
			fc.Set(base.Add(seconds(req.Arrival)))
			info, err := s.Submit(context.Background(), req.Users, seconds(req.Hold))
			want := ref.Outcomes[i]
			if want.Request.ID != req.ID {
				t.Fatalf("seed %d: outcome order mismatch at %d: %d vs %d", seed, i, want.Request.ID, req.ID)
			}
			switch {
			case err == nil:
				accepted++
				if !want.Accepted {
					t.Fatalf("seed %d: request %d accepted by daemon, rejected by Simulate (%s)",
						seed, req.ID, want.Reason)
				}
				if math.Abs(info.Rate-want.Rate) > 1e-15*math.Max(1, math.Abs(want.Rate)) {
					t.Fatalf("seed %d: request %d rate %g vs Simulate %g", seed, req.ID, info.Rate, want.Rate)
				}
			case errors.Is(err, core.ErrInfeasible):
				rejected++
				if want.Accepted {
					t.Fatalf("seed %d: request %d rejected by daemon, accepted by Simulate", seed, req.ID)
				}
			default:
				t.Fatalf("seed %d: request %d unexpected error: %v", seed, req.ID, err)
			}
		}
		if accepted != ref.Accepted || rejected != ref.Rejected {
			t.Fatalf("seed %d: daemon %d/%d vs Simulate %d/%d", seed, accepted, rejected, ref.Accepted, ref.Rejected)
		}
		if accepted == 0 || rejected == 0 {
			t.Fatalf("seed %d: degenerate trace (%d accepts, %d rejects) — tighten the workload", seed, accepted, rejected)
		}

		m := s.Metrics()
		if m.Admission.Accepted != ref.Accepted || m.Admission.Rejected != ref.Rejected {
			t.Fatalf("seed %d: metrics summary %+v disagrees with reference %d/%d",
				seed, m.Admission, ref.Accepted, ref.Rejected)
		}
		if m.Admission.PeakQubitsInUse != ref.PeakQubitsInUse {
			t.Fatalf("seed %d: peak qubits %d vs Simulate %d", seed, m.Admission.PeakQubitsInUse, ref.PeakQubitsInUse)
		}
		_ = s.Close()
	}
}

// TestFakeClockExpiryWheel drives the wheel purely with the fake clock: a
// session expires only once time passes its TTL, and the release makes a
// previously infeasible request admissible.
func TestFakeClockExpiryWheel(t *testing.T) {
	base := time.Unix(0, 0)
	fc := newFakeClock(base)
	s := newTestServer(t, Config{MaxBatch: 1, MaxTTL: time.Hour, Clock: fc})

	if _, err := s.Submit(context.Background(), []graph.NodeID{0, 1}, 10*time.Second); err != nil {
		t.Fatalf("first session: %v", err)
	}
	if _, err := s.Submit(context.Background(), []graph.NodeID{2, 3}, 10*time.Second); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("contender error = %v, want infeasible", err)
	}

	// Advance past the TTL; the wheel (woken by the fake timer) releases
	// capacity without any further admissions.
	fc.Set(base.Add(11 * time.Second))
	deadline := time.Now().Add(5 * time.Second)
	for s.ActiveSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("expiry wheel never released the session")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(context.Background(), []graph.NodeID{2, 3}, 10*time.Second); err != nil {
		t.Fatalf("post-expiry session: %v", err)
	}
}

// TestBatchFillWaitsMaxWait pins Config.MaxWait on the fake clock: the
// batch that takes a request arms the MaxWait timer and keeps filling until
// it fires, so two requests submitted back to back are decided as one batch,
// and not before the wait runs out.
func TestBatchFillWaitsMaxWait(t *testing.T) {
	base := time.Unix(0, 0)
	fc := newFakeClock(base)
	s := newTestServer(t, Config{MaxBatch: 4, MaxWait: time.Second, MaxTTL: time.Hour, Clock: fc})

	results := make(chan error, 2)
	for _, users := range [][]graph.NodeID{{0, 1}, {2, 3}} {
		go func() {
			_, err := s.Submit(context.Background(), users, time.Minute)
			results <- err
		}()
	}
	// Both requests are taken into the batch once the queue is empty; the
	// batch's timer is the only fake-clock waiter (no session holds an
	// expiry yet).
	deadline := time.Now().Add(5 * time.Second)
	for {
		fc.mu.Lock()
		armed := len(fc.waiters) > 0
		fc.mu.Unlock()
		if armed && s.ctrs.requests.Load() == 2 && s.queue.Len() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the batch never took both requests under an armed MaxWait timer")
		}
		time.Sleep(time.Millisecond)
	}
	if len(results) != 0 {
		t.Fatal("a request was decided before MaxWait ran out")
	}
	fc.Set(base.Add(time.Second))
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil && !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("submit: %v", err)
		}
	}
	if b := s.Metrics().Batches; b.Count != 1 || b.Requests != 2 {
		t.Fatalf("batches %+v, want the two requests decided as one batch", b)
	}
}
