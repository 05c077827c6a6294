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

// TestBatchTakesOnlyWhatIsQueued pins the serve loop's no-wait batching on
// the fake clock. A lone request is decided without the clock ever
// advancing. Requests that queue while a batch is being decided are taken
// together afterwards, in batches of at most MaxBatch.
func TestBatchTakesOnlyWhatIsQueued(t *testing.T) {
	const maxBatch = 4
	fc := newFakeClock(time.Unix(0, 0))
	s := newTestServer(t, Config{MaxBatch: maxBatch, MaxTTL: time.Hour, Clock: fc})

	if _, err := s.Submit(context.Background(), []graph.NodeID{0, 1}, time.Minute); err != nil {
		t.Fatalf("lone request: %v", err)
	}
	// The accepted session's expiry timer is the only fake-clock waiter the
	// loop arms, and it arms it after the decision: once it is there, the
	// loop is idle in its select.
	waitFor(t, "the serve loop never armed the expiry timer", func() bool {
		fc.mu.Lock()
		defer fc.mu.Unlock()
		return len(fc.waiters) == 1
	})

	// Stall the next batch inside decide, which needs s.mu. A failing check
	// still unlocks, so Close can drain.
	s.mu.Lock()
	locked := true
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	results := make(chan error, 1+maxBatch+2)
	submit := func(users []graph.NodeID) {
		go func() {
			_, err := s.Submit(context.Background(), users, time.Minute)
			results <- err
		}()
	}
	submit([]graph.NodeID{2, 3})
	waitFor(t, "the stalled batch never took its request", func() bool {
		return s.ctrs.batches.Load() == 2 && s.queue.Len() == 0
	})
	for i := 0; i < maxBatch+2; i++ {
		submit([]graph.NodeID{graph.NodeID(i % 4), graph.NodeID((i + 1) % 4)})
	}
	waitFor(t, "the requests never queued behind the stalled batch", func() bool {
		return s.queue.Len() == maxBatch+2
	})
	s.mu.Unlock()
	locked = false

	for i := 0; i < 1+maxBatch+2; i++ {
		if err := <-results; err != nil && !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("submit: %v", err)
		}
	}
	// Batches: the lone request, the stalled one, then the backlog split
	// into a full batch and the remaining two.
	if b := s.Metrics().Batches; b.Count != 4 || b.Requests != maxBatch+4 || b.MaxSize != maxBatch {
		t.Fatalf("batches %+v, want 4 batches of 1, 1, %d and 2", b, maxBatch)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}
