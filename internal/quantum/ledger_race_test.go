package quantum

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/muerp/quantumnet/internal/graph"
)

// ledgerRaceGraph builds 2 users bridged by nSwitches parallel 2-qubit
// switches, so every path user0-switch-user1 charges exactly one switch and
// closes it, and every release reopens it — the worst case for the closure
// generation counter.
func ledgerRaceGraph(nSwitches int) *graph.Graph {
	g := graph.New(2+nSwitches, 2*nSwitches)
	g.AddUser(0, 0)
	g.AddUser(10000, 0)
	for i := 0; i < nSwitches; i++ {
		sw := g.AddSwitch(5000, float64(i)*100, 2)
		g.MustAddEdge(0, sw, 5000)
		g.MustAddEdge(sw, 1, 5000)
	}
	return g
}

// TestLedgerSerializedMutationRace exercises the documented concurrency
// contract under the race detector: the ledger has no internal locking, so
// many goroutines hammer Reserve/Release/Epoch/ClosedSince through one
// shared mutex — the same discipline internal/service uses, where the
// serve loop, DELETE handlers and cross-region coordinator share a single
// server mutex. Run with
// -race; any unserialized access inside the ledger would be flagged.
func TestLedgerSerializedMutationRace(t *testing.T) {
	const (
		goroutines = 8
		iterations = 400
		nSwitches  = 6
	)
	g := ledgerRaceGraph(nSwitches)
	led := NewLedger(g)
	var mu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var held [][]graph.NodeID
			for i := 0; i < iterations; i++ {
				sw := graph.NodeID(2 + rng.Intn(nSwitches))
				path := []graph.NodeID{0, sw, 1}
				mu.Lock()
				if rng.Intn(2) == 0 || len(held) == 0 {
					before := led.Epoch()
					if err := led.Reserve(path); err == nil {
						held = append(held, path)
						// Within one generation the closure log only grows.
						if closed, ok := led.ClosedSince(before); ok && len(closed) == 0 {
							mu.Unlock()
							t.Errorf("reserve of a 2-qubit switch did not close it")
							return
						}
					}
				} else {
					last := len(held) - 1
					led.Release(held[last])
					held = held[:last]
				}
				_ = led.Epoch()
				_ = led.Free(graph.NodeID(2))
				mu.Unlock()
			}
			mu.Lock()
			for _, p := range held {
				led.Release(p)
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if used := led.UsedQubits(); used != 0 {
		t.Fatalf("UsedQubits = %d after all releases, want 0", used)
	}
}

// TestLedgerConcurrentReadOnly pins the other half of the contract: with no
// mutation in flight, read-only use (CanRelay/Free/Epoch/ClosedSince) is
// safe from any number of goroutines without a lock.
func TestLedgerConcurrentReadOnly(t *testing.T) {
	const nSwitches = 6
	g := ledgerRaceGraph(nSwitches)
	led := NewLedger(g)
	// Close one switch before the readers start, so ClosedSince has content.
	if err := led.Reserve([]graph.NodeID{0, 2, 1}); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	base := Epoch{}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				for _, n := range g.Nodes() {
					_ = led.CanRelay(n)
					_ = led.Free(n.ID)
				}
				if e := led.Epoch(); e.N != 1 {
					t.Errorf("Epoch().N = %d, want 1", e.N)
					return
				}
				closed, ok := led.ClosedSince(base)
				if !ok || len(closed) != 1 || closed[0] != 2 {
					t.Errorf("ClosedSince = %v, %v", closed, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
