package quantum

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/muerp/quantumnet/internal/graph"
)

// footprintNetwork is a line of switches between two users, wide enough for
// multi-entry footprints.
func footprintNetwork(tb testing.TB, switches, qubits int) *graph.Graph {
	tb.Helper()
	g := graph.New(switches+2, switches+1)
	g.AddUser(0, 0)
	for i := 1; i <= switches; i++ {
		g.AddSwitch(float64(i), 0, qubits)
	}
	g.AddUser(float64(switches+1), 0)
	for i := 0; i <= switches; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), 10)
	}
	return g
}

func TestFootprintBasics(t *testing.T) {
	f := NewFootprint(8)
	if f.Len() != 0 {
		t.Fatalf("fresh footprint not empty: len %d", f.Len())
	}
	f.Add(3, 2)
	f.Add(5, 4)
	f.Add(3, 2)
	if got := f.Get(3); got != 4 {
		t.Errorf("Get(3) = %d, want 4 (accumulated)", got)
	}
	if got := f.Get(5); got != 4 {
		t.Errorf("Get(5) = %d, want 4", got)
	}
	if got := f.Get(1); got != 0 {
		t.Errorf("Get(absent) = %d, want 0", got)
	}
	if got := f.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	f.Add(5, -4) // accumulate to zero removes
	if f.Get(5) != 0 || f.Len() != 1 {
		t.Errorf("Add to zero left Get(5)=%d Len=%d", f.Get(5), f.Len())
	}
	f.Remove(3)
	if f.Len() != 0 {
		t.Errorf("Remove left Len=%d", f.Len())
	}
	f.Add(2, 2)
	f.Reset()
	if f.Len() != 0 || f.Get(2) != 0 {
		t.Error("Reset left residue")
	}
}

func TestFootprintNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative accumulated load did not panic")
		}
	}()
	f := NewFootprint(4)
	f.Add(1, 2)
	f.Add(1, -4)
}

func TestFootprintSortAndEntries(t *testing.T) {
	f := NewFootprint(16)
	for _, id := range []graph.NodeID{9, 2, 14, 5} {
		f.Add(id, 2)
	}
	f.Remove(2) // swap-delete scrambles order; Sort must restore determinism
	f.Add(1, 4)
	f.Sort()
	got := f.AppendEntries(nil)
	want := []LoadEntry{{ID: 1, Qubits: 4}, {ID: 5, Qubits: 2}, {ID: 9, Qubits: 2}, {ID: 14, Qubits: 2}}
	if len(got) != len(want) {
		t.Fatalf("entries %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entries %v, want %v", got, want)
		}
	}
	// Sparse index must be consistent after Sort.
	for _, e := range want {
		if f.Get(e.ID) != e.Qubits {
			t.Errorf("after Sort Get(%d) = %d, want %d", e.ID, f.Get(e.ID), e.Qubits)
		}
	}
}

// TestFootprintDifferentialVsMap drives a footprint and a map oracle through
// the same random add/remove/reset sequence and requires identical contents
// at every step — the flat == map pin for the footprint itself.
func TestFootprintDifferentialVsMap(t *testing.T) {
	g := footprintNetwork(t, 30, 8)
	rng := rand.New(rand.NewSource(20260808))
	f := NewFootprint(g.NumNodes())
	oracle := map[graph.NodeID]int{}
	for step := 0; step < 5000; step++ {
		id := graph.NodeID(1 + rng.Intn(30))
		switch rng.Intn(10) {
		case 0:
			f.Reset()
			oracle = map[graph.NodeID]int{}
		case 1:
			f.Remove(id)
			delete(oracle, id)
		default:
			f.Add(id, 2)
			oracle[id] += 2
		}
		if f.Len() != len(oracle) {
			t.Fatalf("step %d: len %d, oracle %d", step, f.Len(), len(oracle))
		}
		for oid, q := range oracle {
			if f.Get(oid) != q {
				t.Fatalf("step %d: Get(%d) = %d, oracle %d", step, oid, f.Get(oid), q)
			}
		}
	}
	// Sorted export equals the sorted oracle.
	f.Sort()
	got := f.AppendEntries(nil)
	want := SortedLoad(oracle)
	if len(got) != len(want) {
		t.Fatalf("entries %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entries[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// FuzzFootprint round-trips a random op-stream through the footprint and a
// map oracle. Ops are bytes: each consumes an opcode and a node; adds use a
// fixed +2 charge and removes/resets interleave, mirroring the admission
// churn pattern.
func FuzzFootprint(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 0})
	f.Add([]byte{0, 3, 0, 3, 0, 3, 1, 3})
	f.Add([]byte{2, 0, 0, 7, 3, 7, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 16
		fp := NewFootprint(n)
		oracle := map[graph.NodeID]int{}
		for i := 0; i+1 < len(ops); i += 2 {
			id := graph.NodeID(ops[i+1] % n)
			switch ops[i] % 4 {
			case 0, 3:
				fp.Add(id, 2)
				oracle[id] += 2
			case 1:
				fp.Remove(id)
				delete(oracle, id)
			case 2:
				fp.Reset()
				oracle = map[graph.NodeID]int{}
			}
		}
		if fp.Len() != len(oracle) {
			t.Fatalf("len %d, oracle %d", fp.Len(), len(oracle))
		}
		for id, q := range oracle {
			if fp.Get(id) != q {
				t.Fatalf("Get(%d) = %d, oracle %d", id, fp.Get(id), q)
			}
		}
		fp.Sort()
		if !sort.SliceIsSorted(fp.Keys(), func(i, j int) bool { return fp.Keys()[i] < fp.Keys()[j] }) {
			t.Fatal("Sort left keys unsorted")
		}
		got := fp.ToMap()
		for id, q := range oracle {
			if got[id] != q {
				t.Fatalf("ToMap[%d] = %d, oracle %d", id, got[id], q)
			}
		}
		fp.Reset()
		if fp.Len() != 0 {
			t.Fatal("Reset left residue")
		}
		for id := graph.NodeID(0); int(id) < n; id++ {
			if fp.Get(id) != 0 {
				t.Fatalf("Reset left node %d dirty", id)
			}
		}
	})
}
