package quantum

import (
	"reflect"
	"testing"

	"github.com/muerp/quantumnet/internal/graph"
)

// shardGraph builds a path of 4 switches (IDs 2..5) between two users.
func shardGraph(t *testing.T, qubits int) *graph.Graph {
	t.Helper()
	g := graph.New(0, 0)
	u0 := g.AddUser(0, 0)
	u1 := g.AddUser(5, 0)
	var sw []graph.NodeID
	for i := 0; i < 4; i++ {
		sw = append(sw, g.AddSwitch(float64(i+1), 0, qubits))
	}
	g.MustAddEdge(u0, sw[0], 100)
	for i := 1; i < len(sw); i++ {
		g.MustAddEdge(sw[i-1], sw[i], 100)
	}
	g.MustAddEdge(sw[len(sw)-1], u1, 100)
	return g
}

func TestSortedLoadDeterministic(t *testing.T) {
	load := map[graph.NodeID]int{5: 2, 2: 4, 9: 2}
	want := []LoadEntry{{ID: 2, Qubits: 4}, {ID: 5, Qubits: 2}, {ID: 9, Qubits: 2}}
	for i := 0; i < 10; i++ {
		if got := SortedLoad(load); !reflect.DeepEqual(got, want) {
			t.Fatalf("SortedLoad = %v, want %v", got, want)
		}
	}
	if SortedLoad(nil) != nil {
		t.Error("SortedLoad(nil) != nil")
	}
}

// ReserveLoad must mirror Reserve's budgets and closure log for the same
// per-switch demand.
func TestReserveLoadMatchesReserve(t *testing.T) {
	g := shardGraph(t, 4)
	path := []graph.NodeID{0, 2, 3, 4, 5, 1}

	byPath := NewLedger(g)
	if err := byPath.Reserve(path); err != nil {
		t.Fatal(err)
	}
	byLoad := NewLedger(g)
	load := map[graph.NodeID]int{}
	for i := 1; i+1 < len(path); i++ {
		load[path[i]] += 2
	}
	if err := byLoad.ReserveLoad(SortedLoad(load)); err != nil {
		t.Fatal(err)
	}
	a, b := byPath.ExportState(), byLoad.ExportState()
	if !reflect.DeepEqual(a.Free, b.Free) {
		t.Fatalf("free budgets diverge: %v vs %v", a.Free, b.Free)
	}
	// Path closure order follows the path; load closure order is ascending
	// ID. Here the path is ascending, so both logs must be identical.
	if !reflect.DeepEqual(a.Closed, b.Closed) {
		t.Fatalf("closure logs diverge: %v vs %v", a.Closed, b.Closed)
	}

	byPath.Release(path)
	byLoad.ReleaseLoad(SortedLoad(load))
	a, b = byPath.ExportState(), byLoad.ExportState()
	if !reflect.DeepEqual(a.Free, b.Free) || a.Gen != b.Gen {
		t.Fatalf("post-release states diverge: %+v vs %+v", a, b)
	}
}

// ReserveLoad is all-or-nothing: a slice whose last entry overdraws must
// leave the ledger untouched.
func TestReserveLoadAllOrNothing(t *testing.T) {
	g := shardGraph(t, 4)
	l := NewLedger(g)
	before := l.ExportState()
	err := l.ReserveLoad([]LoadEntry{{ID: 2, Qubits: 2}, {ID: 3, Qubits: 6}})
	if err == nil {
		t.Fatal("overdraw accepted")
	}
	if !reflect.DeepEqual(before, l.ExportState()) {
		t.Fatal("failed ReserveLoad left side effects")
	}
	if err := l.ReserveLoad([]LoadEntry{{ID: 2, Qubits: 3}}); err == nil {
		t.Fatal("odd demand accepted")
	}
	if err := l.ReserveLoad([]LoadEntry{{ID: 0, Qubits: 2}}); err == nil {
		t.Fatal("user node accepted")
	}
}

func TestReleaseLoadReopensGeneration(t *testing.T) {
	g := shardGraph(t, 4)
	l := NewLedger(g)
	entries := []LoadEntry{{ID: 2, Qubits: 4}}
	if err := l.ReserveLoad(entries); err != nil {
		t.Fatal(err)
	}
	e := l.Epoch()
	if ids, ok := l.ClosedSince(Epoch{}); !ok || len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("closure log = %v ok=%v, want [2]", ids, ok)
	}
	l.ReleaseLoad(entries)
	if _, ok := l.ClosedSince(e); ok {
		t.Fatal("release reopened switch 2 but generation did not advance")
	}
	if l.Free(2) != 4 {
		t.Fatalf("free = %d, want 4", l.Free(2))
	}

	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	l.ReleaseLoad(entries)
}
