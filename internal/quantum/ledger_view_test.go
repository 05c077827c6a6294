package quantum

import (
	"testing"

	"github.com/muerp/quantumnet/internal/graph"
)

func TestLedgerFits(t *testing.T) {
	g := ledgerNetwork(t) // switch 1: 4 qubits, switch 2: 2 qubits
	l := NewLedger(g)
	if !l.Fits(map[graph.NodeID]int{1: 4, 2: 2}) {
		t.Fatal("full budgets reported as not fitting")
	}
	if l.Fits(map[graph.NodeID]int{1: 6}) {
		t.Fatal("demand above the total budget fits")
	}
	if err := l.Reserve([]graph.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Switch 1 has 2 free left, switch 2 none.
	if !l.Fits(map[graph.NodeID]int{1: 2}) {
		t.Fatal("available residual capacity reported as not fitting")
	}
	if l.Fits(map[graph.NodeID]int{1: 2, 2: 2}) {
		t.Fatal("demand on an exhausted switch fits")
	}
	if !l.Fits(nil) {
		t.Fatal("empty load must always fit")
	}
}
