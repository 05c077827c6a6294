package quantum

import "github.com/muerp/quantumnet/internal/graph"

// The map form of a per-switch qubit load (switch → qubits demanded), a
// test-only view of what a tree charges the ledger.

// QubitLoad returns, per switch, the number of qubits the tree consumes
// (2 per transiting channel).
func (t Tree) QubitLoad() map[graph.NodeID]int {
	load := make(map[graph.NodeID]int)
	for _, c := range t.Channels {
		for _, s := range c.Interior() {
			load[s] += 2
		}
	}
	return load
}
