package quantum

import (
	"sort"

	"github.com/muerp/quantumnet/internal/graph"
)

// The map form of a per-switch qubit load (switch → qubits demanded). The
// program works on the flat Footprint and LoadEntry forms only; these
// helpers are the straightforward map-based reference they are tested
// against.

// QubitLoad returns, per switch, the number of qubits the tree consumes
// (2 per transiting channel): the map form of Footprint.AddTree.
func (t Tree) QubitLoad() map[graph.NodeID]int {
	load := make(map[graph.NodeID]int)
	for _, c := range t.Channels {
		for _, s := range c.Interior() {
			load[s] += 2
		}
	}
	return load
}

// Fits reports whether the ledger can absorb the given per-switch qubit
// load right now (load is Tree.QubitLoad's shape: switch → qubits
// demanded).
func (l *Ledger) Fits(load map[graph.NodeID]int) bool {
	for id, need := range load {
		l.check(id)
		if l.free[id] < need {
			return false
		}
	}
	return true
}

// SortedLoad flattens a Tree.QubitLoad map into entries sorted by ascending
// switch ID. The deterministic order matters: ReserveLoad appends closures
// in entry order, and recovery replays the same entries from the WAL, so
// live and replayed closure logs match byte for byte.
func SortedLoad(load map[graph.NodeID]int) []LoadEntry {
	if len(load) == 0 {
		return nil
	}
	entries := make([]LoadEntry, 0, len(load))
	for id, q := range load {
		entries = append(entries, LoadEntry{ID: id, Qubits: q})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return entries
}

// ToMap exports the footprint as a fresh QubitLoad-shaped map.
func (f *Footprint) ToMap() map[graph.NodeID]int {
	load := make(map[graph.NodeID]int, len(f.keys))
	for i, id := range f.keys {
		load[id] = f.load[i]
	}
	return load
}
