package quantum

import (
	"fmt"
	"sort"

	"github.com/muerp/quantumnet/internal/graph"
)

// Footprint is the flat, allocation-free form of a per-switch qubit load
// (switch → qubits demanded). It is a sparse set in the graph.Searcher
// mold: a dense key list carries the touched switches in insertion order, a
// per-graph position array gives O(1) membership and lookup, and Reset
// clears only what the last use touched. One footprint is sized to one
// graph (NumNodes slots) and is reused across admissions: the cross-region
// coordinator fills it from a tree, probes it against closure logs, and
// resets it — zero allocations at steady state, where the map form hashed
// and allocated per request.
//
// A Footprint is not safe for concurrent use.
type Footprint struct {
	keys []graph.NodeID // touched switches, insertion order
	load []int          // demands, parallel to keys
	pos  []int32        // sparse index: pos[id] = position+1 in keys, 0 = absent
}

// NewFootprint returns an empty footprint for a graph with numNodes nodes.
func NewFootprint(numNodes int) *Footprint {
	return &Footprint{pos: make([]int32, numNodes)}
}

// Len returns the number of switches carrying load.
func (f *Footprint) Len() int { return len(f.keys) }

// Keys returns the touched switches in the footprint's current order. The
// slice aliases internal storage: it is invalidated by Add/Remove/Sort/Reset
// and must not be retained.
func (f *Footprint) Keys() []graph.NodeID { return f.keys }

// Reset empties the footprint in O(touched), leaving the sparse index clean
// for the next use.
func (f *Footprint) Reset() {
	for _, id := range f.keys {
		f.pos[id] = 0
	}
	f.keys = f.keys[:0]
	f.load = f.load[:0]
}

// Add accumulates qubits of demand at switch id, inserting it if absent.
// Accumulating to exactly zero removes the switch; negative totals panic
// (they indicate a release without a matching charge, same contract as
// Ledger.Release).
func (f *Footprint) Add(id graph.NodeID, qubits int) {
	f.check(id)
	p := f.pos[id]
	if p == 0 {
		if qubits == 0 {
			return
		}
		f.keys = append(f.keys, id)
		f.load = append(f.load, qubits)
		f.pos[id] = int32(len(f.keys))
		if qubits < 0 {
			panic(fmt.Sprintf("quantum: footprint: negative load %d at switch %d", qubits, id))
		}
		return
	}
	f.load[p-1] += qubits
	switch {
	case f.load[p-1] == 0:
		f.Remove(id)
	case f.load[p-1] < 0:
		panic(fmt.Sprintf("quantum: footprint: negative load %d at switch %d", f.load[p-1], id))
	}
}

// Remove drops switch id from the footprint (no-op when absent). The dense
// order is not preserved: the last key is swapped into the hole, so call
// Sort before exporting if a deterministic order matters.
func (f *Footprint) Remove(id graph.NodeID) {
	f.check(id)
	p := f.pos[id]
	if p == 0 {
		return
	}
	last := len(f.keys) - 1
	moved := f.keys[last]
	f.keys[p-1] = moved
	f.load[p-1] = f.load[last]
	f.pos[moved] = p
	f.keys = f.keys[:last]
	f.load = f.load[:last]
	f.pos[id] = 0
}

// Get returns the demand at switch id, 0 when absent.
func (f *Footprint) Get(id graph.NodeID) int {
	f.check(id)
	p := f.pos[id]
	if p == 0 {
		return 0
	}
	return f.load[p-1]
}

// Max returns the largest per-switch demand (0 when empty) — the MaxLoad
// twin. Demand above 2 at any switch disables the closure-epoch fast path;
// see MaxLoad.
func (f *Footprint) Max() int {
	max := 0
	for _, n := range f.load {
		if n > max {
			max = n
		}
	}
	return max
}

// Touches reports whether any switch in ids carries load, in O(len(ids))
// against the sparse index.
func (f *Footprint) Touches(ids []graph.NodeID) bool {
	for _, id := range ids {
		if int(id) < len(f.pos) && id >= 0 && f.pos[id] != 0 {
			return true
		}
	}
	return false
}

// Sort orders the dense keys by ascending switch ID and rebuilds the sparse
// index, giving the deterministic order ReserveLoad-style closure logs need.
func (f *Footprint) Sort() {
	sort.Sort((*footprintByID)(f))
	for i, id := range f.keys {
		f.pos[id] = int32(i + 1)
	}
}

// footprintByID sorts keys and load in lockstep without allocating a
// closure the way sort.Slice does.
type footprintByID Footprint

func (s *footprintByID) Len() int           { return len(s.keys) }
func (s *footprintByID) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *footprintByID) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.load[i], s.load[j] = s.load[j], s.load[i]
}

// AppendEntries appends the footprint as LoadEntry records in the current
// key order (Sort first for the canonical ascending-ID form) and returns the
// extended slice.
func (f *Footprint) AppendEntries(dst []LoadEntry) []LoadEntry {
	for i, id := range f.keys {
		dst = append(dst, LoadEntry{ID: id, Qubits: f.load[i]})
	}
	return dst
}

// AddEntries accumulates a load slice into the footprint.
func (f *Footprint) AddEntries(entries []LoadEntry) {
	for _, e := range entries {
		f.Add(e.ID, e.Qubits)
	}
}

// AddTree accumulates a tree's per-switch qubit load (2 per transiting
// channel), walking channel interiors without the per-channel slice copy
// Channel.Interior makes.
func (f *Footprint) AddTree(t Tree) {
	for _, c := range t.Channels {
		nodes := c.Nodes
		for i := 1; i+1 < len(nodes); i++ {
			f.Add(nodes[i], 2)
		}
	}
}

func (f *Footprint) check(id graph.NodeID) {
	if id < 0 || int(id) >= len(f.pos) {
		panic(fmt.Sprintf("quantum: footprint: unknown node %d", id))
	}
}
