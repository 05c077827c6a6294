package quantum

import (
	"fmt"

	"github.com/muerp/quantumnet/internal/graph"
)

// Ledger tracks the free qubits of every switch while channels are being
// committed. Each channel transiting a switch reserves 2 of its qubits
// (paper §II-C); users are modeled with sufficient capacity and are never
// charged.
//
// Besides the raw budgets, the ledger records its closure history: every
// time Reserve drops a switch below 2 free qubits the switch "closes" (it
// can no longer relay new channels) and its ID is appended to an ordered
// closure log. Within a run of Reserve-only mutations capacity is monotone —
// closed switches never reopen — which is what lets solvers cache search
// results keyed by an Epoch and revalidate them lazily (see
// internal/core's incremental search layer). A Release that lifts a switch
// back to 2 free qubits breaks that monotonicity; the ledger then starts a
// new generation, and every Epoch taken before it is invalidated wholesale
// (ClosedSince reports ok=false).
//
// Concurrency contract: a Ledger performs no locking of its own. Callers
// that share one ledger across goroutines must serialize every Reserve and
// Release — and any Epoch/ClosedSince reads that need to be consistent with
// them — behind a single mutex or a single owning goroutine. This is the
// discipline internal/service adopts: its serve loop (admission and expiry),
// DELETE handlers and cross-region coordinator mutate the ledger only while
// holding the one server mutex, so each micro-batch of solves observes a
// frozen closure history and the incremental search cache stays coherent.
// Purely read-only use (CanRelay during searches, Free, Epoch, ClosedSince)
// is safe from any number of goroutines as long as no mutation runs at the
// same time.
//
// The zero value is not usable; construct with NewLedger.
type Ledger struct {
	free []int
	g    *graph.Graph

	gen    uint64         // closure generation; bumped when a Release reopens a switch
	closed []graph.NodeID // switches closed this generation, in closure order
}

// Epoch identifies a point in a ledger's closure history: a generation plus
// the number of closures observed so far within it. Epochs taken from the
// same ledger are totally ordered within a generation; capacity can only
// shrink between an epoch and any later one of the same generation.
type Epoch struct {
	Gen uint64
	N   int
}

// Epoch returns the ledger's current closure epoch. A cached search result
// tagged with it stays conservatively valid for as long as
// ClosedSince(epoch) reports ok with no closures touching the result.
func (l *Ledger) Epoch() Epoch { return Epoch{Gen: l.gen, N: len(l.closed)} }

// ClosedSince returns the switches that closed (dropped below 2 free
// qubits) after epoch e was taken, in closure order. ok is false when e
// belongs to an earlier generation — some Release reopened a switch since,
// monotonicity broke, and the caller must discard everything cached at or
// before e. The returned slice aliases the ledger's log; callers must not
// retain it across further mutations.
func (l *Ledger) ClosedSince(e Epoch) (ids []graph.NodeID, ok bool) {
	if e.Gen != l.gen || e.N > len(l.closed) {
		return nil, false
	}
	return l.closed[e.N:], true
}

// NewLedger returns a ledger with every switch's full qubit budget free.
func NewLedger(g *graph.Graph) *Ledger {
	l := &Ledger{free: make([]int, g.NumNodes()), g: g}
	for _, n := range g.Nodes() {
		if n.Kind == graph.KindSwitch {
			l.free[n.ID] = n.Qubits
		}
	}
	return l
}

// Free returns the number of free qubits at a switch. For users it returns
// 0; users have no budget and are never charged.
func (l *Ledger) Free(id graph.NodeID) int {
	l.check(id)
	return l.free[id]
}

// CanRelay reports whether node n may serve as a channel-interior vertex
// right now: it must be a switch with at least 2 free qubits. The signature
// matches graph.TransitFunc so a ledger can gate Dijkstra runs directly.
func (l *Ledger) CanRelay(n graph.Node) bool {
	return n.Kind == graph.KindSwitch && l.free[n.ID] >= 2
}

// CanCarry reports whether every interior switch of the path has 2 free
// qubits.
func (l *Ledger) CanCarry(path []graph.NodeID) bool {
	for i := 1; i+1 < len(path); i++ {
		if l.free[path[i]] < 2 {
			return false
		}
	}
	return true
}

// Reserve charges 2 qubits at every interior switch of the path. It fails
// without side effects when some switch lacks capacity. Switches the charge
// drops below 2 free qubits are appended to the closure log.
func (l *Ledger) Reserve(path []graph.NodeID) error {
	if !l.CanCarry(path) {
		return fmt.Errorf("quantum: reserve %v: %w", path, ErrInteriorQubits)
	}
	for i := 1; i+1 < len(path); i++ {
		id := path[i]
		l.free[id] -= 2
		if l.free[id] < 2 {
			l.closed = append(l.closed, id)
		}
	}
	return nil
}

// Release refunds 2 qubits at every interior switch of the path, undoing a
// prior Reserve. It panics if the refund would exceed a switch's total
// budget, which indicates release without a matching reserve. A refund that
// lifts a switch from below 2 back to >= 2 free qubits reopens it: the
// ledger starts a new closure generation, invalidating every outstanding
// Epoch (reopened capacity can make previously cached search results
// non-optimal, so they must all be dropped, not patched).
func (l *Ledger) Release(path []graph.NodeID) {
	for i := 1; i+1 < len(path); i++ {
		id := path[i]
		l.free[id] += 2
		if l.free[id] > l.g.Node(id).Qubits {
			panic(fmt.Sprintf("quantum: release of unreserved capacity at switch %d", id))
		}
		if l.free[id] >= 2 && l.free[id]-2 < 2 {
			l.gen++
			l.closed = l.closed[:0]
		}
	}
}

// LedgerState is the serializable image of a ledger used by the durability
// layer (internal/snapshot): the per-node free-qubit budgets plus the full
// closure history. Free is indexed by graph.NodeID and carries 0 for users.
type LedgerState struct {
	Free   []int          `json:"free"`
	Gen    uint64         `json:"gen"`
	Closed []graph.NodeID `json:"closed,omitempty"`
}

// ExportState returns a deep copy of the ledger's state, suitable for
// serialization. The caller must hold the ledger's mutation lock (the
// single-mutator contract above) while exporting.
func (l *Ledger) ExportState() LedgerState {
	st := LedgerState{Free: make([]int, len(l.free)), Gen: l.gen}
	copy(st.Free, l.free)
	if len(l.closed) > 0 {
		st.Closed = append(st.Closed, l.closed...)
	}
	return st
}

// ImportState overwrites the ledger's budgets and closure history with a
// previously exported state, validating it against the graph: the free
// vector must cover every node, stay within each switch's total budget,
// charge users nothing, and keep reservations even (channels charge 2
// qubits at a time).
func (l *Ledger) ImportState(st LedgerState) error {
	if len(st.Free) != len(l.free) {
		return fmt.Errorf("quantum: ledger state covers %d nodes, graph has %d", len(st.Free), len(l.free))
	}
	for _, n := range l.g.Nodes() {
		free := st.Free[n.ID]
		if n.Kind == graph.KindSwitch {
			if free < 0 || free > n.Qubits {
				return fmt.Errorf("quantum: ledger state: switch %d free %d outside [0, %d]", n.ID, free, n.Qubits)
			}
			if (n.Qubits-free)%2 != 0 {
				return fmt.Errorf("quantum: ledger state: switch %d holds odd reservation %d", n.ID, n.Qubits-free)
			}
		} else if free != 0 {
			return fmt.Errorf("quantum: ledger state: user %d has free %d, want 0", n.ID, free)
		}
	}
	for _, id := range st.Closed {
		if id < 0 || int(id) >= len(l.free) || l.g.Node(id).Kind != graph.KindSwitch {
			return fmt.Errorf("quantum: ledger state: closure log names invalid switch %d", id)
		}
	}
	copy(l.free, st.Free)
	l.gen = st.Gen
	l.closed = append(l.closed[:0], st.Closed...)
	return nil
}

// SyncEpoch adopts a later closure generation recorded by the durability
// layer. A rolled-back routing attempt (cancelled or infeasible solve)
// leaves the free budgets exactly as before but may have closed switches
// and reopened them, which bumps the generation and clears the closure log;
// replaying such an attempt is impossible, so recovery patches the epoch
// directly with the generation the live ledger reached. Regressing the
// generation is a replay-order bug and is rejected.
func (l *Ledger) SyncEpoch(gen uint64) error {
	if gen < l.gen {
		return fmt.Errorf("quantum: SyncEpoch gen %d behind current %d", gen, l.gen)
	}
	if gen > l.gen {
		l.gen = gen
		l.closed = l.closed[:0]
	}
	return nil
}

// Clone returns an independent copy of the ledger, closure history
// included. It is the cheap in-process snapshot — two slice copies, no
// serialization — and the way to take a consistent view of a shared ledger:
// callers hold the ledger's mutation lock for the Clone call only, then
// read or solve against the copy freely.
func (l *Ledger) Clone() *Ledger {
	c := &Ledger{free: make([]int, len(l.free)), g: l.g, gen: l.gen}
	copy(c.free, l.free)
	if len(l.closed) > 0 {
		c.closed = append(c.closed, l.closed...)
	}
	return c
}

// UsedQubits returns the total number of qubits currently reserved across
// all switches.
func (l *Ledger) UsedQubits() int {
	used := 0
	for _, n := range l.g.Nodes() {
		if n.Kind == graph.KindSwitch {
			used += n.Qubits - l.free[n.ID]
		}
	}
	return used
}

func (l *Ledger) check(id graph.NodeID) {
	if id < 0 || int(id) >= len(l.free) {
		panic(fmt.Sprintf("quantum: ledger: unknown node %d", id))
	}
}
