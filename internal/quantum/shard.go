package quantum

import (
	"fmt"

	"github.com/muerp/quantumnet/internal/graph"
)

// This file holds the shard-side reservation primitives used by the sharded
// admission plane (internal/service). A cross-region entanglement tree is
// split by switch ownership into per-region load slices; each region's shard
// then reserves its slice on its own ledger, with every involved shard
// locked at once. The primitives mirror Reserve/Release exactly —
// same closure-log and generation semantics — so a shard ledger driven by a
// mix of tree reservations (local sessions) and load reservations (slices
// of cross-region sessions) replays byte-identically from its WAL stream.

// LoadEntry is one switch's share of a reservation: Qubits qubits charged at
// switch ID. Loads are always even (channels charge 2 qubits at a time).
type LoadEntry struct {
	ID     graph.NodeID `json:"id"`
	Qubits int          `json:"qubits"`
}

// ReserveLoad charges every entry's qubits at its switch, all or nothing:
// when some switch lacks capacity it fails without side effects. Like
// Reserve, a charge that drops a switch below 2 free qubits appends it to
// the closure log; entries are applied in slice order, so pass them sorted
// by switch ID (or a recovered record of them) for deterministic logs.
// Entries must carry positive, even demands — channel charges come in
// pairs.
func (l *Ledger) ReserveLoad(entries []LoadEntry) error {
	for _, e := range entries {
		l.check(e.ID)
		if e.Qubits <= 0 || e.Qubits%2 != 0 {
			return fmt.Errorf("quantum: reserve load: switch %d demand %d not a positive even count", e.ID, e.Qubits)
		}
		if l.g.Node(e.ID).Kind != graph.KindSwitch {
			return fmt.Errorf("quantum: reserve load: node %d is not a switch", e.ID)
		}
		if l.free[e.ID] < e.Qubits {
			return fmt.Errorf("quantum: reserve load: switch %d has %d free, need %d: %w",
				e.ID, l.free[e.ID], e.Qubits, ErrInteriorQubits)
		}
	}
	for _, e := range entries {
		wasOpen := l.free[e.ID] >= 2
		l.free[e.ID] -= e.Qubits
		if wasOpen && l.free[e.ID] < 2 {
			l.closed = append(l.closed, e.ID)
		}
	}
	return nil
}

// ReleaseLoad refunds a prior ReserveLoad. It panics when the refund would
// exceed a switch's total budget (release without a matching reserve), and —
// exactly like Release — a refund lifting a switch from below 2 back to
// >= 2 free qubits reopens it and starts a new closure generation.
func (l *Ledger) ReleaseLoad(entries []LoadEntry) {
	for _, e := range entries {
		l.check(e.ID)
		wasClosed := l.free[e.ID] < 2
		l.free[e.ID] += e.Qubits
		if l.free[e.ID] > l.g.Node(e.ID).Qubits {
			panic(fmt.Sprintf("quantum: release of unreserved load at switch %d", e.ID))
		}
		if wasClosed && l.free[e.ID] >= 2 {
			l.gen++
			l.closed = l.closed[:0]
		}
	}
}
