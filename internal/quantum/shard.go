package quantum

import (
	"errors"
	"fmt"

	"github.com/muerp/quantumnet/internal/graph"
)

// This file holds the shard-side reservation primitives used by the sharded
// admission plane (internal/service). A cross-region entanglement tree is
// split by switch ownership into per-region load slices; each region's shard
// then reserves its slice on its own ledger under a two-phase
// prepare/commit protocol. The primitives mirror Reserve/Release exactly —
// same closure-log and generation semantics — so a shard ledger driven by a
// mix of tree reservations (local sessions) and load reservations (slices
// of cross-region sessions) replays byte-identically from its WAL stream.

// LoadEntry is one switch's share of a reservation: Qubits qubits charged at
// switch ID. Loads are always even (channels charge 2 qubits at a time).
type LoadEntry struct {
	ID     graph.NodeID `json:"id"`
	Qubits int          `json:"qubits"`
}

// ErrTxnConflict reports a failed prepare: the shard's closure history moved
// past the epoch the transaction was planned under and the plan no longer
// provably fits. The coordinator retries against a fresh view or falls back
// to its global serial path.
var ErrTxnConflict = errors.New("quantum: reservation conflicts with shard ledger")

// FitsLoad reports whether every entry's switch has at least its demanded
// qubits free right now.
func (l *Ledger) FitsLoad(entries []LoadEntry) bool {
	for _, e := range entries {
		l.check(e.ID)
		if l.free[e.ID] < e.Qubits {
			return false
		}
	}
	return true
}

// LoadEntriesTouch reports whether any switch in ids appears in entries.
// The cross-region commit uses it to pre-filter a prepared slice against
// the closures since its base epoch.
func LoadEntriesTouch(entries []LoadEntry, ids []graph.NodeID) bool {
	for _, id := range ids {
		for _, e := range entries {
			if e.ID == id && e.Qubits > 0 {
				return true
			}
		}
	}
	return false
}

// MaxLoadEntries returns the largest per-switch demand in entries (0 when
// empty); see MaxLoad for why demand above 2 disables the epoch fast path.
func MaxLoadEntries(entries []LoadEntry) int {
	max := 0
	for _, e := range entries {
		if e.Qubits > max {
			max = e.Qubits
		}
	}
	return max
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

// ValidateSince is the prepare step of the cross-region protocol: it reports
// whether a load slice planned under epoch e still provably fits the ledger.
// The fast path is the closure-epoch argument — an unbroken generation
// whose new closures miss the slice, with per-switch demand ≤ 2, proves
// capacity without reading budgets — and
// anything else falls back to the authoritative FitsLoad. It reads only;
// commit is ReserveLoad, abort is a no-op.
func (l *Ledger) ValidateSince(e Epoch, entries []LoadEntry) bool {
	if closed, ok := l.ClosedSince(e); ok &&
		!LoadEntriesTouch(entries, closed) && MaxLoadEntries(entries) <= 2 {
		return true
	}
	return l.FitsLoad(entries)
}

// ValidateSliceSince is ValidateSince with the touch test served by a
// footprint instead of the O(closures × entries) slice scan. The footprint
// may cover the whole tree while entries is one shard's slice: closures are
// region-local, so a footprint hit within this ledger's closures implies a
// hit in this shard's slice. The footprint's global Max is a conservative
// stand-in for the slice's (it can only send more cases to the authoritative
// FitsLoad fallback, never fewer), so the decision matches ValidateSince.
func (l *Ledger) ValidateSliceSince(e Epoch, f *Footprint, entries []LoadEntry) bool {
	if closed, ok := l.ClosedSince(e); ok && !f.Touches(closed) && f.Max() <= 2 {
		return true
	}
	return l.FitsLoad(entries)
}
