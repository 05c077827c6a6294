package service

import (
	"fmt"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// parseSessionSeq extracts the sequence number from a session ID "s-<n>".
func parseSessionSeq(id string) (uint64, error) {
	var n uint64
	if _, err := fmt.Sscanf(id, "s-%d", &n); err != nil {
		return 0, fmt.Errorf("service: malformed session ID %q", id)
	}
	return n, nil
}

// VerifyState cross-checks an admission state document against the topology
// it claims to describe:
//
//   - every session's tree revalidates (quantum.ValidateTree: spanning,
//     capacity, Eq. 1 rates),
//   - re-reserving every session's channels on a fresh ledger reproduces the
//     state's per-switch occupancy exactly (so no qubit is double-booked and
//     none has leaked),
//   - session IDs are below the state's ID counter.
//
// It is the one consistency oracle shared by cmd/qrecover (auditing a data
// directory before a restart) and the concurrency tests (auditing a live
// server's StateDump after parallel admissions).
func VerifyState(g *graph.Graph, params quantum.Params, st State) error {
	check := quantum.NewLedger(g)
	for _, ss := range st.Sessions {
		if err := quantum.ValidateTree(g, ss.Info.Users, ss.Tree, params); err != nil {
			return fmt.Errorf("session %s: %w", ss.Info.ID, err)
		}
		for _, c := range ss.Tree.Channels {
			if err := check.Reserve(c.Nodes); err != nil {
				return fmt.Errorf("session %s: re-reserve: %w", ss.Info.ID, err)
			}
		}
		n, err := parseSessionSeq(ss.Info.ID)
		if err != nil || n > st.NextID {
			return fmt.Errorf("session %s: ID outside recovered counter %d", ss.Info.ID, st.NextID)
		}
	}
	for _, id := range g.Switches() {
		if got, want := st.Ledger.Free[id], check.Free(id); got != want {
			return fmt.Errorf("switch %d: recovered %d free qubits, re-reserving every session leaves %d", id, got, want)
		}
	}
	return nil
}
