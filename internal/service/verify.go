package service

import (
	"fmt"
	"sort"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/topology"
)

// parseSessionSeq extracts the per-counter sequence number from a session
// ID: "s-<n>" (standalone server) or "s<shard>-<n>" (sharded server).
func parseSessionSeq(id string) (uint64, error) {
	var n uint64
	if _, err := fmt.Sscanf(id, "s-%d", &n); err == nil {
		return n, nil
	}
	var shard int
	if _, err := fmt.Sscanf(id, "s%d-%d", &shard, &n); err == nil && shard >= 0 {
		return n, nil
	}
	return 0, fmt.Errorf("service: malformed session ID %q", id)
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
// server's StateDump after parallel admissions). It checks a standalone
// server's state, a sharded server's composed state (ComposeShardStates,
// whose counter is the maximum per-shard counter), and one shard's state
// against its region graph (RegionGraph). In a shard's state, cross-region
// sessions (those carrying Shards) hold only this shard's load slice, which
// re-reserves via ReserveLoad, and their secondary copies skip the counter
// check because they draw their IDs from the home shard's counter.
func VerifyState(g *graph.Graph, params quantum.Params, st State) error {
	check := quantum.NewLedger(g)
	for _, ss := range st.Sessions {
		if len(ss.Shards) > 0 {
			if err := check.ReserveLoad(ss.Load); err != nil {
				return fmt.Errorf("session %s: re-reserve load: %w", ss.Info.ID, err)
			}
		} else {
			if err := quantum.ValidateTree(g, ss.Info.Users, ss.Tree, params); err != nil {
				return fmt.Errorf("session %s: %w", ss.Info.ID, err)
			}
			for _, c := range ss.Tree.Channels {
				if err := check.Reserve(c.Nodes); err != nil {
					return fmt.Errorf("session %s: re-reserve: %w", ss.Info.ID, err)
				}
			}
		}
		if ss.Secondary {
			continue
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

// ComposeShardStates merges per-shard state dumps into one full-topology
// State suitable for VerifyState: each switch's free budget comes from its
// owning shard, every session appears once (its home copy, tree attached),
// and NextID is the maximum per-shard counter.
//
// Shards release a cross-region session independently (each expiry wheel
// refunds its own slice), so a set of dumps taken mid-release can hold the
// session on some involved shards but not others. Such torn sessions cannot
// be verified as trees; ComposeShardStates completes their release
// virtually — refunding the slices still held into the composed budgets and
// dropping the session — and reports their IDs so callers can decide whether
// tearing is acceptable (it never is for a quiesced server).
func ComposeShardStates(g *graph.Graph, part *topology.Partition, states []State) (State, []string, error) {
	if part.K != len(states) {
		return State{}, nil, fmt.Errorf("service: %d shard states for a %d-region partition", len(states), part.K)
	}
	free := make([]int, g.NumNodes())
	for _, sw := range g.Switches() {
		r := part.RegionOf(sw)
		if len(states[r].Ledger.Free) != g.NumNodes() {
			return State{}, nil, fmt.Errorf("service: shard %d ledger covers %d nodes, graph has %d",
				r, len(states[r].Ledger.Free), g.NumNodes())
		}
		free[sw] = states[r].Ledger.Free[sw]
	}

	var out State
	for _, st := range states {
		if st.NextID > out.NextID {
			out.NextID = st.NextID
		}
	}

	// Group every dump's copy of each session; cross-region sessions appear
	// once per involved shard.
	copies := make(map[string][]SessionState)
	var order []string
	for _, st := range states {
		for _, ss := range st.Sessions {
			if _, seen := copies[ss.Info.ID]; !seen {
				order = append(order, ss.Info.ID)
			}
			copies[ss.Info.ID] = append(copies[ss.Info.ID], ss)
		}
	}
	sort.Strings(order)

	var torn []string
	for _, id := range order {
		cs := copies[id]
		if cs[0].Shards == nil {
			if len(cs) != 1 {
				return State{}, nil, fmt.Errorf("service: session %s appears on %d shards without a shard list", id, len(cs))
			}
			out.Sessions = append(out.Sessions, SessionState{Info: cs[0].Info, Tree: cs[0].Tree})
			continue
		}
		var home *SessionState
		for i := range cs {
			if !cs[i].Secondary {
				home = &cs[i]
			}
		}
		if home == nil || len(cs) != len(home.Shards) {
			// Torn mid-release: finish the release virtually.
			torn = append(torn, id)
			for _, ss := range cs {
				for _, e := range ss.Load {
					free[e.ID] += e.Qubits
				}
			}
			continue
		}
		out.Sessions = append(out.Sessions, SessionState{Info: home.Info, Tree: home.Tree})
	}
	out.Ledger = quantum.LedgerState{Free: free}
	return out, torn, nil
}
