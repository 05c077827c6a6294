// Package solver is the single dispatch surface for every routing scheme in
// the repo: the paper's Algorithms 2-4, the evaluation baselines, the
// ablation variants and the exact branch-and-bound. Each scheme registers
// one Entry — its SolveFunc plus the metadata that used to live as special
// cases in the callers (does it need the sufficient-capacity network copy,
// does it consume randomness, how is it labelled in the paper's plots) —
// and every dispatch site (the sim harness and its ablations, the public
// facade, the CLIs, repair and the slot engine) resolves schemes through Get
// and List instead of switching on names. The registered SolveFunc is each
// scheme's one entry point.
package solver

import (
	"fmt"
	"sort"
	"strings"

	"github.com/muerp/quantumnet/internal/core"
)

// Entry describes one registered routing scheme.
type Entry struct {
	// Name is the scheme's stable identifier — the registry key, the CLI
	// -alg value and the column key in experiment output (e.g. "alg3").
	Name string
	// Label is the human-readable name used in plots and listings (e.g.
	// "Algorithm 3 (conflict-free)").
	Label string
	// NeedsSufficientCapacity marks schemes only defined under the paper's
	// sufficient-capacity condition Q_r >= 2|U| (Algorithm 2): the
	// experiment harness solves them on a switch-boosted network copy.
	NeedsSufficientCapacity bool
	// ConsumesRNG marks schemes that draw from SolveOptions.RNG (Algorithm
	// 4's random start, the random-replay ablation). Callers that care
	// about reproducible RNG streams only hand the per-trial stream to
	// these.
	ConsumesRNG bool
	// Default marks the five schemes of the paper's evaluation, run when no
	// explicit algorithm selection is given.
	Default bool
	// Solve routes a problem under the scheme; see core.SolveFunc.
	Solve core.SolveFunc
}

// Solver adapts the entry to the core.Solver interface.
func (e Entry) Solver() core.Solver {
	return core.SolverFunc{ID: e.Name, Fn: e.Solve}
}

// registry holds entries in registration order, which is the canonical plot
// order (List's contract). Registration happens in package init functions;
// after that the registry is read-only, so no locking is needed.
var (
	registry []Entry
	byName   = map[string]int{}
)

// Register adds a scheme to the registry. It panics on an empty or duplicate
// name or a nil SolveFunc — registration happens at init time, where a panic
// is an immediate programming-error diagnostic, not a runtime failure.
func Register(e Entry) {
	if e.Name == "" {
		panic("solver: Register with empty name")
	}
	if e.Solve == nil {
		panic(fmt.Sprintf("solver: Register(%q) with nil SolveFunc", e.Name))
	}
	if _, dup := byName[e.Name]; dup {
		panic(fmt.Sprintf("solver: duplicate registration of %q", e.Name))
	}
	byName[e.Name] = len(registry)
	registry = append(registry, e)
}

// Get returns the entry registered under name. The error of an unknown name
// lists every registered name, so CLI users see their options.
func Get(name string) (Entry, error) {
	if i, ok := byName[name]; ok {
		return registry[i], nil
	}
	return Entry{}, fmt.Errorf("solver: unknown algorithm %q (known: %s)", name, strings.Join(Names(), ", "))
}

// List returns every registered entry in canonical plot order (the
// registration order). The returned slice is a copy.
func List() []Entry {
	return append([]Entry(nil), registry...)
}

// Defaults returns the entries of the paper's evaluation (Default: true) in
// plot order.
func Defaults() []Entry {
	var out []Entry
	for _, e := range registry {
		if e.Default {
			out = append(out, e)
		}
	}
	return out
}

// Names returns every registered name in plot order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// Rank returns name's position in the canonical plot order, and whether the
// name is registered at all.
func Rank(name string) (int, bool) {
	i, ok := byName[name]
	return i, ok
}

// SortCanonical orders algorithm names in place: registered names first, in
// plot order, then unknown names alphabetically. It is the single ordering
// rule behind experiment tables, CSV columns and the facade's solver list.
func SortCanonical(names []string) {
	sort.Slice(names, func(i, j int) bool {
		oi, iOK := Rank(names[i])
		oj, jOK := Rank(names[j])
		switch {
		case iOK && jOK:
			return oi < oj
		case iOK:
			return true
		case jOK:
			return false
		default:
			return names[i] < names[j]
		}
	})
}
