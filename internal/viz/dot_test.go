package viz

import (
	"context"
	"strings"
	"testing"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

func vizNet(t *testing.T) (*graph.Graph, *core.Solution) {
	t.Helper()
	g := graph.New(4, 3)
	g.AddUser(0, 0)
	g.AddSwitch(1000, 0, 4)
	g.AddUser(2000, 0)
	g.AddUser(1000, 1000)
	g.MustAddEdge(0, 1, 1000)
	g.MustAddEdge(1, 2, 1000)
	g.MustAddEdge(1, 3, 1400)
	prob, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveConflictFreeContext(context.Background(), prob, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, sol
}

func TestDOTPlainNetwork(t *testing.T) {
	g, _ := vizNet(t)
	out := DOT(g, nil)
	for _, want := range []string{
		"graph quantumnet {",
		"doublecircle", // users
		"shape=box",    // switches
		"Q=4",          // qubit budget label
		"n0 -- n1",     // fibers
		"1000 km",
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "penwidth") {
		t.Error("plain network shows highlighted channels")
	}
}

func TestDOTHighlightsChannels(t *testing.T) {
	g, sol := vizNet(t)
	out := DOT(g, sol)
	if !strings.Contains(out, "penwidth=2.5") {
		t.Fatalf("no highlighted fibers:\n%s", out)
	}
	// Every fiber of every channel must be highlighted.
	highlighted := strings.Count(out, "penwidth")
	links := 0
	for _, ch := range sol.Tree.Channels {
		links += ch.Links()
	}
	// Shared fibers collapse into one line, so highlighted <= links.
	if highlighted == 0 || highlighted > links {
		t.Fatalf("%d highlighted fibers for %d channel links", highlighted, links)
	}
}

func TestDOTSharedFiberGetsMultipleColors(t *testing.T) {
	// Two channels crossing the same switch from one user share the
	// user-switch fiber only if they both start there; construct that
	// explicitly: u0->s->u1 and u0->s->u2 share fiber u0-s.
	g := graph.New(4, 3)
	g.AddUser(0, 0)
	g.AddSwitch(1000, 0, 4)
	g.AddUser(2000, 0)
	g.AddUser(2000, 1000)
	g.MustAddEdge(0, 1, 1000)
	g.MustAddEdge(1, 2, 1000)
	g.MustAddEdge(1, 3, 1400)
	p := quantum.DefaultParams()
	ch1, err := quantum.NewChannel(g, []graph.NodeID{0, 1, 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := quantum.NewChannel(g, []graph.NodeID{0, 1, 3}, p)
	if err != nil {
		t.Fatal(err)
	}
	sol := &core.Solution{Tree: quantum.Tree{Channels: []quantum.Channel{ch1, ch2}}}
	out := DOT(g, sol)
	// The shared fiber n0--n1 carries both channels: two colors joined by
	// a colon (Graphviz multicolor syntax).
	if !strings.Contains(out, "crimson:royalblue") {
		t.Fatalf("shared fiber not multi-colored:\n%s", out)
	}
}
