package redundant

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/topology"
)

// twoUserNet builds a pair of users joined by one well-provisioned switch,
// leaving room for several parallel channels.
func twoUserNet(t *testing.T, qubits int) *graph.Graph {
	t.Helper()
	g := graph.New(3, 2)
	g.AddUser(0, 0)
	g.AddUser(2000, 0)
	g.AddSwitch(1000, 0, qubits)
	g.MustAddEdge(0, 2, 1000)
	g.MustAddEdge(2, 1, 1000)
	return g
}

func mustBase(t *testing.T, g *graph.Graph) (*core.Problem, *core.Solution) {
	t.Helper()
	p, err := core.AllUsersProblem(g, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.SolveConflictFreeContext(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, sol
}

func TestPairRateOrSemantics(t *testing.T) {
	pc := PairChannels{Channels: []quantum.Channel{{Rate: 0.5}, {Rate: 0.5}}}
	if got := pc.Rate(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Rate = %g, want 0.75", got)
	}
	single := PairChannels{Channels: []quantum.Channel{{Rate: 0.3}}}
	if got := single.Rate(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("single Rate = %g", got)
	}
}

func TestBoostAddsParallelChannels(t *testing.T) {
	g := twoUserNet(t, 6) // room for 3 channels through the switch
	p, base := mustBase(t, g)
	sol, err := Boost(p, base, 8)
	if err != nil {
		t.Fatalf("Boost: %v", err)
	}
	if err := Validate(p, sol); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if got := len(sol.Pairs[0].Channels); got != 3 {
		t.Fatalf("pair holds %d channels, want 3 (6 qubits / 2)", got)
	}
	if sol.Rate() <= base.Rate() {
		t.Fatalf("redundancy did not help: %g vs %g", sol.Rate(), base.Rate())
	}
	// Rate equals the OR-composition of the three identical channels.
	chRate := base.Tree.Channels[0].Rate
	want := 1 - math.Pow(1-chRate, 3)
	if math.Abs(sol.Rate()-want) > 1e-12 {
		t.Fatalf("Rate = %g, want %g", sol.Rate(), want)
	}
}

func TestBoostWidthCap(t *testing.T) {
	g := twoUserNet(t, 8)
	p, base := mustBase(t, g)
	sol, err := Boost(p, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Width(); got != 2 {
		t.Fatalf("Width = %d, want capped 2", got)
	}
}

func TestBoostWidthOneIsBase(t *testing.T) {
	g := twoUserNet(t, 8)
	p, base := mustBase(t, g)
	sol, err := Boost(p, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Width() != 1 {
		t.Fatalf("Width = %d", sol.Width())
	}
	if math.Abs(sol.Rate()-base.Rate()) > 1e-12 {
		t.Fatalf("width-1 rate %g != base %g", sol.Rate(), base.Rate())
	}
}

func TestBoostRejects(t *testing.T) {
	g := twoUserNet(t, 4)
	p, base := mustBase(t, g)
	if _, err := Boost(p, base, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Boost(p, nil, 2); err == nil {
		t.Error("nil base accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	g := twoUserNet(t, 6)
	p, base := mustBase(t, g)
	good, err := Boost(p, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, nil); err == nil {
		t.Error("nil solution accepted")
	}
	empty := &Solution{Pairs: []PairChannels{{A: 0, B: 1}}}
	if err := Validate(p, empty); err == nil {
		t.Error("channel-less pair accepted")
	}
	// Overload: duplicate the whole pair list so the switch is oversubscribed.
	over := &Solution{Pairs: []PairChannels{{
		A: good.Pairs[0].A, B: good.Pairs[0].B,
		Channels: append(append([]quantum.Channel{}, good.Pairs[0].Channels...),
			good.Pairs[0].Channels...),
	}}}
	if err := Validate(p, over); err == nil {
		t.Error("over-capacity solution accepted")
	}
}

// TestQuickBoostSound: on random networks, boosting never lowers the rate,
// always validates, and respects joint capacity.
func TestQuickBoostSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := topology.Default()
		cfg.Users = 3 + rng.Intn(4)
		cfg.Switches = 10 + rng.Intn(10)
		cfg.SwitchQubits = 2 + 2*rng.Intn(3)
		g, err := topology.Generate(cfg, rng)
		if err != nil {
			return false
		}
		p, err := core.AllUsersProblem(g, quantum.DefaultParams())
		if err != nil {
			return false
		}
		base, err := core.SolveConflictFreeContext(context.Background(), p, nil)
		if err != nil {
			return true // infeasible instance: nothing to boost
		}
		sol, err := Boost(p, base, 1+rng.Intn(4))
		if err != nil {
			t.Log(err)
			return false
		}
		if Validate(p, sol) != nil {
			t.Logf("seed %d: invalid boosted solution", seed)
			return false
		}
		if sol.Rate() < base.Rate()*(1-1e-9) {
			t.Logf("seed %d: boost lowered rate %g -> %g", seed, base.Rate(), sol.Rate())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBoostMonteCarloAgreement samples the OR-composed process directly and
// compares with the analytic redundant rate.
func TestBoostMonteCarloAgreement(t *testing.T) {
	g := twoUserNet(t, 6)
	p, base := mustBase(t, g)
	sol, err := Boost(p, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := p.Params
	rng := rand.New(rand.NewSource(4))
	trials := 200000
	successes := 0
	for i := 0; i < trials; i++ {
		treeUp := true
		for _, pc := range sol.Pairs {
			pairUp := false
			for _, ch := range pc.Channels {
				chUp := true
				for j := 0; j+1 < len(ch.Nodes); j++ {
					e, _ := g.EdgeBetween(ch.Nodes[j], ch.Nodes[j+1])
					if rng.Float64() >= params.LinkRate(e.Length) {
						chUp = false
						break
					}
				}
				if chUp {
					for s := 0; s < len(ch.Nodes)-2; s++ {
						if rng.Float64() >= params.SwapProb {
							chUp = false
							break
						}
					}
				}
				if chUp {
					pairUp = true
					break
				}
			}
			if !pairUp {
				treeUp = false
				break
			}
		}
		if treeUp {
			successes++
		}
	}
	got := float64(successes) / float64(trials)
	want := sol.Rate()
	se := math.Sqrt(want * (1 - want) / float64(trials))
	if math.Abs(got-want) > 5*se+1e-9 {
		t.Fatalf("monte carlo %g vs analytic %g (se %g)", got, want, se)
	}
}
