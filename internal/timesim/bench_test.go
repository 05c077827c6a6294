package timesim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/muerp/quantumnet/internal/fidelity"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/topology"
	"github.com/muerp/quantumnet/internal/workload"
)

// flashNet and flashJob reproduce one perfbench qsim-flash job: a 16-user,
// 64-switch Waxman network with 8 qubits per switch, flash arrivals
// averaging one session per slot with an 8x burst over 1000 slots, groups of
// 2-3 users holding 25 slots on average.
func flashNet(b *testing.B) *graph.Graph {
	b.Helper()
	cfg := topology.Default()
	cfg.Users, cfg.Switches, cfg.SwitchQubits = 16, 64, 8
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func flashJob(b *testing.B, g *graph.Graph, slots int, seed int64) []sched.Request {
	b.Helper()
	proc, err := workload.ParseProcess("flash", 1, float64(slots))
	if err != nil {
		b.Fatal(err)
	}
	arr, err := workload.Arrivals(proc, float64(slots), rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.Draw{MeanHold: 25, MinUsers: 2, MaxUsers: 3}.Sessions(g, arr, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

// flashConfig is `qsim -ttl 8 -gamma 0.01 -min-fidelity 0.8 -fail-prob 5e-4
// -repair-slots 25`, the qsim-flash engine settings.
func flashConfig(g *graph.Graph, slots, parallelism int) Config {
	fid := fidelity.DefaultModel()
	fid.Gamma = 0.01
	return Config{
		Graph:       g,
		Params:      quantum.Params{Alpha: 1e-4, SwapProb: 0.9},
		Fid:         fid,
		Slots:       slots,
		MemoryTTL:   8,
		MinFidelity: 0.8,
		Algorithm:   GreedyAlgorithm,
		Seed:        1,
		FailProb:    5e-4,
		RepairSlots: 25,
		Parallelism: parallelism,
	}
}

// BenchmarkRunFlash times one qsim-flash job end to end (admission, fiber
// repair and session dynamics), serially and with the look-ahead seeder.
func BenchmarkRunFlash(b *testing.B) {
	const slots = 1000
	g := flashNet(b)
	reqs := flashJob(b, g, slots, 1)
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			cfg := flashConfig(g, slots, par)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), cfg, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
