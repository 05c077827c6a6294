package timesim

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/muerp/quantumnet/internal/core"

	"github.com/muerp/quantumnet/internal/fidelity"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/workload"
)

// testGraph builds a small dense network: 6 users around a 4-switch ring
// with chords, enough capacity for a handful of concurrent sessions.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New(0, 0)
	var sw []graph.NodeID
	for i := 0; i < 4; i++ {
		sw = append(sw, g.AddSwitch(float64(i%2)*3000, float64(i/2)*3000, 12))
	}
	g.MustAddEdge(sw[0], sw[1], 3000)
	g.MustAddEdge(sw[1], sw[3], 3000)
	g.MustAddEdge(sw[3], sw[2], 3000)
	g.MustAddEdge(sw[2], sw[0], 3000)
	g.MustAddEdge(sw[0], sw[3], 4200)
	g.MustAddEdge(sw[1], sw[2], 4200)
	for i := 0; i < 6; i++ {
		u := g.AddUser(-1000, float64(i)*1200)
		g.MustAddEdge(u, sw[i%4], 1500)
		g.MustAddEdge(u, sw[(i+1)%4], 2100)
	}
	return g
}

// testRequests samples a Poisson stream of small sessions over the horizon.
func testRequests(t testing.TB, g *graph.Graph, rate float64, slots int, seed int64) []sched.Request {
	t.Helper()
	arr, err := workload.Arrivals(workload.Poisson{Lambda: rate}, float64(slots), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Draw{MeanHold: 25, MinUsers: 2, MaxUsers: 3}.Sessions(g, arr, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func baseConfig(g *graph.Graph) Config {
	return Config{
		Graph:     g,
		Params:    quantum.Params{Alpha: 4e-4, SwapProb: 0.9},
		Fid:       fidelity.Model{W0: 0.98, Beta: 2e-5, Gamma: 0.01},
		Slots:     300,
		MemoryTTL: 8,
		Seed:      42,
	}
}

// The full report of a seeded run is pinned: any change to the engine's
// trajectory — admission order, RNG stream layout, dynamics rules — shows
// up as a diff here and must be deliberate.
func TestGoldenTrace(t *testing.T) {
	g := testGraph(t)
	rep, err := Run(context.Background(), baseConfig(g), testRequests(t, g, 0.2, 300, 7))
	if err != nil {
		t.Fatal(err)
	}
	const wantHash = uint64(0xdada792db170f90d)
	if rep.TraceHash != wantHash {
		t.Errorf("trace hash %#x, want %#x\nfull report:\n%s", rep.TraceHash, wantHash, rep)
	}
	if rep.Offered != 65 || rep.Admitted != 64 || rep.Rejected != 1 {
		t.Errorf("admissions drifted: offered %d admitted %d rejected %d", rep.Offered, rep.Admitted, rep.Rejected)
	}
	if rep.Delivered == 0 || rep.DecoheredLinks == 0 {
		t.Errorf("dynamics look dead: %+v", rep)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(t, g, 0.25, 300, 11)
	a, err := Run(context.Background(), baseConfig(g), reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), baseConfig(g), reqs)
	if err != nil {
		t.Fatal(err)
	}
	a.Work, b.Work = core.SolveStats{}, core.SolveStats{} // pool counters vary with scheduling
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	cfg := baseConfig(g)
	cfg.Seed = 43
	c, err := Run(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced the same trace")
	}
}

// Parallel slot advance must be bit-identical to the sequential loop; this
// is also the -race exercise for the concurrent path.
func TestParallelMatchesSequential(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(t, g, 0.3, 300, 13)
	seq := baseConfig(g)
	seq.Parallelism = 1
	par := baseConfig(g)
	par.Parallelism = 4
	a, err := Run(context.Background(), seq, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), par, reqs)
	if err != nil {
		t.Fatal(err)
	}
	a.Work, b.Work = core.SolveStats{}, core.SolveStats{} // pool counters vary with scheduling
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallelism changed the run:\n%s\nvs\n%s", a, b)
	}
}

// A longer memory TTL can only help: more slots to collect sibling links
// before the stored ones decohere.
func TestLongerTTLDeliversMore(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(t, g, 0.2, 300, 17)
	short := baseConfig(g)
	short.MemoryTTL = 1
	long := baseConfig(g)
	long.MemoryTTL = 16
	a, err := Run(context.Background(), short, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), long, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Delivered <= a.Delivered {
		t.Fatalf("TTL 16 delivered %d <= TTL 1 delivered %d", b.Delivered, a.Delivered)
	}
	if a.DecoheredLinks == 0 {
		t.Fatal("TTL 1 run never decohered a link")
	}
}

// A fidelity floor schedules purification rounds, trades delivered count
// for delivered quality.
func TestPurificationFloor(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(t, g, 0.2, 300, 19)
	free := baseConfig(g)
	floored := baseConfig(g)
	floored.MinFidelity = 0.9
	a, err := Run(context.Background(), free, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), floored, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if b.PurifyAttempts == 0 {
		t.Fatal("floor scheduled no purification")
	}
	if a.PurifyAttempts != 0 {
		t.Fatalf("floorless run purified %d times", a.PurifyAttempts)
	}
	if b.Delivered >= a.Delivered {
		t.Errorf("floored run delivered %d >= unfloored %d", b.Delivered, a.Delivered)
	}
	if b.MeanFidelity() <= a.MeanFidelity() {
		t.Errorf("floored mean fidelity %g <= unfloored %g", b.MeanFidelity(), a.MeanFidelity())
	}
}

// Fiber failures must trigger local repairs (or drops) and still tear down
// to an empty ledger (Run checks that internally).
func TestFiberFailuresRepairOrDrop(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(t, g, 0.25, 300, 23)
	cfg := baseConfig(g)
	cfg.FailProb = 0.004
	cfg.RepairSlots = 25
	rep, err := Run(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EdgeFailures == 0 {
		t.Fatal("no fiber ever failed")
	}
	if rep.Repairs+rep.Dropped == 0 {
		t.Fatal("failures never touched a committed tree")
	}
	if rep.EdgeRecoveries == 0 {
		t.Fatal("no fiber ever recovered")
	}
}

// Registry algorithms admit through a residual-capacity snapshot; the run
// must behave like the greedy one (sessions admitted, ledger drained).
func TestRegistryAlgorithmAdmission(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(t, g, 0.15, 200, 29)
	for _, alg := range []string{"alg3", "alg4"} {
		cfg := baseConfig(g)
		cfg.Slots = 200
		cfg.Algorithm = alg
		rep, err := Run(context.Background(), cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if rep.Admitted == 0 {
			t.Fatalf("%s admitted nothing", alg)
		}
		again, err := Run(context.Background(), cfg, reqs)
		if err != nil {
			t.Fatalf("%s rerun: %v", alg, err)
		}
		if again.TraceHash != rep.TraceHash {
			t.Fatalf("%s is not deterministic", alg)
		}
	}
}

func TestWindowsPartitionTheRun(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(t, g, 0.3, 300, 31)
	cfg := baseConfig(g)
	cfg.WindowSlots = 64
	rep, err := Run(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) != 5 { // 4 full windows of 64 + one 44-slot tail
		t.Fatalf("got %d windows, want 5", len(rep.Windows))
	}
	var offered, admitted, rejected, delivered int
	for i, w := range rep.Windows {
		if w.StartSlot != i*64 {
			t.Errorf("window %d starts at %d", i, w.StartSlot)
		}
		offered += w.Offered
		admitted += w.Admitted
		rejected += w.Rejected
		delivered += w.Delivered
	}
	if offered != rep.Offered || admitted != rep.Admitted || rejected != rep.Rejected {
		t.Errorf("window sums (%d, %d, %d) disagree with report (%d, %d, %d)",
			offered, admitted, rejected, rep.Offered, rep.Admitted, rep.Rejected)
	}
	if int64(delivered) != rep.Delivered {
		t.Errorf("windows deliver %d, report %d", delivered, rep.Delivered)
	}
}

func TestBadConfig(t *testing.T) {
	g := testGraph(t)
	good := baseConfig(g)
	reqs := testRequests(t, g, 0.1, 50, 1)
	for name, mutate := range map[string]func(*Config){
		"nil graph":     func(c *Config) { c.Graph = nil },
		"zero slots":    func(c *Config) { c.Slots = 0 },
		"zero ttl":      func(c *Config) { c.MemoryTTL = 0 },
		"floor 1":       func(c *Config) { c.MinFidelity = 1 },
		"neg fail":      func(c *Config) { c.FailProb = -0.5 },
		"fail 1":        func(c *Config) { c.FailProb = 1 },
		"unknown alg":   func(c *Config) { c.Algorithm = "nope" },
		"neg window":    func(c *Config) { c.WindowSlots = -1 },
		"bad fidelity":  func(c *Config) { c.Fid = fidelity.Model{W0: 2, Beta: 0} },
		"bad swap prob": func(c *Config) { c.Params = quantum.Params{Alpha: 1e-4, SwapProb: 2} },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := Run(context.Background(), cfg, reqs); err == nil {
			t.Errorf("%s: Run succeeded", name)
		}
	}
	bad := []sched.Request{{ID: 0, Users: g.Users()[:2], Arrival: -1, Hold: 5}}
	if _, err := Run(context.Background(), good, bad); err == nil {
		t.Error("negative arrival accepted")
	}
	bad[0] = sched.Request{ID: 0, Users: g.Users()[:2], Arrival: 1, Hold: 0}
	if _, err := Run(context.Background(), good, bad); err == nil {
		t.Error("zero hold accepted")
	}
}

func TestContextCancelAborts(t *testing.T) {
	g := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, baseConfig(g), testRequests(t, g, 0.2, 300, 3)); err == nil {
		t.Fatal("cancelled run succeeded")
	}
}

// The look-ahead seeder must not change a run at any parallelism. The
// rejection-heavy stream (a saturating arrival rate on 2-qubit switches)
// drives the abandon path, where the coordinator rejects a request while the
// helper may be seeding its stream; the repair-heavy one (frequent fiber
// failures) drives drops, whose streams are recycled mid-run. Under -race
// this is also the data-race exercise for the helper.
func TestParallelismEquivalence(t *testing.T) {
	tight := testGraph(t)
	tight.SetAllSwitchQubits(2)
	for name, tc := range map[string]struct {
		g     *graph.Graph
		rate  float64
		tweak func(*Config)
	}{
		"rejection-heavy": {tight, 3, func(*Config) {}},
		"repair-heavy": {testGraph(t), 0.4, func(c *Config) {
			c.FailProb, c.RepairSlots = 0.01, 10
		}},
	} {
		t.Run(name, func(t *testing.T) {
			reqs := testRequests(t, tc.g, tc.rate, 300, 41)
			var reps []Report
			for _, par := range []int{1, 2, 4} {
				cfg := baseConfig(tc.g)
				cfg.Parallelism = par
				tc.tweak(&cfg)
				rep, err := Run(context.Background(), cfg, reqs)
				if err != nil {
					t.Fatal(err)
				}
				rep.Work = core.SolveStats{} // pool counters vary with scheduling
				reps = append(reps, rep)
			}
			if name == "rejection-heavy" && reps[0].Rejected < reps[0].Offered/2 {
				t.Fatalf("only %d of %d requests rejected", reps[0].Rejected, reps[0].Offered)
			}
			if name == "repair-heavy" && reps[0].Repairs+reps[0].Dropped < 10 {
				t.Fatalf("only %d repairs and %d drops", reps[0].Repairs, reps[0].Dropped)
			}
			for i, par := range []int{2, 4} {
				if !reflect.DeepEqual(reps[0], reps[i+1]) {
					t.Fatalf("parallelism %d changed the run:\n%s\nvs parallelism 1:\n%s", par, reps[i+1], reps[0])
				}
			}
		})
	}
}

// countdownCtx reports cancellation after its Err has been polled n times,
// which cancels a run at a fixed slot.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// The look-ahead helper must be gone when Run returns, whether the run
// finished, was cancelled mid-run or refused its input.
func TestHelperExitsOnEveryReturn(t *testing.T) {
	g := testGraph(t)
	reqs := testRequests(t, g, 2, 300, 43)
	cfg := baseConfig(g)
	cfg.Parallelism = 2
	bad := append([]sched.Request(nil), reqs...)
	bad[len(bad)-1].Hold = 0
	for name, run := range map[string]func() error{
		"normal": func() error {
			_, err := Run(context.Background(), cfg, reqs)
			return err
		},
		"cancel": func() error {
			if _, err := Run(&countdownCtx{Context: context.Background(), n: 450}, cfg, reqs); err == nil {
				t.Error("cancelled run succeeded")
			}
			return nil
		},
		"bad request": func() error {
			if _, err := Run(context.Background(), cfg, bad); err == nil {
				t.Error("zero hold accepted")
			}
			return nil
		},
	} {
		before := runtime.NumGoroutine()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines before Run, %d after", name, before, after)
		}
	}
}

// Recycled session streams rely on Rand.Seed restarting a used generator
// on exactly the stream a fresh rand.NewSource gives.
func TestReseededStreamMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(sessionSeed(5, 3)))
	for i := 0; i < 1000; i++ {
		r.Float64()
	}
	r.Seed(sessionSeed(5, 7))
	fresh := rand.New(rand.NewSource(sessionSeed(5, 7)))
	for i := 0; i < 1000; i++ {
		if a, b := r.Float64(), fresh.Float64(); a != b {
			t.Fatalf("draw %d: reseeded %v, fresh %v", i, a, b)
		}
	}
}
