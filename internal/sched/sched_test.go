package sched

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/muerp/quantumnet/internal/core"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/topology"
)

// bottleneck builds 4 users around one switch that carries exactly one
// channel at a time.
func bottleneck(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5, 4)
	g.AddUser(0, 0)
	g.AddUser(2000, 0)
	g.AddUser(0, 2000)
	g.AddUser(2000, 2000)
	g.AddSwitch(1000, 1000, 2)
	for u := graph.NodeID(0); u < 4; u++ {
		g.MustAddEdge(u, 4, 1500)
	}
	return g
}

func TestSimulateAdmissionAndDeparture(t *testing.T) {
	g := bottleneck(t)
	params := quantum.DefaultParams()
	requests := []Request{
		{ID: 0, Users: []graph.NodeID{0, 1}, Arrival: 0, Hold: 10},
		// Arrives while session 0 holds the switch: rejected.
		{ID: 1, Users: []graph.NodeID{2, 3}, Arrival: 5, Hold: 10},
		// Arrives after session 0 departs at t=10: accepted.
		{ID: 2, Users: []graph.NodeID{2, 3}, Arrival: 11, Hold: 10},
	}
	report, err := Simulate(g, requests, params)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if report.Accepted != 2 || report.Rejected != 1 {
		t.Fatalf("accepted/rejected = %d/%d, want 2/1", report.Accepted, report.Rejected)
	}
	if report.Outcomes[0].Request.ID != 0 || !report.Outcomes[0].Accepted {
		t.Fatalf("outcome 0: %+v", report.Outcomes[0])
	}
	if report.Outcomes[1].Accepted {
		t.Fatalf("contending request was admitted: %+v", report.Outcomes[1])
	}
	if report.Outcomes[1].Reason == "" {
		t.Fatal("rejection carries no reason")
	}
	if !report.Outcomes[2].Accepted {
		t.Fatalf("post-departure request rejected: %+v", report.Outcomes[2])
	}
	if got := report.AcceptanceRatio(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("AcceptanceRatio = %g", got)
	}
	if report.PeakQubitsInUse != 2 {
		t.Fatalf("PeakQubitsInUse = %d, want 2", report.PeakQubitsInUse)
	}
	if report.MeanAcceptedRate() <= 0 {
		t.Fatal("mean accepted rate not positive")
	}
}

func TestSimulateExactDepartureFreesInTime(t *testing.T) {
	g := bottleneck(t)
	requests := []Request{
		{ID: 0, Users: []graph.NodeID{0, 1}, Arrival: 0, Hold: 5},
		{ID: 1, Users: []graph.NodeID{2, 3}, Arrival: 5, Hold: 5}, // departs exactly at arrival
	}
	report, err := Simulate(g, requests, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2 (departure at t=5 frees the switch)", report.Accepted)
	}
}

func TestSimulateOrdersByArrival(t *testing.T) {
	g := bottleneck(t)
	// Given out of order; the t=0 one must win the switch.
	requests := []Request{
		{ID: 1, Users: []graph.NodeID{2, 3}, Arrival: 3, Hold: 100},
		{ID: 0, Users: []graph.NodeID{0, 1}, Arrival: 0, Hold: 100},
	}
	report, err := Simulate(g, requests, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Outcomes[0].Accepted || report.Outcomes[0].Request.ID != 0 {
		t.Fatalf("first outcome: %+v", report.Outcomes[0])
	}
	if report.Outcomes[1].Accepted {
		t.Fatal("later arrival won the switch")
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	g := bottleneck(t)
	p := quantum.DefaultParams()
	tests := []struct {
		name string
		reqs []Request
	}{
		{"empty", nil},
		{"one user", []Request{{ID: 0, Users: []graph.NodeID{0}, Arrival: 0, Hold: 1}}},
		{"zero hold", []Request{{ID: 0, Users: []graph.NodeID{0, 1}, Arrival: 0, Hold: 0}}},
		{"nan arrival", []Request{{ID: 0, Users: []graph.NodeID{0, 1}, Arrival: math.NaN(), Hold: 1}}},
		{"switch as user", []Request{{ID: 0, Users: []graph.NodeID{0, 4}, Arrival: 0, Hold: 1}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Simulate(g, tc.reqs, p); err == nil {
				t.Fatal("bad input accepted")
			}
		})
	}
}

func TestWorkloadGenerate(t *testing.T) {
	cfg := topology.Default()
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultWorkload()
	reqs, err := w.Generate(g, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(reqs) != w.Requests {
		t.Fatalf("%d requests, want %d", len(reqs), w.Requests)
	}
	prev := 0.0
	for i, r := range reqs {
		if r.Arrival < prev {
			t.Fatalf("request %d arrives before its predecessor", i)
		}
		prev = r.Arrival
		if len(r.Users) < w.MinUsers || len(r.Users) > w.MaxUsers {
			t.Fatalf("request %d has %d users", i, len(r.Users))
		}
		seen := map[graph.NodeID]bool{}
		for _, u := range r.Users {
			if seen[u] {
				t.Fatalf("request %d repeats user %d", i, u)
			}
			seen[u] = true
			if g.Node(u).Kind != graph.KindUser {
				t.Fatalf("request %d contains non-user %d", i, u)
			}
		}
		if r.Hold <= 0 {
			t.Fatalf("request %d hold %g", i, r.Hold)
		}
	}
}

func TestWorkloadGenerateRejects(t *testing.T) {
	cfg := topology.Default()
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	bad := []Workload{
		{Requests: 0, MeanInterarrival: 1, MeanHold: 1, MinUsers: 2, MaxUsers: 3},
		{Requests: 5, MeanInterarrival: 1, MeanHold: 1, MinUsers: 1, MaxUsers: 3},
		{Requests: 5, MeanInterarrival: 1, MeanHold: 1, MinUsers: 2, MaxUsers: 99},
		{Requests: 5, MeanInterarrival: 0, MeanHold: 1, MinUsers: 2, MaxUsers: 3},
	}
	for i, w := range bad {
		if _, err := w.Generate(g, rand.New(rand.NewSource(3))); err == nil {
			t.Errorf("workload %d accepted", i)
		}
	}
	if _, err := DefaultWorkload().Generate(g, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

// TestQuickSchedulerConservation: on random workloads over random networks,
// the ledger balances — after every session departs, capacity is fully
// restored (checked indirectly: a final all-users probe behaves exactly as
// on a fresh network), and accepted+rejected == total.
func TestQuickSchedulerConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := topology.Default()
		cfg.Users = 6
		cfg.Switches = 15
		g, err := topology.Generate(cfg, rng)
		if err != nil {
			return false
		}
		w := Workload{
			Requests:         1 + rng.Intn(40),
			MeanInterarrival: 0.5 + rng.Float64(),
			MeanHold:         0.5 + rng.Float64()*4,
			MinUsers:         2,
			MaxUsers:         4,
		}
		reqs, err := w.Generate(g, rng)
		if err != nil {
			t.Log(err)
			return false
		}
		report, err := Simulate(g, reqs, quantum.DefaultParams())
		if err != nil {
			t.Log(err)
			return false
		}
		if report.Accepted+report.Rejected != len(reqs) {
			return false
		}
		if len(report.Outcomes) != len(reqs) {
			return false
		}
		// A lone request long after everything departed must be admitted
		// exactly as on a fresh network (full capacity restored).
		last := reqs[len(reqs)-1].Arrival + 1e9
		probe := []Request{{ID: 9999, Users: g.Users()[:2], Arrival: last, Hold: 1}}
		withHistory, err := Simulate(g, append(reqs, probe...), quantum.DefaultParams())
		if err != nil {
			t.Log(err)
			return false
		}
		fresh, err := Simulate(g, probe, quantum.DefaultParams())
		if err != nil {
			t.Log(err)
			return false
		}
		histOutcome := withHistory.Outcomes[len(withHistory.Outcomes)-1]
		freshOutcome := fresh.Outcomes[0]
		return histOutcome.Accepted == freshOutcome.Accepted &&
			math.Abs(histOutcome.Rate-freshOutcome.Rate) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateInfeasibleSessionLeavesNoResidue(t *testing.T) {
	// A request whose users include an unreachable one is rejected with a
	// clean rollback; the next request sees full capacity.
	g := bottleneck(t)
	iso := g.AddUser(9000, 9000)
	requests := []Request{
		{ID: 0, Users: []graph.NodeID{0, 1, iso}, Arrival: 0, Hold: 100},
		{ID: 1, Users: []graph.NodeID{0, 1}, Arrival: 1, Hold: 1},
	}
	report, err := Simulate(g, requests, quantum.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if report.Outcomes[0].Accepted {
		t.Fatal("unreachable-user session admitted")
	}
	if !report.Outcomes[1].Accepted {
		t.Fatal("rollback failed: follow-up session rejected")
	}
	if errors.Is(err, ErrBadRequest) {
		t.Fatal("infeasibility misreported as bad request")
	}
}

// TestSimulateDistinguishesErrorsFromRejections pins the admission error
// contract: infeasibility counts as a rejection; real solver errors (here,
// a user set naming a switch, which fails problem construction) and context
// cancellation propagate instead of being silently absorbed into the
// rejected count.
func TestSimulateDistinguishesErrorsFromRejections(t *testing.T) {
	g := bottleneck(t)
	params := quantum.DefaultParams()

	// Infeasible request → rejection, not an error.
	report, err := Simulate(g, []Request{
		{ID: 0, Users: []graph.NodeID{0, 1}, Arrival: 0, Hold: 10},
		{ID: 1, Users: []graph.NodeID{2, 3}, Arrival: 1, Hold: 10},
	}, params)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if report.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", report.Rejected)
	}

	// Node 4 is a switch: problem construction fails. That is a caller
	// error and must propagate, not count as a rejection.
	_, err = Simulate(g, []Request{
		{ID: 0, Users: []graph.NodeID{0, 4}, Arrival: 0, Hold: 10},
	}, params)
	if err == nil {
		t.Fatal("switch-as-user request did not propagate an error")
	}
	if errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("construction failure misclassified as infeasibility: %v", err)
	}
}

// TestSimulateBadRequestErrorText pins the error a malformed request
// aborts the run with, whether it arrives first or after admitted ones, and
// the error of invalid physical parameters.
func TestSimulateBadRequestErrorText(t *testing.T) {
	g := bottleneck(t)
	good := Request{ID: 7, Users: []graph.NodeID{0, 1}, Arrival: 0, Hold: 10}
	bad := Request{ID: 3, Users: []graph.NodeID{2, 4}, Arrival: 1, Hold: 10}
	badParams := quantum.DefaultParams()
	badParams.SwapProb = 2
	for _, tc := range []struct {
		reqs   []Request
		params quantum.Params
		want   string
	}{
		{[]Request{bad}, quantum.DefaultParams(), "sched: request 3: core: user set entry is not a user node: node 4"},
		{[]Request{good, bad}, quantum.DefaultParams(), "sched: request 3: core: user set entry is not a user node: node 4"},
		{[]Request{bad, good}, badParams, "sched: request 7: quantum: invalid physical parameters: swap probability 2 must be in (0, 1]"},
	} {
		_, err := Simulate(g, tc.reqs, tc.params)
		if err == nil || err.Error() != tc.want {
			t.Errorf("error %v, want %q", err, tc.want)
		}
	}
}

func TestSimulateContextCancellationPropagates(t *testing.T) {
	g := bottleneck(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateContext(ctx, g, []Request{
		{ID: 0, Users: []graph.NodeID{0, 1}, Arrival: 0, Hold: 10},
	}, quantum.DefaultParams())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simulate error = %v, want context.Canceled", err)
	}
}

func TestReportSummaryAndJSON(t *testing.T) {
	g := bottleneck(t)
	report, err := Simulate(g, []Request{
		{ID: 0, Users: []graph.NodeID{0, 1}, Arrival: 0, Hold: 10},
		{ID: 1, Users: []graph.NodeID{2, 3}, Arrival: 1, Hold: 10},
		{ID: 2, Users: []graph.NodeID{2, 3}, Arrival: 20, Hold: 5},
	}, quantum.DefaultParams())
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	sum := report.Summary()
	if sum.Sessions != 3 || sum.Accepted != 2 || sum.Rejected != 1 {
		t.Fatalf("summary counts: %+v", sum)
	}
	if sum.Work.DijkstraRuns == 0 || sum.Work != report.Work {
		t.Fatalf("summary work counters not embedded: %+v", sum.Work)
	}
	text := report.String()
	for _, want := range []string{
		"sessions:          3",
		"accepted:          2",
		"rejected:          1",
		"acceptance ratio:  0.667",
		"peak qubits held:  2",
		"solve work:        dijkstra=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("String() missing %q:\n%s", want, text)
		}
	}

	blob, err := json.Marshal(report)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	var decoded Summary
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("unmarshal summary: %v", err)
	}
	if decoded != sum {
		t.Fatalf("JSON round trip: %+v != %+v", decoded, sum)
	}
	if !strings.Contains(string(blob), `"dijkstra_runs"`) {
		t.Fatalf("SolveStats JSON tags missing: %s", blob)
	}
}
