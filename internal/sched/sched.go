// Package sched runs the network as a service: entanglement requests
// (multi-user sessions) arrive over time, each holding its routed tree's
// switch qubits for a duration, and an admission controller routes them on
// the *residual* capacity — the dynamic counterpart of the paper's one-shot
// MUERP. It also serves the paper's concurrent multi-group extension: each
// session is one group, and every group's tree shares one qubit ledger.
//
// The model is an offline discrete-event simulation: arrivals are processed
// in time order; a session accepted at time t releases its qubits at
// t + Hold; a request whose users cannot be spanned by the residual
// capacity at its arrival instant is rejected (no queueing — blocked calls
// are cleared, as in classic loss-network analysis).
package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
)

// Request is one entanglement-session request.
type Request struct {
	// ID identifies the request in the report.
	ID int
	// Users is the set to entangle (at least 2).
	Users []graph.NodeID
	// Arrival is the request's arrival time (arbitrary units).
	Arrival float64
	// Hold is how long an accepted session keeps its qubits reserved.
	Hold float64
}

// Outcome records one request's fate.
type Outcome struct {
	Request  Request
	Accepted bool
	// Rate is the session's Eq. 2 entanglement rate when accepted.
	Rate float64
	// Reason explains a rejection.
	Reason string
}

// Report aggregates a whole simulation.
type Report struct {
	Outcomes []Outcome
	Accepted int
	Rejected int
	// PeakQubitsInUse is the maximum number of switch qubits simultaneously
	// reserved at any arrival instant.
	PeakQubitsInUse int
	// Work sums the routing work counters over every admission attempt.
	Work core.SolveStats
}

// AcceptanceRatio returns accepted / total (0 for an empty run).
func (r Report) AcceptanceRatio() float64 {
	total := r.Accepted + r.Rejected
	if total == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(total)
}

// MeanAcceptedRate returns the mean Eq. 2 rate over accepted sessions.
func (r Report) MeanAcceptedRate() float64 {
	sum, n := 0.0, 0
	for _, o := range r.Outcomes {
		if o.Accepted {
			sum += o.Rate
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Summary is the compact, serializable face of an admission run. It is the
// ONE representation of admission results shared across the repo: cmd/qsched
// prints Summary.String(), and the muerpd daemon's /metrics endpoint embeds
// a Summary built from its live counters — neither duplicates the format.
type Summary struct {
	// Sessions counts every decided request (accepted + rejected).
	Sessions int `json:"sessions"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// AcceptanceRatio is Accepted / Sessions (0 for an empty run).
	AcceptanceRatio float64 `json:"acceptance_ratio"`
	// MeanAcceptedRate is the mean Eq. 2 rate over accepted sessions.
	MeanAcceptedRate float64 `json:"mean_accepted_rate"`
	// PeakQubitsInUse is the high-water mark of simultaneously reserved
	// switch qubits.
	PeakQubitsInUse int `json:"peak_qubits_in_use"`
	// Work sums the routing work over every admission attempt.
	Work core.SolveStats `json:"work"`
}

// Summary condenses the report.
func (r Report) Summary() Summary {
	return Summary{
		Sessions:         r.Accepted + r.Rejected,
		Accepted:         r.Accepted,
		Rejected:         r.Rejected,
		AcceptanceRatio:  r.AcceptanceRatio(),
		MeanAcceptedRate: r.MeanAcceptedRate(),
		PeakQubitsInUse:  r.PeakQubitsInUse,
		Work:             r.Work,
	}
}

// String renders the summary as the aligned block cmd/qsched prints.
func (s Summary) String() string {
	return fmt.Sprintf(
		"sessions:          %d\n"+
			"accepted:          %d\n"+
			"rejected:          %d\n"+
			"acceptance ratio:  %.3f\n"+
			"mean session rate: %.4e\n"+
			"peak qubits held:  %d\n"+
			"solve work:        %s\n",
		s.Sessions, s.Accepted, s.Rejected, s.AcceptanceRatio,
		s.MeanAcceptedRate, s.PeakQubitsInUse, s.Work)
}

// String renders the report's summary block; per-request outcomes are not
// included (range Outcomes for those).
func (r Report) String() string { return r.Summary().String() }

// MarshalJSON encodes the report as its Summary — the aggregate view, not
// the per-request outcome list (marshal Outcomes directly if needed).
func (r Report) MarshalJSON() ([]byte, error) { return json.Marshal(r.Summary()) }

// Scheduler errors.
var (
	ErrNoRequests = errors.New("sched: no requests")
	ErrBadRequest = errors.New("sched: invalid request")
)

// Verdict classifies one admission attempt's outcome. It is the ONE
// decision semantics shared by the offline simulator and the online
// daemon's batch decide and cross-region router, which is what lets the
// differential tests compare them decision for decision.
type Verdict int

const (
	// VerdictAccepted: the solve produced a tree and its reservations hold.
	VerdictAccepted Verdict = iota
	// VerdictRejected: genuine infeasibility under residual capacity with a
	// live context — the only outcome that counts as a loss-network block.
	VerdictRejected
	// VerdictAborted: the context ended (a cancelled solve can surface a
	// spurious "unreachable" partial result, so the ctx check wins even when
	// the error also wraps ErrInfeasible) or the solver faulted internally.
	VerdictAborted
)

// Classify maps a routing attempt's (context error, solve error) pair onto
// the shared Verdict space.
func Classify(ctxErr, solveErr error) Verdict {
	switch {
	case solveErr == nil:
		return VerdictAccepted
	case ctxErr != nil:
		return VerdictAborted
	case errors.Is(solveErr, core.ErrInfeasible):
		return VerdictRejected
	default:
		return VerdictAborted
	}
}

// session is one admitted request awaiting departure.
type session struct {
	departAt float64
	tree     quantum.Tree
}

// Simulate runs the admission simulation with background context; see
// SimulateContext.
func Simulate(g *graph.Graph, requests []Request, params quantum.Params) (Report, error) {
	return SimulateContext(context.Background(), g, requests, params)
}

// SimulateContext runs the admission simulation. Requests may be given in
// any order; they are processed by arrival time (ties by ID). The graph is
// not modified. A cancelled ctx aborts between routing steps with its
// error; the per-request routing work is summed into Report.Work.
func SimulateContext(ctx context.Context, g *graph.Graph, requests []Request, params quantum.Params) (Report, error) {
	if g == nil {
		return Report{}, errors.New("sched: nil graph")
	}
	if len(requests) == 0 {
		return Report{}, ErrNoRequests
	}
	for _, req := range requests {
		if len(req.Users) < 2 {
			return Report{}, fmt.Errorf("%w: request %d has %d users", ErrBadRequest, req.ID, len(req.Users))
		}
		if req.Hold <= 0 || math.IsNaN(req.Hold) || math.IsInf(req.Hold, 0) {
			return Report{}, fmt.Errorf("%w: request %d hold %g", ErrBadRequest, req.ID, req.Hold)
		}
		if math.IsNaN(req.Arrival) || math.IsInf(req.Arrival, 0) {
			return Report{}, fmt.Errorf("%w: request %d arrival %g", ErrBadRequest, req.ID, req.Arrival)
		}
	}
	ordered := make([]Request, len(requests))
	copy(ordered, requests)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Arrival != ordered[j].Arrival {
			return ordered[i].Arrival < ordered[j].Arrival
		}
		return ordered[i].ID < ordered[j].ID
	})

	// One template Problem per run: every request's Problem derives from it
	// through WithUsers and shares its search engine. It is built on the
	// first request's users, so a graph or params error reads as that
	// request's, exactly as building the request's own Problem would.
	tmpl, err := core.NewProblem(g, ordered[0].Users, params)
	if err != nil {
		return Report{}, fmt.Errorf("sched: request %d: %w", ordered[0].ID, err)
	}
	led := quantum.NewLedger(g)
	var active []session
	report := Report{}
	for _, req := range ordered {
		// Departures strictly before (or at) this arrival free their qubits.
		active = expireSessions(led, active, req.Arrival)

		prob, err := tmpl.WithUsers(req.Users)
		if err != nil {
			return Report{}, fmt.Errorf("sched: request %d: %w", req.ID, err)
		}
		tree, err := core.BuildGreedyTree(ctx, prob, led, &core.SolveOptions{Stats: &report.Work})
		// Only VerdictRejected (genuine infeasibility, live context) counts
		// as a loss-network block. VerdictAborted — context cancellation,
		// solver/ledger faults — aborts the whole simulation with the error.
		switch Classify(ctx.Err(), err) {
		case VerdictRejected:
			report.Outcomes = append(report.Outcomes, Outcome{
				Request: req, Accepted: false, Reason: err.Error(),
			})
			report.Rejected++
			continue
		case VerdictAborted:
			return Report{}, fmt.Errorf("sched: request %d: %w", req.ID, err)
		}
		active = append(active, session{departAt: req.Arrival + req.Hold, tree: tree})
		report.Outcomes = append(report.Outcomes, Outcome{Request: req, Accepted: true, Rate: tree.Rate()})
		report.Accepted++
		if used := led.UsedQubits(); used > report.PeakQubitsInUse {
			report.PeakQubitsInUse = used
		}
	}
	return report, nil
}

// expireSessions releases every session departing at or before now.
func expireSessions(led *quantum.Ledger, active []session, now float64) []session {
	remaining := active[:0]
	for _, s := range active {
		if s.departAt <= now {
			core.ReleaseTree(led, s.tree)
		} else {
			remaining = append(remaining, s)
		}
	}
	return remaining
}

// Workload parameterizes a random request stream.
type Workload struct {
	// Requests is how many to generate.
	Requests int
	// MeanInterarrival is the exponential inter-arrival mean.
	MeanInterarrival float64
	// MeanHold is the exponential session-duration mean.
	MeanHold float64
	// MinUsers and MaxUsers bound the uniformly drawn session size.
	MinUsers, MaxUsers int
}

// DefaultWorkload returns a moderate-load stream: 100 sessions of 2-4
// users, inter-arrival 1, hold 5.
func DefaultWorkload() Workload {
	return Workload{Requests: 100, MeanInterarrival: 1, MeanHold: 5, MinUsers: 2, MaxUsers: 4}
}

// Generate draws a random request stream over g's user population.
func (w Workload) Generate(g *graph.Graph, rng *rand.Rand) ([]Request, error) {
	users := g.Users()
	if w.Requests <= 0 {
		return nil, fmt.Errorf("%w: %d requests", ErrBadRequest, w.Requests)
	}
	if w.MinUsers < 2 || w.MaxUsers < w.MinUsers {
		return nil, fmt.Errorf("%w: user range [%d, %d]", ErrBadRequest, w.MinUsers, w.MaxUsers)
	}
	if w.MaxUsers > len(users) {
		return nil, fmt.Errorf("%w: sessions of up to %d users on a %d-user network",
			ErrBadRequest, w.MaxUsers, len(users))
	}
	if w.MeanInterarrival <= 0 || w.MeanHold <= 0 {
		return nil, fmt.Errorf("%w: means must be positive", ErrBadRequest)
	}
	if rng == nil {
		return nil, errors.New("sched: nil rng")
	}
	out := make([]Request, 0, w.Requests)
	now := 0.0
	for i := 0; i < w.Requests; i++ {
		now += rng.ExpFloat64() * w.MeanInterarrival
		size := w.MinUsers + rng.Intn(w.MaxUsers-w.MinUsers+1)
		perm := rng.Perm(len(users))
		members := make([]graph.NodeID, size)
		for j := 0; j < size; j++ {
			members[j] = users[perm[j]]
		}
		out = append(out, Request{
			ID:      i,
			Users:   members,
			Arrival: now,
			Hold:    rng.ExpFloat64() * w.MeanHold,
		})
	}
	return out, nil
}
