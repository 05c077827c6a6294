// Package timesim is the discrete-time counterpart of the repo's one-shot
// analytic pipeline: a deterministic slotted engine in the style of Pant et
// al. (arXiv:1708.07142) where link-level entanglements are (re)generated
// every slot with the Eq. 1 per-link success probability, held qubit-memory
// pairs age out after a decoherence TTL measured in slots, fidelity decays
// with age through internal/fidelity's memory model, and BBPSSW
// purification (internal/purify) becomes a per-slot scheduling decision.
//
// Sessions arrive per slot from internal/workload traffic models, are
// admitted on residual capacity with internal/sched verdict semantics,
// and are locally repaired through internal/repair when a fiber failure
// breaks a committed tree. Runs are bit-deterministic for a seed at any
// parallelism: each session advances on its own derived RNG stream, and
// the coordinator alone advances sessions and mutates shared state (the
// qubit ledger, admission, repair). The only other goroutine is an optional
// look-ahead helper that seeds upcoming sessions' RNG streams (streams.go).
package timesim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/fidelity"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/repair"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/solver"
)

// GreedyAlgorithm is the default admission scheme: the shared-capacity
// greedy tree build (Algorithm 4's growth step on the live ledger), exactly
// the rule internal/sched's admission simulation uses.
const GreedyAlgorithm = "greedy"

// ErrBadConfig reports an invalid engine configuration.
var ErrBadConfig = errors.New("timesim: invalid config")

// Config parameterizes one slotted run.
type Config struct {
	// Graph is the network. It is read-only during the run.
	Graph *graph.Graph
	// Params is the rate model; the zero value means quantum.DefaultParams.
	Params quantum.Params
	// Fid is the fidelity model (including the per-slot memory decay
	// Gamma); the zero value means fidelity.DefaultModel.
	Fid fidelity.Model
	// Slots is the simulated horizon.
	Slots int
	// MemoryTTL is the decoherence TTL: a stored pair older than this many
	// slots is discarded.
	MemoryTTL int
	// MinFidelity is the delivery floor: channel pairs below it are held
	// back and purified. Zero disables purification scheduling.
	MinFidelity float64
	// Algorithm selects the admission scheme: GreedyAlgorithm (default) or
	// any internal/solver registry name, solved on residual capacity.
	Algorithm string
	// Seed derives every RNG stream of the run.
	Seed int64
	// FailProb is the per-fiber, per-slot failure probability.
	FailProb float64
	// RepairSlots is how many slots a failed fiber stays down; <= 0 means
	// failures are permanent.
	RepairSlots int
	// Parallelism > 1 runs one look-ahead goroutine beside the coordinator
	// that seeds upcoming sessions' RNG streams; 1 runs everything on the
	// coordinator. <= 0 means runtime.GOMAXPROCS(0). Results are identical
	// at any value.
	Parallelism int
	// WindowSlots > 0 emits a Report.Windows bucket every that many slots.
	WindowSlots int
}

func (cfg *Config) normalize() error {
	if cfg.Graph == nil {
		return fmt.Errorf("%w: nil graph", ErrBadConfig)
	}
	if cfg.Params == (quantum.Params{}) {
		cfg.Params = quantum.DefaultParams()
	}
	if cfg.Fid == (fidelity.Model{}) {
		cfg.Fid = fidelity.DefaultModel()
	}
	if err := cfg.Params.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if err := cfg.Fid.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.Slots <= 0 {
		return fmt.Errorf("%w: %d slots", ErrBadConfig, cfg.Slots)
	}
	if cfg.MemoryTTL < 1 {
		return fmt.Errorf("%w: memory TTL %d must be >= 1 slot", ErrBadConfig, cfg.MemoryTTL)
	}
	if cfg.MinFidelity < 0 || cfg.MinFidelity >= 1 || math.IsNaN(cfg.MinFidelity) {
		return fmt.Errorf("%w: fidelity floor %g must be in [0, 1)", ErrBadConfig, cfg.MinFidelity)
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = GreedyAlgorithm
	}
	if cfg.Algorithm != GreedyAlgorithm {
		if _, err := solver.Get(cfg.Algorithm); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	if cfg.FailProb < 0 || cfg.FailProb >= 1 || math.IsNaN(cfg.FailProb) {
		return fmt.Errorf("%w: fail probability %g must be in [0, 1)", ErrBadConfig, cfg.FailProb)
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.WindowSlots < 0 {
		return fmt.Errorf("%w: window of %d slots", ErrBadConfig, cfg.WindowSlots)
	}
	return nil
}

// traceHash is FNV-1a over 64-bit words: cheap, order-sensitive and stable
// across runs, which is all a golden trace needs.
type traceHash struct{ h uint64 }

func newTraceHash() *traceHash { return &traceHash{h: 14695981039346656037} }

func (t *traceHash) fold(v uint64) {
	for i := 0; i < 8; i++ {
		t.h ^= v & 0xff
		t.h *= 1099511628211
		v >>= 8
	}
}

// engine is the per-run state. All fields are coordinator-owned; sessions
// only ever touch themselves.
type engine struct {
	cfg   Config
	base  *graph.Graph
	edges []graph.Edge // base's fibers, indexed by EdgeID
	cur   *graph.Graph // base minus the currently failed fibers
	// tmpl is the greedy scheme's template Problem on cur, whose search
	// engine every admission shares; nil until the first admission on cur.
	tmpl    *core.Problem
	led     *quantum.Ledger
	ctrl    *rand.Rand // fiber failures
	admit   *rand.Rand // RNG-consuming admission solvers
	streams *streams   // session RNG streams
	active  []*session
	down    []int // per base EdgeID: recovery slot of a failed fiber, 0 = up
	hash    *traceHash
	rep     Report
	win     Window
}

// Run executes the slotted simulation over the request stream. Request
// arrivals and holds are in slot units (fractional arrivals land in slot
// floor(Arrival); holds round up, minimum one slot). Requests arriving at
// or after Slots are ignored.
func Run(ctx context.Context, cfg Config, reqs []sched.Request) (Report, error) {
	if err := cfg.normalize(); err != nil {
		return Report{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ordered := make([]sched.Request, len(reqs))
	copy(ordered, reqs)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Arrival != ordered[j].Arrival {
			return ordered[i].Arrival < ordered[j].Arrival
		}
		return ordered[i].ID < ordered[j].ID
	})
	for _, r := range ordered {
		if r.Arrival < 0 || math.IsNaN(r.Arrival) {
			return Report{}, fmt.Errorf("%w: request %d arrival %g", ErrBadConfig, r.ID, r.Arrival)
		}
		if !(r.Hold > 0) || math.IsInf(r.Hold, 1) {
			return Report{}, fmt.Errorf("%w: request %d hold %g", ErrBadConfig, r.ID, r.Hold)
		}
	}

	e := &engine{
		cfg:   cfg,
		base:  cfg.Graph,
		edges: cfg.Graph.Edges(),
		cur:   cfg.Graph,
		led:   quantum.NewLedger(cfg.Graph),
		ctrl:  seedStream(cfg.Seed, 1),
		admit: seedStream(cfg.Seed, 2),
		down:  make([]int, cfg.Graph.NumEdges()),
		hash:  newTraceHash(),
		rep:   Report{Slots: cfg.Slots},
	}
	e.streams = newStreams(cfg.Seed, ordered, cfg.Parallelism > 1)
	defer e.streams.stop()

	next := 0
	for t := 0; t < cfg.Slots; t++ {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		e.expire(t)
		if cfg.FailProb > 0 {
			if err := e.fiberEvents(ctx, t); err != nil {
				return Report{}, err
			}
		}
		for next < len(ordered) && int(ordered[next].Arrival) <= t {
			if err := e.admitRequest(ctx, t, ordered[next]); err != nil {
				return Report{}, err
			}
			next++
		}
		if len(e.active) > e.rep.PeakActive {
			e.rep.PeakActive = len(e.active)
		}
		delivered := 0
		for _, s := range e.active {
			s.advance(cfg.Params, cfg.Fid, cfg.MemoryTTL, cfg.MinFidelity)
			delivered += s.deliveredThisSlot
			s.deliveredThisSlot = 0
		}
		if delivered > 0 {
			e.hash.fold(uint64(t))
			e.hash.fold(uint64(delivered))
		}
		e.win.Delivered += delivered
		if cfg.WindowSlots > 0 && (t+1)%cfg.WindowSlots == 0 {
			e.flushWindow(t + 1 - cfg.WindowSlots)
		}
	}
	if cfg.WindowSlots > 0 && cfg.Slots%cfg.WindowSlots != 0 {
		e.flushWindow(cfg.Slots - cfg.Slots%cfg.WindowSlots)
	}

	// Tear down the survivors and check the ledger drained to zero — a
	// leak here means a reserve/release pairing bug, not a user error.
	for _, s := range e.active {
		core.ReleaseTree(e.led, s.tree)
		e.finalize(s)
	}
	e.active = nil
	if used := e.led.UsedQubits(); used != 0 {
		return Report{}, fmt.Errorf("timesim: internal: %d qubits still reserved after teardown", used)
	}
	e.rep.TraceHash = e.hash.h
	return e.rep, nil
}

func (e *engine) flushWindow(start int) {
	e.win.StartSlot = start
	e.win.ActiveAtEnd = len(e.active)
	e.rep.Windows = append(e.rep.Windows, e.win)
	e.win = Window{}
}

// finalize folds a departing session's dynamics into the report and hash
// and recycles its RNG stream.
func (e *engine) finalize(s *session) {
	e.streams.recycle(s.rng)
	s.rng = nil
	ct := s.ct
	e.rep.LinkAttempts += ct.linkAttempts
	e.rep.LinkSuccesses += ct.linkSuccesses
	e.rep.SwapAttempts += ct.swapAttempts
	e.rep.SwapSuccesses += ct.swapSuccesses
	e.rep.ChannelPairs += ct.channelPairs
	e.rep.PurifyAttempts += ct.purifyAttempts
	e.rep.PurifySuccesses += ct.purifySuccesses
	e.rep.DecoheredLinks += ct.decoheredLinks
	e.rep.DecoheredPairs += ct.decoheredPairs
	e.rep.Delivered += ct.delivered
	e.rep.SumFidelity += ct.sumFidelity
	e.hash.fold(uint64(s.id))
	ct.fold(e.hash)
}

// expire releases sessions whose hold ended before slot t.
func (e *engine) expire(t int) {
	kept := e.active[:0]
	for _, s := range e.active {
		if s.departSlot <= t {
			core.ReleaseTree(e.led, s.tree)
			e.rep.Completed++
			e.finalize(s)
			continue
		}
		kept = append(kept, s)
	}
	e.active = kept
}

// fiberEvents recovers due fibers, samples new failures, and repairs (or
// drops) every committed tree a newly failed fiber broke. Failures are
// sampled in edge-ID order from the control stream.
func (e *engine) fiberEvents(ctx context.Context, t int) error {
	changed := false
	for _, edge := range e.edges {
		if until := e.down[edge.ID]; until != 0 {
			if until > t {
				continue
			}
			e.down[edge.ID] = 0
			e.rep.EdgeRecoveries++
			changed = true
		}
		if e.ctrl.Float64() < e.cfg.FailProb {
			until := math.MaxInt
			if e.cfg.RepairSlots > 0 {
				until = t + e.cfg.RepairSlots
			}
			e.down[edge.ID] = until
			e.rep.EdgeFailures++
			e.hash.fold(uint64(t))
			e.hash.fold(uint64(edge.ID))
			changed = true
		}
	}
	if !changed {
		return nil
	}
	var ids []graph.EdgeID
	var downEdges []graph.Edge
	for _, edge := range e.edges {
		if e.down[edge.ID] != 0 {
			ids = append(ids, edge.ID)
			downEdges = append(downEdges, edge)
		}
	}
	e.cur = e.base.WithoutEdges(ids)
	e.tmpl = nil

	kept := e.active[:0]
	for _, s := range e.active {
		if !e.treeBroken(s.tree) {
			kept = append(kept, s)
			continue
		}
		core.ReleaseTree(e.led, s.tree)
		sol := &core.Solution{Tree: s.tree, Algorithm: "slot", MeasurementFactor: 1}
		out, err := repair.AfterEdgeFailuresResidual(ctx, e.led, e.cur, s.users, sol, downEdges, e.cfg.Params)
		switch {
		case err == nil:
			e.rep.Repairs++
			e.rep.ReroutedChannels += out.Rerouted
			e.hash.fold(uint64(s.id))
			e.hash.fold(uint64(out.Rerouted))
			s.rebuildChans(e.cur, out.Solution.Tree)
			kept = append(kept, s)
		case errors.Is(err, core.ErrInfeasible) || errors.Is(err, quantum.ErrInteriorQubits):
			e.rep.Dropped++
			e.win.Dropped++
			e.hash.fold(uint64(s.id))
			e.hash.fold(math.MaxUint64)
			e.finalize(s)
		default:
			return fmt.Errorf("timesim: repair of session %d: %w", s.id, err)
		}
	}
	e.active = kept
	return nil
}

// treeBroken reports whether any hop of the tree runs over a failed fiber.
func (e *engine) treeBroken(tree quantum.Tree) bool {
	for _, ch := range tree.Channels {
		for i := 0; i+1 < len(ch.Nodes); i++ {
			if edge, ok := e.base.EdgeBetween(ch.Nodes[i], ch.Nodes[i+1]); ok && e.down[edge.ID] != 0 {
				return true
			}
		}
	}
	return false
}

// admitRequest routes one arrival on residual capacity and applies the
// shared sched verdict semantics: accepted sessions hold reservations until
// departure, infeasibility rejects (blocked calls cleared), a dead context
// aborts the run.
func (e *engine) admitRequest(ctx context.Context, t int, req sched.Request) error {
	e.rep.Offered++
	e.win.Offered++
	tree, err := e.route(ctx, req)
	switch sched.Classify(ctx.Err(), err) {
	case sched.VerdictAccepted:
	case sched.VerdictRejected:
		e.streams.skip()
		e.rep.Rejected++
		e.win.Rejected++
		e.hash.fold(uint64(req.ID))
		e.hash.fold(0)
		return nil
	default:
		return fmt.Errorf("timesim: admission of request %d: %w", req.ID, err)
	}
	hold := int(math.Ceil(req.Hold))
	if hold < 1 {
		hold = 1
	}
	s := &session{
		id:         req.ID,
		users:      req.Users,
		departSlot: t + hold,
		rng:        e.streams.take(),
	}
	s.rebuildChans(e.cur, tree)
	e.active = append(e.active, s)
	e.rep.Admitted++
	e.win.Admitted++
	e.hash.fold(uint64(req.ID))
	e.hash.fold(uint64(len(tree.Channels)))
	return nil
}

// route solves the request on the degraded graph's residual capacity. The
// greedy scheme builds directly against the shared ledger; registry schemes
// solve a residual-capacity snapshot and then reserve their tree.
func (e *engine) route(ctx context.Context, req sched.Request) (quantum.Tree, error) {
	if e.cfg.Algorithm == GreedyAlgorithm {
		var prob *core.Problem
		var err error
		if e.tmpl != nil {
			prob, err = e.tmpl.WithUsers(req.Users)
		} else if prob, err = core.NewProblem(e.cur, req.Users, e.cfg.Params); err == nil {
			e.tmpl = prob
		}
		if err != nil {
			return quantum.Tree{}, fmt.Errorf("%w: request %d: %v", core.ErrInfeasible, req.ID, err)
		}
		return core.BuildGreedyTree(ctx, prob, e.led, &core.SolveOptions{Stats: &e.rep.Work})
	}
	entry, err := solver.Get(e.cfg.Algorithm)
	if err != nil {
		return quantum.Tree{}, err
	}
	resid := e.cur.Clone()
	for _, sw := range resid.Switches() {
		resid.SetQubits(sw, e.led.Free(sw))
	}
	prob, err := core.NewProblem(resid, req.Users, e.cfg.Params)
	if err != nil {
		return quantum.Tree{}, fmt.Errorf("%w: request %d: %v", core.ErrInfeasible, req.ID, err)
	}
	opts := &core.SolveOptions{Stats: &e.rep.Work}
	if entry.ConsumesRNG {
		opts.RNG = e.admit
	}
	sol, err := entry.Solve(ctx, prob, opts)
	if err != nil {
		return quantum.Tree{}, err
	}
	for i, ch := range sol.Tree.Channels {
		if err := e.led.Reserve(ch.Nodes); err != nil {
			for _, prev := range sol.Tree.Channels[:i] {
				e.led.Release(prev.Nodes)
			}
			return quantum.Tree{}, fmt.Errorf("timesim: internal: residual solve overcommitted: %w", err)
		}
	}
	return sol.Tree, nil
}
