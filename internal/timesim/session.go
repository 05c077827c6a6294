package timesim

import (
	"math"
	"math/rand"

	"github.com/muerp/quantumnet/internal/fidelity"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/purify"
	"github.com/muerp/quantumnet/internal/quantum"
)

// sessCounters accumulates one session's dynamics. Merged into the Report
// (and the trace hash) when the session leaves.
type sessCounters struct {
	linkAttempts    int64
	linkSuccesses   int64
	swapAttempts    int64
	swapSuccesses   int64
	channelPairs    int64
	purifyAttempts  int64
	purifySuccesses int64
	decoheredLinks  int64
	decoheredPairs  int64
	delivered       int64
	sumFidelity     float64
}

// chanState is the live entanglement state of one routed channel: one
// stored pair per fiber link, plus at most one distilled end-to-end pair
// held in the endpoint memories.
type chanState struct {
	// nodes is the channel path (aliases the committed tree's channel).
	nodes []graph.NodeID
	// lengths holds the per-link fiber lengths.
	lengths []float64
	// linkW/linkAge track the held link-level pairs; linkW == 0 means the
	// link has no entanglement this slot.
	linkW   []float64
	linkAge []int
	// pairW/pairAge track the stored end-to-end channel pair (0 = none);
	// ready marks it as having met the fidelity floor.
	pairW   float64
	pairAge int
	ready   bool
}

// session is one admitted request's live state. After admission a session
// is touched only by its own advance calls (own RNG, own counters), so the
// order in which sessions advance within a slot never matters.
type session struct {
	id         int
	users      []graph.NodeID
	tree       quantum.Tree
	departSlot int
	rng        *rand.Rand
	chans      []*chanState
	ct         sessCounters
	// deliveredThisSlot feeds the per-slot window trace; reset each slot by
	// the coordinator.
	deliveredThisSlot int
}

// newChanState reads the channel's link lengths off g. g must contain every
// fiber the path uses (the caller routes on the degraded graph).
func newChanState(g *graph.Graph, nodes []graph.NodeID) *chanState {
	c := &chanState{
		nodes:   nodes,
		lengths: make([]float64, len(nodes)-1),
		linkW:   make([]float64, len(nodes)-1),
		linkAge: make([]int, len(nodes)-1),
	}
	for i := 0; i+1 < len(nodes); i++ {
		e, ok := g.EdgeBetween(nodes[i], nodes[i+1])
		if !ok {
			panic("timesim: committed channel uses a missing fiber")
		}
		c.lengths[i] = e.Length
	}
	return c
}

// rebuildChans installs a repaired tree: channels whose path survived keep
// their stored entanglement; replaced channels start cold.
func (s *session) rebuildChans(g *graph.Graph, tree quantum.Tree) {
	old := make(map[string]*chanState, len(s.chans))
	for _, c := range s.chans {
		old[pathKey(c.nodes)] = c
	}
	chans := make([]*chanState, 0, len(tree.Channels))
	for _, ch := range tree.Channels {
		if prev, ok := old[pathKey(ch.Nodes)]; ok {
			prev.nodes = ch.Nodes
			chans = append(chans, prev)
			continue
		}
		chans = append(chans, newChanState(g, ch.Nodes))
	}
	s.tree = tree
	s.chans = chans
}

func pathKey(nodes []graph.NodeID) string {
	b := make([]byte, 0, len(nodes)*8)
	for _, n := range nodes {
		v := uint64(n)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

// advance runs one slot of entanglement dynamics for the session:
// age-and-expire, link generation, swap chains, purification, delivery.
func (s *session) advance(params quantum.Params, fid fidelity.Model, ttl int, minFidelity float64) {
	for _, c := range s.chans {
		s.advanceChannel(c, params, fid, ttl, minFidelity)
	}
	// Deliver when every channel holds a ready pair in the same slot.
	for _, c := range s.chans {
		if !c.ready {
			return
		}
	}
	w := 1.0
	for _, c := range s.chans {
		w *= fid.AgeWerner(c.pairW, c.pairAge)
		c.pairW, c.pairAge, c.ready = 0, 0, false
	}
	s.ct.delivered++
	s.ct.sumFidelity += fidelity.WernerToFidelity(w)
	s.deliveredThisSlot++
}

func (s *session) advanceChannel(c *chanState, params quantum.Params, fid fidelity.Model, ttl int, minFidelity float64) {
	// 1. Age every stored entanglement and discard what outlived the
	// memory TTL.
	for i := range c.linkW {
		if c.linkW[i] == 0 {
			continue
		}
		c.linkAge[i]++
		if c.linkAge[i] > ttl {
			c.linkW[i], c.linkAge[i] = 0, 0
			s.ct.decoheredLinks++
		}
	}
	if c.pairW != 0 {
		c.pairAge++
		if c.pairAge > ttl {
			c.pairW, c.pairAge, c.ready = 0, 0, false
			s.ct.decoheredPairs++
		}
	}
	// 2. A ready pair parks the channel: regenerating would waste link
	// attempts the sibling channels still need — holding is the per-slot
	// scheduling decision the floor forces.
	if c.ready {
		return
	}
	// 3. Attempt generation on every bare link.
	held := true
	for i := range c.linkW {
		if c.linkW[i] != 0 {
			continue
		}
		s.ct.linkAttempts++
		if s.rng.Float64() < params.LinkRate(c.lengths[i]) {
			s.ct.linkSuccesses++
			c.linkW[i] = fid.LinkWerner(c.lengths[i])
			c.linkAge[i] = 0
		} else {
			held = false
		}
	}
	if !held {
		return
	}
	// 4. All links held: run the swap chain. Every interior BSM must
	// succeed; the links are consumed either way.
	s.ct.swapAttempts++
	ok := true
	for j := 0; j+2 < len(c.nodes); j++ {
		if s.rng.Float64() >= params.SwapProb {
			ok = false
		}
	}
	raw := 1.0
	for i := range c.linkW {
		if ok {
			raw *= fid.AgeWerner(c.linkW[i], c.linkAge[i])
		}
		c.linkW[i], c.linkAge[i] = 0, 0
	}
	if !ok {
		return
	}
	s.ct.swapSuccesses++
	s.ct.channelPairs++
	s.mergePair(c, fid, raw, minFidelity)
}

// mergePair folds a fresh raw end-to-end pair into the channel's stored
// pair: store it when the memory is empty, otherwise purify the (aged)
// stored pair against it.
func (s *session) mergePair(c *chanState, fid fidelity.Model, raw, minFidelity float64) {
	rawF := fidelity.WernerToFidelity(raw)
	if c.pairW == 0 {
		c.pairW, c.pairAge = raw, 0
		c.ready = minFidelity <= 0 || rawF >= minFidelity
		return
	}
	storedF := fidelity.WernerToFidelity(fid.AgeWerner(c.pairW, c.pairAge))
	// BBPSSW needs both inputs above 1/2: a junk input cannot help, so keep
	// whichever single pair is better and discard the other.
	if storedF <= 0.5 || rawF <= 0.5 {
		if rawF > storedF {
			c.pairW, c.pairAge = raw, 0
			c.ready = minFidelity <= 0 || rawF >= minFidelity
		}
		return
	}
	fOut, pSucc, err := purify.StepPair(storedF, rawF)
	if err != nil {
		// Both inputs were checked to lie in (0.5, 1].
		panic("timesim: purify.StepPair: " + err.Error())
	}
	s.ct.purifyAttempts++
	if s.rng.Float64() >= pSucc {
		// Failed round destroys both pairs.
		c.pairW, c.pairAge, c.ready = 0, 0, false
		return
	}
	s.ct.purifySuccesses++
	c.pairW = fidelity.FidelityToWerner(fOut)
	c.pairAge = 0
	c.ready = minFidelity <= 0 || fOut >= minFidelity
}

// foldCounters mixes the session's final dynamics counters into the trace
// hash in a fixed order.
func (ct sessCounters) fold(h *traceHash) {
	h.fold(uint64(ct.linkAttempts))
	h.fold(uint64(ct.linkSuccesses))
	h.fold(uint64(ct.swapAttempts))
	h.fold(uint64(ct.swapSuccesses))
	h.fold(uint64(ct.channelPairs))
	h.fold(uint64(ct.purifyAttempts))
	h.fold(uint64(ct.purifySuccesses))
	h.fold(uint64(ct.decoheredLinks))
	h.fold(uint64(ct.decoheredPairs))
	h.fold(uint64(ct.delivered))
	h.fold(math.Float64bits(ct.sumFidelity))
}
