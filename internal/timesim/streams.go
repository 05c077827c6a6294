package timesim

import (
	"math/rand"
	"sync/atomic"

	"github.com/muerp/quantumnet/internal/sched"
)

// streamSeed derives the seed of stream i of the run seed (splitmix64), so
// the control, admission and per-session RNGs never share state.
func streamSeed(seed int64, i int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// seedStream returns stream i of the run seed.
func seedStream(seed int64, i int64) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, i)))
}

// sessionSeed reserves streams 16+ for sessions.
func sessionSeed(seed int64, id int) int64 { return streamSeed(seed, 16+int64(id)) }

// liveHelpers counts look-ahead helpers that have started and not yet
// exited. A helper leaves the count before it closes exited, so once stop
// returns the count no longer includes that helper; the tests read it to
// check that every Run return stops its helper.
var liveHelpers atomic.Int64

// seedAheadWindow is how many requests past the coordinator's position the
// look-ahead helper may seed.
const seedAheadWindow = 8

// Look-ahead slot states. A slot moves idle -> seeding -> ready under the
// helper; the coordinator claims it from any state, taking the stream only
// when it was ready.
const (
	slotIdle int32 = iota
	slotSeeding
	slotReady
	slotClaimed
)

// streamSlot is one offered request's place in the look-ahead: rng is
// written by the helper before it publishes slotReady, and read by the
// coordinator only after it claims a ready slot.
type streamSlot struct {
	state atomic.Int32
	rng   *rand.Rand
}

// streams hands every offered request its session RNG stream, in the order
// the coordinator offers them. Seeding a math/rand source costs thousands
// of LCG steps, so two things keep it off the coordinator's path:
//
//   - the streams of finalized sessions and rejected requests are recycled
//     through Rand.Seed, which yields the same stream as a fresh
//     rand.NewSource and allocates nothing;
//   - with a helper (Parallelism > 1), one goroutine seeds the streams of
//     upcoming requests, at most seedAheadWindow past the coordinator.
//
// The coordinator never waits for the helper: a slot the helper has not
// finished is claimed and seeded inline (the helper then recycles its
// copy), and a rejected request's slot is abandoned whatever its state.
// Which side seeds a stream never changes its value, so runs are
// bit-identical with and without the helper.
type streams struct {
	seed  int64
	reqs  []sched.Request // the run's requests in offer order
	next  int             // coordinator: index of the next offered request
	spare []*rand.Rand    // coordinator: recycled streams

	// The helper's side; slots is nil when there is no helper.
	slots  []streamSlot
	pos    atomic.Int64    // mirrors next for the helper
	wake   chan struct{}   // nudges a helper parked on the window
	free   chan *rand.Rand // recycled streams passed to the helper
	done   chan struct{}   // closed by stop
	exited chan struct{}   // closed by the helper on exit
}

// newStreams returns the stream source for reqs, starting the look-ahead
// helper when helper is set. The caller must stop it on every return path.
func newStreams(seed int64, reqs []sched.Request, helper bool) *streams {
	st := &streams{seed: seed, reqs: reqs}
	if helper && len(reqs) > 0 {
		st.slots = make([]streamSlot, len(reqs))
		st.wake = make(chan struct{}, 1)
		// Two windows of recycled streams cover what the helper seeds
		// before the coordinator recycles more; any surplus stays in spare.
		st.free = make(chan *rand.Rand, 2*seedAheadWindow)
		st.done = make(chan struct{})
		st.exited = make(chan struct{})
		liveHelpers.Add(1)
		go st.seedAhead()
	}
	return st
}

// stop ends the helper, if any, and waits for it to exit.
func (st *streams) stop() {
	if st.slots != nil {
		close(st.done)
		<-st.exited
	}
}

// take returns the seeded stream of the next offered request, which was
// admitted.
func (st *streams) take() *rand.Rand {
	k := st.next
	st.advance()
	if st.slots != nil {
		sl := &st.slots[k]
		if sl.state.Swap(slotClaimed) == slotReady {
			r := sl.rng
			sl.rng = nil
			return r
		}
	}
	var r *rand.Rand
	if n := len(st.spare); n > 0 {
		r = st.spare[n-1]
		st.spare = st.spare[:n-1]
	} else {
		select {
		case r = <-st.free:
		default:
			return rand.New(rand.NewSource(sessionSeed(st.seed, st.reqs[k].ID)))
		}
	}
	r.Seed(sessionSeed(st.seed, st.reqs[k].ID))
	return r
}

// skip abandons the next offered request's stream: it was rejected.
func (st *streams) skip() {
	k := st.next
	st.advance()
	if st.slots != nil {
		sl := &st.slots[k]
		if sl.state.Swap(slotClaimed) == slotReady {
			st.recycle(sl.rng)
			sl.rng = nil
		}
	}
}

// recycle returns a stream no session uses any more, preferring the
// helper, which does most of the seeding.
func (st *streams) recycle(r *rand.Rand) {
	if st.slots != nil {
		select {
		case st.free <- r:
			return
		default:
		}
	}
	st.spare = append(st.spare, r)
}

// advance moves the coordinator past the next request and nudges the
// helper, without blocking.
func (st *streams) advance() {
	st.next++
	if st.slots != nil {
		st.pos.Store(int64(st.next))
		select {
		case st.wake <- struct{}{}:
		default:
		}
	}
}

// seedAhead is the look-ahead helper: it seeds the requests' streams in
// offer order, parking while it is seedAheadWindow past the coordinator,
// and skips every slot the coordinator claimed first.
func (st *streams) seedAhead() {
	defer func() {
		liveHelpers.Add(-1)
		close(st.exited)
	}()
	for j := range st.slots {
		for int64(j) >= st.pos.Load()+seedAheadWindow {
			select {
			case <-st.wake:
			case <-st.done:
				return
			}
		}
		select {
		case <-st.done:
			return
		default:
		}
		sl := &st.slots[j]
		if !sl.state.CompareAndSwap(slotIdle, slotSeeding) {
			continue
		}
		s := sessionSeed(st.seed, st.reqs[j].ID)
		var r *rand.Rand
		select {
		case r = <-st.free:
			r.Seed(s)
		default:
			r = rand.New(rand.NewSource(s))
		}
		sl.rng = r
		if !sl.state.CompareAndSwap(slotSeeding, slotReady) {
			// Claimed mid-seed: hand the stream back for the next slot.
			select {
			case st.free <- r:
			default:
			}
		}
	}
}
