package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/topology"
	"github.com/muerp/quantumnet/internal/workload"
)

// netSpec is a generated topology, as muerpd's -users/-switches/-qubits/-seed
// flags describe it (Waxman, average degree 6).
type netSpec struct {
	users, switches, qubits int
	seed                    int64
}

// paperNet is muerpd's shipped default network.
var paperNet = netSpec{users: 10, switches: 30, qubits: 4, seed: 1}

// bigNet is the solve-bound network the in-process workloads share.
var bigNet = netSpec{users: 16, switches: 64, qubits: 8, seed: 1}

func (n netSpec) generate() (*graph.Graph, error) {
	cfg := topology.Default()
	cfg.Users = n.users
	cfg.Switches = n.switches
	cfg.SwitchQubits = n.qubits
	return topology.Generate(cfg, rand.New(rand.NewSource(n.seed)))
}

// traffic describes a daemon workload's request stream. The stream is a
// sequence of windows, each an independent draw of the same arrival process
// over window; latency percentiles are taken per window and the run reports
// their median, so one stall on a shared machine moves one window, not the
// result. A flash process bursts once per window.
type traffic struct {
	process            string  // "poisson" or "flash" (workload.ParseProcess)
	rate               float64 // mean arrivals per second (flash: base rate)
	meanHold           time.Duration
	minUsers, maxUsers int
	// tenants, when set, assigns each request a tenant with these relative
	// shares; empty means every request uses the default tenant.
	tenants []tenantShare
	// window is the target window length: long enough for at least a
	// thousand decisions, so each window's p99 rests on ten or more samples
	// beyond it.
	window time.Duration
}

type tenantShare struct {
	name  string
	share int
}

// request is one generated session request.
type request struct {
	id     int
	window int
	at     time.Duration // due offset from the start of the stream
	users  []graph.NodeID
	// hold is the drawn session lifetime; ttl is what goes on the wire: the
	// hold rounded up to whole milliseconds and never below 1 ms, because a
	// TTL of 0 means "server default" (30 s) to the daemon.
	hold   time.Duration
	ttl    time.Duration
	tenant string
}

// subSeed derives the independent random stream i of window k from the
// workload seed (a splitmix64 step, so nearby seeds give unrelated streams).
func subSeed(seed int64, k, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)<<8 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// windowsOf splits a horizon into whole windows of about the target length.
func windowsOf(horizon, target time.Duration) (int, time.Duration) {
	n := int(horizon / target)
	if n < 1 {
		n = 1
	}
	return n, horizon / time.Duration(n)
}

// makeStream draws a request stream over [0, horizon) from the seed alone:
// the same seed, traffic and graph always give the same requests. It also
// returns the time spent drawing (workload.draw_ms).
func makeStream(tr traffic, g *graph.Graph, seed int64, horizon time.Duration) ([]request, time.Duration, error) {
	t0 := time.Now()
	n, w := windowsOf(horizon, tr.window)
	proc, err := workload.ParseProcess(tr.process, tr.rate, w.Seconds())
	if err != nil {
		return nil, 0, err
	}
	draw := workload.Draw{MeanHold: tr.meanHold.Seconds(), MinUsers: tr.minUsers, MaxUsers: tr.maxUsers}
	total := 0
	for _, t := range tr.tenants {
		total += t.share
	}
	var reqs []request
	for k := 0; k < n; k++ {
		// Three independent streams per window: arrival times, session
		// draws, tenant assignment.
		arrivals, err := workload.Arrivals(proc, w.Seconds(), rand.New(rand.NewSource(subSeed(seed, k, 0))))
		if err != nil {
			return nil, 0, err
		}
		sessions, err := draw.Sessions(g, arrivals, rand.New(rand.NewSource(subSeed(seed, k, 1))))
		if err != nil {
			return nil, 0, err
		}
		trng := rand.New(rand.NewSource(subSeed(seed, k, 2)))
		for _, s := range sessions {
			hold := time.Duration(s.Hold * float64(time.Second))
			r := request{
				id:     len(reqs),
				window: k,
				at:     time.Duration(k)*w + time.Duration(s.Arrival*float64(time.Second)),
				users:  s.Users,
				hold:   hold,
				ttl:    wireTTL(hold),
			}
			if total > 0 {
				x := trng.Intn(total)
				for _, t := range tr.tenants {
					if x < t.share {
						r.tenant = t.name
						break
					}
					x -= t.share
				}
			}
			reqs = append(reqs, r)
		}
	}
	return reqs, time.Since(t0), nil
}

// wireTTL rounds a hold up to whole milliseconds, at least 1 ms.
func wireTTL(hold time.Duration) time.Duration {
	ms := int64(math.Ceil(float64(hold) / float64(time.Millisecond)))
	if ms < 1 {
		ms = 1
	}
	return time.Duration(ms) * time.Millisecond
}

// body is the request's POST /sessions JSON.
func (r *request) body() []byte {
	var b strings.Builder
	b.WriteString(`{"users":[`)
	for i, u := range r.users {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(u)))
	}
	fmt.Fprintf(&b, `],"ttl_ms":%d`, r.ttl/time.Millisecond)
	if r.tenant != "" {
		fmt.Fprintf(&b, `,"tenant":%q`, r.tenant)
	}
	b.WriteString("}")
	return []byte(b.String())
}

// Decision kinds of one request.
const (
	kindFailed   = iota // transport error, 5xx, 429, cancel or timeout
	kindAccepted        // 201 / nil error
	kindRejected        // 409 / core.ErrInfeasible
)

// sample is the timing of one request in an open-loop pass, relative to the
// pass start.
type sample struct {
	due, sent, done time.Duration
	kind            int
	window          int
}

// requestTimeout bounds one request; a request that takes longer fails.
const requestTimeout = 10 * time.Second

// openLoop fires every request at its due time, whatever the system is
// doing, and waits for all of them. send reports the request's decision
// kind; it runs on its own goroutine, so a slow decision never delays the
// next send.
func openLoop(reqs []request, send func(ctx context.Context, r *request, start time.Time) int) []sample {
	samples := make([]sample, len(reqs))
	var wg sync.WaitGroup
	// The Go runtime parks timers in a poller that wakes with millisecond
	// granularity, which made the generator half a millisecond late at the
	// median. The dispatcher instead sleeps its own OS thread in nanosleep,
	// whose wake-ups are tens of microseconds late.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now().Add(5 * time.Millisecond)
	for i := range reqs {
		r := &reqs[i]
		if d := time.Until(start.Add(r.at)); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes this request late
		}
		wg.Add(1)
		go func(i int, r *request) {
			defer wg.Done()
			sent := time.Since(start)
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			kind := send(ctx, r, start)
			cancel()
			samples[i] = sample{due: r.at, sent: sent, done: time.Since(start), kind: kind, window: r.window}
		}(i, r)
	}
	wg.Wait()
	return samples
}

// loopStats summarises an open-loop pass.
type loopStats struct {
	offered, accepted, rejected, failed int
	latencyMs                           []float64   // due → decision, decided requests only, sorted
	windowMs                            [][]float64 // latencyMs split by window, each sorted
	lateMs                              []float64   // due → send, every request, sorted
	decidedPerS                         float64
	samples                             []sample
}

func summarise(samples []sample) loopStats {
	st := loopStats{offered: len(samples), samples: samples}
	var first, last time.Duration = math.MaxInt64, 0
	for _, s := range samples {
		st.lateMs = append(st.lateMs, ms(s.sent-s.due))
		if s.due < first {
			first = s.due
		}
		switch s.kind {
		case kindAccepted:
			st.accepted++
		case kindRejected:
			st.rejected++
		default:
			st.failed++
			continue
		}
		lat := ms(s.done - s.due)
		st.latencyMs = append(st.latencyMs, lat)
		for len(st.windowMs) <= s.window {
			st.windowMs = append(st.windowMs, nil)
		}
		st.windowMs[s.window] = append(st.windowMs[s.window], lat)
		if s.done > last {
			last = s.done
		}
	}
	sort.Float64s(st.latencyMs)
	sort.Float64s(st.lateMs)
	for _, w := range st.windowMs {
		sort.Float64s(w)
	}
	if last > first {
		st.decidedPerS = float64(st.accepted+st.rejected) / (last - first).Seconds()
	}
	return st
}

func (st loopStats) decided() int { return st.accepted + st.rejected }

// windowQuantile is the median over windows of each window's q-quantile
// admission latency.
func (st loopStats) windowQuantile(q float64) float64 {
	var per []float64
	for _, w := range st.windowMs {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
}

// summary states the pass's sample counts and how late its generator ran.
func (st loopStats) summary() string {
	return fmt.Sprintf("open loop: %d offered, %d decided over %d windows, %d failed; generator late p50 %.3f ms, p99 %.3f ms",
		st.offered, st.decided(), len(st.windowMs), st.failed, quantile(st.lateMs, 0.5), quantile(st.lateMs, 0.99))
}

// endToEnd fills the end-to-end metrics an open-loop pass defines, with the
// pass's counts and summary.
func (st loopStats) endToEnd(out *outcome) {
	out.attempted = int64(st.offered)
	out.failed = int64(st.failed)
	out.notes = append(out.notes, st.summary())
	m := out.metrics
	m["latency_p50_ms"] = st.windowQuantile(0.5)
	m["latency_p99_ms"] = st.windowQuantile(0.99)
	m["decided_per_s"] = st.decidedPerS
	if d := st.decided(); d > 0 {
		m["accept_ratio"] = float64(st.accepted) / float64(d)
	}
	m["ok_ratio"] = 1 - float64(st.failed)/float64(st.offered)
}

// quantile is the linearly interpolated q-quantile of sorted values; 0 for
// an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(sortedCopy(values), 0.5) }

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads a process's resident-memory high-water mark (VmHWM).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
