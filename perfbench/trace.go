package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request share
// Req; Parent names the span of the same request that caused this one ("" for
// a request's root span).
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Tag    string `json:"tag,omitempty"`
	// StartNs and EndNs are offsets from the recorder's epoch.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced passes run the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name, parent string, req int, tag string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, Parent: parent, Req: req, Tag: tag,
		StartNs: int64(start.Sub(r.epoch)), EndNs: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// durations returns the sorted durations in microseconds of every span with
// the name (and tag, when tag is not empty).
func (r *recorder) durations(name, tag string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, us(s.dur()))
		}
	}
	sort.Float64s(out)
	return out
}

// write stores the spans as JSON lines under the build area.
func (r *recorder) write(opts options, phase string) error {
	dir := buildDir(opts, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.jsonl", opts.workload, opts.seed, phase))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// byReq maps request ID to the duration in milliseconds of the request's
// span with the given name.
func (r *recorder) byReq(name string) map[int]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int]float64{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Req] = ms(s.dur())
		}
	}
	return out
}

// medianBand returns the decided requests of a pass whose admission latency
// lies in its middle tenth (the 45th to 55th percentile): the requests the
// median describes. Averages over them add up, where medians of parts do
// not.
func medianBand(st loopStats) []int {
	lo, hi := quantile(st.latencyMs, 0.45), quantile(st.latencyMs, 0.55)
	var band []int
	for i, s := range st.samples {
		if l := ms(s.done - s.due); s.kind != kindFailed && l >= lo && l <= hi {
			band = append(band, i)
		}
	}
	return band
}

// bandMean averages f over the band's requests.
func bandMean(band []int, f func(i int) float64) float64 {
	var sum float64
	for _, i := range band {
		sum += f(i)
	}
	return sum / float64(max(len(band), 1))
}

// budget is a daemon workload's stage budget: where its median admission
// latency goes, layer by layer, measured from outside. Each row averages one
// stage over the traced pass's median band (medianBand); the stages
// partition each request's latency, so the rows sum to the band's mean
// latency. The residual against the untraced median is what the table does
// not explain: tracing overhead and run-to-run variation (and, for
// http-light, the in-process server standing in for the muerpd subprocess).
type budget struct {
	Workload      string      `json:"workload"`
	Rows          []budgetRow `json:"rows"`
	SumMs         float64     `json:"sum_ms"`
	UntracedP50Ms float64     `json:"untraced_admit_p50_ms"`
	ResidualMs    float64     `json:"residual_ms"`
	ToleranceMs   float64     `json:"tolerance_ms"`
	Within        bool        `json:"within_tolerance"`
}

type budgetRow struct {
	Stage string  `json:"stage"`
	Ms    float64 `json:"ms"`
	How   string  `json:"how"`
}

// budgetTolerance is the stated agreement between the table and the
// untraced median: 25% of the median, and never tighter than 0.25 ms.
func budgetTolerance(p50 float64) float64 { return max(0.25*p50, 0.25) }

func newBudget(workload string, untracedP50 float64, rows []budgetRow) *budget {
	b := &budget{Workload: workload, Rows: rows, UntracedP50Ms: untracedP50}
	for _, r := range rows {
		b.SumMs += r.Ms
	}
	b.ResidualMs = untracedP50 - b.SumMs
	b.ToleranceMs = budgetTolerance(untracedP50)
	b.Within = b.ResidualMs <= b.ToleranceMs && -b.ResidualMs <= b.ToleranceMs
	return b
}

func (b *budget) print(w io.Writer) {
	fmt.Fprintf(w, "stage budget %s (ms, mean over the median band of the traced pass):\n", b.Workload)
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-28s %9.4f  %s\n", r.Stage, r.Ms, r.How)
	}
	fmt.Fprintf(w, "  %-28s %9.4f\n", "sum", b.SumMs)
	fmt.Fprintf(w, "  %-28s %9.4f\n", "untraced admit p50", b.UntracedP50Ms)
	fmt.Fprintf(w, "  %-28s %9.4f  (tolerance ±%.4f, within: %v)\n", "residual", b.ResidualMs, b.ToleranceMs, b.Within)
}
