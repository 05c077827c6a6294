package service

import (
	"sync/atomic"
	"time"

	"github.com/muerp/quantumnet/internal/sched"
)

// latencyBuckets are the upper bounds of the solve-latency histogram, from
// sub-channel-search times up to pathological solves; everything slower
// lands in the +Inf overflow bucket.
var latencyBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// histogram is a fixed-bucket duration histogram with atomic counters, safe
// for concurrent observation.
type histogram struct {
	counts []atomic.Int64 // len(latencyBuckets)+1; the last bucket is +Inf
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	h.count.Add(1)
	h.sum.Add(int64(d))
	for i, ub := range latencyBuckets {
		if d <= ub {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(latencyBuckets)].Add(1)
}

func (h *histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count:   h.count.Load(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	if out.Count > 0 {
		out.MeanMs = float64(h.sum.Load()) / float64(out.Count) / 1e6
	}
	for i := range latencyBuckets {
		out.Buckets[i] = Bucket{LeMs: float64(latencyBuckets[i]) / 1e6, Count: h.counts[i].Load()}
	}
	// LeMs 0 marks the +Inf overflow bucket.
	out.Buckets[len(latencyBuckets)] = Bucket{LeMs: 0, Count: h.counts[len(latencyBuckets)].Load()}
	return out
}

// Bucket is one histogram bucket in /metrics. LeMs is the bucket's upper
// bound in milliseconds; 0 marks the +Inf overflow bucket.
type Bucket struct {
	LeMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the serialized form of a latency histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	MeanMs  float64  `json:"mean_ms"`
	Buckets []Bucket `json:"buckets"`
}

// counters are the daemon's monotonic event counts, updated atomically from
// the HTTP handlers and the serve loop.
type counters struct {
	requests        atomic.Int64 // admission requests received (HTTP or Submit)
	queueFull       atomic.Int64 // requests bounced with 429
	throttled       atomic.Int64 // requests bounced by a tenant quota (QoS)
	invalid         atomic.Int64 // requests rejected before queueing (bad users/TTL)
	accepted        atomic.Int64 // sessions admitted
	rejected        atomic.Int64 // requests infeasible under residual capacity
	canceled        atomic.Int64 // requests whose context ended before a decision
	failed          atomic.Int64 // internal solver errors
	expired         atomic.Int64 // sessions released by the expiry wheel
	deleted         atomic.Int64 // sessions released by DELETE
	batches         atomic.Int64 // micro-batches drained by the serve loop
	batchedRequests atomic.Int64 // requests across all batches
	maxBatch        atomic.Int64 // largest batch seen
}

func (c *counters) noteBatch(n int) {
	c.batches.Add(1)
	c.batchedRequests.Add(int64(n))
	for {
		cur := c.maxBatch.Load()
		if int64(n) <= cur || c.maxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// QueueMetrics describes the admission queue's live state.
type QueueMetrics struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// RequestMetrics aggregates per-request outcomes.
type RequestMetrics struct {
	Total     int64 `json:"total"`
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	QueueFull int64 `json:"queue_full"`
	Throttled int64 `json:"throttled"`
	Invalid   int64 `json:"invalid"`
	Canceled  int64 `json:"canceled"`
	Failed    int64 `json:"failed"`
}

// BatchMetrics aggregates the serve loop's micro-batching behaviour.
type BatchMetrics struct {
	Count    int64   `json:"count"`
	Requests int64   `json:"requests"`
	MaxSize  int64   `json:"max_size"`
	MeanSize float64 `json:"mean_size"`
}

// SessionMetrics aggregates session lifecycle counts.
type SessionMetrics struct {
	Active  int   `json:"active"`
	Expired int64 `json:"expired"`
	Deleted int64 `json:"deleted"`
}

// LedgerMetrics snapshots the live capacity ledger.
type LedgerMetrics struct {
	UsedQubits  int    `json:"used_qubits"`
	FreeQubits  int    `json:"free_qubits"`
	TotalQubits int    `json:"total_qubits"`
	EpochGen    uint64 `json:"epoch_gen"`
}

// Metrics is the JSON document served at GET /metrics. Admission reuses
// sched.Summary so the daemon and the offline simulator report one shared
// representation (acceptance ratio, mean rate, peak qubits, SolveStats).
type Metrics struct {
	UptimeMs     float64           `json:"uptime_ms"`
	Queue        QueueMetrics      `json:"queue"`
	Requests     RequestMetrics    `json:"requests"`
	Batches      BatchMetrics      `json:"batches"`
	SolveLatency HistogramSnapshot `json:"solve_latency"`
	Sessions     SessionMetrics    `json:"sessions"`
	Ledger       LedgerMetrics     `json:"ledger"`
	Admission    sched.Summary     `json:"admission"`
	// Durability reports the WAL/snapshot layer; nil without a data dir.
	Durability *DurabilityMetrics `json:"durability,omitempty"`
	// Speculation is always nil, so /metrics omits it.
	//
	// Deprecated: kept only because the perfbench module still reads it.
	Speculation *SpeculationMetrics `json:"speculation,omitempty"`
	// SolveCache is always nil, so /metrics omits it.
	//
	// Deprecated: kept only because the perfbench module still reads it.
	SolveCache *SolveCacheMetrics `json:"solve_cache,omitempty"`
	// FootprintPool is always nil, so /metrics omits it.
	//
	// Deprecated: kept only because the perfbench module still reads it.
	FootprintPool *FootprintPoolMetrics `json:"footprint_pool,omitempty"`
	// Tenants is the per-tenant SLO section (qosplane.go); nil without a
	// tenant policy (Config.QoS).
	Tenants []TenantMetrics `json:"tenants,omitempty"`
}

// SpeculationMetrics types the always-nil Metrics.Speculation.
//
// Deprecated: kept only because the perfbench module still reads it.
type SpeculationMetrics struct{ WastedSolveRatio float64 }

// SolveCacheMetrics types the always-nil Metrics.SolveCache.
//
// Deprecated: kept only because the perfbench module still reads it.
type SolveCacheMetrics struct{ HitRate float64 }

// FootprintPoolMetrics types the always-nil Metrics.FootprintPool.
//
// Deprecated: kept only because the perfbench module still reads it.
type FootprintPoolMetrics struct{ ReuseRate float64 }
