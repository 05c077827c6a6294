package service

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/qos"
)

// This file wires the internal/qos subsystem in front of the serve loop
// (DESIGN.md §11). The qos.Scheduler — per-tenant bounded sub-queues drained
// strict-priority-first with deficit-weighted round-robin — is the one
// admission queue: the serve loop dequeues in its order and decides
// micro-batches serially, so solving, the ledger, durability and sharding
// are tenant-blind. A shared token-bucket limiter throttles over-rate
// tenants at Submit time (HTTP 429 + Retry-After), before anything is
// queued.
//
// Without a tenant policy (nil Config.QoS) the registry holds only the
// default tenant: no quota, queue depth QueueSize, and one tenant's DWRR is
// plain FIFO. Whether a policy was given is observable in exactly three
// places: unknown tenant names tag sessions verbatim (wireTenant), no
// qos.json is pinned (pinEnvironment), and /metrics has no tenants section
// (tenantMetrics).
//
// Tenant identity on the wire: the empty string is the default tenant
// everywhere inside the service (pending.tenant, SessionInfo.Tenant, WAL
// records), so default-tenant records marshal byte-identically to the
// pre-tenant schema and old WAL frames decode as default-tenant traffic.
// The qos package's name space ("default") appears only at the qos API
// boundary (tenantStat.spec.ID).

// tenantPolicy validates and normalizes the configured tenant policy; a nil
// Config.QoS normalizes to the lone default tenant.
func (c Config) tenantPolicy() (*qos.Config, error) {
	policy := c.QoS
	if policy == nil {
		policy = &qos.Config{}
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	return policy.Normalized(), nil
}

// wireTenant folds a request's tenant name onto the service's wire form:
// "" is the default tenant. With a tenant policy, unknown names fall back
// to the default class; without one, any name is kept verbatim and merely
// tags the session. Either way an unknown name is served, rate-limited and
// accounted under the default class (tenantTable.get).
func (s *Server) wireTenant(name string) string {
	if name == qos.DefaultTenant {
		return ""
	}
	if s.cfg.QoS == nil {
		return name
	}
	if _, ok := s.tstats.stats[name]; ok {
		return name
	}
	return ""
}

// tenantStat is one tenant's SLO accounting: outcome counters plus the
// admission-latency histogram (enqueue to decision, wall clock). All fields
// are atomic — stats are written from Submit, the serve loop and the
// cross-region router concurrently.
type tenantStat struct {
	spec qos.TenantSpec

	accepted   atomic.Int64
	rejected   atomic.Int64
	throttled  atomic.Int64
	queueFull  atomic.Int64
	canceled   atomic.Int64
	failed     atomic.Int64
	ttlClamped atomic.Int64
	lat        *histogram
}

// clampTTL applies the tenant's session-lifetime cap on top of the
// server-wide one, counting every request it shortens. An uncapped tenant
// returns the TTL unchanged.
func (st *tenantStat) clampTTL(ttl time.Duration) time.Duration {
	if st.spec.MaxTTLMs <= 0 {
		return ttl
	}
	if cap := st.spec.MaxTTL(); ttl > cap {
		st.ttlClamped.Add(1)
		return cap
	}
	return ttl
}

// note records one decided request's outcome and admission latency.
// Shutdown bounces, invalid requests and pre-queue rejections (throttle,
// queue-full) are counted elsewhere or not at all.
func (st *tenantStat) note(err error, lat time.Duration) {
	switch {
	case err == nil:
		st.accepted.Add(1)
	case errors.Is(err, core.ErrInfeasible):
		st.rejected.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st.canceled.Add(1)
	case errors.Is(err, ErrClosed), errors.Is(err, ErrInvalidRequest),
		errors.Is(err, qos.ErrThrottled), errors.Is(err, ErrQueueFull):
		return
	default:
		st.failed.Add(1)
	}
	st.lat.observe(lat)
}

// tenantTable maps wire tenant names to their stats. Built once at New from
// the normalized config, read-only afterwards — lookups need no lock.
type tenantTable struct {
	stats map[string]*tenantStat
}

func newTenantTable(c *qos.Config) *tenantTable {
	t := &tenantTable{stats: make(map[string]*tenantStat, len(c.Tenants))}
	for _, spec := range c.Tenants {
		wire := spec.ID
		if wire == qos.DefaultTenant {
			wire = ""
		}
		t.stats[wire] = &tenantStat{spec: spec, lat: newHistogram()}
	}
	return t
}

// get returns a wire tenant's stats; a name outside the registry (kept
// verbatim only when no policy is configured) counts under the default
// class.
func (t *tenantTable) get(wire string) *tenantStat {
	if st, ok := t.stats[wire]; ok {
		return st
	}
	return t.stats[""]
}

// finish records the request's per-tenant outcome and delivers the result.
// Every decision path (batch decide, drain, close-bounce) funnels
// through here so tenant SLO counters cannot drift from delivered results.
func (p *pending) finish(r admitResult) {
	p.stat.note(r.err, time.Since(p.enq))
	p.result <- r
}

// dequeue takes the next request in DWRR order; ok is false when every
// tenant's queue is empty.
func (s *Server) dequeue() (*pending, bool) {
	item, _, ok := s.queue.Dequeue()
	if !ok {
		return nil, false
	}
	return item.(*pending), true
}

// wakeAdmission signals the serve loop that an item was enqueued, or that a
// cross-region install added a session it must arm its expiry timer for.
// The channel is sticky (capacity 1): a signal is never lost, and the loop
// drains the queue until empty and re-arms per wakeup, so coalesced signals
// are fine.
func (s *Server) wakeAdmission() {
	select {
	case s.arrive <- struct{}{}:
	default:
	}
}

// TenantMetrics is one tenant's SLO section in /metrics: its configured
// class, live queue occupancy, outcome counters and admission-latency
// histogram (accepted/rejected/canceled decisions, enqueue to delivery).
type TenantMetrics struct {
	ID         string  `json:"id"`
	Weight     int     `json:"weight"`
	Priority   int     `json:"priority,omitempty"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	MaxTTLMs   int64   `json:"max_ttl_ms,omitempty"`

	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	Accepted   int64 `json:"accepted"`
	Rejected   int64 `json:"rejected"`
	Throttled  int64 `json:"throttled"`
	QueueFull  int64 `json:"queue_full"`
	Canceled   int64 `json:"canceled"`
	Failed     int64 `json:"failed"`
	TTLClamped int64 `json:"ttl_clamped"`

	AdmissionLatency HistogramSnapshot `json:"admission_latency"`
}

// tenantMetrics snapshots the per-tenant SLO section; nil without a tenant
// policy, so the anonymous daemon's /metrics has no tenants section.
func (s *Server) tenantMetrics() []TenantMetrics {
	if s.cfg.QoS == nil {
		return nil
	}
	depth := make(map[string]qos.QueueStat)
	for _, q := range s.queue.Queues() {
		depth[q.Tenant] = q
	}
	out := make([]TenantMetrics, 0, len(s.tstats.stats))
	for _, st := range s.tstats.stats {
		q := depth[st.spec.ID]
		out = append(out, TenantMetrics{
			ID:         st.spec.ID,
			Weight:     st.spec.Weight,
			Priority:   st.spec.Priority,
			RatePerSec: st.spec.RatePerSec,
			Burst:      st.spec.Burst,
			MaxTTLMs:   st.spec.MaxTTLMs,

			QueueDepth:    q.Depth,
			QueueCapacity: q.Capacity,

			Accepted:   st.accepted.Load(),
			Rejected:   st.rejected.Load(),
			Throttled:  st.throttled.Load(),
			QueueFull:  st.queueFull.Load(),
			Canceled:   st.canceled.Load(),
			Failed:     st.failed.Load(),
			TTLClamped: st.ttlClamped.Load(),

			AdmissionLatency: st.lat.snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// aggregateTenants merges per-shard tenant sections by tenant ID: counters
// and queue depths sum, latency histograms merge, class fields are shared
// (every shard was built from the same normalized config).
func aggregateTenants(shards []Metrics) []TenantMetrics {
	byID := make(map[string]*TenantMetrics)
	var order []string
	for _, m := range shards {
		for _, tm := range m.Tenants {
			agg, ok := byID[tm.ID]
			if !ok {
				cp := tm
				cp.AdmissionLatency = HistogramSnapshot{}
				cp.QueueDepth, cp.QueueCapacity = 0, 0
				cp.Accepted, cp.Rejected, cp.Throttled = 0, 0, 0
				cp.QueueFull, cp.Canceled, cp.Failed, cp.TTLClamped = 0, 0, 0, 0
				agg = &cp
				byID[tm.ID] = agg
				order = append(order, tm.ID)
			}
			agg.QueueDepth += tm.QueueDepth
			agg.QueueCapacity += tm.QueueCapacity
			agg.Accepted += tm.Accepted
			agg.Rejected += tm.Rejected
			agg.Throttled += tm.Throttled
			agg.QueueFull += tm.QueueFull
			agg.Canceled += tm.Canceled
			agg.Failed += tm.Failed
			agg.TTLClamped += tm.TTLClamped
			agg.AdmissionLatency = mergeHistograms(agg.AdmissionLatency, tm.AdmissionLatency)
		}
	}
	if len(order) == 0 {
		return nil
	}
	sort.Strings(order)
	out := make([]TenantMetrics, len(order))
	for i, id := range order {
		out[i] = *byID[id]
	}
	return out
}
