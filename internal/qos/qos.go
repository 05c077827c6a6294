// Package qos is the daemon's multi-tenant admission policy layer
// (DESIGN.md §11): a tenant registry (weight, strict-priority class,
// token-bucket quota), per-tenant bounded sub-queues, and a deficit-
// weighted-round-robin dequeue with an anti-starvation share for lower
// priority tiers. It decides only *ordering and admission-rate* questions —
// which queued request the admission loop should decide next, and whether a
// tenant is over its request rate. Everything downstream (solving, the
// ledger, durability) is tenant-blind and unchanged.
//
// The package is deliberately free of service dependencies: queued items
// are opaque interface values, and the caller passes its own clock readings
// into the limiter, so the scheduler is deterministic under test and
// composes with the service layer's fake clock.
package qos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// DefaultTenant is the tenant every request without a tenant name (and any
// unknown tenant name) is served under. A configuration that does not list
// it gets it appended with weight 1, no quota and the scheduler's default
// queue bound; alone, it is the anonymous daemon's plain FIFO queue.
const DefaultTenant = "default"

// Package errors. ThrottleError wraps ErrThrottled and carries the
// retry-after hint.
var (
	// ErrQueueFull reports a tenant sub-queue at capacity.
	ErrQueueFull = errors.New("qos: tenant queue full")
	// ErrThrottled reports a tenant over its token-bucket admission rate.
	ErrThrottled = errors.New("qos: tenant over admission rate")
)

// ThrottleError is the limiter's rejection: the tenant's bucket is empty
// and the next token accrues in RetryAfter.
type ThrottleError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *ThrottleError) Error() string {
	return fmt.Sprintf("qos: tenant %q over admission rate (retry in %v)", e.Tenant, e.RetryAfter)
}

func (e *ThrottleError) Unwrap() error { return ErrThrottled }

// TenantSpec declares one tenant's service class.
type TenantSpec struct {
	// ID names the tenant; requests carry it in the POST /sessions body.
	ID string `json:"id"`
	// Weight is the tenant's DWRR share within its priority tier; tenants
	// with weight 3 dequeue three requests for every one of a weight-1
	// tenant under sustained backlog. Default 1.
	Weight int `json:"weight,omitempty"`
	// Priority is the tenant's strict tier: higher tiers are served first,
	// subject to the config's GuaranteedShare for lower tiers. Default 0.
	Priority int `json:"priority,omitempty"`
	// RatePerSec is the token-bucket refill rate gating how many requests
	// per second the tenant may submit; 0 means unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket depth — how many requests may arrive at once
	// before throttling. Defaults to ceil(RatePerSec), at least 1.
	Burst int `json:"burst,omitempty"`
	// QueueSize bounds the tenant's admission sub-queue; 0 takes the
	// scheduler's default (the service's global queue bound).
	QueueSize int `json:"queue_size,omitempty"`
	// MaxTTLMs caps the tenant's session lifetimes in milliseconds: a
	// request asking for more is clamped to the cap (and counted in the
	// tenant's ttl_clamped metric), exactly like the server-wide MaxTTL.
	// 0 means no tenant cap — only the server-wide one applies.
	MaxTTLMs int64 `json:"max_ttl_ms,omitempty"`
}

// MaxTTL returns the tenant's session-lifetime cap as a duration; 0 means
// the tenant has no cap of its own.
func (t TenantSpec) MaxTTL() time.Duration {
	return time.Duration(t.MaxTTLMs) * time.Millisecond
}

// Config is the QoS policy document (muerpd -qos-config).
type Config struct {
	Tenants []TenantSpec `json:"tenants"`
	// GuaranteedShare is the anti-starvation fraction: under sustained
	// higher-priority backlog, lower tiers still receive at least this
	// share of dequeues. 0 means the default of 0.1; negative disables the
	// guarantee (pure strict priority).
	GuaranteedShare float64 `json:"guaranteed_share,omitempty"`
}

// defaultGuaranteedShare is the anti-starvation share applied when the
// config leaves GuaranteedShare at 0.
const defaultGuaranteedShare = 0.1

// Normalized returns a copy with every default applied: the default tenant
// appended when absent, weights raised to 1, bursts derived from rates, and
// the guaranteed share resolved. The receiver is not modified.
func (c *Config) Normalized() *Config {
	out := &Config{GuaranteedShare: c.GuaranteedShare}
	if out.GuaranteedShare == 0 {
		out.GuaranteedShare = defaultGuaranteedShare
	} else if out.GuaranteedShare < 0 {
		out.GuaranteedShare = 0
	}
	hasDefault := false
	for _, t := range c.Tenants {
		if t.Weight <= 0 {
			t.Weight = 1
		}
		if t.RatePerSec > 0 && t.Burst <= 0 {
			t.Burst = int(t.RatePerSec)
			if float64(t.Burst) < t.RatePerSec {
				t.Burst++
			}
			if t.Burst < 1 {
				t.Burst = 1
			}
		}
		if t.ID == DefaultTenant {
			hasDefault = true
		}
		out.Tenants = append(out.Tenants, t)
	}
	if !hasDefault {
		out.Tenants = append(out.Tenants, TenantSpec{ID: DefaultTenant, Weight: 1})
	}
	return out
}

// Validate checks the raw (pre-normalization) policy document.
func (c *Config) Validate() error {
	seen := make(map[string]bool, len(c.Tenants))
	for i, t := range c.Tenants {
		if t.ID == "" {
			return fmt.Errorf("qos: tenant %d has no id", i)
		}
		if seen[t.ID] {
			return fmt.Errorf("qos: duplicate tenant %q", t.ID)
		}
		seen[t.ID] = true
		if t.Weight < 0 {
			return fmt.Errorf("qos: tenant %q: negative weight %d", t.ID, t.Weight)
		}
		if t.RatePerSec < 0 {
			return fmt.Errorf("qos: tenant %q: negative rate %v", t.ID, t.RatePerSec)
		}
		if t.Burst < 0 {
			return fmt.Errorf("qos: tenant %q: negative burst %d", t.ID, t.Burst)
		}
		if t.QueueSize < 0 {
			return fmt.Errorf("qos: tenant %q: negative queue size %d", t.ID, t.QueueSize)
		}
		if t.MaxTTLMs < 0 {
			return fmt.Errorf("qos: tenant %q: negative max ttl %dms", t.ID, t.MaxTTLMs)
		}
	}
	if c.GuaranteedShare >= 1 {
		return fmt.Errorf("qos: guaranteed_share must be below 1, got %v", c.GuaranteedShare)
	}
	return nil
}

// Tenant returns the spec for id, if configured.
func (c *Config) Tenant(id string) (TenantSpec, bool) {
	for _, t := range c.Tenants {
		if t.ID == id {
			return t, true
		}
	}
	return TenantSpec{}, false
}

// Resolve maps a request's tenant name onto a configured tenant: the empty
// name and any unlisted name fall back to the default tenant, so unknown
// tenants are served (and rate-limited) under the default class rather than
// rejected.
func (c *Config) Resolve(id string) string {
	if id == "" {
		return DefaultTenant
	}
	if _, ok := c.Tenant(id); ok {
		return id
	}
	return DefaultTenant
}

// Parse decodes a policy document, rejecting unknown fields so a typo in a
// tenants.json is a boot error rather than a silently ignored knob.
func Parse(b []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("qos: parse config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Load reads and parses a policy file.
func Load(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("qos: read config: %w", err)
	}
	c, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
