package qos

import (
	"sync"
	"time"
)

// bucket is one tenant's token bucket. Tokens accrue continuously at rate
// per second up to burst; each admitted request spends one token.
type bucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
}

// Limiter enforces per-tenant admission-rate quotas. It is safe for
// concurrent use.
//
// The caller supplies the clock reading, which keeps the limiter
// deterministic under the service layer's fake clock.
type Limiter struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

// NewLimiter builds a limiter over the (normalized) config. Tenants with
// RatePerSec 0 have no bucket and are never throttled.
func NewLimiter(c *Config) *Limiter {
	l := &Limiter{buckets: make(map[string]*bucket)}
	for _, t := range c.Tenants {
		if t.RatePerSec <= 0 {
			continue
		}
		burst := float64(t.Burst)
		if burst < 1 {
			burst = 1
		}
		l.buckets[t.ID] = &bucket{rate: t.RatePerSec, burst: burst, tokens: burst}
	}
	return l
}

// Allow spends one of tenant's tokens at time now. It returns nil when the
// request is within quota, or a *ThrottleError carrying the time until the
// next token when the bucket is empty. Unlimited tenants always pass.
func (l *Limiter) Allow(tenant string, now time.Time) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		return nil
	}
	if b.last.IsZero() {
		b.last = now
	}
	// Guard against non-monotonic clocks (fake clocks under test, NTP
	// steps): never refill from a negative interval.
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return nil
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Nanosecond
	}
	return &ThrottleError{Tenant: tenant, RetryAfter: wait}
}
