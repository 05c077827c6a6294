package qos

import (
	"errors"
	"testing"
	"time"
)

func cfg(t *testing.T, tenants ...TenantSpec) *Config {
	t.Helper()
	c := &Config{Tenants: tenants}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return c.Normalized()
}

// drain dequeues everything, returning the tenant service order.
func drain(s *Scheduler) []string {
	var order []string
	for {
		_, tenant, ok := s.Dequeue()
		if !ok {
			return order
		}
		order = append(order, tenant)
	}
}

func count(order []string) map[string]int {
	m := make(map[string]int)
	for _, t := range order {
		m[t]++
	}
	return m
}

func TestSingleTenantIsFIFO(t *testing.T) {
	s := NewScheduler(cfg(t), 64)
	for i := 0; i < 10; i++ {
		if err := s.Enqueue("", i); err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
	}
	if got := s.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	for i := 0; i < 10; i++ {
		item, tenant, ok := s.Dequeue()
		if !ok {
			t.Fatalf("Dequeue %d: empty", i)
		}
		if tenant != DefaultTenant {
			t.Fatalf("Dequeue %d: tenant %q", i, tenant)
		}
		if item.(int) != i {
			t.Fatalf("Dequeue %d: got item %v, want %d (not FIFO)", i, item, i)
		}
	}
	if _, _, ok := s.Dequeue(); ok {
		t.Fatal("Dequeue on empty scheduler returned ok")
	}
}

func TestWeightedFairness(t *testing.T) {
	c := cfg(t,
		TenantSpec{ID: "gold", Weight: 3},
		TenantSpec{ID: "bronze", Weight: 1},
	)
	s := NewScheduler(c, 256)
	for i := 0; i < 40; i++ {
		if err := s.Enqueue("gold", i); err != nil {
			t.Fatal(err)
		}
		if err := s.Enqueue("bronze", i); err != nil {
			t.Fatal(err)
		}
	}
	// While both stay backlogged (first 40 dequeues drain 30 gold + 10
	// bronze at weight 3:1), service must track the weights.
	order := drain(s)
	got := count(order[:40])
	if got["gold"] != 30 || got["bronze"] != 10 {
		t.Fatalf("first 40 dequeues: gold=%d bronze=%d, want 30/10", got["gold"], got["bronze"])
	}
	// Everything is eventually served.
	total := count(order)
	if total["gold"] != 40 || total["bronze"] != 40 {
		t.Fatalf("totals: %v, want 40 each", total)
	}
	// Per-tenant order stays FIFO under interleaving.
	next := map[string]int{}
	s2 := NewScheduler(c, 256)
	for i := 0; i < 20; i++ {
		_ = s2.Enqueue("gold", i)
		_ = s2.Enqueue("bronze", i)
	}
	for {
		item, tenant, ok := s2.Dequeue()
		if !ok {
			break
		}
		if item.(int) != next[tenant] {
			t.Fatalf("tenant %q: got item %v, want %d (per-tenant FIFO broken)", tenant, item, next[tenant])
		}
		next[tenant]++
	}
}

func TestStrictPriorityTiers(t *testing.T) {
	c := cfg(t,
		TenantSpec{ID: "urgent", Priority: 2},
		TenantSpec{ID: "batch", Priority: 0},
	)
	// Disable the anti-starvation share to observe pure strict priority.
	c.GuaranteedShare = 0
	s := NewScheduler(c, 256)
	for i := 0; i < 5; i++ {
		_ = s.Enqueue("batch", i)
		_ = s.Enqueue("urgent", i)
	}
	order := drain(s)
	want := []string{"urgent", "urgent", "urgent", "urgent", "urgent", "batch", "batch", "batch", "batch", "batch"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q (full order %v)", i, order[i], want[i], order)
		}
	}
}

// TestStarvationBound pins the anti-starvation guarantee: under a constant
// high-priority flood, the low tier still receives ~GuaranteedShare of the
// dequeues.
func TestStarvationBound(t *testing.T) {
	c := cfg(t,
		TenantSpec{ID: "flood", Priority: 1},
		TenantSpec{ID: "background", Priority: 0},
	)
	c.GuaranteedShare = 0.25
	s := NewScheduler(c, 1024)
	for i := 0; i < 200; i++ {
		_ = s.Enqueue("flood", i)
	}
	for i := 0; i < 100; i++ {
		_ = s.Enqueue("background", i)
	}
	lo := 0
	for i := 0; i < 100; i++ {
		_, tenant, ok := s.Dequeue()
		if !ok {
			t.Fatalf("Dequeue %d: empty", i)
		}
		if tenant == "background" {
			lo++
		}
	}
	// share 0.25 over 100 dequeues → 25 background slots (allow slack for
	// carry rounding at the window edges).
	if lo < 20 || lo > 30 {
		t.Fatalf("background served %d of 100 dequeues under flood, want ~25 (share 0.25)", lo)
	}
}

func TestGuaranteedSlotRotatesAcrossStarvedTiers(t *testing.T) {
	c := cfg(t,
		TenantSpec{ID: "hi", Priority: 2},
		TenantSpec{ID: "mid", Priority: 1},
		TenantSpec{ID: "lo", Priority: 0},
	)
	c.GuaranteedShare = 0.5
	s := NewScheduler(c, 1024)
	for i := 0; i < 300; i++ {
		_ = s.Enqueue("hi", i)
	}
	for i := 0; i < 50; i++ {
		_ = s.Enqueue("mid", i)
		_ = s.Enqueue("lo", i)
	}
	got := count(func() []string {
		var o []string
		for i := 0; i < 100; i++ {
			_, tenant, _ := s.Dequeue()
			o = append(o, tenant)
		}
		return o
	}())
	// share 0.5 → 50 guaranteed slots, rotated between the two starved
	// tiers → ~25 each.
	if got["mid"] < 20 || got["lo"] < 20 {
		t.Fatalf("starved tiers under-served: %v (want ~25 mid and ~25 lo of 100)", got)
	}
}

func TestQueueBounds(t *testing.T) {
	c := cfg(t,
		TenantSpec{ID: "small", QueueSize: 2},
		TenantSpec{ID: "big"},
	)
	s := NewScheduler(c, 4)
	if err := s.Enqueue("small", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("small", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("small", 3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third enqueue past bound: err = %v, want ErrQueueFull", err)
	}
	// Other tenants are unaffected by one tenant's full queue, up to the
	// default bound.
	for i := 0; i < 4; i++ {
		if err := s.Enqueue("big", i); err != nil {
			t.Fatalf("big enqueue %d: %v", i, err)
		}
	}
	if err := s.Enqueue("big", 5); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("big past default bound: err = %v, want ErrQueueFull", err)
	}
	// Draining frees capacity again.
	if _, _, ok := s.Dequeue(); !ok {
		t.Fatal("Dequeue: empty")
	}
	stats := s.Queues()
	if len(stats) != 3 { // small, big, default
		t.Fatalf("Queues: %v, want 3 tenants", stats)
	}
}

func TestUnknownTenantFallsBackToDefault(t *testing.T) {
	s := NewScheduler(cfg(t, TenantSpec{ID: "known"}), 16)
	if err := s.Enqueue("mystery", 1); err != nil {
		t.Fatalf("unknown tenant enqueue: %v", err)
	}
	_, tenant, ok := s.Dequeue()
	if !ok || tenant != DefaultTenant {
		t.Fatalf("unknown tenant dequeued as %q, want %q", tenant, DefaultTenant)
	}
}

func TestLimiterBurstAndRefill(t *testing.T) {
	c := cfg(t, TenantSpec{ID: "metered", RatePerSec: 2, Burst: 3})
	l := NewLimiter(c)
	base := time.Unix(1000, 0)

	// The full burst passes instantly.
	for i := 0; i < 3; i++ {
		if err := l.Allow("metered", base); err != nil {
			t.Fatalf("burst request %d throttled: %v", i, err)
		}
	}
	// The next is throttled with a retry-after matching the refill rate:
	// one token at 2/s takes 500ms.
	err := l.Allow("metered", base)
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("over-burst: err = %v, want ErrThrottled", err)
	}
	var te *ThrottleError
	if !errors.As(err, &te) {
		t.Fatalf("err %v does not unwrap to *ThrottleError", err)
	}
	if te.Tenant != "metered" {
		t.Fatalf("ThrottleError.Tenant = %q", te.Tenant)
	}
	if te.RetryAfter < 400*time.Millisecond || te.RetryAfter > 600*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want ~500ms", te.RetryAfter)
	}

	// After 1s two tokens accrued.
	later := base.Add(time.Second)
	if err := l.Allow("metered", later); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := l.Allow("metered", later); err != nil {
		t.Fatalf("after refill, second token: %v", err)
	}
	if err := l.Allow("metered", later); !errors.Is(err, ErrThrottled) {
		t.Fatalf("third post-refill request: err = %v, want ErrThrottled", err)
	}

	// Refill never exceeds the burst.
	muchLater := base.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if err := l.Allow("metered", muchLater); err != nil {
			t.Fatalf("post-idle burst %d: %v", i, err)
		}
	}
	if err := l.Allow("metered", muchLater); !errors.Is(err, ErrThrottled) {
		t.Fatalf("burst cap not enforced: err = %v", err)
	}

	// A clock step backwards must not refill or panic.
	if err := l.Allow("metered", base); !errors.Is(err, ErrThrottled) {
		t.Fatalf("backwards clock: err = %v, want ErrThrottled", err)
	}
}

func TestLimiterUnlimitedTenants(t *testing.T) {
	l := NewLimiter(cfg(t, TenantSpec{ID: "free"}))
	now := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		if err := l.Allow("free", now); err != nil {
			t.Fatalf("unlimited tenant throttled: %v", err)
		}
		if err := l.Allow(DefaultTenant, now); err != nil {
			t.Fatalf("default tenant throttled: %v", err)
		}
	}
	var nilL *Limiter
	if err := nilL.Allow("anything", now); err != nil {
		t.Fatalf("nil limiter: %v", err)
	}
}

func TestConfigParseAndValidate(t *testing.T) {
	c, err := Parse([]byte(`{
		"tenants": [
			{"id": "gold", "weight": 3, "priority": 1, "rate_per_sec": 2.5, "max_ttl_ms": 30000},
			{"id": "default", "queue_size": 8}
		],
		"guaranteed_share": 0.2
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	n := c.Normalized()
	gold, ok := n.Tenant("gold")
	if !ok {
		t.Fatal("gold missing after normalize")
	}
	if gold.Burst != 3 {
		t.Fatalf("gold burst = %d, want ceil(2.5) = 3", gold.Burst)
	}
	if gold.MaxTTL() != 30*time.Second {
		t.Fatalf("gold MaxTTL = %v, want 30s", gold.MaxTTL())
	}
	// The largest cap a Duration holds is still a valid config.
	top, err := Parse([]byte(`{"tenants":[{"id":"a","max_ttl_ms":9223372036854}]}`))
	if err != nil {
		t.Fatalf("Parse(largest max_ttl_ms): %v", err)
	}
	if got := top.Tenants[0].MaxTTL(); got != 9223372036854*time.Millisecond {
		t.Fatalf("largest MaxTTL = %v, want %v", got, 9223372036854*time.Millisecond)
	}
	if got := len(n.Tenants); got != 2 {
		t.Fatalf("normalized tenants = %d, want 2 (default not duplicated)", got)
	}
	if n.Resolve("") != DefaultTenant || n.Resolve("nobody") != DefaultTenant || n.Resolve("gold") != "gold" {
		t.Fatal("Resolve mapping wrong")
	}

	// Defaults materialize the default tenant.
	n2 := (&Config{}).Normalized()
	if _, ok := n2.Tenant(DefaultTenant); !ok {
		t.Fatal("empty config: default tenant not materialized")
	}
	if n2.GuaranteedShare != defaultGuaranteedShare {
		t.Fatalf("share = %v, want default %v", n2.GuaranteedShare, defaultGuaranteedShare)
	}

	bad := []string{
		`{"tenants":[{"id":""}]}`,
		`{"tenants":[{"id":"a"},{"id":"a"}]}`,
		`{"tenants":[{"id":"a","weight":-1}]}`,
		`{"tenants":[{"id":"a","rate_per_sec":-2}]}`,
		`{"guaranteed_share": 1.5}`,
		`{"tenants":[{"id":"a","burst":-1}]}`,
		`{"tenants":[{"id":"a","queue_size":-1}]}`,
		`{"tenants":[{"id":"a","max_ttl_ms":-5}]}`,
		`{"tenants":[{"id":"a","max_ttl_ms":9223372036855}]}`,  // wraps to a negative Duration
		`{"tenants":[{"id":"a","max_ttl_ms":18446744073710}]}`, // wraps to about 0.45 ms
		`{"tenants":[{"id":"a","typo_field":1}]}`,
	}
	for _, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Fatalf("Parse(%s) accepted invalid config", doc)
		}
	}
}

// TestConcurrentEnqueueDequeue exercises the scheduler's internal locking
// under -race: producers on several tenants against one consumer.
func TestConcurrentEnqueueDequeue(t *testing.T) {
	c := cfg(t,
		TenantSpec{ID: "a", Weight: 2, Priority: 1},
		TenantSpec{ID: "b"},
	)
	s := NewScheduler(c, 1<<16)
	const perTenant = 2000
	done := make(chan struct{})
	for _, tenant := range []string{"a", "b", DefaultTenant} {
		tenant := tenant
		go func() {
			for i := 0; i < perTenant; i++ {
				for s.Enqueue(tenant, i) != nil {
				}
			}
			done <- struct{}{}
		}()
	}
	got := 0
	producers := 3
	for producers > 0 || s.Len() > 0 {
		if _, _, ok := s.Dequeue(); ok {
			got++
		}
		select {
		case <-done:
			producers--
		default:
		}
	}
	for got < 3*perTenant {
		if _, _, ok := s.Dequeue(); ok {
			got++
		} else {
			t.Fatalf("drained %d items, want %d", got, 3*perTenant)
		}
	}
}
