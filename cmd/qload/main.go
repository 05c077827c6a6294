// Command qload replays a generated session workload against a running
// muerpd daemon, measuring end-to-end admission throughput and latency. It
// fetches the daemon's topology, draws a seeded arrival stream from the
// shared traffic models (internal/workload — the same generators that feed
// the slotted simulator), and fires the sessions at scaled wall-clock
// times: one workload time unit lasts -unit of real time, and each
// accepted session's TTL is its Hold scaled the same way — so the daemon
// sees the loss-network dynamics the paper models.
//
// Usage:
//
//	qload -addr host:port [flags]
//
//	-sessions       number of requests           (default 50)
//	-arrival        poisson | diurnal | flash    (default poisson)
//	-interarrival   mean inter-arrival (units)   (default 1)
//	-hold           mean session hold (units)    (default 5)
//	-group-min/max  session size bounds          (default 2..4)
//	-seed           RNG seed                     (default 1)
//	-unit           real duration of one unit    (default 10ms)
//	-timeout        per-request HTTP timeout     (default 5s)
//	-tenants        weighted tenant mix, e.g. "gold=3,bronze=1"; each request
//	                is tagged with a tenant drawn by weight (empty = untagged)
//	-retry          on 429 + Retry-After, wait as told and retry up to this
//	                many times per request (default 0 = report the 429)
//	-min-accepted   fail unless >= this many accepted (default 1)
//	-min-rps        fail unless achieved throughput >= this (default 0 = off)
//	-v              print every outcome
//	-version        print build info and exit
//
// With -tenants the summary adds a per-tenant breakdown — accepted,
// infeasible, throttled (429 over quota) vs queue-full 429, errors — and
// with -retry the requests that were throttled first but accepted on a
// retry are reported separately (they are still one accepted session each).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/muerp/quantumnet/internal/buildinfo"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/workload"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qload:", err)
		os.Exit(1)
	}
}

// outcome classifies one replayed request.
type outcome struct {
	status  int
	code    string // error body code for non-2xx: "throttled", "queue_full", ...
	latency time.Duration
	err     error
	retries int  // 429 retries actually taken
	retried bool // accepted, but only after at least one Retry-After wait
}

// tenantWeight is one entry of the -tenants mix spec.
type tenantWeight struct {
	name   string
	weight int
}

// parseTenantMix parses "gold=3,bronze=1" (weight defaults to 1 when the
// "=n" part is omitted).
func parseTenantMix(spec string) ([]tenantWeight, error) {
	var mix []tenantWeight
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w := part, 1
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			name = part[:eq]
			if _, err := fmt.Sscanf(part[eq+1:], "%d", &w); err != nil || w < 1 {
				return nil, fmt.Errorf("-tenants: bad weight in %q", part)
			}
		}
		if name == "" {
			return nil, fmt.Errorf("-tenants: empty tenant name in %q", spec)
		}
		mix = append(mix, tenantWeight{name: name, weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("-tenants: no tenants in %q", spec)
	}
	return mix, nil
}

// assignTenants draws one tenant per request by mix weight, deterministically
// for a given seed.
func assignTenants(n int, mix []tenantWeight, rng *rand.Rand) []string {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	names := make([]string, n)
	for i := range names {
		pick := rng.Intn(total)
		for _, m := range mix {
			if pick < m.weight {
				names[i] = m.name
				break
			}
			pick -= m.weight
		}
	}
	return names
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "", "daemon address (host:port), required")
		sessions    = fs.Int("sessions", 50, "number of session requests")
		arrival     = fs.String("arrival", "poisson", "arrival process: poisson, diurnal or flash")
		inter       = fs.Float64("interarrival", 1, "mean inter-arrival time (workload units)")
		hold        = fs.Float64("hold", 5, "mean session hold (workload units)")
		groupMin    = fs.Int("group-min", 2, "minimum users per session")
		groupMax    = fs.Int("group-max", 4, "maximum users per session")
		seed        = fs.Int64("seed", 1, "RNG seed")
		unit        = fs.Duration("unit", 10*time.Millisecond, "real duration of one workload time unit")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
		tenantsSpec = fs.String("tenants", "", `weighted tenant mix, e.g. "gold=3,bronze=1" (empty = untagged)`)
		retry       = fs.Int("retry", 0, "retry a 429 this many times, waiting per its Retry-After header")
		minAccepted = fs.Int("min-accepted", 1, "fail unless at least this many sessions are accepted")
		minRPS      = fs.Float64("min-rps", 0, "fail unless achieved request throughput is at least this (0 = no gate)")
		verbose     = fs.Bool("v", false, "print every outcome")
		version     = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String())
		return nil
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *unit <= 0 {
		return fmt.Errorf("-unit must be positive, got %v", *unit)
	}
	base := "http://" + *addr
	client := &http.Client{Timeout: *timeout}

	g, err := fetchTopology(ctx, client, base)
	if err != nil {
		return err
	}
	if *sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1, got %d", *sessions)
	}
	if *inter <= 0 {
		return fmt.Errorf("-interarrival must be positive, got %v", *inter)
	}
	// The process's time horizon spans the expected replay: -sessions
	// arrivals at a mean rate of one per -interarrival units. ArrivalsN then
	// thins until exactly -sessions arrivals are drawn, so diurnal and flash
	// runs keep the session budget while reshaping when the load lands.
	proc, err := workload.ParseProcess(*arrival, 1 / *inter, float64(*sessions)*(*inter))
	if err != nil {
		return err
	}
	trafficRNG := rand.New(rand.NewSource(*seed))
	arrivals, err := workload.ArrivalsN(proc, *sessions, trafficRNG)
	if err != nil {
		return err
	}
	requests, err := workload.Draw{
		MeanHold: *hold, MinUsers: *groupMin, MaxUsers: *groupMax,
	}.Sessions(g, arrivals, trafficRNG)
	if err != nil {
		return err
	}
	if *retry < 0 {
		return fmt.Errorf("-retry must be >= 0, got %d", *retry)
	}
	var tenants []string // per-request tenant tag; nil = untagged
	if *tenantsSpec != "" {
		mix, err := parseTenantMix(*tenantsSpec)
		if err != nil {
			return err
		}
		tenants = assignTenants(len(requests), mix, rand.New(rand.NewSource(*seed+2)))
	}
	tenantOf := func(i int) string {
		if tenants == nil {
			return ""
		}
		return tenants[i]
	}

	fmt.Fprintf(out, "qload: %d sessions against %s (unit=%v)\n", len(requests), base, *unit)
	fmt.Fprintf(out, "arrival process: %s (mean %g/unit, peak %g/unit)\n", proc.Name(), 1 / *inter, proc.MaxRate())
	outcomes := make([]outcome, len(requests))
	var wg sync.WaitGroup
	start := time.Now()
	for i, req := range requests {
		due := start.Add(time.Duration(req.Arrival * float64(*unit)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		wg.Add(1)
		go func(i int, req sched.Request) {
			defer wg.Done()
			outcomes[i] = fire(ctx, client, base, req, *unit, tenantOf(i), *retry)
		}(i, req)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var accepted, infeasible, throttled, queueFull, failed, retriedOK int
	latencies := make([]time.Duration, 0, len(outcomes))
	for i, o := range outcomes {
		switch {
		case o.err != nil:
			failed++
		case o.status == http.StatusCreated:
			accepted++
			if o.retried {
				retriedOK++
			}
		case o.status == http.StatusConflict:
			infeasible++
		case o.status == http.StatusTooManyRequests && o.code == "throttled":
			throttled++
		case o.status == http.StatusTooManyRequests:
			queueFull++
		default:
			failed++
		}
		if o.err == nil {
			latencies = append(latencies, o.latency)
		}
		if *verbose {
			fmt.Fprintf(out, "  session %3d: tenant %q status %d retries %d latency %v err %v\n",
				requests[i].ID, tenantOf(i), o.status, o.retries, o.latency.Round(time.Microsecond), o.err)
		}
	}

	fmt.Fprintf(out, "elapsed:        %v (%.1f req/s)\n", elapsed.Round(time.Millisecond),
		float64(len(requests))/elapsed.Seconds())
	fmt.Fprintf(out, "accepted:       %d\n", accepted)
	fmt.Fprintf(out, "infeasible:     %d\n", infeasible)
	fmt.Fprintf(out, "throttled 429:  %d\n", throttled)
	fmt.Fprintf(out, "queue-full 429: %d\n", queueFull)
	fmt.Fprintf(out, "errors:         %d\n", failed)
	if *retry > 0 {
		fmt.Fprintf(out, "retried-then-accepted: %d\n", retriedOK)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		q := func(p float64) time.Duration { return latencies[int(p*float64(len(latencies)-1))] }
		fmt.Fprintf(out, "latency:        p50 %v  p95 %v  max %v\n",
			q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond),
			latencies[len(latencies)-1].Round(time.Microsecond))
	}
	if tenants != nil {
		printTenantBreakdown(out, tenants, outcomes)
	}
	if err := printServerMetrics(ctx, client, base, out); err != nil {
		fmt.Fprintf(out, "metrics:        unavailable (%v)\n", err)
	}
	if accepted < *minAccepted {
		return fmt.Errorf("accepted %d sessions, need at least %d", accepted, *minAccepted)
	}
	if rps := float64(len(requests)) / elapsed.Seconds(); *minRPS > 0 && rps < *minRPS {
		return fmt.Errorf("achieved %.1f req/s, need at least %.1f", rps, *minRPS)
	}
	return nil
}

// printTenantBreakdown splits the replay by assigned tenant: one row per
// tenant with its acceptance and 429 mix. Requests accepted only after a
// Retry-After wait count as accepted and are also surfaced separately.
func printTenantBreakdown(out io.Writer, tenants []string, outcomes []outcome) {
	type row struct {
		total, accepted, infeasible, throttled, queueFull, failed, retriedOK int
	}
	rows := make(map[string]*row)
	names := make([]string, 0, 4)
	for i, o := range outcomes {
		r := rows[tenants[i]]
		if r == nil {
			r = &row{}
			rows[tenants[i]] = r
			names = append(names, tenants[i])
		}
		r.total++
		switch {
		case o.err != nil:
			r.failed++
		case o.status == http.StatusCreated:
			r.accepted++
			if o.retried {
				r.retriedOK++
			}
		case o.status == http.StatusConflict:
			r.infeasible++
		case o.status == http.StatusTooManyRequests && o.code == "throttled":
			r.throttled++
		case o.status == http.StatusTooManyRequests:
			r.queueFull++
		default:
			r.failed++
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "tenant breakdown:\n")
	for _, name := range names {
		r := rows[name]
		line := fmt.Sprintf("  %-10s %4d requests  %4d accepted  %4d infeasible  %4d throttled  %4d queue-full  %4d errors",
			name, r.total, r.accepted, r.infeasible, r.throttled, r.queueFull, r.failed)
		if r.retriedOK > 0 {
			line += fmt.Sprintf("  (%d retried-then-accepted)", r.retriedOK)
		}
		fmt.Fprintln(out, line)
	}
}

// fire posts one session request, optionally tenant-tagged. On 429 it obeys
// the Retry-After header up to the retry budget; the reported latency spans
// the whole exchange including the waits, mirroring what the caller felt.
func fire(ctx context.Context, client *http.Client, base string, req sched.Request, unit time.Duration, tenant string, retry int) outcome {
	payload := map[string]interface{}{
		"users":  req.Users,
		"ttl_ms": int64(req.Hold * float64(unit) / float64(time.Millisecond)),
	}
	if tenant != "" {
		payload["tenant"] = tenant
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return outcome{err: err}
	}
	t0 := time.Now()
	var o outcome
	for attempt := 0; ; attempt++ {
		httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/sessions", bytes.NewReader(body))
		if err != nil {
			return outcome{err: err, retries: o.retries}
		}
		httpReq.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(httpReq)
		if err != nil {
			return outcome{err: err, latency: time.Since(t0), retries: o.retries}
		}
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb)
		_, _ = io.Copy(io.Discard, resp.Body)
		wait := retryAfter(resp)
		_ = resp.Body.Close()
		o.status = resp.StatusCode
		o.code = eb.Error
		o.latency = time.Since(t0)
		o.retried = o.retries > 0 && resp.StatusCode == http.StatusCreated
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= retry {
			return o
		}
		select {
		case <-time.After(wait):
			o.retries++
		case <-ctx.Done():
			o.err = ctx.Err()
			return o
		}
	}
}

// retryAfter reads a 429's Retry-After header (delay-seconds form), clamped
// to [1s, 10s]; anything absent or unparseable waits the 1s floor.
func retryAfter(resp *http.Response) time.Duration {
	d := time.Second
	if v := resp.Header.Get("Retry-After"); v != "" {
		var secs int
		if _, err := fmt.Sscanf(v, "%d", &secs); err == nil && secs > 1 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	return d
}

func fetchTopology(ctx context.Context, client *http.Client, base string) (*graph.Graph, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/topology", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetch topology: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch topology: status %d", resp.StatusCode)
	}
	return graph.ReadJSON(resp.Body)
}

// printServerMetrics surfaces the daemon-side view after the run: the
// shared admission summary plus batching and tenant counters.
func printServerMetrics(ctx context.Context, client *http.Client, base string, out io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	var m struct {
		Batches struct {
			Count    int64   `json:"count"`
			MeanSize float64 `json:"mean_size"`
			MaxSize  int64   `json:"max_size"`
		} `json:"batches"`
		Admission sched.Summary `json:"admission"`
		Tenants   []struct {
			ID        string `json:"id"`
			Weight    int    `json:"weight"`
			Priority  int    `json:"priority"`
			Accepted  int64  `json:"accepted"`
			Rejected  int64  `json:"rejected"`
			Throttled int64  `json:"throttled"`
			QueueFull int64  `json:"queue_full"`
			Latency   struct {
				Count  int64   `json:"count"`
				MeanMs float64 `json:"mean_ms"`
			} `json:"admission_latency"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return err
	}
	fmt.Fprintf(out, "server batches: %d (mean %.2f, max %d)\n",
		m.Batches.Count, m.Batches.MeanSize, m.Batches.MaxSize)
	if len(m.Tenants) > 0 {
		fmt.Fprintf(out, "server tenants:\n")
		for _, tm := range m.Tenants {
			fmt.Fprintf(out, "  %-10s w%d p%d  accepted %d  rejected %d  throttled %d  queue-full %d  mean latency %.2fms (%d obs)\n",
				tm.ID, tm.Weight, tm.Priority, tm.Accepted, tm.Rejected,
				tm.Throttled, tm.QueueFull, tm.Latency.MeanMs, tm.Latency.Count)
		}
	}
	fmt.Fprintf(out, "server summary:\n%s", indent(m.Admission.String(), "  "))
	return nil
}

func indent(s, prefix string) string {
	s = strings.TrimRight(s, "\n")
	return prefix + strings.ReplaceAll(s, "\n", "\n"+prefix) + "\n"
}
