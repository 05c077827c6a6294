package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/muerp/quantumnet/internal/service"
)

// lightTraffic: lone requests on the paper-scale network, so batch-fill
// waits and HTTP dominate and the solver barely registers.
var lightTraffic = traffic{
	process: "poisson", rate: 300, meanHold: 20 * time.Millisecond, minUsers: 2, maxUsers: 3,
	window: 5 * time.Second,
}

// daemon is a running muerpd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stdout *syncBuffer
	exited chan error // receives cmd.Wait's result once
}

// syncBuffer collects a subprocess's output while it runs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon launches muerpd with its shipped defaults on a random local
// port and returns once /healthz answers 200.
func startDaemon(bin, dir string) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile)
	d := &daemon{stdout: &syncBuffer{}, exited: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	d.cmd.Stdout = d.stdout
	d.cmd.Stderr = d.stdout
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start muerpd: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("muerpd not ready after 30s:\n%s", d.stdout.String())
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("muerpd exited during start-up (%v):\n%s", err, d.stdout.String())
		default:
		}
		if d.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil {
				d.addr = string(b)
			}
		}
		if d.addr != "" {
			resp, err := client.Get("http://" + d.addr + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// configLine returns the daemon's "muerpd config {json}" line.
func (d *daemon) configLine() string {
	sc := bufio.NewScanner(strings.NewReader(d.stdout.String()))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "muerpd config ") {
			return sc.Text()
		}
	}
	return ""
}

// Close sends SIGTERM and waits for the drain; it reports a non-zero exit or
// a drain that takes longer than 15 s.
func (d *daemon) Close() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal muerpd: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("muerpd drain: %v:\n%s", err, d.stdout.String())
		}
		return nil
	case <-time.After(15 * time.Second):
		d.kill()
		return errors.New("muerpd did not drain within 15s of SIGTERM")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// httpClient is the load generator's client: at most nproc keep-alive
// connections, so requests beyond that wait for a connection and the wait
// counts in their latency.
func httpClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConns:        n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// traceHeader carries a request's ID to the in-process server's wrapping
// handler in traced passes.
const traceHeader = "X-Perfbench-Req"

// driveHTTP runs one open-loop pass over HTTP. With a recorder it records
// each request's root span and its client.roundtrip span.
func driveHTTP(client *http.Client, addr string, reqs []request, rec *recorder) loopStats {
	url := "http://" + addr + "/sessions"
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		bodies[i] = reqs[i].body()
	}
	samples := openLoop(reqs, func(ctx context.Context, r *request, start time.Time) int {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(bodies[r.id]))
		if err != nil {
			return kindFailed
		}
		req.Header.Set("Content-Type", "application/json")
		if rec != nil {
			req.Header.Set(traceHeader, strconv.Itoa(r.id))
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return kindFailed
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		t1 := time.Now()
		if rec != nil {
			rec.add("request", "", r.id, "", start.Add(r.at), t1)
			rec.add("client.roundtrip", "request", r.id, "", t0, t1)
		}
		switch resp.StatusCode {
		case http.StatusCreated:
			return kindAccepted
		case http.StatusConflict:
			return kindRejected
		default:
			return kindFailed
		}
	})
	return summarise(samples)
}

// daemonTallies reads the decision counters from a daemon's /metrics.
func daemonTallies(client *http.Client, addr string) (service.RequestMetrics, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return service.RequestMetrics{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	var m struct {
		Requests service.RequestMetrics `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return service.RequestMetrics{}, fmt.Errorf("decode /metrics: %w", err)
	}
	return m.Requests, nil
}

// daemonPass starts muerpd, drives one pass over HTTP, checks the daemon's
// tallies and its SIGTERM drain, and returns the pass's statistics with the
// daemon's peak resident memory.
func daemonPass(d *daemon, reqs []request, out *outcome) (loopStats, float64, error) {
	client := httpClient()
	defer client.CloseIdleConnections()
	st := driveHTTP(client, d.addr, reqs, nil)
	rm, err := daemonTallies(client, d.addr)
	if err != nil {
		d.kill()
		return st, 0, err
	}
	checkTallies(out, "muerpd", rm, st)
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		d.kill()
		return st, 0, err
	}
	err = d.Close()
	out.check(err == nil, "muerpd SIGTERM drain: %v", err)
	return st, rss, nil
}

func runHTTPLight(opts options, out *outcome) error {
	if opts.muerpd == "" {
		return errors.New("http-light needs -muerpd")
	}
	dir := buildDir(opts, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	horizon := time.Duration(opts.seconds) * time.Second
	if opts.trace {
		horizon /= 4
	}
	var reqs []request
	var draw time.Duration
	d, setup, err := timedSetups(func() (*daemon, error) {
		g, err := paperNet.generate()
		if err != nil {
			return nil, err
		}
		if reqs, draw, err = makeStream(lightTraffic, g, opts.seed, horizon); err != nil {
			return nil, err
		}
		return startDaemon(opts.muerpd, dir)
	})
	if err != nil {
		return err
	}
	out.daemonConfig = d.configLine()
	st, rss, err := daemonPass(d, reqs, out)
	if err != nil {
		return err
	}
	if !opts.trace {
		st.endToEnd(out)
		out.metrics["setup_s"] = setup
		out.metrics["peak_rss_mb"] = rss
		return nil
	}
	return traceHTTPLight(opts, out, reqs, draw, st)
}

// traceHTTPLight measures http-light's layers from outside. The muerpd pass
// already ran (daemon); then the same stream goes through an in-process
// service.New behind the same HTTP handler, untraced and then traced with a
// wrapping handler timing http.serve, and finally straight through
// SubmitTenant, which times the queue and scheduler without HTTP.
func traceHTTPLight(opts options, out *outcome, reqs []request, draw time.Duration, muerpd loopStats) error {
	m := out.metrics
	m["workload.draw_ms"] = ms(draw)
	g, err := paperNet.generate()
	if err != nil {
		return err
	}
	httpRec := newRecorder()
	inproc := func(rec *recorder) (loopStats, error) {
		srv, err := service.New(muerpdConfig(g))
		if err != nil {
			return loopStats{}, err
		}
		h := srv.Handler()
		if rec != nil {
			h = serveSpans(h, rec)
		}
		st, err := serveHTTP(h, reqs, rec)
		if err != nil {
			_ = srv.Close()
			return st, err
		}
		checkTallies(out, fmt.Sprintf("in-process HTTP (traced=%v)", rec != nil), srv.Metrics().Requests, st)
		return st, srv.Close()
	}
	untraced, err := inproc(nil)
	if err != nil {
		return err
	}
	traced, err := inproc(httpRec)
	if err != nil {
		return err
	}

	srv, err := service.New(muerpdConfig(g))
	if err != nil {
		return err
	}
	rec := newRecorder()
	replay := drive(srv, reqs, rec, noTag)
	checkTallies(out, "SubmitTenant replay", srv.Metrics().Requests, replay)
	sm := srv.Metrics()
	if err := srv.Close(); err != nil {
		return err
	}
	for _, st := range []loopStats{muerpd, untraced, traced, replay} {
		out.attempted += int64(st.offered)
		out.failed += int64(st.failed)
	}

	serviceLayers(sm, m)
	submitLayers(rec, m)
	roundtrip := quantile(httpRec.durations("client.roundtrip", ""), 0.5)
	serve := quantile(httpRec.durations("http.serve", ""), 0.5)
	m["http.roundtrip_p50_us"] = roundtrip
	m["http.serve_p50_us"] = serve
	m["http.self_p50_us"] = serve - m["service.submit_p50_us"]
	m["loadgen.late_p99_ms"] = quantile(traced.lateMs, 0.99)
	m["trace.overhead_p50_ms"] = traced.windowQuantile(0.5) - untraced.windowQuantile(0.5)
	offPath(m, "router.", "qos.", "wal.", "timesim.")
	if err := replaySolver(g, params, requestSessions(reqs), m, rec); err != nil {
		return err
	}
	solve := m["service.solve_mean_us"] / 1000
	// Per request of the traced HTTP pass's median band; the SubmitTenant
	// time is the same request's in the replay pass.
	rt, sv, sub := httpRec.byReq("client.roundtrip"), httpRec.byReq("http.serve"), rec.byReq("service.submit")
	band := medianBand(traced)
	stage := func(f func(i int) float64) float64 { return bandMean(band, f) }
	out.budget = newBudget(opts.workload, muerpd.windowQuantile(0.5), []budgetRow{
		{"loadgen late", stage(func(i int) float64 { return ms(traced.samples[i].sent - traced.samples[i].due) }), "send - due"},
		{"harness", stage(func(i int) float64 { return ms(traced.samples[i].done-traced.samples[i].sent) - rt[i] }), "decision - send - roundtrip"},
		{"client+tcp", stage(func(i int) float64 { return rt[i] - sv[i] }), "roundtrip - serve"},
		{"http handler", stage(func(i int) float64 { return sv[i] - sub[i] }), "serve - SubmitTenant (replay)"},
		{"queue+batch", stage(func(i int) float64 { return sub[i] }) - solve, "SubmitTenant (replay) - solve mean"},
		{"solve", solve, "Metrics().SolveLatency mean"},
	})
	if err := httpRec.write(opts, "http"); err != nil {
		return err
	}
	return rec.write(opts, "submit")
}

// serveSpans wraps a handler to record an http.serve span per request.
func serveSpans(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		if id, err := strconv.Atoi(r.Header.Get(traceHeader)); err == nil {
			rec.add("http.serve", "client.roundtrip", id, "", t0, time.Now())
		}
	})
}

// serveHTTP serves h on a local port for one open-loop pass.
func serveHTTP(h http.Handler, reqs []request, rec *recorder) (loopStats, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return loopStats{}, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	client := httpClient()
	st := driveHTTP(client, ln.Addr().String(), reqs, rec)
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return st, err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return st, err
	}
	return st, nil
}
