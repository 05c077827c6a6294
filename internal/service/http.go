package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
)

// SessionRequest is the POST /sessions body.
type SessionRequest struct {
	// Users is the set of user node IDs to entangle (at least 2).
	Users []graph.NodeID `json:"users"`
	// TTLMs is the session lifetime in milliseconds; 0 means the server
	// default, and values above the server cap are clamped.
	TTLMs int64 `json:"ttl_ms,omitempty"`
	// Tenant names the requesting tenant for QoS queuing, quotas and SLO
	// accounting; empty (or unknown) names map to the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error  string `json:"error"`
	Detail string `json:"detail,omitempty"`
}

// Handler returns the daemon's HTTP API:
//
//	POST   /sessions        admit a session   → 201, 400, 409, 429, 503, 504
//	GET    /sessions/{id}   inspect a session → 200, 404
//	DELETE /sessions/{id}   release early     → 204, 404
//	GET    /metrics         counters + shared admission summary
//	GET    /topology        the served graph as JSON
//	GET    /healthz         200 while serving, 503 while draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		var req SessionRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decode body: %v", err))
			return
		}
		if req.TTLMs < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "ttl_ms must be >= 0")
			return
		}
		// A ttl_ms beyond what a Duration holds saturates rather than wraps,
		// so the server's TTL cap applies to it like to any long request.
		ttl := time.Duration(math.MaxInt64)
		if req.TTLMs <= math.MaxInt64/int64(time.Millisecond) {
			ttl = time.Duration(req.TTLMs) * time.Millisecond
		}
		info, err := s.SubmitTenant(r.Context(), req.Tenant, req.Users, ttl)
		if err != nil {
			writeSubmitError(w, s.cfg.RetryAfter, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := s.Session(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "not_found", "no such session")
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Delete(r.PathValue("id")); err != nil {
			writeError(w, http.StatusNotFound, "not_found", err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("GET /topology", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.Graph().WriteJSON(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		switch {
		case s.closing.Load():
			writeError(w, http.StatusServiceUnavailable, "shutting_down", "")
		case s.dur != nil && s.dur.failed.Load():
			// A WAL append failed: in-memory state is fine but can no longer
			// be promised across a crash. Operators should replace the node.
			writeError(w, http.StatusServiceUnavailable, "durability_failed", ErrDurability.Error())
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		}
	})
	return mux
}

// writeSubmitError maps a Submit outcome onto the HTTP status space.
func writeSubmitError(w http.ResponseWriter, retryAfter time.Duration, err error) {
	var throttle *qos.ThrottleError
	switch {
	case errors.As(err, &throttle):
		// Tenant over its quota: Retry-After is the token-bucket refill time
		// rather than the static backpressure hint.
		secs := int((throttle.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
		writeError(w, http.StatusTooManyRequests, "throttled", err.Error())
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell the client when to come back.
		secs := int((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprint(secs))
		writeError(w, http.StatusTooManyRequests, "queue_full", err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err.Error())
	case errors.Is(err, ErrInvalidRequest):
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	case errors.Is(err, core.ErrInfeasible):
		// Not enough residual switch capacity right now; sessions departing
		// may free it, so clients can retry.
		writeError(w, http.StatusConflict, "infeasible", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write, but be explicit for
		// intermediaries that still read the response.
		writeError(w, 499, "canceled", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, detail string) {
	writeJSON(w, status, errorBody{Error: code, Detail: detail})
}
