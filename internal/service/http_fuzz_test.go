package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzSessionsPOST throws arbitrary bodies at POST /sessions on a server over
// two bridged clusters. The handler must never panic and must answer with
// one of the statuses the API documents; an admitted session's lifetime
// must be positive and within the server's MaxTTL, whatever ttl_ms asked
// for — exactly the requested ttl_ms below the cap, the cap above it, and
// DefaultTTL when ttl_ms is 0. Admitted sessions are deleted again so
// capacity stays open for the next input. The committed corpus in
// testdata/fuzz holds the ttl_ms values a Duration conversion wraps on.
func FuzzSessionsPOST(f *testing.F) {
	const maxTTL = time.Minute
	g := bridgedClusters(f, 2, 4, 4, 8)
	cfg := Config{Graph: g, DefaultTTL: time.Second, MaxTTL: maxTTL}
	s, err := New(cfg)
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Close() }()
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sessions", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusCreated:
		case http.StatusBadRequest, http.StatusConflict, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		var info SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatalf("decode 201 body: %v", err)
		}
		life := info.ExpiresAt.Sub(info.AdmittedAt)
		if life <= 0 || life > maxTTL {
			t.Fatalf("body %q: lifetime %v outside (0, %v]", body, life, maxTTL)
		}
		var req SessionRequest
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		want := cfg.DefaultTTL
		switch {
		case req.TTLMs >= int64(maxTTL/time.Millisecond):
			want = maxTTL
		case req.TTLMs > 0:
			want = time.Duration(req.TTLMs) * time.Millisecond
		}
		if life != want {
			t.Fatalf("body %q: lifetime %v, want %v", body, life, want)
		}
		del := httptest.NewRecorder()
		h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/sessions/"+info.ID, nil))
		if del.Code != http.StatusNoContent {
			t.Fatalf("DELETE %s: status %d", info.ID, del.Code)
		}
	})
}
