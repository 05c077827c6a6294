package service

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/sched"
	"github.com/muerp/quantumnet/internal/topology"
	"github.com/muerp/quantumnet/internal/wal"
)

// durableTrace drives a random workload — arrivals, TTL expiries, and early
// deletes — through a durable server on a fake clock and returns the server
// still running (never Closed: the caller decides how it "crashes"). The
// trace mixes accepts, capacity rejects (which exercise epoch records) and
// deletes, and ends quiesced: no live session is expired at the returned
// clock time, so no further mutation can happen while the clock stands
// still.
func durableTrace(t *testing.T, dataDir string, seed int64, snapshotMid bool) (*Server, *fakeClock, *graph.Graph) {
	t.Helper()
	cfg := topology.Default()
	cfg.Users = 8
	cfg.Switches = 16
	cfg.SwitchQubits = 2 // tight capacity: the trace must mix accepts and rejects
	g, err := topology.Generate(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	w := sched.Workload{Requests: 80, MeanInterarrival: 1, MeanHold: 6, MinUsers: 2, MaxUsers: 4}
	requests, err := w.Generate(g, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	sort.SliceStable(requests, func(i, j int) bool {
		if requests[i].Arrival != requests[j].Arrival {
			return requests[i].Arrival < requests[j].Arrival
		}
		return requests[i].ID < requests[j].ID
	})

	base := time.Unix(0, 0)
	fc := newFakeClock(base)
	s, err := New(Config{
		Graph:            g,
		DataDir:          dataDir,
		QueueSize:        4,
		MaxBatch:         1,
		MaxTTL:           1000 * time.Hour,
		Clock:            fc,
		SnapshotEvery:    1 << 30, // snapshots only when the test asks for one
		SnapshotInterval: 1000 * time.Hour,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	accepted, rejected, deleted := 0, 0, 0
	for i, req := range requests {
		fc.Set(base.Add(seconds(req.Arrival)))
		info, err := s.Submit(context.Background(), req.Users, seconds(req.Hold))
		switch {
		case err == nil:
			accepted++
			// Delete every fifth accepted session early to put release
			// records with reason "deleted" in the log.
			if accepted%5 == 0 {
				if err := s.Delete(info.ID); err != nil {
					t.Fatalf("Delete %s: %v", info.ID, err)
				}
				deleted++
			}
		case errors.Is(err, core.ErrInfeasible):
			rejected++
		default:
			t.Fatalf("request %d: %v", req.ID, err)
		}
		if snapshotMid && i == len(requests)/2 {
			s.snapshotNow()
		}
	}
	if accepted == 0 || rejected == 0 || deleted == 0 {
		t.Fatalf("degenerate trace (%d accepts, %d rejects, %d deletes) — tighten the workload", accepted, rejected, deleted)
	}

	// Quiesce: step just past the latest pending expiry until nothing held
	// by the dump can still expire at the standing clock time. Each check
	// serializes with the expiry wheel on the server mutex.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.StateDump()
		latest := fc.Now()
		pending := false
		for _, ss := range st.Sessions {
			if !ss.Info.ExpiresAt.After(latest) {
				pending = true
			}
		}
		if !pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expiry wheel never quiesced")
		}
		time.Sleep(time.Millisecond)
	}
	if s.ActiveSessions() == 0 {
		t.Fatal("trace ended with no live sessions; recovery would be trivial")
	}
	return s, fc, g
}

// crash stops the server the hard way: flush and close the WAL directly,
// skipping Close's final snapshot and graceful drain — the on-disk state a
// SIGKILL would leave behind (minus the in-flight tail a real crash can
// lose, which is exactly the unacknowledged part).
func crash(t *testing.T, s *Server) {
	t.Helper()
	if err := s.dur.log.Close(); err != nil {
		t.Fatalf("close WAL: %v", err)
	}
}

func dumpJSON(t *testing.T, st State) []byte {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	return b
}

// TestRecoverMatchesLiveState is the deterministic-replay differential: the
// state rebuilt from disk must serialize byte-identically to the live
// server's dump — ledger budgets AND closure epoch, session table, expiry
// heap order, ID counter. Run once from a pure WAL replay and once from a
// mid-trace snapshot plus the WAL suffix.
func TestRecoverMatchesLiveState(t *testing.T) {
	for _, tc := range []struct {
		name        string
		snapshotMid bool
	}{
		{"pure-wal", false},
		{"snapshot-plus-suffix", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, g := durableTrace(t, dir, 42, tc.snapshotMid)
			want := dumpJSON(t, s.StateDump())
			crash(t, s)

			rec, err := Recover(dir, g)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if got := dumpJSON(t, rec.State); string(got) != string(want) {
				t.Fatalf("recovered state differs from live state\nlive:      %s\nrecovered: %s", want, got)
			}
			if tc.snapshotMid {
				if rec.SnapshotSeq == 0 || rec.SnapshotPath == "" {
					t.Fatalf("expected recovery from a snapshot, got %+v", rec)
				}
			} else if rec.SnapshotSeq != 0 {
				t.Fatalf("unexpected snapshot in pure-WAL recovery: %+v", rec)
			}
			if rec.WALRecords == 0 {
				t.Fatal("recovery replayed no WAL records")
			}
			// Recover must not mutate the directory: a second run is identical.
			again, err := Recover(dir, g)
			if err != nil {
				t.Fatalf("second Recover: %v", err)
			}
			if got := dumpJSON(t, again.State); string(got) != string(want) {
				t.Fatal("second recovery diverged — Recover mutated the data directory")
			}
		})
	}
}

// TestServerRestartRecovers boots a fresh server on the crashed data
// directory: every unexpired session must be queryable with its original
// info, the dump must match, and the revived server must keep serving and
// then restart cleanly (final snapshot, zero replay).
func TestServerRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	s1, fc, g := durableTrace(t, dir, 7, false)
	want := dumpJSON(t, s1.StateDump())
	live := s1.StateDump().Sessions
	crash(t, s1)
	// Builds with a solve cache left a warm set beside the snapshots;
	// recovery and boot must ignore it.
	plantStaleWarmCache(t, snapDir(dir), live)
	rec, err := Recover(dir, g)
	if err != nil {
		t.Fatalf("Recover beside a stale warm-cache file: %v", err)
	}
	if got := dumpJSON(t, rec.State); string(got) != string(want) {
		t.Fatalf("recovered state differs\nlive:      %s\nrecovered: %s", want, got)
	}
	if err := VerifyState(g, quantum.DefaultParams(), rec.State); err != nil {
		t.Fatalf("recovered state fails verification: %v", err)
	}

	fc2 := newFakeClock(fc.Now())
	s2, err := New(Config{
		Graph:    g,
		DataDir:  dir,
		MaxBatch: 1,
		MaxTTL:   1000 * time.Hour,
		Clock:    fc2,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := dumpJSON(t, s2.StateDump()); string(got) != string(want) {
		t.Fatalf("restarted state differs\nbefore: %s\nafter:  %s", want, got)
	}
	if err := VerifyState(g, quantum.DefaultParams(), s2.StateDump()); err != nil {
		t.Fatalf("restarted state fails verification: %v", err)
	}
	for _, ss := range live {
		info, ok := s2.Session(ss.Info.ID)
		if !ok {
			t.Fatalf("session %s lost across restart", ss.Info.ID)
		}
		if info.Rate != ss.Info.Rate || !info.ExpiresAt.Equal(ss.Info.ExpiresAt) {
			t.Fatalf("session %s changed across restart: %+v vs %+v", ss.Info.ID, info, ss.Info)
		}
	}
	m := s2.Metrics()
	if m.Durability == nil || m.Durability.Recovery.Sessions != len(live) || m.Durability.Recovery.WALRecords == 0 {
		t.Fatalf("recovery metrics %+v, want %d sessions from a WAL replay", m.Durability, len(live))
	}

	// The revived server keeps serving: new sessions get fresh IDs (the ID
	// counter recovered, so no collision with a live session).
	users := live[0].Info.Users
	if err := s2.Delete(live[0].Info.ID); err != nil {
		t.Fatalf("Delete recovered session: %v", err)
	}
	// It is submitted under a tenant name no policy registers: without a
	// policy the name still tags the session and its WAL admit record.
	info, err := s2.SubmitTenant(context.Background(), "acme", users, time.Hour)
	if err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	if _, clash := s2.Session(info.ID); !clash {
		t.Fatalf("new session %s not queryable", info.ID)
	}
	if info.Tenant != "acme" {
		t.Fatalf("session tenant = %q, want the verbatim name", info.Tenant)
	}
	var logged *admitRecord
	if _, err := wal.Replay(walDir(dir), 0, func(_ uint64, payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.T == recAdmit && rec.Admit.Info.ID == info.ID {
			logged = rec.Admit
		}
		return nil
	}); err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	if logged == nil || logged.Info.Tenant != "acme" {
		t.Fatalf("WAL admit record for %s = %+v, want tenant \"acme\"", info.ID, logged)
	}
	for _, ss := range live {
		if info.ID == ss.Info.ID {
			t.Fatalf("recovered ID counter reissued %s", info.ID)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A daemon without a tenant policy pins none, so the next boot may add
	// one.
	if _, err := os.Stat(QoSPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("qos.json pinned without a tenant policy (stat err %v)", err)
	}

	// A clean shutdown snapshots everything: the next boot replays nothing.
	s3, err := New(Config{Graph: g, DataDir: dir, MaxBatch: 1, MaxTTL: 1000 * time.Hour, Clock: newFakeClock(fc2.Now()),
		QoS: &qos.Config{Tenants: []qos.TenantSpec{{ID: "acme", Weight: 2}}}})
	if err != nil {
		t.Fatalf("third boot: %v", err)
	}
	defer func() { _ = s3.Close() }()
	if d := s3.Metrics().Durability; d.Recovery.WALRecords != 0 {
		t.Fatalf("boot after clean shutdown replayed %d WAL records, want 0", d.Recovery.WALRecords)
	}
	if s3.ActiveSessions() != s2.ActiveSessions() {
		t.Fatalf("clean restart lost sessions: %d vs %d", s3.ActiveSessions(), s2.ActiveSessions())
	}
	if got, ok := s3.Session(info.ID); !ok || got.Tenant != "acme" {
		t.Fatalf("session %s after the policy restart: %+v (live %v)", info.ID, got, ok)
	}
}

// TestBootExpiresDueSessions restarts a durable server on a clock that has
// passed some sessions' expiry and sends it no request: the serve loop's
// first pass must release exactly those sessions with "expired" records,
// leave a state that verifies, and a second restart must recover it byte
// for byte.
func TestBootExpiresDueSessions(t *testing.T) {
	dir := t.TempDir()
	s1, _, g := durableTrace(t, dir, 3, false) // ends with 7 live sessions
	live := s1.StateDump().Sessions
	crash(t, s1)

	expiries := make([]time.Time, len(live))
	for i, ss := range live {
		expiries[i] = ss.Info.ExpiresAt
	}
	sort.Slice(expiries, func(i, j int) bool { return expiries[i].Before(expiries[j]) })
	bootAt := expiries[(len(expiries)-1)/2]
	due := map[string]bool{}
	for _, ss := range live {
		if !ss.Info.ExpiresAt.After(bootAt) {
			due[ss.Info.ID] = true
		}
	}
	if len(due) == 0 || len(due) == len(live) {
		t.Fatalf("%d of %d sessions due at boot; the test needs some of each", len(due), len(live))
	}

	boot := func() *Server {
		s, err := New(Config{
			Graph:            g,
			DataDir:          dir,
			MaxBatch:         1,
			MaxTTL:           1000 * time.Hour,
			Clock:            newFakeClock(bootAt),
			SnapshotEvery:    1 << 30,
			SnapshotInterval: 1000 * time.Hour,
		})
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		return s
	}
	s2 := boot()
	waitFor(t, "due sessions were never released at boot", func() bool {
		return s2.ActiveSessions() == len(live)-len(due)
	})
	if got := s2.Metrics().Sessions.Expired; got != int64(len(due)) {
		t.Fatalf("expired counter = %d, want %d", got, len(due))
	}
	want := dumpJSON(t, s2.StateDump())
	crash(t, s2)

	released := map[string]bool{}
	if _, err := wal.Replay(walDir(dir), 0, func(_ uint64, payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.T == recRelease && rec.Release.At.Equal(bootAt) {
			if rec.Release.Reason != releasedExpired {
				t.Errorf("boot release of %s has reason %q", rec.Release.ID, rec.Release.Reason)
			}
			released[rec.Release.ID] = true
		}
		return nil
	}); err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	if len(released) != len(due) {
		t.Fatalf("boot released %d sessions in the WAL, want %d", len(released), len(due))
	}
	for id := range due {
		if !released[id] {
			t.Fatalf("due session %s has no expiry record", id)
		}
	}

	rec, err := Recover(dir, g)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := dumpJSON(t, rec.State); string(got) != string(want) {
		t.Fatalf("recovered state differs\nlive:      %s\nrecovered: %s", want, got)
	}
	if err := VerifyState(g, quantum.DefaultParams(), rec.State); err != nil {
		t.Fatalf("recovered state fails verification: %v", err)
	}
	s3 := boot()
	defer func() { _ = s3.Close() }()
	if got := dumpJSON(t, s3.StateDump()); string(got) != string(want) {
		t.Fatalf("second restart differs\nbefore: %s\nafter:  %s", want, got)
	}
}

// plantStaleWarmCache writes a cachewarm.json into a snapshot directory in
// the format builds with a solve cache used: the accept-tier user sets,
// most recently used first.
func plantStaleWarmCache(t *testing.T, snaps string, sessions []SessionState) {
	t.Helper()
	sets := [][]graph.NodeID{}
	for _, ss := range sessions {
		sets = append(sets, ss.Info.Users)
	}
	b, err := json.Marshal(map[string]any{"sets": sets})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(snaps, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snaps, "cachewarm.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDurableRecovery runs a concurrent burst with the WAL
// enabled, deletes a few sessions, and requires the recovered state to be
// byte-identical to the live dump: every decide must stage its records in
// mutation order, or replay diverges.
func TestConcurrentDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	g := burstGraph(t, 23)
	s, err := New(Config{
		Graph:    g,
		MaxBatch: 8,
		MaxTTL:   time.Hour,
		DataDir:  dir,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	accepted, _ := submitBurst(t, s, g, 4, 10)
	if accepted == 0 {
		t.Fatal("burst admitted nothing")
	}
	// Free a little capacity through the DELETE path so releases interleave
	// with the burst's records in the WAL.
	st := s.StateDump()
	for i := 0; i < len(st.Sessions) && i < 3; i++ {
		if err := s.Delete(st.Sessions[i].Info.ID); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	submitBurst(t, s, g, 2, 5)

	want := dumpJSON(t, s.StateDump())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := Recover(dir, g)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := dumpJSON(t, rec.State); string(got) != string(want) {
		t.Fatalf("recovered state differs\nlive:      %s\nrecovered: %s", want, got)
	}
	if err := VerifyState(g, quantum.DefaultParams(), rec.State); err != nil {
		t.Fatalf("recovered state fails verification: %v", err)
	}
}

// TestRecoveryRejectsForeignTopology pins the environment: booting a data
// directory against a different graph must fail loudly instead of replaying
// node IDs onto the wrong network.
func TestRecoveryRejectsForeignTopology(t *testing.T) {
	dir := t.TempDir()
	fc := newFakeClock(time.Unix(0, 0))
	s := newTestServer(t, Config{DataDir: dir, Clock: fc, MaxBatch: 1, MaxTTL: time.Hour})
	if _, err := s.Submit(context.Background(), []graph.NodeID{0, 1}, time.Hour); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	other := bottleneck(t)
	other.SetQubits(4, 6) // same shape, different capacity
	if _, err := New(Config{Graph: other, DataDir: dir, Clock: fc}); err == nil {
		t.Fatal("New accepted a data directory pinned to a different topology")
	}
}

// TestRefusesShardedDataDir plants each marker a sharded data directory
// carries — a pinned partition.json, a per-shard WAL stream segment, a
// per-shard snapshot directory — into a data directory. Booting a Server on
// it and recovering it offline must both fail with an error naming the
// marker, rather than skipping the shard files and coming up with an empty
// ledger.
func TestRefusesShardedDataDir(t *testing.T) {
	markers := []struct {
		name  string
		plant func(dir string) error
	}{
		{"partition.json", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "partition.json"), []byte(`{"k":2}`), 0o644)
		}},
		{"wal-s00000001-0000000000000000.log", func(dir string) error {
			if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "wal", "wal-s00000001-0000000000000000.log"),
				[]byte("MUWALv2\n\x01\x00\x00\x00"), 0o644)
		}},
		{filepath.Join("snap", "s00"), func(dir string) error {
			return os.MkdirAll(filepath.Join(dir, "snap", "s00"), 0o755)
		}},
	}
	g := bottleneck(t)
	for _, m := range markers {
		dir := t.TempDir()
		if err := m.plant(dir); err != nil {
			t.Fatalf("%s: plant: %v", m.name, err)
		}
		s, err := New(Config{Graph: g, DataDir: dir})
		if err == nil {
			n := s.ActiveSessions()
			_ = s.Close()
			t.Fatalf("%s: New booted a sharded data directory with %d sessions", m.name, n)
		}
		if !strings.Contains(err.Error(), m.name) {
			t.Errorf("%s: New error %q does not name the marker", m.name, err)
		}
		if _, err := Recover(dir, g); err == nil || !strings.Contains(err.Error(), m.name) {
			t.Errorf("%s: Recover error %v does not name the marker", m.name, err)
		}
	}
}
