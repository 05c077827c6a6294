package service

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/muerp/quantumnet/internal/core"
	"github.com/muerp/quantumnet/internal/graph"
	"github.com/muerp/quantumnet/internal/qos"
	"github.com/muerp/quantumnet/internal/quantum"
	"github.com/muerp/quantumnet/internal/snapshot"
	"github.com/muerp/quantumnet/internal/wal"
)

// This file is the daemon's durability layer (DESIGN.md §7): every admission
// decision, release and expiry is appended to a write-ahead log BEFORE the
// caller sees the response, a background snapshotter periodically folds the
// log into an atomic state dump, and recovery (Server boot with the same
// data directory, or the offline cmd/qrecover tool) rebuilds the exact
// pre-crash state — ledger budgets, closure epoch, session table and
// expiry-heap order — from the latest snapshot plus the WAL suffix.
//
// Determinism is what makes replay exact rather than approximate:
//
//   - A successful solve only ever Reserves its committed channels, in
//     tree order (core.BuildGreedyTree's commit discipline), so an admit
//     record replays by reserving the recorded channels in order —
//     reproducing the free budgets AND the closure log byte for byte.
//   - A rolled-back attempt (infeasible or cancelled mid-solve) leaves the
//     budgets untouched but may bump the closure generation; an epoch
//     record carries the post-rollback generation and replays via
//     Ledger.SyncEpoch.
//   - Releases remove sessions from the expiry heap eagerly
//     (heap.Remove), so heap membership always equals the session table
//     and replaying the same push/remove sequence rebuilds the identical
//     heap slice.
//
// WAL order equals mutation order because records are enqueued while the
// server mutex is held — the same lock that serializes every ledger
// mutation — and group commit preserves enqueue order.

// ErrDurability reports a write-ahead-log append failure. The in-memory
// decision already happened; the server marks itself unhealthy (healthz
// 503) because it can no longer promise recovery.
var ErrDurability = errors.New("service: durability failure")

// WAL record type tags.
const (
	recAdmit   = "admit"
	recRelease = "release"
	recEpoch   = "epoch"
)

// walRecord is the envelope of one WAL entry; T selects which body is set.
type walRecord struct {
	T       string         `json:"t"`
	Admit   *admitRecord   `json:"admit,omitempty"`
	Release *releaseRecord `json:"release,omitempty"`
	Epoch   *epochRecord   `json:"epoch,omitempty"`
}

// admitRecord persists one accepted session: its public info, the routed
// tree whose channels replay reserves in order, and the ID-counter value
// after the admit so recovery continues the ID sequence without reuse.
type admitRecord struct {
	Info   SessionInfo  `json:"info"`
	Tree   quantum.Tree `json:"tree"`
	NextID uint64       `json:"next_id"`
}

// releaseRecord persists one capacity refund (TTL expiry or DELETE).
// Tenant mirrors the session's tenant so per-tenant accounting can be
// rebuilt from the log alone; the default tenant's empty string is omitted,
// keeping default-tenant frames byte-identical to the pre-tenant schema.
type releaseRecord struct {
	ID     string    `json:"id"`
	Tenant string    `json:"tenant,omitempty"`
	Reason string    `json:"reason"` // "expired" | "deleted"
	At     time.Time `json:"at"`
}

// epochRecord persists the closure-generation bump left behind by a
// rolled-back routing attempt (no budget change to replay, only the epoch).
type epochRecord struct {
	Gen uint64 `json:"gen"`
}

// SessionState is one live session as persisted in a snapshot.
type SessionState struct {
	Info SessionInfo  `json:"info"`
	Tree quantum.Tree `json:"tree"`
}

// State is the serializable image of the daemon's admission state: the
// ledger (budgets + closure epoch), every live session, and the ID counter.
// Sessions are stored in expiry-heap slice order — a valid binary heap
// restores verbatim, which is what keeps recovered heaps byte-identical to
// the pre-crash ones.
type State struct {
	NextID   uint64              `json:"next_id"`
	Ledger   quantum.LedgerState `json:"ledger"`
	Sessions []SessionState      `json:"sessions"`
}

// durability is the Server's durability runtime; nil when Config.DataDir is
// unset. recs, snapSeq and snapMeta are guarded by the server mutex.
type durability struct {
	dir      string
	log      *wal.Log
	every    uint64
	interval time.Duration
	keep     int

	recs     [][]byte // records staged by the current locked section
	snapSeq  uint64   // WAL seq covered by the newest snapshot
	snapMeta snapshot.Meta

	snapC    chan struct{}
	failed   atomic.Bool
	failure  atomic.Value // error string of the first WAL failure
	snapErrs atomic.Int64

	recovery RecoveryMetrics
}

// appendRecordLocked stages one WAL record for the current locked section.
// Callers hold s.mu; the staged batch is enqueued by enqueueRecordsLocked
// before the section unlocks, so WAL order is mutation order.
func (s *Server) appendRecordLocked(rec walRecord) {
	if s.dur == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		// Records are plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("service: marshal WAL record: %v", err))
	}
	s.dur.recs = append(s.dur.recs, b)
}

// enqueueRecordsLocked hands the staged records to the WAL's group-commit
// goroutine and returns the durability ticket (nil when there is nothing to
// wait for). Still under s.mu, it also arms the count-based snapshot
// trigger.
func (s *Server) enqueueRecordsLocked() *wal.Ticket {
	if s.dur == nil || len(s.dur.recs) == 0 {
		return nil
	}
	t := s.dur.log.Enqueue(s.dur.recs...)
	s.dur.recs = s.dur.recs[:0]
	if s.dur.log.Seq()-s.dur.snapSeq >= s.dur.every {
		select {
		case s.dur.snapC <- struct{}{}:
		default:
		}
	}
	return t
}

// waitDurable blocks until the ticket's records are fsynced. On failure the
// server flips unhealthy: the decisions already applied in memory can no
// longer be promised across a crash.
func (s *Server) waitDurable(t *wal.Ticket) error {
	if t == nil {
		return nil
	}
	err := t.Wait()
	if err != nil {
		s.noteDurabilityFailure(err)
	}
	return err
}

func (s *Server) noteDurabilityFailure(err error) {
	if s.dur != nil && s.dur.failed.CompareAndSwap(false, true) {
		s.dur.failure.Store(err.Error())
	}
}

// StateDump returns the server's current durable state — the same document
// a snapshot would persist. Tests and tools compare recovered servers
// against live ones by comparing marshaled dumps (JSON serialization
// normalizes time.Time monotonic readings away).
func (s *Server) StateDump() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dump()
}

// snapshotLoop is the background snapshotter: it folds the WAL into a fresh
// snapshot every SnapshotEvery records (snapC) or SnapshotInterval, then
// compacts the log and prunes old snapshots.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.dur.snapC:
		case <-s.clock.After(s.dur.interval):
		}
		s.snapshotNow()
	}
}

// snapshotNow takes one snapshot if any records landed since the last one.
// Snapshot failures are counted, not fatal: the WAL still holds everything.
func (s *Server) snapshotNow() {
	s.mu.Lock()
	seq := s.dur.log.Seq() // mutate+enqueue share s.mu, so state == fold(records[:seq])
	// Skip only when a snapshot file actually covers seq: after a WAL-only
	// recovery snapSeq equals the replay end with no snapshot on disk, and
	// writing one here is what lets the WAL finally be compacted.
	if seq == s.dur.snapSeq && s.dur.snapMeta.Path != "" {
		s.mu.Unlock()
		return
	}
	st := s.dump()
	s.mu.Unlock()

	meta, err := snapshot.Save(snapDir(s.dur.dir), seq, s.clock.Now(), st)
	if err != nil {
		s.dur.snapErrs.Add(1)
		return
	}
	s.mu.Lock()
	s.dur.snapSeq = seq
	s.dur.snapMeta = meta
	s.mu.Unlock()
	if _, err := s.dur.log.Compact(seq); err != nil && !errors.Is(err, wal.ErrClosed) {
		s.dur.snapErrs.Add(1)
	}
	if err := snapshot.Prune(snapDir(s.dur.dir), s.dur.keep); err != nil {
		s.dur.snapErrs.Add(1)
	}
}

// Data-directory layout: wal/ (segments), snap/ (snapshots) and
// topology.json + params.json (+ qos.json) (pinned environment).
func walDir(dataDir string) string  { return filepath.Join(dataDir, "wal") }
func snapDir(dataDir string) string { return filepath.Join(dataDir, "snap") }

// refuseSharded fails on a data directory written by the removed sharded
// admission plane, naming the first marker it finds: a pinned
// partition.json, a per-shard WAL stream segment (wal/wal-s*) or a
// per-shard snapshot directory (snap/s*). Replaying such a directory would
// skip every shard's records and boot an empty ledger.
func refuseSharded(dataDir string) error {
	for _, pattern := range []string{"partition.json", "wal/wal-s*", "snap/s*"} {
		found, err := filepath.Glob(filepath.Join(dataDir, filepath.FromSlash(pattern)))
		if err != nil {
			return err
		}
		for _, path := range found {
			// Snapshot files (snap/snap-*) are ours; only directories mark shards.
			if fi, err := os.Stat(path); err == nil && (fi.IsDir() || pattern != "snap/s*") {
				rel, _ := filepath.Rel(dataDir, path)
				return fmt.Errorf("service: %s was written by a sharded daemon (found %s); sharded data directories cannot be recovered",
					dataDir, rel)
			}
		}
	}
	return nil
}

// TopologyPath returns the pinned-topology file inside a data directory.
func TopologyPath(dataDir string) string { return filepath.Join(dataDir, "topology.json") }

// ParamsPath returns the pinned-parameters file inside a data directory.
func ParamsPath(dataDir string) string { return filepath.Join(dataDir, "params.json") }

// QoSPath returns the pinned QoS tenant config inside a data directory.
// Like the topology, the tenant policy is pinned on first durable boot and
// verified on later ones: silently changing weights or quotas under a
// recovering WAL would make per-tenant accounting unexplainable. Operators
// change policy by removing qos.json together with the config change.
func QoSPath(dataDir string) string { return filepath.Join(dataDir, "qos.json") }

// pinEnvironment stores the topology, physical parameters and tenant policy
// in the data directory on first use, and on later boots verifies the
// configured ones match: a WAL replays channel reservations by node ID, so
// recovering onto a different graph would corrupt state silently. A daemon
// without a tenant policy pins no qos.json, so a later restart may add one.
func pinEnvironment(dataDir string, g *graph.Graph, p quantum.Params, policy *qos.Config) error {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	want, err := json.Marshal(g)
	if err != nil {
		return err
	}
	if err := pinFile(TopologyPath(dataDir), want, "topology"); err != nil {
		return err
	}
	wantP, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if err := pinFile(ParamsPath(dataDir), wantP, "params"); err != nil {
		return err
	}
	if policy == nil {
		return nil
	}
	wantQ, err := json.Marshal(policy.Normalized())
	if err != nil {
		return err
	}
	return pinFile(QoSPath(dataDir), wantQ, "qos config")
}

func pinFile(path string, want []byte, what string) error {
	have, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, want, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(normalizeJSON(have), normalizeJSON(want)) {
		return fmt.Errorf("service: configured %s differs from the one pinned in %s; recovery onto a different %s would corrupt state", what, path, what)
	}
	return nil
}

// normalizeJSON compacts a JSON document so pinned files compare by content
// rather than formatting.
func normalizeJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}

// replayState is the durable state: a ledger, session table, expiry heap
// and ID counter. The Server embeds the one it admits against; recovery
// (Server boot and cmd/qrecover) rebuilds one by snapshot restore and WAL
// replay, which drive it exactly like live admission does.
type replayState struct {
	led      *quantum.Ledger
	sessions map[string]*session
	expiry   expiryHeap
	nextID   uint64
}

func newReplayState(g *graph.Graph) *replayState {
	return &replayState{led: quantum.NewLedger(g), sessions: make(map[string]*session)}
}

// restore installs a snapshot's state. The stored session order is the heap
// slice; restoring it verbatim (with heapIdx = position) reproduces the
// exact heap without re-heapifying.
func (rs *replayState) restore(st State) error {
	if err := rs.led.ImportState(st.Ledger); err != nil {
		return err
	}
	rs.nextID = st.NextID
	rs.expiry = make(expiryHeap, 0, len(st.Sessions))
	for i, ss := range st.Sessions {
		if _, dup := rs.sessions[ss.Info.ID]; dup {
			return fmt.Errorf("service: snapshot lists session %q twice", ss.Info.ID)
		}
		sess := &session{info: ss.Info, tree: ss.Tree, expiresAt: ss.Info.ExpiresAt, heapIdx: i}
		rs.sessions[ss.Info.ID] = sess
		rs.expiry = append(rs.expiry, sess)
	}
	return nil
}

// apply replays one WAL record.
func (rs *replayState) apply(seq uint64, payload []byte) error {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("service: WAL record %d: %w", seq, err)
	}
	switch rec.T {
	case recAdmit:
		if rec.Admit == nil {
			return fmt.Errorf("service: WAL record %d: admit without body", seq)
		}
		a := rec.Admit
		if _, dup := rs.sessions[a.Info.ID]; dup {
			return fmt.Errorf("service: WAL record %d admits duplicate session %q", seq, a.Info.ID)
		}
		for _, c := range a.Tree.Channels {
			if err := rs.led.Reserve(c.Nodes); err != nil {
				return fmt.Errorf("service: WAL record %d (admit %s): %w", seq, a.Info.ID, err)
			}
		}
		sess := &session{info: a.Info, tree: a.Tree, expiresAt: a.Info.ExpiresAt}
		rs.sessions[a.Info.ID] = sess
		heap.Push(&rs.expiry, sess)
		if a.NextID > rs.nextID {
			rs.nextID = a.NextID
		}
	case recRelease:
		if rec.Release == nil {
			return fmt.Errorf("service: WAL record %d: release without body", seq)
		}
		sess, ok := rs.sessions[rec.Release.ID]
		if !ok {
			return fmt.Errorf("service: WAL record %d releases unknown session %q", seq, rec.Release.ID)
		}
		heap.Remove(&rs.expiry, sess.heapIdx)
		core.ReleaseTree(rs.led, sess.tree)
		delete(rs.sessions, sess.info.ID)
	case recEpoch:
		if rec.Epoch == nil {
			return fmt.Errorf("service: WAL record %d: epoch without body", seq)
		}
		if err := rs.led.SyncEpoch(rec.Epoch.Gen); err != nil {
			return fmt.Errorf("service: WAL record %d: %w", seq, err)
		}
	default:
		return fmt.Errorf("service: WAL record %d has unknown type %q", seq, rec.T)
	}
	return nil
}

// dump captures the state as a snapshot persists it. A Server's caller
// holds s.mu.
func (rs *replayState) dump() State {
	st := State{
		NextID:   rs.nextID,
		Ledger:   rs.led.ExportState(),
		Sessions: make([]SessionState, len(rs.expiry)),
	}
	for i, sess := range rs.expiry {
		st.Sessions[i] = SessionState{Info: sess.info, Tree: sess.tree}
	}
	return st
}

// Recovered is the result of rebuilding state from a data directory.
type Recovered struct {
	// State is the rebuilt durable state.
	State State
	// SnapshotSeq and SnapshotPath identify the snapshot recovery started
	// from; SnapshotSeq 0 with an empty path means a full-WAL replay.
	SnapshotSeq  uint64
	SnapshotPath string
	// WALRecords is the number of WAL records replayed on top.
	WALRecords uint64
	// NextSeq is the sequence number the next WAL record will take.
	NextSeq uint64

	rs *replayState
}

// Recover rebuilds the admission state recorded in dataDir against g: it
// loads the newest valid snapshot (if any) and replays the WAL suffix on
// top. It never mutates the directory, so it is safe to run offline
// (cmd/qrecover) or repeatedly. A directory written by a sharded daemon is
// refused (refuseSharded).
func Recover(dataDir string, g *graph.Graph) (*Recovered, error) {
	if err := refuseSharded(dataDir); err != nil {
		return nil, err
	}
	rs := newReplayState(g)
	rec := &Recovered{rs: rs}

	var st State
	meta, ok, err := snapshot.Latest(snapDir(dataDir), &st)
	if err != nil {
		return nil, fmt.Errorf("service: load snapshot: %w", err)
	}
	from := uint64(0)
	if ok {
		if err := rs.restore(st); err != nil {
			return nil, fmt.Errorf("service: restore snapshot %s: %w", meta.Path, err)
		}
		from = meta.Seq
		rec.SnapshotSeq = meta.Seq
		rec.SnapshotPath = meta.Path
	}

	apply := func(seq uint64, payload []byte) error {
		rec.WALRecords++
		return rs.apply(seq, payload)
	}
	end, err := wal.Replay(walDir(dataDir), from, apply)
	if err != nil {
		return nil, fmt.Errorf("service: replay WAL: %w", err)
	}
	// A crash can persist a snapshot whose covered WAL tail never became
	// durable; the snapshot already folds those records in, so the next
	// sequence number continues from whichever is further along.
	rec.NextSeq = end
	if from > rec.NextSeq {
		rec.NextSeq = from
	}
	rec.State = rs.dump()
	return rec, nil
}

// openDurability recovers dataDir's state, installs it into the server and
// opens the WAL for appending. Called from New before the goroutines start.
func (s *Server) openDurability(cfg Config) error {
	t0 := time.Now()
	// Refuse a sharded layout before pinning writes anything into it.
	if err := refuseSharded(cfg.DataDir); err != nil {
		return err
	}
	if err := pinEnvironment(cfg.DataDir, cfg.Graph, cfg.Params, cfg.QoS); err != nil {
		return err
	}
	rec, err := Recover(cfg.DataDir, cfg.Graph)
	if err != nil {
		return err
	}
	s.replayState = *rec.rs

	log, err := wal.Create(walDir(cfg.DataDir), rec.NextSeq, wal.Options{NoSync: cfg.NoSync})
	if err != nil {
		return fmt.Errorf("service: open WAL: %w", err)
	}
	s.dur = &durability{
		dir:      cfg.DataDir,
		log:      log,
		every:    uint64(cfg.SnapshotEvery),
		interval: cfg.SnapshotInterval,
		keep:     cfg.SnapshotKeep,
		snapSeq:  rec.NextSeq, // nothing to snapshot until new records land
		snapC:    make(chan struct{}, 1),
		recovery: RecoveryMetrics{
			DurationMs:  float64(time.Since(t0)) / 1e6,
			WALRecords:  int64(rec.WALRecords),
			Sessions:    len(rec.State.Sessions),
			SnapshotSeq: rec.SnapshotSeq,
		},
	}
	if rec.SnapshotPath != "" {
		if meta, err := snapshot.Load(rec.SnapshotPath, nil); err == nil {
			s.dur.snapMeta = meta
		}
	}
	return nil
}

// closeDurability takes a final snapshot (so a clean restart replays
// nothing) and closes the WAL. Called from Close after the loops stopped.
func (s *Server) closeDurability() error {
	if s.dur == nil {
		return nil
	}
	s.snapshotNow()
	if err := s.dur.log.Close(); err != nil {
		s.noteDurabilityFailure(err)
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// RecoveryMetrics describes the boot-time recovery in /metrics.
type RecoveryMetrics struct {
	DurationMs  float64 `json:"duration_ms"`
	WALRecords  int64   `json:"wal_records"`
	Sessions    int     `json:"sessions"`
	SnapshotSeq uint64  `json:"snapshot_seq"`
}

// SnapshotMetrics describes the newest snapshot in /metrics.
type SnapshotMetrics struct {
	Seq      uint64  `json:"seq"`
	AgeMs    float64 `json:"age_ms"`
	Bytes    int64   `json:"bytes"`
	Failures int64   `json:"failures"`
}

// DurabilityMetrics is the /metrics durability section, present only when
// the server runs with a data directory.
type DurabilityMetrics struct {
	// Failed is true once any WAL append failed; healthz reports 503.
	Failed  bool   `json:"failed"`
	Failure string `json:"failure,omitempty"`
	// WALSeq is the next WAL sequence number (records ever logged).
	WALSeq   uint64          `json:"wal_seq"`
	WAL      wal.Metrics     `json:"wal"`
	Snapshot SnapshotMetrics `json:"snapshot"`
	Recovery RecoveryMetrics `json:"recovery"`
}

// durabilityMetrics snapshots the durability section; nil when disabled.
func (s *Server) durabilityMetrics() *DurabilityMetrics {
	if s.dur == nil {
		return nil
	}
	s.mu.Lock()
	meta := s.dur.snapMeta
	seq := s.dur.log.Seq()
	s.mu.Unlock()
	dm := &DurabilityMetrics{
		Failed:   s.dur.failed.Load(),
		WALSeq:   seq,
		WAL:      s.dur.log.Metrics(),
		Recovery: s.dur.recovery,
		Snapshot: SnapshotMetrics{
			Seq:      meta.Seq,
			Bytes:    meta.Size,
			Failures: s.dur.snapErrs.Load(),
		},
	}
	if msg, ok := s.dur.failure.Load().(string); ok {
		dm.Failure = msg
	}
	if !meta.TakenAt.IsZero() {
		dm.Snapshot.AgeMs = float64(s.clock.Now().Sub(meta.TakenAt)) / 1e6
	}
	return dm
}
