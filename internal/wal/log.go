package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options parameterizes a Log.
type Options struct {
	// NoSync skips the per-batch fsync. Only for tests and benchmarks that
	// measure the non-durable baseline: a crash can then lose acknowledged
	// records.
	NoSync bool
}

// segment is one on-disk log file. Its Start is the sequence number of its
// first record; a segment's end is the next segment's start.
type segment struct {
	start uint64
	path  string
}

const segPrefix, segSuffix = "wal-", ".log"

func segmentPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix))
}

// listSegments returns the directory's segments sorted by start sequence.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segs := make([]segment, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		start, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue // foreign file; not ours to interpret
		}
		segs = append(segs, segment{start: start, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, nil
}

// Replay reads every record in the log directory in sequence order, calling
// fn(seq, payload) for each record with seq >= from, and returns the total
// record count (the next sequence number to be assigned).
//
// A torn tail — corruption at the end of the newest segment — is truncated
// silently: the damaged suffix was never acknowledged. Corruption anywhere
// else, or a gap between segments, returns ErrCorruptLog: acknowledged
// records are missing and replaying past them would rebuild wrong state.
// An empty or missing directory replays zero records.
func Replay(dir string, from uint64, fn func(seq uint64, payload []byte) error) (uint64, error) {
	segs, err := listSegments(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, nil
	}
	if segs[0].start != 0 && segs[0].start > from {
		return 0, fmt.Errorf("%w: first segment starts at record %d; records before it were compacted away but no snapshot covers them (recovering from %d)",
			ErrCorruptLog, segs[0].start, from)
	}
	seq := segs[0].start
	for i, seg := range segs {
		if seg.start != seq {
			return 0, fmt.Errorf("%w: segment %s starts at record %d, expected %d (missing records)",
				ErrCorruptLog, filepath.Base(seg.path), seg.start, seq)
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return 0, err
		}
		_, _, scanErr := Scan(f, func(payload []byte) error {
			var err error
			if seq >= from && fn != nil {
				err = fn(seq, payload)
			}
			seq++
			return err
		})
		_ = f.Close()
		if scanErr != nil {
			var corrupt *CorruptError
			if !errAs(scanErr, &corrupt) {
				return 0, scanErr // fn error or I/O failure
			}
			// A torn tail is fine on the last segment. On an older segment it
			// is only fine when the valid prefix exactly meets the next
			// segment's start — the signature of a tail torn by a crash and
			// then sealed by a post-recovery rotation.
			if i == len(segs)-1 {
				return seq, nil
			}
			if seq != segs[i+1].start {
				return 0, fmt.Errorf("%w: %s: %v (valid prefix ends at record %d, next segment starts at %d)",
					ErrCorruptLog, filepath.Base(seg.path), corrupt, seq, segs[i+1].start)
			}
		} else if i < len(segs)-1 && seq != segs[i+1].start {
			return 0, fmt.Errorf("%w: segment %s ends at record %d but %s starts at %d",
				ErrCorruptLog, filepath.Base(seg.path), seq, filepath.Base(segs[i+1].path), segs[i+1].start)
		}
	}
	return seq, nil
}

// errAs is errors.As without dragging the errors import into every call.
func errAs(err error, target **CorruptError) bool {
	for err != nil {
		if ce, ok := err.(*CorruptError); ok {
			*target = ce
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// pend is one enqueued record awaiting the group-commit goroutine.
type pend struct {
	payload []byte
	t       *Ticket
}

// Ticket tracks the durability of one Enqueue call. Wait blocks until every
// record of the call has been written and fsynced (or the log failed).
type Ticket struct {
	ch chan error
}

// Wait blocks until the ticket's records are durable and returns the commit
// error, if any. Wait may be called at most once per ticket.
func (t *Ticket) Wait() error {
	if t == nil {
		return nil
	}
	return <-t.ch
}

// doneTicket returns a pre-resolved ticket carrying err.
func doneTicket(err error) *Ticket {
	ch := make(chan error, 1)
	ch <- err
	return &Ticket{ch: ch}
}

// Log is an append-only record log over a directory of segments, written by
// a single group-commit goroutine. Create it with Create; appenders call
// Enqueue (ordered, non-blocking) and Wait on the returned ticket, or
// Append to do both.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	pending []pend
	seq     uint64 // next sequence number to assign
	closed  bool
	err     error // sticky commit failure

	notify  chan struct{}
	rotateC chan rotateReq
	done    chan struct{}

	// Owned by the committer goroutine.
	f        *os.File
	buf      []byte
	segStart uint64
	written  uint64 // records durably committed (or written, under NoSync)
	errC     error  // committer-local sticky failure, mirrored into err

	m logMetrics
}

type rotateReq struct {
	min  uint64 // rotate only once this many records are committed
	done chan rotateResult
}

type rotateResult struct {
	boundary uint64 // start sequence of the new segment
	err      error
}

// Create opens a log for appending, starting a fresh segment whose first
// record will have sequence number start. Existing segments are left
// untouched (Compact removes them once a snapshot covers them). The
// directory is created if needed.
func Create(dir string, start uint64, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		seq:      start,
		segStart: start,
		written:  start,
		notify:   make(chan struct{}, 1),
		rotateC:  make(chan rotateReq),
		done:     make(chan struct{}),
	}
	f, err := l.newSegment(start)
	if err != nil {
		return nil, err
	}
	l.f = f
	go l.commitLoop()
	return l, nil
}

// newSegment creates (or truncates) the segment file starting at seq and
// writes its header durably. Truncation is safe: Create and rotation only
// ever open a segment name whose records do not exist yet.
func (l *Log) newSegment(seq uint64) (*os.File, error) {
	path := segmentPath(l.dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(headerMagic)); err != nil {
		_ = f.Close()
		return nil, err
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, err
		}
		if err := syncDir(l.dir); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Seq returns the next sequence number to be assigned, i.e. the number of
// records ever enqueued (including recovered history the log was created
// at).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Enqueue stages the given records for the next group commit and returns a
// ticket that resolves once they are durable. Records from one Enqueue are
// contiguous in the log and commit in the same fsync batch. Call order
// under the caller's own serialization is log order — which is how the
// service guarantees WAL order equals its mutation order.
func (l *Log) Enqueue(payloads ...[]byte) *Ticket {
	if len(payloads) == 0 {
		return doneTicket(nil)
	}
	l.mu.Lock()
	if l.closed || l.err != nil {
		err := l.err
		if err == nil {
			err = ErrClosed
		}
		l.mu.Unlock()
		return doneTicket(err)
	}
	t := &Ticket{ch: make(chan error, 1)}
	for _, p := range payloads {
		l.pending = append(l.pending, pend{payload: p, t: t})
	}
	l.seq += uint64(len(payloads))
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
	return t
}

// Append enqueues the records and blocks until they are durable.
func (l *Log) Append(payloads ...[]byte) error {
	return l.Enqueue(payloads...).Wait()
}

// commitLoop is the group-commit goroutine: it drains everything pending,
// writes it, issues one fsync for the whole batch and resolves the batch's
// tickets, then handles any rotation request.
func (l *Log) commitLoop() {
	defer close(l.done)
	var pendingRotate *rotateReq
	for {
		l.mu.Lock()
		batch := l.pending
		l.pending = nil
		closed := l.closed
		l.mu.Unlock()

		if len(batch) > 0 {
			err := l.commit(batch)
			for i := 0; i < len(batch); i++ {
				// Resolve each distinct ticket once (records of one Enqueue
				// share a ticket and are contiguous).
				if i == 0 || batch[i].t != batch[i-1].t {
					batch[i].t.ch <- err
				}
			}
			if err != nil {
				l.errC = err
				l.mu.Lock()
				l.err = err
				l.mu.Unlock()
			}
		}

		if pendingRotate != nil {
			// A sticky commit failure means written can never reach min;
			// fail the rotation instead of leaving Compact blocked.
			if l.errC != nil {
				pendingRotate.done <- rotateResult{err: l.errC}
				pendingRotate = nil
			} else if l.written >= pendingRotate.min {
				pendingRotate.done <- l.rotate()
				pendingRotate = nil
			}
		}

		if closed {
			if pendingRotate != nil {
				pendingRotate.done <- rotateResult{err: ErrClosed}
			}
			if l.f != nil {
				if !l.opts.NoSync {
					_ = l.f.Sync()
				}
				_ = l.f.Close()
			}
			return
		}
		l.mu.Lock()
		idle := len(l.pending) == 0 && !l.closed
		l.mu.Unlock()
		if !idle {
			continue
		}
		select {
		case <-l.notify:
		case r := <-l.rotateC:
			pendingRotate = &r
		}
	}
}

// commit writes one batch of records and fsyncs once.
func (l *Log) commit(batch []pend) error {
	if l.errC != nil {
		return l.errC
	}
	l.buf = l.buf[:0]
	for _, p := range batch {
		l.buf = appendFrame(l.buf, p.payload)
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	if !l.opts.NoSync {
		t0 := time.Now()
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.m.observeSync(time.Since(t0))
	}
	l.written += uint64(len(batch))
	l.m.noteBatch(len(batch), len(l.buf))
	return nil
}

// rotate seals the current segment and starts a new one at the committed
// boundary.
func (l *Log) rotate() rotateResult {
	boundary := l.written
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return rotateResult{err: err}
		}
	}
	if err := l.f.Close(); err != nil {
		return rotateResult{err: err}
	}
	f, err := l.newSegment(boundary)
	if err != nil {
		// The old segment is closed; without a new one the log cannot
		// continue. Poison it.
		l.errC = fmt.Errorf("wal: rotate: %w", err)
		l.mu.Lock()
		l.err = l.errC
		l.mu.Unlock()
		return rotateResult{err: err}
	}
	l.f = f
	l.segStart = boundary
	l.m.rotations.Add(1)
	return rotateResult{boundary: boundary}
}

// Compact rotates to a fresh segment once every record below upTo is
// committed, then deletes the segments made fully redundant by a snapshot
// covering records [0, upTo). It returns the new segment's start sequence.
func (l *Log) Compact(upTo uint64) (uint64, error) {
	req := rotateReq{min: upTo, done: make(chan rotateResult, 1)}
	select {
	case l.rotateC <- req:
	case <-l.done:
		return 0, ErrClosed
	}
	var res rotateResult
	select {
	case res = <-req.done:
	case <-l.done:
		return 0, ErrClosed
	}
	if res.err != nil {
		return 0, res.err
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return res.boundary, err
	}
	// A segment is disposable when its entire range [start, next.start) is
	// at or below the snapshot point. The newest segment is never deleted.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].start <= upTo {
			if err := os.Remove(segs[i].path); err != nil && !os.IsNotExist(err) {
				return res.boundary, err
			}
			l.m.compactions.Add(1)
		}
	}
	return res.boundary, nil
}

// Close flushes everything pending, fsyncs, and stops the group-commit
// goroutine. Enqueues after Close fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// syncDir fsyncs a directory so a freshly created file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer func() { _ = d.Close() }()
	return d.Sync()
}
