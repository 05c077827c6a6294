// Package wal implements the append-only write-ahead log behind the
// admission daemon's durability story (DESIGN.md §7). A log is a directory
// of segment files; each segment is a fixed 8-byte header followed by
// length-prefixed, CRC32C-framed records:
//
//	segment  := header frame*
//	header   := "MUWALv1\n"                      (8 bytes)
//	frame    := len(u32 LE) crc32c(u32 LE) payload
//
// where crc32c is the Castagnoli checksum of the payload bytes. Records
// carry opaque payloads; callers bring their own encoding.
//
// Durability model: Append/Enqueue hand records to a single group-commit
// goroutine that writes every record pending at that moment and issues ONE
// fsync for the whole batch, so N concurrent appenders share one disk
// flush (classic group commit). A record's Ticket resolves only after its
// batch's fsync returns, which is what lets the service uphold its
// write-ahead contract (respond only after durable) without paying one
// fsync per request.
//
// Crash model: a crash can leave a torn suffix — a partially written frame
// at the tail of the newest segment. Scan detects it (short frame, bad
// CRC, zero or oversized length) and reports the byte offset of the valid
// prefix; recovery simply ignores everything past it. Corruption anywhere
// other than the tail of the final segment means records acknowledged as
// durable were lost and is reported as an error, never silently skipped.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// headerMagic opens every segment file and versions the framing.
const headerMagic = "MUWALv1\n"

// HeaderSize is the length of the segment header in bytes.
const HeaderSize = len(headerMagic)

// frameOverhead is the per-record framing cost: u32 length + u32 CRC32C.
const frameOverhead = 8

// MaxRecordSize caps one record's payload. The cap exists so a corrupted
// length field cannot ask Scan for a multi-gigabyte allocation; admission
// records are a few hundred bytes.
const MaxRecordSize = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C (Castagnoli) checksum used by the framing.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// Log errors.
var (
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCorruptLog reports corruption that cannot be explained by a torn
	// tail: a damaged or missing stretch of records that were already
	// acknowledged as durable. Recovery must stop rather than mis-replay.
	ErrCorruptLog = errors.New("wal: corrupt log")
)

// CorruptError describes an invalid frame met while scanning a segment.
// Scanning a crashed log is expected to end with one of these at the torn
// tail; Offset is the byte offset of the valid prefix.
type CorruptError struct {
	// Offset is the length in bytes of the valid prefix before the bad
	// frame (including the segment header).
	Offset int64
	// Reason says what was wrong with the frame.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt frame at offset %d: %s", e.Offset, e.Reason)
}

// Scan reads frames from r, calling fn with each record payload. It returns
// the number of records read and the byte length of the valid prefix.
//
// A clean end of file returns a nil error. A torn or corrupt frame — short
// header, zero or oversized length, short payload, CRC mismatch — returns a
// *CorruptError whose Offset is the valid prefix length; the caller decides
// whether that is an acceptable torn tail (newest segment) or lost data
// (anything else). An error from fn aborts the scan and is returned as is.
// The payload passed to fn is freshly allocated and may be retained.
func Scan(r io.Reader, fn func(payload []byte) error) (records int, valid int64, err error) {
	var hdr [HeaderSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		if err == io.EOF && n == 0 {
			// A zero-byte file: no header yet, no records. Treated as a torn
			// (empty) segment rather than a clean one so callers can tell it
			// apart from a properly initialized empty log.
			return 0, 0, &CorruptError{Offset: 0, Reason: "missing header"}
		}
		return 0, 0, &CorruptError{Offset: 0, Reason: "short header"}
	}
	if string(hdr[:]) != headerMagic {
		return 0, 0, &CorruptError{Offset: 0, Reason: "bad magic"}
	}
	valid = int64(HeaderSize)
	var frame [frameOverhead]byte
	for {
		n, err := io.ReadFull(r, frame[:])
		if err == io.EOF {
			return records, valid, nil
		}
		if err != nil {
			return records, valid, &CorruptError{Offset: valid, Reason: fmt.Sprintf("short frame header (%d bytes)", n)}
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length == 0 {
			return records, valid, &CorruptError{Offset: valid, Reason: "zero-length frame"}
		}
		if length > MaxRecordSize {
			return records, valid, &CorruptError{Offset: valid, Reason: fmt.Sprintf("frame length %d exceeds cap", length)}
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return records, valid, &CorruptError{Offset: valid, Reason: "short payload"}
		}
		if Checksum(payload) != sum {
			return records, valid, &CorruptError{Offset: valid, Reason: "crc mismatch"}
		}
		valid += int64(frameOverhead) + int64(length)
		records++
		if fn != nil {
			if err := fn(payload); err != nil {
				return records, valid, err
			}
		}
	}
}

// appendFrame appends one framed record to buf and returns the result.
func appendFrame(buf, payload []byte) []byte {
	var frame [frameOverhead]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], Checksum(payload))
	buf = append(buf, frame[:]...)
	return append(buf, payload...)
}
