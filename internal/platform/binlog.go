package platform

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/market"
)

// Binary journal format ("MBAJRNL", version 1).
//
// Every journal stream is written in this format.  It replaced the seed's
// JSONL journal, which paid json.Marshal on the hot ingest path and
// carried field names on every record; the binary format keeps the same
// append-only, truncate-at-first-defect discipline while being ~5×
// smaller and an order of magnitude cheaper to encode.  A stream is the
// 8-byte magic followed by records framed exactly like the snapshot
// format (snapshot.go):
//
//	kind(1) | len(uint32 LE) | payload | crc32c(uint32 LE)
//
// where the CRC (Castagnoli, like the snapshot frames) covers kind+len+
// payload.  Record kinds map one-to-one onto EventKind: 'W' worker_joined,
// 'L' worker_left, 'T' task_posted, 'C' task_closed, 'R' round_closed.
// Every payload starts with the event's sequence number (uint64 LE); the
// rest is kind-specific:
//
//	'W': id(i64) capacity(i64) reservation_wage(f64)
//	     nacc(u32) accuracy[nacc](f64) nint(u32) interest[nint](f64)
//	     nspec(u32) specialties[nspec](i32)
//	'T': id(i64) category(i32) replication(i32) payment(f64) difficulty(f64)
//	'L','C': id(i64)
//	'R': round(i64)
//	'E': epoch(u64)
//
// All integers and float bit patterns are little-endian.  Accuracy and
// interest lengths are encoded independently so the codec round-trips any
// Event the JSONL reader accepts, even shapes the state layer would reject.
//
// Legacy JSONL streams stay readable: readers auto-detect the format per
// stream, and since JSONL lines always begin with '{' (or a blank line),
// never 'M', the first byte disambiguates — see readLogPartialDetect.
// A defect (bad CRC, short frame, foreign bytes) wraps ErrRecordCorrupt;
// partial readers keep the valid prefix before it, exactly like the JSONL
// torn-tail rules.

// binaryLogMagic opens every binary journal stream; the final byte is the
// format version.
const binaryLogMagic = "MBAJRNL\x01"

// maxBinaryRecord caps a record payload, same bound as snapshot frames: a
// length field beyond it is treated as corruption, not an allocation
// request.
const maxBinaryRecord = 1 << 24

// Binary record kinds (the frame's kind byte).
const (
	binKindWorkerJoined = byte('W')
	binKindWorkerLeft   = byte('L')
	binKindTaskPosted   = byte('T')
	binKindTaskClosed   = byte('C')
	binKindRoundClosed  = byte('R')
	binKindEpochBumped  = byte('E')
)

// ErrRecordCorrupt marks any defect in a binary journal stream — bad
// magic, bad CRC, truncated frame, impossible payload.  Wrapped errors
// carry the specifics.
var ErrRecordCorrupt = errors.New("platform: binary journal record corrupt")

// binlogCRC is the Castagnoli table shared with the snapshot format.
var binlogCRC = crc32.MakeTable(crc32.Castagnoli)

func recordCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRecordCorrupt, fmt.Sprintf(format, args...))
}

// JournalFormat is the type of LogOptions.Format, which is ignored:
// every stream is written binary.
type JournalFormat int

// FormatBinary names the encoding above, the only one ever written.
// Setting LogOptions.Format to it is a no-op.
const FormatBinary JournalFormat = 1

// appendBinaryRecord encodes e as one framed binary record onto dst.
func appendBinaryRecord(dst []byte, e *Event) ([]byte, error) {
	var kind byte
	start := len(dst)
	// Reserve the header; the length is patched once the payload is known.
	dst = append(dst, 0, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
	switch e.Kind {
	case EventWorkerJoined:
		kind = binKindWorkerJoined
		w := e.Worker
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(w.ID)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(w.Capacity)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.ReservationWage))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w.Accuracy)))
		for _, v := range w.Accuracy {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w.Interest)))
		for _, v := range w.Interest {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w.Specialties)))
		for _, s := range w.Specialties {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(s)))
		}
	case EventWorkerLeft:
		kind = binKindWorkerLeft
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(*e.WorkerID)))
	case EventTaskPosted:
		kind = binKindTaskPosted
		t := e.Task
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(t.ID)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(t.Category)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(t.Replication)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Payment))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Difficulty))
	case EventTaskClosed:
		kind = binKindTaskClosed
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(*e.TaskID)))
	case EventRoundClosed:
		kind = binKindRoundClosed
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(*e.Round)))
	case EventEpochBumped:
		kind = binKindEpochBumped
		dst = binary.LittleEndian.AppendUint64(dst, *e.Epoch)
	default:
		return dst[:start], fmt.Errorf("platform: cannot binary-encode event kind %q", e.Kind)
	}
	payloadLen := len(dst) - start - 5
	if payloadLen > maxBinaryRecord {
		return dst[:start], fmt.Errorf("platform: binary record payload %d bytes exceeds limit", payloadLen)
	}
	dst[start] = kind
	binary.LittleEndian.PutUint32(dst[start+1:start+5], uint32(payloadLen))
	crc := crc32.Update(0, binlogCRC, dst[start:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return dst, nil
}

// binCursor is a bounds-checked little-endian payload reader.  Overruns
// set bad instead of panicking; the caller checks once at the end.
type binCursor struct {
	b   []byte
	off int
	bad bool
}

func (c *binCursor) u32() uint32 {
	if c.off+4 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *binCursor) u64() uint64 {
	if c.off+8 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *binCursor) i64() int64   { return int64(c.u64()) }
func (c *binCursor) i32() int32   { return int32(c.u32()) }
func (c *binCursor) f64() float64 { return math.Float64frombits(c.u64()) }

// floats reads a count-prefixed float64 array.  The count is sanity-bounded
// by the remaining payload before allocating.
func (c *binCursor) floats() []float64 {
	n := int(c.u32())
	if c.bad || n < 0 || c.off+8*n > len(c.b) {
		c.bad = true
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = c.f64()
	}
	return out
}

func (c *binCursor) ints32() []int {
	n := int(c.u32())
	if c.bad || n < 0 || c.off+4*n > len(c.b) {
		c.bad = true
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(c.i32())
	}
	return out
}

// decodeBinaryPayload rebuilds an Event from one record's kind byte and
// payload.  The payload must be consumed exactly; trailing bytes are
// corruption (a CRC collision or an encoder bug, either way untrustworthy).
func decodeBinaryPayload(kind byte, payload []byte) (Event, error) {
	c := &binCursor{b: payload}
	var e Event
	e.Seq = c.u64()
	switch kind {
	case binKindWorkerJoined:
		w := market.Worker{
			ID:              int(c.i64()),
			Capacity:        int(c.i64()),
			ReservationWage: c.f64(),
			Accuracy:        c.floats(),
			Interest:        c.floats(),
			Specialties:     c.ints32(),
		}
		e.Kind, e.Worker = EventWorkerJoined, &w
	case binKindWorkerLeft:
		id := int(c.i64())
		e.Kind, e.WorkerID = EventWorkerLeft, &id
	case binKindTaskPosted:
		t := market.Task{
			ID:          int(c.i64()),
			Category:    int(c.i32()),
			Replication: int(c.i32()),
			Payment:     c.f64(),
			Difficulty:  c.f64(),
		}
		e.Kind, e.Task = EventTaskPosted, &t
	case binKindTaskClosed:
		id := int(c.i64())
		e.Kind, e.TaskID = EventTaskClosed, &id
	case binKindRoundClosed:
		round := int(c.i64())
		e.Kind, e.Round = EventRoundClosed, &round
	case binKindEpochBumped:
		epoch := c.u64()
		e.Kind, e.Epoch = EventEpochBumped, &epoch
	default:
		return Event{}, recordCorrupt("unknown record kind 0x%02x", kind)
	}
	if c.bad {
		return Event{}, recordCorrupt("payload for kind %q truncated (%d bytes)", kind, len(payload))
	}
	if c.off != len(payload) {
		return Event{}, recordCorrupt("payload for kind %q has %d trailing bytes", kind, len(payload)-c.off)
	}
	return e, nil
}

// readBinaryRecord reads one framed record.  A clean end-of-stream at a
// frame boundary returns io.EOF; any other defect wraps ErrRecordCorrupt.
// size is the full on-disk footprint of the record (header+payload+CRC).
func readBinaryRecord(br *bufio.Reader) (e Event, size int64, err error) {
	var hdr [5]byte
	n, err := io.ReadFull(br, hdr[:])
	if n == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return Event{}, 0, io.EOF
	}
	if err != nil {
		return Event{}, 0, recordCorrupt("truncated record header (%d of 5 bytes)", n)
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr[1:]))
	if payloadLen > maxBinaryRecord {
		return Event{}, 0, recordCorrupt("payload length %d exceeds limit", payloadLen)
	}
	body := make([]byte, payloadLen+4)
	if k, err := io.ReadFull(br, body); err != nil {
		return Event{}, 0, recordCorrupt("truncated record body (%d of %d bytes)", k, len(body))
	}
	payload := body[:payloadLen]
	wantCRC := binary.LittleEndian.Uint32(body[payloadLen:])
	crc := crc32.Update(0, binlogCRC, hdr[:])
	crc = crc32.Update(crc, binlogCRC, payload)
	if crc != wantCRC {
		return Event{}, 0, recordCorrupt("CRC mismatch (stored %08x, computed %08x)", wantCRC, crc)
	}
	e, err = decodeBinaryPayload(hdr[0], payload)
	if err != nil {
		return Event{}, 0, err
	}
	return e, int64(5 + payloadLen + 4), nil
}

// readBinaryLogPartial consumes framed records after the magic has been
// stripped, stopping at the first defect.  consumed counts the bytes of
// fully-valid records only (not the magic); dropped is nil for a clean
// stream.  Mirrors the JSONL partial-read rules: validated events, Seq
// strictly increasing when nonzero.
func readBinaryLogPartial(br *bufio.Reader) (events []Event, consumed int64, dropped error) {
	var lastSeq uint64
	for {
		e, size, err := readBinaryRecord(br)
		if err == io.EOF {
			return events, consumed, nil
		}
		if err != nil {
			return events, consumed, fmt.Errorf("platform: binary log record %d: %w: recovered %d events",
				len(events)+1, err, len(events))
		}
		if err := e.Validate(); err != nil {
			return events, consumed, fmt.Errorf("platform: binary log record %d invalid (%v): recovered %d events",
				len(events)+1, err, len(events))
		}
		if e.Seq != 0 && e.Seq <= lastSeq {
			return events, consumed, fmt.Errorf("platform: binary log record %d out of order: recovered %d events",
				len(events)+1, len(events))
		}
		if e.Seq != 0 {
			lastSeq = e.Seq
		}
		events = append(events, e)
		consumed += size
	}
}
