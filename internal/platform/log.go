package platform

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Journal is the sink Service journals applied events into.  *Log (one
// stream) and *SegmentedLog (rotating directory) both implement it.
// AppendBatch lands the events as one contiguous append — one write, and
// under FsyncAlways one fsync — or, on error, leaves none of them durably
// in the journal.  It is called under the state mutex
// (State.ApplyBatchJournaled), so implementations see events in strictly
// increasing sequence order; a single event arrives as a batch of one.
type Journal interface {
	AppendBatch(events []Event) error
}

// BatchJournal is another name for Journal, kept because the perfbench
// module names it.
type BatchJournal = Journal

// FsyncPolicy selects how hard Append pushes a record toward stable storage.
type FsyncPolicy int

const (
	// FsyncNever trusts the OS page cache: a process crash loses nothing,
	// a machine crash may lose the tail.  The default, and the right
	// trade-off for an experiment platform.
	FsyncNever FsyncPolicy = iota
	// FsyncAlways calls Sync after every append when the underlying
	// writer supports it (*os.File does); a machine crash then loses at
	// most the record being written — exactly the torn tail ReadLogPartial
	// recovers from.
	FsyncAlways
)

// LogOptions tunes the journal's durability behaviour.  The zero value is
// the seed semantics: no fsync, no retries.
type LogOptions struct {
	Fsync FsyncPolicy
	// MaxRetries is how many times a failed Write is retried (the unwritten
	// suffix only) before Append gives up; 0 disables retrying.  Transient
	// full-disk or EINTR-style blips are absorbed here instead of failing a
	// round.
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt; 0 means 1ms.
	RetryBackoff time.Duration
	// Syncer is the fsync target for FsyncAlways when the write path hides
	// the underlying file behind wrappers (byte counters, fault injectors)
	// that don't forward Sync.  Nil falls back to asserting Sync on the
	// writer itself.
	Syncer interface{ Sync() error }
	// Format is ignored: every stream is written binary (binlog.go).
	Format JournalFormat
	// GroupCommit runs Appends through a committer goroutine that
	// coalesces concurrent calls into one write + one fsync
	// (groupcommit.go).  Append stays synchronous for the caller and the
	// poisoning contract is unchanged; a Log with group commit enabled
	// must be Closed to stop the goroutine.
	GroupCommit bool
	// GroupMaxBatch caps how many pending appends one flush absorbs; 0
	// means 128.
	GroupMaxBatch int
	// GroupWindow bounds how long the committer keeps draining newly
	// arriving appends into the current flush; 0 means 2ms.  It is a cap,
	// not a delay: a lone Append flushes immediately.
	GroupWindow time.Duration
}

// ErrLogPoisoned marks a journal that failed partway through a record.
// All later Appends are refused: the file ends mid-record, so appending
// more events would place them *after* the corruption, and recovery —
// which truncates at the first corrupt record — would silently drop them
// while the in-memory state retained them.  Refusing keeps "recovered
// state == applied state minus rolled-back events" true.
var ErrLogPoisoned = errors.New("platform: journal poisoned by a partial line write")

// syncer is the optional durability hook of the underlying writer
// (*os.File implements it).
type syncer interface{ Sync() error }

// ErrLogClosed is returned by Append on a Log whose group committer has
// been stopped (Close, or SegmentedLog sealing the segment out from under
// a racing caller — that path retries on the fresh segment).
var ErrLogClosed = errors.New("platform: log closed")

// Log is an append-only event log in the framed binary format
// (binlog.go).  A torn final record (crash mid-write) is detected and
// reported with its offset rather than silently corrupting a replay.
//
// Without group commit, Log methods are not safe for concurrent use; the
// platform serialises appends under the state mutex
// (State.ApplyBatchJournaled), which is also what keeps journal order
// identical to sequence order.
// With GroupCommit enabled, Append and AppendBatch may be called
// concurrently — the committer serialises the writes.
type Log struct {
	w    io.Writer
	opts LogOptions
	// headerPending is true while the stream still owes its magic;
	// it is fused into the first commit so an empty file never holds a
	// bare header that a torn first record would strand.
	headerPending bool
	// committed counts bytes of fully-successful commits (magic included).
	// Only the committing goroutine advances it; SegmentedLog reads it
	// concurrently — after a failed commit to find the truncation point
	// that removes every byte of the failed flush, and while streaming the
	// active segment to bound reads to never-truncated bytes.
	committed atomic.Int64
	poisoned  atomic.Bool
	gc        *committer
}

// NewLog starts appending to w with zero-value options.  The caller owns
// w's lifecycle (file, buffer, network); Log never closes it.
func NewLog(w io.Writer) *Log { return NewLogWithOptions(w, LogOptions{}) }

// NewLogWithOptions starts appending to w under the given durability
// options, assuming a fresh (empty) stream.
func NewLogWithOptions(w io.Writer, opts LogOptions) *Log {
	return newLogAt(w, opts, false)
}

// newLogAt builds a Log over a stream whose magic is already durable
// (headerWritten) or still owed.
func newLogAt(w io.Writer, opts LogOptions, headerWritten bool) *Log {
	l := &Log{
		w:             w,
		opts:          opts,
		headerPending: !headerWritten,
	}
	if opts.GroupCommit {
		l.gc = newCommitter(l)
	}
	return l
}

// Poisoned reports whether a partial-record failure has made the journal
// unappendable (see ErrLogPoisoned).
func (l *Log) Poisoned() bool { return l.poisoned.Load() }

// Close stops the group-commit worker, flushing whatever it already
// accepted.  The underlying writer stays open (the caller owns it); a Log
// without group commit has nothing to stop and Close is a no-op.  Appends
// after Close return ErrLogClosed.
func (l *Log) Close() error {
	if l.gc != nil {
		l.gc.stop()
	}
	return nil
}

// Append writes one event: a batch of one.
func (l *Log) Append(e Event) error { return l.AppendBatch([]Event{e}) }

// AppendBatch writes events as one contiguous run of records with a
// single write and (under FsyncAlways) a single fsync, retrying transient
// write failures on the unwritten suffix.  An error return means no record
// of the batch is durably in the log: either nothing of it was written
// (retryable — the log stays record-aligned) or the log is poisoned.  A
// poisoned group-commit log may hold whole records of the failed flush
// (other callers' as well as this one's) past the last committed offset;
// every caller in that flush got the error, and SegmentedLog heals by
// truncating to the committed offset so memory and disk agree.
func (l *Log) AppendBatch(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	if l.Poisoned() {
		return ErrLogPoisoned
	}
	var buf []byte
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return fmt.Errorf("platform: event %d: %w", i, err)
		}
		var err error
		if buf, err = appendBinaryRecord(buf, &events[i]); err != nil {
			return fmt.Errorf("platform: event %d: %w", i, err)
		}
	}
	if l.gc != nil {
		return l.gc.commit(buf)
	}
	return l.commitBytes(buf)
}

// committedBytes is the stream offset after the last fully-successful
// commit — the heal target after a failed group flush.  Callers must
// order the read after the failing commit's reply (SegmentedLog does, via
// the committer's done channel).
func (l *Log) committedBytes() int64 { return l.committed.Load() }

// commitBytes is the single point where encoded records reach the writer:
// one write (with the stream magic fused in front when still owed), then
// one fsync per the policy.  Called by AppendBatch directly, or by
// the committer goroutine on coalesced buffers.
func (l *Log) commitBytes(buf []byte) error {
	if l.headerPending {
		withMagic := make([]byte, 0, len(binaryLogMagic)+len(buf))
		withMagic = append(withMagic, binaryLogMagic...)
		buf = append(withMagic, buf...)
	}
	if err := l.write(buf); err != nil {
		return err
	}
	l.headerPending = false
	l.committed.Add(int64(len(buf)))
	if l.opts.Fsync == FsyncAlways {
		s := l.opts.Syncer
		if s == nil {
			s, _ = l.w.(syncer)
		}
		if s != nil {
			if err := s.Sync(); err != nil {
				// The record may or may not have reached the platter; assume
				// the worst so recovery semantics stay conservative.
				l.poisoned.Store(true)
				return fmt.Errorf("platform: fsyncing log: %w", err)
			}
		}
	}
	return nil
}

// write pushes line with bounded retry-with-backoff, always resuming at
// the first unwritten byte so a short write never duplicates a prefix.
func (l *Log) write(line []byte) error {
	backoff := l.opts.RetryBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	n := 0
	for attempt := 0; ; attempt++ {
		k, err := l.w.Write(line[n:])
		n += k
		if n >= len(line) && err == nil {
			return nil
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		if attempt >= l.opts.MaxRetries {
			if n > 0 {
				l.poisoned.Store(true)
				return fmt.Errorf("platform: appending to log: %w (wrote %d/%d bytes; journal poisoned)", err, n, len(line))
			}
			return fmt.Errorf("platform: appending to log: %w", err)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// sniffBinaryLog peeks the stream head and classifies it: a full magic
// means binary (the magic is consumed), anything else starting with 'M'
// is a torn or foreign binary header (JSONL lines begin '{' or are blank,
// never 'M'), the rest is JSONL.
func sniffBinaryLog(br *bufio.Reader) (isBinary bool, headErr error) {
	head, _ := br.Peek(len(binaryLogMagic))
	if len(head) == 0 || head[0] != binaryLogMagic[0] {
		return false, nil
	}
	if len(head) == len(binaryLogMagic) && string(head) == binaryLogMagic {
		_, _ = br.Discard(len(binaryLogMagic))
		return true, nil
	}
	return true, recordCorrupt("torn or foreign binary journal header")
}

// ReadLog parses an event stream, auto-detecting JSONL vs binary framing
// by the stream head.  Every event is validated; sequence numbers must be
// strictly increasing (gaps are allowed — a compacted log keeps original
// numbering).  It accepts exactly what ReadLogPartial recovers from a
// clean stream: any defect the partial reader would drop — including a
// torn tail — is an error.
func ReadLog(r io.Reader) ([]Event, error) {
	events, dropped := ReadLogPartial(r)
	if dropped != nil {
		return nil, dropped
	}
	return events, nil
}

// ReplayLog reads a journal stream and replays it onto a fresh state.
func ReplayLog(numCategories int, r io.Reader) (*State, error) {
	events, err := ReadLog(r)
	if err != nil {
		return nil, err
	}
	return Replay(numCategories, events)
}

// ReadLogPartial is the crash-recovery variant of ReadLog: it returns every
// valid event up to the first corrupted record together with a diagnostic
// describing what was dropped (nil when the log was clean).  A process that
// died mid-Append leaves a torn final record; recovering the valid prefix and
// truncating is the standard journal-recovery policy, and the diagnostic
// lets the operator decide whether a *mid-log* corruption deserves a harder
// look.
func ReadLogPartial(r io.Reader) (events []Event, dropped error) {
	events, _, dropped = readLogPartialOffset(r)
	return events, dropped
}

// readLogPartialOffset is ReadLogPartial plus the byte offset of the end
// of the last fully-valid record — the truncation point that lets a
// reopened journal resume appending on a clean record boundary instead of
// after garbage.
func readLogPartialOffset(r io.Reader) (events []Event, validBytes int64, dropped error) {
	events, validBytes, _, dropped = readLogPartialDetect(r)
	return events, validBytes, dropped
}

// readLogPartialDetect is readLogPartialOffset plus whether the stream
// sniffed as binary — legacy JSONL and binary segments recover through the
// same code path, which is what lets a directory mix formats
// transparently.  For a valid binary stream validBytes includes the
// 8-byte magic; a stream that opens with a torn or foreign binary header
// recovers zero bytes (nothing behind an unverifiable header is
// trustworthy).
func readLogPartialDetect(r io.Reader) (events []Event, validBytes int64, isBinary bool, dropped error) {
	br := bufio.NewReaderSize(r, 64*1024)
	if isBinary, headErr := sniffBinaryLog(br); isBinary {
		if headErr != nil {
			return nil, 0, true, fmt.Errorf("platform: %w: recovered 0 events", headErr)
		}
		events, consumed, dropped := readBinaryLogPartial(br)
		return events, int64(len(binaryLogMagic)) + consumed, true, dropped
	}
	events, validBytes, dropped = readJSONLPartialOffset(br)
	return events, validBytes, false, dropped
}

// readJSONLPartialOffset decodes a legacy JSONL stream, one event per
// line.  A final line lacking its newline is treated as torn even when
// its bytes happen to parse: accepting it while truncation destroys it
// would let memory and disk disagree.
func readJSONLPartialOffset(br *bufio.Reader) (events []Event, validBytes int64, dropped error) {
	lineNo := 0
	var lastSeq uint64
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return events, validBytes, fmt.Errorf("platform: reading log: %w (recovered %d events)", err, len(events))
		}
		if len(line) == 0 {
			return events, validBytes, nil
		}
		lineNo++
		if err == io.EOF {
			return events, validBytes, fmt.Errorf("platform: log line %d torn (no trailing newline): recovered %d events", lineNo, len(events))
		}
		trimmed := bytes.TrimSuffix(line, []byte("\n"))
		if len(trimmed) == 0 {
			validBytes += int64(len(line))
			continue
		}
		var e Event
		if err := json.Unmarshal(trimmed, &e); err != nil {
			return events, validBytes, fmt.Errorf("platform: log line %d corrupt (%v): recovered %d events", lineNo, err, len(events))
		}
		if err := e.Validate(); err != nil {
			return events, validBytes, fmt.Errorf("platform: log line %d invalid (%v): recovered %d events", lineNo, err, len(events))
		}
		if e.Seq != 0 && e.Seq <= lastSeq {
			return events, validBytes, fmt.Errorf("platform: log line %d out of order: recovered %d events", lineNo, len(events))
		}
		if e.Seq != 0 {
			lastSeq = e.Seq
		}
		events = append(events, e)
		validBytes += int64(len(line))
	}
}

// RecoverLog replays the valid prefix of a possibly-torn journal onto a
// fresh state.  The returned diagnostic is non-nil when lines were dropped.
func RecoverLog(numCategories int, r io.Reader) (*State, error, error) {
	events, dropped := ReadLogPartial(r)
	state, err := Replay(numCategories, events)
	return state, err, dropped
}
