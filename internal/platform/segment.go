package platform

// SegmentedLog rotates the append-only journal across
// journal.<firstseq>.mbaj files so checkpointing can retire history: once
// a snapshot covers a whole segment, that segment can be deleted and
// recovery cost becomes O(snapshot + tail) instead of O(history).
//
// Naming: a segment file carries the sequence number of its first event,
// zero-padded so lexical order equals replay order.  Every segment is
// written in the binary format (.mbaj, binlog.go).  Directories written
// before that may still hold legacy .jsonl segments: they are read (by
// content sniffing, not by name) but never appended to — reopening a
// directory whose newest segment is legacy seals it, and the next event
// starts a fresh .mbaj segment.  Events are contiguous across segments
// (sequence numbers never gap within a live journal directory), which is
// what lets retirement reason about a segment's last event from the next
// segment's name alone.
//
// Torn tails are healed by truncate-then-append: both at open (a crash
// mid-append leaves half a record at the end of the newest segment) and
// after a failed in-flight append, the file is truncated back to its last
// valid byte before anything else is written — new events are never
// appended after garbage, so the journal never buries committed events
// behind a corrupt record.  The truncation point is the log's
// committed-bytes offset, which also removes whole records that other
// callers coalesced into the failed flush: every one of those callers got
// the flush's error and rolled back, so their records must not survive
// either.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SegmentOptions tunes rotation and per-segment durability.
type SegmentOptions struct {
	// MaxBytes seals the active segment once it reaches this size;
	// 0 means the default (4 MiB).  Negative disables size rotation.
	MaxBytes int64
	// Log is the per-segment durability policy (fsync, retries).
	Log LogOptions
	// Hook injects simulated crashes (tests only; nil in production).
	Hook CrashHook
}

// DefaultSegmentBytes is the size threshold used when MaxBytes is 0.
const DefaultSegmentBytes = 4 << 20

// SegmentInfo describes one journal segment on disk.
type SegmentInfo struct {
	Path     string `json:"path"`
	FirstSeq uint64 `json:"first_seq"`
	Size     int64  `json:"size"`
}

// ErrSeqRetired is returned by EventsSince when the requested start falls
// before the oldest on-disk segment — the history a follower wants has
// been checkpoint-retired, and it must bootstrap from a snapshot instead.
var ErrSeqRetired = errors.New("platform: requested sequence retired from journal")

// SegmentedLog is a rotating journal over a directory.  It implements
// Journal, and every method is safe for concurrent use: the checkpoint
// manager rotates and retires (Rotate, RetireThrough) while appends run.
// AppendBatch holds the internal mutex only for segment bookkeeping, not
// for the write: the records go through the active segment's Log, where
// concurrent appends coalesce into shared flushes.
type SegmentedLog struct {
	mu   sync.Mutex
	dir  string
	opts SegmentOptions

	f   *os.File // active segment; nil until the first append after a seal
	log *Log
	cur SegmentInfo
	// curBase is the active segment's size when its Log was attached;
	// curBase + log.committedBytes() is always a safe (never-truncated,
	// record-aligned) prefix of the file — the heal target and the
	// streaming read limit.
	curBase int64

	sealed  []SegmentInfo // older segments, ascending FirstSeq
	dropped error         // open-time torn-tail diagnostic, if any
}

// segmentFileName formats the canonical segment name for a first
// sequence number.
func segmentFileName(firstSeq uint64) string {
	return fmt.Sprintf("journal.%020d.mbaj", firstSeq)
}

// parseSegmentSeq inverts segmentFileName, also accepting the legacy
// .jsonl extension; ok is false for foreign files.
func parseSegmentSeq(name string) (uint64, bool) {
	rest, found := strings.CutPrefix(name, "journal.")
	if !found {
		return 0, false
	}
	token, found := strings.CutSuffix(rest, ".jsonl")
	if !found {
		if token, found = strings.CutSuffix(rest, ".mbaj"); !found {
			return 0, false
		}
	}
	return parseSeqToken(token)
}

// listSegments returns dir's journal segments ascending by first
// sequence number, sizes included.
func listSegments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []SegmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, ok := parseSegmentSeq(e.Name())
		if !ok {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, SegmentInfo{Path: filepath.Join(dir, e.Name()), FirstSeq: seq, Size: fi.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].FirstSeq < segs[j].FirstSeq })
	return segs, nil
}

// OpenSegmentedLog opens (creating if needed) a segment directory for
// appending.  If the newest segment ends in a torn record — the signature
// of a crash mid-append — it is truncated back to its last valid byte
// before the file is opened for append; the diagnostic is available via
// Dropped.  A legacy newest segment (a .jsonl name, or JSONL content) is
// healed the same way but then sealed instead of reopened — or removed
// when no event of it is left — so the next append starts a fresh .mbaj
// segment and no encoding is ever appended to a stream of another.
func OpenSegmentedLog(dir string, opts SegmentOptions) (*SegmentedLog, error) {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sl := &SegmentedLog{dir: dir, opts: opts}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return sl, nil
	}
	sl.sealed = segs[:len(segs)-1]
	active := segs[len(segs)-1]

	f, err := os.Open(active.Path)
	if err != nil {
		return nil, err
	}
	events, valid, isBinary, dropped := readLogPartialDetect(f)
	f.Close()
	sl.dropped = dropped
	// An empty or wholly torn .mbaj segment has nothing to sniff and is
	// reused; anything else that is not a binary stream is legacy.
	legacy := !strings.HasSuffix(active.Path, ".mbaj") || (valid > 0 && !isBinary)
	if valid < active.Size {
		// Truncate-then-append: drop the torn tail before the first new
		// event can land after it.
		if hook := opts.Hook; hook != nil {
			if err := hook.At(CrashSegmentHeal); err != nil {
				return nil, fmt.Errorf("platform: healing segment %s: %w", active.Path, err)
			}
		}
		if err := os.Truncate(active.Path, valid); err != nil {
			return nil, fmt.Errorf("platform: healing segment %s: %w", active.Path, err)
		}
		active.Size = valid
	}
	if legacy {
		if len(events) > 0 {
			sl.sealed = append(sl.sealed, active)
			return sl, nil
		}
		// No event of it survives; left in place it would share its first
		// sequence number with the .mbaj segment the next append creates.
		if err := os.Remove(active.Path); err != nil {
			return nil, fmt.Errorf("platform: removing empty segment %s: %w", active.Path, err)
		}
		fsyncDir(dir)
		return sl, nil
	}
	if f, err = os.OpenFile(active.Path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	sl.attach(f, active)
	return sl, nil
}

// attach installs f as the active segment and builds its Log chain:
// Log → crash-hook wrapper → byte counter → file, so the counter sees
// exactly the bytes that reached the file (torn halves included).  The
// file itself is plumbed as the Log's fsync target: the wrappers don't
// forward Sync, and FsyncAlways must reach the file, not a counter.
// info.Size must be the file's current (valid) size; a nonzero size
// proves the stream magic is already on disk.
func (sl *SegmentedLog) attach(f *os.File, info SegmentInfo) {
	sl.f = f
	sl.cur = info
	sl.curBase = info.Size
	var w io.Writer = &countingWriter{w: f, n: &sl.cur.Size}
	if sl.opts.Hook != nil {
		w = sl.opts.Hook.Wrap(CrashSegmentWrite, w)
	}
	logOpts := sl.opts.Log
	logOpts.Syncer = f
	sl.log = newLogAt(w, logOpts, info.Size > 0)
}

// countingWriter tracks bytes that actually reached the underlying
// writer.  The count is updated atomically: the flush leader writes
// without the segment mutex while bookkeeping readers hold it.
type countingWriter struct {
	w io.Writer
	n *int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	k, err := c.w.Write(p)
	atomic.AddInt64(c.n, int64(k))
	return k, err
}

// Dir returns the segment directory.
func (sl *SegmentedLog) Dir() string { return sl.dir }

// Poisoned reports whether the active segment's log is poisoned (a torn
// write that could not be healed).
func (sl *SegmentedLog) Poisoned() bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.log != nil && sl.log.Poisoned()
}

// Append journals one event: a batch of one.
func (sl *SegmentedLog) Append(e Event) error { return sl.AppendBatch([]Event{e}) }

// AppendBatch journals a batch as one contiguous write (and one fsync)
// in the active segment, rotating segments per the options; a batch never
// spans a segment boundary.  The mutex is not held across the write, so
// concurrent appends coalesce in the segment's Log.  If the segment is
// sealed out from under a caller (rotation racing an append) the caller
// retries on the fresh segment.  A torn write is healed in place — the
// file is truncated back to the last committed offset, so the
// (rolled-back) batch leaves no bytes behind and the next append lands on
// a clean record boundary.  The error is still returned: the caller's
// rollback contract is unchanged.
func (sl *SegmentedLog) AppendBatch(events []Event) error {
	if len(events) == 0 {
		return nil
	}
	for {
		sl.mu.Lock()
		if err := sl.ensureActiveLocked(events[0].Seq); err != nil {
			sl.mu.Unlock()
			return err
		}
		log := sl.log
		sl.mu.Unlock()

		err := log.AppendBatch(events)
		if errors.Is(err, ErrLogClosed) {
			// Sealed between our bookkeeping and the commit; the fresh
			// segment has an open Log.
			continue
		}

		sl.mu.Lock()
		defer sl.mu.Unlock()
		if err != nil {
			if log == sl.log && log.Poisoned() {
				sl.heal()
			}
			return err
		}
		if log == sl.log {
			sl.afterAppendLocked()
		}
		return nil
	}
}

// ensureActiveLocked opens a fresh segment named after the incoming
// event when none is active.
func (sl *SegmentedLog) ensureActiveLocked(firstSeq uint64) error {
	if sl.f != nil {
		return nil
	}
	if hook := sl.opts.Hook; hook != nil {
		// The mid-rotation power-cut point: the previous segment is
		// sealed, the next does not exist yet.
		if err := hook.At(CrashSegmentRotate); err != nil {
			return fmt.Errorf("platform: rotating segment: %w", err)
		}
	}
	path := filepath.Join(sl.dir, segmentFileName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("platform: creating segment: %w", err)
	}
	sl.attach(f, SegmentInfo{Path: path, FirstSeq: firstSeq})
	return nil
}

// afterAppendLocked does the post-append bookkeeping: size-threshold
// rotation.
func (sl *SegmentedLog) afterAppendLocked() {
	if sl.opts.MaxBytes > 0 && atomic.LoadInt64(&sl.cur.Size) >= sl.opts.MaxBytes {
		// The events are durably appended; a Sync failure delays rotation
		// (retried at the next append) and a Close failure has already
		// detached the synced segment, so surface nothing either way.
		_ = sl.sealLocked()
	}
}

// heal truncates the active segment back to its committed offset after a
// failed flush and un-poisons the inner Log.  Everything of the failed
// flush goes (all its callers were refused and rolled back), everything
// of earlier successful flushes stays; poisoning is sticky, so no later
// flush can have moved the file past the tear.  A crashed process cannot
// heal — the hook's At(CrashSegmentHeal) models that — in which case the
// log stays poisoned and the torn tail is left for open-time recovery to
// remove.
func (sl *SegmentedLog) heal() {
	if hook := sl.opts.Hook; hook != nil {
		if err := hook.At(CrashSegmentHeal); err != nil {
			return
		}
	}
	offset := sl.curBase + sl.log.committedBytes()
	if err := sl.f.Truncate(offset); err != nil {
		return
	}
	atomic.StoreInt64(&sl.cur.Size, offset)
	// Rebuild the log chain: same file, fresh (unpoisoned) Log.
	sl.attach(sl.f, sl.cur)
}

// sealLocked syncs and closes the active segment, adding it to the
// sealed list.  The next Append opens a fresh segment named after its
// event.  The Log is closed first, which waits for every append it
// already accepted — records therefore never land after the seal's fsync
// without their own.
func (sl *SegmentedLog) sealLocked() error {
	if sl.f == nil {
		return nil
	}
	sl.log.Close()
	if err := sl.f.Sync(); err != nil {
		return err
	}
	// The data is durable once Sync succeeds, so even a failed Close
	// detaches the file: keeping a dead fd attached would poison every
	// later Append (and heal's Truncate on it) until restart, whereas
	// detaching just makes the next Append open a fresh segment.
	err := sl.f.Close()
	done := sl.cur
	done.Size = atomic.LoadInt64(&sl.cur.Size)
	sl.sealed = append(sl.sealed, done)
	sl.f, sl.log = nil, nil
	sl.cur = SegmentInfo{}
	return err
}

// Rotate seals the active segment now (checkpoint policy: the tail that
// postdates a snapshot starts on a fresh segment).  A nil error with no
// active segment is a no-op.
func (sl *SegmentedLog) Rotate() error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.sealLocked()
}

// RetireThrough deletes sealed segments whose every event is ≤ seq —
// i.e. fully covered by a snapshot at seq.  A segment's last event is
// inferred from the next segment's first (events are contiguous), so the
// newest sealed segment is only retired when an active segment exists to
// bound it.  Returns how many segments were removed.
func (sl *SegmentedLog) RetireThrough(seq uint64) (int, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	removed := 0
	for len(sl.sealed) > 0 {
		var nextFirst uint64
		switch {
		case len(sl.sealed) > 1:
			nextFirst = sl.sealed[1].FirstSeq
		case sl.f != nil:
			nextFirst = sl.cur.FirstSeq
		default:
			nextFirst = 0
		}
		if nextFirst == 0 || nextFirst-1 > seq {
			break
		}
		if err := os.Remove(sl.sealed[0].Path); err != nil {
			return removed, err
		}
		removed++
		sl.sealed = sl.sealed[1:]
	}
	if removed > 0 {
		fsyncDir(sl.dir)
	}
	return removed, nil
}

// Segments returns the on-disk segments, sealed first then active,
// ascending by first sequence number.
func (sl *SegmentedLog) Segments() []SegmentInfo {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	out := append([]SegmentInfo(nil), sl.sealed...)
	if sl.f != nil {
		// Field by field: the flush leader bumps Size atomically outside
		// the mutex, so a plain struct copy would race with it.
		out = append(out, SegmentInfo{Path: sl.cur.Path, FirstSeq: sl.cur.FirstSeq, Size: atomic.LoadInt64(&sl.cur.Size)})
	}
	return out
}

// EventsSince returns every journaled event with sequence ≥ from, read
// from the on-disk segments — the primary side of follower streaming.
// Reads of the active segment stop at its committed-bytes offset, so an
// in-flight (and possibly doomed) flush is never served to a follower;
// sealed segments are read whole.  ErrSeqRetired means from
// predates the oldest segment and the caller needs a snapshot bootstrap.
func (sl *SegmentedLog) EventsSince(from uint64) ([]Event, error) {
	sl.mu.Lock()
	segs := append([]SegmentInfo(nil), sl.sealed...)
	if sl.f != nil {
		// Field by field, as in Segments: a struct copy would read Size
		// under the flush leader's atomic writes.
		segs = append(segs, SegmentInfo{Path: sl.cur.Path, FirstSeq: sl.cur.FirstSeq, Size: sl.curBase + sl.log.committedBytes()})
	}
	sl.mu.Unlock()

	if len(segs) == 0 {
		return nil, nil
	}
	if from < segs[0].FirstSeq && segs[0].FirstSeq > 1 {
		return nil, fmt.Errorf("%w: oldest on-disk sequence is %d, requested %d",
			ErrSeqRetired, segs[0].FirstSeq, from)
	}
	var out []Event
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].FirstSeq <= from {
			continue // every event here is < from
		}
		f, err := os.Open(seg.Path)
		if err != nil {
			if os.IsNotExist(err) {
				// Retired between the listing and the read.
				return nil, fmt.Errorf("%w: segment %s removed mid-read", ErrSeqRetired, seg.Path)
			}
			return nil, err
		}
		events, _, dropped := readLogPartialOffset(io.LimitReader(f, seg.Size))
		f.Close()
		if dropped != nil && i+1 < len(segs) {
			// A defect inside a sealed segment is real corruption, not an
			// in-flight append; refuse to stream past it.
			return nil, fmt.Errorf("platform: streaming segment %s: %w", seg.Path, dropped)
		}
		for _, e := range events {
			if e.Seq >= from {
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// Sync flushes the active segment to stable storage.
func (sl *SegmentedLog) Sync() error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.f == nil {
		return nil
	}
	return sl.f.Sync()
}

// Close syncs and closes the active segment.  The log remains usable —
// a later Append simply opens a new segment — but Close is intended as
// the shutdown call.
func (sl *SegmentedLog) Close() error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.sealLocked()
}
