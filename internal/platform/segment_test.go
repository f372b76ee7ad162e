package platform

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
)

// appendJoins journals n worker_joined events through the state, the same
// apply-then-journal path the service uses.
func appendJoins(t *testing.T, s *State, jnl Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.ApplyBatchJournaled([]Event{NewWorkerJoined(validWorker())}, jnl.AppendBatch); err != nil {
			t.Fatal(err)
		}
	}
}

// readAllSegments replays every segment in dir in order and asserts the
// events are sequence-contiguous starting at 1.
func readAllSegments(t *testing.T, dir string) []Event {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []Event
	for _, sg := range segs {
		f, err := os.Open(sg.Path)
		if err != nil {
			t.Fatal(err)
		}
		events, _, dropped := readLogPartialOffset(f)
		f.Close()
		if dropped != nil {
			t.Fatalf("segment %s not clean: %v", sg.Path, dropped)
		}
		if len(events) == 0 || events[0].Seq != sg.FirstSeq {
			t.Fatalf("segment %s name says first seq %d, content starts at %v", sg.Path, sg.FirstSeq, events)
		}
		all = append(all, events...)
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (segments not contiguous)", i, e.Seq, i+1)
		}
	}
	return all
}

func TestSegmentedLogRotatesBySize(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 20)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	segs := sl.Segments()
	if len(segs) < 3 {
		t.Fatalf("20 events with MaxBytes=600 produced only %d segments", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].FirstSeq <= segs[i-1].FirstSeq {
			t.Fatalf("segments out of order: %+v", segs)
		}
	}
	if got := readAllSegments(t, dir); len(got) != 20 {
		t.Fatalf("replayed %d events, want 20", len(got))
	}
	st, _, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, st), stateBytes(t, s)) {
		t.Fatal("recovered state differs from the journaling state")
	}
}

func TestSegmentedLogReopenAppends(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{MaxBytes: 800}
	sl, err := OpenSegmentedLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 7)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	sl2, err := OpenSegmentedLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sl2.Dropped() != nil {
		t.Fatalf("clean directory reported a torn tail: %v", sl2.Dropped())
	}
	appendJoins(t, s, sl2, 7)
	if err := sl2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAllSegments(t, dir); len(got) != 14 {
		t.Fatalf("replayed %d events, want 14", len(got))
	}
}

func TestSegmentedLogHealsTornTailOnOpen(t *testing.T) {
	dir := t.TempDir()
	opts := SegmentOptions{MaxBytes: 1 << 20}
	sl, err := OpenSegmentedLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 5)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage without a newline at the tail.
	segs, _ := listSegments(dir)
	last := segs[len(segs)-1].Path
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":6,"kind":"worker_joi`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sl2, err := OpenSegmentedLog(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sl2.Dropped() == nil {
		t.Fatal("torn tail not reported")
	}
	// The torn bytes must be gone BEFORE new appends land.
	appendJoins(t, s, sl2, 3)
	if err := sl2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAllSegments(t, dir); len(got) != 8 {
		t.Fatalf("replayed %d events, want 8 (5 + 3 after heal)", len(got))
	}
}

// flakyHook tears one scheduled write in half — a transient I/O fault the
// process survives, unlike faultinject.Crasher's power cut.
type flakyHook struct {
	point string
	hit   int
	seen  int
}

func (h *flakyHook) At(string) error { return nil }
func (h *flakyHook) Wrap(point string, w io.Writer) io.Writer {
	if point != h.point {
		return w
	}
	return &flakyTornWriter{h: h, w: w}
}

type flakyTornWriter struct {
	h *flakyHook
	w io.Writer
}

func (fw *flakyTornWriter) Write(p []byte) (int, error) {
	n := fw.h.seen
	fw.h.seen++
	if n != fw.h.hit {
		return fw.w.Write(p)
	}
	k, _ := fw.w.Write(p[:len(p)/2])
	return k, errors.New("flaky: torn write")
}

func TestSegmentedLogTornAppendHealsInPlace(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{
		MaxBytes: 1 << 20,
		Hook:     &flakyHook{point: CrashSegmentWrite, hit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 3)

	// The 4th append tears mid-line; ApplyBatchJournaled must roll it back.
	if _, err := s.ApplyBatchJournaled([]Event{NewWorkerJoined(validWorker())}, sl.AppendBatch); err == nil {
		t.Fatal("torn append reported success")
	}
	if s.Seq() != 3 {
		t.Fatalf("state seq %d after rollback, want 3", s.Seq())
	}

	// Truncate-then-append: the next event reuses the rolled-back seq and
	// lands on a clean line boundary — no garbage in between.
	appendJoins(t, s, sl, 2)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAllSegments(t, dir); len(got) != 5 {
		t.Fatalf("replayed %d events, want 5", len(got))
	}
}

func TestSegmentedLogRetireThrough(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 10)
	snapAt := s.Seq()
	if _, _, err := WriteSnapshot(dir, s, nil); err != nil {
		t.Fatal(err)
	}
	appendJoins(t, s, sl, 10)

	removed, err := sl.RetireThrough(snapAt)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing retired despite a snapshot covering several segments")
	}
	// Only provably-covered segments may go: every survivor's events must
	// still recover the full state on top of the snapshot.
	for _, sg := range sl.Segments() {
		if _, err := os.Stat(sg.Path); err != nil {
			t.Fatalf("listed segment missing on disk: %v", err)
		}
	}
	st, info, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, st), stateBytes(t, s)) {
		t.Fatal("recovery after retirement lost events")
	}
	if info.Snapshot.Seq != snapAt {
		t.Fatalf("recovery used snapshot at seq %d, want %d", info.Snapshot.Seq, snapAt)
	}
}

// recordingSyncer observes the Sync calls FsyncAlways performs.
type recordingSyncer struct{ syncs int }

func (r *recordingSyncer) Sync() error { r.syncs++; return nil }

// TestSegmentedLogFsyncAlwaysReachesFile guards the durability contract of
// -fsync always in segmented mode: the Log's write path hides the segment
// file behind a byte counter (and, under fault injection, a crash
// wrapper), neither of which forwards Sync, so the fsync target must be
// plumbed explicitly — otherwise FsyncAlways silently degrades to
// page-cache durability.
func TestSegmentedLogFsyncAlwaysReachesFile(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{Log: LogOptions{Fsync: FsyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 1) // opens the first segment, building its log chain

	if got, ok := sl.log.opts.Syncer.(*os.File); !ok || got != sl.f {
		t.Fatalf("active segment's sync target is %T, want the segment file", sl.log.opts.Syncer)
	}

	// Per-append fsync actually fires: substitute an observable target.
	rec := &recordingSyncer{}
	sl.log.opts.Syncer = rec
	appendJoins(t, s, sl, 2)
	if rec.syncs != 2 {
		t.Fatalf("FsyncAlways synced %d times over 2 appends, want 2", rec.syncs)
	}

	// Reopening an existing directory plumbs the tail segment the same way.
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	sl2, err := OpenSegmentedLog(dir, SegmentOptions{Log: LogOptions{Fsync: FsyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer sl2.Close()
	if got, ok := sl2.log.opts.Syncer.(*os.File); !ok || got != sl2.f {
		t.Fatalf("reopened segment's sync target is %T, want the segment file", sl2.log.opts.Syncer)
	}
}

// failingSyncer fails every fsync.
type failingSyncer struct{}

func (failingSyncer) Sync() error { return errors.New("injected fsync failure") }

// TestSegmentedLogFsyncFailureHealsToCommitted: a flush whose write lands
// but whose fsync fails is refused and rolled back, so the heal must
// truncate its records away — a restart must not resurrect them.
func TestSegmentedLogFsyncFailureHealsToCommitted(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{Log: LogOptions{Fsync: FsyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	appendJoins(t, s, sl, 2)

	sl.log.opts.Syncer = failingSyncer{}
	if _, err := s.ApplyBatchJournaled([]Event{NewWorkerJoined(validWorker())}, sl.AppendBatch); err == nil {
		t.Fatal("append with a failed fsync reported success")
	}
	if s.Seq() != 2 {
		t.Fatalf("state seq %d after rollback, want 2", s.Seq())
	}
	if sl.Poisoned() {
		t.Fatal("journal still poisoned after heal")
	}
	// The heal re-attached the segment with the file as its sync target.
	appendJoins(t, s, sl, 1)
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.TailDropped != nil {
		t.Fatalf("healed dir still torn: %v", info.TailDropped)
	}
	if !bytes.Equal(stateBytes(t, rec), stateBytes(t, s)) {
		t.Fatal("recovered state differs from the live state")
	}
}
