package platform

// Group-commit tests: concurrent appends coalesce without losing or
// reordering anything durable, a torn flush poisons exactly like a lone
// torn append, Close waits for the flush in flight, and the segmented heal
// removes every byte of a failed flush while keeping every acked record.
// The property test is the core guarantee: under a flaky writer, whatever
// was acked is recoverable and the recovered stream is byte-identical to
// a serial re-append.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// groupWorker returns a valid worker event tagged with a unique ID so
// concurrent appends are distinguishable after recovery.  Seq stays 0:
// concurrent callers interleave in arbitrary order and the readers only
// enforce monotonicity for nonzero sequences.
func groupWorker(id int) Event {
	w := validWorker()
	w.ID = id
	return NewWorkerJoined(w)
}

// gatedWriter records every write and holds the first one until release
// is closed, so a test can queue appenders behind a flush in flight.
type gatedWriter struct {
	entered chan struct{} // closed once the first write is in progress
	release chan struct{}
	writes  [][]byte
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.writes = append(g.writes, append([]byte(nil), p...))
	if len(g.writes) == 1 {
		close(g.entered)
		<-g.release
	}
	return len(p), nil
}

// waitLog polls l under its mutex until cond holds.
func waitLog(t *testing.T, l *Log, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.mu.Lock()
		ok := cond()
		l.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitCoalescesBehindFlush blocks the first flush of a plain
// NewLog, queues n appenders behind it and releases: the queue drains in
// flushes of at most groupCommitMax appends, the first queued caller
// leading with its own record in front.
func TestGroupCommitCoalescesBehindFlush(t *testing.T) {
	for _, tc := range []struct {
		queued int
		want   []int // records per write after the gated first one
	}{
		{queued: 8, want: []int{8}},
		{queued: groupCommitMax + 72, want: []int{groupCommitMax, 72}},
	} {
		t.Run(fmt.Sprintf("queued%d", tc.queued), func(t *testing.T) {
			g := newGatedWriter()
			l := NewLog(g)
			first := make(chan error, 1)
			go func() { first <- l.Append(groupWorker(1)) }()
			<-g.entered

			errs := make(chan error, tc.queued)
			for i := 0; i < tc.queued; i++ {
				go func(id int) { errs <- l.Append(groupWorker(id)) }(i + 2)
			}
			waitLog(t, l, "appenders to queue", func() bool { return len(l.queue) == tc.queued })
			close(g.release)

			if err := <-first; err != nil {
				t.Fatalf("gated append: %v", err)
			}
			for i := 0; i < tc.queued; i++ {
				if err := <-errs; err != nil {
					t.Fatalf("queued append: %v", err)
				}
			}
			if len(g.writes) != 1+len(tc.want) {
				t.Fatalf("%d writes, want %d", len(g.writes), 1+len(tc.want))
			}
			for i, want := range tc.want {
				flush := append([]byte(binaryLogMagic), g.writes[i+1]...)
				events, err := ReadLog(bytes.NewReader(flush))
				if err != nil {
					t.Fatalf("write %d: %v", i+1, err)
				}
				if len(events) != want {
					t.Fatalf("write %d carried %d records, want %d", i+1, len(events), want)
				}
			}
			events, err := ReadLog(bytes.NewReader(bytes.Join(g.writes, nil)))
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != tc.queued+1 {
				t.Fatalf("recovered %d events, want %d", len(events), tc.queued+1)
			}
		})
	}
}

// TestGroupCommitCloseWaitsForFlush: Close blocks while a flush is in
// flight, appends from the moment it starts are refused, and the flush it
// waited for is still acked and durable.
func TestGroupCommitCloseWaitsForFlush(t *testing.T) {
	g := newGatedWriter()
	l := NewLog(g)
	first := make(chan error, 1)
	go func() { first <- l.Append(groupWorker(1)) }()
	<-g.entered

	closed := make(chan struct{})
	go func() {
		l.Close()
		close(closed)
	}()
	waitLog(t, l, "Close to start", func() bool { return l.closed })
	select {
	case <-closed:
		t.Fatal("Close returned while a flush was in flight")
	default:
	}
	if err := l.Append(groupWorker(2)); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append during Close: %v, want ErrLogClosed", err)
	}

	close(g.release)
	<-closed
	if err := <-first; err != nil {
		t.Fatalf("flush Close waited for: %v", err)
	}
	if err := l.Append(groupWorker(3)); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after Close: %v, want ErrLogClosed", err)
	}
	events, err := ReadLog(bytes.NewReader(bytes.Join(g.writes, nil)))
	if err != nil || len(events) != 1 {
		t.Fatalf("recovered %d events (%v), want 1", len(events), err)
	}
}

// TestGroupCommitStartsNoGoroutine: a Log commits on its callers'
// goroutines, so building one and appending leaves the goroutine count
// where it was.  Goroutines left over from earlier tests may still be
// exiting, so a drop is tolerated and a rise is retried a few times
// before it fails.
func TestGroupCommitStartsNoGoroutine(t *testing.T) {
	var before, after int
	for attempt := 0; attempt < 5; attempt++ {
		var buf bytes.Buffer
		before = runtime.NumGoroutine()
		l := NewLog(&buf)
		if err := l.Append(groupWorker(1)); err != nil {
			t.Fatal(err)
		}
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
	}
	t.Fatalf("NewLog + Append: %d goroutines, %d before", after, before)
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		const goroutines, perG = 8, 50
		var buf bytes.Buffer
		l := NewLog(&buf)
		var wg sync.WaitGroup
		errs := make(chan error, goroutines*perG)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					if err := l.Append(groupWorker(g*perG + i + 1)); err != nil {
						errs <- fmt.Errorf("append %d/%d: %w", g, i, err)
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		events, err := ReadLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("log corrupt after concurrent group commit: %v", err)
		}
		if len(events) != goroutines*perG {
			t.Fatalf("recovered %d events, want %d", len(events), goroutines*perG)
		}
		seen := map[int]bool{}
		for _, e := range events {
			if seen[e.Worker.ID] {
				t.Fatalf("worker %d journaled twice", e.Worker.ID)
			}
			seen[e.Worker.ID] = true
		}
	})
}

func TestGroupCommitClosedAndPoisoned(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(&buf)
	if err := l.Append(groupWorker(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(groupWorker(2)); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after close: %v, want ErrLogClosed", err)
	}

	// A torn first flush (the magic is fused into it) poisons: later
	// appends are refused without IO and nothing of the stream is
	// recoverable.
	var torn bytes.Buffer
	fw := faultinject.NewFlakyWriter(&torn, faultinject.Once(0))
	fw.Partial = true
	lp := NewLog(fw)
	if err := lp.Append(groupWorker(1)); err == nil {
		t.Fatal("torn flush reported success")
	}
	if !lp.Poisoned() {
		t.Fatal("torn flush did not poison")
	}
	ops := fw.Ops()
	if err := lp.Append(groupWorker(2)); !errors.Is(err, ErrLogPoisoned) {
		t.Fatalf("append on poisoned log: %v, want ErrLogPoisoned", err)
	}
	if fw.Ops() != ops {
		t.Fatal("poisoned log still reached the writer")
	}
	if lp.committedBytes() != 0 {
		t.Fatalf("committed bytes %d after a fully-failed stream", lp.committedBytes())
	}
	events, _ := ReadLogPartial(bytes.NewReader(torn.Bytes()))
	if len(events) != 0 {
		t.Fatalf("recovered %d events from behind a torn header", len(events))
	}
	lp.Close()
}

// TestGroupCommitFlakyProperty is the durability property under a
// randomly tearing writer: N goroutines append M events each with no
// retries; once the stream tears the log poisons and everyone else is
// refused.  Afterwards (a) every acked event is recoverable, and (b) the
// recovered events re-appended serially reproduce the valid prefix
// byte-for-byte — group commit changes batching, never bytes.
func TestGroupCommitFlakyProperty(t *testing.T) {
	const goroutines, perG = 6, 60
	sawInjection := false
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("binary/seed%d", seed), func(t *testing.T) {
			var buf bytes.Buffer
			fw := faultinject.NewFlakyWriter(&buf, faultinject.Seeded(seed, 0.05))
			fw.Partial = true
			l := NewLog(fw)

			var mu sync.Mutex
			acked := map[int]bool{}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						id := g*perG + i + 1
						if err := l.Append(groupWorker(id)); err == nil {
							mu.Lock()
							acked[id] = true
							mu.Unlock()
						}
					}
				}(g)
			}
			wg.Wait()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if fw.Injections() > 0 {
				sawInjection = true
			}

			recovered, validBytes, _ := readLogPartialOffset(bytes.NewReader(buf.Bytes()))
			got := map[int]bool{}
			for _, e := range recovered {
				if got[e.Worker.ID] {
					t.Fatalf("worker %d recovered twice", e.Worker.ID)
				}
				got[e.Worker.ID] = true
			}
			for id := range acked {
				if !got[id] {
					t.Fatalf("acked worker %d missing from recovery (%d acked, %d recovered)",
						id, len(acked), len(recovered))
				}
			}

			// Byte-identity: a serial re-append of the recovered events
			// must reproduce the valid prefix exactly.
			var ref bytes.Buffer
			rl := NewLog(&ref)
			for i := range recovered {
				if err := rl.Append(recovered[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(ref.Bytes(), buf.Bytes()[:validBytes]) {
				t.Fatalf("serial re-append differs from the valid prefix (%d vs %d bytes)",
					ref.Len(), validBytes)
			}
		})
	}
	if !sawInjection {
		t.Fatal("no seed injected a fault — the property ran unexercised")
	}
}

// TestSegmentedGroupCommitHealKeepsAcked drives a group-committed
// segmented journal through a transient torn write: the failed event
// rolls back, the heal truncates the tear away, and every acked event —
// before and after the fault — recovers.
func TestSegmentedGroupCommitHealKeepsAcked(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{
		MaxBytes: 1 << 20,
		Hook:     &flakyHook{point: CrashSegmentWrite, hit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	for i := 0; i < 3; i++ {
		if _, err := s.ApplyBatchJournaled([]Event{NewWorkerJoined(validWorker())}, sl.AppendBatch); err != nil {
			t.Fatal(err)
		}
	}
	// Write op 3 tears (ops 0-2 were magic-fused flushes of the first
	// three events... op counting is per-write: each lone append is one
	// write).  The 4th append fails and must roll back.
	if _, err := s.ApplyBatchJournaled([]Event{NewWorkerJoined(validWorker())}, sl.AppendBatch); err == nil {
		t.Fatal("torn group flush reported success")
	}
	if s.Seq() != 3 {
		t.Fatalf("state seq %d after rollback, want 3", s.Seq())
	}
	if sl.Poisoned() {
		t.Fatal("journal still poisoned after heal")
	}
	// Healed in place: later appends land on a clean boundary.
	for i := 0; i < 2; i++ {
		if _, err := s.ApplyBatchJournaled([]Event{NewWorkerJoined(validWorker())}, sl.AppendBatch); err != nil {
			t.Fatal(err)
		}
	}
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
	if w, _ := rec.Counts(); w != 5 {
		t.Fatalf("recovered %d workers, want 5", w)
	}
	if rec.Seq() != s.Seq() {
		t.Fatalf("recovered seq %d, live seq %d", rec.Seq(), s.Seq())
	}
}

// TestSegmentedGroupCommitRotation: group commit composes with size
// rotation — segments seal with their committers flushed, recovery sees
// every event across the rotated files.
func TestSegmentedGroupCommitRotation(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{
		MaxBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := s.ApplyBatchJournaled([]Event{NewWorkerJoined(validWorker())}, sl.AppendBatch); err != nil {
			t.Fatal(err)
		}
	}
	if len(sl.Segments()) < 3 {
		t.Fatalf("only %d segments after %d events with 1KB rotation", len(sl.Segments()), n)
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := rec.Counts(); w != n {
		t.Fatalf("recovered %d workers, want %d", w, n)
	}
}
