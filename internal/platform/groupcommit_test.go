package platform

// Group-commit tests: concurrent appends coalesce without losing or
// reordering anything durable, a torn flush poisons exactly like the
// synchronous path, and the segmented heal removes every byte of a failed
// flush while keeping every acked record.  The property test is the
// core guarantee: under a flaky writer, whatever was acked is recoverable
// and the recovered stream is byte-identical to a serial re-append.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

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

func TestGroupCommitConcurrentAppends(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		const goroutines, perG = 8, 50
		var buf bytes.Buffer
		l := NewLogWithOptions(&buf, LogOptions{GroupCommit: true})
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
	l := NewLogWithOptions(&buf, LogOptions{GroupCommit: true})
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
	lp := NewLogWithOptions(fw, LogOptions{GroupCommit: true})
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
			l := NewLogWithOptions(fw, LogOptions{GroupCommit: true})

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
		Log:      LogOptions{GroupCommit: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	for i := 0; i < 3; i++ {
		if _, err := s.ApplyJournaled(NewWorkerJoined(validWorker()), sl.Append); err != nil {
			t.Fatal(err)
		}
	}
	// Write op 3 tears (ops 0-2 were magic-fused flushes of the first
	// three events... op counting is per-write: each lone append is one
	// write).  The 4th append fails and must roll back.
	if _, err := s.ApplyJournaled(NewWorkerJoined(validWorker()), sl.Append); err == nil {
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
		if _, err := s.ApplyJournaled(NewWorkerJoined(validWorker()), sl.Append); err != nil {
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
		Log:      LogOptions{GroupCommit: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustState(t)
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := s.ApplyJournaled(NewWorkerJoined(validWorker()), sl.Append); err != nil {
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
