package platform

// Legacy journals: every stream is written binary, but directories and
// single-file journals from before hold JSONL.  These tests pin that such
// bytes stay readable and servable — recovered byte-identically, never
// appended to, streamed to followers, retired by checkpoints — and that
// the documented upgrade of a single-file journal works.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// jsonlBytes encodes events in the legacy JSONL journal format — one JSON
// object per line — exactly as journals written before the binary format
// became the only one hold them.  Nothing outside tests writes JSONL any
// more; the readers must keep decoding it.
func jsonlBytes(t testing.TB, events []Event) []byte {
	t.Helper()
	var out []byte
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return out
}

// legacyScript returns the sequenced events of a deterministic churn
// script: a worker and a task per step, the oldest of each removed every
// fifth step, a round marker every fourth.  Feeding the events back
// through ApplyBatchJournaled reproduces them exactly (replay keeps recorded
// IDs), so a run can stop and resume anywhere in the script.
func legacyScript(t *testing.T, steps int) []Event {
	t.Helper()
	s := mustState(t)
	var events []Event
	apply := func(e Event) Event {
		applied, err := s.Apply(e)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, applied)
		return applied
	}
	var workers, tasks []int
	for i := 0; i < steps; i++ {
		workers = append(workers, apply(NewWorkerJoined(validWorker())).Worker.ID)
		tasks = append(tasks, apply(NewTaskPosted(validTask())).Task.ID)
		if i%5 == 4 {
			apply(NewWorkerLeft(workers[0]))
			apply(NewTaskClosed(tasks[0]))
			workers, tasks = workers[1:], tasks[1:]
		}
		if i%4 == 3 {
			apply(NewRoundClosed(i/4 + 1))
		}
	}
	return events
}

// applyAll journals events through the state, the Service's
// apply-then-journal path.
func applyAll(t *testing.T, s *State, jnl Journal, events []Event) {
	t.Helper()
	for _, e := range events {
		if _, err := s.ApplyBatchJournaled([]Event{e}, jnl.AppendBatch); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentNames lists dir's journal segment file names in replay order.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(segs))
	for i, sg := range segs {
		names[i] = filepath.Base(sg.Path)
	}
	return names
}

// recoveredBytes is RecoverDir's state as snapshot bytes.
func recoveredBytes(t *testing.T, dir string) []byte {
	t.Helper()
	st, _, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	return stateBytes(t, st)
}

// TestMixedFormatDirRecovery serves a legacy directory of JSONL segments
// on through OpenMarketDir, for each shape the active JSONL segment can
// be left in: clean, torn mid-line by a crash, or created empty.  No byte
// may be appended to a .jsonl file; the tail must land in .mbaj segments;
// the directory must recover byte-identical to an all-binary run of the
// same script, stream across the JSONL→binary boundary, and lose its
// legacy segments to the first checkpoint that covers them.
func TestMixedFormatDirRecovery(t *testing.T) {
	script := legacyScript(t, 30)
	const legacyEvents = 25 // journaled as JSONL before the upgrade
	segOpts := SegmentOptions{MaxBytes: 2048}

	// The all-binary reference run of the same script.
	refDir := t.TempDir()
	refState, refSeg, _, _, err := OpenMarketDir(refDir, 3, segOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, refState, refSeg, script)
	if err := refSeg.Close(); err != nil {
		t.Fatal(err)
	}
	want := recoveredBytes(t, refDir)

	tornLine := jsonlBytes(t, script[legacyEvents:legacyEvents+1])
	tornLine = tornLine[:len(tornLine)/2]
	for _, shape := range []string{"clean", "torn", "empty"} {
		t.Run(shape, func(t *testing.T) {
			dir := t.TempDir()
			// Legacy layout: two sealed segments and the active one.
			files := map[string][]byte{
				"journal.00000000000000000001.jsonl": jsonlBytes(t, script[0:10]),
				"journal.00000000000000000011.jsonl": jsonlBytes(t, script[10:20]),
				"journal.00000000000000000021.jsonl": jsonlBytes(t, script[20:legacyEvents]),
			}
			active := "journal.00000000000000000021.jsonl"
			switch shape {
			case "torn":
				files[active] = append(append([]byte(nil), files[active]...), tornLine...)
			case "empty":
				files["journal.00000000000000000026.jsonl"] = nil
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// What each legacy file must hold once the directory is open:
			// the torn line healed away, the empty segment removed,
			// everything else untouched.
			keep := map[string][]byte{}
			for name, data := range files {
				keep[name] = data
			}
			switch shape {
			case "torn":
				keep[active] = jsonlBytes(t, script[20:legacyEvents])
			case "empty":
				delete(keep, "journal.00000000000000000026.jsonl")
			}

			state, seg, cm, info, err := OpenMarketDir(dir, 3, segOpts, &CheckpointOptions{Keep: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			if torn := shape == "torn"; (info.TailDropped != nil) != torn || (seg.Dropped() != nil) != torn {
				t.Fatalf("torn-tail diagnostics: recovery %v, journal %v", info.TailDropped, seg.Dropped())
			}
			if state.Seq() != legacyEvents {
				t.Fatalf("recovered seq %d, want %d", state.Seq(), legacyEvents)
			}
			applyAll(t, state, seg, script[legacyEvents:])

			for name, data := range keep {
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("legacy segment %s changed: %d bytes, want %d", name, len(got), len(data))
				}
			}
			names := segmentNames(t, dir)
			if len(names) <= 3 || names[3] != "journal.00000000000000000026.mbaj" {
				t.Fatalf("segments %v: the tail must start at journal.00000000000000000026.mbaj", names)
			}
			for _, name := range names[3:] {
				if !strings.HasSuffix(name, ".mbaj") {
					t.Fatalf("new segment %s is not binary", name)
				}
			}
			if got := recoveredBytes(t, dir); !bytes.Equal(got, want) {
				t.Fatal("recovery diverges from the all-binary run of the same script")
			}
			for _, from := range []uint64{1, 18, legacyEvents + 1} {
				events, err := seg.EventsSince(from)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(events, script[from-1:]) {
					t.Fatalf("EventsSince(%d) streamed %d events, want the %d of the script", from, len(events), len(script)-int(from-1))
				}
			}

			res, err := cm.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range segmentNames(t, dir) {
				if strings.HasSuffix(name, ".jsonl") {
					t.Fatalf("checkpoint at seq %d kept legacy segment %s (retired %d)", res.Snapshot.Seq, name, res.SegmentsRetired)
				}
			}
			if got := recoveredBytes(t, dir); !bytes.Equal(got, want) {
				t.Fatal("recovery after the checkpoint diverges from the all-binary run")
			}
		})
	}
}

// TestLegacyDirTornTailTwiceRestart: crash mid-write, restart, append,
// crash mid-write again, restart — starting from a legacy JSONL segment —
// and no committed event may be lost at any point: every reopen must
// truncate the torn tail before anything is appended, or the next
// recovery drops live events.
func TestLegacyDirTornTailTwiceRestart(t *testing.T) {
	dir := t.TempDir()
	const fragment = `{"seq":99,"kind":"wor`
	tear := func() {
		names := segmentNames(t, dir)
		f, err := os.OpenFile(filepath.Join(dir, names[len(names)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(fragment); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	s := mustState(t)
	var legacy []Event
	for i := 0; i < 4; i++ {
		e, err := s.Apply(NewWorkerJoined(validWorker()))
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(legacy, e)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.00000000000000000001.jsonl"), jsonlBytes(t, legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	tear()

	total := 4
	for restart := 0; restart < 2; restart++ {
		torn := segmentNames(t, dir)
		tornPath := filepath.Join(dir, torn[len(torn)-1])
		state, seg, _, info, err := OpenMarketDir(dir, 3, SegmentOptions{}, nil)
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if info.TailDropped == nil || seg.Dropped() == nil {
			t.Fatalf("restart %d: torn tail not detected (recovery %v, journal %v)", restart, info.TailDropped, seg.Dropped())
		}
		if data, err := os.ReadFile(tornPath); err != nil || bytes.HasSuffix(data, []byte(fragment)) {
			t.Fatalf("restart %d: torn tail of %s not truncated (err %v)", restart, tornPath, err)
		}
		if got, _ := state.Counts(); got != total {
			t.Fatalf("restart %d: recovered %d workers, want %d — committed events lost", restart, got, total)
		}
		appendJoins(t, state, seg, 4)
		total += 4
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		tear()
	}

	// Final restart: everything ever committed is still there.
	state, seg, _, _, err := OpenMarketDir(dir, 3, SegmentOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if got, _ := state.Counts(); got != total {
		t.Fatalf("final recovery has %d workers, want %d", got, total)
	}
	if state.Seq() != uint64(total) {
		t.Fatalf("final seq %d, want %d", state.Seq(), total)
	}
}

// TestSingleFileJournalUpgrade pins the upgrade path for single-file
// journals (the retired `mbaserve -journal` mode wrote them, JSONL or
// binary, as one stream starting at seq 1, possibly torn by a crash):
// moved into an empty directory as journal.00000000000000000001.jsonl,
// the file recovers through OpenMarketDir to exactly the state RecoverLog
// gives from the original, and the directory keeps serving — the file
// healed of its torn tail but never appended to.
func TestSingleFileJournalUpgrade(t *testing.T) {
	script := legacyScript(t, 12)
	var bin bytes.Buffer
	l := NewLog(&bin)
	for _, e := range script {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	jsonl := jsonlBytes(t, script)
	torn := func(clean []byte) []byte {
		return append(append([]byte(nil), clean...), clean[len(clean)-40:len(clean)-20]...)
	}
	for _, tc := range []struct {
		name          string
		journal, kept []byte
	}{
		{"jsonl", jsonl, jsonl},
		{"binary", bin.Bytes(), bin.Bytes()},
		{"jsonl-torn", torn(jsonl), jsonl},
		{"binary-torn", torn(bin.Bytes()), bin.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig, replayErr, dropped := RecoverLog(3, bytes.NewReader(tc.journal))
			if replayErr != nil {
				t.Fatal(replayErr)
			}
			if tornTail := len(tc.kept) < len(tc.journal); (dropped != nil) != tornTail {
				t.Fatalf("original journal: dropped %v", dropped)
			}
			dir := t.TempDir()
			moved := filepath.Join(dir, "journal.00000000000000000001.jsonl")
			if err := os.WriteFile(moved, tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			state, seg, _, _, err := OpenMarketDir(dir, 3, SegmentOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stateBytes(t, state), stateBytes(t, orig)) {
				t.Fatal("moved journal recovers a different state than RecoverLog on the original")
			}
			appendJoins(t, state, seg, 3)
			if err := seg.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(moved); err != nil || !bytes.Equal(got, tc.kept) {
				t.Fatalf("moved journal holds %d bytes, want its %d-byte valid prefix (err %v)", len(got), len(tc.kept), err)
			}
			next := segmentFileName(uint64(len(script) + 1))
			if names := segmentNames(t, dir); len(names) != 2 || names[1] != next {
				t.Fatalf("segments %v, want the moved journal then %s", names, next)
			}
			if !bytes.Equal(recoveredBytes(t, dir), stateBytes(t, state)) {
				t.Fatal("recovery after serving on diverges from the served state")
			}
		})
	}
}
