package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// populatedState builds a state whose snapshot must carry more than live
// entities: removed IDs leave the next-ID counters ahead of the live
// counts, and a closed round bumps the round counter.
func populatedState(t *testing.T) *State {
	t.Helper()
	s := mustState(t)
	for i := 0; i < 5; i++ {
		if _, err := s.Apply(NewWorkerJoined(validWorker())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		tk := validTask()
		tk.Category = i % 3
		if _, err := s.Apply(NewTaskPosted(tk)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Apply(NewWorkerLeft(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(NewTaskClosed(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(NewRoundClosed(1)); err != nil {
		t.Fatal(err)
	}
	return s
}

// stateBytes encodes a state into its canonical snapshot bytes.  Encoding
// is deterministic, so equal byte slices mean equal states — the crash
// suite uses this as a whole-state digest.
func stateBytes(t *testing.T, s *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := populatedState(t)
	enc := stateBytes(t, s)

	got, info, err := DecodeSnapshot(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if info.Workers != 4 || info.Tasks != 3 || info.Rounds != 1 || info.NumCategories != 3 {
		t.Fatalf("info = %+v", info)
	}
	if info.Seq != s.Seq() || info.Seq != 12 {
		t.Fatalf("info.Seq = %d, want %d", info.Seq, s.Seq())
	}
	if !bytes.Equal(stateBytes(t, got), enc) {
		t.Fatal("decoded state does not re-encode to the same bytes")
	}

	// The ID counters must survive: the next worker joined after recovery
	// gets the same ID it would have gotten on the original state.
	want, err := s.Apply(NewWorkerJoined(validWorker()))
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Apply(NewWorkerJoined(validWorker()))
	if err != nil {
		t.Fatal(err)
	}
	if have.Worker.ID != want.Worker.ID || have.Seq != want.Seq {
		t.Fatalf("post-recovery allocation (id %d, seq %d) != original (id %d, seq %d)",
			have.Worker.ID, have.Seq, want.Worker.ID, want.Seq)
	}
}

func TestSnapshotDetectsEveryByteFlip(t *testing.T) {
	enc := stateBytes(t, populatedState(t))
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xFF
		if _, _, err := DecodeSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d/%d went undetected", i, len(enc))
		} else if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("flip at byte %d: error does not wrap ErrSnapshotCorrupt: %v", i, err)
		}
	}
}

func TestSnapshotDetectsEveryTruncation(t *testing.T) {
	enc := stateBytes(t, populatedState(t))
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeSnapshot(bytes.NewReader(enc[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", n, len(enc))
		} else if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncation to %d bytes: error does not wrap ErrSnapshotCorrupt: %v", n, err)
		}
	}
}

func TestSnapshotDetectsTrailingJunk(t *testing.T) {
	enc := stateBytes(t, populatedState(t))
	for _, junk := range [][]byte{{0}, []byte("x"), stateBytes(t, mustState(t))} {
		mut := append(append([]byte(nil), enc...), junk...)
		_, _, err := DecodeSnapshot(bytes.NewReader(mut))
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("trailing %d junk bytes: got %v, want ErrSnapshotCorrupt", len(junk), err)
		}
	}
}

// craftSnapshot assembles snapshot bytes frame by frame so tests can
// build structurally-corrupt inputs with valid CRCs.
func craftSnapshot(t *testing.T, hdr snapshotHeader, frames ...func(w *bytes.Buffer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	payload, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, 'H', payload); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		f(&buf)
	}
	if err := writeFrame(&buf, 'E', nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRejectsStructuralCorruption(t *testing.T) {
	workerFrame := func(id int) func(w *bytes.Buffer) {
		return func(w *bytes.Buffer) {
			wk := validWorker()
			wk.ID = id
			payload, _ := json.Marshal(&wk)
			if err := writeFrame(w, 'W', payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	hdr := snapshotHeader{Version: snapshotVersion, NumCategories: 3, Seq: 9,
		NextWorkerID: 4, NextTaskID: 1, Workers: 2}

	cases := map[string][]byte{
		"duplicate worker": craftSnapshot(t, hdr, workerFrame(0), workerFrame(0)),
		"count mismatch":   craftSnapshot(t, hdr, workerFrame(0)),
		"id past counter":  craftSnapshot(t, hdr, workerFrame(0), workerFrame(7)),
		"bad version": craftSnapshot(t, snapshotHeader{Version: 99, NumCategories: 3,
			NextWorkerID: 1, NextTaskID: 1}),
		"negative categories": craftSnapshot(t, snapshotHeader{Version: snapshotVersion,
			NumCategories: -3}),
		"unknown frame kind": craftSnapshot(t,
			snapshotHeader{Version: snapshotVersion, NumCategories: 3},
			func(w *bytes.Buffer) {
				if err := writeFrame(w, 'Z', []byte("?")); err != nil {
					t.Fatal(err)
				}
			}),
	}
	for name, enc := range cases {
		_, _, err := DecodeSnapshot(bytes.NewReader(enc))
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

func TestWriteSnapshotAtomicPublish(t *testing.T) {
	dir := t.TempDir()
	s := populatedState(t)
	path, info, err := WriteSnapshot(dir, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != snapshotFileName(info.Seq) {
		t.Fatalf("snapshot published as %s, want %s", filepath.Base(path), snapshotFileName(info.Seq))
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left after a successful write: %v", tmps)
	}
	got, _, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, got), stateBytes(t, s)) {
		t.Fatal("snapshot file does not round-trip the state")
	}

	// A second snapshot at a later seq lists first (newest-first order).
	if _, err := s.Apply(NewWorkerJoined(validWorker())); err != nil {
		t.Fatal(err)
	}
	path2, _, err := WriteSnapshot(dir, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0] != path2 || snaps[1] != path {
		t.Fatalf("listSnapshots = %v, want [%s %s]", snaps, path2, path)
	}
}

func TestParseSnapshotSeq(t *testing.T) {
	seq, ok := parseSnapshotSeq(snapshotFileName(42))
	if !ok || seq != 42 {
		t.Fatalf("parse(%s) = %d, %v", snapshotFileName(42), seq, ok)
	}
	for _, name := range []string{
		"snapshot.mba", "journal.00001.jsonl", "snapshot.x.mba", "foo",
		"snapshot.5junk.mba",                     // trailing garbage after the digits
		"snapshot.5.mba",                         // un-padded: not a name our writer emits
		"snapshot.0000000000000000000x.mba",      // non-digit at canonical width
		"snapshot.+0000000000000000005.mba",      // sign at canonical width
		"snapshot.99999999999999999999.mba",      // canonical width but overflows uint64
		"snapshot.000000000000000000005junk.mba", // garbage pushing past canonical width
	} {
		if _, ok := parseSnapshotSeq(name); ok {
			t.Fatalf("parse(%q) accepted a foreign file", name)
		}
	}
	// Same strictness for segment names: a foreign "journal.5junk.jsonl"
	// must never parse (and so never be pruned or replayed).
	for _, name := range []string{segmentFileName(42), "journal.00000000000000000042.jsonl"} {
		if seq, ok := parseSegmentSeq(name); !ok || seq != 42 {
			t.Fatalf("parse(%s) = %d, %v", name, seq, ok)
		}
	}
	for _, name := range []string{"journal.5junk.jsonl", "journal.5.jsonl", "journal.jsonl", "journal.5.mbaj"} {
		if _, ok := parseSegmentSeq(name); ok {
			t.Fatalf("parse(%q) accepted a foreign file", name)
		}
	}
	if !strings.Contains(snapshotFileName(7), "00000000000000000007") {
		t.Fatalf("snapshot names must zero-pad: %s", snapshotFileName(7))
	}
}
