package platform

// Tests for the binary journal format (binlog.go): round-tripping and
// exhaustive byte-flip and truncation mutation coverage.  Legacy JSONL
// input is covered by legacy_test.go.  The mutation
// suite is the format's safety argument: every single-byte corruption of
// a valid stream must be detected, and partial recovery must never
// surface an event that was not appended.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// binlogScript returns one already-sequenced event of every kind.
func binlogScript() []Event {
	w := validWorker()
	w.ID = 7
	tk := validTask()
	tk.ID = 9
	wid, tid, round := 7, 9, 1
	return []Event{
		{Seq: 1, Kind: EventWorkerJoined, Worker: &w},
		{Seq: 2, Kind: EventTaskPosted, Task: &tk},
		{Seq: 3, Kind: EventWorkerLeft, WorkerID: &wid},
		{Seq: 4, Kind: EventTaskClosed, TaskID: &tid},
		{Seq: 5, Kind: EventRoundClosed, Round: &round},
	}
}

// encodeBinaryStream appends the script through a binary Log and returns
// the stream bytes plus every record boundary offset (magic included).
func encodeBinaryStream(t *testing.T, script []Event) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	l := NewLog(&buf)
	boundaries := []int64{0, int64(len(binaryLogMagic))}
	for i := range script {
		if err := l.Append(script[i]); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, int64(buf.Len()))
	}
	return buf.Bytes(), boundaries
}

func TestBinaryLogRoundTrip(t *testing.T) {
	script := binlogScript()
	data, _ := encodeBinaryStream(t, script)
	if !bytes.HasPrefix(data, []byte(binaryLogMagic)) {
		t.Fatal("stream does not open with the format magic")
	}
	got, err := ReadLog(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, script) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, script)
	}
	// Appending the decoded events to a fresh binary log is a byte-level
	// fixed point — the property follower replication relies on.
	var again bytes.Buffer
	l := NewLog(&again)
	for i := range got {
		if err := l.Append(got[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("re-encoding decoded events is not byte-identical")
	}
}

// TestBinaryLogMutationDetection flips every byte of a valid stream three
// ways and asserts the corruption is always detected: the strict reader
// errors, and the partial reader returns an exact prefix of the original
// events — never a different event — with a diagnostic.
func TestBinaryLogMutationDetection(t *testing.T) {
	script := binlogScript()
	data, _ := encodeBinaryStream(t, script)
	assertPrefix := func(events []Event) error {
		if len(events) > len(script) {
			return fmt.Errorf("recovered %d events from a %d-event stream", len(events), len(script))
		}
		for i := range events {
			if !reflect.DeepEqual(events[i], script[i]) {
				return fmt.Errorf("recovered event %d mutated:\n got %+v\nwant %+v", i, events[i], script[i])
			}
		}
		return nil
	}
	for off := range data {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			mutated := append([]byte(nil), data...)
			mutated[off] ^= mask
			if _, err := ReadLog(bytes.NewReader(mutated)); err == nil {
				t.Fatalf("byte %d ^ %#02x: strict read accepted a corrupted stream", off, mask)
			}
			events, dropped := ReadLogPartial(bytes.NewReader(mutated))
			if dropped == nil {
				t.Fatalf("byte %d ^ %#02x: partial read reported a clean stream", off, mask)
			}
			if err := assertPrefix(events); err != nil {
				t.Fatalf("byte %d ^ %#02x: %v", off, mask, err)
			}
		}
	}
}

// TestBinaryLogTruncationDetection cuts the stream at every possible
// length: record boundaries recover cleanly (the crash-between-appends
// case), everything else is reported as a torn tail, and either way the
// recovered events are exactly the longest whole-record prefix.
func TestBinaryLogTruncationDetection(t *testing.T) {
	script := binlogScript()
	data, boundaries := encodeBinaryStream(t, script)
	isBoundary := map[int64]int{} // offset → number of whole records before it
	for i, b := range boundaries {
		n := i - 1 // boundaries[0] is offset 0, [1] is after the magic
		if n < 0 {
			n = 0
		}
		isBoundary[b] = n
	}
	for cut := 0; cut <= len(data); cut++ {
		events, dropped := ReadLogPartial(bytes.NewReader(data[:cut]))
		wantEvents := 0
		for _, b := range boundaries {
			if b <= int64(cut) {
				wantEvents = isBoundary[b]
			}
		}
		if len(events) != wantEvents {
			t.Fatalf("cut %d: recovered %d events, want %d", cut, len(events), wantEvents)
		}
		for i := range events {
			if !reflect.DeepEqual(events[i], script[i]) {
				t.Fatalf("cut %d: recovered event %d differs from the original", cut, i)
			}
		}
		if _, clean := isBoundary[int64(cut)]; clean {
			if dropped != nil {
				t.Fatalf("cut %d at a record boundary reported torn: %v", cut, dropped)
			}
		} else if dropped == nil {
			t.Fatalf("cut %d mid-record reported clean", cut)
		}
	}
}

// FuzzBinaryRecordDecode asserts the binary reader never panics, rejects
// every corrupt stream with ErrRecordCorrupt, and round-trips whatever it
// accepts.
func FuzzBinaryRecordDecode(f *testing.F) {
	script := binlogScript()
	var valid bytes.Buffer
	l := NewLog(&valid)
	for i := range script {
		if err := l.Append(script[i]); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte(binaryLogMagic))
	f.Add([]byte("MBAJRNL\x02junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			if bytes.HasPrefix(data, []byte(binaryLogMagic)) && !errors.Is(err, ErrRecordCorrupt) {
				t.Fatalf("binary stream rejection does not wrap ErrRecordCorrupt: %v", err)
			}
			return
		}
		if !bytes.HasPrefix(data, []byte(binaryLogMagic)) {
			return // accepted as JSONL; FuzzReadLog covers that codec
		}
		var out bytes.Buffer
		l := NewLog(&out)
		for i := range events {
			if vErr := events[i].Validate(); vErr != nil {
				t.Fatalf("accepted stream holds invalid event: %v", vErr)
			}
			if err := l.Append(events[i]); err != nil {
				t.Fatalf("accepted event does not re-encode: %v", err)
			}
		}
		again, err := ReadLog(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if len(events) > 0 && !reflect.DeepEqual(again, events) {
			t.Fatal("decode→encode→decode is not a fixed point")
		}
	})
}
