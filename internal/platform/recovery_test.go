package platform

import (
	"bytes"
	"strings"
	"testing"
)

// buildCleanLog returns a valid n-event legacy JSONL journal — these
// tests cut and corrupt it line by line to exercise the JSONL reader.
func buildCleanLog(t *testing.T, n int) []byte {
	t.Helper()
	s := mustState(t)
	events := make([]Event, n)
	for i := range events {
		var err error
		if i%2 == 0 {
			events[i], err = s.Apply(NewWorkerJoined(validWorker()))
		} else {
			events[i], err = s.Apply(NewTaskPosted(validTask()))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return jsonlBytes(t, events)
}

func TestReadLogPartialCleanLog(t *testing.T) {
	data := buildCleanLog(t, 6)
	events, dropped := ReadLogPartial(bytes.NewReader(data))
	if dropped != nil {
		t.Fatalf("clean log reported drop: %v", dropped)
	}
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
}

func TestReadLogPartialTornTail(t *testing.T) {
	data := buildCleanLog(t, 5)
	// Simulate a crash mid-Append: cut the last line in half.
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n')
	torn := append([]byte{}, data[:cut+10]...) // half of the final line

	events, dropped := ReadLogPartial(bytes.NewReader(torn))
	if dropped == nil {
		t.Fatal("torn tail not reported")
	}
	if len(events) != 4 {
		t.Fatalf("recovered %d events, want 4", len(events))
	}
	// The recovered prefix must replay.
	state, err := Replay(3, events)
	if err != nil {
		t.Fatal(err)
	}
	w, tk := state.Counts()
	if w+tk != 4 {
		t.Fatalf("recovered state has %d entities", w+tk)
	}
}

func TestRecoverLogEndToEnd(t *testing.T) {
	data := buildCleanLog(t, 8)
	torn := append(append([]byte{}, data...), []byte(`{"seq":999,"kind":"worker`)...)
	state, replayErr, dropped := RecoverLog(3, bytes.NewReader(torn))
	if replayErr != nil {
		t.Fatal(replayErr)
	}
	if dropped == nil || !strings.Contains(dropped.Error(), "recovered 8 events") {
		t.Fatalf("diagnostic = %v", dropped)
	}
	w, tk := state.Counts()
	if w != 4 || tk != 4 {
		t.Fatalf("counts (%d,%d)", w, tk)
	}
}

func TestReadLogPartialMidLogCorruption(t *testing.T) {
	data := buildCleanLog(t, 6)
	lines := bytes.Split(data, []byte("\n"))
	lines[2] = []byte("{garbage")
	corrupted := bytes.Join(lines, []byte("\n"))
	events, dropped := ReadLogPartial(bytes.NewReader(corrupted))
	if dropped == nil {
		t.Fatal("mid-log corruption not reported")
	}
	if len(events) != 2 {
		t.Fatalf("recovered %d events, want the 2 before the corruption", len(events))
	}
}
