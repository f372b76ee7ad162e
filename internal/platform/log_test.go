package platform

import (
	"bytes"
	"strings"
	"testing"
)

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(&buf)
	s := mustState(t)
	for i := 0; i < 3; i++ {
		e, err := s.Apply(NewWorkerJoined(validWorker()))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := s.Apply(NewTaskPosted(validTask()))
	if err := l.Append(e); err != nil {
		t.Fatal(err)
	}

	events, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("read %d events", len(events))
	}
	replayed, err := Replay(3, events)
	if err != nil {
		t.Fatal(err)
	}
	w, tk := replayed.Counts()
	if w != 3 || tk != 1 {
		t.Fatalf("replayed counts (%d,%d)", w, tk)
	}
}

func TestLogAppendValidates(t *testing.T) {
	l := NewLog(&bytes.Buffer{})
	if err := l.Append(Event{Kind: EventWorkerJoined}); err == nil {
		t.Fatal("invalid event appended")
	}
}

func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	if _, err := ReadLog(strings.NewReader(`{"kind":"worker_left"}` + "\n")); err == nil {
		t.Fatal("payload-less event accepted")
	}
}

func TestReadLogRejectsNonIncreasingSeq(t *testing.T) {
	lines := `{"seq":2,"kind":"round_closed","round":0}
{"seq":1,"kind":"round_closed","round":1}
`
	if _, err := ReadLog(strings.NewReader(lines)); err == nil {
		t.Fatal("decreasing sequence accepted")
	}
}

// TestReadLogRejectsTornFinalLine: a final JSONL line without its newline
// is torn even when its bytes parse — ReadLogPartial, RecoverDir and
// OpenSegmentedLog all drop it — so the strict reader must refuse it
// rather than replay a state recovery never produces.
func TestReadLogRejectsTornFinalLine(t *testing.T) {
	torn := `{"seq":1,"kind":"round_closed","round":0}`
	if events, err := ReadLog(strings.NewReader(torn)); err == nil {
		t.Fatalf("strict read accepted a torn final line: %d events", len(events))
	}
	if events, dropped := ReadLogPartial(strings.NewReader(torn)); dropped == nil || len(events) != 0 {
		t.Fatalf("partial read of a torn line: %d events, dropped %v", len(events), dropped)
	}
	if events, err := ReadLog(strings.NewReader(torn + "\n")); err != nil || len(events) != 1 {
		t.Fatalf("terminated line: %d events, err %v", len(events), err)
	}
}

func TestReadLogSkipsBlankLines(t *testing.T) {
	lines := "\n" + `{"seq":1,"kind":"round_closed","round":0}` + "\n\n"
	events, err := ReadLog(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
}

func TestReplayLogEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	l := NewLog(&buf)
	s := mustState(t)
	for i := 0; i < 5; i++ {
		e, err := s.Apply(NewTaskPosted(validTask()))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	replayed, err := ReplayLog(3, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, tasks := replayed.Counts(); tasks != 5 {
		t.Fatalf("tasks = %d", tasks)
	}
}
