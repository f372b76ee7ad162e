package platform

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadLog asserts the log parser never panics and never returns both a
// nil error and events that fail replay-level validation on arbitrary
// byte input, and that the strict reader accepts exactly what the partial
// reader recovers from a clean stream: whenever ReadLog succeeds,
// ReadLogPartial returns the same events and no diagnostic.  JSONL is
// only ever read now, so every input here is untrusted bytes from disk.
func FuzzReadLog(f *testing.F) {
	f.Add(`{"seq":1,"kind":"round_closed","round":0}`)
	f.Add(`{"seq":1,"kind":"worker_left","worker_id":3}`)
	f.Add("")
	f.Add("\n\n{bad")
	f.Add(`{"seq":1,"kind":"task_posted","task":{"id":0,"category":0,"replication":1,"payment":1,"difficulty":0}}`)
	f.Add(`{"seq":1,"kind":"round_closed","round":0}` + "\n")
	var bin bytes.Buffer
	l := NewLog(&bin)
	for _, e := range binlogScript() {
		if err := l.Append(e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(bin.String())
	f.Fuzz(func(t *testing.T, input string) {
		events, err := ReadLog(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, e := range events {
			if vErr := e.Validate(); vErr != nil {
				t.Fatalf("ReadLog returned invalid event %+v: %v", e, vErr)
			}
		}
		partial, dropped := ReadLogPartial(strings.NewReader(input))
		if dropped != nil {
			t.Fatalf("ReadLog accepted a stream ReadLogPartial drops from: %v", dropped)
		}
		if !reflect.DeepEqual(partial, events) {
			t.Fatalf("ReadLog and ReadLogPartial disagree:\n strict  %+v\n partial %+v", events, partial)
		}
	})
}

// FuzzSnapshotDecode asserts the snapshot decoder never panics, rejects
// every corrupt input with an error wrapping ErrSnapshotCorrupt, and
// round-trips whatever it accepts: a decoded state must re-encode to a
// snapshot that decodes to the same bytes again.
func FuzzSnapshotDecode(f *testing.F) {
	seedState, err := NewState(3)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := seedState.Apply(NewWorkerJoined(validWorker())); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := seedState.Apply(NewTaskPosted(validTask())); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := seedState.EncodeSnapshot(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("MBASNAP\x02junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, info, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("decode error does not wrap ErrSnapshotCorrupt: %v", err)
			}
			return
		}
		var out bytes.Buffer
		info2, err := st.EncodeSnapshot(&out)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if info2 != info {
			t.Fatalf("re-encode info %+v != decode info %+v", info2, info)
		}
		st2, _, err := DecodeSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		var out2 bytes.Buffer
		if _, err := st2.EncodeSnapshot(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("snapshot encoding is not a fixed point after one round trip")
		}
	})
}
