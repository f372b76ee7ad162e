package platform

// Follower tests: the journal stream endpoint serves the committed binary
// stream, a follower tails it into an equivalent local journal, and a
// torn stream (primary dying mid-response) loses nothing — the follower
// keeps its applied prefix and catches up on the next poll.

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/benefit"
	"repro/internal/faultinject"
)

// newPrimary starts an HTTP primary over a segmented binary journal in
// dir.
func newPrimary(t *testing.T, dir string) (*httptest.Server, *Service) {
	t.Helper()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{
		MaxBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(mustState(t), greedySolver(), benefit.DefaultParams(), sl, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWithOptions(svc, NewServerOptions()))
	t.Cleanup(func() {
		ts.Close()
		sl.Close()
	})
	return ts, svc
}

func submitN(t *testing.T, svc *Service, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var e Event
		if i%3 == 2 {
			e = NewTaskPosted(validTask())
		} else {
			e = NewWorkerJoined(validWorker())
		}
		if _, err := svc.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshotBytes canonicalizes a state for equivalence comparison.
func snapshotBytes(t *testing.T, s *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestJournalStreamEndpoint(t *testing.T) {
	ts, svc := newPrimary(t, t.TempDir())
	submitN(t, svc, 7)

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/v1/journal/stream?from=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if resp.Header.Get(JournalLastSeqHeader) != "7" {
		t.Fatalf("last-seq header %q, want 7", resp.Header.Get(JournalLastSeqHeader))
	}
	events, err := ReadLog(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("stream not a clean binary log: %v", err)
	}
	if len(events) != 7 || events[0].Seq != 1 || events[6].Seq != 7 {
		t.Fatalf("streamed %d events (%v..)", len(events), events[0].Seq)
	}

	// Mid-stream resume returns the suffix only.
	_, body = get("/v1/journal/stream?from=5")
	events, err = ReadLog(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].Seq != 5 {
		t.Fatalf("resume streamed %d events starting at %d", len(events), events[0].Seq)
	}

	// Beyond the tip: an empty (header-only) stream, not an error.
	resp, body = get("/v1/journal/stream?from=100")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beyond-tip status %d", resp.StatusCode)
	}
	if events, err = ReadLog(bytes.NewReader(body)); err != nil || len(events) != 0 {
		t.Fatalf("beyond-tip stream: %d events, err %v", len(events), err)
	}

	if resp, _ = get("/v1/journal/stream?from=x"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: status %d", resp.StatusCode)
	}

	// A backend over a plain (non-segmented) journal cannot stream.
	plain := newTestServer(t)
	if resp, err := http.Get(plain.URL + "/v1/journal/stream"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("plain-journal stream status %d, want 404", resp.StatusCode)
		}
	}
}

func TestFollowerSyncAndTakeover(t *testing.T) {
	primaryDir, followerDir := t.TempDir(), t.TempDir()
	ts, svc := newPrimary(t, primaryDir)
	submitN(t, svc, 12)

	f, err := NewFollower(ts.URL, followerDir, FollowerOptions{
		NumCategories: 3,
		Segment: SegmentOptions{
			MaxBytes: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 || f.Seq() != 12 || f.Lag() != 0 {
		t.Fatalf("first sync: applied %d, seq %d, lag %d", n, f.Seq(), f.Lag())
	}

	// The primary keeps moving; the follower catches up incrementally.
	submitN(t, svc, 5)
	if n, err = f.SyncOnce(context.Background()); err != nil || n != 5 {
		t.Fatalf("second sync: applied %d, err %v", n, err)
	}
	h := f.Health()
	if h.Role != "follower" || h.LastSeq != 17 || h.PrimarySeq != 17 || h.ReplicationLag != 0 {
		t.Fatalf("follower health %+v", h)
	}
	if !bytes.Equal(snapshotBytes(t, f.State()), snapshotBytes(t, svc.State())) {
		t.Fatal("follower state diverges from primary")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Takeover: cold recovery of the follower's own journal directory
	// reproduces the primary's state exactly.
	rec, info, err := RecoverDir(followerDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.TailDropped != nil {
		t.Fatalf("follower journal torn: %v", info.TailDropped)
	}
	if !bytes.Equal(snapshotBytes(t, rec), snapshotBytes(t, svc.State())) {
		t.Fatal("takeover state diverges from primary")
	}
}

// binaryStreamCut returns a byte offset that lands mid-way through record
// index k (0-based) of a binary stream, by walking the frame lengths.
func binaryStreamCut(t *testing.T, stream []byte, k int) int64 {
	t.Helper()
	off := len(binaryLogMagic)
	for i := 0; i < k; i++ {
		if off+5 > len(stream) {
			t.Fatalf("stream has fewer than %d records", k)
		}
		plen := int(binary.LittleEndian.Uint32(stream[off+1 : off+5]))
		off += 1 + 4 + plen + 4
	}
	if off+5 >= len(stream) {
		t.Fatalf("record %d missing or empty", k)
	}
	return int64(off + 5) // into record k's payload: unmistakably torn
}

// tornOnceProxy forwards journal-stream requests to the primary, severing
// the first response body mid-record — the observable shape of a primary
// that died while streaming.
type tornOnceProxy struct {
	t          *testing.T
	primaryURL string
	cutRecord  int
	torn       atomic.Bool
}

func (p *tornOnceProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	resp, err := http.Get(p.primaryURL + r.URL.String())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set(JournalLastSeqHeader, resp.Header.Get(JournalLastSeqHeader))
	w.Header().Set(EpochHeader, resp.Header.Get(EpochHeader))
	w.WriteHeader(resp.StatusCode)
	if resp.StatusCode == http.StatusOK && p.torn.CompareAndSwap(false, true) {
		cw := faultinject.NewCutWriter(w, binaryStreamCut(p.t, body, p.cutRecord))
		cw.Write(body) // delivers the prefix, then cuts
		return
	}
	w.Write(body)
}

func TestFollowerTornStreamKeepsPrefix(t *testing.T) {
	ts, svc := newPrimary(t, t.TempDir())
	submitN(t, svc, 10)

	proxy := httptest.NewServer(&tornOnceProxy{t: t, primaryURL: ts.URL, cutRecord: 6})
	defer proxy.Close()

	followerDir := t.TempDir()
	f, err := NewFollower(proxy.URL, followerDir, FollowerOptions{
		NumCategories: 3,
		Segment:       SegmentOptions{MaxBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// First poll tears inside record 6: exactly the 6 whole records before
	// it apply, and the error says the stream ended early.
	n, err := f.SyncOnce(context.Background())
	if err == nil {
		t.Fatal("torn stream reported a clean sync")
	}
	if n != 6 || f.Seq() != 6 {
		t.Fatalf("torn sync applied %d (seq %d), want 6", n, f.Seq())
	}
	if f.Lag() != 4 {
		t.Fatalf("lag %d after torn sync, want 4", f.Lag())
	}

	// Next poll resumes from seq 7 and completes the catch-up.
	if n, err = f.SyncOnce(context.Background()); err != nil || n != 4 {
		t.Fatalf("recovery sync applied %d, err %v", n, err)
	}
	if !bytes.Equal(snapshotBytes(t, f.State()), snapshotBytes(t, svc.State())) {
		t.Fatal("follower state diverges from primary after torn stream")
	}
}
