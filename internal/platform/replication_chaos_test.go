package platform

// Replication chaos: a follower tails a live primary through a proxy that
// injects the three failure shapes a real deployment sees — the stream
// cut mid-record (primary killed while responding), the primary
// unreachable across several polls while its journal keeps rotating, and
// the primary's own journal poisoning under it.  After every storm the
// follower must converge to the primary's exact state (snapshot
// byte-identity) and a cold takeover from its local journal directory
// must reproduce the same state.  Seeded via CHAOS_SEED like the rest of
// the chaos suite; run with `make chaos`.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/benefit"
	"repro/internal/faultinject"
	"repro/internal/stats"
)

// Proxy modes: how the next journal-stream response is delivered.
const (
	proxyPass = iota // forward untouched
	proxyCut         // sever the body at a chosen byte offset
	proxyDown        // primary unreachable: 503 without forwarding
)

// chaosProxy fronts the primary for the follower.  The driver flips mode
// between polls; every mutation is mutex-guarded so the test stays clean
// under -race.
type chaosProxy struct {
	primaryURL string

	mu    sync.Mutex
	mode  int
	cutAt int64 // body offset for proxyCut
}

func (p *chaosProxy) set(mode int, cutAt int64) {
	p.mu.Lock()
	p.mode = mode
	p.cutAt = cutAt
	p.mu.Unlock()
}

func (p *chaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	mode, cutAt := p.mode, p.cutAt
	p.mu.Unlock()
	if mode == proxyDown {
		http.Error(w, "primary unreachable", http.StatusServiceUnavailable)
		return
	}
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
	w.WriteHeader(resp.StatusCode)
	if mode == proxyCut && resp.StatusCode == http.StatusOK && cutAt < int64(len(body)) {
		cw := faultinject.NewCutWriter(w, cutAt)
		cw.Write(body)
		return
	}
	w.Write(body)
}

// syncUntilCaughtUp polls through healthy plumbing until the follower's
// lag is zero, bounding the attempts so a livelock fails loudly.
func syncUntilCaughtUp(t *testing.T, f *Follower) {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		if _, err := f.SyncOnce(context.Background()); err != nil {
			t.Fatalf("clean sync attempt %d failed: %v", attempt, err)
		}
		if f.Lag() == 0 {
			return
		}
	}
	t.Fatalf("follower never caught up: seq %d, primary %d", f.Seq(), f.PrimarySeq())
}

func assertReplicaEquivalent(t *testing.T, f *Follower, primary *State) {
	t.Helper()
	if !bytes.Equal(snapshotBytes(t, f.State()), snapshotBytes(t, primary)) {
		t.Fatalf("follower state diverged (follower seq %d, primary seq %d)", f.Seq(), primary.Seq())
	}
}

func newChaosFollower(t *testing.T, url, dir string) *Follower {
	t.Helper()
	f, err := NewFollower(url, dir, FollowerOptions{
		NumCategories: 3,
		Segment: SegmentOptions{
			MaxBytes: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestReplicationChaosTornStream cuts the stream body at a seeded offset
// — anywhere: inside the magic, on a record boundary, mid-record — for 30
// storm rounds.  Each round the primary advances a random amount, the
// follower takes one poll through the cut and one clean poll, and must
// end the round byte-identical to the primary.
func TestReplicationChaosTornStream(t *testing.T) {
	seed := chaosSeed(t)
	rng := stats.NewRNG(seed)
	primaryDir := t.TempDir()
	ts, svc := newPrimary(t, primaryDir)
	proxy := &chaosProxy{primaryURL: ts.URL}
	ps := httptest.NewServer(proxy)
	defer ps.Close()

	followerDir := t.TempDir()
	f := newChaosFollower(t, ps.URL, followerDir)

	torn := 0
	for round := 0; round < 30; round++ {
		submitN(t, svc, rng.IntRange(1, 6))
		if rng.Bool(0.7) {
			// Seeded cut offset over a generous range: offsets beyond the
			// body length degrade to a clean pass, short ones tear the
			// header or an early record.
			proxy.set(proxyCut, int64(rng.IntRange(1, 2048)))
			if _, err := f.SyncOnce(context.Background()); err != nil {
				torn++
			}
			// Whatever the cut did, the applied prefix must be contiguous:
			// follower seq never exceeds the primary's.
			if f.Seq() > svc.State().Seq() {
				t.Fatalf("round %d: follower seq %d ahead of primary %d", round, f.Seq(), svc.State().Seq())
			}
		}
		proxy.set(proxyPass, 0)
		syncUntilCaughtUp(t, f)
		assertReplicaEquivalent(t, f, svc.State())
	}
	if torn == 0 {
		t.Fatal("no stream was ever torn — the chaos ran unexercised")
	}

	// Cold takeover at the end of the storm.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rec, info, err := RecoverDir(followerDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.TailDropped != nil {
		t.Fatalf("follower journal torn after clean syncs: %v", info.TailDropped)
	}
	if !bytes.Equal(snapshotBytes(t, rec), snapshotBytes(t, svc.State())) {
		t.Fatal("takeover state diverged from primary after torn-stream storm")
	}
}

// TestReplicationChaosPrimaryDowntime takes the primary away for whole
// poll windows while it keeps ingesting and rotating segments, then
// brings it back: the follower must absorb a multi-segment backlog and
// come back to zero lag through the ordinary poll path.
func TestReplicationChaosPrimaryDowntime(t *testing.T) {
	seed := chaosSeed(t)
	rng := stats.NewRNG(seed + 1)
	primaryDir := t.TempDir()
	// Small segments so downtime backlog provably spans several files.
	sl, err := OpenSegmentedLog(primaryDir, SegmentOptions{
		MaxBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	svc, err := NewService(mustState(t), greedySolver(), benefit.DefaultParams(), sl, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWithOptions(svc, NewServerOptions()))
	defer ts.Close()
	proxy := &chaosProxy{primaryURL: ts.URL}
	ps := httptest.NewServer(proxy)
	defer ps.Close()

	followerDir := t.TempDir()
	f := newChaosFollower(t, ps.URL, followerDir)
	syncUntilCaughtUp(t, f) // initial contact at seq 0

	for storm := 0; storm < 5; storm++ {
		proxy.set(proxyDown, 0)
		segsBefore := len(sl.Segments())
		seqBefore := f.Seq()
		// The primary ingests enough during the outage to seal multiple
		// segments; every follower poll meanwhile fails without applying.
		for i := 0; i < 3; i++ {
			submitN(t, svc, rng.IntRange(4, 10))
			if n, err := f.SyncOnce(context.Background()); err == nil || n != 0 {
				t.Fatalf("storm %d: poll against a down primary applied %d events (err %v)", storm, n, err)
			}
		}
		if f.Seq() != seqBefore {
			t.Fatalf("storm %d: follower moved while the primary was down", storm)
		}
		if len(sl.Segments()) <= segsBefore {
			t.Fatalf("storm %d: backlog did not span a new segment — shrink MaxBytes", storm)
		}
		proxy.set(proxyPass, 0)
		syncUntilCaughtUp(t, f)
		assertReplicaEquivalent(t, f, svc.State())
	}
}

// poisonHook tears one scheduled segment write in half and then refuses
// the heal, modelling a disk that failed mid-write and stayed failed: the
// primary's journal poisons permanently.
type poisonHook struct {
	mu   sync.Mutex
	hit  int
	seen int
}

func (h *poisonHook) At(point string) error {
	if point == CrashSegmentHeal {
		return faultinject.ErrInjected
	}
	return nil
}

func (h *poisonHook) Wrap(point string, w io.Writer) io.Writer {
	if point != CrashSegmentWrite {
		return w
	}
	return writerFunc(func(p []byte) (int, error) {
		h.mu.Lock()
		n := h.seen
		h.seen++
		h.mu.Unlock()
		if n != h.hit {
			return w.Write(p)
		}
		k, _ := w.Write(p[:len(p)/2])
		return k, faultinject.ErrInjected
	})
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestReplicationChaosPrimaryPoisonTakeover poisons the primary's journal
// mid-ingest (torn write, heal refused).  The primary keeps serving its
// committed prefix; the follower drains it and a cold takeover from the
// follower's directory must match a cold recovery of the primary's own
// directory — the poisoned tail is exactly the unacknowledged suffix.
func TestReplicationChaosPrimaryPoisonTakeover(t *testing.T) {
	primaryDir := t.TempDir()
	const acked = 7 // writes 0..6 succeed, write 7 tears
	sl, err := OpenSegmentedLog(primaryDir, SegmentOptions{
		MaxBytes: 1 << 20,
		Hook:     &poisonHook{hit: acked},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	svc, err := NewService(mustState(t), greedySolver(), benefit.DefaultParams(), sl, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWithOptions(svc, NewServerOptions()))
	defer ts.Close()

	submitN(t, svc, acked)
	if _, err := svc.Submit(NewWorkerJoined(validWorker())); err == nil {
		t.Fatal("torn-and-unhealable append reported success")
	}
	if !sl.Poisoned() {
		t.Fatal("journal not poisoned after refused heal")
	}
	if svc.State().Seq() != acked {
		t.Fatalf("primary seq %d after rollback, want %d", svc.State().Seq(), acked)
	}
	h := svc.Health()
	if h.Status != "degraded" || !h.JournalPoisoned {
		t.Fatalf("poisoned primary health %+v", h)
	}

	// The committed prefix still streams: the follower fully drains it.
	followerDir := t.TempDir()
	f := newChaosFollower(t, ts.URL, followerDir)
	n, err := f.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != acked || f.Lag() != 0 {
		t.Fatalf("follower drained %d events (lag %d), want %d (0)", n, f.Lag(), acked)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Takeover equivalence: the follower's cold recovery matches the
	// primary's own cold recovery (which drops the torn tail).
	fromFollower, _, err := RecoverDir(followerDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	fromPrimary, info, err := RecoverDir(primaryDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.TailDropped == nil {
		t.Fatal("primary dir recovered without noticing the torn tail")
	}
	if !bytes.Equal(snapshotBytes(t, fromFollower), snapshotBytes(t, fromPrimary)) {
		t.Fatal("takeover state diverges from primary's own recovery")
	}
	if fromFollower.Seq() != acked {
		t.Fatalf("takeover seq %d, want %d", fromFollower.Seq(), acked)
	}
}
