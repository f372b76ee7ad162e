package platform

// Failover and resync mechanics outside the chaos storms: the jittered
// backoff curve, the malformed-header hard error, the snapshot endpoint,
// the snapshot-resync property (a resynced follower is byte-identical to
// one that never lagged), and the probe loop's flap filter.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/benefit"
	"repro/internal/faultinject"
	"repro/internal/stats"
)

func TestBackoffDelay(t *testing.T) {
	rng := stats.NewRNG(1)
	base, ceiling := 100*time.Millisecond, time.Second
	prevTop := time.Duration(0)
	for fails := 1; fails <= 8; fails++ {
		top := base << (fails - 1)
		if top > ceiling {
			top = ceiling
		}
		d := backoffDelay(base, ceiling, fails, rng)
		if d < top/2 || d >= top {
			t.Fatalf("fails=%d: delay %v outside jitter window [%v, %v)", fails, d, top/2, top)
		}
		if top < prevTop {
			t.Fatalf("fails=%d: envelope shrank", fails)
		}
		prevTop = top
	}
	// Degenerate parameters still return something sane.
	if d := backoffDelay(0, 0, 1, rng); d <= 0 {
		t.Fatalf("zero-config delay %v", d)
	}
}

// TestFollowerMalformedLastSeqHeader: a primary advertising an
// unparseable commit position is a protocol error, not something to
// silently ignore — ignoring it would freeze PrimarySeq and fake zero
// lag forever.
func TestFollowerMalformedLastSeqHeader(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(JournalLastSeqHeader, "not-a-number")
		w.Write([]byte(binaryLogMagic))
	}))
	defer fake.Close()

	f, err := NewFollower(fake.URL, t.TempDir(), FollowerOptions{
		NumCategories: 3,
		Segment:       SegmentOptions{MaxBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.SyncOnce(context.Background()); err == nil {
		t.Fatal("malformed last-seq header accepted")
	} else if !errors.Is(err, strconv.ErrSyntax) {
		t.Fatalf("error %v does not surface the parse failure", err)
	}
	if f.PrimarySeq() != 0 {
		t.Fatalf("PrimarySeq %d moved on a malformed header", f.PrimarySeq())
	}
}

// newCheckpointedPrimary is newPrimary plus a checkpoint manager with
// tiny segments, so checkpoints retire history and /v1/snapshot serves.
func newCheckpointedPrimary(t *testing.T, dir string, segBytes int64, keep int) (*httptest.Server, *Service, *CheckpointManager) {
	t.Helper()
	sl, err := OpenSegmentedLog(dir, SegmentOptions{
		MaxBytes: segBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(mustState(t), greedySolver(), benefit.DefaultParams(), sl, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCheckpointManager(svc.State(), sl, CheckpointOptions{Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetCheckpointer(cm)
	ts := httptest.NewServer(NewServerWithOptions(svc, NewServerOptions()))
	t.Cleanup(func() {
		ts.Close()
		sl.Close()
	})
	return ts, svc, cm
}

func TestSnapshotEndpoint(t *testing.T) {
	// No checkpointing configured: the capability is absent, 404.
	plain := newTestServer(t)
	resp, err := http.Get(plain.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot without checkpointing: %d, want 404", resp.StatusCode)
	}

	ts, svc, cm := newCheckpointedPrimary(t, t.TempDir(), 1<<20, 2)
	// Checkpointing configured but none taken yet: still 404, not 500.
	resp, err = http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot before first checkpoint: %d, want 404", resp.StatusCode)
	}

	submitN(t, svc, 5)
	if _, err := cm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(SnapshotSeqHeader); got != "5" {
		t.Fatalf("snapshot seq header %q, want 5", got)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	st, info, err := DecodeSnapshot(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatalf("served snapshot does not verify: %v", err)
	}
	if info.Seq != 5 {
		t.Fatalf("served snapshot at seq %d, want 5", info.Seq)
	}
	if !bytes.Equal(snapshotBytes(t, st), snapshotBytes(t, svc.State())) {
		t.Fatal("served snapshot decodes to a different state")
	}
}

// TestFollowerResyncEqualsNeverLagged is the resync property test: a
// follower that lagged past segment retention and bootstrapped from the
// snapshot endpoint must end byte-identical to a follower that tailed
// every event — and so must cold recoveries of both directories.
func TestFollowerResyncEqualsNeverLagged(t *testing.T) {
	primaryDir := t.TempDir()
	// 512-byte segments + Keep 1 make retention aggressive.
	ts, svc, cm := newCheckpointedPrimary(t, primaryDir, 512, 1)

	freshDir, lagDir := t.TempDir(), t.TempDir()
	segOpts := SegmentOptions{MaxBytes: 1 << 20}
	fresh, err := NewFollower(ts.URL, freshDir, FollowerOptions{NumCategories: 3, Segment: segOpts})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	lagged, err := NewFollower(ts.URL, lagDir, FollowerOptions{NumCategories: 3, Segment: segOpts})
	if err != nil {
		t.Fatal(err)
	}
	defer lagged.Close()

	// Both followers see the first burst; then `lagged` stalls while the
	// primary ingests enough to seal several segments and a checkpoint
	// retires them.
	submitN(t, svc, 6)
	syncUntilCaughtUp(t, fresh)
	syncUntilCaughtUp(t, lagged)

	submitN(t, svc, 40)
	syncUntilCaughtUp(t, fresh)
	res, err := cm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsRetired < 2 {
		t.Fatalf("checkpoint retired %d segments, want >= 2 — shrink MaxBytes", res.SegmentsRetired)
	}

	// The stalled follower's position is gone: 410 → ErrResyncNeeded.
	if _, err := lagged.SyncOnce(context.Background()); !errors.Is(err, ErrResyncNeeded) {
		t.Fatalf("stalled follower got %v, want ErrResyncNeeded", err)
	}
	info, err := lagged.Resync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 46 || lagged.Seq() != 46 || lagged.Resyncs() != 1 {
		t.Fatalf("resync landed at %d (follower seq %d, resyncs %d)", info.Seq, lagged.Seq(), lagged.Resyncs())
	}

	// The primary keeps moving; the resynced follower re-tails normally.
	submitN(t, svc, 5)
	syncUntilCaughtUp(t, fresh)
	syncUntilCaughtUp(t, lagged)

	want := snapshotBytes(t, svc.State())
	if !bytes.Equal(snapshotBytes(t, lagged.State()), want) {
		t.Fatal("resynced follower diverges from primary")
	}
	if !bytes.Equal(snapshotBytes(t, lagged.State()), snapshotBytes(t, fresh.State())) {
		t.Fatal("resynced follower diverges from the never-lagged follower")
	}

	// Takeover equivalence: both directories cold-recover to the same
	// state, through entirely different histories (full tail vs snapshot
	// install + tail).
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lagged.Close(); err != nil {
		t.Fatal(err)
	}
	fromFresh, _, err := RecoverDir(freshDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	fromLagged, _, err := RecoverDir(lagDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, fromLagged), want) || !bytes.Equal(snapshotBytes(t, fromFresh), want) {
		t.Fatal("cold takeover after resync diverges")
	}
}

// failoverOptions returns fast-probe options for tests.
func failoverOptions(autoTakeover bool) FailoverOptions {
	return FailoverOptions{
		Follower: FollowerOptions{
			NumCategories: 3,
			Segment:       SegmentOptions{MaxBytes: 1 << 20},
			PollInterval:  5 * time.Millisecond,
			MaxBackoff:    20 * time.Millisecond,
		},
		ProbeInterval:   5 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		ProbeFailures:   3,
		ProbeMaxBackoff: 20 * time.Millisecond,
		AutoTakeover:    autoTakeover,
		Seed:            1,
		Solver:          greedySolver(),
		Params:          benefit.DefaultParams(),
		Server:          NewServerOptions(),
	}
}

// TestFailoverIgnoresTransientFlaps: a primary that answers every other
// probe 503 is flapping, not dead — the consecutive-failure threshold
// must never fill, and no promotion may happen.
func TestFailoverIgnoresTransientFlaps(t *testing.T) {
	primaryDir := t.TempDir()
	ts, svc := newPrimary(t, primaryDir)
	submitN(t, svc, 3)
	// Only the probe path flaps: every other healthz answers 503 while the
	// journal stream stays healthy — alive-but-struggling, not dead.
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		proxyTo(t, w, r, ts.URL)
	})
	mux := http.NewServeMux()
	mux.Handle("GET /v1/healthz", faultinject.NewFlapHandler(proxy, faultinject.EveryNth(2)))
	mux.Handle("/", proxy)
	flappy := httptest.NewServer(mux)
	defer flappy.Close()

	fo, err := NewFailover(flappy.URL, t.TempDir(), failoverOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fo.Run(ctx) }()

	select {
	case <-fo.Promoted():
		t.Fatal("flapping primary triggered a takeover")
	case <-ctx.Done():
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if fo.Phase() != PhaseFollower {
		t.Fatalf("phase %q after flapping, want follower", fo.Phase())
	}
	if fo.Follower().Seq() != 3 {
		t.Fatalf("follower replicated to %d through the flaps, want 3", fo.Follower().Seq())
	}
}

// proxyTo forwards one request to base, copying status and body — enough
// of a reverse proxy for probe tests.
func proxyTo(t *testing.T, w http.ResponseWriter, r *http.Request, base string) {
	t.Helper()
	resp, err := http.Get(base + r.URL.String())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	w.Write(buf.Bytes())
}

// TestFailoverAutoTakeover kills the primary outright and watches the
// supervisor promote: phase walks follower → primary, the promoted
// service carries epoch 1 and a promoted_at_seq, and the full API serves
// on the same handler.
func TestFailoverAutoTakeover(t *testing.T) {
	primaryDir := t.TempDir()
	_, svc := newPrimary(t, primaryDir)
	kill := faultinject.NewKillSwitch(NewServerWithOptions(svc, NewServerOptions()))
	front := httptest.NewServer(kill)
	defer front.Close()
	submitN(t, svc, 8)

	fo, err := NewFailover(front.URL, t.TempDir(), failoverOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fo.Run(ctx) }()

	// Let it replicate, then pull the plug.
	waitFor(t, time.Second, func() bool { return fo.Follower().Seq() == 8 })
	kill.Kill()
	select {
	case <-fo.Promoted():
	case <-time.After(5 * time.Second):
		t.Fatal("takeover never happened")
	}
	if fo.Phase() != PhasePrimary {
		t.Fatalf("phase %q after promotion", fo.Phase())
	}
	promoted, err := fo.Service()
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Epoch() != 1 || promoted.PromotedAtSeq() != 9 {
		t.Fatalf("promoted epoch %d at seq %d, want 1 at 9", promoted.Epoch(), promoted.PromotedAtSeq())
	}

	// The supervisor now serves the full API: writes and health both work.
	srv := httptest.NewServer(fo)
	defer srv.Close()
	resp, _ := postJSON(t, srv.URL+"/v1/workers", validWorker())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("promoted primary refused a write: %d", resp.StatusCode)
	}
	hresp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h HealthStatus
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "primary" || h.Epoch != 1 || h.PromotedAtSeq != 9 || h.Status != "ok" {
		t.Fatalf("promoted healthz %+v", h)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFailoverPromotionOutranksPrimaryEpoch: a standby whose last stream
// response was torn before the primary's newest epoch bump holds an older
// epoch than the primary advertised on that response.  Promoting to its
// own epoch + 1 would tie the primary's, leaving a resurrected old
// primary unfenced; the promotion must outrank the observed epoch, and
// the old primary must refuse writes once it hears the new one.
func TestFailoverPromotionOutranksPrimaryEpoch(t *testing.T) {
	ts, svc := newPrimary(t, t.TempDir())
	// The primary's history holds two epoch bumps: seq 5 (epoch 1) and
	// seq 9 (epoch 2), its current epoch.
	submitN(t, svc, 4)
	for _, epoch := range []uint64{1, 2} {
		if _, err := svc.Submit(NewEpochBumped(epoch)); err != nil {
			t.Fatal(err)
		}
		submitN(t, svc, 3)
	}

	// The primary dies while streaming: its first stream response is torn
	// inside record 8 (the epoch-2 bump), and every later request fails.
	torn := &tornOnceProxy{t: t, primaryURL: ts.URL, cutRecord: 8}
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if torn.torn.Load() {
			http.Error(w, "primary down", http.StatusBadGateway)
			return
		}
		torn.ServeHTTP(w, r)
	}))
	defer front.Close()

	fo, err := NewFailover(front.URL, t.TempDir(), failoverOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	f := fo.Follower()
	if n, err := f.SyncOnce(context.Background()); err == nil || n != 8 {
		t.Fatalf("torn sync applied %d (err %v), want 8 and an error", n, err)
	}
	if f.State().Epoch() != 1 || f.PrimaryEpoch() != 2 {
		t.Fatalf("replica at epoch %d, primary advertised %d; want 1 and 2", f.State().Epoch(), f.PrimaryEpoch())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fo.Run(ctx) }()
	select {
	case <-fo.Promoted():
	case <-time.After(5 * time.Second):
		t.Fatal("takeover never happened")
	}
	promoted, err := fo.Service()
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Epoch() != 3 || promoted.PromotedAtSeq() != 9 {
		t.Fatalf("promoted to epoch %d at seq %d, want 3 at 9", promoted.Epoch(), promoted.PromotedAtSeq())
	}

	// The old primary comes back and hears the new epoch on a request.
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(validWorker()); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/workers", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(EpochHeader, strconv.FormatUint(promoted.Epoch(), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("old primary answered %d to a write at the promoted epoch, want 409", resp.StatusCode)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// Promoted is closed once the supervisor has promoted to primary.
func (fo *Failover) Promoted() <-chan struct{} { return fo.promoted }

// Service returns the promoted primary service, or ErrNotPromoted before
// takeover.
func (fo *Failover) Service() (*Service, error) {
	if s := fo.svc.Load(); s != nil {
		return s, nil
	}
	return nil, ErrNotPromoted
}

// Resyncs counts the snapshot bootstraps this follower has performed.
func (f *Follower) Resyncs() uint64 { return f.resyncs.Load() }

// ErrNotPromoted reports an accessor that only makes sense after
// promotion (e.g. Service) being called before it.
var ErrNotPromoted = errors.New("platform: failover has not promoted")
