package platform

// Failover chaos: the three storms the self-healing replication stack
// must survive.  (1) The primary is killed mid-traffic and the standby
// auto-promotes — the promoted state must be byte-identical to a replay
// of the primary's replicated prefix plus the epoch bump.  (2) The dead
// primary is revived and hammered with writes — fencing must reject
// every single one, applying and journaling nothing.  (3) A follower
// stalls past segment retention and must come back through snapshot
// resync byte-identical to a follower that never lagged.  Seeded via
// CHAOS_SEED; run with `make chaos`.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benefit"
	"repro/internal/faultinject"
	"repro/internal/stats"
)

// newKillablePrimary builds a segmented-journal primary fronted by a
// KillSwitch, returning the front URL the standby talks to.
func newKillablePrimary(t *testing.T, dir string) (*httptest.Server, *Service, *faultinject.KillSwitch) {
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
	kill := faultinject.NewKillSwitch(NewServerWithOptions(svc, NewServerOptions()))
	ts := httptest.NewServer(kill)
	t.Cleanup(func() {
		ts.Close()
		sl.Close()
	})
	return ts, svc, kill
}

// churn POSTs workers and tasks at url until stop closes or a request
// fails (the killed primary severs connections); applied counts the
// successful writes.
func churn(t *testing.T, url string, rng *stats.RNG, stop <-chan struct{}, applied *atomic.Int64) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		var body bytes.Buffer
		path := "/v1/workers"
		if rng.Bool(0.3) {
			path = "/v1/tasks"
			json.NewEncoder(&body).Encode(validTask())
		} else {
			json.NewEncoder(&body).Encode(validWorker())
		}
		resp, err := http.Post(url+path, "application/json", &body)
		if err != nil {
			return // the kill switch fired mid-request
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return
		}
		applied.Add(1)
	}
}

// promotedReference replays the primary's journaled prefix [1..k] plus
// the promotion's epoch bump — the state a crash-free takeover at k must
// equal, byte for byte.
func promotedReference(t *testing.T, svc *Service, k uint64) *State {
	t.Helper()
	events, _, err := svc.JournalEventsSince(1)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustState(t)
	for _, e := range events {
		if e.Seq > k {
			break
		}
		if _, err := ref.Apply(e); err != nil {
			t.Fatalf("replaying primary seq %d: %v", e.Seq, err)
		}
	}
	if ref.Seq() != k {
		t.Fatalf("primary journal only replays to %d, want %d", ref.Seq(), k)
	}
	if _, err := ref.Apply(NewEpochBumped(ref.Epoch() + 1)); err != nil {
		t.Fatal(err)
	}
	return ref
}

// runFailoverUnderChurn drives the shared storm front half: churn
// traffic into a killable primary while a standby replicates, kill the
// primary mid-traffic, and wait for the automatic promotion.
func runFailoverUnderChurn(t *testing.T, ctx context.Context, seed uint64) (primary *Service, promoted *Service, fo *Failover, done chan error) {
	t.Helper()
	rng := stats.NewRNG(seed)
	ts, svc, kill := newKillablePrimary(t, t.TempDir())

	fo, err := NewFailover(ts.URL, t.TempDir(), failoverOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	done = make(chan error, 1)
	go func() { done <- fo.Run(ctx) }()

	var applied atomic.Int64
	stopChurn := make(chan struct{})
	churnDone := make(chan struct{})
	churnRNG := rng.Split()
	go func() {
		defer close(churnDone)
		churn(t, ts.URL, churnRNG, stopChurn, &applied)
	}()

	// Kill mid-traffic: once a seeded number of writes has committed and
	// the standby has demonstrably replicated some of them.
	target := int64(rng.IntRange(25, 60))
	waitFor(t, 10*time.Second, func() bool {
		return applied.Load() >= target && fo.Follower().Seq() > 0
	})
	kill.Kill()
	close(stopChurn)
	<-churnDone

	select {
	case <-fo.Promoted():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never promoted after the kill")
	}
	p, err := fo.Service()
	if err != nil {
		t.Fatal(err)
	}
	return svc, p, fo, done
}

// TestReplicationChaosAutoFailoverUnderChurn: the promoted service must
// hold exactly the primary's replicated prefix plus the epoch bump —
// nothing invented, nothing reordered — and keep serving writes.
func TestReplicationChaosAutoFailoverUnderChurn(t *testing.T) {
	seed := chaosSeed(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	primary, promoted, fo, done := runFailoverUnderChurn(t, ctx, seed)

	k := promoted.PromotedAtSeq() - 1
	if k == 0 {
		t.Fatal("promotion happened before any replication")
	}
	if primarySeq := primary.State().Seq(); k > primarySeq {
		t.Fatalf("promoted from seq %d, ahead of the primary's %d", k, primarySeq)
	}
	if promoted.Epoch() != 1 {
		t.Fatalf("promoted epoch %d, want 1", promoted.Epoch())
	}
	ref := promotedReference(t, primary, k)
	if !bytes.Equal(snapshotBytes(t, promoted.State()), snapshotBytes(t, ref)) {
		t.Fatalf("promoted state diverges from the crash-free reference at seq %d", k)
	}

	// The new primary is live: it ingests and closes rounds.
	if _, err := promoted.Submit(NewWorkerJoined(validWorker())); err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.CloseRound(); err != nil {
		t.Fatal(err)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = fo
}

// TestReplicationChaosSplitBrainRevival revives the killed primary after
// the standby promoted and hammers it with writes carrying the new
// epoch: every write must die with 409 and ErrFenced underneath — zero
// events applied, zero journaled — while reads keep serving.
func TestReplicationChaosSplitBrainRevival(t *testing.T) {
	seed := chaosSeed(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	primary, promoted, _, done := runFailoverUnderChurn(t, ctx, seed+2)

	ref := promotedReference(t, primary, promoted.PromotedAtSeq()-1)
	if !bytes.Equal(snapshotBytes(t, promoted.State()), snapshotBytes(t, ref)) {
		t.Fatal("promoted state diverges from the crash-free reference")
	}

	// The old primary comes back from the dead, unaware it was replaced.
	// (The kill switch only severed HTTP; its service and journal are the
	// in-process stand-in for a process restart on the same directory.)
	revived := httptest.NewServer(NewServerWithOptions(primary, NewServerOptions()))
	defer revived.Close()
	seqBefore := primary.State().Seq()
	eventsBefore, _, err := primary.JournalEventsSince(1)
	if err != nil {
		t.Fatal(err)
	}
	workersBefore, tasksBefore := primary.State().Counts()

	// Hammer it with writes that carry the promoted epoch — the first one
	// is the demotion, and every one must be refused.
	epoch := fmt.Sprint(promoted.Epoch())
	const hammer = 30
	for i := 0; i < hammer; i++ {
		var body bytes.Buffer
		json.NewEncoder(&body).Encode(validWorker())
		req, err := http.NewRequest(http.MethodPost, revived.URL+"/v1/workers", &body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(EpochHeader, epoch)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("fenced write %d got %d, want 409", i, resp.StatusCode)
		}
	}
	// Writes without the header are equally dead: the fence latches.
	if _, err := primary.Submit(NewWorkerJoined(validWorker())); !errors.Is(err, ErrFenced) {
		t.Fatalf("direct submit on fenced primary: %v, want ErrFenced", err)
	}

	// Zero post-demotion effects: state, counts and journal all unmoved.
	if got := primary.State().Seq(); got != seqBefore {
		t.Fatalf("fenced primary applied events: seq %d → %d", seqBefore, got)
	}
	eventsAfter, _, err := primary.JournalEventsSince(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(eventsAfter) != len(eventsBefore) {
		t.Fatalf("fenced primary journaled %d new events", len(eventsAfter)-len(eventsBefore))
	}
	if w, k := primary.State().Counts(); w != workersBefore || k != tasksBefore {
		t.Fatalf("fenced primary counts moved: %d/%d → %d/%d", workersBefore, tasksBefore, w, k)
	}
	h := primary.Health()
	if h.Status != "degraded" || !h.Fenced || h.FencedBy != promoted.Epoch() {
		t.Fatalf("revived primary health %+v", h)
	}
	// Reads still serve — fencing demotes, it does not kill.
	resp, err := http.Get(revived.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fenced primary read got %d", resp.StatusCode)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestReplicationChaosLagResync stalls a follower across multiple
// checkpoint/retention cycles while a control follower tails every
// event: the stalled one must recover through snapshot resync and end
// byte-identical to both the control and the primary, storm after storm.
func TestReplicationChaosLagResync(t *testing.T) {
	seed := chaosSeed(t)
	rng := stats.NewRNG(seed + 5)
	primaryDir := t.TempDir()
	ts, svc, cm := newCheckpointedPrimary(t, primaryDir, 512, 1)

	segOpts := SegmentOptions{MaxBytes: 1 << 20}
	controlDir, stallDir := t.TempDir(), t.TempDir()
	control, err := NewFollower(ts.URL, controlDir, FollowerOptions{NumCategories: 3, Segment: segOpts})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	staller, err := NewFollower(ts.URL, stallDir, FollowerOptions{NumCategories: 3, Segment: segOpts})
	if err != nil {
		t.Fatal(err)
	}
	defer staller.Close()

	resyncs, retired := 0, 0
	for storm := 0; storm < 4; storm++ {
		// Both catch up, then the staller goes dark while the primary
		// ingests several segments' worth and checkpoints retire them.
		syncUntilCaughtUp(t, control)
		syncUntilCaughtUp(t, staller)
		bursts := rng.IntRange(2, 4)
		for b := 0; b < bursts; b++ {
			submitN(t, svc, rng.IntRange(15, 30))
			syncUntilCaughtUp(t, control)
			res, err := cm.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			retired += res.SegmentsRetired
		}
		_, err := staller.SyncOnce(context.Background())
		switch {
		case errors.Is(err, ErrResyncNeeded):
			if _, err := staller.Resync(context.Background()); err != nil {
				t.Fatalf("storm %d: resync failed: %v", storm, err)
			}
			resyncs++
		case err != nil:
			t.Fatalf("storm %d: sync failed: %v", storm, err)
		}
		syncUntilCaughtUp(t, staller)
		want := snapshotBytes(t, svc.State())
		if !bytes.Equal(snapshotBytes(t, staller.State()), want) {
			t.Fatalf("storm %d: resynced follower diverges from primary", storm)
		}
		if !bytes.Equal(snapshotBytes(t, control.State()), want) {
			t.Fatalf("storm %d: control follower diverges from primary", storm)
		}
	}
	if resyncs == 0 {
		t.Fatal("no storm ever forced a resync — retention ran unexercised")
	}
	if retired < 2 {
		t.Fatalf("only %d segments retired across the storm — shrink MaxBytes", retired)
	}
	if got := staller.Resyncs(); got != uint64(resyncs) {
		t.Fatalf("follower counted %d resyncs, test saw %d", got, resyncs)
	}

	// Cold takeover from both directories reproduces the primary.
	if err := control.Close(); err != nil {
		t.Fatal(err)
	}
	if err := staller.Close(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, svc.State())
	fromControl, _, err := RecoverDir(controlDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	fromStaller, _, err := RecoverDir(stallDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, fromControl), want) {
		t.Fatal("control cold takeover diverges")
	}
	if !bytes.Equal(snapshotBytes(t, fromStaller), want) {
		t.Fatal("stalled-follower cold takeover diverges after resyncs")
	}
}
