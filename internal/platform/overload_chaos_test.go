//go:build chaos

package platform

// Overload chaos storm (`make chaos`, -tags chaos): a seeded open-loop
// LoadStorm drives the admission-controlled server at ~4× its sustained
// write capacity under -race, asserting the overload contract end to
// end:
//
//   - admitted requests meet their deadline (p99 under RequestTimeout);
//   - shed requests get 429 + a positive Retry-After and consume zero
//     journal writes (the journal's accepted-event set is exactly the
//     set of acknowledged writes);
//   - the journal survives uncorrupted and replays to a state
//     byte-identical to the serving state;
//   - healthz reports "overloaded" during the storm (at HTTP 200) and
//     recovers to "ok" shortly after it ends;
//   - a concurrently probing failover standby never promotes: pure
//     overload is not death.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/faultinject"
)

func TestChaosOverloadStorm(t *testing.T) {
	seed := chaosSeed(t)

	const (
		capacity     = 150.0 // RateMedium: sustained single-write budget (req/s)
		overloadMult = 4.0
		stormTime    = 2500 * time.Millisecond
		reqTimeout   = 1 * time.Second
	)

	dir := t.TempDir()
	seg, err := OpenSegmentedLog(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	state := mustState(t)
	svc, err := NewService(state, core.Greedy{Kind: core.MutualWeight}, benefit.DefaultParams(), seg, seed)
	if err != nil {
		t.Fatal(err)
	}
	opts := NewServerOptions()
	opts.RequestTimeout = reqTimeout
	opts.Admission = NewAdmissionOptions()
	opts.Admission.RateMedium = capacity
	opts.Admission.Seed = seed
	opts.Admission.BrownoutHalflife = 200 * time.Millisecond
	ts := httptest.NewServer(NewServerWithOptions(svc, opts))
	defer ts.Close()

	// A failover standby probes the primary's health throughout the storm
	// with a hair-trigger threshold.  Overload must never read as death:
	// the standby is required to still be a follower when the storm ends.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fo, err := NewFailover(ts.URL, t.TempDir(), FailoverOptions{
		Follower: FollowerOptions{
			NumCategories: 3,
			PollInterval:  50 * time.Millisecond,
		},
		ProbeInterval: 50 * time.Millisecond,
		ProbeFailures: 3,
		AutoTakeover:  true,
		Seed:          seed,
		Solver:        core.Greedy{Kind: core.MutualWeight},
		Params:        benefit.DefaultParams(),
		Server:        NewServerOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	foDone := make(chan struct{})
	go func() {
		defer close(foDone)
		_ = fo.Run(ctx)
	}()

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 512, MaxConnsPerHost: 0},
		Timeout:   2 * reqTimeout,
	}

	var (
		acceptedMu  sync.Mutex
		acceptedIDs = map[int]bool{}

		badRetryAfter atomic.Int64 // 429s with a missing/invalid Retry-After
		transportErrs atomic.Int64
		unexpected    atomic.Int64
	)
	doRequest := func(i int) faultinject.LoadStormOutcome {
		body, _ := json.Marshal(validWorker())
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/workers", bytes.NewReader(body))
		if err != nil {
			transportErrs.Add(1)
			return faultinject.LoadError
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			transportErrs.Add(1)
			return faultinject.LoadError
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated:
			var out struct {
				ID int `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				unexpected.Add(1)
				return faultinject.LoadError
			}
			acceptedMu.Lock()
			acceptedIDs[out.ID] = true
			acceptedMu.Unlock()
			return faultinject.LoadAdmitted
		case http.StatusTooManyRequests:
			ra := resp.Header.Get("Retry-After")
			if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
				badRetryAfter.Add(1)
			}
			return faultinject.LoadShed
		default:
			unexpected.Add(1)
			return faultinject.LoadError
		}
	}

	healthz := func() (int, string) {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			return 0, fmt.Sprintf("transport: %v", err)
		}
		defer resp.Body.Close()
		var h HealthStatus
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			return resp.StatusCode, fmt.Sprintf("decode: %v", err)
		}
		return resp.StatusCode, h.Status
	}

	// Storm in a goroutine; the main goroutine watches healthz meanwhile.
	repCh := make(chan *faultinject.LoadStormReport, 1)
	go func() {
		repCh <- faultinject.RunLoadStorm(ctx, faultinject.LoadStormConfig{
			Rate:        capacity * overloadMult,
			Duration:    stormTime,
			Seed:        seed,
			Jitter:      0.3,
			MaxInFlight: 512,
		}, doRequest)
	}()

	sawOverloaded := false
	var rep *faultinject.LoadStormReport
watch:
	for {
		select {
		case rep = <-repCh:
			break watch
		case <-time.After(50 * time.Millisecond):
			if code, status := healthz(); code == http.StatusOK && status == StatusOverloaded {
				sawOverloaded = true
			} else if code != http.StatusOK {
				t.Errorf("healthz answered %d (%s) mid-storm; overload must stay 200", code, status)
			}
		}
	}

	t.Logf("storm: issued=%d admitted=%d shed=%d errors=%d skipped=%d p50=%v p99=%v",
		rep.Issued, rep.Admitted, rep.Shed, rep.Errors, rep.Skipped,
		rep.Percentile(50), rep.Percentile(99))

	// The storm must actually have overloaded the server, and the server
	// must have shed — an admission controller that admits 4× capacity is
	// not controlling anything.
	if rep.Admitted == 0 {
		t.Fatal("storm admitted nothing")
	}
	if rep.Shed == 0 {
		t.Fatal("4x overload shed nothing")
	}
	if n := transportErrs.Load() + unexpected.Load(); n > 0 {
		t.Fatalf("%d requests failed outside the 201/429 contract", n)
	}
	if n := badRetryAfter.Load(); n > 0 {
		t.Fatalf("%d shed responses carried a missing or non-positive Retry-After", n)
	}
	if !sawOverloaded {
		t.Error("healthz never reported overloaded during a 4x storm")
	}

	// Bounded latency for admitted work: the deadline-aware queue must
	// shed what it cannot serve in time instead of serving it late.
	if p99 := rep.Percentile(99); p99 >= reqTimeout {
		t.Errorf("admitted p99 %v breaches the %v request deadline", p99, reqTimeout)
	}

	// Monotone recovery: overloaded -> ok shortly after arrivals stop,
	// and it stays ok (the shed signal decays, nothing re-trips it).
	recoverDeadline := time.Now().Add(3 * time.Second)
	for {
		code, status := healthz()
		if code == http.StatusOK && status == "ok" {
			break
		}
		if time.Now().After(recoverDeadline) {
			t.Fatalf("healthz stuck at %d/%s after the storm", code, status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if code, status := healthz(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz flapped back to %d/%s after recovering", code, status)
	}

	// The standby watched every probe of the storm and must not have
	// promoted: overload is not failure.
	if phase := fo.Phase(); phase != PhaseFollower {
		t.Fatalf("failover phase %q after pure overload; the standby promoted", phase)
	}
	cancel()
	<-foDone

	// Journal fidelity.  Every acknowledged write (201 + id) is in the
	// journal exactly once; no shed request left a trace.
	events, _, err := svc.JournalEventsSince(1)
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[int]bool{}
	for _, e := range events {
		if e.Kind != EventWorkerJoined {
			t.Fatalf("unexpected journal event kind %q", e.Kind)
		}
		if journaled[e.Worker.ID] {
			t.Fatalf("worker %d journaled twice", e.Worker.ID)
		}
		journaled[e.Worker.ID] = true
	}
	acceptedMu.Lock()
	defer acceptedMu.Unlock()
	if len(journaled) != len(acceptedIDs) {
		t.Fatalf("journal has %d accepted writes, clients got %d acks", len(journaled), len(acceptedIDs))
	}
	for id := range acceptedIDs {
		if !journaled[id] {
			t.Fatalf("acknowledged worker %d missing from the journal", id)
		}
	}

	// Zero corruption, byte-identical replay: recovering the directory
	// must reproduce the serving state exactly.
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, info, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.TailDropped != nil {
		t.Fatalf("recovery dropped a torn tail after a pure overload storm: %v", info.TailDropped)
	}
	if len(info.CorruptSnapshots) != 0 {
		t.Fatalf("recovery skipped corrupt snapshots: %v", info.CorruptSnapshots)
	}
	var live, replayed bytes.Buffer
	if _, err := state.EncodeSnapshot(&live); err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.EncodeSnapshot(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("replayed state differs from serving state (%d vs %d snapshot bytes)",
			replayed.Len(), live.Len())
	}
}
