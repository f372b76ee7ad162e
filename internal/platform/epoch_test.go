package platform

// Epoch plumbing and fencing: the epoch_bumped control event (validation,
// binary codec, state monotonicity, snapshot carriage), and the fence it
// powers — a service that observes a higher epoch refuses writes with
// ErrFenced, surfaces it in health, and answers 409 over HTTP.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/benefit"
	"repro/internal/faultinject"
)

func TestEpochBumpedValidation(t *testing.T) {
	missing := Event{Kind: EventEpochBumped}
	if err := missing.Validate(); err == nil {
		t.Fatal("epoch bump without an epoch validated")
	}
	zero := uint64(0)
	toZero := Event{Kind: EventEpochBumped, Epoch: &zero}
	if err := toZero.Validate(); err == nil {
		t.Fatal("epoch bump to zero validated (zero is the never-failed-over epoch)")
	}
	ok := NewEpochBumped(3)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid epoch bump rejected: %v", err)
	}
}

func TestEpochBumpedBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	log := NewLog(&buf)
	e := NewEpochBumped(7)
	e.Seq = 1
	if err := log.Append(e); err != nil {
		t.Fatal(err)
	}
	events, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventEpochBumped {
		t.Fatalf("round-trip returned %+v", events)
	}
	if events[0].Epoch == nil || *events[0].Epoch != 7 || events[0].Seq != 1 {
		t.Fatalf("epoch payload mangled: %+v", events[0])
	}
}

func TestStateEpochMonotonicAndRollback(t *testing.T) {
	s := mustState(t)
	if s.Epoch() != 0 {
		t.Fatalf("fresh state epoch %d", s.Epoch())
	}
	if _, err := s.Apply(NewEpochBumped(3)); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 3 {
		t.Fatalf("epoch %d after bump to 3", s.Epoch())
	}
	// Equal or lower bumps are refused: the epoch is a term, it only grows.
	if _, err := s.Apply(NewEpochBumped(3)); err == nil {
		t.Fatal("equal epoch re-applied")
	}
	if _, err := s.Apply(NewEpochBumped(2)); err == nil {
		t.Fatal("lower epoch applied")
	}
	// A failed journal append rolls the bump back atomically.
	failing := NewLogWithOptions(faultinject.NewFlakyWriter(&bytes.Buffer{}, faultinject.After(0)), LogOptions{})
	if _, err := s.ApplyBatchJournaled([]Event{NewEpochBumped(9)}, failing.AppendBatch); err == nil {
		t.Fatal("bump with a dead journal reported success")
	}
	if s.Epoch() != 3 || s.Seq() != 1 {
		t.Fatalf("rollback left epoch %d seq %d, want 3/1", s.Epoch(), s.Seq())
	}
}

func TestSnapshotCarriesEpoch(t *testing.T) {
	s := mustState(t)
	if _, err := s.Apply(NewWorkerJoined(validWorker())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(NewEpochBumped(4)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, info, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != 4 {
		t.Fatalf("decoded epoch %d, want 4 (info %+v)", restored.Epoch(), info)
	}
}

func TestServiceFencing(t *testing.T) {
	svc, err := NewService(mustState(t), greedySolver(), benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fenced, _ := svc.FenceStatus(); fenced {
		t.Fatal("fresh service born fenced")
	}
	// Observing our own (equal) epoch is not evidence of a newer primary.
	svc.ObserveEpoch(0)
	if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
		t.Fatal(err)
	}

	svc.ObserveEpoch(5)
	if _, err := svc.Submit(NewWorkerJoined(validWorker())); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced submit error %v, want ErrFenced", err)
	}
	if _, err := svc.SubmitBatch([]Event{NewTaskPosted(validTask())}); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced batch error %v, want ErrFenced", err)
	}
	if _, err := svc.CloseRound(); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced round error %v, want ErrFenced", err)
	}
	// Observation keeps the max, never regresses.
	svc.ObserveEpoch(2)
	if fenced, by := svc.FenceStatus(); !fenced || by != 5 {
		t.Fatalf("fence status %v/%d after lower observation, want true/5", fenced, by)
	}
	h := svc.Health()
	if h.Status != "degraded" || !h.Fenced || h.FencedBy != 5 {
		t.Fatalf("fenced health %+v", h)
	}
	if svc.State().Seq() != 1 {
		t.Fatalf("fenced service still applied events (seq %d)", svc.State().Seq())
	}
}

func TestShardedFencingAndEpochRouting(t *testing.T) {
	ss := newTestShardedService(t, 2, 4, greedySolver, 1)
	// Epoch bumps have no routing key; a sharded backend refuses them
	// rather than bumping one arbitrary shard.
	if _, err := ss.Submit(NewEpochBumped(1)); err == nil ||
		!strings.Contains(err.Error(), "not routable") {
		t.Fatalf("sharded epoch bump error %v", err)
	}
	ss.ObserveEpoch(3)
	if _, err := ss.Submit(NewWorkerJoined(validWorker())); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced sharded submit error %v, want ErrFenced", err)
	}
	h := ss.Health()
	if h.Status != "degraded" || !h.Fenced || h.FencedBy != 3 {
		t.Fatalf("fenced sharded health %+v", h)
	}
}

// TestServerEpochHeaderFences drives the fence over HTTP: a request
// carrying a higher X-MBA-Epoch proves a newer primary exists; that very
// request (and every write after it) dies with 409, responses advertise
// the backend's epoch, and healthz degrades to 503.
func TestServerEpochHeaderFences(t *testing.T) {
	ts, svc := newPrimary(t, t.TempDir())
	submitN(t, svc, 2)

	post := func(epoch string) *http.Response {
		t.Helper()
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(validWorker()); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/workers", &body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if epoch != "" {
			req.Header.Set(EpochHeader, epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Malformed epochs are ignored (no evidence), equal epochs are benign.
	if resp := post("rubbish"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("malformed epoch header got %d", resp.StatusCode)
	}
	if resp := post("0"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("equal epoch header got %d", resp.StatusCode)
	}
	if got := svc.State().Seq(); got != 4 {
		t.Fatalf("seq %d before fencing, want 4", got)
	}

	// A higher epoch fences immediately: this request is already refused.
	resp := post("2")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fenced write got %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get(EpochHeader) != "0" {
		t.Fatalf("fenced response advertises epoch %q, want 0", resp.Header.Get(EpochHeader))
	}
	if resp := post(""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-fence write without header got %d, want 409", resp.StatusCode)
	}
	if got := svc.State().Seq(); got != 4 {
		t.Fatalf("fenced primary applied events: seq %d, want 4", got)
	}

	// Healthz reflects the demotion and answers 503 for probes.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced healthz status %d, want 503", hresp.StatusCode)
	}
}

// TestBatchRejectsControlEvents: POST /v1/batch is client input, so a
// round marker or an epoch bump in it — alone or riding with valid events
// — must be refused with 422 on both backends, leaving the epoch, the
// last sequence and the journal bytes untouched.  A forged bump would
// otherwise fence every peer at a lower epoch.
func TestBatchRejectsControlEvents(t *testing.T) {
	type backend interface {
		Backend
		Fenceable
		HealthReporter
	}
	single := func(t *testing.T) (backend, []*bytes.Buffer) {
		buf := &bytes.Buffer{}
		svc, err := NewService(mustState(t), greedySolver(), benefit.DefaultParams(), NewLog(buf), 1)
		if err != nil {
			t.Fatal(err)
		}
		return svc, []*bytes.Buffer{buf}
	}
	sharded := func(t *testing.T) (backend, []*bytes.Buffer) {
		ss, _, bufs := newBatchSharded(t, 4, nil)
		return ss, bufs
	}
	bodies := map[string]string{
		"epoch bump":        `[{"kind":"epoch_bumped","epoch":99}]`,
		"round marker":      `[{"kind":"round_closed","round":0}]`,
		"bump after a task": `[{"kind":"task_posted","task":{"category":0,"replication":1,"payment":5,"difficulty":0.2}},{"kind":"epoch_bumped","epoch":99}]`,
	}
	for name, build := range map[string]func(*testing.T) (backend, []*bytes.Buffer){"service": single, "sharded": sharded} {
		for what, body := range bodies {
			t.Run(name+"/"+what, func(t *testing.T) {
				b, bufs := build(t)
				if _, err := b.Submit(NewTaskPosted(validTask())); err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(NewServer(b))
				defer ts.Close()
				epoch, seq := b.Epoch(), b.Health().LastSeq
				var journals [][]byte
				for _, buf := range bufs {
					journals = append(journals, bytes.Clone(buf.Bytes()))
				}

				resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusUnprocessableEntity {
					t.Fatalf("status %d, want 422", resp.StatusCode)
				}
				if got := b.Epoch(); got != epoch {
					t.Fatalf("epoch %d after rejected batch, want %d", got, epoch)
				}
				if got := b.Health().LastSeq; got != seq {
					t.Fatalf("last seq %d after rejected batch, want %d", got, seq)
				}
				for k, buf := range bufs {
					if !bytes.Equal(buf.Bytes(), journals[k]) {
						t.Fatalf("journal %d changed by a rejected batch", k)
					}
				}
			})
		}
	}
}
