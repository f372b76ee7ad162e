package platform

// Batch ingest tests: POST /v1/batch's all-or-nothing contract on both
// backends.  A batch either fully applies — one contiguous journal append
// per shard — or leaves state, journal, and routing tables exactly as
// they were, including under mid-fan-out journal failures on a sharded
// backend (compensation) and intra-batch entity lifecycles.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/benefit"
	"repro/internal/faultinject"
)

// assertReplayMatches replays journal bytes and compares against the live
// state — the memory-equals-disk invariant every batch path must keep.
func assertReplayMatches(t *testing.T, ncat int, journal []byte, live *State) {
	t.Helper()
	events, err := ReadLog(bytes.NewReader(journal))
	if err != nil {
		t.Fatalf("journal corrupt: %v", err)
	}
	replayed, err := Replay(ncat, events)
	if err != nil {
		t.Fatal(err)
	}
	liveIn, liveW, liveT := live.Snapshot()
	repIn, repW, repT := replayed.Snapshot()
	if !reflect.DeepEqual(liveIn, repIn) || !reflect.DeepEqual(liveW, repW) || !reflect.DeepEqual(liveT, repT) {
		t.Fatal("replayed state diverges from live state")
	}
	if replayed.Seq() != live.Seq() {
		t.Fatalf("replayed seq %d, live seq %d", replayed.Seq(), live.Seq())
	}
}

func TestServiceSubmitBatch(t *testing.T) {
	var buf bytes.Buffer
	log := NewLog(&buf)
	svc := mustService(t, log)

	applied, err := svc.SubmitBatch([]Event{
		NewWorkerJoined(validWorker()),
		NewWorkerJoined(validWorker()),
		NewTaskPosted(validTask()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 3 {
		t.Fatalf("applied %d events, want 3", len(applied))
	}
	for i, e := range applied {
		if want := uint64(i + 1); e.Seq != want {
			t.Fatalf("batch seqs not contiguous: event %d has seq %d", i, e.Seq)
		}
	}
	if w, tk := svc.Counts(); w != 2 || tk != 1 {
		t.Fatalf("counts after batch: %d workers %d tasks", w, tk)
	}

	// An invalid event anywhere rejects the whole batch: nothing applies,
	// nothing is journaled.
	journalLen := buf.Len()
	_, err = svc.SubmitBatch([]Event{
		NewTaskPosted(validTask()),
		NewWorkerLeft(999), // not live
		NewTaskPosted(validTask()),
	})
	if err == nil {
		t.Fatal("batch with an invalid event accepted")
	}
	if w, tk := svc.Counts(); w != 2 || tk != 1 {
		t.Fatalf("failed batch leaked state: %d workers %d tasks", w, tk)
	}
	if buf.Len() != journalLen {
		t.Fatal("failed batch left bytes in the journal")
	}

	// Round markers are CloseRound's business.
	if _, err := svc.SubmitBatch([]Event{NewRoundClosed(0)}); err == nil {
		t.Fatal("round marker accepted in a batch")
	}

	// A batch may consume entities from earlier batches.
	if _, err := svc.SubmitBatch([]Event{
		NewWorkerLeft(applied[0].Worker.ID),
		NewTaskClosed(applied[2].Task.ID),
		NewWorkerJoined(validWorker()),
	}); err != nil {
		t.Fatal(err)
	}
	if w, tk := svc.Counts(); w != 2 || tk != 0 {
		t.Fatalf("counts after mixed batch: %d workers %d tasks", w, tk)
	}
	assertReplayMatches(t, 3, buf.Bytes(), svc.State())
}

func TestServiceSubmitBatchJournalFailureRollsBack(t *testing.T) {
	var buf bytes.Buffer
	fw := faultinject.NewFlakyWriter(&buf, faultinject.Once(1))
	svc := mustService(t, NewLog(fw))
	if _, err := svc.SubmitBatch([]Event{NewWorkerJoined(validWorker())}); err != nil {
		t.Fatal(err)
	}
	// Write op 1 — the next batch's single append — fails cleanly (nothing
	// written); the whole batch must roll back.
	_, err := svc.SubmitBatch([]Event{
		NewWorkerJoined(validWorker()),
		NewTaskPosted(validTask()),
	})
	if err == nil {
		t.Fatal("batch with failed journal append reported success")
	}
	if w, tk := svc.Counts(); w != 1 || tk != 0 {
		t.Fatalf("rolled-back batch leaked state: %d workers %d tasks", w, tk)
	}
	if svc.State().Seq() != 1 {
		t.Fatalf("seq %d after rollback, want 1", svc.State().Seq())
	}
	// The same batch succeeds on retry and replay equivalence holds.
	if _, err := svc.SubmitBatch([]Event{
		NewWorkerJoined(validWorker()),
		NewTaskPosted(validTask()),
	}); err != nil {
		t.Fatal(err)
	}
	assertReplayMatches(t, 3, buf.Bytes(), svc.State())
}

// newBatchSharded builds a 2-shard sharded service whose shard journals
// are in-memory logs (shard 1 optionally flaky), returning the pieces the
// assertions need.
func newBatchSharded(t *testing.T, cats int, flaky *faultinject.FlakyWriter) (*ShardedService, []*State, []*bytes.Buffer) {
	t.Helper()
	const shards = 2
	states := make([]*State, shards)
	bufs := make([]*bytes.Buffer, shards)
	bundles := make([]Shard, shards)
	for k := range bundles {
		st, err := NewState(cats)
		if err != nil {
			t.Fatal(err)
		}
		states[k] = st
		bufs[k] = &bytes.Buffer{}
		var journal Journal = NewLog(bufs[k])
		if k == 1 && flaky != nil {
			journal = NewLog(flaky)
		}
		bundles[k] = Shard{State: st, Journal: journal, Solver: greedySolver()}
	}
	ss, err := NewShardedService(bundles, benefit.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ss, states, bufs
}

// shardStatesMatchJournals replays every shard's journal against its live
// state.
func shardStatesMatchJournals(t *testing.T, cats int, states []*State, journals [][]byte) {
	t.Helper()
	for k := range states {
		assertReplayMatches(t, cats, journals[k], states[k])
	}
}

func TestShardedSubmitBatchFanOut(t *testing.T) {
	const cats = 4
	c0, c1 := spanningSpecialties(t, cats, 2)
	ss, states, bufs := newBatchSharded(t, cats, nil)

	applied, err := ss.SubmitBatch([]Event{
		NewWorkerJoined(shardedWorker(cats, c0, c1)), // resident in both shards
		NewWorkerJoined(shardedWorker(cats, c0)),
		NewTaskPosted(shardedTask(c0)),
		NewTaskPosted(shardedTask(c1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 4 {
		t.Fatalf("applied %d events, want 4", len(applied))
	}
	if w, tk := ss.Counts(); w != 2 || tk != 2 {
		t.Fatalf("counts after batch: %d workers %d tasks", w, tk)
	}
	// The spanning worker landed in both shard states.
	span := applied[0].Worker.ID
	for k, st := range states {
		if _, ok := st.Worker(span); !ok {
			t.Fatalf("spanning worker %d missing from shard %d", span, k)
		}
	}
	shardStatesMatchJournals(t, cats, states, [][]byte{bufs[0].Bytes(), bufs[1].Bytes()})

	// Consume them in a second batch, including the spanning worker whose
	// leave must fan out to both shards.
	if _, err := ss.SubmitBatch([]Event{
		NewWorkerLeft(span),
		NewTaskClosed(applied[2].Task.ID),
		NewTaskClosed(applied[3].Task.ID),
	}); err != nil {
		t.Fatal(err)
	}
	if w, tk := ss.Counts(); w != 1 || tk != 0 {
		t.Fatalf("counts after removal batch: %d workers %d tasks", w, tk)
	}
	shardStatesMatchJournals(t, cats, states, [][]byte{bufs[0].Bytes(), bufs[1].Bytes()})
}

func TestShardedSubmitBatchIntraBatchLifecycle(t *testing.T) {
	const cats = 4
	c0, c1 := spanningSpecialties(t, cats, 2)
	ss, states, bufs := newBatchSharded(t, cats, nil)

	// Sharded IDs are assigned from 1, so an intra-batch leave/close can
	// name the entity its own batch just created.
	applied, err := ss.SubmitBatch([]Event{
		NewWorkerJoined(shardedWorker(cats, c0, c1)), // → worker 1
		NewTaskPosted(shardedTask(c0)),               // → task 1
		NewWorkerLeft(1),                             // leaves within the batch
		NewTaskClosed(1),
		NewWorkerJoined(shardedWorker(cats, c1)), // → worker 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied[0].Worker.ID != 1 || applied[1].Task.ID != 1 || applied[4].Worker.ID != 2 {
		t.Fatalf("unexpected ID assignment: %+v", applied)
	}
	if w, tk := ss.Counts(); w != 1 || tk != 0 {
		t.Fatalf("counts after intra-batch lifecycle: %d workers %d tasks", w, tk)
	}
	shardStatesMatchJournals(t, cats, states, [][]byte{bufs[0].Bytes(), bufs[1].Bytes()})

	// Rejected plans must leave the routing tables unstaged: worker 2 is
	// still live, worker 1 is not.
	if _, err := ss.SubmitBatch([]Event{NewWorkerLeft(1)}); err == nil {
		t.Fatal("left worker removed twice")
	}
	if _, err := ss.SubmitBatch([]Event{NewWorkerLeft(2)}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedSubmitBatchCompensation(t *testing.T) {
	const cats = 4
	c0, c1 := spanningSpecialties(t, cats, 2)
	var flakyBuf bytes.Buffer
	// Shard 1 takes 2 seed writes (spanning worker + its task), then every
	// write fails — including the batch append.
	flaky := faultinject.NewFlakyWriter(&flakyBuf, faultinject.After(2))
	ss, states, bufs := newBatchSharded(t, cats, flaky)

	if _, err := ss.Submit(NewWorkerJoined(shardedWorker(cats, c0, c1))); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Submit(NewTaskPosted(shardedTask(c1))); err != nil {
		t.Fatal(err)
	}
	w0, t0 := ss.Counts()

	// This batch touches shard 0 first (applies cleanly), then shard 1
	// (journal append fails): shard 0 must be compensated back.
	_, err := ss.SubmitBatch([]Event{
		NewWorkerJoined(shardedWorker(cats, c0)),
		NewTaskPosted(shardedTask(c0)),
		NewTaskPosted(shardedTask(c1)),
	})
	if err == nil {
		t.Fatal("batch over a failing shard journal succeeded")
	}
	if flaky.Injections() == 0 {
		t.Fatal("fault never injected — the fan-out order changed?")
	}
	if w, tk := ss.Counts(); w != w0 || tk != t0 {
		t.Fatalf("counts drifted after compensated batch: %d/%d, want %d/%d", w, tk, w0, t0)
	}
	// Every shard's journal still replays to its exact state — the
	// compensation events are journaled like any other.
	shardStatesMatchJournals(t, cats, states, [][]byte{bufs[0].Bytes(), flakyBuf.Bytes()})

	// Routing tables were not committed: the batch's provisional IDs are
	// reusable, so an all-shard-0 batch (avoiding the dead journal) works.
	if _, err := ss.SubmitBatch([]Event{
		NewWorkerJoined(shardedWorker(cats, c0)),
		NewTaskPosted(shardedTask(c0)),
	}); err != nil {
		t.Fatal(err)
	}
}

func newBatchHTTPServer(t *testing.T, journal Journal) (*httptest.Server, *Service) {
	t.Helper()
	state := mustState(t)
	svc, err := NewService(state, greedySolver(), benefit.DefaultParams(), journal, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWithOptions(svc, NewServerOptions()))
	t.Cleanup(ts.Close)
	return ts, svc
}

func TestServerBatchEndpoint(t *testing.T) {
	var buf bytes.Buffer
	ts, svc := newBatchHTTPServer(t, NewLog(&buf))

	resp, out := postJSON(t, ts.URL+"/v1/batch", []Event{
		NewWorkerJoined(validWorker()),
		NewTaskPosted(validTask()),
		NewWorkerJoined(validWorker()),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d (%v)", resp.StatusCode, out)
	}
	var items []BatchItem
	if err := json.Unmarshal(out["applied"], &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("applied %d items, want 3", len(items))
	}
	for i, it := range items {
		if it.Seq != uint64(i+1) {
			t.Fatalf("item %d = %+v, want contiguous seq", i, it)
		}
	}
	if items[0].Kind != EventWorkerJoined || items[1].Kind != EventTaskPosted {
		t.Fatalf("item kinds %v", items)
	}
	if items[0].ID == items[2].ID {
		t.Fatalf("both workers resolved to ID %d", items[0].ID)
	}

	// All-or-nothing over HTTP: 422, counts unchanged.
	resp, out = postJSON(t, ts.URL+"/v1/batch", []Event{
		NewWorkerJoined(validWorker()),
		NewWorkerLeft(12345),
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid batch status %d (%v)", resp.StatusCode, out)
	}
	if w, tk := svc.Counts(); w != 2 || tk != 1 {
		t.Fatalf("counts after rejected batch: %d workers %d tasks", w, tk)
	}

	// Malformed JSON is 400, not 422.
	r, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch status %d", r.StatusCode)
	}
	assertReplayMatches(t, 3, buf.Bytes(), svc.State())
}

func TestServerHealthz(t *testing.T) {
	var buf bytes.Buffer
	// Writes 0 and 1 succeed; write 2 tears mid-record and poisons.
	fw := faultinject.NewFlakyWriter(&buf, faultinject.After(2))
	fw.Partial = true
	ts, svc := newBatchHTTPServer(t, NewLog(fw))

	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Role != "primary" || h.LastSeq != 2 {
		t.Fatalf("healthy healthz = %d %+v", resp.StatusCode, h)
	}

	// Poison the journal; healthz must flip to 503/degraded.
	if _, err := svc.Submit(NewWorkerJoined(validWorker())); err == nil {
		t.Fatal("torn append reported success")
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "degraded" || !h.JournalPoisoned {
		t.Fatalf("poisoned healthz = %d %+v", resp.StatusCode, h)
	}
}

func TestShardedHealthReportsPerShard(t *testing.T) {
	const cats = 4
	c0, c1 := spanningSpecialties(t, cats, 2)
	var flakyBuf bytes.Buffer
	flaky := faultinject.NewFlakyWriter(&flakyBuf, faultinject.After(1))
	flaky.Partial = true
	ss, _, _ := newBatchSharded(t, cats, flaky)

	if _, err := ss.Submit(NewTaskPosted(shardedTask(c1))); err != nil {
		t.Fatal(err)
	}
	h := ss.Health()
	if h.Status != "ok" || len(h.Shards) != 2 || h.JournalPoisoned {
		t.Fatalf("healthy sharded health = %+v", h)
	}
	// Tear shard 1's journal (write 1, Partial) — submits to c1 fail and
	// the health rolls up as degraded with the shard pinpointed.
	if _, err := ss.Submit(NewTaskPosted(shardedTask(c1))); err == nil {
		t.Fatal("torn shard append reported success")
	}
	h = ss.Health()
	if h.Status != "degraded" || !h.JournalPoisoned {
		t.Fatalf("degraded sharded health = %+v", h)
	}
	poisonedShards := 0
	for _, sh := range h.Shards {
		if sh.JournalPoisoned {
			poisonedShards++
		}
	}
	if poisonedShards != 1 {
		t.Fatalf("%d shards report poisoned, want exactly 1", poisonedShards)
	}
	_ = c0
}
