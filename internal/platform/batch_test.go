package platform

// Batch ingest tests: POST /v1/batch's all-or-nothing contract.  A batch
// either fully applies — one contiguous journal append — or leaves state
// and journal exactly as they were, whatever the service's round
// partition count, including intra-batch entity lifecycles.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
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

// newBatchSharded builds a service whose rounds split into two partitions,
// journaling to an in-memory log.
func newBatchSharded(t *testing.T, cats int) (*Service, *bytes.Buffer) {
	t.Helper()
	st, err := NewState(cats)
	if err != nil {
		t.Fatal(err)
	}
	buf := &bytes.Buffer{}
	svc, err := NewPartitionedService(st, []core.Solver{greedySolver(), greedySolver()}, benefit.DefaultParams(), NewLog(buf), 1)
	if err != nil {
		t.Fatal(err)
	}
	return svc, buf
}

// TestShardedSubmitBatchFanOut: a batch on a partitioned service lands in
// its one state and journal whole, and the next round places a worker
// whose specialties span both partitions in each of them.
func TestShardedSubmitBatchFanOut(t *testing.T) {
	const cats = 4
	c0, c1 := spanningSpecialties(t, cats, 2)
	svc, buf := newBatchSharded(t, cats)

	applied, err := svc.SubmitBatch([]Event{
		NewWorkerJoined(shardedWorker(cats, c0, c1)), // resident in both partitions
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
	if w, tk := svc.Counts(); w != 2 || tk != 2 {
		t.Fatalf("counts after batch: %d workers %d tasks", w, tk)
	}
	assertReplayMatches(t, cats, buf.Bytes(), svc.State())

	res, err := svc.CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	router := ShardRouter{Shards: 2}
	k0, k1 := router.TaskShard(c0), router.TaskShard(c1)
	if sr := res.Shards[k0]; sr.Workers != 2 || sr.Tasks != 1 {
		t.Fatalf("partition %d holds %d workers / %d tasks, want 2/1", k0, sr.Workers, sr.Tasks)
	}
	if sr := res.Shards[k1]; sr.Workers != 1 || sr.Tasks != 1 {
		t.Fatalf("partition %d holds %d workers / %d tasks, want 1/1", k1, sr.Workers, sr.Tasks)
	}

	// Consume them in a second batch, the spanning worker included.
	span := applied[0].Worker.ID
	if _, err := svc.SubmitBatch([]Event{
		NewWorkerLeft(span),
		NewTaskClosed(applied[2].Task.ID),
		NewTaskClosed(applied[3].Task.ID),
	}); err != nil {
		t.Fatal(err)
	}
	if w, tk := svc.Counts(); w != 1 || tk != 0 {
		t.Fatalf("counts after removal batch: %d workers %d tasks", w, tk)
	}
	assertReplayMatches(t, cats, buf.Bytes(), svc.State())
}

func TestShardedSubmitBatchIntraBatchLifecycle(t *testing.T) {
	const cats = 4
	c0, c1 := spanningSpecialties(t, cats, 2)
	svc, buf := newBatchSharded(t, cats)

	// IDs are assigned from 0, so an intra-batch leave/close can name the
	// entity its own batch just created.
	applied, err := svc.SubmitBatch([]Event{
		NewWorkerJoined(shardedWorker(cats, c0, c1)), // → worker 0
		NewTaskPosted(shardedTask(c0)),               // → task 0
		NewWorkerLeft(0),                             // leaves within the batch
		NewTaskClosed(0),
		NewWorkerJoined(shardedWorker(cats, c1)), // → worker 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied[0].Worker.ID != 0 || applied[1].Task.ID != 0 || applied[4].Worker.ID != 1 {
		t.Fatalf("unexpected ID assignment: %+v", applied)
	}
	if w, tk := svc.Counts(); w != 1 || tk != 0 {
		t.Fatalf("counts after intra-batch lifecycle: %d workers %d tasks", w, tk)
	}
	assertReplayMatches(t, cats, buf.Bytes(), svc.State())

	// A rejected batch applies nothing: worker 1 is still live, worker 0
	// is not.
	if _, err := svc.SubmitBatch([]Event{NewWorkerLeft(0)}); err == nil {
		t.Fatal("left worker removed twice")
	}
	if _, err := svc.SubmitBatch([]Event{NewWorkerLeft(1)}); err != nil {
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
