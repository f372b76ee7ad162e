package platform

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/stats"
)

// TestSnapshotDeltaTracksChurn pins the positional delta encoding: join a
// few entities, snapshot, churn, snapshot again, and check survivors map to
// their previous instance indices while arrivals/departures land in the
// added/removed lists.
func TestSnapshotDeltaTracksChurn(t *testing.T) {
	s := mustState(t)
	submit := func(e Event) Event {
		t.Helper()
		applied, err := s.Apply(e)
		if err != nil {
			t.Fatal(err)
		}
		return applied
	}
	w0 := submit(NewWorkerJoined(validWorker()))
	w1 := submit(NewWorkerJoined(validWorker()))
	submit(NewTaskPosted(validTask()))

	_, _, _, d := s.SnapshotDelta()
	if d != nil {
		t.Fatalf("first SnapshotDelta returned a delta: %+v", d)
	}

	// Churn: w0 leaves, a new worker joins, a second task is posted.
	submit(NewWorkerLeft(w0.Worker.ID))
	w2 := submit(NewWorkerJoined(validWorker()))
	submit(NewTaskPosted(validTask()))

	in, workerIDs, _, d := s.SnapshotDelta()
	if d == nil {
		t.Fatal("second SnapshotDelta returned no delta")
	}
	if in.NumWorkers() != 2 || in.NumTasks() != 2 {
		t.Fatalf("snapshot %d workers / %d tasks, want 2/2", in.NumWorkers(), in.NumTasks())
	}
	// Previous snapshot order was [w0, w1]; current is [w1, w2].
	if workerIDs[0] != w1.Worker.ID || workerIDs[1] != w2.Worker.ID {
		t.Fatalf("workerIDs = %v, want [%d %d]", workerIDs, w1.Worker.ID, w2.Worker.ID)
	}
	if len(d.PrevWorker) != 2 || d.PrevWorker[0] != 1 || d.PrevWorker[1] != -1 {
		t.Fatalf("PrevWorker = %v, want [1 -1]", d.PrevWorker)
	}
	if len(d.RemovedWorkers) != 1 || d.RemovedWorkers[0] != 0 {
		t.Fatalf("RemovedWorkers = %v, want [0]", d.RemovedWorkers)
	}
	if len(d.AddedWorkers) != 1 || d.AddedWorkers[0] != 1 {
		t.Fatalf("AddedWorkers = %v, want [1]", d.AddedWorkers)
	}
	if len(d.PrevTask) != 2 || d.PrevTask[0] != 0 || d.PrevTask[1] != -1 {
		t.Fatalf("PrevTask = %v, want [0 -1]", d.PrevTask)
	}
	if len(d.AddedTasks) != 1 || len(d.RemovedTasks) != 0 {
		t.Fatalf("task churn = added %v removed %v, want one addition", d.AddedTasks, d.RemovedTasks)
	}
}

// TestSnapshotDeltaConcurrentSubmit races churning Submits against a
// SnapshotDelta loop (the CloseRound path takes its snapshot while the HTTP
// mux keeps mutating the state) and checks every delta is internally
// consistent with the ID lists of the PREVIOUS call: survivors map to the
// right previous index, arrivals are exactly the -1 positions, departures
// are exactly the previous IDs missing from the current list.  Any torn
// read — a delta computed against a baseline other than the last returned
// snapshot — shows up as a mapping violation.
func TestSnapshotDeltaConcurrentSubmit(t *testing.T) {
	const (
		churners   = 3
		churnIters = 300
		snapshots  = 200
	)
	state := mustState(t)
	svc, err := NewService(state, core.Greedy{Kind: core.MutualWeight, WS: &core.Workspace{}}, benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit(NewTaskPosted(validTask())); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g) + 11)
			var myWorkers, myTasks []int
			for i := 0; i < churnIters; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0:
					if e, err := svc.Submit(NewWorkerJoined(validWorker())); err == nil {
						myWorkers = append(myWorkers, e.Worker.ID)
					}
				case 1:
					if e, err := svc.Submit(NewTaskPosted(validTask())); err == nil {
						myTasks = append(myTasks, e.Task.ID)
					}
				case 2:
					if len(myWorkers) > 0 {
						k := rng.Intn(len(myWorkers))
						if _, err := svc.Submit(NewWorkerLeft(myWorkers[k])); err == nil {
							myWorkers = append(myWorkers[:k], myWorkers[k+1:]...)
						}
					}
				case 3:
					if len(myTasks) > 0 {
						k := rng.Intn(len(myTasks))
						if _, err := svc.Submit(NewTaskClosed(myTasks[k])); err == nil {
							myTasks = append(myTasks[:k], myTasks[k+1:]...)
						}
					}
				}
			}
		}(g)
	}

	// checkDelta validates one side (workers or tasks) of the positional
	// encoding against the previous call's sorted ID list.
	checkDelta := func(n int, prevIDs, curIDs []int, prev, added, removed []int32) {
		t.Helper()
		if len(prev) != len(curIDs) {
			t.Fatalf("snapshot %d: len(prev)=%d, len(curIDs)=%d", n, len(prev), len(curIDs))
		}
		ai := 0
		usedPrev := make(map[int32]bool, len(prevIDs))
		for j, p := range prev {
			if p < 0 {
				if ai >= len(added) || added[ai] != int32(j) {
					t.Fatalf("snapshot %d: position %d is an arrival but added=%v", n, j, added)
				}
				ai++
				continue
			}
			if int(p) >= len(prevIDs) {
				t.Fatalf("snapshot %d: prev[%d]=%d out of range (baseline had %d)", n, j, p, len(prevIDs))
			}
			if prevIDs[p] != curIDs[j] {
				t.Fatalf("snapshot %d: survivor at %d maps to previous index %d (ID %d), but current ID is %d",
					n, j, p, prevIDs[p], curIDs[j])
			}
			if usedPrev[p] {
				t.Fatalf("snapshot %d: previous index %d mapped twice", n, p)
			}
			usedPrev[p] = true
		}
		if ai != len(added) {
			t.Fatalf("snapshot %d: %d arrivals in prev, added=%v", n, ai, added)
		}
		for _, r := range removed {
			if int(r) >= len(prevIDs) {
				t.Fatalf("snapshot %d: removed index %d out of range", n, r)
			}
			if usedPrev[r] {
				t.Fatalf("snapshot %d: previous index %d both survived and was removed", n, r)
			}
			usedPrev[r] = true
		}
		if len(usedPrev) != len(prevIDs) {
			t.Fatalf("snapshot %d: %d of %d previous indices accounted for", n, len(usedPrev), len(prevIDs))
		}
	}

	_, prevW, prevT, d := state.SnapshotDelta()
	if d != nil {
		t.Fatalf("first SnapshotDelta returned a delta: %+v", d)
	}
	for n := 1; n < snapshots; n++ {
		in, curW, curT, d := state.SnapshotDelta()
		if d == nil {
			t.Fatalf("snapshot %d returned no delta", n)
		}
		if in.NumWorkers() != len(curW) || in.NumTasks() != len(curT) {
			t.Fatalf("snapshot %d: instance %d/%d entities, ID lists %d/%d",
				n, in.NumWorkers(), in.NumTasks(), len(curW), len(curT))
		}
		checkDelta(n, prevW, curW, d.PrevWorker, d.AddedWorkers, d.RemovedWorkers)
		checkDelta(n, prevT, curT, d.PrevTask, d.AddedTasks, d.RemovedTasks)
		prevW, prevT = curW, curT
	}
	close(stop)
	wg.Wait()
}

// TestRoundsEndpointWarmProvenance drives POST /v1/rounds with the
// incremental solver: the first round is a cold full solve (dirty fraction
// 1), a zero-churn second round must be served warm, and the JSON response
// carries the provenance fields.
func TestRoundsEndpointWarmProvenance(t *testing.T) {
	state := mustState(t)
	svc, err := NewService(state, core.NewIncrementalExact(), benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)

	for i := 0; i < 3; i++ {
		resp, out := postJSON(t, ts.URL+"/v1/workers", validWorker())
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("add worker %d: status %d (%v)", i, resp.StatusCode, out)
		}
	}
	for i := 0; i < 2; i++ {
		resp, out := postJSON(t, ts.URL+"/v1/tasks", validTask())
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("add task %d: status %d (%v)", i, resp.StatusCode, out)
		}
	}

	closeRound := func() map[string]json.RawMessage {
		t.Helper()
		resp, out := postJSON(t, ts.URL+"/v1/rounds", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("close round: status %d (%v)", resp.StatusCode, out)
		}
		return out
	}
	boolField := func(out map[string]json.RawMessage, key string) bool {
		t.Helper()
		raw, ok := out[key]
		if !ok {
			return false // omitempty: absent means false
		}
		var v bool
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("field %s: %v", key, err)
		}
		return v
	}

	// Round 1: no baseline yet — a cold full solve over the whole market.
	out := closeRound()
	if boolField(out, "warm_started") {
		t.Fatalf("first round reported warm_started: %v", out)
	}
	var dirty float64
	if err := json.Unmarshal(out["dirty_fraction"], &dirty); err != nil {
		t.Fatalf("dirty_fraction missing on cold round: %v", out)
	}
	if dirty != 1 {
		t.Fatalf("cold round dirty_fraction = %v, want 1", dirty)
	}
	if len(out["pairs"]) == 0 {
		t.Fatalf("no pairs in round result: %v", out)
	}

	// Round 2: zero churn — must be served by delta surgery, not a re-solve.
	out = closeRound()
	if !boolField(out, "warm_started") {
		t.Fatalf("zero-churn round not warm: %v", out)
	}
	if boolField(out, "full_solve_fallback") {
		t.Fatalf("zero-churn round fell back to a full solve: %v", out)
	}
	if _, present := out["dirty_fraction"]; present {
		t.Fatalf("zero-churn round reported a non-zero dirty fraction: %v", out)
	}
}
