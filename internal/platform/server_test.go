package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	state := mustState(t)
	svc, err := NewService(state, core.Greedy{Kind: core.MutualWeight}, benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestServerWorkerAndTaskLifecycle(t *testing.T) {
	ts := newTestServer(t)

	resp, out := postJSON(t, ts.URL+"/v1/workers", validWorker())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add worker status %d (%v)", resp.StatusCode, out)
	}
	var workerID int
	if err := json.Unmarshal(out["id"], &workerID); err != nil {
		t.Fatal(err)
	}

	resp, out = postJSON(t, ts.URL+"/v1/tasks", validTask())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add task status %d (%v)", resp.StatusCode, out)
	}

	// Stats reflect the submissions.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats map[string]int
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["workers"] != 1 || stats["tasks"] != 1 || stats["rounds"] != 0 {
		t.Fatalf("stats = %v", stats)
	}

	// Remove the worker.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/workers/%d", ts.URL, workerID), nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", delResp.StatusCode)
	}
}

// forEachJournaledBackend runs f against each backend the HTTP layer
// serves — one market, and four shard markets behind one API — with every
// journal in an in-memory buffer, so a test can prove a refused write left
// nothing behind.
func forEachJournaledBackend(t *testing.T, f func(t *testing.T, url string, b Backend, journals []*bytes.Buffer)) {
	build := map[string]func(t *testing.T) (Backend, []*bytes.Buffer){
		"service": func(t *testing.T) (Backend, []*bytes.Buffer) {
			buf := &bytes.Buffer{}
			svc, err := NewService(mustState(t), greedySolver(), benefit.DefaultParams(), NewLog(buf), 1)
			if err != nil {
				t.Fatal(err)
			}
			return svc, []*bytes.Buffer{buf}
		},
		"sharded/4": func(t *testing.T) (Backend, []*bytes.Buffer) {
			bufs := make([]*bytes.Buffer, 4)
			bundles := make([]Shard, len(bufs))
			for k := range bundles {
				bufs[k] = &bytes.Buffer{}
				bundles[k] = Shard{State: mustState(t), Journal: NewLog(bufs[k]), Solver: greedySolver()}
			}
			ss, err := NewShardedService(bundles, benefit.DefaultParams(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return ss, bufs
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			b, journals := mk(t)
			ts := httptest.NewServer(NewServer(b))
			t.Cleanup(ts.Close)
			f(t, ts.URL, b, journals)
		})
	}
}

// assertNothingApplied runs a refused write and checks that the backend's
// live counts and every journal byte are exactly what they were before.
func assertNothingApplied(t *testing.T, b Backend, journals []*bytes.Buffer, write func()) {
	t.Helper()
	workers, tasks := b.Counts()
	before := make([]string, len(journals))
	for k, j := range journals {
		before[k] = j.String()
	}
	write()
	if w, tk := b.Counts(); w != workers || tk != tasks {
		t.Errorf("counts %d/%d after a refused write, want %d/%d", w, tk, workers, tasks)
	}
	for k, j := range journals {
		if j.String() != before[k] {
			t.Errorf("journal %d changed by a refused write", k)
		}
	}
}

// assertRefusal checks a refused single-event write's status and that its
// error names the cause without describing a batch the client never sent.
func assertRefusal(t *testing.T, what string, status, wantStatus int, body, cause string) {
	t.Helper()
	if status != wantStatus {
		t.Errorf("%s: status %d, want %d (%s)", what, status, wantStatus, body)
	}
	if !strings.Contains(body, cause) || !strings.Contains(body, "nothing applied") {
		t.Errorf("%s: body %s does not name the cause %q", what, body, cause)
	}
	if strings.Contains(body, "batch") {
		t.Errorf("%s: single-event error reads as a batch: %s", what, body)
	}
}

func TestServerRejectsInvalidPayloads(t *testing.T) {
	forEachJournaledBackend(t, func(t *testing.T, url string, b Backend, journals []*bytes.Buffer) {
		// A live worker resident in every shard its specialties reach, and
		// an open task, for the duplicate cases.  Explicit IDs: a zero ID
		// asks for a fresh one, so it can never collide.
		w := validWorker()
		w.ID, w.Specialties = 7, []int{0, 1, 2}
		task := validTask()
		task.ID = 7
		for path, body := range map[string]any{"/v1/workers": w, "/v1/tasks": task} {
			if resp, out := postJSON(t, url+path, body); resp.StatusCode != http.StatusCreated {
				t.Fatalf("POST %s status %d (%v)", path, resp.StatusCode, out)
			}
		}

		cases := []struct {
			what, path string
			body       any
			cause      string
		}{
			{"bad worker", "/v1/workers", map[string]any{"capacity": -5}, "capacity -5 negative"},
			{"duplicate worker", "/v1/workers", w, "worker 7 already live"},
			{"duplicate task", "/v1/tasks", task, "task 7 already open"},
		}
		for _, c := range cases {
			assertNothingApplied(t, b, journals, func() {
				resp, out := postJSON(t, url+c.path, c.body)
				assertRefusal(t, c.what, resp.StatusCode, http.StatusUnprocessableEntity, string(out["error"]), c.cause)
			})
		}

		assertNothingApplied(t, b, journals, func() {
			r, err := http.Post(url+"/v1/workers", "application/json", bytes.NewBufferString("{broken"))
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusBadRequest {
				t.Errorf("malformed JSON status %d", r.StatusCode)
			}
		})
	})
}

// deleteRequest issues DELETE url and returns the status and error body.
func deleteRequest(t *testing.T, url string) (int, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out["error"]
}

func TestServerDeleteUnknown(t *testing.T) {
	forEachJournaledBackend(t, func(t *testing.T, url string, b Backend, journals []*bytes.Buffer) {
		for path, cause := range map[string]string{
			"/v1/workers/99": "worker 99 not live",
			"/v1/tasks/99":   "task 99 not open",
		} {
			assertNothingApplied(t, b, journals, func() {
				status, body := deleteRequest(t, url+path)
				assertRefusal(t, path, status, http.StatusNotFound, body, cause)
			})
		}

		// A second leave of a worker resident in several shards is refused
		// whole: no shard journals a removal.
		w := validWorker()
		w.Specialties = []int{0, 1, 2}
		resp, out := postJSON(t, url+"/v1/workers", w)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("add worker status %d (%v)", resp.StatusCode, out)
		}
		path := "/v1/workers/" + string(out["id"])
		if status, body := deleteRequest(t, url+path); status != http.StatusNoContent {
			t.Fatalf("first delete status %d (%s)", status, body)
		}
		assertNothingApplied(t, b, journals, func() {
			status, body := deleteRequest(t, url+path)
			assertRefusal(t, "second delete", status, http.StatusNotFound, body, "not live")
		})

		if status, _ := deleteRequest(t, url+"/v1/workers/notanumber"); status != http.StatusBadRequest {
			t.Fatalf("non-numeric id status %d", status)
		}
	})
}

func TestServerCloseRoundAndDrain(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		if resp, _ := postJSON(t, ts.URL+"/v1/workers", validWorker()); resp.StatusCode != http.StatusCreated {
			t.Fatal("add worker failed")
		}
	}
	for i := 0; i < 2; i++ {
		if resp, _ := postJSON(t, ts.URL+"/v1/tasks", validTask()); resp.StatusCode != http.StatusCreated {
			t.Fatal("add task failed")
		}
	}

	resp, err := http.Post(ts.URL+"/v1/rounds?drain=true", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("round status %d", resp.StatusCode)
	}
	var res RoundResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("round assigned nothing")
	}

	// Drained: the assigned tasks are gone.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats map[string]int
	json.NewDecoder(statsResp.Body).Decode(&stats)
	if stats["tasks"] != 0 {
		t.Fatalf("tasks not drained: %v", stats)
	}
	if stats["rounds"] != 1 {
		t.Fatalf("rounds = %d", stats["rounds"])
	}
}

func TestServerRoundWithoutDrainKeepsTasks(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/workers", validWorker())
	postJSON(t, ts.URL+"/v1/tasks", validTask())
	resp, err := http.Post(ts.URL+"/v1/rounds", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats map[string]int
	json.NewDecoder(statsResp.Body).Decode(&stats)
	if stats["tasks"] != 1 {
		t.Fatalf("tasks = %d, want 1 (no drain)", stats["tasks"])
	}
}

// NewServer wires the HTTP handlers around a backend with zero-value
// (unlimited) options.
func NewServer(svc Backend) *Server {
	return NewServerWithOptions(svc, ServerOptions{})
}
