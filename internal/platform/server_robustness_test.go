package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/faultinject"
)

func newLimitedServer(t *testing.T, solver core.Solver, opts ServerOptions) *httptest.Server {
	t.Helper()
	state := mustState(t)
	svc, err := NewService(state, solver, benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWithOptions(svc, opts))
	t.Cleanup(ts.Close)
	return ts
}

func TestServerRejectsOversizedBody(t *testing.T) {
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, ServerOptions{MaxBodyBytes: 256})
	big := strings.NewReader(`{"capacity": 1, "padding": "` + strings.Repeat("x", 1024) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/workers", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	// A within-limit request still works.
	resp2, out := postJSON(t, ts.URL+"/v1/tasks", validTask())
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("in-limit request status %d (%v)", resp2.StatusCode, out)
	}
}

func TestServerSingleFlightRound(t *testing.T) {
	// A solver slow enough that the second close definitely overlaps the
	// first.  No deadline: the first round must succeed.
	slow := faultinject.SleepySolver{Inner: core.Greedy{Kind: core.MutualWeight}, Delay: 300 * time.Millisecond}
	ts := newLimitedServer(t, slow, NewServerOptions())
	if resp, _ := postJSON(t, ts.URL+"/v1/workers", validWorker()); resp.StatusCode != http.StatusCreated {
		t.Fatal("seeding worker failed")
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/tasks", validTask()); resp.StatusCode != http.StatusCreated {
		t.Fatal("seeding task failed")
	}

	statuses := make([]int, 2)
	var retryAfter string
	var wg sync.WaitGroup
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 1 {
				time.Sleep(50 * time.Millisecond) // land inside the first solve
			}
			resp, err := http.Post(ts.URL+"/v1/rounds", "application/json", bytes.NewReader(nil))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusConflict {
				retryAfter = resp.Header.Get("Retry-After")
			}
		}(i)
	}
	wg.Wait()
	if statuses[0] != http.StatusOK {
		t.Fatalf("first close status = %d", statuses[0])
	}
	if statuses[1] != http.StatusConflict {
		t.Fatalf("overlapping close status = %d, want 409", statuses[1])
	}
	if retryAfter == "" {
		t.Fatal("409 carried no Retry-After")
	}
	// The guard releases: a later close succeeds.
	resp, _ := postJSON(t, ts.URL+"/v1/rounds", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-conflict close status = %d", resp.StatusCode)
	}
}

// TestServerRoundTimeoutReturns503: a round whose request context dies
// mid-solve is abandoned with 503 and Retry-After, promptly.  Rounds get
// no server-side deadline (bound them with a core.Degrader deadline), so
// the deadline here rides on the request context.
func TestServerRoundTimeoutReturns503(t *testing.T) {
	slow := faultinject.SleepySolver{Inner: core.Greedy{Kind: core.MutualWeight}, Delay: 10 * time.Second}
	svc, err := NewService(mustState(t), slow, benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(NewTaskPosted(validTask())); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithOptions(svc, NewServerOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/rounds", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 carried no Retry-After")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed-out round took %v", elapsed)
	}
}

// countingJournal counts the appends that reach a journal.
type countingJournal struct {
	Journal
	appends atomic.Int64
}

func (j *countingJournal) AppendBatch(events []Event) error {
	j.appends.Add(1)
	return j.Journal.AppendBatch(events)
}

// TestServerDrainClosesTasksInSortedOrder: ?drain=true closes every task
// the round assigned, in ascending ID order, as one journal append, and
// journals exactly what closing them one Submit at a time would.
func TestServerDrainClosesTasksInSortedOrder(t *testing.T) {
	seed := func(t *testing.T, svc *Service) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Submit(NewTaskPosted(validTask())); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	jnl := &countingJournal{Journal: NewLog(&buf)}
	svc, err := NewService(mustState(t), core.Greedy{Kind: core.MutualWeight}, benefit.DefaultParams(), jnl, 1)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, svc)
	ts := httptest.NewServer(NewServerWithOptions(svc, NewServerOptions()))
	t.Cleanup(ts.Close)

	before := jnl.appends.Load()
	resp, _ := postJSON(t, ts.URL+"/v1/rounds?drain=true", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain round status = %d", resp.StatusCode)
	}
	// One append for the round marker, one for the whole drain.
	if got := jnl.appends.Load() - before; got != 2 {
		t.Fatalf("round and drain took %d journal appends, want 2", got)
	}
	events, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lastClosed := -1
	sawClosed := 0
	for _, e := range events {
		if e.Kind != EventTaskClosed {
			continue
		}
		sawClosed++
		if *e.TaskID <= lastClosed {
			t.Fatalf("drain closed task %d after %d — not sorted", *e.TaskID, lastClosed)
		}
		lastClosed = *e.TaskID
	}
	if sawClosed == 0 {
		t.Fatal("drain closed nothing")
	}

	// The reference: the same market and round, its tasks closed one
	// Submit each.
	var want bytes.Buffer
	ref, err := NewService(mustState(t), core.Greedy{Kind: core.MutualWeight}, benefit.DefaultParams(), NewLog(&want), 1)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, ref)
	res, err := ref.CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, p := range res.Pairs {
		if !slices.Contains(ids, p.TaskID) {
			ids = append(ids, p.TaskID)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		if _, err := ref.Submit(NewTaskClosed(id)); err != nil {
			t.Fatal(err)
		}
	}
	wantEvents, err := ReadLog(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, wantEvents) {
		t.Fatalf("drained journal differs from one-close-per-Submit:\n got %+v\nwant %+v", events, wantEvents)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("drained journal bytes differ from one-close-per-Submit")
	}
}

// writeRoutes are the three write routes with one valid body each.
func writeRoutes(t *testing.T) []struct{ path, body string } {
	t.Helper()
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return []struct{ path, body string }{
		{"/v1/workers", marshal(validWorker())},
		{"/v1/tasks", marshal(validTask())},
		{"/v1/batch", marshal([]Event{NewWorkerJoined(validWorker()), NewTaskPosted(validTask())})},
	}
}

// post sends a raw body and returns the status and response body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// requireEmptyMarket fails unless no worker and no task was applied.
func requireEmptyMarket(t *testing.T, url string) {
	t.Helper()
	status, body := post(t, url+"/v1/rounds", "")
	var res RoundResult
	if err := json.Unmarshal([]byte(body), &res); status != http.StatusOK || err != nil {
		t.Fatalf("round status %d (%s): %v", status, body, err)
	}
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["workers"] != 0 || stats["tasks"] != 0 {
		t.Fatalf("a rejected body was applied: %v", stats)
	}
}

// TestServerOversizedBodyIs413OnEveryRoute: a body over the route's limit
// is 413 however it would have parsed — including a complete value whose
// trailing whitespace crosses the limit — and applies nothing.
func TestServerOversizedBodyIs413OnEveryRoute(t *testing.T) {
	const limit = 512
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, ServerOptions{MaxBodyBytes: limit, MaxBatchBytes: limit})
	routes := writeRoutes(t)
	for _, r := range routes {
		for name, body := range map[string]string{
			"padded value":        r.body + strings.Repeat(" ", limit),
			"value one byte over": r.body + strings.Repeat(" ", limit+1-len(r.body)),
			"unknown key":         `{"padding":"` + strings.Repeat("x", limit) + `"}`,
			"malformed":           strings.Repeat("[", limit+1),
		} {
			if status, out := post(t, ts.URL+r.path, body); status != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s (%d bytes): status %d (%s), want 413", r.path, name, len(body), status, out)
			}
		}
	}
	requireEmptyMarket(t, ts.URL)
	// Exactly at the limit is in bounds.
	for _, r := range routes {
		body := r.body + strings.Repeat(" ", limit-len(r.body))
		if status, out := post(t, ts.URL+r.path, body); status != http.StatusCreated && status != http.StatusOK {
			t.Errorf("%s at the limit: status %d (%s)", r.path, status, out)
		}
	}
}

// TestServerBadBodiesAre400AndApplyNothing: malformed in-limit bodies and
// type errors — also after a valid event — are 400 with the route's
// "decoding …:" prefix and a byte offset, and nothing is applied.
func TestServerBadBodiesAre400AndApplyNothing(t *testing.T) {
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, NewServerOptions())
	valid := `{"kind":"worker_joined","worker":{"capacity":2,"accuracy":[0.8,0.6,0.7],"interest":[0.9,0.1,0.4],"specialties":[0,2],"reservation_wage":1}}`
	cases := []struct{ path, prefix, body string }{
		{"/v1/workers", "decoding worker: ", `{"capacity":2,"accuracy":[0.8,`},
		{"/v1/workers", "decoding worker: ", `{"capacity":1.5,"accuracy":[0.8,0.6,0.7],"interest":[0.9,0.1,0.4],"specialties":[0]}`},
		{"/v1/tasks", "decoding task: ", `{"category":0 "replication":2}`},
		{"/v1/tasks", "decoding task: ", `{"category":0,"replication":2,"payment":1e400}`},
		{"/v1/batch", "decoding batch: ", `[` + valid + `,`},
		{"/v1/batch", "decoding batch: ", `[` + valid + `,{"kind":"worker_joined","worker":{"capacity":"x"}}]`},
		{"/v1/batch", "decoding batch: ", `[` + valid + `,{"kind":"task_closed","task_id":-1.5}]`},
		{"/v1/batch", "decoding batch: ", "\xef\xbb\xbf[" + valid + `]`},
	}
	for _, c := range cases {
		status, out := post(t, ts.URL+c.path, c.body)
		var env map[string]string
		if err := json.Unmarshal([]byte(out), &env); err != nil {
			t.Fatalf("%s %q: %v", c.path, c.body, err)
		}
		if status != http.StatusBadRequest || !strings.HasPrefix(env["error"], c.prefix) || !strings.Contains(env["error"], " at offset ") {
			t.Errorf("%s %q: status %d, error %q; want 400 %q… at offset", c.path, c.body, status, env["error"], c.prefix)
		}
	}
	requireEmptyMarket(t, ts.URL)
}

// TestServerNullBatchAcksEmpty: a top-level null is an empty batch.
func TestServerNullBatchAcksEmpty(t *testing.T) {
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, NewServerOptions())
	for _, body := range []string{"null", " null\n", "[]"} {
		if status, out := post(t, ts.URL+"/v1/batch", body); status != http.StatusOK || out != "{\"applied\":[]}\n" {
			t.Errorf("batch %q: status %d body %q, want 200 {\"applied\":[]}", body, status, out)
		}
	}
}

// encodeAck is the batch ack as encoding/json renders it.
func encodeAck(t *testing.T, items []BatchItem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"applied": items}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchAckMatchesEncoder: the hand-rendered ack is byte-equal to
// json.Encoder's, for random items (ID 0 omitted) and for kinds that need
// escaping.
func TestBatchAckMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	kinds := []EventKind{EventWorkerJoined, EventWorkerLeft, EventTaskPosted, EventTaskClosed,
		EventRoundClosed, EventEpochBumped, "", "a<b>&c", "quote\"back\\slash", "tab\tnl\n\x00", "é\u2028", "bad\xff"}
	for trial := 0; trial < 200; trial++ {
		items := make([]BatchItem, rng.IntN(6))
		for i := range items {
			items[i] = BatchItem{Seq: rng.Uint64() >> rng.UintN(64), Kind: kinds[rng.IntN(len(kinds))]}
			switch rng.IntN(3) {
			case 0: // ID 0: omitted
			case 1:
				items[i].ID = rng.IntN(1000)
			default:
				items[i].ID = int(rng.Int64()) - int(rng.Int64())
			}
		}
		if got, want := appendBatchAck(nil, items), encodeAck(t, items); !bytes.Equal(got, want) {
			t.Fatalf("items %+v:\n got  %s\n want %s", items, got, want)
		}
	}
	if got, want := appendBatchAck(nil, nil), encodeAck(t, nil); !bytes.Equal(got, want) {
		t.Fatalf("nil items: got %s, want %s", got, want)
	}

	// And on the wire: the served ack re-encodes to the same bytes.
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, NewServerOptions())
	events := []Event{NewWorkerJoined(validWorker()), NewTaskPosted(validTask()), NewWorkerJoined(validWorker())}
	b, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	status, out := post(t, ts.URL+"/v1/batch", string(b))
	var ack struct{ Applied []BatchItem }
	if err := json.Unmarshal([]byte(out), &ack); status != http.StatusOK || err != nil || len(ack.Applied) != 3 {
		t.Fatalf("batch status %d body %s: %v", status, out, err)
	}
	if want := encodeAck(t, ack.Applied); out != string(want) {
		t.Fatalf("served ack %q, encoder %q", out, want)
	}
	if ack.Applied[0].ID != 0 || strings.Contains(out[:strings.Index(out, "},")], `"id"`) {
		t.Fatalf("first worker's ID 0 not omitted: %s", out)
	}
}
