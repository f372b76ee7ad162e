package platform

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
)

// jsonBody encodes v as a JSON request body.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// jsonRaw wraps a literal body string.
func jsonRaw(s string) io.Reader { return strings.NewReader(s) }

// admissionServerOptions returns server options with admission enabled
// and deterministic, test-friendly knobs.
func admissionServerOptions() ServerOptions {
	opts := NewServerOptions()
	opts.Admission = NewAdmissionOptions()
	return opts
}

func getJSON(t *testing.T, url string) (*http.Response, HealthStatus) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp, h
}

func TestServerAdmissionShedsWith429(t *testing.T) {
	opts := admissionServerOptions()
	opts.Admission.RateMedium = 2 // burst 2, then shed
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, opts)

	statuses := map[int]int{}
	var retryAfter string
	for i := 0; i < 10; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/workers", validWorker())
		statuses[resp.StatusCode]++
		if resp.StatusCode == http.StatusTooManyRequests && retryAfter == "" {
			retryAfter = resp.Header.Get("Retry-After")
		}
	}
	if statuses[http.StatusCreated] == 0 {
		t.Fatalf("no request admitted within burst: %v", statuses)
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no request shed past the bucket: %v", statuses)
	}
	if retryAfter == "" {
		t.Fatal("429 carried no Retry-After")
	}
	if secs, err := strconv.Atoi(retryAfter); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer-seconds value", retryAfter)
	}

	// The shed counters are visible in healthz, and sustained shedding
	// reports "overloaded" — at HTTP 200, because overload is not failure.
	resp, h := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d during overload, want 200", resp.StatusCode)
	}
	if h.Admission == nil {
		t.Fatal("healthz missing admission payload")
	}
	if h.Admission.Shed.Medium == 0 {
		t.Fatalf("healthz shed counter zero after %d sheds", statuses[http.StatusTooManyRequests])
	}
}

func TestServerAdmissionPerClientHeader(t *testing.T) {
	opts := admissionServerOptions()
	opts.Admission.RateMedium = 1
	opts.Admission.BrownoutShedRate = 2 // isolate bucket behaviour
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, opts)

	post := func(client string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/workers", jsonBody(t, validWorker()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if client != "" {
			req.Header.Set(ClientHeader, client)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post("alice"); got != http.StatusCreated {
		t.Fatalf("alice's first request: %d", got)
	}
	if got := post("alice"); got != http.StatusTooManyRequests {
		t.Fatalf("alice's second request: %d, want 429 from her own bucket", got)
	}
	if got := post("bob"); got != http.StatusCreated {
		t.Fatalf("bob's request: %d — alice's bucket must not affect him", got)
	}
}

func TestServerAdmissionOffPreservesSeedSemantics(t *testing.T) {
	// Zero-value Admission (the default in NewServerOptions): nothing is
	// rate limited, nothing shed, healthz carries no admission payload.
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, NewServerOptions())
	for i := 0; i < 50; i++ {
		resp, out := postJSON(t, ts.URL+"/v1/workers", validWorker())
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("request %d status %d (%v) with admission off", i, resp.StatusCode, out)
		}
	}
	_, h := getJSON(t, ts.URL+"/v1/healthz")
	if h.Admission != nil {
		t.Fatal("healthz carries admission payload with admission off")
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status %q with admission off", h.Status)
	}
}

func TestServerAdmissionBrownoutRecovery(t *testing.T) {
	opts := admissionServerOptions()
	opts.Admission.RateMedium = 1
	opts.Admission.BrownoutHalflife = 50 * time.Millisecond
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, opts)

	// Hammer into brownout.
	for i := 0; i < 30; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/workers", validWorker())
		resp.Body.Close()
	}
	resp, h := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d during brownout, want 200", resp.StatusCode)
	}
	if h.Status != StatusOverloaded {
		t.Fatalf("healthz status %q during brownout, want %q", h.Status, StatusOverloaded)
	}

	// The storm stops; the decayed signal must clear within a probe
	// interval or so (here: many halflives).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, h = getJSON(t, ts.URL+"/v1/healthz")
		if h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz stuck at %q after the storm stopped", h.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServerDecodeRejectsTrailingGarbage(t *testing.T) {
	ts := newLimitedServer(t, core.Greedy{Kind: core.MutualWeight}, NewServerOptions())

	cases := []struct {
		name, path, body string
	}{
		{"worker", "/v1/workers", `{"capacity":2,"accuracy":[0.8,0.6,0.7],"interest":[0.9,0.1,0.4],"specialties":[0,2],"reservation_wage":1}junk`},
		{"task", "/v1/tasks", `{"category":0,"replication":2,"payment":5,"difficulty":0.3}{"category":1}`},
		{"batch", "/v1/batch", `[]garbage`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+c.path, "application/json", jsonRaw(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("trailing garbage on %s: status %d, want 400", c.path, resp.StatusCode)
			}
		})
	}
	// Nothing was applied: the state must still be empty.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["workers"] != 0 || stats["tasks"] != 0 {
		t.Fatalf("garbage-suffixed bodies were applied: %v", stats)
	}
	// A clean body still works.
	if r2, out := postJSON(t, ts.URL+"/v1/workers", validWorker()); r2.StatusCode != http.StatusCreated {
		t.Fatalf("clean request status %d (%v)", r2.StatusCode, out)
	}
}

// TestServerTimeoutExemptPaths proves the RequestTimeout exemption table:
// with a 1ns timeout and admission on, every non-exempt route's context
// deadline has already passed at admission time (429), while the exempt
// routes (POST /v1/rounds, GET /v1/snapshot) carry no deadline at all and
// reach their handler.  Runs against a one-market and a partitioned
// service.
func TestServerTimeoutExemptPaths(t *testing.T) {
	backends := map[string]func(t *testing.T) Backend{
		"service": func(t *testing.T) Backend {
			svc, err := NewService(mustState(t), core.Greedy{Kind: core.MutualWeight}, benefit.DefaultParams(), nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			return svc
		},
		"sharded": func(t *testing.T) Backend {
			solvers := []core.Solver{core.Greedy{Kind: core.MutualWeight}, core.Greedy{Kind: core.MutualWeight}}
			ss, err := NewPartitionedService(mustState(t), solvers, benefit.DefaultParams(), nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			return ss
		},
	}
	routes := []struct {
		method, path string
		exempt       bool
	}{
		{http.MethodPost, "/v1/rounds", true},
		{http.MethodGet, "/v1/snapshot", true},
		{http.MethodPost, "/v1/workers", false},
		{http.MethodPost, "/v1/tasks", false},
		{http.MethodPost, "/v1/batch", false},
		{http.MethodGet, "/v1/stats", false},
		{http.MethodPost, "/v1/checkpoint", false},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			opts := admissionServerOptions()
			opts.RequestTimeout = time.Nanosecond // expired by the time admission sees it
			ts := httptest.NewServer(NewServerWithOptions(mk(t), opts))
			t.Cleanup(ts.Close)
			for _, rt := range routes {
				req, err := http.NewRequest(rt.method, ts.URL+rt.path, jsonRaw("{}"))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				gotShed := resp.StatusCode == http.StatusTooManyRequests
				if rt.exempt && gotShed {
					t.Errorf("%s %s: exempt route shed by the expired request timeout", rt.method, rt.path)
				}
				if !rt.exempt && !gotShed {
					t.Errorf("%s %s: status %d, want 429 under an expired request timeout", rt.method, rt.path, resp.StatusCode)
				}
			}
		})
	}
}

// TestTimeoutExemptPredicate pins the exemption list itself.
func TestTimeoutExemptPredicate(t *testing.T) {
	cases := []struct {
		method, path string
		want         bool
	}{
		{http.MethodPost, "/v1/rounds", true},
		{http.MethodGet, "/v1/snapshot", true},
		{http.MethodGet, "/v1/rounds", false},
		{http.MethodPost, "/v1/snapshot", false},
		{http.MethodPost, "/v1/workers", false},
		{http.MethodGet, "/v1/healthz", false},
		{http.MethodPost, "/v1/batch", false},
	}
	for _, c := range cases {
		if got := timeoutExempt(c.method, c.path); got != c.want {
			t.Errorf("timeoutExempt(%s %s) = %v, want %v", c.method, c.path, got, c.want)
		}
	}
}
