package platform

// HTTP-level healthz contract: the endpoint a failover probe (or a load
// balancer) actually hits.  A degraded backend answers 503, not just a
// JSON field — probes must not need to parse the payload to notice — and
// a sharded backend names the poisoned shard.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/benefit"
)

// poisonedJournal is a Journal stub that reports itself unappendable.
type poisonedJournal struct{ poisoned bool }

func (j *poisonedJournal) AppendBatch([]Event) error { return nil }
func (j *poisonedJournal) Poisoned() bool            { return j.poisoned }

// getHealth fetches /v1/healthz and decodes the payload.
func getHealth(t *testing.T, url string) (*http.Response, HealthStatus) {
	t.Helper()
	resp, err := http.Get(url + "/v1/healthz")
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

func TestHealthzEndpointOK(t *testing.T) {
	ts, svc := newPrimary(t, t.TempDir())
	submitN(t, svc, 3)
	resp, h := getHealth(t, ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy backend healthz %d", resp.StatusCode)
	}
	if h.Status != "ok" || h.Role != "primary" || h.LastSeq != 3 || h.Epoch != 0 {
		t.Fatalf("healthz payload %+v", h)
	}
}

// TestHealthzShardedPoisonedShard poisons one shard of four: the overall
// status must be 503/degraded and the payload must identify exactly which
// shard is refusing appends.
func TestHealthzShardedPoisonedShard(t *testing.T) {
	const shards = 4
	bundles := make([]Shard, shards)
	var bad *poisonedJournal
	for k := range bundles {
		st, err := NewState(8)
		if err != nil {
			t.Fatal(err)
		}
		j := &poisonedJournal{}
		if k == 2 {
			bad = j
		}
		bundles[k] = Shard{State: st, Solver: greedySolver(), Journal: j}
	}
	ss, err := NewShardedService(bundles, benefit.DefaultParams(), ShardedOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(ss))
	defer srv.Close()

	resp, h := getHealth(t, srv.URL)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("pre-poison healthz %d / %+v", resp.StatusCode, h)
	}

	bad.poisoned = true
	resp, h = getHealth(t, srv.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("poisoned-shard healthz %d, want 503", resp.StatusCode)
	}
	if h.Status != "degraded" || !h.JournalPoisoned {
		t.Fatalf("poisoned-shard payload %+v", h)
	}
	if len(h.Shards) != shards {
		t.Fatalf("payload lists %d shards, want %d", len(h.Shards), shards)
	}
	for _, sh := range h.Shards {
		if want := sh.Shard == 2; sh.JournalPoisoned != want {
			t.Fatalf("shard %d poisoned=%v in payload", sh.Shard, sh.JournalPoisoned)
		}
	}
}

// TestHealthzFollowerPayload serves a follower's health over HTTP (the
// failover supervisor's follower phase) and checks the replication
// fields a takeover decision reads: primary_seq, replication_lag, and
// contact age.
func TestHealthzFollowerPayload(t *testing.T) {
	ts, svc := newPrimary(t, t.TempDir())
	submitN(t, svc, 9)
	// The first stream tears after 4 records, so one sync leaves the
	// follower knowing the primary is at 9 while it sits at 4: real lag.
	proxy := httptest.NewServer(&tornOnceProxy{t: t, primaryURL: ts.URL, cutRecord: 4})
	defer proxy.Close()

	fo, err := NewFailover(proxy.URL, t.TempDir(), failoverOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fo)
	defer srv.Close()

	// Before any contact the follower is at 0 with unknown primary seq.
	resp, h := getHealth(t, srv.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh follower healthz %d", resp.StatusCode)
	}
	if h.Role != "follower" || h.LastSeq != 0 || h.PrimarySeq != 0 {
		t.Fatalf("fresh follower payload %+v", h)
	}

	if _, err := fo.Follower().SyncOnce(context.Background()); err == nil {
		t.Fatal("torn stream reported a clean sync")
	}
	_, h = getHealth(t, srv.URL)
	if h.PrimarySeq != 9 || h.LastSeq != 4 || h.ReplicationLag != 5 {
		t.Fatalf("lagging follower payload %+v", h)
	}

	// Non-healthz routes on a follower tell clients to come back, not 404.
	wresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusServiceUnavailable || wresp.Header.Get("Retry-After") == "" {
		t.Fatalf("follower non-healthz route: %d (Retry-After %q)", wresp.StatusCode, wresp.Header.Get("Retry-After"))
	}
}
