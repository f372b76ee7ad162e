package platform

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable, manually advanced clock for admission tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestAdmission(opts AdmissionOptions) (*Admission, *fakeClock) {
	clk := newFakeClock()
	a := NewAdmission(opts)
	if a != nil {
		a.now = clk.now
		// Rebase the buckets and signal onto the fake clock so the first
		// refill doesn't see a huge negative/positive delta.
		now := clk.now()
		for p := Priority(0); p < numPriorities; p++ {
			if a.global[p] != nil {
				a.global[p].last = now
			}
		}
		a.signalAt = now
	}
	return a, clk
}

func TestClassifyRequest(t *testing.T) {
	cases := []struct {
		method, path string
		want         Priority
		exempt       bool
	}{
		{http.MethodGet, "/v1/healthz", PriorityHigh, true},
		{http.MethodGet, "/v1/journal/stream", PriorityHigh, true},
		{http.MethodGet, "/v1/stats", PriorityHigh, false},
		{http.MethodGet, "/v1/snapshot", PriorityHigh, false},
		{http.MethodPost, "/v1/workers", PriorityMedium, false},
		{http.MethodDelete, "/v1/workers/3", PriorityMedium, false},
		{http.MethodPost, "/v1/tasks", PriorityMedium, false},
		{http.MethodPost, "/v1/batch", PriorityLow, false},
		{http.MethodPost, "/v1/rounds", PriorityLow, false},
		{http.MethodPost, "/v1/checkpoint", PriorityLow, false},
	}
	for _, c := range cases {
		p, exempt := classifyRequest(c.method, c.path)
		if p != c.want || exempt != c.exempt {
			t.Errorf("classify(%s %s) = (%v, %v), want (%v, %v)",
				c.method, c.path, p, exempt, c.want, c.exempt)
		}
	}
}

func TestTokenBucketRefill(t *testing.T) {
	now := time.Unix(0, 0)
	b := newTokenBucket(10, now) // 10/s, burst 10
	for i := 0; i < 10; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d refused within burst", i)
		}
	}
	ok, wait := b.take(now)
	if ok {
		t.Fatal("11th take admitted with an empty bucket")
	}
	if wait <= 0 || wait > 150*time.Millisecond {
		t.Fatalf("refill wait %v, want ~100ms", wait)
	}
	// One token refills after 100ms at 10/s.
	if ok, _ := b.take(now.Add(110 * time.Millisecond)); !ok {
		t.Fatal("take refused after refill interval")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	if b := newTokenBucket(0, time.Unix(0, 0)); b != nil {
		t.Fatal("rate 0 should mean no bucket (unlimited)")
	}
}

func TestAIMDLimiterBackoffAndRecovery(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.MinInflight, opts.MaxInflight = 2, 16
	opts.LatencyTarget = 10 * time.Millisecond
	l := newAIMDLimiter(opts)

	now := time.Unix(0, 0)
	// Slow observations walk the limit down multiplicatively to the floor.
	for i := 0; i < 50; i++ {
		if !l.acquire(time.Time{}, now, nil) {
			t.Fatal("acquire refused with open slots")
		}
		now = now.Add(opts.LatencyTarget * 2)
		l.releaseSlotAt(100*time.Millisecond, true, now)
	}
	limit, _, _ := l.snapshot()
	if limit != 2 {
		t.Fatalf("limit after sustained slowness = %v, want floor 2", limit)
	}
	// Fast observations grow it back additively.
	for i := 0; i < 500; i++ {
		if !l.acquire(time.Time{}, now, nil) {
			t.Fatal("acquire refused during recovery")
		}
		l.releaseSlotAt(time.Millisecond, true, now)
	}
	limit, _, _ = l.snapshot()
	if limit <= 2 {
		t.Fatalf("limit did not recover, still %v", limit)
	}
	if limit > float64(opts.MaxInflight) {
		t.Fatalf("limit %v exceeded ceiling %d", limit, opts.MaxInflight)
	}
}

func TestAIMDLimiterQueueHandoff(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.MinInflight, opts.MaxInflight = 1, 1
	opts.MaxQueue = 4
	l := newAIMDLimiter(opts)
	now := time.Unix(0, 0)

	if !l.acquire(time.Time{}, now, nil) {
		t.Fatal("first acquire refused")
	}
	got := make(chan bool)
	go func() { got <- l.acquire(time.Time{}, now, nil) }()
	// Wait until the waiter is queued, then release: the slot must hand
	// over, not free-then-race.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, queued := l.snapshot(); queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	l.releaseSlotAt(time.Millisecond, true, now)
	if !<-got {
		t.Fatal("queued waiter was not granted the released slot")
	}
	_, inflight, _ := l.snapshot()
	if inflight != 1 {
		t.Fatalf("inflight after handoff = %d, want 1", inflight)
	}
	l.releaseSlotAt(time.Millisecond, true, now)
}

func TestAIMDLimiterDeadlineShed(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.MinInflight, opts.MaxInflight = 1, 1
	opts.MaxQueue = 8
	opts.LatencyTarget = 50 * time.Millisecond
	l := newAIMDLimiter(opts)
	now := time.Unix(0, 0)
	l.ewmaLat = 50 * time.Millisecond

	if !l.acquire(time.Time{}, now, nil) {
		t.Fatal("first acquire refused")
	}
	// Estimated wait for the next request is ~50ms; a 1ms deadline cannot
	// be met and must shed instantly, without queueing.
	start := time.Now()
	if l.acquire(now.Add(time.Millisecond), now, nil) {
		t.Fatal("doomed request admitted")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("deadline shed took %v; must be immediate", elapsed)
	}
	if _, _, queued := l.snapshot(); queued != 0 {
		t.Fatalf("doomed request left %d queue entries", queued)
	}
}

func TestAIMDLimiterQueueBound(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.MinInflight, opts.MaxInflight = 1, 1
	opts.MaxQueue = 0 // clamped? no: zero MaxQueue in limiter means no waiting room
	l := newAIMDLimiter(opts)
	now := time.Unix(0, 0)
	if !l.acquire(time.Time{}, now, nil) {
		t.Fatal("first acquire refused")
	}
	if l.acquire(time.Time{}, now, nil) {
		t.Fatal("second acquire admitted past a full (zero-length) queue")
	}
	l.releaseSlotAt(time.Millisecond, true, now)
}

func TestAdmissionDisabledAdmitsEverything(t *testing.T) {
	var a *Admission // nil = disabled
	dec := a.Admit(http.MethodPost, "/v1/workers", "", time.Time{}, nil)
	if !dec.OK {
		t.Fatal("nil admission shed a request")
	}
	dec.Release(time.Millisecond) // must be nil-safe
	if a.HealthSnapshot() != nil {
		t.Fatal("nil admission produced a health snapshot")
	}
	if a.Overloaded() {
		t.Fatal("nil admission reports overloaded")
	}
}

func TestAdmissionRateLimitAndRetryAfter(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.RateMedium = 2 // burst 2
	a, _ := newTestAdmission(opts)

	for i := 0; i < 2; i++ {
		dec := a.Admit(http.MethodPost, "/v1/workers", "", time.Time{}, nil)
		if !dec.OK {
			t.Fatalf("request %d within burst shed", i)
		}
		dec.Release(time.Millisecond)
	}
	dec := a.Admit(http.MethodPost, "/v1/workers", "", time.Time{}, nil)
	if dec.OK {
		t.Fatal("request past burst admitted")
	}
	if dec.RetryAfter <= 0 {
		t.Fatal("shed decision missing Retry-After")
	}
	h := a.HealthSnapshot()
	if h.Admitted.Medium != 2 || h.Shed.Medium != 1 {
		t.Fatalf("counters admitted=%d shed=%d, want 2/1", h.Admitted.Medium, h.Shed.Medium)
	}
}

func TestAdmissionPerClientBuckets(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.RateMedium = 1       // burst 1 per client
	opts.BrownoutShedRate = 2 // unreachable: isolate bucket behaviour from brownout
	a, _ := newTestAdmission(opts)

	if dec := a.Admit(http.MethodPost, "/v1/workers", "alice", time.Time{}, nil); !dec.OK {
		t.Fatal("alice's first request shed")
	}
	if dec := a.Admit(http.MethodPost, "/v1/workers", "alice", time.Time{}, nil); dec.OK {
		t.Fatal("alice's second request admitted past her bucket")
	}
	// A different client has its own bucket and is unaffected.
	if dec := a.Admit(http.MethodPost, "/v1/workers", "bob", time.Time{}, nil); !dec.OK {
		t.Fatal("bob shed because of alice's traffic")
	}
}

func TestAdmissionClientTableBound(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.MaxClients = 2
	a, _ := newTestAdmission(opts)
	a.bucketFor("a", PriorityMedium)
	a.bucketFor("b", PriorityMedium)
	// Table full: client "c" must fall back to the global bucket, not
	// grow the table without bound.
	got := a.bucketFor("c", PriorityMedium)
	if got != a.global[PriorityMedium] {
		t.Fatal("overflow client did not fall back to the global bucket")
	}
	if len(a.clients) != 2 {
		t.Fatalf("client table grew to %d past MaxClients 2", len(a.clients))
	}
}

func TestAdmissionExpiredDeadlineShedsImmediately(t *testing.T) {
	a, clk := newTestAdmission(NewAdmissionOptions())
	dec := a.Admit(http.MethodPost, "/v1/workers", "", clk.now().Add(-time.Second), nil)
	if dec.OK {
		t.Fatal("request with an expired deadline admitted")
	}
	if dec.RetryAfter <= 0 {
		t.Fatal("expired-deadline shed missing Retry-After")
	}
}

func TestAdmissionExemptRoutesNeverShed(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.RateHigh = 1
	a, clk := newTestAdmission(opts)
	// Drain the high bucket via a non-exempt read.
	a.Admit(http.MethodGet, "/v1/stats", "", time.Time{}, nil)
	for i := 0; i < 100; i++ {
		if dec := a.Admit(http.MethodGet, "/v1/healthz", "", time.Time{}, nil); !dec.OK {
			t.Fatalf("healthz probe %d shed", i)
		}
		if dec := a.Admit(http.MethodGet, "/v1/journal/stream", "", time.Time{}, nil); !dec.OK {
			t.Fatalf("journal stream %d shed", i)
		}
	}
	_ = clk
}

func TestAdmissionBrownoutAndRecovery(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.RateMedium = 1
	opts.BrownoutShedRate = 0.05
	opts.BrownoutHalflife = 100 * time.Millisecond
	a, clk := newTestAdmission(opts)

	// Hammer past the bucket: every shed feeds the signal, shed rate
	// rockets past the threshold.
	for i := 0; i < 50; i++ {
		a.Admit(http.MethodPost, "/v1/workers", "", time.Time{}, nil)
	}
	if !a.Overloaded() {
		t.Fatal("not overloaded after sustained capacity sheds")
	}
	h := a.HealthSnapshot()
	if !h.Brownout || h.ShedRate <= opts.BrownoutShedRate {
		t.Fatalf("health brownout=%v shedRate=%v, want brownout past %v",
			h.Brownout, h.ShedRate, opts.BrownoutShedRate)
	}

	// Batch ingest (low priority) is not brownout-shed: it keeps its
	// bucket because batches amortise journal writes.
	if dec := a.Admit(http.MethodPost, "/v1/batch", "", time.Time{}, nil); !dec.OK {
		t.Fatal("batch ingest shed during brownout")
	}

	// The signal decays: after many halflives with no sheds, the
	// controller must report healthy again (monotone recovery).
	clk.advance(5 * time.Second)
	if a.Overloaded() {
		t.Fatalf("still overloaded %v after the signal decayed (shed rate %v)",
			a.Overloaded(), a.shedRate(clk.now()))
	}
}

func TestAdmissionBrownoutShedsDontFeedSignal(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.RateMedium = 1000 // ample bucket: further sheds can only be brownout sheds
	opts.BrownoutHalflife = time.Second
	a, clk := newTestAdmission(opts)

	// Drive the shed signal straight into deep brownout.
	for i := 0; i < 100; i++ {
		a.observe(true, clk.now())
	}
	before := a.shedRate(clk.now())
	if a.severity(clk.now()) == 0 {
		t.Fatalf("not in brownout at shed rate %v", before)
	}
	// Traffic continues; most of it is brownout-shed.  The signal must
	// still fall — brownout sheds do not feed it, or severity would lock
	// in at 1 and never recover.
	brownoutShed := 0
	for i := 0; i < 200; i++ {
		clk.advance(5 * time.Millisecond)
		dec := a.Admit(http.MethodPost, "/v1/workers", "", time.Time{}, nil)
		if dec.OK {
			dec.Release(time.Millisecond)
		} else {
			brownoutShed++
		}
	}
	after := a.shedRate(clk.now())
	if after >= before {
		t.Fatalf("shed rate %v did not decay below %v despite brownout sheds", after, before)
	}
	if brownoutShed > 0 && a.HealthSnapshot().BrownoutSheds == 0 {
		t.Fatal("brownout sheds not counted")
	}
	// And once the storm is over, the controller recovers fully.
	clk.advance(30 * time.Second)
	if a.Overloaded() {
		t.Fatal("brownout never recovered after the signal decayed")
	}
}

func TestAdmissionConcurrencyLimitedRoutes(t *testing.T) {
	if !concurrencyLimited(http.MethodPost, "/v1/workers") {
		t.Fatal("single-event write not concurrency limited")
	}
	if !concurrencyLimited(http.MethodPost, "/v1/batch") {
		t.Fatal("batch ingest not concurrency limited")
	}
	if concurrencyLimited(http.MethodPost, "/v1/rounds") {
		t.Fatal("round close concurrency limited (it is single-flight already)")
	}
	if concurrencyLimited(http.MethodGet, "/v1/stats") {
		t.Fatal("read concurrency limited")
	}
}

func TestAdmissionReleaseFeedsAIMD(t *testing.T) {
	opts := NewAdmissionOptions()
	opts.MinInflight, opts.MaxInflight = 2, 64
	opts.LatencyTarget = 5 * time.Millisecond
	a, _ := newTestAdmission(opts)

	for i := 0; i < 100; i++ {
		dec := a.Admit(http.MethodPost, "/v1/workers", "", time.Time{}, nil)
		if !dec.OK {
			t.Fatalf("request %d shed", i)
		}
		dec.Release(100 * time.Millisecond) // way over target
	}
	h := a.HealthSnapshot()
	if h.InflightLimit >= float64(opts.MaxInflight) {
		t.Fatalf("inflight limit %v did not back off under slow latencies", h.InflightLimit)
	}
}
