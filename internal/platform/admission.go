package platform

// Admission control for the serving stack.  Every request that reaches
// Server.ServeHTTP is classified into a priority class and passed through
// the Admission controller before it may touch a backend:
//
//   - token buckets per priority class bound the sustained request rate,
//     with per-client buckets (keyed by the X-MBA-Client header) falling
//     back to a shared global bucket for anonymous traffic;
//   - an AIMD concurrency limiter in front of the Submit/SubmitBatch
//     paths converts saturation into bounded queueing instead of latency
//     collapse: the limit grows additively while observed latency stays
//     under target and shrinks multiplicatively when it does not;
//   - the wait queue is a bounded FIFO with deadline-aware shedding — a
//     request whose context deadline cannot be met by the estimated wait
//     is rejected immediately with 429 + jittered Retry-After, never
//     after burning its budget;
//   - brownout: when the recent shed rate or queue depth crosses a
//     threshold the controller reports "overloaded" through healthz
//     (still HTTP 200 — overload is not failure) and starts shedding
//     single-event writes probabilistically first, so batch ingest and
//     the group-commit journal keep their throughput under stress.
//
// Probe and replication traffic (GET /healthz, GET /v1/journal/stream)
// is exempt: a failover supervisor must be able to distinguish an
// overloaded-but-alive primary from a dead one, and shedding the
// replication stream would turn load into data loss.

import (
	"errors"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Priority classes for admission.  Lower numeric value = higher priority.
type Priority int

const (
	// PriorityHigh covers read traffic: stats, rounds listing, snapshot
	// fetches.  Reads are cheap and never touch the journal.
	PriorityHigh Priority = iota
	// PriorityMedium covers single-event writes (add/remove worker/task,
	// rate updates).  These are the first to brown out.
	PriorityMedium
	// PriorityLow covers the heavyweight verbs: batch ingest, round
	// closes and checkpoints.  Low priority here means lowest sustained
	// *rate* budget, not importance — batch ingest keeps its bucket
	// during brownout precisely because it amortises journal writes.
	PriorityLow

	numPriorities = 3
)

// ClientHeader names the request header used to key per-client token
// buckets.  Requests without it share the global per-class bucket.
const ClientHeader = "X-MBA-Client"

// StatusOverloaded is the healthz Status reported while the admission
// controller is in brownout.  It is served with HTTP 200: an overloaded
// primary is alive, and probes must not mistake load for death.
const StatusOverloaded = "overloaded"

// ErrAdmissionShed is the sentinel for requests rejected by admission.
var ErrAdmissionShed = errors.New("platform: request shed by admission control")

// classifyRequest maps a route to its priority class.  exempt routes
// bypass admission entirely (probes, replication stream).
func classifyRequest(method, path string) (p Priority, exempt bool) {
	if method == http.MethodGet {
		// Liveness probes and the replication stream are never shed:
		// shedding the former turns overload into failover, shedding
		// the latter turns overload into replication lag.
		if path == "/v1/healthz" || strings.HasPrefix(path, "/v1/journal/stream") {
			return PriorityHigh, true
		}
		return PriorityHigh, false
	}
	switch path {
	case "/v1/batch", "/v1/rounds", "/v1/checkpoint":
		return PriorityLow, false
	}
	return PriorityMedium, false
}

// concurrencyLimited reports whether the route sits behind the AIMD
// concurrency limiter.  Only the journaled ingest paths do: round closes
// are already single-flighted by the server and reads don't contend.
func concurrencyLimited(method, path string) bool {
	if method == http.MethodGet {
		return false
	}
	switch path {
	case "/v1/rounds", "/v1/checkpoint":
		return false
	}
	return true
}

// AdmissionOptions configures the admission controller.  The zero value
// means "disabled" (seed semantics: every request admitted, nothing
// shed); NewAdmissionOptions returns the recommended enabled defaults.
// mbaserve overrides the rates, MaxInflight (clamping MinInflight to it)
// and Seed from its flags.  The tuning fields (LatencyTarget, MaxQueue,
// BrownoutShedRate, BrownoutHalflife, MaxClients) keep their defaults in
// production and are test seams: tests shrink them to drive overload
// deterministically.
type AdmissionOptions struct {
	// Enabled turns admission on.  Off preserves pre-admission behavior.
	Enabled bool

	// RateHigh/RateMedium/RateLow are sustained requests-per-second
	// budgets per priority class.  0 means unlimited for that class.
	RateHigh   float64
	RateMedium float64
	RateLow    float64

	// MinInflight/MaxInflight clamp the AIMD concurrency limit for the
	// journaled write paths.  The limiter starts at MaxInflight and
	// backs off multiplicatively when latency crosses LatencyTarget.
	MinInflight int
	MaxInflight int
	// LatencyTarget is the per-request latency the AIMD loop steers to.
	LatencyTarget time.Duration
	// MaxQueue bounds the FIFO wait queue in front of the concurrency
	// limiter; requests beyond it are shed immediately.
	MaxQueue int

	// BrownoutShedRate is the recent shed fraction (0..1) above which
	// the controller enters brownout (so does a wait queue more than
	// brownoutQueueFrac full).  BrownoutHalflife is the decay half-life
	// of the shed-rate signal: after the storm stops the controller
	// forgets at this rate, so healthz recovers promptly.
	BrownoutShedRate float64
	BrownoutHalflife time.Duration

	// MaxClients bounds the per-client bucket table (LRU-free: once full,
	// new clients share the global bucket).  Protects against header
	// cardinality attacks.
	MaxClients int

	// Seed drives the jittered Retry-After values and probabilistic
	// brownout shedding.  Deterministic given the request sequence.
	Seed uint64
}

// NewAdmissionOptions returns enabled defaults tuned for a single node:
// generous read budget, moderate single-write budget, a small budget for
// the heavyweight verbs, and an AIMD window sized for the group-commit
// journal path.
func NewAdmissionOptions() AdmissionOptions {
	return AdmissionOptions{
		Enabled:          true,
		RateHigh:         5000,
		RateMedium:       2000,
		RateLow:          50,
		MinInflight:      4,
		MaxInflight:      256,
		LatencyTarget:    25 * time.Millisecond,
		MaxQueue:         64,
		BrownoutShedRate: 0.05,
		BrownoutHalflife: 500 * time.Millisecond,
		MaxClients:       1024,
		Seed:             1,
	}
}

func (o AdmissionOptions) rateFor(p Priority) float64 {
	switch p {
	case PriorityHigh:
		return o.RateHigh
	case PriorityMedium:
		return o.RateMedium
	default:
		return o.RateLow
	}
}

// brownoutQueueFrac is the wait-queue occupancy above which the
// controller enters brownout.
const brownoutQueueFrac = 0.5

// tokenBucket is a standard refill-on-demand token bucket.  rate is
// tokens/second, burst the capacity: one second of rate, at least one
// token.  Safe for concurrent use.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, now time.Time) *tokenBucket {
	if rate <= 0 {
		return nil // nil bucket = unlimited
	}
	burst := math.Max(rate, 1)
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

func (b *tokenBucket) refillLocked(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = now
}

// take consumes one token if available.  When it cannot, it returns the
// duration until one token will have refilled, for Retry-After.
func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}

// admWaiter is one queued request waiting for a concurrency slot.
type admWaiter struct {
	ready     chan struct{}
	granted   bool // slot transferred to this waiter
	abandoned bool // waiter gave up (deadline); slot must not transfer
}

// aimdLimiter is the adaptive concurrency limiter: additive increase
// while observed latency stays under target, multiplicative decrease
// (with a cooldown so one burst of slow requests triggers one backoff)
// when it does not.  Waiters queue FIFO and carry their context
// deadline; the limiter sheds a waiter immediately if the estimated
// queue wait exceeds the deadline.
type aimdLimiter struct {
	mu       sync.Mutex
	limit    float64
	floor    float64
	ceil     float64
	target   time.Duration
	inflight int
	queue    []*admWaiter
	maxQueue int
	// ewmaLat tracks recent admitted-request latency for wait estimates.
	ewmaLat  time.Duration
	lastDrop time.Time
}

func newAIMDLimiter(o AdmissionOptions) *aimdLimiter {
	floor := float64(o.MinInflight)
	if floor < 1 {
		floor = 1
	}
	ceil := float64(o.MaxInflight)
	if ceil < floor {
		ceil = floor
	}
	return &aimdLimiter{
		limit:    ceil, // start wide open; back off on evidence
		floor:    floor,
		ceil:     ceil,
		target:   o.LatencyTarget,
		maxQueue: o.MaxQueue,
		ewmaLat:  o.LatencyTarget / 4,
	}
}

// estimateWaitLocked predicts how long a newly queued request would wait
// for a slot: queue ahead of it plus itself, served at limit-wide
// concurrency with ewmaLat per request.
func (l *aimdLimiter) estimateWaitLocked() time.Duration {
	lim := math.Max(1, l.limit)
	waves := float64(len(l.queue)+1) / lim
	return time.Duration(waves * float64(l.ewmaLat))
}

// acquire takes a concurrency slot, queueing FIFO if none is free.
// deadline is the request's context deadline (zero time = none).  It
// returns false with a shed reason when the request cannot be admitted
// in time.  done must not have fired for correctness of slot transfer.
func (l *aimdLimiter) acquire(deadline time.Time, now time.Time, done <-chan struct{}) bool {
	l.mu.Lock()
	if float64(l.inflight) < math.Floor(l.limit) || l.inflight < int(l.floor) {
		l.inflight++
		l.mu.Unlock()
		return true
	}
	if len(l.queue) >= l.maxQueue {
		l.mu.Unlock()
		return false
	}
	// Deadline-aware: shed now rather than after burning the budget.
	if !deadline.IsZero() && now.Add(l.estimateWaitLocked()).After(deadline) {
		l.mu.Unlock()
		return false
	}
	w := &admWaiter{ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	var timer *time.Timer
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		timer = time.NewTimer(deadline.Sub(now))
		timeout = timer.C
		defer timer.Stop()
	}
	select {
	case <-w.ready:
		return true
	case <-timeout:
	case <-done:
	}
	// Gave up.  If the grant raced us, we own a slot and must release it.
	l.mu.Lock()
	if w.granted {
		l.mu.Unlock()
		select {
		case <-w.ready:
		default:
		}
		l.releaseSlot(0, false)
		return false
	}
	w.abandoned = true
	l.mu.Unlock()
	return false
}

// grantLocked hands the caller's slot to the next live waiter instead of
// freeing it.  Returns true if a transfer happened.
func (l *aimdLimiter) grantLocked() bool {
	for len(l.queue) > 0 {
		w := l.queue[0]
		l.queue[0] = nil
		l.queue = l.queue[1:]
		if w.abandoned {
			continue
		}
		w.granted = true
		close(w.ready)
		return true
	}
	return false
}

// release returns a slot after a request completes, feeding the measured
// latency into the AIMD loop.
func (l *aimdLimiter) release(latency time.Duration, now time.Time) {
	l.releaseSlotAt(latency, true, now)
}

func (l *aimdLimiter) releaseSlot(latency time.Duration, observe bool) {
	l.releaseSlotAt(latency, observe, time.Now())
}

func (l *aimdLimiter) releaseSlotAt(latency time.Duration, observe bool, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if observe {
		// EWMA with alpha 0.2: responsive without thrashing.
		l.ewmaLat = time.Duration(0.8*float64(l.ewmaLat) + 0.2*float64(latency))
		if latency > l.target {
			// Multiplicative decrease, at most once per cooldown window
			// (≈ the target) so one slow burst is one backoff.
			if now.Sub(l.lastDrop) > l.target {
				l.limit = math.Max(l.floor, l.limit*0.7)
				l.lastDrop = now
			}
		} else {
			l.limit = math.Min(l.ceil, l.limit+1/math.Max(1, l.limit))
		}
	}
	if float64(l.inflight) <= math.Floor(l.limit) && l.grantLocked() {
		// Slot transferred to a waiter; inflight count unchanged.
		return
	}
	l.inflight--
}

func (l *aimdLimiter) snapshot() (limit float64, inflight, queued int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit, l.inflight, len(l.queue)
}

// AdmissionCounts breaks a counter down by priority class.
type AdmissionCounts struct {
	High   int64 `json:"high"`
	Medium int64 `json:"medium"`
	Low    int64 `json:"low"`
}

// AdmissionHealth is the admission slice of the healthz payload.
type AdmissionHealth struct {
	Brownout      bool            `json:"brownout"`
	ShedRate      float64         `json:"shed_rate"`
	InflightLimit float64         `json:"inflight_limit"`
	Inflight      int             `json:"inflight"`
	QueueDepth    int             `json:"queue_depth"`
	Admitted      AdmissionCounts `json:"admitted"`
	Shed          AdmissionCounts `json:"shed"`
	BrownoutSheds int64           `json:"brownout_sheds"`
}

// Admission is the controller.  One per Server.
type Admission struct {
	opts    AdmissionOptions
	limiter *aimdLimiter

	global [numPriorities]*tokenBucket

	cmu     sync.Mutex
	clients map[string]*[numPriorities]*tokenBucket

	rmu sync.Mutex
	rng *stats.RNG

	// shedSignal is a decayed estimate of the recent capacity-shed rate
	// (sheds caused by buckets/queue/deadline — brownout sheds are
	// deliberately excluded so brownout cannot feed itself and lock in).
	smu        sync.Mutex
	shedSignal float64 // decayed shed count
	seenSignal float64 // decayed total count
	signalAt   time.Time

	admitted      [numPriorities]atomic.Int64
	shed          [numPriorities]atomic.Int64
	brownoutSheds atomic.Int64

	now func() time.Time // injectable for tests
}

// NewAdmission builds a controller from opts.  Returns nil when
// admission is disabled; a nil *Admission admits everything.
func NewAdmission(opts AdmissionOptions) *Admission {
	if !opts.Enabled {
		return nil
	}
	if opts.LatencyTarget <= 0 {
		opts.LatencyTarget = 25 * time.Millisecond
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.BrownoutHalflife <= 0 {
		opts.BrownoutHalflife = 500 * time.Millisecond
	}
	if opts.BrownoutShedRate <= 0 {
		opts.BrownoutShedRate = 0.05
	}
	if opts.MaxClients <= 0 {
		opts.MaxClients = 1024
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	a := &Admission{
		opts:    opts,
		limiter: newAIMDLimiter(opts),
		clients: make(map[string]*[numPriorities]*tokenBucket),
		rng:     stats.NewRNG(seed),
		now:     time.Now,
	}
	now := a.now()
	for p := Priority(0); p < numPriorities; p++ {
		a.global[p] = newTokenBucket(opts.rateFor(p), now)
	}
	a.signalAt = now
	return a
}

// bucketFor resolves the token bucket for (client, class): the client's
// own bucket when a client id is present and the table has room, else
// the shared global bucket.
func (a *Admission) bucketFor(client string, p Priority) *tokenBucket {
	if client == "" {
		return a.global[p]
	}
	a.cmu.Lock()
	defer a.cmu.Unlock()
	set, ok := a.clients[client]
	if !ok {
		if len(a.clients) >= a.opts.MaxClients {
			return a.global[p]
		}
		set = new([numPriorities]*tokenBucket)
		now := a.now()
		for q := Priority(0); q < numPriorities; q++ {
			set[q] = newTokenBucket(a.opts.rateFor(q), now)
		}
		a.clients[client] = set
	}
	return set[p]
}

// observe feeds one admission decision into the decayed shed-rate
// signal.  Brownout-caused sheds must NOT be fed here: they would raise
// the shed rate, which raises brownout severity, which sheds more — a
// positive feedback loop that never recovers.
func (a *Admission) observe(shed bool, now time.Time) {
	a.smu.Lock()
	defer a.smu.Unlock()
	a.decayLocked(now)
	a.seenSignal++
	if shed {
		a.shedSignal++
	}
}

func (a *Admission) decayLocked(now time.Time) {
	dt := now.Sub(a.signalAt)
	if dt > 0 {
		k := math.Exp2(-float64(dt) / float64(a.opts.BrownoutHalflife))
		a.shedSignal *= k
		a.seenSignal *= k
	}
	a.signalAt = now
}

// shedRate returns the decayed recent shed fraction.
func (a *Admission) shedRate(now time.Time) float64 {
	a.smu.Lock()
	defer a.smu.Unlock()
	a.decayLocked(now)
	if a.seenSignal < 1 {
		return 0
	}
	return a.shedSignal / a.seenSignal
}

// severity returns the brownout severity in [0,1]: 0 = healthy, >0 =
// brownout, scaling the probabilistic shed of medium-priority writes.
func (a *Admission) severity(now time.Time) float64 {
	rate := a.shedRate(now)
	_, _, queued := a.limiter.snapshot()
	sev := 0.0
	if thr := a.opts.BrownoutShedRate; rate > thr {
		sev = math.Max(sev, math.Min(1, (rate-thr)/math.Max(1e-9, 1-thr)))
	}
	if frac := float64(queued) / float64(a.opts.MaxQueue); frac > brownoutQueueFrac {
		sev = math.Max(sev, math.Min(1, (frac-brownoutQueueFrac)/(1-brownoutQueueFrac)))
	}
	return sev
}

// Overloaded reports whether the controller is in brownout.
func (a *Admission) Overloaded() bool {
	if a == nil {
		return false
	}
	return a.severity(a.now()) > 0
}

// Decision is the outcome of Admit.
type Decision struct {
	// OK means the request may proceed.  Release must be called exactly
	// once when the request finishes (nil-safe when no slot was taken).
	OK bool
	// RetryAfter is the jittered client backoff hint for shed requests.
	RetryAfter time.Duration
	release    func(latency time.Duration)
}

// Release returns the concurrency slot (if one was held) and feeds the
// observed latency to the AIMD loop.  Safe to call on a shed decision.
func (d Decision) Release(latency time.Duration) {
	if d.release != nil {
		d.release(latency)
	}
}

// jitteredRetry converts a bucket refill wait into a client hint:
// the wait plus up to 100% seeded jitter, so a shed herd does not
// return in lockstep.
func (a *Admission) jitteredRetry(wait time.Duration) time.Duration {
	if wait <= 0 {
		wait = 100 * time.Millisecond
	}
	a.rmu.Lock()
	f := 1 + a.rng.Float64()
	a.rmu.Unlock()
	return time.Duration(float64(wait) * f)
}

func (a *Admission) roll(p float64) bool {
	a.rmu.Lock()
	defer a.rmu.Unlock()
	return a.rng.Float64() < p
}

// Admit runs the full admission pipeline for one request.  deadline is
// the request context's deadline (zero = none); done is its Done
// channel.  A nil *Admission admits everything.
func (a *Admission) Admit(method, path, client string, deadline time.Time, done <-chan struct{}) Decision {
	if a == nil {
		return Decision{OK: true}
	}
	p, exempt := classifyRequest(method, path)
	if exempt {
		return Decision{OK: true}
	}
	now := a.now()

	// Fast shed: the deadline has already passed — admitting would burn
	// backend budget on a response nobody is waiting for.
	if !deadline.IsZero() && !deadline.After(now) {
		a.shed[p].Add(1)
		a.observe(true, now)
		return Decision{RetryAfter: a.jitteredRetry(0)}
	}

	// Brownout: shed single-event writes probabilistically before they
	// reach the buckets, keeping batch ingest and reads flowing.  These
	// sheds do not feed the shed-rate signal (see observe).
	if p == PriorityMedium {
		if sev := a.severity(now); sev > 0 {
			if a.roll(math.Min(0.95, sev)) {
				a.shed[p].Add(1)
				a.brownoutSheds.Add(1)
				return Decision{RetryAfter: a.jitteredRetry(a.opts.BrownoutHalflife)}
			}
		}
	}

	if b := a.bucketFor(client, p); b != nil {
		ok, wait := b.take(now)
		if !ok {
			a.shed[p].Add(1)
			a.observe(true, now)
			return Decision{RetryAfter: a.jitteredRetry(wait)}
		}
	}

	if concurrencyLimited(method, path) {
		if !a.limiter.acquire(deadline, now, done) {
			a.shed[p].Add(1)
			a.observe(true, now)
			return Decision{RetryAfter: a.jitteredRetry(a.opts.LatencyTarget)}
		}
		a.admitted[p].Add(1)
		a.observe(false, now)
		return Decision{OK: true, release: func(lat time.Duration) {
			a.limiter.release(lat, a.now())
		}}
	}

	a.admitted[p].Add(1)
	a.observe(false, now)
	return Decision{OK: true}
}

// HealthSnapshot returns the admission slice of the healthz payload.
func (a *Admission) HealthSnapshot() *AdmissionHealth {
	if a == nil {
		return nil
	}
	now := a.now()
	limit, inflight, queued := a.limiter.snapshot()
	return &AdmissionHealth{
		Brownout:      a.severity(now) > 0,
		ShedRate:      a.shedRate(now),
		InflightLimit: math.Floor(limit),
		Inflight:      inflight,
		QueueDepth:    queued,
		Admitted: AdmissionCounts{
			High:   a.admitted[PriorityHigh].Load(),
			Medium: a.admitted[PriorityMedium].Load(),
			Low:    a.admitted[PriorityLow].Load(),
		},
		Shed: AdmissionCounts{
			High:   a.shed[PriorityHigh].Load(),
			Medium: a.shed[PriorityMedium].Load(),
			Low:    a.shed[PriorityLow].Load(),
		},
		BrownoutSheds: a.brownoutSheds.Load(),
	}
}
