package platform

// Failover supervises a warm standby: it runs a Follower, probes the
// primary's /v1/healthz, and — when enough consecutive probes fail and
// AutoTakeover is on — promotes the replica into a full serving primary
// without operator intervention.  Promotion recovers the follower's own
// journal directory (the replica is, by construction, a valid checkpoint
// dir), bumps the replication epoch with a journaled control event, and
// atomically swaps the HTTP handler from "follower healthz" through
// "transitioning 503" to the complete API.
//
// The epoch bump is the fencing half of the story: every response from
// the promoted service now advertises the higher epoch, so a resurrected
// old primary that hears it (on any request or stream response) fences
// itself and refuses further ingestion — split-brain writes die with 409
// instead of diverging the histories.

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/stats"
)

// FailoverOptions configures the supervisor.  The zero value of every
// duration/count picks a sane default; Solver is required when
// AutoTakeover is set (a promoted primary must be able to close rounds).
type FailoverOptions struct {
	// Follower configures the replication tail (categories, segment
	// options, poll cadence, backoff).
	Follower FollowerOptions
	// ProbeInterval is the health-probe cadence while the primary looks
	// alive; 0 means 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe request; 0 means 2s.  Production
	// uses the default; tests shorten it to run fast.
	ProbeTimeout time.Duration
	// ProbeFailures is how many consecutive bad probes (transport error,
	// non-200, or a degraded payload) trigger takeover; 0 means 5.  The
	// threshold is the flap filter: one dropped packet must not cause a
	// promotion.
	ProbeFailures int
	// ProbeMaxBackoff caps the jittered backoff between failed probes;
	// 0 means 5s.  Production uses the default; tests shorten it to run
	// fast.
	ProbeMaxBackoff time.Duration
	// AutoTakeover enables promotion.  Off, the supervisor only reports
	// probe state through Health and never promotes — the PR-8 behaviour
	// (operator restarts without -follow) still works on the directory.
	AutoTakeover bool
	// Seed seeds the promoted service's solver RNG and the probe jitter.
	Seed uint64
	// Solver closes rounds after promotion.  Stateful solvers must be
	// fresh instances (same rule as every other Service constructor).
	Solver core.Solver
	// Params are the benefit parameters for the promoted service.
	Params benefit.Params
	// Server bounds the promoted API (body caps, request timeouts).
	Server ServerOptions
	// Checkpoint, when non-nil, attaches a CheckpointManager to the
	// promoted service so the new primary keeps compacting (and can feed
	// snapshot resyncs to its own followers).
	Checkpoint *CheckpointOptions
}

// Failover phases, reported by Phase and visible in takeover logs.
const (
	PhaseFollower      = "follower"
	PhaseTransitioning = "transitioning"
	PhasePrimary       = "primary"
)

// Failover is the supervisor.  It is an http.Handler whose behaviour
// changes with the phase; see the package comment on promotion ordering.
type Failover struct {
	primary string
	dir     string
	opts    FailoverOptions
	client  *http.Client

	follower *Follower
	handler  atomic.Pointer[handlerBox] // current phase's http.Handler
	phase    atomic.Value               // string
	svc      atomic.Pointer[Service]

	promoted  chan struct{}
	probeDown atomic.Int64 // consecutive failed probes, for Health
}

// handlerBox wraps the phase handler so the atomic slot always holds one
// concrete type regardless of the handler's own.
type handlerBox struct{ h http.Handler }

// NewFailover prepares the supervisor: the follower is constructed (its
// directory recovered) but nothing runs until Run.
func NewFailover(primaryURL, dir string, opts FailoverOptions) (*Failover, error) {
	if opts.AutoTakeover && opts.Solver == nil {
		return nil, fmt.Errorf("platform: auto-takeover needs a solver for the promoted service")
	}
	f, err := NewFollower(primaryURL, dir, opts.Follower)
	if err != nil {
		return nil, err
	}
	fo := &Failover{
		primary:  primaryURL,
		dir:      dir,
		opts:     opts,
		client:   &http.Client{Timeout: probeTimeout(opts)},
		follower: f,
		promoted: make(chan struct{}),
	}
	fo.phase.Store(PhaseFollower)
	fo.handler.Store(&handlerBox{h: fo.followerHandler()})
	return fo, nil
}

func probeTimeout(opts FailoverOptions) time.Duration {
	if opts.ProbeTimeout <= 0 {
		return 2 * time.Second
	}
	return opts.ProbeTimeout
}

// Phase is the current lifecycle phase: follower, transitioning, primary.
func (fo *Failover) Phase() string { return fo.phase.Load().(string) }

// Follower exposes the replication tail (read-only inspection).
func (fo *Failover) Follower() *Follower { return fo.follower }

// ServeHTTP delegates to the current phase's handler.  The swap is a
// single atomic store, so requests always see a coherent phase: follower
// healthz, transitioning 503, or the full primary API.
func (fo *Failover) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fo.handler.Load().h.ServeHTTP(w, r)
}

// followerHandler serves the standby API: healthz (with follower lag and
// probe detail), 503 + Retry-After everywhere else — the address may
// become a primary any moment, so clients are told to retry rather than
// being 404ed away.
func (fo *Failover) followerHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := fo.follower.Health()
		w.Header().Set("Content-Type", "application/json")
		if h.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "replication follower: not serving the market API", http.StatusServiceUnavailable)
	})
	return mux
}

// transitioningHandler answers everything 503 + Retry-After while the
// promotion sequence (recover, epoch bump, server wiring) runs.
func transitioningHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "failover in progress", http.StatusServiceUnavailable)
	})
}

// Run tails the primary and, with AutoTakeover, watches its health until
// either ctx is cancelled or a takeover completes.  After promotion Run
// keeps serving until ctx is cancelled, then closes the journal (with a
// parting checkpoint when one is configured).  Without AutoTakeover it
// degenerates to Follower.Run plus the phase-aware handler.
func (fo *Failover) Run(ctx context.Context) error {
	followCtx, stopFollow := context.WithCancel(ctx)
	defer stopFollow()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_ = fo.follower.Run(followCtx)
	}()

	if !fo.opts.AutoTakeover {
		<-ctx.Done()
		<-runDone
		return fo.follower.Close()
	}

	takeover, err := fo.watchPrimary(ctx)
	if err != nil || !takeover {
		stopFollow()
		<-runDone
		cerr := fo.follower.Close()
		if err != nil {
			return err
		}
		return cerr
	}

	// Promotion.  Order matters: stop replicating first (the tail must
	// not move while we recover the directory), then recover + bump under
	// the transitioning handler so no request ever reaches a half-built
	// primary.
	fo.phase.Store(PhaseTransitioning)
	fo.handler.Store(&handlerBox{h: transitioningHandler()})
	stopFollow()
	<-runDone
	if err := fo.follower.Close(); err != nil {
		return fmt.Errorf("platform: sealing follower journal for takeover: %w", err)
	}

	svc, seg, cm, err := fo.promote()
	if err != nil {
		return fmt.Errorf("platform: takeover failed: %w", err)
	}
	fo.svc.Store(svc)
	fo.handler.Store(&handlerBox{h: NewServerWithOptions(svc, fo.opts.Server)})
	fo.phase.Store(PhasePrimary)
	close(fo.promoted)
	log.Printf("platform: failover complete: promoted %s to primary (epoch %d, seq %d)",
		fo.dir, svc.Epoch(), svc.PromotedAtSeq())

	<-ctx.Done()
	if cm != nil {
		if _, err := cm.Checkpoint(); err != nil {
			log.Printf("platform: failover shutdown checkpoint: %v", err)
		}
	}
	return seg.Close()
}

// promote turns the replica directory into a serving primary: open it
// (it is a valid checkpoint dir — the follower journaled before applying,
// always), build the service and journal the epoch bump that fences the
// old primary.  The new epoch outranks both the replica's own and the
// epoch the primary last advertised: a replica whose stream was torn
// before the primary's own epoch bump lags that epoch, and promoting to
// it would leave a resurrected old primary unfenced at the same epoch.
func (fo *Failover) promote() (*Service, *SegmentedLog, *CheckpointManager, error) {
	state, seg, cm, _, err := OpenMarketDir(fo.dir, fo.opts.Follower.NumCategories, fo.opts.Follower.Segment, fo.opts.Checkpoint)
	if err != nil {
		return nil, nil, nil, err
	}
	svc, err := NewService(state, fo.opts.Solver, fo.opts.Params, seg, fo.opts.Seed)
	if err != nil {
		seg.Close()
		return nil, nil, nil, err
	}
	svc.SetCheckpointer(cm)
	// The journaled epoch bump is the promotion: it survives restarts of
	// the new primary and rides every response header from here on, which
	// is what demotes a resurrected old primary.
	bump, err := svc.Submit(NewEpochBumped(max(state.Epoch(), fo.follower.PrimaryEpoch()) + 1))
	if err != nil {
		seg.Close()
		return nil, nil, nil, fmt.Errorf("journaling epoch bump: %w", err)
	}
	svc.NotePromotion(bump.Seq)
	return svc, seg, cm, nil
}

// watchPrimary probes GET /v1/healthz until ProbeFailures consecutive
// bad probes (takeover=true), or ctx cancellation (takeover=false).  A
// bad probe is a transport error, a non-200 status — the primary answers
// 503 whenever its own health is degraded — or a payload whose Status
// isn't "ok".  Failed probes back off with jitter so a fleet of standbys
// doesn't synchronise its probes against a struggling primary.
func (fo *Failover) watchPrimary(ctx context.Context) (takeover bool, err error) {
	interval := fo.opts.ProbeInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	maxB := fo.opts.ProbeMaxBackoff
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	threshold := fo.opts.ProbeFailures
	if threshold <= 0 {
		threshold = 5
	}
	seed := fo.opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := stats.NewRNG(seed).Split()
	fails := 0
	for {
		bad := fo.probeOnce(ctx)
		if ctx.Err() != nil {
			return false, nil
		}
		if !bad {
			fails = 0
			fo.probeDown.Store(0)
			if !sleepCtx(ctx, interval) {
				return false, nil
			}
			continue
		}
		fails++
		fo.probeDown.Store(int64(fails))
		if fails >= threshold {
			log.Printf("platform: primary %s failed %d consecutive probes; taking over", fo.primary, fails)
			return true, nil
		}
		if !sleepCtx(ctx, backoffDelay(interval, maxB, fails, rng)) {
			return false, nil
		}
	}
}

// probeOnce reports whether one health probe was bad.  An overloaded
// primary is NOT bad: healthz is admission-exempt so the probe itself is
// never shed, a 429 on any route proves a live admission controller
// answered it, and the "overloaded" status is the server coping with
// load — promoting a standby into the same storm would only double it.
func (fo *Failover) probeOnce(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fo.primary+"/v1/healthz", nil)
	if err != nil {
		return true
	}
	resp, err := fo.client.Do(req)
	if err != nil {
		return true
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return false // shed by admission: the primary is alive, just busy
	}
	if resp.StatusCode != http.StatusOK {
		return true
	}
	var h HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return true
	}
	return h.Status != "ok" && h.Status != StatusOverloaded
}

// sleepCtx sleeps d or until ctx is done; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
