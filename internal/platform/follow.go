package platform

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Follower tails a primary's journal over HTTP (GET /v1/journal/stream)
// and persists every event into its own segment directory before
// applying it — the standby half of primary→follower replication.  The
// local directory is a normal journal: takeover is simply RecoverDir on
// it (plus starting a Service), and because the follower only ever
// applies events it has already journaled, the recovered state equals
// the followed state exactly.
//
// Consistency model: the primary serves only committed bytes (a group
// flush that may still fail is never streamed — see
// SegmentedLog.EventsSince), the follower verifies per-event contiguity
// (seq == local seq + 1) and treats a torn stream as a retriable partial
// read, keeping the valid prefix it already applied.  The follower can
// therefore lag but never diverge.
//
// A follower that lags past the primary's segment retention gets 410
// from the stream (ErrResyncNeeded); Resync then bootstraps from GET
// /v1/snapshot — every frame CRC-verified before a byte is installed —
// and re-tails from the snapshot's sequence, so checkpoint compaction on
// the primary never strands a standby permanently.
type FollowerOptions struct {
	// NumCategories is the market's category universe (must match the
	// primary's).
	NumCategories int
	// Segment configures the follower's local journal (fsync,
	// rotation).  The follower mirrors events, not bytes: its segment
	// boundaries may differ from the primary's (and its encoding from a
	// primary still holding legacy JSONL segments); recovery equivalence
	// is at the event level.
	Segment SegmentOptions
	// PollInterval is the idle re-poll delay in Run; 0 means 200ms.  It is
	// also the base of the error backoff.  Production uses the default;
	// tests shorten it to run fast.
	PollInterval time.Duration
	// MaxBackoff caps the jittered exponential backoff Run applies after
	// consecutive errors (so a fleet of followers doesn't hammer a
	// restarting primary); 0 means 5s.  Production uses the default;
	// tests shorten it to run fast.
	MaxBackoff time.Duration
}

const (
	// followerBackoffSeed seeds Run's backoff jitter.
	followerBackoffSeed = 1
	// followerContactAge degrades Health once the last successful
	// primary contact is older than this.  Replication lag alone never
	// degrades it: transient lag is normal.
	followerContactAge = 10 * time.Second
	// followerResyncBudget caps the wall-clock time of one snapshot
	// resync attempt in Run.  Without it a primary that accepts the
	// connection but stalls the snapshot body pins the follower forever
	// (the HTTP client has no default timeout).
	followerResyncBudget = 30 * time.Second
)

// ErrResyncNeeded reports that the follower's replication position was
// checkpoint-retired on the primary (410 Gone from the journal stream):
// tailing can never catch up, only Resync (snapshot bootstrap) can.
var ErrResyncNeeded = errors.New("platform: replication position retired by primary; snapshot resync required")

type Follower struct {
	primary string // primary's base URL, no trailing slash
	opts    FollowerOptions
	client  *http.Client

	// mu guards the state/journal pair as a unit: Resync swaps both
	// (snapshot-installed state, rotated journal) atomically with respect
	// to Health and State readers.
	mu    sync.RWMutex
	state *State
	seg   *SegmentedLog

	// primarySeq is the primary's last committed sequence as of the
	// latest successful poll (from the stream response header).
	primarySeq atomic.Uint64
	// primaryEpoch is the primary's replication epoch as advertised on the
	// latest response's X-MBA-Epoch header (0 before first contact or from
	// pre-epoch primaries).
	primaryEpoch atomic.Uint64
	// lastContact is the unix-nano time of the last successful primary
	// response (initialised to construction time so a fresh follower is
	// not born degraded).
	lastContact atomic.Int64
	// resyncs counts completed snapshot bootstraps.
	resyncs atomic.Uint64
	// consecRetries mirrors Run's consecutive-failure counter for Health:
	// 0 while replication flows, growing while the primary flaps.
	consecRetries atomic.Int64
}

// NewFollower recovers (or creates) the follower's local journal
// directory and prepares to tail the primary.  Call SyncOnce / Run to
// start pulling.
func NewFollower(primaryURL, dir string, opts FollowerOptions) (*Follower, error) {
	if opts.NumCategories <= 0 {
		return nil, fmt.Errorf("platform: follower needs the category count")
	}
	state, _, err := RecoverDir(dir, opts.NumCategories)
	if err != nil {
		return nil, fmt.Errorf("platform: recovering follower dir: %w", err)
	}
	seg, err := OpenSegmentedLog(dir, opts.Segment)
	if err != nil {
		return nil, fmt.Errorf("platform: opening follower journal: %w", err)
	}
	f := &Follower{
		primary: primaryURL,
		opts:    opts,
		client:  &http.Client{},
		state:   state,
		seg:     seg,
	}
	f.lastContact.Store(time.Now().UnixNano())
	return f, nil
}

// replica returns the current state/journal pair under the swap lock.
func (f *Follower) replica() (*State, *SegmentedLog) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.state, f.seg
}

// State exposes the follower's replica state (read-only use; mutating it
// outside the replication path would diverge from the primary).  After a
// Resync the returned pointer is stale — re-fetch it.
func (f *Follower) State() *State {
	st, _ := f.replica()
	return st
}

// Seq is the follower's last applied sequence.
func (f *Follower) Seq() uint64 { return f.State().Seq() }

// PrimarySeq is the primary's last committed sequence as of the latest
// successful poll (0 before the first contact).
func (f *Follower) PrimarySeq() uint64 { return f.primarySeq.Load() }

// PrimaryEpoch is the primary's replication epoch as of the latest
// response (0 before the first contact).
func (f *Follower) PrimaryEpoch() uint64 { return f.primaryEpoch.Load() }

// ConsecutiveRetries is how many poll/resync attempts in a row have
// failed (0 while replication is healthy).
func (f *Follower) ConsecutiveRetries() int64 { return f.consecRetries.Load() }

// Lag is how many events behind the primary the follower was at the
// latest poll.
func (f *Follower) Lag() uint64 {
	p, s := f.PrimarySeq(), f.Seq()
	if p > s {
		return p - s
	}
	return 0
}

// ContactAge is how long ago the primary last answered any request
// successfully.
func (f *Follower) ContactAge() time.Duration {
	return time.Since(time.Unix(0, f.lastContact.Load()))
}

func (f *Follower) touchContact() { f.lastContact.Store(time.Now().UnixNano()) }

// Health implements HealthReporter for a follower process.  A follower
// degrades when its journal is poisoned or when the primary has been out
// of contact past followerContactAge — an unreachable primary must not
// keep reporting "ok" forever, or nothing watching this endpoint ever
// learns replication has stalled.
func (f *Follower) Health() HealthStatus {
	st, seg := f.replica()
	workers, tasks := st.Counts()
	contactAge := f.ContactAge()
	h := HealthStatus{
		Role:               "follower",
		LastSeq:            st.Seq(),
		JournalPoisoned:    seg.Poisoned(),
		Workers:            workers,
		Tasks:              tasks,
		Rounds:             st.Rounds(),
		PrimarySeq:         f.PrimarySeq(),
		ReplicationLag:     f.Lag(),
		Epoch:              st.Epoch(),
		ContactAgeMS:       contactAge.Milliseconds(),
		ConsecutiveRetries: f.ConsecutiveRetries(),
	}
	h.Status = "ok"
	if h.JournalPoisoned || contactAge > followerContactAge {
		h.Status = "degraded"
	}
	return h
}

// Close seals the follower's local journal.
func (f *Follower) Close() error {
	_, seg := f.replica()
	return seg.Close()
}

// SyncOnce pulls one stream from the primary and applies it: journal
// first, then state, per event.  It returns how many events were applied.
// A torn or interrupted stream is not fatal — the applied prefix is kept
// and the next SyncOnce re-requests from the new position; the error
// reports why the stream ended early.  A 410 response surfaces as
// ErrResyncNeeded (see Resync).
func (f *Follower) SyncOnce(ctx context.Context) (int, error) {
	state, seg := f.replica()
	from := state.Seq() + 1
	url := fmt.Sprintf("%s/v1/journal/stream?from=%d", f.primary, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("platform: polling primary: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		f.touchContact() // the primary is alive, just compacted past us
		return 0, fmt.Errorf("%w (stream from=%d)", ErrResyncNeeded, from)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("platform: primary stream returned %d: %s", resp.StatusCode, msg)
	}
	f.touchContact()
	f.observeResponse(resp)
	if h := resp.Header.Get(JournalLastSeqHeader); h != "" {
		v, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			// A primary that emits an unparseable commit position is speaking
			// a different protocol; freezing PrimarySeq silently would fake a
			// healthy lag of zero forever.
			return 0, fmt.Errorf("platform: primary sent malformed %s header %q: %w", JournalLastSeqHeader, h, err)
		}
		f.primarySeq.Store(v)
	}
	br := bufio.NewReaderSize(resp.Body, 64*1024)
	var magic [len(binaryLogMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != binaryLogMagic {
		return 0, fmt.Errorf("platform: bad stream header from primary")
	}
	applied := 0
	for {
		e, _, err := readBinaryRecord(br)
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			// Torn stream (primary died mid-response, connection cut): the
			// prefix is applied and durable, just report and let the caller
			// re-poll.
			return applied, fmt.Errorf("platform: stream ended mid-record after %d events: %w", applied, err)
		}
		if err := e.Validate(); err != nil {
			return applied, fmt.Errorf("platform: primary streamed invalid event: %w", err)
		}
		if e.Seq <= state.Seq() {
			continue // duplicate of something already replicated
		}
		if want := state.Seq() + 1; e.Seq != want {
			return applied, fmt.Errorf("platform: stream gap: got seq %d, want %d", e.Seq, want)
		}
		if _, err := state.ApplyBatchJournaled([]Event{e}, seg.AppendBatch); err != nil {
			return applied, fmt.Errorf("platform: applying replicated event %d: %w", e.Seq, err)
		}
		applied++
	}
}

// observeResponse records the epoch the primary advertises on a
// response.  A malformed value is ignored here (the lag header above is
// the stream-protocol canary; the epoch is advisory provenance).
func (f *Follower) observeResponse(resp *http.Response) {
	if h := resp.Header.Get(EpochHeader); h != "" {
		if v, err := strconv.ParseUint(h, 10, 64); err == nil {
			f.primaryEpoch.Store(v)
		}
	}
}

// Resync bootstraps the follower from the primary's newest snapshot —
// the recovery path for a follower whose stream position was retired
// (ErrResyncNeeded).  The snapshot is fetched whole, every frame
// CRC-verified by DecodeSnapshot before anything is touched, then
// installed: written into the follower's own directory (so RecoverDir on
// this directory no longer needs the retired history), the local journal
// rotated onto a fresh segment, and the in-memory replica swapped.  The
// next SyncOnce re-tails from snapshot seq + 1.
func (f *Follower) Resync(ctx context.Context) (SnapshotInfo, error) {
	var none SnapshotInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+"/v1/snapshot", nil)
	if err != nil {
		return none, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return none, fmt.Errorf("platform: fetching snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return none, fmt.Errorf("platform: primary snapshot returned %d: %s", resp.StatusCode, msg)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return none, fmt.Errorf("platform: reading snapshot body: %w", err)
	}
	newState, info, err := DecodeSnapshot(bytes.NewReader(body))
	if err != nil {
		return none, fmt.Errorf("platform: verifying snapshot: %w", err)
	}
	if info.NumCategories != f.opts.NumCategories {
		return none, fmt.Errorf("platform: snapshot has %d categories, want %d", info.NumCategories, f.opts.NumCategories)
	}
	f.touchContact()
	f.observeResponse(resp)

	f.mu.Lock()
	defer f.mu.Unlock()
	if info.Seq <= f.state.Seq() {
		// The stream said our position was retired, yet the snapshot
		// predates us — the primary is contradicting itself (or we raced a
		// checkpoint); re-polling the stream is the only safe move.
		return none, fmt.Errorf("platform: snapshot seq %d not past local %d; retrying stream", info.Seq, f.state.Seq())
	}
	// Durability first: the snapshot must exist in our directory before
	// the in-memory replica jumps past the retired gap, or a crash here
	// would leave a journal that can never replay to the new position.
	if _, _, err := WriteSnapshot(f.seg.Dir(), newState, nil); err != nil {
		return none, fmt.Errorf("platform: installing snapshot: %w", err)
	}
	// Seal the stale pre-gap segment so the re-tail starts on a fresh one;
	// RecoverDir skips fully-covered segments, so the leftovers are inert
	// history until retirement deletes them.
	if err := f.seg.Rotate(); err != nil {
		return none, fmt.Errorf("platform: rotating past retired history: %w", err)
	}
	_, _ = f.seg.RetireThrough(info.Seq) // best-effort cleanup, like checkpointing
	f.state = newState
	f.resyncs.Add(1)
	return info, nil
}

// backoffDelay is the jittered exponential retry delay after the n-th
// consecutive failure (n ≥ 1): base·2^(n-1), capped at max, jittered
// uniformly into [d/2, d) so a fleet of followers spreads its retries
// instead of stampeding a restarting primary in lockstep.
func backoffDelay(base, max time.Duration, fails int, rng *stats.RNG) time.Duration {
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if max < base {
		max = base
	}
	d := base
	for i := 1; i < fails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Float64()*float64(d-half))
}

// Run polls the primary until ctx is cancelled.  Transient errors
// (primary restarting, torn streams) are absorbed with jittered
// exponential backoff — reset on the first success — and a retired
// position (410) triggers an automatic snapshot Resync.
func (f *Follower) Run(ctx context.Context) error {
	poll := f.opts.PollInterval
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	maxB := f.opts.MaxBackoff
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	rng := stats.NewRNG(followerBackoffSeed)
	fails := 0
	for {
		n, err := f.SyncOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrResyncNeeded) {
			// Budget the whole resync attempt: the default HTTP client has
			// no timeout, and a primary that stalls the snapshot body mid-
			// transfer must cost one bounded attempt, not pin Run forever.
			rctx, cancel := context.WithTimeout(ctx, followerResyncBudget)
			_, rerr := f.Resync(rctx)
			cancel()
			if rerr == nil {
				fails = 0
				f.consecRetries.Store(0)
				continue // re-tail immediately from the snapshot position
			} else if ctx.Err() != nil {
				return ctx.Err()
			}
			// Resync failed; fall through to the error backoff below.
		}
		var delay time.Duration
		switch {
		case err != nil:
			fails++
			f.consecRetries.Store(int64(fails))
			delay = backoffDelay(poll, maxB, fails, rng)
		case n == 0:
			fails = 0
			f.consecRetries.Store(0)
			delay = poll
		default:
			fails = 0
			f.consecRetries.Store(0)
			continue // traffic is flowing; pull again immediately
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}
