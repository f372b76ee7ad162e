package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/stats"
)

// AssignmentPair reports one assigned pair in platform identities.
type AssignmentPair struct {
	WorkerID int     `json:"worker_id"`
	TaskID   int     `json:"task_id"`
	Quality  float64 `json:"quality"`
	Utility  float64 `json:"utility"`
	Mutual   float64 `json:"mutual"`
}

// RoundResult is the outcome of one assignment round over the live state.
type RoundResult struct {
	Round   int              `json:"round"`
	Pairs   []AssignmentPair `json:"pairs"`
	Metrics core.Metrics     `json:"metrics"`
	RoundProvenance
	// Shards carries per-shard provenance when the round was served by a
	// ShardedService (nil for a single-market Service), and
	// ReconcileDropped / ReconcileRefilled count the cross-shard
	// reconciliation churn: optimistic picks dropped because a spanning
	// worker was over-subscribed across shards, and freed slots refilled
	// from the owning shards' remaining edges.
	Shards            []ShardRound `json:"shards,omitempty"`
	ReconcileDropped  int          `json:"reconcile_dropped,omitempty"`
	ReconcileRefilled int          `json:"reconcile_refilled,omitempty"`
}

// RoundProvenance is how one market served a round: what its solve did
// and what its commit journaled.  RoundResult carries it for a single
// market (a sharded round aggregates StalePairs and SolveError), and each
// ShardRound carries its shard's own.
type RoundProvenance struct {
	// StalePairs counts assignments the solver produced that were dropped
	// at commit time because their worker left or their task closed while
	// the round was solving.  Metrics still describe the full solve-time
	// assignment.
	StalePairs int `json:"stale_pairs,omitempty"`
	// Seq is the journal sequence number of this round's marker event —
	// the handle for locating the round in the log after recovery.
	Seq uint64 `json:"seq,omitempty"`
	// ServedBy / DegradedFrom / SolveTimedOut mirror core.SolveReport when
	// the solver is a composite (core.Degrader): which stage served the
	// round, what it degraded from, and whether a deadline fired.
	ServedBy      string `json:"served_by,omitempty"`
	DegradedFrom  string `json:"degraded_from,omitempty"`
	SolveTimedOut bool   `json:"solve_timed_out,omitempty"`
	// WarmStarted / DirtyFraction / FullSolveFallback mirror the incremental
	// provenance of core.SolveReport when the solver is delta-aware: whether
	// the round reused carried dual state, how much of the problem had
	// churned, and whether carried state had to be discarded for a full
	// re-solve.
	WarmStarted       bool    `json:"warm_started,omitempty"`
	DirtyFraction     float64 `json:"dirty_fraction,omitempty"`
	FullSolveFallback bool    `json:"full_solve_fallback,omitempty"`
	// SolveError is set when the solve failed outright (every degrader
	// stage exhausted, or a panicking solver).  The round still closed —
	// its marker is journaled — but assigned nothing.
	SolveError string `json:"solve_error,omitempty"`
	// Checkpointed reports that this round's close triggered a successful
	// checkpoint (snapshot + journal compaction); CheckpointError records
	// a failed attempt.  Checkpointing is an optimization of recovery
	// time, so its failure never fails the round.
	Checkpointed    bool   `json:"checkpointed,omitempty"`
	CheckpointError string `json:"checkpoint_error,omitempty"`
}

// Service runs assignment rounds over a live State with a fixed solver and
// benefit parameters, optionally journaling every mutation to a Log.
//
// Concurrency model: events may be submitted from many goroutines at any
// time, including while a round is closing.  CloseRound never holds the
// service mutex across the expensive work — it snapshots the state (read
// lock only), releases every lock, constructs and solves on the snapshot,
// then re-acquires the state to validate the result against mutations that
// interleaved with the solve (pairs whose endpoints vanished are dropped
// and counted in RoundResult.StalePairs).  Rounds serialise among
// themselves on roundMu (on ShardedService.roundMu for a shard), which also
// guards the previous round's Problem.  Round N+1 refreshes round N's
// problem from the churn between their snapshots (core.RebuildProblem with
// the round's core.Delta): it copies the surviving edges into retained
// arenas and scores only the arrivals' edges, so a steady-state round
// costs its churn, not the market, and allocates no new arena.
//
// Submit and SubmitBatch share one write path: a single event is a batch
// of one, applied and journaled by State.ApplyBatchJournaled, which holds
// the state mutex across apply-and-append.  Journal records are written in
// strictly increasing sequence order — the invariant ReadLog enforces on
// recovery — and a journal failure rolls the state mutation back, so
// memory and disk can never silently drift apart.
type Service struct {
	mu         sync.Mutex
	state      *State
	journal    Journal // optional journal; nil disables
	solver     core.Solver
	params     benefit.Params
	rng        *stats.RNG
	checkpoint *CheckpointManager // optional; set via SetCheckpointer

	fence fence
	// promotedAt is the journal seq of the epoch bump this service wrote
	// when it took over from a failed primary (0 = never promoted).
	promotedAt atomic.Uint64

	roundMu sync.Mutex    // serialises CloseRound; guards prev
	prev    *core.Problem // previous round's problem, reused as the next round's arena
}

// fence is a backend's epoch fence: the highest foreign replication epoch
// observed (via the X-MBA-Epoch request header, or ObserveEpoch directly).
// Once it exceeds the backend's own epoch the backend is fenced: a newer
// primary exists, so committing anything here would split-brain the
// market.
type fence struct{ observed atomic.Uint64 }

// observe records an epoch seen on the wire (CAS-max).
func (f *fence) observe(epoch uint64) {
	for {
		cur := f.observed.Load()
		if epoch <= cur || f.observed.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// status reports whether the fence is up against the local epoch, and the
// highest epoch observed.
func (f *fence) status(local uint64) (fenced bool, observed uint64) {
	observed = f.observed.Load()
	return observed > local, observed
}

// check refuses writes while the fence is up against the local epoch.
func (f *fence) check(local uint64) error {
	if fenced, observed := f.status(local); fenced {
		return fmt.Errorf("%w: observed epoch %d above local %d", ErrFenced, observed, local)
	}
	return nil
}

// ErrFenced is returned by the write paths (Submit, SubmitBatch,
// CloseRound) once the service has observed a replication epoch higher
// than its own: another process has been promoted, and anything journaled
// here would diverge from the new primary's history.  The HTTP layer maps
// it to 409 with the X-MBA-Epoch header so clients can re-resolve the
// primary.
var ErrFenced = errors.New("platform: fenced by a higher replication epoch")

// NewService wires a service.  journal may be nil (no journaling); both
// *Log and *SegmentedLog satisfy it.
func NewService(state *State, solver core.Solver, params benefit.Params, journal Journal, seed uint64) (*Service, error) {
	if state == nil {
		return nil, fmt.Errorf("platform: nil state")
	}
	if solver == nil {
		return nil, fmt.Errorf("platform: nil solver")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	// Guard against typed-nil journals: callers historically pass a
	// possibly-nil *Log variable, which would otherwise arrive as a
	// non-nil interface wrapping nothing.
	switch j := journal.(type) {
	case *Log:
		if j == nil {
			journal = nil
		}
	case *SegmentedLog:
		if j == nil {
			journal = nil
		}
	}
	return &Service{
		state:   state,
		journal: journal,
		solver:  solver,
		params:  params,
		rng:     stats.NewRNG(seed),
	}, nil
}

// SetCheckpointer attaches a checkpoint manager: every committed round
// then notifies it (snapshot-on-round policy), and the HTTP API exposes
// POST /v1/checkpoint.  Call before serving.
func (s *Service) SetCheckpointer(cm *CheckpointManager) {
	s.mu.Lock()
	s.checkpoint = cm
	s.mu.Unlock()
}

// Checkpointer returns the attached checkpoint manager, if any.
func (s *Service) Checkpointer() *CheckpointManager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpoint
}

// Counts implements Backend (live worker/task counts).
func (s *Service) Counts() (workers, tasks int) { return s.state.Counts() }

// Rounds implements Backend (committed round count).
func (s *Service) Rounds() int { return s.state.Rounds() }

// CheckpointNow implements Backend: an immediate snapshot + journal
// compaction through the attached checkpoint manager, ok=false without one.
func (s *Service) CheckpointNow() (any, bool, error) {
	cm := s.Checkpointer()
	if cm == nil {
		return nil, false, nil
	}
	res, err := cm.Checkpoint()
	return res, true, err
}

// Epoch returns the service's replication epoch (the state's — the epoch
// is a journaled fact, not process memory).
func (s *Service) Epoch() uint64 { return s.state.Epoch() }

// ObserveEpoch records a replication epoch seen on the wire.  Observing
// an epoch above the service's own permanently fences it (until the state
// itself reaches that epoch — which only replication can make happen,
// never this service's own writes).
func (s *Service) ObserveEpoch(epoch uint64) { s.fence.observe(epoch) }

// FenceStatus reports whether the service is fenced and the highest
// foreign epoch it has observed.
func (s *Service) FenceStatus() (fenced bool, observed uint64) {
	return s.fence.status(s.state.Epoch())
}

// NotePromotion records the journal sequence of the epoch bump that made
// this service the primary (surfaced as promoted_at_seq in healthz).
func (s *Service) NotePromotion(seq uint64) { s.promotedAt.Store(seq) }

// PromotedAtSeq returns the promotion provenance recorded by
// NotePromotion (0 when this service started as a primary).
func (s *Service) PromotedAtSeq() uint64 { return s.promotedAt.Load() }

// Submit applies one event: a batch of one through apply.  Unlike
// SubmitBatch it accepts control events — CloseRound journals its round
// markers, and failover its epoch bump, through here.
func (s *Service) Submit(e Event) (Event, error) {
	applied, err := s.apply([]Event{e})
	if err != nil {
		return Event{}, err
	}
	return applied[0], nil
}

// SubmitBatch applies a batch of ingestion events all-or-nothing: every
// event validates and applies, and the batch lands in the journal as one
// contiguous append (one write + one fsync), or none of it happens.
// Control events are refused (see rejectControlEvents).
func (s *Service) SubmitBatch(events []Event) ([]Event, error) {
	if err := rejectControlEvents(events); err != nil {
		return nil, err
	}
	return s.apply(events)
}

// apply is the service's one write path: the fence check, then the
// atomic apply-and-append of State.ApplyBatchJournaled.  Sequence numbers
// are assigned inside the apply, under the state mutex, so the journal is
// written in sequence order; if the append fails the apply is rolled back,
// so an error means the events happened nowhere.
func (s *Service) apply(events []Event) ([]Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	if err := s.fence.check(s.state.Epoch()); err != nil {
		return nil, err
	}
	if s.journal == nil {
		return s.state.ApplyBatchJournaled(events, nil)
	}
	return s.state.ApplyBatchJournaled(events, s.journal.AppendBatch)
}

// rejectControlEvents refuses round markers and epoch bumps in a batch.
// Batches are client input: a round closes through CloseRound, which owns
// its marker, and an epoch bump is a promotion, which only failover
// journals — a forged one would fence every peer at a lower epoch.
func rejectControlEvents(events []Event) error {
	for i := range events {
		if k := events[i].Kind; k == EventRoundClosed || k == EventEpochBumped {
			return fmt.Errorf("platform: batch event %d: control event %q cannot be batch-submitted", i, k)
		}
	}
	return nil
}

// ErrStreamUnsupported is returned by JournalEventsSince when the service
// has no segmented journal to stream from (journal-less, or a single-file
// Log).
var ErrStreamUnsupported = errors.New("platform: journal streaming requires a segmented journal")

// ErrNoSnapshot is returned by LatestSnapshot when no decodable snapshot
// exists (checkpointing never ran, or every generation is corrupt).
var ErrNoSnapshot = errors.New("platform: no snapshot available")

// LatestSnapshot implements SnapshotProvider: an open reader over the
// newest snapshot file that passes full CRC verification, plus its info.
// Corrupt generations are skipped exactly like RecoverDir's fallback
// chain.  Requires an attached checkpoint manager — a primary that never
// snapshots also never retires segments, so its followers never need a
// snapshot bootstrap.
func (s *Service) LatestSnapshot() (io.ReadCloser, SnapshotInfo, error) {
	cm := s.Checkpointer()
	if cm == nil {
		return nil, SnapshotInfo{}, ErrNoSnapshot
	}
	return latestSnapshotIn(cm.SnapshotDir())
}

// JournalEventsSince serves the primary side of follower replication:
// every journaled event with sequence ≥ from, plus the state's current
// last-committed sequence so the follower can report its lag.
func (s *Service) JournalEventsSince(from uint64) ([]Event, uint64, error) {
	sl, ok := s.journal.(*SegmentedLog)
	if !ok {
		return nil, 0, ErrStreamUnsupported
	}
	events, err := sl.EventsSince(from)
	return events, s.state.Seq(), err
}

// CloseRound assigns all open tasks to the live workforce, journals the
// round marker, and returns the result in platform identities.  Closed
// tasks are *not* removed automatically: platforms differ on whether a
// task keeps collecting answers across rounds, so removal is the caller's
// policy (see Server's drain parameter).
//
// The expensive middle — problem construction and the solve — runs on an
// immutable snapshot with no lock held, so ingestion continues at full
// rate while the round closes.  The result is then validated against the
// live state: pairs whose worker or task disappeared during the solve are
// dropped (counted in StalePairs) rather than handed out against entities
// that no longer exist.
func (s *Service) CloseRound() (*RoundResult, error) {
	return s.CloseRoundCtx(context.Background())
}

// CloseRoundCtx is CloseRound under a context.  Cancellation is
// cooperative: deadline-aware solvers (core.ContextSolver, and notably
// core.Degrader) observe ctx and abort or degrade; others run to
// completion.  A ctx that dies before the round commits aborts the round
// without journaling a marker.  A solve that fails for any *other* reason
// — every degrader stage exhausted, or a panicking solver (contained by
// core.RunCtx's panic fence) — still closes the round: the marker is
// journaled, RoundResult.SolveError records why nothing was assigned, and
// the serving loop lives on.
func (s *Service) CloseRoundCtx(ctx context.Context) (*RoundResult, error) {
	// A fenced service must not journal a round marker: the new primary's
	// history would never contain it.  Checked again implicitly when the
	// marker is Submitted, but failing before the solve is cheaper.
	if err := s.fence.check(s.state.Epoch()); err != nil {
		return nil, err
	}
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	out := s.snapshot()
	s.solve(ctx, out)
	if out.solveErr != nil && ctx.Err() != nil {
		// The caller is gone; don't journal a marker for a round that
		// never served anyone.
		return nil, out.solveErr
	}
	if err := s.commit(out); err != nil {
		return nil, err
	}
	return &RoundResult{
		Round:           s.state.Rounds(),
		Pairs:           out.pairs,
		Metrics:         out.metrics,
		RoundProvenance: out.info.RoundProvenance,
	}, nil
}

// shardSolve is one market's round in flight, between its solve and commit
// phases: the immutable snapshot it solved, the problem (retained for the
// sharded reconciler's refill candidates), and the pairs before the live
// filter.
type shardSolve struct {
	in                 *market.Instance
	workerIDs, taskIDs []int
	delta              *core.Delta
	p                  *core.Problem
	sel                []int // selected edge indices into p.Edges, parallel to pairs
	pairs              []AssignmentPair
	metrics            core.Metrics
	info               ShardRound
	solveErr           error
}

// snapshot opens a round's solve phase: an immutable snapshot taken under
// the state's lock only, with the churn since the previous snapshot.  The
// churn drives the problem refresh for every solver, and a delta-aware
// solver's repair of its carried matching.  It is separate from solve so a
// sharded round can cut every shard's snapshot under one lock.
func (s *Service) snapshot() *shardSolve {
	out := &shardSolve{}
	out.in, out.workerIDs, out.taskIDs, out.delta = s.state.SnapshotDelta()
	out.info.Workers, out.info.Tasks = len(out.workerIDs), len(out.taskIDs)
	return out
}

// solve finishes the solve phase lock-free on out's snapshot: construct
// the problem, refreshing the previous round's from out.delta, solve, and
// record selection, pairs, metrics and solve provenance.  The caller holds
// the round lock (roundMu, or ShardedService.roundMu for a shard), which
// owns prev; nothing retains views into it (pairs are copied out), so the
// reuse cannot be observed.  The panic fence covers construction as well
// as the solve (core.RunCtx fences the solver itself), so malformed input
// or an arena-reuse bug in the rebuild path costs one round, not the
// process.  Construction and the solvers re-raise a panic from any of
// their chunk goroutines on this one, so the fence holds at any
// GOMAXPROCS.  prev is cleared across the rebuild and stored only once it
// succeeds, so a half-built problem is never the next round's base.
func (s *Service) solve(ctx context.Context, out *shardSolve) {
	if out.in.NumWorkers() == 0 || out.in.NumTasks() == 0 {
		return
	}
	s.mu.Lock()
	r := s.rng.Split()
	s.mu.Unlock()
	defer func() {
		if rec := recover(); rec != nil {
			out.sel, out.pairs = nil, nil
			out.solveErr = fmt.Errorf("platform: round solve panicked: %v", rec)
		}
	}()
	prev := s.prev
	s.prev = nil
	p, err := core.RebuildProblem(prev, out.in, s.params, out.delta)
	if err != nil {
		out.solveErr = err
		return
	}
	s.prev = p
	out.p = p
	sel, m, err := core.RunDeltaCtx(ctx, p, s.solver, out.delta, r)
	if rep, ok := s.solver.(core.SolveReporter); ok {
		last := rep.LastReport()
		out.info.ServedBy = last.ServedBy
		out.info.DegradedFrom = last.DegradedFrom
		out.info.SolveTimedOut = last.SolveTimedOut
		out.info.WarmStarted = last.WarmStarted
		out.info.DirtyFraction = last.DirtyFraction
		out.info.FullSolveFallback = last.FullSolveFallback
	}
	if err != nil {
		out.solveErr = err
		return
	}
	out.metrics = m
	out.sel = sel
	out.pairs = make([]AssignmentPair, len(sel))
	for i, ei := range sel {
		e := &p.Edges[ei]
		out.pairs[i] = AssignmentPair{
			WorkerID: out.workerIDs[e.W],
			TaskID:   out.taskIDs[e.T],
			Quality:  e.Q,
			Utility:  e.B,
			Mutual:   e.M,
		}
	}
}

// commit is a round's commit phase: re-acquire the state and keep only
// the pairs still valid (a failed solve records its error instead),
// journal the round marker, then notify the checkpoint manager.  The
// outcome lands on out.info; only the marker append can fail.
func (s *Service) commit(out *shardSolve) error {
	if out.solveErr == nil {
		out.pairs, out.info.StalePairs = s.state.filterLivePairs(out.pairs)
	} else {
		out.info.SolveError = out.solveErr.Error()
	}
	marker, err := s.Submit(NewRoundClosed(s.state.Rounds()))
	if err != nil {
		return err
	}
	out.info.Seq = marker.Seq
	out.info.Pairs = len(out.pairs)
	if cm := s.Checkpointer(); cm != nil {
		// The round is committed; checkpointing is recovery-time
		// optimization and must never undo that, so its errors are
		// reported on the result instead of failing the close.
		took, err := cm.RoundClosed()
		out.info.Checkpointed = took
		if err != nil {
			out.info.CheckpointError = err.Error()
		}
	}
	return nil
}
