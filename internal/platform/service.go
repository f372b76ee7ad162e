package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
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
	// Shards carries per-partition provenance when the round was split
	// over more than one partition (nil for one market), and
	// ReconcileDropped / ReconcileRefilled count the cross-partition
	// reconciliation churn: optimistic picks dropped because a spanning
	// worker was over-subscribed across partitions, and freed slots
	// refilled from the owning partitions' remaining edges.
	Shards            []ShardRound `json:"shards,omitempty"`
	ReconcileDropped  int          `json:"reconcile_dropped,omitempty"`
	ReconcileRefilled int          `json:"reconcile_refilled,omitempty"`
}

// RoundProvenance is how one market served a round: what its solve did
// and what its commit journaled.  RoundResult carries it for the round
// (a partitioned round aggregates SolveError), and each ShardRound carries
// its partition's solve provenance.
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

// ShardRound is one partition's provenance inside a partitioned round's
// RoundResult: the partition's sub-market size at snapshot time, the pairs
// it contributed after reconciliation, and its solve provenance.  The
// commit-side fields of its RoundProvenance (StalePairs, Seq, Checkpointed)
// stay empty: the round commits once, and RoundResult carries them.
type ShardRound struct {
	Shard   int `json:"shard"`
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	Pairs   int `json:"pairs"`
	// ReconcileDropped / ReconcileRefilled are this partition's share of
	// the cross-partition reconciliation churn: optimistic picks dropped
	// because a spanning worker was over-subscribed, and freed slots
	// refilled from this partition's remaining edges.
	ReconcileDropped  int `json:"reconcile_dropped,omitempty"`
	ReconcileRefilled int `json:"reconcile_refilled,omitempty"`
	RoundProvenance
}

// Service runs assignment rounds over a live State with benefit
// parameters and one solver per round partition, optionally journaling
// every mutation to a Log.
//
// Concurrency model: events may be submitted from many goroutines at any
// time, including while a round is closing.  CloseRound never holds the
// service mutex across the expensive work — it snapshots the state (read
// lock only), releases every lock, constructs and solves on the snapshot,
// then re-acquires the state to validate the result against mutations that
// interleaved with the solve (pairs whose endpoints vanished are dropped
// and counted in RoundResult.StalePairs).  Rounds serialise among
// themselves on roundMu, which also guards every partition's previous
// round Problem.  Round N+1 refreshes round N's problem from the churn
// between their snapshots (core.RebuildProblem with the round's
// core.Delta): it copies the surviving edges into retained edge columns
// and scores only the arrivals' edges, so a steady-state round costs its
// churn, not the market, and allocates no new column.
//
// Partitioning is a property of the round only.  With more than one
// partition (NewPartitionedService) the round splits its one snapshot by
// category (ShardRouter), solves the partitions concurrently, reconciles
// workers whose specialties span partitions, and commits the merged pairs
// as one round: storage, journal, fence and health are the same single
// market either way.
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
	params     benefit.Params
	checkpoint *CheckpointManager // optional; set via SetCheckpointer

	fence fence
	// promotedAt is the journal seq of the epoch bump this service wrote
	// when it took over from a failed primary (0 = never promoted).
	promotedAt atomic.Uint64

	roundMu sync.Mutex   // serialises CloseRound; guards parts
	parts   []*partition // the round's partitions; one for an unsplit market
}

// partition is what one slice of the round keeps between rounds: its own
// solver (stateful solvers carry duals, reports and resident edge orders
// per market), its RNG stream, the previous round's Problem, reused as the
// next round's arena, and — when the round is split — the ascending ID
// lists it solved last round, which its next Delta is cut against.
type partition struct {
	solver                     core.Solver
	rng                        *stats.RNG
	prev                       *core.Problem
	primed                     bool // prevWorkerIDs/prevTaskIDs hold a round
	prevWorkerIDs, prevTaskIDs []int
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

// NewService wires a service whose rounds solve the market unsplit.
// journal may be nil (no journaling); both *Log and *SegmentedLog satisfy
// it.
func NewService(state *State, solver core.Solver, params benefit.Params, journal Journal, seed uint64) (*Service, error) {
	return NewPartitionedService(state, []core.Solver{solver}, params, journal, seed)
}

// NewPartitionedService wires a service whose rounds are split into
// len(solvers) partitions by category (see ShardRouter), each solved by
// its own solver with its own RNG stream (seed + k·0x9e3779b97f4a7c15).
// One solver is exactly NewService.  Partitions solve concurrently, so
// no two may share a stateful solver instance or pinned workspace.
func NewPartitionedService(state *State, solvers []core.Solver, params benefit.Params, journal Journal, seed uint64) (*Service, error) {
	if state == nil {
		return nil, fmt.Errorf("platform: nil state")
	}
	if len(solvers) < 1 {
		return nil, fmt.Errorf("platform: a service needs at least one partition solver")
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
	s := &Service{state: state, journal: journal, params: params}
	solverPtrs := map[uintptr]int{}
	for k, solver := range solvers {
		if solver == nil {
			return nil, fmt.Errorf("platform: nil solver")
		}
		// Stateful solvers must not be shared between concurrently solving
		// partitions; a shared pointer or pinned workspace is almost
		// certainly that mistake.
		if at, what := solverState(solver); at != 0 {
			if prev, dup := solverPtrs[at]; dup {
				return nil, fmt.Errorf("platform: partitions %d and %d share one solver %s", prev, k, what)
			}
			solverPtrs[at] = k
		}
		s.parts = append(s.parts, &partition{solver: solver, rng: stats.NewRNG(seed + uint64(k)*0x9e3779b97f4a7c15)})
	}
	return s, nil
}

// solverState returns where a solver keeps state between solves, and
// what that is: the solver itself when it is a pointer, the workspace a
// value solver pins in a *core.Workspace field (a pinned greedy keeps its
// resident edge order there), or 0 when it keeps none.
func solverState(s core.Solver) (uintptr, string) {
	v := reflect.ValueOf(s)
	switch v.Kind() {
	case reflect.Pointer:
		return v.Pointer(), "instance"
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Type() == workspaceType && !f.IsNil() {
				return f.Pointer(), "workspace"
			}
		}
	}
	return 0, ""
}

var workspaceType = reflect.TypeOf((*core.Workspace)(nil))

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
	if len(s.parts) > 1 {
		return s.closePartitioned(ctx, out)
	}
	s.parts[0].solve(ctx, out, s.params)
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
// reconciler's refill candidates), and the pairs before the live filter.
// A partitioned round holds one for the whole snapshot and one per
// partition's sub-market.
type shardSolve struct {
	in                 *market.Instance
	workerIDs, taskIDs []int
	delta              *core.Delta
	p                  *core.Problem
	sel                []int // selected edge indices of p, parallel to pairs
	pairs              []AssignmentPair
	metrics            core.Metrics
	info               ShardRound
	solveErr           error
}

// snapshot opens a round's solve phase: an immutable snapshot taken under
// the state's lock only, with the churn since the previous snapshot.  The
// churn drives the problem refresh for every solver, and a delta-aware
// solver's repair of its carried matching.
func (s *Service) snapshot() *shardSolve {
	out := &shardSolve{}
	out.in, out.workerIDs, out.taskIDs, out.delta = s.state.SnapshotDelta()
	out.info.Workers, out.info.Tasks = len(out.workerIDs), len(out.taskIDs)
	return out
}

// solve finishes the solve phase lock-free on out's snapshot: construct
// the problem, refreshing the previous round's from out.delta, solve, and
// record selection, pairs, metrics and solve provenance.  The caller holds
// roundMu, which owns prev; nothing retains views into it (pairs are
// copied out), so the reuse cannot be observed.  The panic fence covers
// construction as well as the solve (core.RunCtx fences the solver
// itself), so malformed input or an arena-reuse bug in the rebuild path
// costs one round, not the process.  Construction and the solvers re-raise
// a panic from any of their chunk goroutines on this one, so the fence
// holds at any GOMAXPROCS.  prev is cleared across the rebuild and stored
// only once it succeeds, so a half-built problem is never the next round's
// base.
func (pt *partition) solve(ctx context.Context, out *shardSolve, params benefit.Params) {
	if out.in.NumWorkers() == 0 || out.in.NumTasks() == 0 {
		return
	}
	r := pt.rng.Split()
	defer func() {
		if rec := recover(); rec != nil {
			out.sel, out.pairs = nil, nil
			out.solveErr = fmt.Errorf("platform: round solve panicked: %v", rec)
		}
	}()
	prev := pt.prev
	pt.prev = nil
	p, err := core.RebuildProblem(prev, out.in, params, out.delta)
	if err != nil {
		out.solveErr = err
		return
	}
	pt.prev = p
	out.p = p
	sel, m, err := core.RunDeltaCtx(ctx, p, pt.solver, out.delta, r)
	if rep, ok := pt.solver.(core.SolveReporter); ok {
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
		out.pairs[i] = out.pair(ei)
	}
}

// pair copies edge ei of the solved problem out as an AssignmentPair under
// the snapshot's entity IDs.
func (out *shardSolve) pair(ei int) AssignmentPair {
	p := out.p
	return AssignmentPair{
		WorkerID: out.workerIDs[p.W[ei]],
		TaskID:   out.taskIDs[p.T[ei]],
		Quality:  p.Quality(ei),
		Utility:  p.Utility(ei),
		Mutual:   p.M[ei],
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

// closePartitioned closes a round over more than one partition: split the
// snapshot into the partitions' sub-markets, solve them on a pool of
// min(GOMAXPROCS, partitions) goroutines, reconcile workers whose
// specialties span partitions, then commit the merged pairs as one round
// (one live filter, one marker, one checkpoint notification).
// Cancellation before the commit aborts the round without journaling a
// marker; a partition's solve failure does not — the partition contributes
// nothing, its error is recorded, and the round closes (Service's
// solve-error policy).
//
// Invariant (reconciliation): the merged assignment never over-subscribes
// a worker, even one resident in several partitions, and never over-fills
// a task (a task lives in exactly one partition, whose solver already
// respects its replication).
func (s *Service) closePartitioned(ctx context.Context, all *shardSolve) (*RoundResult, error) {
	outs := s.split(all)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(outs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				s.parts[k].solve(ctx, outs[k], s.params)
			}
		}()
	}
	for k := range outs {
		idx <- k
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The caller is gone; no marker for a round that served nobody.
		return nil, err
	}

	dropped, refilled := reconcileShards(outs)
	res := &RoundResult{
		ReconcileDropped:  dropped,
		ReconcileRefilled: refilled,
		Shards:            make([]ShardRound, len(outs)),
	}
	var solveErrs []string
	for k, out := range outs {
		if out.solveErr != nil {
			out.info.SolveError = out.solveErr.Error()
			solveErrs = append(solveErrs, fmt.Sprintf("partition %d: %v", k, out.solveErr))
		}
		out.info.Shard = k
		out.info.Pairs = len(out.pairs)
		res.Shards[k] = out.info
		all.pairs = append(all.pairs, out.pairs...)
	}
	if err := s.commit(all); err != nil {
		return nil, err
	}
	res.Round = s.state.Rounds()
	res.Pairs = all.pairs
	res.RoundProvenance = all.info.RoundProvenance
	if len(solveErrs) > 0 {
		res.SolveError = fmt.Sprintf("%d partition(s) failed: %s", len(solveErrs), strings.Join(solveErrs, "; "))
	}
	res.Metrics = s.aggregateMetrics(all)
	return res, nil
}

// split cuts a round's snapshot into the partitions' sub-markets: a task
// goes to the partition its category routes to, a worker to every
// partition one of its specialties routes to (ShardRouter).  Since a
// worker is eligible only for tasks in its specialties, the sub-markets'
// edge sets partition the market's exactly.  Every sub-market keeps the
// snapshot's market-wide MaxPayment, so a pair scores the one-market
// benefit whichever partition solves it.  Each partition's Delta is cut
// against the ascending ID lists it solved last round.
func (s *Service) split(all *shardSolve) []*shardSolve {
	router := ShardRouter{Shards: len(s.parts)}
	outs := make([]*shardSolve, len(s.parts))
	for k := range outs {
		outs[k] = &shardSolve{in: &market.Instance{
			Name:          all.in.Name,
			NumCategories: all.in.NumCategories,
			MaxPayment:    all.in.MaxPayment,
		}}
	}
	for i, w := range all.in.Workers {
		for _, k := range router.WorkerShards(w.Specialties) {
			out := outs[k]
			w.ID = len(out.in.Workers)
			out.in.Workers = append(out.in.Workers, w)
			out.workerIDs = append(out.workerIDs, all.workerIDs[i])
		}
	}
	for j, t := range all.in.Tasks {
		out := outs[router.TaskShard(t.Category)]
		t.ID = len(out.in.Tasks)
		out.in.Tasks = append(out.in.Tasks, t)
		out.taskIDs = append(out.taskIDs, all.taskIDs[j])
	}
	for k, pt := range s.parts {
		out := outs[k]
		out.info.Workers, out.info.Tasks = len(out.workerIDs), len(out.taskIDs)
		if pt.primed {
			out.delta = core.DeltaBetween(pt.prevWorkerIDs, out.workerIDs, pt.prevTaskIDs, out.taskIDs)
		}
		pt.primed, pt.prevWorkerIDs, pt.prevTaskIDs = true, out.workerIDs, out.taskIDs
	}
	return outs
}

// aggregateMetrics computes a partitioned round's metrics from its merged
// committed pairs, with core.Problem.Evaluate's formulas over the round's
// one snapshot: slot coverage over its open slots, Jain fairness and mean
// benefit over every live worker (idle ones as zero).
func (s *Service) aggregateMetrics(all *shardSolve) core.Metrics {
	m := core.Metrics{
		Algorithm: fmt.Sprintf("sharded/%d(%s)", len(s.parts), s.parts[0].solver.Name()),
		Pairs:     len(all.pairs),
	}
	at := make(map[int]int, len(all.workerIDs))
	for i, wid := range all.workerIDs {
		at[wid] = i
	}
	benefits := make([]float64, len(all.workerIDs))
	for _, pr := range all.pairs {
		m.TotalMutual += pr.Mutual
		m.TotalQuality += pr.Quality
		m.TotalWorker += pr.Utility
		benefits[at[pr.WorkerID]] += pr.Utility
	}
	if slots := all.in.TotalSlots(); slots > 0 {
		m.SlotCoverage = float64(len(all.pairs)) / float64(slots)
	}
	for _, b := range benefits {
		if b > 0 {
			m.ActiveWorkers++
		}
	}
	m.WorkerJain = stats.JainIndex(benefits)
	m.MeanWorkerBenefit = stats.Mean(benefits)
	return m
}
