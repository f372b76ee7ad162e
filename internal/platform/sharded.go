package platform

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/stats"
)

// Shard bundles the resources one shard of a ShardedService owns: its own
// State, an optional journal, its own solver instance, and an optional
// checkpoint manager over that state.  Ownership is strict — nothing may be
// shared between shards: states and journals because each shard is an
// independent event-sourced market, solvers because stateful ones
// (core.IncrementalExact, core.Degrader) carry per-market duals and reports
// and the shards solve concurrently.
type Shard struct {
	State      *State
	Journal    Journal // optional; nil disables journaling for this shard
	Solver     core.Solver
	Checkpoint *CheckpointManager // optional
}

// ShardRound is one shard's provenance inside an aggregated RoundResult:
// the shard's market size at snapshot time, its share of the committed
// pairs, and the same solve/checkpoint provenance Service reports for a
// single market.
type ShardRound struct {
	Shard   int `json:"shard"`
	Workers int `json:"workers"`
	Tasks   int `json:"tasks"`
	Pairs   int `json:"pairs"`
	// ReconcileDropped / ReconcileRefilled are this shard's share of the
	// cross-shard reconciliation churn: optimistic picks dropped because a
	// spanning worker was over-subscribed, and freed slots refilled from
	// this shard's remaining edges.
	ReconcileDropped  int `json:"reconcile_dropped,omitempty"`
	ReconcileRefilled int `json:"reconcile_refilled,omitempty"`
	RoundProvenance
}

// ShardedService serves one logical market partitioned into N shard
// markets (see ShardRouter for the placement rule).  Each shard is a
// single-market Service over its own State, journal and checkpoint
// machinery — the crash-safety story applies per shard, and any single
// shard recovers independently and byte-identically.  ShardedService holds
// only what is sharded: the router, the global identity space and
// residency maps, fan-out with compensation, recovery repair, cross-shard
// reconciliation and metric aggregation.  Platform IDs are assigned once
// here (starting at 1) and submitted to the target shards as explicit IDs,
// so an entity has the same ID in every shard it is resident in.
//
// Concurrency model: writes (SubmitBatch, and Submit as a batch of one)
// serialise on the service mutex (validation is done before fan-out, so
// multi-shard applies fail only on journal I/O, and a partial failure is
// compensated by rolling the already-applied shards back).  CloseRound
// holds the service mutex only to cut every shard's snapshot; the
// expensive work runs without it, like Service: each shard's solve phase
// fans across a worker pool of min(GOMAXPROCS, shards), a sequential
// reconciliation pass resolves spanning workers, and each shard runs its
// commit phase (filter-live, round marker, checkpoint notification).
// Rounds serialise among themselves on roundMu.
//
// Invariant (reconciliation): the merged assignment never over-subscribes a
// worker, even one resident in several shards, and never over-fills a task
// (a task lives in exactly one shard, whose solver already respects its
// replication).
type ShardedService struct {
	router ShardRouter
	shards []*Service

	mu           sync.Mutex
	nextWorkerID int
	nextTaskID   int
	workerHome   map[int][]int // live worker ID → resident shards (sorted)
	taskHome     map[int]int   // open task ID → owning shard

	roundMu sync.Mutex // serialises CloseRound; guards every shard's prev

	// fence covers every shard against the max shard epoch: the shards
	// fail over as a unit or not at all, so a shard's own fence is never
	// observed.
	fence fence

	// repairedWorkers counts the partial multi-shard worker writes reindex
	// converged to absent during recovery (see reindex).
	repairedWorkers int
}

// NewShardedService wires a sharded service over per-shard resource
// bundles.  All states must share one category universe; recovered states
// are re-indexed into the routing tables (and cross-checked against the
// router, which catches recovering with a different -shards than the
// directory was written with).  Each bundle's solver must be its own
// instance.  seed derives every shard's RNG stream.
func NewShardedService(shards []Shard, params benefit.Params, seed uint64) (*ShardedService, error) {
	if len(shards) < 1 {
		return nil, fmt.Errorf("platform: sharded service needs at least one shard")
	}
	ss := &ShardedService{
		router:       ShardRouter{Shards: len(shards)},
		nextWorkerID: 1,
		nextTaskID:   1,
		workerHome:   map[int][]int{},
		taskHome:     map[int]int{},
	}
	solverPtrs := map[uintptr]int{}
	for k, b := range shards {
		svc, err := NewService(b.State, b.Solver, params, b.Journal, seed+uint64(k)*0x9e3779b97f4a7c15)
		if err != nil {
			return nil, fmt.Errorf("platform: shard %d: %w", k, err)
		}
		if n, n0 := b.State.NumCategories(), shards[0].State.NumCategories(); n != n0 {
			return nil, fmt.Errorf("platform: shard %d has %d categories, shard 0 has %d", k, n, n0)
		}
		// Stateful solvers must not be shared between concurrently solving
		// shards; a shared pointer is almost certainly that mistake.
		if v := reflect.ValueOf(b.Solver); v.Kind() == reflect.Pointer {
			if prev, dup := solverPtrs[v.Pointer()]; dup {
				return nil, fmt.Errorf("platform: shards %d and %d share one solver instance", prev, k)
			}
			solverPtrs[v.Pointer()] = k
		}
		svc.SetCheckpointer(b.Checkpoint)
		ss.shards = append(ss.shards, svc)
	}
	if err := ss.reindex(); err != nil {
		return nil, err
	}
	return ss, nil
}

// reindex rebuilds the routing tables and global ID counters from the shard
// states (the recovery path: per-shard RecoverDir, then NewShardedService).
// Residency that contradicts the router — a worker or task in a shard the
// router would not place it in, or a spanning worker missing from one of
// its shards — is a hard error: it means the directory was written under a
// different shard count.
func (ss *ShardedService) reindex() error {
	specialties := map[int][]int{} // worker ID → specialties (first sighting)
	seen := map[int][]int{}        // worker ID → shards actually resident in
	for k, sh := range ss.shards {
		in, workerIDs, taskIDs := sh.state.Snapshot()
		for i, wid := range workerIDs {
			if _, ok := specialties[wid]; !ok {
				specialties[wid] = in.Workers[i].Specialties
			}
			seen[wid] = append(seen[wid], k)
		}
		for j, tid := range taskIDs {
			want := ss.router.TaskShard(in.Tasks[j].Category)
			if want != k {
				return fmt.Errorf("platform: task %d (category %d) recovered in shard %d, router places it in shard %d — shard count mismatch?",
					tid, in.Tasks[j].Category, k, want)
			}
			if prev, dup := ss.taskHome[tid]; dup {
				return fmt.Errorf("platform: task %d recovered in shards %d and %d", tid, prev, k)
			}
			ss.taskHome[tid] = k
		}
		nw, nt := sh.state.NextIDs()
		if nw > ss.nextWorkerID {
			ss.nextWorkerID = nw
		}
		if nt > ss.nextTaskID {
			ss.nextTaskID = nt
		}
	}
	// Sorted worker order keeps repair journaling deterministic.
	wids := make([]int, 0, len(seen))
	for wid := range seen {
		wids = append(wids, wid)
	}
	sort.Ints(wids)
	for _, wid := range wids {
		got := seen[wid]
		want := ss.router.WorkerShards(specialties[wid])
		if equalIntSlices(got, want) {
			ss.workerHome[wid] = want
			continue
		}
		if !subsetIntSlice(got, want) {
			return fmt.Errorf("platform: worker %d resident in shards %v, router places it in %v — shard count mismatch?",
				wid, got, want)
		}
		// Strict subset: a crash between fan-out appends left either a torn
		// join (prefix of the target shards written) or a torn leave (prefix
		// removed).  Both converge to ABSENT — removing the residual copies
		// completes the join's rollback or the leave's remainder.  The
		// removals are journaled, so the repair is durable.
		for _, k := range got {
			if _, err := ss.shards[k].Submit(NewWorkerLeft(wid)); err != nil {
				return fmt.Errorf("platform: repairing partial worker %d on shard %d: %w", wid, k, err)
			}
		}
		ss.repairedWorkers++
	}
	return nil
}

// RepairedWorkers reports how many workers reindex found resident in a
// strict subset of their router shards — a crash between the fan-out
// appends of a join or leave — and converged to absent during recovery.
func (ss *ShardedService) RepairedWorkers() int { return ss.repairedWorkers }

// equalIntSlices reports a == b elementwise.
func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetIntSlice reports whether sorted a is a subset of sorted b.
func subsetIntSlice(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// Counts returns global live-entity counts (a spanning worker counts once).
func (ss *ShardedService) Counts() (workers, tasks int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.workerHome), len(ss.taskHome)
}

// Rounds returns the service's committed round count: the minimum over
// shards, since a failed commit can transiently leave later shards one
// marker behind.
func (ss *ShardedService) Rounds() int {
	min := -1
	for _, sh := range ss.shards {
		if r := sh.Rounds(); min < 0 || r < min {
			min = r
		}
	}
	return min
}

// CheckpointNow implements Backend over Checkpoint.
func (ss *ShardedService) CheckpointNow() (any, bool, error) {
	results, ok, err := ss.Checkpoint()
	return results, ok, err
}

// Checkpoint checkpoints every shard that has a manager attached and
// returns the per-shard results.  ok reports whether any shard is
// configured for checkpointing at all.
func (ss *ShardedService) Checkpoint() ([]CheckpointResult, bool, error) {
	var results []CheckpointResult
	configured := false
	for k, sh := range ss.shards {
		cm := sh.Checkpointer()
		if cm == nil {
			continue
		}
		configured = true
		res, err := cm.Checkpoint()
		if err != nil {
			return results, true, fmt.Errorf("platform: checkpointing shard %d: %w", k, err)
		}
		results = append(results, res)
	}
	return results, configured, nil
}

// Submit applies one event: a batch of one through SubmitBatch, which
// routes it and compensates a partial multi-shard apply.  Round markers
// and epoch bumps are refused here with their own reasons.
func (ss *ShardedService) Submit(e Event) (Event, error) {
	switch e.Kind {
	case EventRoundClosed:
		return Event{}, fmt.Errorf("platform: round markers are journaled per shard by CloseRound")
	case EventEpochBumped:
		// An epoch bump has no routing key; sharded backends fail over as a
		// directory tree, not over one journal stream, so the control event
		// has nowhere coherent to land.
		return Event{}, fmt.Errorf("platform: epoch bumps are not routable on a sharded backend")
	}
	applied, err := ss.SubmitBatch([]Event{e})
	if err != nil {
		return Event{}, err
	}
	return applied[0], nil
}

// Epoch implements Fenceable: the max over the shard states (a recovered
// directory tree may carry the bump in any shard's journal).
func (ss *ShardedService) Epoch() uint64 {
	var top uint64
	for _, sh := range ss.shards {
		top = max(top, sh.Epoch())
	}
	return top
}

// ObserveEpoch implements Fenceable (see Service.ObserveEpoch).
func (ss *ShardedService) ObserveEpoch(epoch uint64) { ss.fence.observe(epoch) }

// FenceStatus implements Fenceable.
func (ss *ShardedService) FenceStatus() (fenced bool, observed uint64) {
	return ss.fence.status(ss.Epoch())
}

// SubmitBatch applies a mixed batch of ingestion events all-or-nothing
// across the shards; it is the sharded write path, and Submit is a batch
// of one.  Worker events fan out to every shard the worker's specialties
// map to, task events go to exactly one shard.  Planning happens first,
// under the service mutex but against *staged* ID counters and residency
// overlays, so an intra-batch sequence (join then leave, close then
// re-post) routes exactly as one-at-a-time submission would, and any
// validation or routing error rejects the batch before a single shard is
// touched.  Each shard then receives its slice of the batch as one atomic
// apply+append, so a multi-shard apply can only fail on journal I/O; if
// shard k fails, shards 0..k-1 are compensated with their inverse events
// in reverse order, restoring the pre-batch state everywhere.
func (ss *ShardedService) SubmitBatch(events []Event) ([]Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	if err := ss.fence.check(ss.Epoch()); err != nil {
		return nil, err
	}
	if err := rejectControlEvents(events); err != nil {
		return nil, err
	}
	rejected := func(i int, format string, args ...any) ([]Event, error) {
		return nil, fmt.Errorf("platform: event %d (%s) rejected, nothing applied: "+format,
			append([]any{i, events[i].Kind}, args...)...)
	}
	ncat := ss.shards[0].state.NumCategories()
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return rejected(i, "%w", err)
		}
	}

	ss.mu.Lock()
	defer ss.mu.Unlock()

	// Staged view of the routing tables: overlays win over the live maps,
	// and nothing below mutates the live maps until every shard committed.
	type stagedWorker struct {
		targets []int
		live    bool
	}
	type stagedTask struct {
		shard int
		open  bool
	}
	nextWorkerID, nextTaskID := ss.nextWorkerID, ss.nextTaskID
	workerStage := map[int]stagedWorker{}
	taskStage := map[int]stagedTask{}
	profiles := map[int]market.Worker{} // in-batch joins; leaves need them for inverses
	taskShapes := map[int]market.Task{} // in-batch posts, same reason
	lookupWorker := func(id int) ([]int, bool) {
		if st, ok := workerStage[id]; ok {
			return st.targets, st.live
		}
		t, ok := ss.workerHome[id]
		return t, ok
	}
	lookupTask := func(id int) (int, bool) {
		if st, ok := taskStage[id]; ok {
			return st.shard, st.open
		}
		k, ok := ss.taskHome[id]
		return k, ok
	}

	perShard := make([][]Event, len(ss.shards))
	inverse := make([][]Event, len(ss.shards)) // inverse[k][j] undoes perShard[k][j]
	type eventRef struct{ shard, idx int }
	refs := make([]eventRef, len(events))
	place := func(k int, ev, inv Event) int {
		perShard[k] = append(perShard[k], ev)
		inverse[k] = append(inverse[k], inv)
		return len(perShard[k]) - 1
	}

	for i := range events {
		switch events[i].Kind {
		case EventWorkerJoined:
			w := *events[i].Worker
			if err := validateWorkerProfile(&w, ncat); err != nil {
				return rejected(i, "%w", err)
			}
			if w.ID >= nextWorkerID {
				nextWorkerID = w.ID + 1
			} else if w.ID == 0 {
				// nextWorkerID starts at 1, so a fresh (ID-less) event always
				// lands here and global IDs are never 0 — which keeps
				// compensation unambiguous (re-joining ID 0 would be
				// re-assigned a fresh ID).
				w.ID = nextWorkerID
				nextWorkerID++
			}
			if _, live := lookupWorker(w.ID); live {
				return rejected(i, "worker %d already live", w.ID)
			}
			targets := ss.router.WorkerShards(w.Specialties)
			for _, k := range targets {
				idx := place(k, NewWorkerJoined(w), NewWorkerLeft(w.ID))
				if k == targets[0] {
					refs[i] = eventRef{k, idx}
				}
			}
			workerStage[w.ID] = stagedWorker{targets: targets, live: true}
			profiles[w.ID] = w
		case EventWorkerLeft:
			id := *events[i].WorkerID
			targets, live := lookupWorker(id)
			if !live {
				return rejected(i, "worker %d not live", id)
			}
			w, staged := profiles[id]
			if !staged {
				var ok bool
				if w, ok = ss.shards[targets[0]].state.Worker(id); !ok {
					return rejected(i, "worker %d in routing table but not in shard %d", id, targets[0])
				}
			}
			for _, k := range targets {
				idx := place(k, NewWorkerLeft(id), NewWorkerJoined(w))
				if k == targets[0] {
					refs[i] = eventRef{k, idx}
				}
			}
			workerStage[id] = stagedWorker{live: false}
		case EventTaskPosted:
			t := *events[i].Task
			if err := validateTaskShape(&t, ncat); err != nil {
				return rejected(i, "%w", err)
			}
			if t.ID >= nextTaskID {
				nextTaskID = t.ID + 1
			} else if t.ID == 0 {
				t.ID = nextTaskID
				nextTaskID++
			}
			if _, open := lookupTask(t.ID); open {
				return rejected(i, "task %d already open", t.ID)
			}
			k := ss.router.TaskShard(t.Category)
			refs[i] = eventRef{k, place(k, NewTaskPosted(t), NewTaskClosed(t.ID))}
			taskStage[t.ID] = stagedTask{shard: k, open: true}
			taskShapes[t.ID] = t
		case EventTaskClosed:
			id := *events[i].TaskID
			k, open := lookupTask(id)
			if !open {
				return rejected(i, "task %d not open", id)
			}
			t, staged := taskShapes[id]
			if !staged {
				var ok bool
				if t, ok = ss.shards[k].state.Task(id); !ok {
					return rejected(i, "task %d in routing table but not in shard %d", id, k)
				}
			}
			refs[i] = eventRef{k, place(k, NewTaskClosed(id), NewTaskPosted(t))}
			taskStage[id] = stagedTask{open: false}
		default:
			return rejected(i, "unknown event kind %q", events[i].Kind)
		}
	}

	// Apply phase: one atomic batch per shard, ascending.  On failure the
	// already-applied shards are unwound by replaying their inverse lists
	// backwards — undo-last-first restores the exact pre-batch state even
	// when the batch touched an entity more than once.
	applied := make([][]Event, len(ss.shards))
	for k := range ss.shards {
		if len(perShard[k]) == 0 {
			continue
		}
		evs, err := ss.shards[k].SubmitBatch(perShard[k])
		if err != nil {
			for kk := k - 1; kk >= 0; kk-- {
				for j := len(inverse[kk]) - 1; j >= 0; j-- {
					if _, cerr := ss.shards[kk].Submit(inverse[kk][j]); cerr != nil {
						return nil, fmt.Errorf("platform: apply failed on shard %d (%v) and compensation failed on shard %d: %w — shards inconsistent",
							k, err, kk, cerr)
					}
				}
			}
			return nil, fmt.Errorf("platform: apply failed on shard %d, every shard rolled back: %w", k, err)
		}
		applied[k] = evs
	}

	// Commit the staged routing state only now that every shard holds the
	// batch durably.
	ss.nextWorkerID, ss.nextTaskID = nextWorkerID, nextTaskID
	for id, st := range workerStage {
		if st.live {
			ss.workerHome[id] = st.targets
		} else {
			delete(ss.workerHome, id)
		}
	}
	for id, st := range taskStage {
		if st.open {
			ss.taskHome[id] = st.shard
		} else {
			delete(ss.taskHome, id)
		}
	}
	out := make([]Event, len(events))
	for i, r := range refs {
		out[i] = applied[r.shard][r.idx]
	}
	return out, nil
}

// CloseRound is CloseRoundCtx with a background context.
func (ss *ShardedService) CloseRound() (*RoundResult, error) {
	return ss.CloseRoundCtx(context.Background())
}

// CloseRoundCtx closes one assignment round across every shard: fan out
// each shard's solve phase over a bounded worker pool, reconcile spanning
// workers sequentially, then run each shard's commit phase (filter against
// the live state, journal the round marker, notify the checkpoint manager)
// and aggregate.  Cancellation before commit aborts the whole round without
// journaling any marker; per-shard solve failures do not — the shard
// contributes nothing, its error is recorded, and the round closes
// everywhere (mirroring Service's solve-error policy).
//
// If a marker commit fails mid-way the shards before it keep their marker:
// round counters can transiently diverge by one, which is why Rounds()
// reports the minimum.  Entity state is untouched by markers, so a retried
// CloseRound re-serves everyone.
func (ss *ShardedService) CloseRoundCtx(ctx context.Context) (*RoundResult, error) {
	if err := ss.fence.check(ss.Epoch()); err != nil {
		return nil, err
	}
	ss.roundMu.Lock()
	defer ss.roundMu.Unlock()

	// Phase 1: snapshot every shard under the service mutex, so the round
	// sees one consistent cut of the market — never a fan-out half applied
	// or half compensated (a rolled-back join's ID is handed out again, and
	// a snapshot holding the transient copy would pair the new worker
	// through the old one's edges) — then solve per shard on the worker
	// pool.  Each shard touches only its own state, RNG and arena, so
	// shards never contend.
	outs := make([]*shardSolve, len(ss.shards))
	ss.mu.Lock()
	for k, sh := range ss.shards {
		outs[k] = sh.snapshot()
	}
	ss.mu.Unlock()
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(ss.shards))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				ss.shards[k].solve(ctx, outs[k])
			}
		}()
	}
	for k := range ss.shards {
		idx <- k
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The caller is gone; no marker for a round that served nobody.
		return nil, err
	}

	// Phase 2: sequential cross-shard reconciliation of spanning workers.
	dropped, refilled := reconcileShards(outs)

	// Phase 3: per-shard commit, then aggregate.
	res := &RoundResult{
		ReconcileDropped:  dropped,
		ReconcileRefilled: refilled,
		Shards:            make([]ShardRound, len(ss.shards)),
	}
	var solveErrs []string
	for k, out := range outs {
		if out.solveErr != nil {
			solveErrs = append(solveErrs, fmt.Sprintf("shard %d: %v", k, out.solveErr))
		}
		if err := ss.shards[k].commit(out); err != nil {
			return nil, fmt.Errorf("platform: committing round marker on shard %d: %w", k, err)
		}
		out.info.Shard = k
		res.StalePairs += out.info.StalePairs
		res.Pairs = append(res.Pairs, out.pairs...)
		res.Shards[k] = out.info
	}
	if len(solveErrs) > 0 {
		res.SolveError = fmt.Sprintf("%d shard(s) failed: %s", len(solveErrs), strings.Join(solveErrs, "; "))
	}
	res.Round = ss.Rounds()
	res.Metrics = ss.aggregateMetrics(outs, res.Pairs)
	return res, nil
}

// aggregateMetrics recomputes round metrics from the merged committed
// pairs, mirroring core.Problem.Evaluate's formulas over the union market:
// slot coverage over the sum of open slots, Jain fairness and mean benefit
// over every live worker (spanning workers counted once, idle ones as
// zero).
func (ss *ShardedService) aggregateMetrics(outs []*shardSolve, pairs []AssignmentPair) core.Metrics {
	m := core.Metrics{
		Algorithm: fmt.Sprintf("sharded/%d(%s)", len(ss.shards), ss.shards[0].solver.Name()),
		Pairs:     len(pairs),
	}
	perWorker := map[int]float64{}
	totalWorkers := 0
	totalSlots := 0
	for _, out := range outs {
		if out.in == nil {
			continue
		}
		totalSlots += out.in.TotalSlots()
		for _, wid := range out.workerIDs {
			if _, dup := perWorker[wid]; !dup {
				perWorker[wid] = 0
				totalWorkers++
			}
		}
	}
	for _, pr := range pairs {
		m.TotalMutual += pr.Mutual
		m.TotalQuality += pr.Quality
		m.TotalWorker += pr.Utility
		perWorker[pr.WorkerID] += pr.Utility
	}
	if totalSlots > 0 {
		m.SlotCoverage = float64(len(pairs)) / float64(totalSlots)
	}
	benefits := make([]float64, 0, totalWorkers)
	for _, b := range perWorker {
		benefits = append(benefits, b)
		if b > 0 {
			m.ActiveWorkers++
		}
	}
	m.WorkerJain = stats.JainIndex(benefits)
	m.MeanWorkerBenefit = stats.Mean(benefits)
	return m
}
