package platform

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/market"
)

// State is the live market: the mutable set of online workers and open
// tasks, maintained by applying events.  It is safe for concurrent use —
// the HTTP server mutates it from request goroutines while the assignment
// service snapshots it.
//
// Identity model: the platform assigns stable uint-ish IDs (dense over the
// lifetime of the state, never reused).  Snapshot() compacts the live
// entities into a market.Instance with dense instance-local indices and
// returns the mapping back to platform IDs, so assignment results can be
// reported against stable identities.
type State struct {
	mu sync.RWMutex

	numCategories int
	nextSeq       uint64
	nextWorkerID  int
	nextTaskID    int
	rounds        int
	epoch         uint64

	workers map[int]market.Worker // live workers by platform ID
	tasks   map[int]market.Task   // open tasks by platform ID

	// prevWorkerIDs/prevTaskIDs are the (sorted) platform IDs of the last
	// SnapshotDelta call — the baseline the next round's churn delta is
	// computed against.  Tracked here, not in the service, because the state
	// is what actually observes the churn; nil until a first SnapshotDelta.
	prevWorkerIDs, prevTaskIDs []int
}

// NewState creates an empty market over the given category universe.
func NewState(numCategories int) (*State, error) {
	if numCategories <= 0 {
		return nil, fmt.Errorf("platform: numCategories must be positive, got %d", numCategories)
	}
	return &State{
		numCategories: numCategories,
		workers:       map[int]market.Worker{},
		tasks:         map[int]market.Task{},
	}, nil
}

// NumCategories returns the category universe size.
func (s *State) NumCategories() int { return s.numCategories }

// Counts returns the number of live workers and open tasks.
func (s *State) Counts() (workers, tasks int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.workers), len(s.tasks)
}

// Rounds returns how many assignment rounds have been closed.
func (s *State) Rounds() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rounds
}

// Epoch returns the highest replication epoch this state has applied (0 on
// a market that has never seen a promotion).
func (s *State) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// NextIDs returns the next worker and task IDs the state would assign.  A
// sharded service seeds its global ID counters with the max over its
// recovered shards.
func (s *State) NextIDs() (nextWorkerID, nextTaskID int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextWorkerID, s.nextTaskID
}

// Worker returns a deep copy of a live worker by platform ID.
func (s *State) Worker(id int) (market.Worker, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w, ok := s.workers[id]
	if !ok {
		return market.Worker{}, false
	}
	w.Accuracy = append([]float64(nil), w.Accuracy...)
	w.Interest = append([]float64(nil), w.Interest...)
	w.Specialties = append([]int(nil), w.Specialties...)
	return w, true
}

// Task returns a copy of an open task by platform ID.
func (s *State) Task(id int) (market.Task, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tasks[id]
	return t, ok
}

// Apply validates and applies one event, assigning it the next sequence
// number.  It returns the applied event (with Seq and any platform-assigned
// IDs filled in) so callers can append it to a log.
//
// Apply is the single mutation entry point: the HTTP API, the log replayer
// and tests all converge here, which is what makes replay deterministic.
func (s *State) Apply(e Event) (Event, error) {
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	applied, _, err := s.applyLocked(e)
	return applied, err
}

// ApplyBatchJournaled applies a batch of events and journals them through
// one call.  It is the only place the state mutex is held across apply and
// append, and every journaled write — a single Submit is a batch of one —
// goes through it.  Holding the mutex across the whole batch gives the
// events a contiguous sequence range, so journal records land in strictly
// increasing sequence order (the invariant ReadLog enforces on recovery)
// as one contiguous run: one write, and under FsyncAlways one fsync.  Any
// failure — validation, apply, or journal — unwinds every already-applied
// event of the batch in reverse order: afterwards the batch exists neither
// in memory nor on disk, so memory and journal never drift apart.  A nil
// journal applies without journaling.
func (s *State) ApplyBatchJournaled(events []Event, journal func([]Event) error) ([]Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return nil, fmt.Errorf("platform: event %d (%s) rejected, nothing applied: %w", i, events[i].Kind, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	applied := make([]Event, 0, len(events))
	undos := make([]func(), 0, len(events))
	unwind := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
	}
	for i := range events {
		a, undo, err := s.applyLocked(events[i])
		if err != nil {
			unwind()
			return nil, fmt.Errorf("platform: event %d (%s) rejected, nothing applied: %w", i, events[i].Kind, err)
		}
		applied = append(applied, a)
		undos = append(undos, undo)
	}
	if journal != nil {
		if err := journal(applied); err != nil {
			unwind()
			return nil, fmt.Errorf("platform: %d event(s) rolled back, journal append failed: %w", len(applied), err)
		}
	}
	return applied, nil
}

// applyLocked performs the mutation under an already-held write lock and
// returns, alongside the applied event, an undo closure that restores the
// exact pre-apply state — entities and all ID/sequence counters.  The
// closure is only valid until the lock is released and must be called (or
// discarded) before then.
func (s *State) applyLocked(e Event) (Event, func(), error) {
	// All counter state is captured up front: every branch below advances
	// nextSeq, and the joined/posted branches may advance the ID counters.
	prev := struct {
		seq      uint64
		workerID int
		taskID   int
		rounds   int
		epoch    uint64
	}{s.nextSeq, s.nextWorkerID, s.nextTaskID, s.rounds, s.epoch}
	restore := func() {
		s.nextSeq, s.nextWorkerID, s.nextTaskID, s.rounds, s.epoch =
			prev.seq, prev.workerID, prev.taskID, prev.rounds, prev.epoch
	}
	undo := restore

	switch e.Kind {
	case EventWorkerJoined:
		w := *e.Worker
		if err := validateWorkerProfile(&w, s.numCategories); err != nil {
			return Event{}, nil, err
		}
		// During replay, preserve the recorded ID and advance the counter
		// past it; for fresh events (ID 0 is ambiguous, so fresh events must
		// leave ID at 0 and rely on assignment) allocate the next ID.
		if w.ID >= s.nextWorkerID {
			s.nextWorkerID = w.ID + 1
		} else if w.ID == 0 && s.nextWorkerID > 0 {
			w.ID = s.nextWorkerID
			s.nextWorkerID++
		}
		if _, dup := s.workers[w.ID]; dup {
			restore()
			return Event{}, nil, fmt.Errorf("platform: worker %d already live", w.ID)
		}
		s.workers[w.ID] = w
		e.Worker = &w
		undo = func() { delete(s.workers, w.ID); restore() }
	case EventWorkerLeft:
		w, ok := s.workers[*e.WorkerID]
		if !ok {
			return Event{}, nil, fmt.Errorf("platform: worker %d not live", *e.WorkerID)
		}
		delete(s.workers, *e.WorkerID)
		undo = func() { s.workers[w.ID] = w; restore() }
	case EventTaskPosted:
		t := *e.Task
		if err := validateTaskShape(&t, s.numCategories); err != nil {
			return Event{}, nil, err
		}
		if t.ID >= s.nextTaskID {
			s.nextTaskID = t.ID + 1
		} else if t.ID == 0 && s.nextTaskID > 0 {
			t.ID = s.nextTaskID
			s.nextTaskID++
		}
		if _, dup := s.tasks[t.ID]; dup {
			restore()
			return Event{}, nil, fmt.Errorf("platform: task %d already open", t.ID)
		}
		s.tasks[t.ID] = t
		e.Task = &t
		undo = func() { delete(s.tasks, t.ID); restore() }
	case EventTaskClosed:
		t, ok := s.tasks[*e.TaskID]
		if !ok {
			return Event{}, nil, fmt.Errorf("platform: task %d not open", *e.TaskID)
		}
		delete(s.tasks, *e.TaskID)
		undo = func() { s.tasks[t.ID] = t; restore() }
	case EventRoundClosed:
		s.rounds++
	case EventEpochBumped:
		if *e.Epoch <= s.epoch {
			return Event{}, nil, fmt.Errorf("platform: epoch %d not above current %d", *e.Epoch, s.epoch)
		}
		s.epoch = *e.Epoch
	}

	s.nextSeq++
	e.Seq = s.nextSeq
	return e, undo, nil
}

// validateWorkerProfile checks the per-worker invariants market.Validate
// enforces, independent of instance position.
func validateWorkerProfile(w *market.Worker, numCategories int) error {
	if w.Capacity < 0 {
		return fmt.Errorf("platform: worker capacity %d negative", w.Capacity)
	}
	if len(w.Accuracy) != numCategories || len(w.Interest) != numCategories {
		return fmt.Errorf("platform: worker profile length mismatch (want %d categories)", numCategories)
	}
	for c, a := range w.Accuracy {
		if a < 0.5 || a >= 1 {
			return fmt.Errorf("platform: worker accuracy[%d]=%v outside [0.5,1)", c, a)
		}
	}
	for c, iv := range w.Interest {
		if iv < 0 || iv > 1 {
			return fmt.Errorf("platform: worker interest[%d]=%v outside [0,1]", c, iv)
		}
	}
	if len(w.Specialties) == 0 {
		return fmt.Errorf("platform: worker has no specialties")
	}
	seen := map[int]bool{}
	for _, sp := range w.Specialties {
		if sp < 0 || sp >= numCategories {
			return fmt.Errorf("platform: specialty %d out of range", sp)
		}
		if seen[sp] {
			return fmt.Errorf("platform: duplicate specialty %d", sp)
		}
		seen[sp] = true
	}
	if w.ReservationWage < 0 {
		return fmt.Errorf("platform: negative reservation wage")
	}
	return nil
}

// validateTaskShape checks per-task invariants.
func validateTaskShape(t *market.Task, numCategories int) error {
	if t.Category < 0 || t.Category >= numCategories {
		return fmt.Errorf("platform: task category %d out of range", t.Category)
	}
	if t.Replication <= 0 {
		return fmt.Errorf("platform: task replication %d not positive", t.Replication)
	}
	if t.Payment < 0 {
		return fmt.Errorf("platform: negative payment")
	}
	if t.Difficulty < 0 || t.Difficulty > 1 {
		return fmt.Errorf("platform: difficulty %v outside [0,1]", t.Difficulty)
	}
	return nil
}

// Snapshot compacts the live state into a valid market.Instance with dense
// indices.  The returned slices map instance index → platform ID for both
// sides.  The instance copies all data, so later events do not race with
// solvers working on the snapshot.
func (s *State) Snapshot() (*market.Instance, []int, []int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapshotLocked()
}

// SnapshotDelta is Snapshot plus per-round churn tracking: it also returns
// a core.Delta describing how this snapshot differs from the previous
// SnapshotDelta call — which workers/tasks survived (and at which previous
// instance index), departed, or arrived.  The first call, and any call
// after ResetDeltaBaseline, returns a nil delta (no baseline yet).
//
// The delta is advisory in the strict sense: a delta-aware solver
// re-validates it against its own carried state and re-derives weight
// changes itself, so a baseline that went stale (a failed round, a
// recovery) costs a full solve, never a wrong assignment.
func (s *State) SnapshotDelta() (*market.Instance, []int, []int, *core.Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	in, workerIDs, taskIDs := s.snapshotLocked()
	var d *core.Delta
	if s.prevWorkerIDs != nil || s.prevTaskIDs != nil {
		d = &core.Delta{}
		d.PrevWorker, d.AddedWorkers, d.RemovedWorkers = diffSortedIDs(s.prevWorkerIDs, workerIDs)
		d.PrevTask, d.AddedTasks, d.RemovedTasks = diffSortedIDs(s.prevTaskIDs, taskIDs)
	}
	s.prevWorkerIDs = workerIDs
	s.prevTaskIDs = taskIDs
	return in, workerIDs, taskIDs, d
}

// ResetDeltaBaseline forgets the churn baseline, so the next SnapshotDelta
// reports no delta (forcing a full solve downstream).  Recovery paths call
// this for hygiene after replaying a journal.
func (s *State) ResetDeltaBaseline() {
	s.mu.Lock()
	s.prevWorkerIDs, s.prevTaskIDs = nil, nil
	s.mu.Unlock()
}

// diffSortedIDs two-pointer-merges the previous and current sorted platform
// ID lists into the Delta's positional encoding: prev[i] is the previous
// index of current entity i (or -1 if it arrived), added lists current
// indices of arrivals, removed lists previous indices of departures.
func diffSortedIDs(prevIDs, curIDs []int) (prev, added, removed []int32) {
	prev = make([]int32, len(curIDs))
	i, j := 0, 0
	for j < len(curIDs) {
		switch {
		case i < len(prevIDs) && prevIDs[i] == curIDs[j]:
			prev[j] = int32(i)
			i++
			j++
		case i < len(prevIDs) && prevIDs[i] < curIDs[j]:
			removed = append(removed, int32(i))
			i++
		default:
			prev[j] = -1
			added = append(added, int32(j))
			j++
		}
	}
	for ; i < len(prevIDs); i++ {
		removed = append(removed, int32(i))
	}
	return prev, added, removed
}

// snapshotLocked is Snapshot's body; the caller holds at least a read lock.
func (s *State) snapshotLocked() (*market.Instance, []int, []int) {
	workerIDs := make([]int, 0, len(s.workers))
	for id := range s.workers {
		workerIDs = append(workerIDs, id)
	}
	sort.Ints(workerIDs)
	taskIDs := make([]int, 0, len(s.tasks))
	for id := range s.tasks {
		taskIDs = append(taskIDs, id)
	}
	sort.Ints(taskIDs)

	in := &market.Instance{
		Name:          "platform",
		NumCategories: s.numCategories,
		Workers:       make([]market.Worker, len(workerIDs)),
		Tasks:         make([]market.Task, len(taskIDs)),
	}
	for i, id := range workerIDs {
		w := s.workers[id]
		// Deep-copy the profile slices: the instance must be immune to
		// later state mutation.
		w.Accuracy = append([]float64(nil), w.Accuracy...)
		w.Interest = append([]float64(nil), w.Interest...)
		w.Specialties = append([]int(nil), w.Specialties...)
		w.ID = i
		in.Workers[i] = w
	}
	for j, id := range taskIDs {
		t := s.tasks[id]
		t.ID = j
		in.Tasks[j] = t
		if t.Payment > in.MaxPayment {
			in.MaxPayment = t.Payment
		}
	}
	return in, workerIDs, taskIDs
}

// filterLivePairs returns the subset of pairs whose worker is still live
// and whose task is still open, plus the number dropped.  One read lock
// covers the whole validation, so the commit decision is made against a
// single consistent view of the state.  The input slice is filtered in
// place (the caller owns it).
func (s *State) filterLivePairs(pairs []AssignmentPair) ([]AssignmentPair, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := pairs[:0]
	for _, pr := range pairs {
		if _, ok := s.workers[pr.WorkerID]; !ok {
			continue
		}
		if _, ok := s.tasks[pr.TaskID]; !ok {
			continue
		}
		out = append(out, pr)
	}
	return out, len(pairs) - len(out)
}

// Replay applies a sequence of recorded events to a fresh state.  Events
// must be in log order; the first failure aborts with context.
func Replay(numCategories int, events []Event) (*State, error) {
	s, err := NewState(numCategories)
	if err != nil {
		return nil, err
	}
	for i, e := range events {
		if _, err := s.Apply(e); err != nil {
			return nil, fmt.Errorf("platform: replay event %d (seq %d): %w", i, e.Seq, err)
		}
	}
	return s, nil
}
