package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/market"
	"repro/internal/platform"
)

// op is one single-event write of a churn cycle.
type op int

const (
	joinWorker op = iota
	leaveWorker
	postTask
	closeTask
)

var churn4 = []op{joinWorker, leaveWorker, postTask, closeTask}

// workload is one traffic mix.  Each closed-loop client repeats one
// cycle: its single-event writes in order, then one POST /v1/batch that
// replaces batchW workers and batchT tasks (when either is set), then one
// POST /v1/rounds (when round is set).  A run does a fixed amount of work
// in episodes, each on a fresh market: set-up, warmup untimed cycles, then
// its share of the timed cycles fixed by --seconds.
//
// Round workloads have exactly one client, so the order of every write
// and round, and with it each round's assignment, depends on the seed
// alone.
type workload struct {
	name           string
	workers, tasks int // initial market, loaded through /v1/batch
	solver         string
	clients        int
	singles        []op
	batchW, batchT int
	round          bool
	episodes       int     // markets per run; setup_s is the median of their set-ups
	warmup         int     // untimed cycles per client and episode
	perSecond      float64 // timed cycles per client per second of --seconds
}

var workloads = []*workload{
	{
		name:    "ingest",
		workers: 256, tasks: 256, solver: "greedy", clients: 2,
		singles: []op{joinWorker, leaveWorker, postTask, closeTask, joinWorker, leaveWorker, postTask, closeTask, joinWorker, leaveWorker},
		batchW:  25, batchT: 25,
		episodes: 5, warmup: 10, perSecond: 60,
	},
	{
		name:    "rounds-greedy",
		workers: 1600, tasks: 1200, solver: "greedy", clients: 1,
		batchW: 16, batchT: 12, round: true,
		episodes: 5, warmup: 3, perSecond: 10,
	},
	{
		name:    "rounds-incremental",
		workers: 800, tasks: 600, solver: "incremental", clients: 1,
		singles: churn4, round: true,
		episodes: 5, warmup: 5, perSecond: 10,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// timedCycles is the fixed number of timed cycles per client and episode.
func (w *workload) timedCycles(seconds int) int {
	return max(1, int(math.Round(float64(seconds)*w.perSecond/float64(w.episodes))))
}

// joins returns how many workers and tasks one cycle adds.
func (w *workload) joins() (workers, tasks int) {
	workers, tasks = w.batchW, w.batchT
	for _, o := range w.singles {
		switch o {
		case joinWorker:
			workers++
		case postTask:
			tasks++
		}
	}
	return workers, tasks
}

// primaryKind and writeKind name the requests behind the primary_* and
// write_* metrics: the workload's headline request, and its churn writes.
func (w *workload) primaryKind() string {
	if w.round {
		return "round"
	}
	return "batch"
}

func (w *workload) writeKind() string {
	if len(w.singles) > 0 {
		return "submit"
	}
	return "batch"
}

// generatePool draws, from the seed alone, the initial market followed by
// every worker and task the run's cycles will add.
func (w *workload) generatePool(seed uint64, cycles int) (*market.Instance, error) {
	jw, jt := w.joins()
	n := w.clients * (w.warmup + cycles)
	return market.Generate(market.FreelanceTraceConfig(w.workers+n*jw, w.tasks+n*jt), seed)
}

// model is one client's view of the entities it owns.  Initial entity i
// belongs to client i mod clients, and so does every stride-th pool entry
// after the initial market.  Leaves and closes name the client's oldest
// live IDs, so the market keeps its size.
type model struct {
	pool         *market.Instance
	stride       int
	nextW, nextT int
	workers      []int // live worker IDs, oldest first
	tasks        []int
	capacity     map[int]int // live worker ID → capacity
	replication  map[int]int // live task ID → replication
}

func newModel(pool *market.Instance, w *workload, client int) *model {
	return &model{
		pool:        pool,
		stride:      w.clients,
		nextW:       w.workers + client,
		nextT:       w.tasks + client,
		capacity:    map[int]int{},
		replication: map[int]int{},
	}
}

func (m *model) worker() market.Worker {
	wk := m.pool.Workers[m.nextW]
	m.nextW += m.stride
	wk.ID = 0 // platform-assigned
	return wk
}

func (m *model) task() market.Task {
	t := m.pool.Tasks[m.nextT]
	m.nextT += m.stride
	t.ID = 0
	return t
}

func (m *model) addWorker(id, capacity int) {
	m.workers = append(m.workers, id)
	m.capacity[id] = capacity
}

func (m *model) addTask(id, replication int) {
	m.tasks = append(m.tasks, id)
	m.replication[id] = replication
}

func (m *model) removeWorker(id int) error {
	if len(m.workers) == 0 || m.workers[0] != id {
		return fmt.Errorf("worker %d removed out of order", id)
	}
	m.workers = m.workers[1:]
	delete(m.capacity, id)
	return nil
}

func (m *model) removeTask(id int) error {
	if len(m.tasks) == 0 || m.tasks[0] != id {
		return fmt.Errorf("task %d removed out of order", id)
	}
	m.tasks = m.tasks[1:]
	delete(m.replication, id)
	return nil
}

// churnBatch builds one cycle's batch: batchW workers join and as many of
// the oldest leave, then the same for batchT tasks.
func (m *model) churnBatch(w *workload) []platform.Event {
	events := make([]platform.Event, 0, 2*(w.batchW+w.batchT))
	for k := 0; k < w.batchW; k++ {
		events = append(events, platform.NewWorkerJoined(m.worker()), platform.NewWorkerLeft(m.workers[k]))
	}
	for k := 0; k < w.batchT; k++ {
		events = append(events, platform.NewTaskPosted(m.task()), platform.NewTaskClosed(m.tasks[k]))
	}
	return events
}

// absorb applies an acknowledged batch to the model.
func (m *model) absorb(events []platform.Event, applied []platform.BatchItem) error {
	if len(applied) != len(events) {
		return fmt.Errorf("batch of %d events acknowledged %d", len(events), len(applied))
	}
	for i, e := range events {
		var err error
		switch e.Kind {
		case platform.EventWorkerJoined:
			m.addWorker(applied[i].ID, e.Worker.Capacity)
		case platform.EventWorkerLeft:
			err = m.removeWorker(*e.WorkerID)
		case platform.EventTaskPosted:
			m.addTask(applied[i].ID, e.Task.Replication)
		case platform.EventTaskClosed:
			err = m.removeTask(*e.TaskID)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRound checks one round's assignment against the model: it names
// only live IDs, no pair twice, and respects worker capacity and task
// replication.
func (m *model) checkRound(res *platform.RoundResult) error {
	if res.SolveError != "" {
		return fmt.Errorf("round %d: solve failed: %s", res.Round, res.SolveError)
	}
	if res.StalePairs != 0 || len(res.Pairs) != res.Metrics.Pairs {
		return fmt.Errorf("round %d: %d pairs returned, %d solved, %d stale", res.Round, len(res.Pairs), res.Metrics.Pairs, res.StalePairs)
	}
	perWorker, perTask := map[int]int{}, map[int]int{}
	seen := map[[2]int]bool{}
	for _, p := range res.Pairs {
		capacity, ok := m.capacity[p.WorkerID]
		if !ok {
			return fmt.Errorf("round %d: pair names worker %d, which is not live", res.Round, p.WorkerID)
		}
		replication, ok := m.replication[p.TaskID]
		if !ok {
			return fmt.Errorf("round %d: pair names task %d, which is not open", res.Round, p.TaskID)
		}
		key := [2]int{p.WorkerID, p.TaskID}
		if seen[key] {
			return fmt.Errorf("round %d: pair (%d, %d) assigned twice", res.Round, p.WorkerID, p.TaskID)
		}
		seen[key] = true
		if perWorker[p.WorkerID]++; perWorker[p.WorkerID] > capacity {
			return fmt.Errorf("round %d: worker %d over its capacity %d", res.Round, p.WorkerID, capacity)
		}
		if perTask[p.TaskID]++; perTask[p.TaskID] > replication {
			return fmt.Errorf("round %d: task %d over its replication %d", res.Round, p.TaskID, replication)
		}
	}
	return nil
}
