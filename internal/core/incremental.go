package core

import (
	"fmt"

	"repro/internal/benefit"
	"repro/internal/market"
)

// Incremental maintains a mutual-benefit assignment under a *changing*
// market — workers join and leave, tasks are posted — repairing
// locally instead of recomputing from scratch.  This is the data-structure
// answer to the online problem: where the online solvers commit
// irrevocably, Incremental keeps the standing assignment greedy-maximal at
// every step (no eligible pair with spare capacity on both sides is ever
// left unassigned), repairing only the neighbourhood an event touched.
//
// Payment normalisation note: worker utility divides payment surplus by a
// scale that must stay constant while the market mutates (otherwise every
// cached benefit would shift when an expensive task arrives), so
// NewIncremental pins it as payScale; payments above it simply saturate
// the utility at 1.
type Incremental struct {
	params benefit.Params
	model  *benefit.Model
	inst   *market.Instance // evolving backing store for the model

	activeW []bool
	usedW   []int
	usedT   []int

	workersByCat [][]int // worker ids per specialty category
	tasksByCat   [][]int // task ids per category

	assigned map[int]map[int]float64 // worker → task → mutual benefit
	value    float64
}

// NewIncremental creates an empty dynamic market.  payScale pins the
// payment normalisation (a typical choice is the platform's maximum
// expected payment); it must be positive.
func NewIncremental(numCategories int, payScale float64, params benefit.Params) (*Incremental, error) {
	if numCategories <= 0 {
		return nil, fmt.Errorf("core: numCategories must be positive")
	}
	if payScale <= 0 {
		return nil, fmt.Errorf("core: payScale must be positive")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	inst := &market.Instance{
		Name:          "incremental",
		NumCategories: numCategories,
		MaxPayment:    payScale,
	}
	model, err := benefit.NewModel(inst, params)
	if err != nil {
		return nil, err
	}
	return &Incremental{
		params:       params,
		model:        model,
		inst:         inst,
		workersByCat: make([][]int, numCategories),
		tasksByCat:   make([][]int, numCategories),
		assigned:     map[int]map[int]float64{},
	}, nil
}

// Value returns the current total mutual benefit of the assignment.
func (inc *Incremental) Value() float64 { return inc.value }

// Pairs returns the standing assignment as (worker id, task id) pairs in
// unspecified order.
func (inc *Incremental) Pairs() [][2]int {
	var out [][2]int
	for w, ts := range inc.assigned {
		for t := range ts {
			out = append(out, [2]int{w, t})
		}
	}
	return out
}

// Counts returns the number of active workers and of posted tasks.
func (inc *Incremental) Counts() (workers, tasks int) {
	for _, a := range inc.activeW {
		if a {
			workers++
		}
	}
	return workers, len(inc.inst.Tasks)
}

// AddWorker activates a worker and immediately gives it its best feasible
// edges.  The worker's ID field is ignored; the returned id is permanent.
func (inc *Incremental) AddWorker(w market.Worker) (int, error) {
	if w.Capacity < 0 {
		return 0, fmt.Errorf("core: negative capacity")
	}
	if len(w.Accuracy) != inc.inst.NumCategories || len(w.Interest) != inc.inst.NumCategories {
		return 0, fmt.Errorf("core: worker profile length mismatch")
	}
	if len(w.Specialties) == 0 {
		return 0, fmt.Errorf("core: worker without specialties")
	}
	for _, c := range w.Specialties {
		if c < 0 || c >= inc.inst.NumCategories {
			return 0, fmt.Errorf("core: specialty %d out of range", c)
		}
	}
	id := len(inc.inst.Workers)
	w.ID = id
	inc.inst.Workers = append(inc.inst.Workers, w)
	inc.activeW = append(inc.activeW, true)
	inc.usedW = append(inc.usedW, 0)
	for _, c := range w.Specialties {
		inc.workersByCat[c] = append(inc.workersByCat[c], id)
	}
	inc.fillWorker(id)
	return id, nil
}

// RemoveWorker deactivates a worker, releases its assignments and refills
// the task slots it freed.
func (inc *Incremental) RemoveWorker(id int) error {
	if id < 0 || id >= len(inc.activeW) || !inc.activeW[id] {
		return fmt.Errorf("core: worker %d not active", id)
	}
	inc.activeW[id] = false
	var freedTasks []int
	for t, mu := range inc.assigned[id] {
		inc.value -= mu
		inc.usedT[t]--
		inc.usedW[id]--
		freedTasks = append(freedTasks, t)
	}
	delete(inc.assigned, id)
	for _, t := range freedTasks {
		inc.fillTask(t)
	}
	return nil
}

// AddTask activates a task and immediately fills its replication slots with
// the best available workers.
func (inc *Incremental) AddTask(t market.Task) (int, error) {
	if t.Category < 0 || t.Category >= inc.inst.NumCategories {
		return 0, fmt.Errorf("core: task category out of range")
	}
	if t.Replication <= 0 {
		return 0, fmt.Errorf("core: non-positive replication")
	}
	if t.Payment < 0 || t.Difficulty < 0 || t.Difficulty > 1 {
		return 0, fmt.Errorf("core: bad payment/difficulty")
	}
	id := len(inc.inst.Tasks)
	t.ID = id
	inc.inst.Tasks = append(inc.inst.Tasks, t)
	inc.usedT = append(inc.usedT, 0)
	inc.tasksByCat[t.Category] = append(inc.tasksByCat[t.Category], id)
	inc.fillTask(id)
	return id, nil
}

// mutual computes the pair benefit through the shared model.
func (inc *Incremental) mutual(w, t int) float64 {
	return inc.model.Mutual(&inc.inst.Workers[w], &inc.inst.Tasks[t])
}

// assign records the pair.
func (inc *Incremental) assign(w, t int, mu float64) {
	ts := inc.assigned[w]
	if ts == nil {
		ts = map[int]float64{}
		inc.assigned[w] = ts
	}
	ts[t] = mu
	inc.usedW[w]++
	inc.usedT[t]++
	inc.value += mu
}

// fillWorker greedily adds the best feasible edges of worker w until its
// capacity is exhausted or no eligible task has a free slot.
func (inc *Incremental) fillWorker(w int) {
	if !inc.activeW[w] {
		return
	}
	wk := &inc.inst.Workers[w]
	for inc.usedW[w] < wk.Capacity {
		bestT, bestMu := -1, 0.0
		for _, c := range wk.Specialties {
			for _, t := range inc.tasksByCat[c] {
				if inc.usedT[t] >= inc.inst.Tasks[t].Replication {
					continue
				}
				if _, dup := inc.assigned[w][t]; dup {
					continue
				}
				if mu := inc.mutual(w, t); bestT == -1 || mu > bestMu {
					bestT, bestMu = t, mu
				}
			}
		}
		if bestT == -1 {
			return
		}
		inc.assign(w, bestT, bestMu)
	}
}

// fillTask greedily fills task t's remaining slots with the best available
// workers.
func (inc *Incremental) fillTask(t int) {
	task := &inc.inst.Tasks[t]
	for inc.usedT[t] < task.Replication {
		bestW, bestMu := -1, 0.0
		for _, w := range inc.workersByCat[task.Category] {
			if !inc.activeW[w] || inc.usedW[w] >= inc.inst.Workers[w].Capacity {
				continue
			}
			if _, dup := inc.assigned[w][t]; dup {
				continue
			}
			if mu := inc.mutual(w, t); bestW == -1 || mu > bestMu {
				bestW, bestMu = w, mu
			}
		}
		if bestW == -1 {
			return
		}
		inc.assign(bestW, t, bestMu)
	}
}

// CheckInvariants verifies feasibility (capacities, eligibility, active
// endpoints) and greedy-maximality (no assignable pair left unassigned).
// Tests call it after every mutation; it is O(V·E) and not meant for hot
// paths.
func (inc *Incremental) CheckInvariants() error {
	usedW := make([]int, len(inc.activeW))
	usedT := make([]int, len(inc.inst.Tasks))
	total := 0.0
	for w, ts := range inc.assigned {
		for t, mu := range ts {
			if !inc.activeW[w] {
				return fmt.Errorf("core: inactive worker %d assigned", w)
			}
			if !inc.inst.Workers[w].AcceptsCategory(inc.inst.Tasks[t].Category) {
				return fmt.Errorf("core: ineligible pair (%d,%d)", w, t)
			}
			usedW[w]++
			usedT[t]++
			total += mu
		}
	}
	for w := range usedW {
		if usedW[w] != inc.usedW[w] {
			return fmt.Errorf("core: worker %d used count drift", w)
		}
		if inc.activeW[w] && usedW[w] > inc.inst.Workers[w].Capacity {
			return fmt.Errorf("core: worker %d over capacity", w)
		}
	}
	for t := range usedT {
		if usedT[t] != inc.usedT[t] {
			return fmt.Errorf("core: task %d used count drift", t)
		}
		if usedT[t] > inc.inst.Tasks[t].Replication {
			return fmt.Errorf("core: task %d over replication", t)
		}
	}
	if diff := total - inc.value; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("core: value drift: cached %v vs recomputed %v", inc.value, total)
	}
	// Maximality.
	for w := range inc.activeW {
		if !inc.activeW[w] || inc.usedW[w] >= inc.inst.Workers[w].Capacity {
			continue
		}
		for _, c := range inc.inst.Workers[w].Specialties {
			for _, t := range inc.tasksByCat[c] {
				if inc.usedT[t] >= inc.inst.Tasks[t].Replication {
					continue
				}
				if _, ok := inc.assigned[w][t]; !ok {
					return fmt.Errorf("core: maximality violated: pair (%d,%d) assignable but unassigned", w, t)
				}
			}
		}
	}
	return nil
}
