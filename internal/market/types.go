// Package market defines the bipartite labor-market domain model — workers,
// tasks, categories — and the workload generators that stand in for the
// paper's platform traces.
//
// A market Instance is a static snapshot of one assignment round: the set of
// workers currently online (with capacities, skill and interest profiles)
// and the set of open tasks (with categories, replication requirements,
// payments and difficulties).  The benefit layer turns an Instance into a
// weighted bipartite graph; the core layer assigns it; the dynamics layer
// strings many rounds together.
package market

import (
	"errors"
	"fmt"
)

// Worker is one supply-side participant of the labor market.
type Worker struct {
	// ID is the worker's dense index in the instance (0-based).
	ID int `json:"id"`
	// Capacity is the maximum number of tasks the worker accepts per round.
	Capacity int `json:"capacity"`
	// Accuracy[c] is the probability the worker answers a category-c task of
	// zero difficulty correctly; always in [0.5, 1) — a worker is never worse
	// than a coin flip (they could invert their answers otherwise).
	Accuracy []float64 `json:"accuracy"`
	// Interest[c] in [0,1] measures how much the worker enjoys category c;
	// it feeds the worker-side benefit.
	Interest []float64 `json:"interest"`
	// Specialties lists the categories the worker accepts tasks from.  The
	// bipartite structure the paper's title refers to comes from here: a
	// worker-task edge exists only if the task's category is a specialty of
	// the worker.
	Specialties []int `json:"specialties"`
	// ReservationWage is the payment below which a task yields zero monetary
	// utility for this worker.
	ReservationWage float64 `json:"reservation_wage"`
}

// AcceptsCategory reports whether category c is one of the worker's
// specialties.
func (w *Worker) AcceptsCategory(c int) bool {
	for _, s := range w.Specialties {
		if s == c {
			return true
		}
	}
	return false
}

// Task is one demand-side participant: a unit of work posted by a requester.
type Task struct {
	// ID is the task's dense index in the instance (0-based).
	ID int `json:"id"`
	// Category identifies the task's domain (image labelling, translation,
	// web development, …).
	Category int `json:"category"`
	// Replication is how many distinct workers the requester wants on the
	// task (k_t in DESIGN.md); answers are aggregated afterwards.
	Replication int `json:"replication"`
	// Payment is what each assigned worker is paid for an answer.
	Payment float64 `json:"payment"`
	// Difficulty in [0,1] discounts worker accuracy: a difficulty-1 task
	// reduces every worker to a coin flip.
	Difficulty float64 `json:"difficulty"`
}

// Instance is a snapshot of the market for one assignment round.
type Instance struct {
	// Name labels the workload for reports ("freelance", "microtask", …).
	Name string `json:"name"`
	// NumCategories is the size of the category universe; all per-category
	// slices have this length.
	NumCategories int `json:"num_categories"`
	// Workers and Tasks are the two sides of the bipartite market.
	Workers []Worker `json:"workers"`
	Tasks   []Task   `json:"tasks"`
	// MaxPayment caches the largest task payment, used to normalise monetary
	// utility into [0,1].
	MaxPayment float64 `json:"max_payment"`
}

// NumWorkers returns the number of workers.
func (in *Instance) NumWorkers() int { return len(in.Workers) }

// NumTasks returns the number of tasks.
func (in *Instance) NumTasks() int { return len(in.Tasks) }

// TotalSlots returns the total demand Σ k_t.
func (in *Instance) TotalSlots() int {
	s := 0
	for _, t := range in.Tasks {
		s += t.Replication
	}
	return s
}

// TotalCapacity returns the total supply Σ c_w.
func (in *Instance) TotalCapacity() int {
	s := 0
	for _, w := range in.Workers {
		s += w.Capacity
	}
	return s
}

// NumEdges counts eligible worker-task pairs (specialty matches).
func (in *Instance) NumEdges() int {
	// Bucket tasks by category once, then sum per-worker.
	perCat := make([]int, in.NumCategories)
	for _, t := range in.Tasks {
		perCat[t.Category]++
	}
	n := 0
	for i := range in.Workers {
		for _, c := range in.Workers[i].Specialties {
			n += perCat[c]
		}
	}
	return n
}

// Validate checks every structural invariant of the instance and returns a
// descriptive error for the first violation.  Generators are tested to
// always produce valid instances; external JSON inputs are validated on
// load.
func (in *Instance) Validate() error {
	if in.NumCategories <= 0 {
		return errors.New("market: instance needs at least one category")
	}
	maxPay := 0.0
	// seen[c] == i+1 marks specialty c as listed by worker i: one
	// per-category slice for the whole pass, allocated once a worker's
	// profile lengths have bounded NumCategories by the input's size.
	var seen []int
	for i := range in.Workers {
		w := &in.Workers[i]
		if w.ID != i {
			return fmt.Errorf("market: worker %d has ID %d (must be dense)", i, w.ID)
		}
		if w.Capacity < 0 {
			return fmt.Errorf("market: worker %d has negative capacity", i)
		}
		if len(w.Accuracy) != in.NumCategories || len(w.Interest) != in.NumCategories {
			return fmt.Errorf("market: worker %d profile length mismatch", i)
		}
		for c, a := range w.Accuracy {
			if a < 0.5 || a >= 1 {
				return fmt.Errorf("market: worker %d accuracy[%d]=%v outside [0.5,1)", i, c, a)
			}
		}
		for c, iv := range w.Interest {
			if iv < 0 || iv > 1 {
				return fmt.Errorf("market: worker %d interest[%d]=%v outside [0,1]", i, c, iv)
			}
		}
		if len(w.Specialties) == 0 {
			return fmt.Errorf("market: worker %d has no specialties", i)
		}
		if seen == nil {
			seen = make([]int, in.NumCategories)
		}
		for _, s := range w.Specialties {
			if s < 0 || s >= in.NumCategories {
				return fmt.Errorf("market: worker %d specialty %d out of range", i, s)
			}
			if seen[s] == i+1 {
				return fmt.Errorf("market: worker %d has duplicate specialty %d", i, s)
			}
			seen[s] = i + 1
		}
		if w.ReservationWage < 0 {
			return fmt.Errorf("market: worker %d has negative reservation wage", i)
		}
	}
	for j := range in.Tasks {
		t := &in.Tasks[j]
		if t.ID != j {
			return fmt.Errorf("market: task %d has ID %d (must be dense)", j, t.ID)
		}
		if t.Category < 0 || t.Category >= in.NumCategories {
			return fmt.Errorf("market: task %d category %d out of range", j, t.Category)
		}
		if t.Replication <= 0 {
			return fmt.Errorf("market: task %d has non-positive replication", j)
		}
		if t.Payment < 0 {
			return fmt.Errorf("market: task %d has negative payment", j)
		}
		if t.Difficulty < 0 || t.Difficulty > 1 {
			return fmt.Errorf("market: task %d difficulty %v outside [0,1]", j, t.Difficulty)
		}
		if t.Payment > maxPay {
			maxPay = t.Payment
		}
	}
	if len(in.Tasks) > 0 && in.MaxPayment < maxPay {
		return fmt.Errorf("market: MaxPayment %v below actual max %v", in.MaxPayment, maxPay)
	}
	return nil
}

// Stats summarises the instance for the dataset-statistics table (R-Tab1).
type Stats struct {
	Name          string
	Workers       int
	Tasks         int
	Categories    int
	Edges         int
	TotalSlots    int
	TotalCapacity int
	MeanPayment   float64
	MeanAccuracy  float64
}

// ComputeStats derives summary statistics of the instance.
func (in *Instance) ComputeStats() Stats {
	s := Stats{
		Name:          in.Name,
		Workers:       in.NumWorkers(),
		Tasks:         in.NumTasks(),
		Categories:    in.NumCategories,
		Edges:         in.NumEdges(),
		TotalSlots:    in.TotalSlots(),
		TotalCapacity: in.TotalCapacity(),
	}
	if len(in.Tasks) > 0 {
		sum := 0.0
		for _, t := range in.Tasks {
			sum += t.Payment
		}
		s.MeanPayment = sum / float64(len(in.Tasks))
	}
	if len(in.Workers) > 0 && in.NumCategories > 0 {
		sum, n := 0.0, 0
		for i := range in.Workers {
			for _, c := range in.Workers[i].Specialties {
				sum += in.Workers[i].Accuracy[c]
				n++
			}
		}
		if n > 0 {
			s.MeanAccuracy = sum / float64(n)
		}
	}
	return s
}
