package core

import (
	"sort"

	"repro/internal/benefit"
	"repro/internal/market"
)

// NewProblemSerial is the retained single-threaded reference builder: the
// original grow-by-append construction (per-worker union of specialty
// buckets followed by sort.Ints, append-grown per-node adjacency lists),
// flattened into the columns and offsets at the end.  Its task adjacency
// is laid out here from those lists, not by AdjT's counting pass, so the
// two stay independent.
//
// It exists for two reasons: the construction-determinism property test
// asserts the parallel NewProblem is byte-identical to it, and the
// benchmark-regression harness measures the construction speedup against
// it.  Use NewProblem everywhere else.
func NewProblemSerial(in *market.Instance, params benefit.Params) (*Problem, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	model, err := benefit.NewModel(in, params)
	if err != nil {
		return nil, err
	}
	p := &Problem{In: in, Model: model}
	tasksByCat := make([][]int, in.NumCategories)
	for j := range in.Tasks {
		c := in.Tasks[j].Category
		tasksByCat[c] = append(tasksByCat[c], j)
	}
	adjT := make([][]int32, in.NumTasks())
	nE := in.NumEdges()
	p.W, p.T, p.M = make([]int32, 0, nE), make([]int32, 0, nE), make([]float64, 0, nE)
	p.offW = make([]int32, in.NumWorkers()+1)
	for wi := range in.Workers {
		w := &in.Workers[wi]
		// Specialties in ascending order gives ascending task ids per worker
		// only within a category; sort the union for full determinism.
		var taskIDs []int
		for _, c := range w.Specialties {
			taskIDs = append(taskIDs, tasksByCat[c]...)
		}
		sort.Ints(taskIDs)
		for _, tj := range taskIDs {
			t := &in.Tasks[tj]
			adjT[tj] = append(adjT[tj], int32(len(p.M)))
			p.W = append(p.W, int32(wi))
			p.T = append(p.T, int32(tj))
			p.M = append(p.M, model.Combine(model.Quality(w, t), model.WorkerUtility(w, t)))
		}
		p.offW[wi+1] = int32(len(p.M))
	}
	p.offT = make([]int32, len(adjT)+1)
	flat := make([]int32, 0, len(p.M))
	for t, l := range adjT {
		flat = append(flat, l...)
		p.offT[t+1] = int32(len(flat))
	}
	p.adjTOnce.Do(func() { p.adjT = flat })
	return p, nil
}
