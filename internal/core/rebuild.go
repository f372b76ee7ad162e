package core

import (
	"math"
	"slices"

	"repro/internal/benefit"
	"repro/internal/market"
)

// RebuildProblem rebuilds prev in place for a new instance, reusing every
// backing array of the previous build that is still large enough — the
// edge columns and their spares, both offset arrays, the task adjacency
// and the counting scratch.  When the market shape is stable round over round (the
// steady state of the serving loop), a rebuild's only fresh allocation is
// the benefit model's memo tables.
//
// d describes how in differs from prev.In (see Delta).  When it checks
// out, the rebuild is a refresh: each surviving worker's row is copied
// from prev with departed tasks dropped and indices remapped, and only the
// edges of arriving workers and tasks are scored, so a round costs its
// churn instead of the market.  A nil d, or one that does not check out
// (see refreshFrom), scores every edge.  Either way the result equals
// NewProblem(in, params) field for field.
//
// The returned Problem is prev itself: its previous columns and adjacency
// are overwritten, so the caller must be the sole owner of prev and must not
// retain views into it across rebuilds (the platform service copies
// assignment pairs out of each round's result before the next rebuild).
// A nil prev is equivalent to NewProblem.  The result records which build
// it was rebuilt from and, after a refresh, a copy of d's correspondence,
// so a solver that kept state for that build (a pinned greedy's resident
// order) can carry it over.
func RebuildProblem(prev *Problem, in *market.Instance, params benefit.Params, d *Delta) (*Problem, error) {
	return rebuildProblemProcs(prev, in, params, d, 0)
}

// rebuildProblemProcs is RebuildProblem with an explicit fan-out, like
// newProblemProcs.
func rebuildProblemProcs(prev *Problem, in *market.Instance, params benefit.Params, d *Delta, procs int) (*Problem, error) {
	if prev == nil {
		return newProblemProcs(in, params, procs)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	model, err := benefit.NewModel(in, params)
	if err != nil {
		return nil, err
	}
	src := prev.refreshFrom(in, params, d)
	prev.bs.from = prev.bs.gen
	if src != nil {
		prev.bs.prevWorker = append(prev.bs.prevWorker[:0], d.PrevWorker...)
		prev.bs.prevTask = append(prev.bs.prevTask[:0], d.PrevTask...)
	}
	prev.In, prev.Model = in, model
	prev.build(procs, src)
	return prev, nil
}

// refreshSource is what a refresh copies rows from: the previous build's
// task and benefit columns and worker offsets, and the delta's
// correspondence between previous and current indices.
type refreshSource struct {
	prevWorker []int32   // Delta.PrevWorker
	t          []int32   // previous build's T
	m          []float64 // previous build's M
	offW       []int32   // previous build's worker offsets
	taskAt     []int32   // previous task index → current index, or -1
	firstArrT  int       // current index of the first arriving task
}

// refreshFrom returns what a rebuild of p for (in, params) can copy under
// d, or nil when it must score every edge.
//
// Copying is exact when a fresh build would list the same edges with the
// same scores in the same relative order.  A row is in ascending task
// order, so that holds when the survivors keep their relative order and
// the arrivals take the largest indices, on both sides, and every copied
// score is unchanged: the same params, categories and MaxPayment (pay is
// scaled by it, so a change re-prices every edge), and each survivor's
// scoring inputs as in p.In.  These checks cost O(nW·nC + nT) and decide
// on their own, so a stale or wrong delta costs a full rebuild, never a
// wrong problem.
func (p *Problem) refreshFrom(in *market.Instance, params benefit.Params, d *Delta) *refreshSource {
	old := p.In
	if d == nil || !p.bs.built || old == nil || p.Model == nil ||
		!sameParams(p.Model.Params(), params) ||
		in.NumCategories != old.NumCategories ||
		math.Float64bits(in.MaxPayment) != math.Float64bits(old.MaxPayment) ||
		len(d.PrevWorker) != in.NumWorkers() || len(d.PrevTask) != in.NumTasks() {
		return nil
	}
	firstArrW, ok := survivorsFirst(d.PrevWorker, old.NumWorkers())
	if !ok {
		return nil
	}
	firstArrT, ok := survivorsFirst(d.PrevTask, old.NumTasks())
	if !ok {
		return nil
	}
	for i, q := range d.PrevWorker[:firstArrW] {
		w, o := &in.Workers[i], &old.Workers[q]
		if !sameBits(w.Accuracy, o.Accuracy) || !sameBits(w.Interest, o.Interest) ||
			!slices.Equal(w.Specialties, o.Specialties) ||
			math.Float64bits(w.ReservationWage) != math.Float64bits(o.ReservationWage) {
			return nil
		}
	}
	for j, q := range d.PrevTask[:firstArrT] {
		t, o := &in.Tasks[j], &old.Tasks[q]
		if t.Category != o.Category ||
			math.Float64bits(t.Payment) != math.Float64bits(o.Payment) ||
			math.Float64bits(t.Difficulty) != math.Float64bits(o.Difficulty) {
			return nil
		}
	}
	taskAt := grow(p.bs.taskAt, old.NumTasks())
	p.bs.taskAt = taskAt
	for q := range taskAt {
		taskAt[q] = -1
	}
	for j, q := range d.PrevTask[:firstArrT] {
		taskAt[q] = int32(j)
	}
	return &refreshSource{
		prevWorker: d.PrevWorker,
		t:          p.T,
		m:          p.M,
		offW:       p.offW,
		taskAt:     taskAt,
		firstArrT:  firstArrT,
	}
}

// survivorsFirst checks one side of a delta — survivors' previous indices
// strictly increase within [0, prevN), and the arrivals (-1) are a
// suffix — and returns where the arrivals start.
func survivorsFirst(prev []int32, prevN int) (int, bool) {
	last := int32(-1)
	for i, q := range prev {
		if q == -1 {
			for _, r := range prev[i+1:] {
				if r != -1 {
					return 0, false
				}
			}
			return i, true
		}
		if q <= last || int(q) >= prevN {
			return 0, false
		}
		last = q
	}
	return len(prev), true
}

// sameParams reports whether a and b are bit-identical, so every score
// under one equals its score under the other.
func sameParams(a, b benefit.Params) bool {
	return a.Combiner == b.Combiner &&
		math.Float64bits(a.Lambda) == math.Float64bits(b.Lambda) &&
		math.Float64bits(a.Beta) == math.Float64bits(b.Beta)
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
