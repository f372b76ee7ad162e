package core

import (
	"container/heap"

	"repro/internal/benefit"
	"repro/internal/stats"
)

// SubmodularGreedy maximises the MBA-S objective with the lazy ("CELF")
// marginal-gain greedy.  Feasible sets are the intersection of two partition
// matroids, so the greedy inherits the classical ½ guarantee for monotone
// submodular maximisation over that constraint family.
//
// Laziness matters: adding a worker to task t changes the marginal gain only
// of other edges into t, so stale heap entries are re-evaluated on pop
// instead of rebuilding the heap after every pick.  Version counters per
// task detect staleness.
type SubmodularGreedy struct{}

// Name implements Solver.
func (SubmodularGreedy) Name() string { return "submodular-greedy" }

// Solve implements Solver.  Deterministic; the RNG is unused.
func (SubmodularGreedy) Solve(p *Problem, _ *stats.RNG) ([]int, error) {
	lambda := p.Model.Params().Lambda
	capW := p.CapacityW()
	capT := p.CapacityT()

	// Effective accuracy per edge, precomputed once.
	effacc := make([]float64, len(p.Edges))
	for i := range p.Edges {
		e := &p.Edges[i]
		effacc[i] = p.Model.EffectiveAccuracy(&p.In.Workers[e.W], &p.In.Tasks[e.T])
	}
	panels := make([][]float64, p.In.NumTasks()) // accuracies assigned so far
	taskVersion := make([]int, p.In.NumTasks())  // bumped on every panel change
	base := make([]float64, p.In.NumTasks())     // current majority prob per task
	for t := range base {
		base[t] = 0.5
	}

	gain := func(ei int) float64 {
		e := &p.Edges[ei]
		after := benefit.MajorityCorrectProb(append(append(
			make([]float64, 0, len(panels[e.T])+1), panels[e.T]...), effacc[ei]))
		dq := 2 * (after - base[e.T])
		if dq < 0 {
			dq = 0
		}
		return lambda*dq + (1-lambda)*e.B
	}

	h := &gainHeap{}
	heap.Init(h)
	for ei := range p.Edges {
		heap.Push(h, gainEntry{edge: ei, gain: gain(ei), version: 0})
	}

	var sel []int
	for h.Len() > 0 {
		top := heap.Pop(h).(gainEntry)
		e := &p.Edges[top.edge]
		if capW[e.W] == 0 || capT[e.T] == 0 {
			continue // permanently infeasible; drop
		}
		if top.version != taskVersion[e.T] {
			// Stale: recompute against the current panel and re-queue.
			heap.Push(h, gainEntry{edge: top.edge, gain: gain(top.edge), version: taskVersion[e.T]})
			continue
		}
		if top.gain <= 0 {
			break // all remaining moves are worthless; gains only shrink
		}
		capW[e.W]--
		capT[e.T]--
		panels[e.T] = append(panels[e.T], effacc[top.edge])
		base[e.T] = benefit.MajorityCorrectProb(panels[e.T])
		taskVersion[e.T]++
		sel = append(sel, top.edge)
	}
	return sel, nil
}

// gainEntry is one heap element: an edge with the gain computed at the given
// task version.
type gainEntry struct {
	edge    int
	gain    float64
	version int
}

// gainHeap is a max-heap over gains (ties by edge index for determinism).
type gainHeap []gainEntry

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].edge < h[j].edge
}
func (h gainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x interface{}) { *h = append(*h, x.(gainEntry)) }
func (h *gainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
